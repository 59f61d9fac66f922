"""Normal-ordered moments of the Heisenberg-picture mode operators.

Each Heisenberg operator is a linear combination of the four elementary
operators {a, a+, b, b+}; a product of up to four of them expands into a
handful of elementary words, which are normal-ordered by a small rewriting
table and evaluated on Fock or coherent product states.  No symbolic
algebra package is involved.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .amplitudes import CoherentPair, FockPair
from .weinorman import WeiNormanCoefficients, bogoliubov_pair

# elementary symbols: ("a", False) = a, ("a", True) = a-dagger, same for b


@lru_cache(maxsize=None)
def _normal_order(word: tuple) -> tuple:
    """Normal order a single-mode word of (dagger: bool) flags.

    Returns a tuple of (coeff, n_dagger, n_lower) monomials a+^m a^n.
    """
    word = list(word)
    for i in range(len(word) - 1):
        if word[i] is False and word[i + 1] is True:  # a a+ -> a+ a + 1
            swapped = tuple(word[:i] + [True, False] + word[i + 2:])
            dropped = tuple(word[:i] + word[i + 2:])
            out: dict = {}
            for coeff, m, n in _normal_order(swapped) + _normal_order(dropped):
                key = (m, n)
                out[key] = out.get(key, 0) + coeff
            return tuple((c, m, n) for (m, n), c in out.items() if c != 0)
    m = sum(1 for flag in word if flag)
    return ((1, m, len(word) - m),)


def _expect_fock(word: tuple, occ: int) -> float:
    """<occ| word |occ> for a single-mode word."""
    total = 0.0
    for coeff, m, n in _normal_order(word):
        if m != n or n > occ:
            continue
        val = 1.0
        for j in range(n):
            val *= occ - j
        total += coeff * val
    return total


def _expect_coherent(word: tuple, alpha: complex) -> complex:
    """<alpha| word |alpha> for a single-mode word."""
    total = 0j
    for coeff, m, n in _normal_order(word):
        total += coeff * np.conj(alpha) ** m * alpha ** n
    return total


@dataclass(frozen=True)
class MomentTable:
    """All normal-ordered moments <a+(t)^p a(t)^q b+(t)^r b(t)^s>, p+q+r+s <= 4."""

    values: dict

    def expect(self, p: int, q: int, r: int, s: int) -> complex:
        return self.values[(p, q, r, s)]

    @property
    def mean_a(self) -> float:
        return self.expect(1, 1, 0, 0).real

    @property
    def mean_b(self) -> float:
        return self.expect(0, 0, 1, 1).real

    @property
    def var_na(self) -> float:
        m = self.mean_a
        return self.expect(2, 2, 0, 0).real + m - m * m

    @property
    def var_nb(self) -> float:
        m = self.mean_b
        return self.expect(0, 0, 2, 2).real + m - m * m


def second_moments(state: FockPair | CoherentPair,
                   c: WeiNormanCoefficients) -> MomentTable:
    """Moment table on a product initial state, in the interaction picture.

    The frame matches the truncated propagator's; photon-number moments
    are the same in the lab frame, where the other moments pick up the
    free phases exp(-i omega t).  Coefficients on a time grid give moments
    that are arrays over the grid.
    """
    u, v = bogoliubov_pair(c)
    # a(t) = u a + v b+ ; b(t) = u b + v a+
    combos = {
        "a": ((u, ("a", False)), (v, ("b", True))),
        "ad": ((np.conj(u), ("a", True)), (np.conj(v), ("b", False))),
        "b": ((u, ("b", False)), (v, ("a", True))),
        "bd": ((np.conj(u), ("b", True)), (np.conj(v), ("a", False))),
    }

    if isinstance(state, FockPair):
        def eval_mode(word_a, word_b):
            return _expect_fock(word_a, state.r) * _expect_fock(word_b, state.s)
    else:
        def eval_mode(word_a, word_b):
            return (_expect_coherent(word_a, state.alpha)
                    * _expect_coherent(word_b, state.beta))

    values = {}
    for degree in range(5):  # p + q + r + s <= 4
        for p in range(degree + 1):
            for q in range(degree + 1 - p):
                for r in range(degree + 1 - p - q):
                    s = degree - p - q - r
                    ops = (["ad"] * p + ["a"] * q + ["bd"] * r + ["b"] * s)
                    total = 0j
                    for pick in itertools.product(*(combos[o] for o in ops)):
                        coeff = 1.0 + 0j
                        word_a, word_b = [], []
                        for factor, (mode, dag) in pick:
                            coeff *= factor
                            (word_a if mode == "a" else word_b).append(dag)
                        total += coeff * eval_mode(tuple(word_a), tuple(word_b))
                    values[(p, q, r, s)] = total
    return MomentTable(values=values)
