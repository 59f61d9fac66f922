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
from .model import ModelParams
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


def second_moments(state: FockPair | CoherentPair, c: WeiNormanCoefficients,
                   params: ModelParams | None = None,
                   max_degree: int = 4) -> MomentTable:
    """Moment table on a product initial state.

    The default frame is the interaction picture (matching the truncated
    propagator); pass ``params`` to include the free-evolution phases
    exp(-i omega t) in the mode operators.  Photon-number moments are
    identical in both frames.  Coefficients on a time grid give moments
    that are arrays over the grid.
    """
    u, v = bogoliubov_pair(c)
    phase_a = phase_b = 1.0
    if params is not None:
        phase_a = np.exp(-1j * params.omega_a * c.t)
        phase_b = np.exp(-1j * params.omega_b * c.t)
    # a(t) = u_a a + v_a b+ ; b(t) = u_b b + v_b a+
    u_a, v_a = u * phase_a, v * phase_a
    u_b, v_b = u * phase_b, v * phase_b

    combos = {
        "a": ((u_a, ("a", False)), (v_a, ("b", True))),
        "ad": ((np.conj(u_a), ("a", True)), (np.conj(v_a), ("b", False))),
        "b": ((u_b, ("b", False)), (v_b, ("a", True))),
        "bd": ((np.conj(u_b), ("b", True)), (np.conj(v_b), ("a", False))),
    }

    if isinstance(state, FockPair):
        def eval_mode(word_a, word_b):
            return _expect_fock(word_a, state.r) * _expect_fock(word_b, state.s)
    else:
        def eval_mode(word_a, word_b):
            return (_expect_coherent(word_a, state.alpha)
                    * _expect_coherent(word_b, state.beta))

    values = {}
    for degree in range(0, max_degree + 1):
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
