"""Normal-ordered moments of the Heisenberg-picture mode operators.

With a(t) = u a + v b+ and b(t) = u b + v a+ (``bogoliubov_pair``), the
two terms of each operator commute, so each power expands binomially:
a+(t)^p = sum_i C(p, i) conj(u)^i conj(v)^(p-i) a+^i b^(p-i), and likewise
for a(t)^q, b+(t)^r and b(t)^s.  A term of <a+(t)^p a(t)^q b+(t)^r b(t)^s>
is then an a-mode word a+^i a^m a+^n times a b-mode word b^g b+^h b^l, and
each word is put in normal order by the one identity

    c^m c+^n = sum_x C(m, x) C(n, x) x! c+^(n-x) c^(m-x).

On a Fock state <n| c+^d c^d |n> = n!/(n-d)!, exact in integers; on a
coherent state <z| c+^d c^e |z> = conj(z)^d z^e.  Only the coefficient
products conj(u)^A conj(v)^C u^B v^D touch the time grid.  Each moment,
of any degree, is computed when it is asked for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .amplitudes import CoherentPair, FockPair
from .weinorman import AnalyticSolution, bogoliubov_pair


def _word(lead: int, m: int, n: int, trail: int, mode) -> complex:
    """<c+^lead c^m c+^n c^trail> on one mode, where mode(d, e) = <c+^d c^e>."""
    return sum(math.comb(m, x) * math.comb(n, x) * math.factorial(x)
               * mode(lead + n - x, m - x + trail) for x in range(min(m, n) + 1))


@dataclass(frozen=True)
class MomentTable:
    """Normal-ordered moments <a+(t)^p a(t)^q b+(t)^r b(t)^s> of any degree."""

    u: complex | np.ndarray
    v: complex | np.ndarray
    state: FockPair | CoherentPair

    def expect(self, p: int, q: int, r: int, s: int) -> complex:
        if min(p, q, r, s) < 0:
            raise ValueError(f"moment pattern {(p, q, r, s)} has a negative power")
        st = self.state
        if isinstance(st, FockPair):
            mode_a, mode_b = (lambda d, e, n=n: math.perm(n, d) if d == e else 0
                              for n in (st.r, st.s))
        else:
            mode_a, mode_b = (lambda d, e, z=complex(z): z.conjugate() ** d * z ** e
                              for z in (st.alpha, st.beta))
        weights: dict = {}  # (power of conj(u), power of u) -> weight
        for i, j, k, l in np.ndindex(p + 1, q + 1, r + 1, s + 1):
            w = (math.comb(p, i) * math.comb(q, j) * math.comb(r, k) * math.comb(s, l)
                 * _word(i, j + r - k, s - l, 0, mode_a)
                 * _word(0, p - i, q - j + k, l, mode_b))
            weights[i + k, j + l] = weights.get((i + k, j + l), 0) + w
        u, v = self.u, self.v
        ub, vb = np.conj(u), np.conj(v)
        return sum((complex(w) * ub ** n_ub * vb ** (p + r - n_ub) * u ** n_u * v ** (q + s - n_u)
                    for (n_ub, n_u), w in weights.items() if w), 0j)

    @property
    def mean_a(self) -> float:
        return self.expect(1, 1, 0, 0).real

    @property
    def mean_b(self) -> float:
        return self.expect(0, 0, 1, 1).real


def second_moments(state: FockPair | CoherentPair,
                   c: AnalyticSolution) -> MomentTable:
    """Moments on a product initial state, in the interaction picture.

    The frame matches the truncated propagator's; photon-number moments
    are the same in the lab frame, where the other moments pick up the
    free phases exp(-i omega t).  Coefficients on a time grid give moments
    that are arrays over the grid.
    """
    if not isinstance(state, (FockPair, CoherentPair)):
        raise TypeError(f"moments need a Fock or coherent product state, "
                        f"not {type(state).__name__}")
    return MomentTable(*bogoliubov_pair(c), state)
