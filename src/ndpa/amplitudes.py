"""Transition amplitudes, probabilities and reduced density matrices.

Every Fock-basis transition probability <m, n| U |r, s> is one Jacobi
polynomial in 1 - 2y (the SU(1,1) matrix elements; Bargmann, Ann. Math.
48, 1947), evaluated by ``_transition`` in the log domain:

    p_mn(r, s) = R! (R+a+b)! / ((R+a)! (R+b)!) x^-(b+1) y^a P_R^(a,b)(1-2y)^2

with R = min(r, s, m, n), a = |n - r| and b = |s - r|.  ``fock_amplitude``
adds its phase.  A scalar call at R >= 2 runs the recurrence in scipy's C
code (eval_jacobi at an int degree); grids, and labels whose binomial
overflows, run it in a rescaled Python loop.  The vacuum (R = 0, a = n),
|1,1> (R = min(1, n)) and a-mode |l, 0> (R = 0, a = m, b = l) probabilities
are its degree <= 1 cases, each on the outcome line of one start; the a-mode
log term also gives both reduced densities (its logsumexp).  ``_line_norm``
sums such a line with a certified tail for all three normalization sums.
"""

from __future__ import annotations

import cmath
import math
import operator
import sys
from dataclasses import dataclass

import numpy as np

from .model import _require_finite
from .weinorman import (AnalyticSolution, WeiNormanCoefficients, _real,
                        bogoliubov_pair)


def _check_occupations(**occupations) -> None:
    for name, value in occupations.items():  # operator.index admits numpy integers
        if not hasattr(type(value), "__index__") or operator.index(value) < 0:
            raise ValueError(f"occupation {name} must be a non-negative integer, "
                             f"got {value!r}")


@dataclass(frozen=True)
class FockPair:
    """Initial occupations: r in mode a, s in mode b."""

    r: int
    s: int

    def __post_init__(self):
        _check_occupations(r=self.r, s=self.s)


@dataclass(frozen=True)
class FockOutcome:
    """Final occupations: m in mode b, n in mode a."""

    m: int
    n: int

    def __post_init__(self):
        _check_occupations(m=self.m, n=self.n)


@dataclass(frozen=True)
class CoherentPair:
    alpha: complex
    beta: complex

    def __post_init__(self):
        for name, value in (("alpha", self.alpha), ("beta", self.beta)):
            if not cmath.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")


POISSON_MAX_ALPHA = 100.0


@dataclass(frozen=True)
class PureAModeState:
    """Pure a-mode state sqrt(P_s) exp(i phi_s) |s>, with the b mode in vacuum."""

    probs: tuple
    phases: tuple

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        _require_finite("probs", p)
        _require_finite("phases", np.asarray(self.phases, dtype=float))
        if np.any(p < 0):
            raise ValueError("probabilities must be non-negative")
        if abs(p.sum() - 1.0) > 1e-12:
            raise ValueError("probabilities must sum to one")
        if len(self.phases) != p.size:
            raise ValueError("probs and phases must have equal length")

    @classmethod
    def poisson(cls, alpha: complex) -> "PureAModeState":
        """Poisson distribution with mean mu = |alpha|^2, cut at
        n = max(24, mu + 12 sqrt(mu + 1)) and renormalized.

        |alpha| may be at most POISSON_MAX_ALPHA = 100, a support of at
        most 11 201 occupations."""
        if not abs(alpha) <= POISSON_MAX_ALPHA:  # refuses nan and inf too
            raise ValueError(f"alpha must be finite with |alpha| <= "
                             f"{POISSON_MAX_ALPHA:g}, got {alpha!r}")
        mu = abs(alpha) ** 2
        n = np.arange(max(24, int(mu + 12.0 * math.sqrt(mu + 1.0))) + 1)
        log_fact = np.array([math.lgamma(k + 1.0) for k in n.tolist()])
        logp = n * math.log(mu) - log_fact - mu if mu > 0 else \
            np.where(n == 0, 0.0, -np.inf)
        p = np.exp(logp)
        p /= p.sum()
        phases = n * np.angle(alpha) if alpha != 0 else np.zeros(n.size)
        return cls(probs=tuple(p), phases=tuple(phases))


_HUGE = 2.0 ** 512  # the recurrence pair is scaled by this once both fall below 1/_HUGE


def _transition(R, a, b, y, log_y, log_x):
    """(log s, f) with the module's p_mn(r, s) = s f^2 and |f| <= 1.

    f = P_R^(a,b)(1-2y) / C(R + max(a, b), R), after P^(a,b)(z) = (-1)^R
    P^(b,a)(-z) puts the larger index first.  Scalar y at R >= 2 takes scipy's
    compiled eval_jacobi over its own binom: at an int R it runs this forward
    recurrence in C and multiplies by that binom, which the division cancels
    exactly (so R is passed as an int: a float R selects scipy's hypergeometric
    form, a different sum).  Grids, and labels where that binom is inf or f is
    not a normal float, take the loop below, which rescales off underflow.
    Labels are ints, or integer arrays while R <= 1 (no recurrence).
    """
    hi, lo = (a + b + abs(a - b)) // 2, (a + b - abs(a - b)) // 2  # max, min of a, b
    swap = a < b
    # the prefactor times C(R + hi, R)^2 is C(R + hi + lo, hi) C(R + hi, R),
    # which for R <= 1 is C(hi + lo, lo) ((hi + lo + 1) (hi + 1) / (lo + 1))^R
    u, w = np.exp(-log_x), y  # (1 + z)/2 = 1/x and (1 - z)/2 = y; never 1 - y
    if isinstance(a, np.ndarray) or isinstance(R, np.ndarray):  # then R <= 1
        from scipy.special import gammaln
        with np.errstate(invalid="ignore"):  # 0 log y at y = 0
            a_log_y = np.where(a > 0, a * log_y, 0.0)
        log_c = (gammaln(hi + lo + 1.0) - gammaln(hi + 1.0) - gammaln(lo + 1.0)
                 + R * np.log((hi + lo + 1.0) * (hi + 1.0) / (lo + 1.0)))
        u, w = np.where(swap, w, u), np.where(swap, u, w)
        sign = np.where(swap & (R == 1), -1.0, 1.0)
    else:  # exact binomials, and Python floats keep the recurrence fast
        log_c = math.log(math.comb(R + hi + lo, hi) * math.comb(R + hi, R))
        a_log_y, sign = a * log_y if a else 0.0, -1.0 if swap and R % 2 else 1.0
        u, w = (w, u) if swap else (u, w)
        u, w = (u, w) if isinstance(w, np.ndarray) else (float(u), float(w))
    log_s = log_c + a_log_y - (b + 1) * log_x
    p = ((hi + 1) * u - (lo + 1) * w) / (hi + 1)  # P_1 / C(1 + hi, 1)
    if isinstance(R, np.ndarray) or R <= 1:
        return log_s, sign * p ** R  # p^0 = 1 at degree 0
    d, shift, grid = -(hi + lo + 2) * w / (hi + 1), 0, isinstance(w, np.ndarray)
    if not grid:
        from scipy.special.cython_special import binom, eval_jacobi
        c = binom(R + hi, R)
        f = eval_jacobi(int(R), hi, lo, u - w) / c if c < math.inf else 0.0
        if sys.float_info.min <= abs(f) < math.inf:  # normal, else the loop below
            return log_s, sign * f
    tiny, hl = 1.0 / _HUGE, hi + lo
    for k in range(1, R):  # p = P_k / C(k + hi, k), d = its step from k - 1
        t = 2 * k + hl
        d = (k * (k + lo) * (t + 2) * d - t * (t + 1) * (t + 2) * w * p) \
            / ((k + hi + 1) * (k + hl + 1) * t)
        p = p + d
        small = (abs(p) < tiny) & (abs(d) < tiny)
        if small.any() if grid else small:  # keep the pair off underflow
            p, d, shift = p * _HUGE ** small, d * _HUGE ** small, shift + small
    mantissa, exponent = np.frexp(p) if grid else math.frexp(p)
    log_scale = exponent * math.log(2.0) - shift * math.log(_HUGE)
    return log_s + 2.0 * log_scale, sign * mantissa


def fock_amplitude(c: WeiNormanCoefficients, initial: FockPair,
                   outcome: FockOutcome):
    """<m, n| U_I(t) |r, s>; zero unless m = s - r + n (conserved n_a - n_b).

    Scalar coefficients give a complex number, grid coefficients an array.
    The phase is (2R + b + 1) Im A0 + a arg(A+ if n >= r else A-).
    """
    r, s, m, n = initial.r, initial.s, outcome.m, outcome.n
    if m != s - r + n:
        return 0j * c.a_zero
    R, a, b = min(r, s, m, n), abs(n - r), abs(s - r)
    mod_minus, z = abs(c.a_minus), c.a_plus if n >= r else c.a_minus
    if isinstance(mod_minus, np.ndarray):
        with np.errstate(divide="ignore"):  # A- = 0 at gt = 0
            log_y, arg = 2.0 * np.log(mod_minus), np.angle(z)
    else:  # math on Python numbers: this is the per-point path
        log_y = 2.0 * math.log(mod_minus) if mod_minus else -math.inf
        arg = cmath.phase(z)
    log_s, f = _transition(R, a, b, mod_minus * mod_minus, log_y, -2.0 * c.a_zero.real)
    amp = np.exp(0.5 * log_s + 1j * ((2 * R + b + 1) * c.a_zero.imag + a * arg)) * f
    return amp if isinstance(amp, np.ndarray) else complex(amp)


def _line_terms(d: AnalyticSolution, r: int, s: int, k):
    """(log s, f) of the outcomes |k, k + r - s> of the start |r, s>, r >= s <= 1:
    R = min(s, k) <= 1, a = |k - s| and b = r - s."""
    return _transition(np.minimum(s, k), abs(k - s), r - s, d.y, d.log_y, d.log_x)


def _diagonal_prob(d: AnalyticSolution, r: int, n):
    """p_nn for the initial |r, r>."""
    n = np.asarray(n)
    if np.any(n < 0):
        raise ValueError("n must be non-negative")
    log_s, f = _line_terms(d, r, r, n)
    return _real(np.exp(log_s) * f * f)


def vacuum_prob(d: AnalyticSolution, n) -> float:
    """p_nn for the initial vacuum: y^n / x; ``n`` may be an integer array."""
    return _diagonal_prob(d, 0, n)


def fock11_prob(d: AnalyticSolution, n) -> float:
    """p_nn for the initial |1,1> state: y^(n-1) (n/x - y)^2 / x."""
    return _diagonal_prob(d, 1, n)


def _amode_log_term(d: AnalyticSolution, psi: PureAModeState, m, n):
    """log p_mn = log P_(n-m) + log C(n, m) + m log y - (n-m+1) log x, the
    degree-0 transition |n-m, 0> -> |m, n>; m, n and the scalars broadcast.
    -inf where P_(n-m) is zero or n - m is outside the distribution."""
    probs = np.asarray(psi.probs, dtype=float)
    m, n = np.broadcast_arrays(m, n)
    inside = (n >= m) & (n - m < probs.size)
    l = np.where(inside, n - m, 0)
    if not l.ndim:  # Python ints keep _transition on its exact math.comb branch
        m, l = int(m), int(l)
    with np.errstate(divide="ignore"):  # log 0
        log_p = np.log(probs[l]) + _line_terms(d, l, 0, m)[0]
    return np.where(inside, log_p, -np.inf)


def amode_prob(d: AnalyticSolution, psi: PureAModeState,
               outcome: FockOutcome) -> float:
    """p_mn for |psi>_a (x) |0>_b; phase-independent by construction."""
    return _real(np.exp(_amode_log_term(d, psi, outcome.m, outcome.n)))


def reduced_density_b(d: AnalyticSolution, psi: PureAModeState, m: int) -> float:
    """Diagonal b-mode reduced matrix element sum_n p_mn."""
    from scipy.special import logsumexp
    if m < 0:
        raise ValueError("m must be non-negative")
    n = m + np.arange(len(psi.probs))
    return float(np.exp(logsumexp(_amode_log_term(d, psi, m, n))))


def reduced_density_a(d: AnalyticSolution, psi: PureAModeState, n: int) -> float:
    """Diagonal a-mode reduced matrix element sum_m p_mn."""
    from scipy.special import logsumexp
    if n < 0:
        raise ValueError("n must be non-negative")
    return float(np.exp(logsumexp(_amode_log_term(d, psi, np.arange(n + 1), n))))


def effective_temperature(y: float, omega: float) -> float:
    """Temperature of the thermal reduced state with exp(-omega/T) = y."""
    if y == 0.0:
        return 0.0
    if not 0.0 < y < 1.0:
        raise ValueError("require 0 <= y < 1")
    return omega / math.log(1.0 / y)


def coherent_transition_prob(c: WeiNormanCoefficients, initial: CoherentPair,
                             final: CoherentPair) -> float:
    """p_zw = |<z, w| U_I(t) |alpha, beta>|^2 with w labelling mode a, z mode b."""
    alpha, beta = initial.alpha, initial.beta
    w, z = final.alpha, final.beta
    e_a0 = np.exp(c.a_zero)
    log_p = (-(abs(z) ** 2 + abs(w) ** 2 + abs(alpha) ** 2 + abs(beta) ** 2)
             + 2.0 * np.real(c.a_zero)
             + 2.0 * np.real(c.a_plus * np.conj(w) * np.conj(z))
             + 2.0 * np.real(c.a_minus * alpha * beta)
             + 2.0 * np.real(np.conj(w) * alpha * e_a0)
             + 2.0 * np.real(np.conj(z) * beta * e_a0))
    return _real(np.exp(log_p))


def coherent_revival_prob(c: WeiNormanCoefficients,
                          pair: CoherentPair) -> tuple[float, float]:
    """Return probability p_ba(t) to the initial coherent state.

    Also returns the diagnostic |2 - exp(A0) - exp(A0*)| whose near-zeros
    locate the non-revival peaks of p_ba for irrational k^2.
    """
    return (coherent_transition_prob(c, pair, pair),
            _real(np.abs(2.0 - 2.0 * np.real(np.exp(c.a_zero)))))


def coherent_mean_numbers(c: WeiNormanCoefficients, d: AnalyticSolution,
                          pair: CoherentPair) -> tuple[float, float]:
    """Mean photon numbers (mode a, mode b) for an initial coherent pair.

    <a+(t) a(t)> = |<a(t)>|^2 + |v|^2 with <a(t)> = u alpha + v conj(beta).
    """
    u, v = bogoliubov_pair(c)
    mean_a = _real(np.abs(u * pair.alpha + v * np.conj(pair.beta)) ** 2 + d.n0)
    return mean_a, mean_a + abs(pair.beta) ** 2 - abs(pair.alpha) ** 2


# -- certified normalization sums -----------------------------------------

_TAIL = 1e-12  # bound on the terms each sum leaves out (times P_l in amode_norm)


def _line_norm(d: AnalyticSolution, r: int, s: int) -> float:
    """sum_k p over the outcomes |k, k + r - s> of |r, s>, r >= s <= 1.  Past
    k = s, |f| <= 1 bounds each term by its envelope s, whose ratio to the next,
    y (R+a+b+1)(R+a+1)/(a+1)^2 = y (k+b+1)(k+1)/(k-s+1)^2, falls as k grows; so
    the terms past N sum to at most s / (1 - ratio), both at k = N + 1.  N doubles
    from 64 till that is below _TAIL; past 2e6 terms (x (1 - y))^-(b+1) stands in."""
    b, n_max = r - s, 64
    while n_max <= 2_000_000:
        ratio = d.y * (n_max + 2 + b) * (n_max + 2) / (n_max + 2 - s) ** 2
        if ratio < 1.0 and (_line_terms(d, r, s, np.array([n_max + 1]))[0][0]
                            - math.log1p(-ratio) < math.log(_TAIL)):  # array: no big ints
            log_s, f = _line_terms(d, r, s, np.arange(n_max + 1))
            return float(np.sum(np.exp(log_s) * f * f))
        n_max *= 2
    return math.exp(-(b + 1) * (d.log_x + math.log(-math.expm1(d.log_y))))


def vacuum_norm(d: AnalyticSolution) -> float:
    """sum_n p_nn for the vacuum start, certified by ``_line_norm``."""
    return _line_norm(d, 0, 0)


def fock11_norm(d: AnalyticSolution) -> float:
    """sum_n p_nn for the |1,1> start, certified by ``_line_norm``."""
    return _line_norm(d, 1, 1)


def amode_norm(d: AnalyticSolution, psi: PureAModeState) -> float:
    """sum_{m,n} p_mn for an a-mode pure state: sum_l P_l ``_line_norm`` of |l, 0>."""
    return float(sum(p * _line_norm(d, l, 0) for l, p in enumerate(psi.probs) if p))
