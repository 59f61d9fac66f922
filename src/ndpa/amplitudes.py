"""Transition amplitudes, probabilities and reduced density matrices.

Every Fock-basis transition probability <m, n| U |r, s> is one Jacobi
polynomial in 1 - 2y (the SU(1,1) matrix elements; Bargmann, Ann. Math.
48, 1947), evaluated in the log domain:

    p_mn(r, s) = R! (R+a+b)! / ((R+a)! (R+b)!) x^-(b+1) y^a P_R^(a,b)(1-2y)^2

with R = min(r, s, m, n), a = |n - r| and b = |s - r|; ``fock_amplitude`` adds its
phase.  x, y and their logs are read off the ``AnalyticSolution`` of either solver, so
every form here holds under any pump.  All of it is one kernel, ``_transitions``:
outcome labels on the leading axes against one time or a time grid on the trailing
ones, one rescaled recurrence up to the largest degree, over an exact math.comb
prefactor for int labels and a Stirling-form one for integer arrays.  One outcome at
one time, from ``fock_amplitude``, first tries scipy's compiled eval_jacobi on Python
numbers (``_transition``), with hi, lo = max, min(a, b) and a prefactor that forms no
big integer of C(R+hi, R)'s size:

    C(R+hi+lo, hi) C(R+hi, R) = C(R+hi, R)^2 (R+hi+lo)!/(R+hi)! R!/(R+lo)!

The exact math.comb product is kept on the int-label grid path alone.  The vacuum
(R = 0, a = n), |1,1> (R = min(1, n)) and a-mode |l, 0> (R = 0, a = m, b = l)
probabilities are its degree <= 1 cases; the a-mode log term also gives both reduced
densities (its exp summed over the outcome axis).  ``_line_norm`` sums one start's outcomes at one time with a certified tail for
all three norms.
"""

from __future__ import annotations

import cmath
import functools
import math
import sys

import numpy as np

from .model import (CoherentPair, FockOutcome, FockPair, PureAModeState,
                    _occupation)
from .weinorman import AnalyticSolution, _real, bogoliubov_pair

_HUGE = 2.0 ** 512  # the recurrence pair is scaled by this once both fall below 1/_HUGE
_MIN_NORMAL = sys.float_info.min
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_binom = _eval_jacobi = None  # scipy.special.cython_special's, bound on first use
_TABLED = 4096  # _stirling_rest of an int below this is read off a table


def _stirling_series(x):
    """The Stirling series of ``_stirling_rest`` in 1/(x + 1), on floats or float arrays;
    from x = 15 on its first omitted term is below 1.1e-16."""
    v = 1.0 / (x + 1.0)
    v2 = v * v
    return v * (1 / 12 - v2 * (1 / 360 - v2 * (1 / 1260 - v2 * (1 / 1680 - v2 / 1188))))


# _stirling_rest of 0, 1, ..., _TABLED - 1 as Python floats: math.lgamma's below 15
_RESTS = tuple([math.lgamma(x + 1.0) - (x + 0.5) * math.log(x + 1.0) + (x + 1.0) - _LOG_SQRT_2PI
                for x in range(15)] + _stirling_series(np.arange(15.0, _TABLED)).tolist())


@functools.cache
def _small_rests():
    """The first 15 ``_RESTS`` as an array; read-only, as shared."""
    rests = np.array(_RESTS[:15])
    rests.flags.writeable = False
    return rests


def _stirling_rest(x):
    """log x! - ((x + 1/2) log(x + 1) - (x + 1) + log(2 pi)/2) for an int or
    integer-valued float arrays x >= 0: the Stirling series from x = 15 on and a
    table below (read off ``_RESTS`` below _TABLED for an int)."""
    if type(x) is int:
        return _RESTS[x] if x < _TABLED else _stirling_series(x)
    rest = _stirling_series(x)
    small = x < 15
    return np.where(small, _small_rests()[np.minimum(x, 14).astype(np.intp)], rest) \
        if small.any() else rest


def _log_binom(n, k):
    """log C(n, k) for ints, on Python floats, or integer-valued float arrays, 0 <= k <= n,
    to a few ulps of the result: the three log-factorials in Stirling's form, their large
    parts subtracted before rounding, so that no term is much larger than the sum."""
    if type(n) is int:
        k = min(k, n - k)
        if not k:
            return 0.0
        log, log1p = math.log, math.log1p
    else:
        k = np.minimum(k, n - k)
        if not k.any():  # C(n, 0) = 1: degree 0, the vacuum and a-mode lines
            return np.zeros(k.shape)
        log, log1p = np.log, np.log1p
    j = n - k
    return k * log((n + 1.0) / (k + 1.0)) + (
        (j + 0.5) * log1p(k / (j + 1.0)) - 0.5 * log(k + 1.0) + (1.0 - _LOG_SQRT_2PI)
        + _stirling_rest(n) - _stirling_rest(k) - _stirling_rest(j))


def _oriented(R, a, b, y, inv_x):
    """(hi, lo, u, w, sign) of int labels, at one time or over a grid alike:
    P^(a,b)(z) = (-1)^R P^(b,a)(-z) puts the larger index first; inv_x = 1/x =
    exp(-log x), and (1 + z)/2 = 1/x, (1 - z)/2 = y: never 1 - y."""
    return (b, a, y, inv_x, (-1.0) ** R) if a < b else (a, b, inv_x, y, 1.0)


def _log_s(log_binoms, a, b, log_y, log_x):
    """log s of int labels from log C(R + hi + lo, hi) C(R + hi, R): + a log y - (b + 1) log x."""
    return log_binoms + (a * log_y if a else 0.0) - (b + 1) * log_x


def _transition(R, a, b, y, log_y, log_x, inv_x):
    """(log s, f) of one outcome at one time on Python numbers, with the module's
    p_mn(r, s) = s f^2, |f| <= 1: f = P_R^(a,b)(1-2y) / C(R + max(a, b), R).

    At R >= 2 f is scipy's compiled eval_jacobi over its own binom c: at an int R
    it runs ``_jacobi_ratio``'s recurrence in C and multiplies by c, which the
    division cancels exactly (a float R would select scipy's hypergeometric
    form, a different sum).  log s takes its binomials from the module's
    identity: log C(R+hi, R) is log c where scipy forms c as a product
    (min(R, hi) < 20), to a few ulps, and ``_log_binom``'s Stirling form past
    that, where scipy's c is good only to about 4e-12; the two falling
    factorials have lo factors each and are logged apart, as their quotient can
    overflow a float.  Below R = 2, or where c is inf or f is not a normal
    float, the kernel runs.
    """
    global _binom, _eval_jacobi
    if R > 1:
        hi, lo, u, w, sign = _oriented(R, a, b, y, inv_x)
        if _eval_jacobi is None:
            from scipy.special.cython_special import binom as _binom, eval_jacobi as _eval_jacobi
        c = _binom(R + hi, R)
        f = _eval_jacobi(int(R), hi, lo, u - w) / c if c < math.inf else 0.0
        if _MIN_NORMAL <= abs(f) < math.inf:  # a normal float, else the recurrence
            log_c = math.log(c) if R < 20 or hi < 20 else _log_binom(R + hi, R)
            log_binoms = 2.0 * log_c  # C(R+hi+lo, hi) C(R+hi, R) = C(R+hi, R)^2 at lo = 0
            if lo:  # times (R+hi+lo)!/(R+hi)! R!/(R+lo)!, each falling factorial logged apart
                log_binoms += math.log(math.perm(R + hi + lo, lo)) - math.log(math.perm(R + lo, lo))
            return _log_s(log_binoms, a, b, log_y, log_x), sign * f
    return _transitions(R, a, b, y, log_y, log_x, inv_x)


def _transitions(R, a, b, y, log_y, log_x, inv_x):
    """(log s, f) over outcomes x times, the one kernel: int labels (0-d arrays
    too), oriented once for every time, or integer arrays whose axes lead those
    of the times, over the prefactor in Stirling's form."""
    if not isinstance(R, np.ndarray):
        R = top = int(R)
        a, b = int(a), int(b)
        hi, lo, u, w, sign = _oriented(R, a, b, y, inv_x)
        log_s = _log_s(math.log(math.comb(R + hi + lo, hi) * math.comb(R + hi, R)),
                       a, b, log_y, log_x)
    else:
        hi, lo = np.maximum(a, b) * 1.0, np.minimum(a, b) * 1.0  # floats: no int64 overflow
        swap, top = a < b, R.max(initial=0)
        u, w = np.where(swap, y, inv_x), np.where(swap, inv_x, y)
        sign = np.where(swap & (R % 2 == 1), -1.0, 1.0)
        with np.errstate(invalid="ignore"):  # 0 log y at y = 0
            log_s = (_log_binom(R + hi + lo, hi) + _log_binom(R + hi, R)
                     + np.where(a > 0, a * log_y, 0.0) - (b + 1) * log_x)
    log_scale, f = _jacobi_ratio(R, top, hi, lo, u, w)
    return log_s + log_scale, sign * f


def _leading(c: AnalyticSolution, *labels):
    """Integer-array labels broadcast, their axes ahead of the times of ``c``; ints pass."""
    if all(type(v) is int for v in labels):
        return labels
    tail = (1,) * np.ndim(c.a_minus)
    return [v.reshape(v.shape + tail) if v.ndim else v for v in np.broadcast_arrays(*labels)]


def _jacobi_ratio(R, top, hi, lo, u, w):
    """(2 log scale, mantissa) of P_R^(hi,lo)(u - w) / C(R + hi, R), by the
    forward recurrence from P_1, rescaled off underflow: for an int R on
    Python floats or arrays, or for an int array R (top its largest) that
    broadcasts against them, with each entry frozen past its own degree."""
    p = ((hi + 1) * u - (lo + 1) * w) / (hi + 1)  # P_1 / C(1 + hi, 1)
    if top <= 1:
        return 0.0, p ** R  # p^0 = 1 at degree 0
    grid = isinstance(p, np.ndarray)
    if isinstance(R, np.ndarray):
        p = p ** np.minimum(R, 1)  # degree-0 entries start, and stay, at 1
    d, shift, tiny, hl = -(hi + lo + 2) * w / (hi + 1), 0, 1.0 / _HUGE, hi + lo
    for k in range(1, int(top)):  # p = P_k / C(k + hi, k), d = its step from k - 1
        t = 2 * k + hl
        d = (k * (k + lo) * (t + 2) * d - t * (t + 1) * (t + 2) * w * p) \
            / ((k + hi + 1) * (k + hl + 1) * t) * (k < R)  # 0 past an entry's degree
        p = p + d
        small = (abs(p) < tiny) & (abs(d) < tiny)
        if small.any() if grid else small:  # keep the pair off underflow
            p, d, shift = p * _HUGE ** small, d * _HUGE ** small, shift + small
    mantissa, exponent = np.frexp(p) if grid else math.frexp(p)
    return 2.0 * (exponent * math.log(2.0) - shift * math.log(_HUGE)), mantissa


def _one_time(c: AnalyticSolution):
    """(y, log y, log x, 1/x, arg A+, arg A-) of a record at one time, for all its outcomes:
    kept on ``c`` (frozen) on the first call, one tuple being faster than three attributes.
    1/x is numpy's exp(-log x), as on a grid, where math.exp can differ in the last bit."""
    numbers = c.__dict__.get("_one_time")
    if numbers is None:
        numbers = c.__dict__["_one_time"] = (c.y, c.log_y, c.log_x, float(np.exp(-c.log_x)),
                                             cmath.phase(c.a_plus), cmath.phase(c.a_minus))
    return numbers


def fock_amplitude(c: AnalyticSolution, initial: FockPair, outcome: FockOutcome):
    """<m, n| U_I(t) |r, s>; zero unless m = s - r + n (conserved n_a - n_b).

    One outcome at one time gives a complex number.  An outcome of integer
    arrays gives one amplitude per entry, grid coefficients one per time, and
    both together a table whose outcome axes lead its time axes.  The phase
    is (2R + b + 1) Im A0 + a arg(A+ if n >= r else A-).
    """
    r, s, m, n = initial.r, initial.s, outcome.m, outcome.n
    if type(m) is int and type(n) is int:  # FockOutcome holds ints or integer arrays
        if m != s - r + n:
            return 0j * c.a_zero
        if not isinstance(c.a_minus, np.ndarray):  # one outcome at one time: Python numbers
            y, log_y, log_x, inv_x, arg_plus, arg_minus = _one_time(c)
            R, a, b = min(r, s, m, n), abs(n - r), abs(s - r)
            log_s, f = _transition(R, a, b, y, log_y, log_x, inv_x)
            return cmath.exp(complex(0.5 * log_s, (2 * R + b + 1) * c.a_zero.imag
                                     + a * (arg_plus if n >= r else arg_minus))) * f
    m, n = _leading(c, m, n)  # the kernel; numpy's numbers of one time equal its grid column's
    R, a, b = np.minimum(np.minimum(m, n), min(r, s)), abs(n - r), abs(s - r)
    log_s, f = _transitions(R, a, b, c.y, c.log_y, c.log_x, np.exp(-c.log_x))
    arg = np.where(n >= r, np.angle(c.a_plus), np.angle(c.a_minus))
    amp = np.exp(0.5 * log_s + 1j * ((2 * R + b + 1) * c.a_zero.imag + a * arg)) * f
    return np.where(m == s - r + n, amp, 0j)


def _line_terms(d: AnalyticSolution, r, s: int, k):
    """(log s, f) of the outcomes |k, k + r - s> of the starts |r, s>, r >= s <= 1:
    R = min(s, k) <= 1, a = |k - s| and b = r - s; array labels lead the times."""
    return _transitions(np.minimum(s, k), abs(k - s), r - s, d.y, d.log_y, d.log_x,
                        np.exp(-d.log_x))


def _diagonal_prob(d: AnalyticSolution, r: int, n):
    """p_nn for the initial |r, r>."""
    log_s, f = _line_terms(d, r, r, *_leading(d, _occupation("n", n)))
    return _real(np.exp(log_s) * f * f)


def vacuum_prob(d: AnalyticSolution, n) -> float:
    """p_nn for the initial vacuum: y^n / x; ``n`` may be an integer array."""
    return _diagonal_prob(d, 0, n)


def fock11_prob(d: AnalyticSolution, n) -> float:
    """p_nn for the initial |1,1> state: y^(n-1) (n/x - y)^2 / x."""
    return _diagonal_prob(d, 1, n)


def _amode_log_term(d: AnalyticSolution, psi: PureAModeState, m, n):
    """log p_mn = log P_(n-m) + log C(n, m) + m log y - (n-m+1) log x, the
    degree-0 transition |n-m, 0> -> |m, n>; m and n broadcast, their axes
    leading the times.  -inf where P_(n-m) is zero or n - m is outside the
    distribution."""
    probs = np.asarray(psi.probs, dtype=float)
    m, n = _leading(d, m, n)
    inside = (n >= m) & (n - m < probs.size)
    l = np.where(inside, n - m, 0)
    with np.errstate(divide="ignore"):  # log 0
        log_p = np.log(probs[l]) + _line_terms(d, l, 0, m)[0]
    return np.where(inside, log_p, -np.inf)


def amode_prob(d: AnalyticSolution, psi: PureAModeState,
               outcome: FockOutcome) -> float:
    """p_mn for |psi>_a (x) |0>_b; phase-independent by construction."""
    return _real(np.exp(_amode_log_term(d, psi, outcome.m, outcome.n)))


def reduced_density_b(d: AnalyticSolution, psi: PureAModeState, m: int) -> float:
    """Diagonal b-mode reduced matrix element sum_n p_mn, one per time on a grid."""
    m = _occupation("m", m, arrays=False)
    return _real(np.exp(_amode_log_term(d, psi, m, m + np.arange(len(psi.probs)))).sum(axis=0))


def reduced_density_a(d: AnalyticSolution, psi: PureAModeState, n: int) -> float:
    """Diagonal a-mode reduced matrix element sum_m p_mn, one per time on a grid."""
    n = _occupation("n", n, arrays=False)
    return _real(np.exp(_amode_log_term(d, psi, np.arange(n + 1), n)).sum(axis=0))


def effective_temperature(y: float, omega: float) -> float:
    """Temperature of the thermal reduced state with exp(-omega/T) = y."""
    if y == 0.0:
        return 0.0
    if not 0.0 < y < 1.0:
        raise ValueError(f"require 0 <= y < 1, got y = {y!r}")
    return omega / math.log(1.0 / y)


def coherent_transition_prob(c: AnalyticSolution, initial: CoherentPair,
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


def coherent_revival_prob(c: AnalyticSolution,
                          pair: CoherentPair) -> tuple[float, float]:
    """Return probability p_ba(t) to the initial coherent state.

    Also returns the diagnostic |2 - exp(A0) - exp(A0*)| whose near-zeros
    locate the non-revival peaks of p_ba for irrational k^2.
    """
    return (coherent_transition_prob(c, pair, pair),
            _real(np.abs(2.0 - 2.0 * np.real(np.exp(c.a_zero)))))


def _coherent_mean(c: AnalyticSolution, pair: CoherentPair):
    """<a(t)> = u alpha + v conj(beta) for an initial coherent pair."""
    u, v = bogoliubov_pair(c)
    return u * pair.alpha + v * np.conj(pair.beta)


def coherent_mean_numbers(c: AnalyticSolution, d: AnalyticSolution,
                          pair: CoherentPair) -> tuple[float, float]:
    """Mean photon numbers (mode a, mode b) for an initial coherent pair.

    <a+(t) a(t)> = |<a(t)>|^2 + |v|^2; a mean past the float range is inf.
    """
    return _mean_numbers(_coherent_mean(c, pair), d.n0, pair)


def _mean_numbers(mean, n0, pair: CoherentPair) -> tuple[float, float]:
    """``coherent_mean_numbers`` from <a(t)> = ``mean`` and n0 = |v|^2."""
    with np.errstate(over="ignore"):
        mean_a = _real(np.abs(mean) ** 2 + n0)
    return mean_a, mean_a + abs(pair.beta) ** 2 - abs(pair.alpha) ** 2


# -- certified normalization sums -----------------------------------------

_TAIL = 1e-15  # bound on the terms each sum leaves out, amode_norm's over all sources
_CHUNK = 1 << 16  # outcomes per array call of a sum, so its memory stays flat at any N


def _line_norm(d: AnalyticSolution, r: int, s: int, tail: float = _TAIL) -> float:
    """sum_k p over the outcomes |k, k + r - s> of |r, s>, with s = 0 or r = s = 1.

    |f| <= 1 bounds each term by its envelope e_k = s, whose ratio rho_k =
    e_(k+1)/e_k = y (k+b+1)(k+1)/(k-s+1)^2 falls as k >= s grows.  So the terms
    from k on sum to at most e_k/(1 - rho_k) where rho_k < 1, and those from s
    to k to at most e_k/(1 - 1/rho_k) where rho_k > 1.  Of the candidates k =
    s - 1 + floor(2^(j/16)) up to 2^20 past s, the sum runs from just past the
    largest k whose lower bound is below tail/2 to just before the smallest k
    whose upper bound is, plus any terms below s, _CHUNK terms at a time.
    Where no candidate bounds the upper tail, (x (1 - y))^-(b+1) stands in.
    """
    if np.ndim(d.y):
        raise ValueError(f"a normalization sum takes one time, not a grid of shape {d.y.shape}")
    b = r - s
    k = s - 1 + np.unique((2.0 ** (np.arange(321) / 16)).astype(np.int64))
    rho = d.y * (k + b + 1) * (k + 1) / (k - s + 1) ** 2
    log_e, log_tail = _line_terms(d, r, s, k)[0], math.log(tail / 2)
    with np.errstate(divide="ignore", invalid="ignore"):  # log1p(-1) or less: masked out
        above = (rho < 1.0) & (log_e - np.log1p(-rho) < log_tail)
        below = (rho > 1.0) & (log_e - np.log1p(-1.0 / rho) < log_tail)
    if not above.any():
        return math.exp(-(b + 1) * (d.log_x + math.log(-math.expm1(d.log_y))))
    start = int(k[below].max()) + 1 if below.any() else 0
    spans = ((start, int(k[above.argmax()])), (0, s if start else 0))
    chunks = (_line_terms(d, r, s, np.arange(i, min(i + _CHUNK, stop)))
              for first, stop in spans for i in range(first, stop, _CHUNK))
    return float(sum(np.sum(np.exp(log_s) * f * f) for log_s, f in chunks))


def vacuum_norm(d: AnalyticSolution) -> float:
    """sum_n p_nn for the vacuum start, certified by ``_line_norm``."""
    return _line_norm(d, 0, 0)


def fock11_norm(d: AnalyticSolution) -> float:
    """sum_n p_nn for the |1,1> start, certified by ``_line_norm``."""
    return _line_norm(d, 1, 1)


def amode_norm(d: AnalyticSolution, psi: PureAModeState) -> float:
    """sum_{m,n} p_mn for an a-mode pure state: sum_l P_l ``_line_norm`` of |l, 0>.

    The terms left out total at most _TAIL = 1e-15 (well under 1e-12).  The
    smallest sources, up to half of that in all, are left out whole: a
    start's outcomes sum to 1, so each leaves out P_l.  Every other line
    leaves out at most what remains, weighted by its P_l (1 in all)."""
    probs = np.asarray(psi.probs)
    order = np.argsort(probs, kind="stable")
    dropped = np.cumsum(probs[order]) <= _TAIL / 2
    tail = _TAIL - probs[order[dropped]].sum()
    return float(sum(probs[l] * _line_norm(d, int(l), 0, tail)
                     for l in np.sort(order[~dropped])))
