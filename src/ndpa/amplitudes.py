"""Transition amplitudes, probabilities and reduced density matrices.

Every Fock-basis transition probability <m, n| U |r, s> is one Jacobi
polynomial in 1 - 2y (the SU(1,1) matrix elements; Bargmann, Ann. Math.
48, 1947), evaluated by ``_transition`` in the log domain:

    p_mn(r, s) = R! (R+a+b)! / ((R+a)! (R+b)!) x^-(b+1) y^a P_R^(a,b)(1-2y)^2

with R = min(r, s, m, n), a = |n - r| and b = |s - r|.  ``fock_amplitude``
adds its phase.  Fock probabilities are asked for in two ways.  One outcome
at one time runs on Python floats: the numbers its time shares (1/x by
numpy's exp among them) are worked out once for all its outcomes, the
prefactor is exact math.comb, and at R >= 2 scipy's compiled eval_jacobi
runs the recurrence.  An outcome array of one start (integer-array labels)
runs one rescaled recurrence up to its largest degree, freezing each entry
at its own, over a Stirling-form log prefactor; a time grid runs the same
recurrence over the grid, with the exact prefactor.  The vacuum (R = 0,
a = n), |1,1> (R = min(1, n)) and a-mode |l, 0> (R = 0, a = m, b = l)
probabilities are its degree <= 1 cases, each on the outcome line of one
start; the a-mode log term also gives both reduced densities (its
logsumexp).  ``_line_norm`` sums such a line with a certified tail for all
three normalization sums.
"""

from __future__ import annotations

import cmath
import functools
import math
import sys

import numpy as np

from .model import (CoherentPair, FockOutcome, FockPair, PureAModeState,
                    _occupation)
from .weinorman import (AnalyticSolution, WeiNormanCoefficients, _real,
                        bogoliubov_pair)

_HUGE = 2.0 ** 512  # the recurrence pair is scaled by this once both fall below 1/_HUGE
_MIN_NORMAL = sys.float_info.min
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_binom = _eval_jacobi = None  # scipy.special.cython_special's, bound on first use


def _bind_jacobi():
    global _binom, _eval_jacobi
    from scipy.special.cython_special import binom as _binom, eval_jacobi as _eval_jacobi


@functools.cache
def _small_rests():
    """``_stirling_rest`` of 0, 1, ..., 14, from math.lgamma; read-only, as shared."""
    rests = np.array([math.lgamma(x + 1.0) - (x + 0.5) * math.log(x + 1.0) + (x + 1.0)
                      - _LOG_SQRT_2PI for x in range(15)])
    rests.flags.writeable = False
    return rests


def _stirling_rest(x):
    """log x! - ((x + 1/2) log(x + 1) - (x + 1) + log(2 pi)/2) for integer-valued
    float arrays x >= 0: the Stirling series in 1/(x + 1) from x = 15 on, where
    its first omitted term is below 1.1e-16, and a table below."""
    v = 1.0 / (x + 1.0)
    v2 = v * v
    rest = v * (1 / 12 - v2 * (1 / 360 - v2 * (1 / 1260 - v2 * (1 / 1680 - v2 / 1188))))
    small = x < 15
    return np.where(small, _small_rests()[np.minimum(x, 14).astype(np.intp)], rest) \
        if small.any() else rest


def _log_binom(n, k):
    """log C(n, k) for integer-valued float arrays 0 <= k <= n, to a few ulps of
    the result: the three log-factorials in Stirling's form, their large parts
    subtracted before rounding, so that no term is much larger than the sum."""
    k = np.minimum(k, n - k)
    if not k.any():  # C(n, 0) = 1: degree 0, the vacuum and a-mode lines
        return np.zeros(k.shape)
    j = n - k
    return k * np.log((n + 1.0) / (k + 1.0)) + (
        (j + 0.5) * np.log1p(k / (j + 1.0)) - 0.5 * np.log(k + 1.0) + (1.0 - _LOG_SQRT_2PI)
        + _stirling_rest(n) - _stirling_rest(k) - _stirling_rest(j))


def _transition(R, a, b, y, log_y, log_x, inv_x):
    """(log s, f) of one outcome, with the module's p_mn(r, s) = s f^2, |f| <= 1.

    f = P_R^(a,b)(1-2y) / C(R + max(a, b), R), after P^(a,b)(z) = (-1)^R
    P^(b,a)(-z) puts the larger index first; inv_x = 1/x = exp(-log x), and
    (1 + z)/2 = 1/x, (1 - z)/2 = y: never 1 - y.  The labels are ints and
    the prefactor is exact.  At one time (Python floats) and R >= 2 f is
    scipy's compiled eval_jacobi over its own binom: at an int R it runs
    ``_jacobi_ratio``'s recurrence in C and multiplies by that binom, which
    the division cancels exactly (a float R would select scipy's
    hypergeometric form, a different sum).  Over a grid, or where that binom
    is inf or f is not a normal float, ``_jacobi_ratio`` runs.
    """
    if a < b:
        hi, lo, u, w, sign = b, a, y, inv_x, -1.0 if R % 2 else 1.0
    else:
        hi, lo, u, w, sign = a, b, inv_x, y, 1.0
    log_s = (math.log(math.comb(R + hi + lo, hi) * math.comb(R + hi, R))
             + (a * log_y if a else 0.0) - (b + 1) * log_x)
    if R > 1 and type(u) is float:
        if _eval_jacobi is None:
            _bind_jacobi()
        c = _binom(R + hi, R)
        f = _eval_jacobi(int(R), hi, lo, u - w) / c if c < math.inf else 0.0
        if _MIN_NORMAL <= abs(f) < math.inf:  # a normal float, else the recurrence
            return log_s, sign * f
    log_scale, f = _jacobi_ratio(R, R, hi, lo, u, w)
    return log_s + log_scale, sign * f


def _transitions(R, a, b, y, log_y, log_x, inv_x):
    """``_transition`` of integer-array labels, the outcomes of one start at
    one time, with the prefactor in Stirling's form."""
    hi, lo = np.maximum(a, b) * 1.0, np.minimum(a, b) * 1.0  # floats: no int64 overflow
    with np.errstate(invalid="ignore"):  # 0 log y at y = 0
        log_s = (_log_binom(R + hi + lo, hi) + _log_binom(R + hi, R)
                 + np.where(a > 0, a * log_y, 0.0) - (b + 1) * log_x)
    swap = a < b
    u, w = np.where(swap, y, inv_x), np.where(swap, inv_x, y)
    log_scale, f = _jacobi_ratio(R, R.max(initial=0), hi, lo, u, w)
    return log_s + log_scale, np.where(swap & (R % 2 == 1), -f, f)


def _jacobi_ratio(R, top, hi, lo, u, w):
    """(2 log scale, mantissa) of P_R^(hi,lo)(u - w) / C(R + hi, R), by the
    forward recurrence from P_1, rescaled off underflow: for an int R on
    Python floats or over a grid, or for an int array R (top its largest)
    with each entry frozen past its own degree."""
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


def _one_time(c: WeiNormanCoefficients):
    """(y, log y, log x, 1/x, arg A+, arg A-) of scalar coefficients, which every
    outcome at their time shares: worked out on the first call and kept on
    ``c``, a frozen dataclass, as functools.cached_property would.  1/x is
    numpy's exp(-log x), as on a grid, where math.exp can differ in the last
    bit."""
    numbers = c.__dict__.get("_one_time")
    if numbers is None:
        mod_minus, log_x = abs(c.a_minus), -2.0 * c.a_zero.real
        numbers = c.__dict__["_one_time"] = (
            mod_minus * mod_minus, 2.0 * math.log(mod_minus) if mod_minus else -math.inf,
            log_x, float(np.exp(-log_x)), cmath.phase(c.a_plus), cmath.phase(c.a_minus))
    return numbers


def fock_amplitude(c: WeiNormanCoefficients, initial: FockPair,
                   outcome: FockOutcome):
    """<m, n| U_I(t) |r, s>; zero unless m = s - r + n (conserved n_a - n_b).

    Scalar coefficients give a complex number, grid coefficients an array.
    An outcome of integer arrays, with scalar coefficients, gives one
    amplitude per entry.  The phase is (2R + b + 1) Im A0 + a arg(A+ if
    n >= r else A-).
    """
    r, s, m, n = initial.r, initial.s, outcome.m, outcome.n
    if type(m) is int and type(n) is int:  # FockOutcome holds ints or integer arrays
        if m != s - r + n:
            return 0j * c.a_zero
        R, a, b = min(r, s, m, n), abs(n - r), abs(s - r)
        if not isinstance(c.a_minus, np.ndarray):  # one outcome at one time: Python numbers
            y, log_y, log_x, inv_x, arg_plus, arg_minus = _one_time(c)
            log_s, f = _transition(R, a, b, y, log_y, log_x, inv_x)
            return cmath.exp(complex(0.5 * log_s, (2 * R + b + 1) * c.a_zero.imag
                                     + a * (arg_plus if n >= r else arg_minus))) * f
        mod_minus, log_x = np.abs(c.a_minus), -2.0 * c.a_zero.real
        with np.errstate(divide="ignore"):  # A- = 0 at gt = 0
            log_y = 2.0 * np.log(mod_minus)
        log_s, f = _transition(R, a, b, mod_minus * mod_minus, log_y, log_x, np.exp(-log_x))
        arg = np.angle(c.a_plus if n >= r else c.a_minus)
    elif isinstance(c.a_minus, np.ndarray):
        raise ValueError("an outcome array takes scalar coefficients, not a time grid")
    else:  # the outcomes of one start at one time
        m, n = np.broadcast_arrays(m, n)
        y, log_y, log_x, inv_x, arg_plus, arg_minus = _one_time(c)
        R, a, b = np.minimum(np.minimum(m, n), min(r, s)), abs(n - r), abs(s - r)
        log_s, f = _transitions(R, a, b, y, log_y, log_x, inv_x)
        arg = np.where(n >= r, arg_plus, arg_minus)
    amp = np.exp(0.5 * log_s + 1j * ((2 * R + b + 1) * c.a_zero.imag + a * arg)) * f
    return amp if type(m) is int else np.where(m == s - r + n, amp, 0j)


def _line_terms(d: AnalyticSolution, r: int, s: int, k):
    """(log s, f) of the outcomes |k, k + r - s> of the start |r, s>, r >= s <= 1:
    R = min(s, k) <= 1, a = |k - s| and b = r - s."""
    if not isinstance(k, np.ndarray):
        return _transition(min(s, k), abs(k - s), r - s, d.y, d.log_y, d.log_x,
                           np.exp(-d.log_x))
    if np.ndim(d.y):  # else each outcome would pair with one time
        raise ValueError("an outcome array takes scalar coefficients, not a time grid")
    return _transitions(np.minimum(s, k), abs(k - s), r - s, d.y, d.log_y, d.log_x,
                        np.exp(-d.log_x))


def _diagonal_prob(d: AnalyticSolution, r: int, n):
    """p_nn for the initial |r, r>."""
    log_s, f = _line_terms(d, r, r, _occupation("n", n))
    return _real(np.exp(log_s) * f * f)


def vacuum_prob(d: AnalyticSolution, n) -> float:
    """p_nn for the initial vacuum: y^n / x; ``n`` may be an integer array at one time."""
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
    m = _occupation("m", m, arrays=False)
    n = m + np.arange(len(psi.probs))
    return float(np.exp(logsumexp(_amode_log_term(d, psi, m, n))))


def reduced_density_a(d: AnalyticSolution, psi: PureAModeState, n: int) -> float:
    """Diagonal a-mode reduced matrix element sum_m p_mn."""
    from scipy.special import logsumexp
    n = _occupation("n", n, arrays=False)
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

    <a+(t) a(t)> = |<a(t)>|^2 + |v|^2 with <a(t)> = u alpha + v conj(beta);
    a mean past the float range is inf.
    """
    u, v = bogoliubov_pair(c)
    with np.errstate(over="ignore"):
        mean_a = _real(np.abs(u * pair.alpha + v * np.conj(pair.beta)) ** 2 + d.n0)
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
