"""Heisenberg-picture observables: photon statistics, correlations, quadrature squeezing,
signal-to-noise ratios and the instantaneous diagonalization of the Hamiltonian.  Each reads the
one ``AnalyticSolution`` it is handed, of either solver; only ``squeezing_extrema`` solves for
itself.  A coherent start's mean numbers, Q, eta and Yuen bound read one scaled <a(t)>
(``_coherent_mean``).  Past the float range a value is inf, never nan: f is +-inf with its sign
and var_x inf, F stays finite.  f and var_x read 0 where they underflow, a Fock f and F with
r s = 0 also where y^2 does (g t < 1e-77), and F is NaN only where a mean vanishes."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .amplitudes import (_MIN_NORMAL, CoherentPair, FockPair, PureAModeState, _coherent_mean,
                         _mean_numbers)
from .model import ModelParams, RegimeError, RegimeTag, classify_regime
from .moments import MomentTable
from .weinorman import AnalyticSolution, _real, solve_analytic


def mean_photon_fock(d: AnalyticSolution, f: FockPair) -> tuple[float, float]:
    """(mean_a, mean_b) = (r, s) + n0 (r+s+1); the difference is conserved."""
    pumped = d.n0 * (f.r + f.s + 1.0)
    return f.r + pumped, f.s + pumped


def _k(f: FockPair) -> float:
    """K = 2rs+r+s+1 of |r,s>: the a mode's number variance is K n0 (1 + n0)."""
    return 2.0 * f.r * f.s + f.r + f.s + 1.0


def _mandel_q(n0, f: FockPair):
    """Q = Var/mean - 1 = (K - mean/n0 + K n0)/(mean/n0); -1 (r > 0) or 0 where r/n0 overflows."""
    n0 = np.asarray(n0, dtype=float)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        mean_n0 = np.divide(f.r, n0) + (f.r + f.s + 1.0)
        q = (_k(f) - mean_n0 + _k(f) * n0) / mean_n0
    return _real(np.where(np.isfinite(mean_n0), q, -1.0 if f.r else 0.0))


def _snr_rho(n0, f: FockPair, log_n0=None):
    """rho = mean/sqrt(Var) = (mean/n0)/(sigma sqrt K) = (r sigma + (s+1)/sigma)/sqrt K, with
    sigma = sqrt(1 + 1/n0): inf at n0 = 0, where rho is inf for r > 0 and 0 for r = 0.  Where n0
    is below the normal floats (0 from g t ~ 1e-162 on) sigma = n0^(-1/2) is read off ``log_n0``
    if given, so that it is inf only at log n0 = -inf."""
    n0 = np.asarray(n0, dtype=float)
    with np.errstate(divide="ignore", over="ignore"):
        sigma = np.hypot(1.0, 1.0 / np.sqrt(n0))  # 1 at n0 = inf
        if log_n0 is not None:
            sigma = np.where(n0 < _MIN_NORMAL, np.exp(-0.5 * log_n0), sigma)
        rho = ((f.r * sigma if f.r else 0.0) + (f.s + 1.0) / sigma) / math.sqrt(_k(f))
    return _real(rho)


def mandel_q_fock(d: AnalyticSolution, f: FockPair) -> float:
    """Mandel Q of the a mode for an initial Fock pair, at the record's n0.

    Q(0) is -1 for r != 0 and 0 for r = 0 (the latter taken as the
    explicit n0 -> 0 limit of the closed form).  No n0^2 is formed: Q
    reads inf only where K n0 overflows, past n0 ~ 1e308/K.
    """
    return _mandel_q(d.n0, f)


def mandel_q_fock_max(params: ModelParams, f: FockPair) -> float:
    """Maximum of Q over time for k^2 > 1 (monotone in n0, peak at n0 = 1/(k^2-1))."""
    k2 = params.k2
    if k2 <= 1.0:
        raise RegimeError("Q is unbounded above for k^2 <= 1")
    return _mandel_q(1.0 / (k2 - 1.0), f)


def mandel_q_coherent(sol: AnalyticSolution, pair: CoherentPair) -> float:
    """Mandel Q of the a mode for an initial coherent pair, at the record's n0.  Each mode is
    displaced thermal light, <a+^2 a^2> = |<a>|^4 + 4 |<a>|^2 n0 + 2 n0^2, so Q = n0 (2 |<a>|^2
    + n0)/(|<a>|^2 + n0) = n0 (|<a>|^2/N + mean/N)/(mean/N) off ``_coherent_mean``: positive
    terms, no cancellation, inf only past the float range.  A zero mean raises a ValueError."""
    _, mean2, n0_n, _ = _coherent_mean(sol, pair)
    mean_n = mean2 + n0_n
    if np.any(mean_n == 0.0):
        raise ValueError("Mandel Q undefined at zero mean photon number")
    with np.errstate(over="ignore"):
        return _real(sol.n0 * (mean2 + mean_n) / mean_n)


def _ratio_f(q, dd, scale, norm):
    """(f, F) = (scale q/dd, q/dd/norm), norm = sqrt(mean_a mean_b)/scale: f is 0 where dd is
    and +-inf past the float range; F is NaN where a mean vanishes."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        ratio = np.where(dd > 0.0, q / dd + 0.0, 0.0)  # + 0.0: no -0.0
        return (_real(np.where(ratio == 0.0, 0.0, ratio * scale)),
                _real(np.where(norm > 0.0, ratio / norm, np.nan)))


def cross_correlation_fock(d: AnalyticSolution, f: FockPair) -> tuple[float, float]:
    """(f, F) for an initial Fock pair from the closed form f = x^2 (first second - bracket).

    first second and bracket agree to 1 - y = 1/x, so f is formed as x P(y)/(first second +
    bracket), P = (first^2 second^2 - bracket^2)/(1 - y) the cubic below, and F as f/x over
    sqrt(mean_a mean_b)/x.  F is NaN whenever a mean vanishes (e.g. at t = 0 with r or s zero).
    """
    r, s, y = f.r, f.s, d.y
    first = np.sqrt(r * (r - 1.0) + 4.0 * r * (s + 1.0) * y + (s + 1.0) * (s + 2.0) * y * y)
    second = np.sqrt(s * (s - 1.0) + 4.0 * s * (r + 1.0) * y + (r + 1.0) * (r + 2.0) * y * y)
    bracket = r * s + (r + 1.0) * (s + 1.0) * y * y + (r + s + 1.0) ** 2 * y
    cubic = ((-(r + 1) * (s + 1) * (r + s + 3) * y
              - (r + 1) * (s + 1) * (2 * (r - s) ** 2 + 5 * (r + s) + 1)) * y
             + r * s * (2 * (r - s) ** 2 - 5 * (r + s) - 9)) * y - r * s * (r + s - 1)
    inv_x, pumped = 1.0 / d.x, y * (r + s + 1.0)  # mean/x = r/x + (r+s+1) y
    return _ratio_f(cubic, first * second + bracket, d.x,
                    np.sqrt(r * inv_x + pumped) * np.sqrt(s * inv_x + pumped))


def cross_correlation_coherent(sol: AnalyticSolution, pair: CoherentPair) -> tuple[float, float]:
    """(f, F) for an initial coherent pair, from Wick's theorem (Phys. Rev. 80, 268, 1950):
    f = (a22 b22 - c^2)/(sqrt(a22 b22) + c), a22 = |A|^4 + 4 |A|^2 n0 + 2 n0^2 (A = <a(t)>, b22
    alike) and c = |A|^2 |B|^2 + 2 n0 (|A|^2 + |B|^2 + n0) + mu, whose numerator is -mu (2c - mu)
    - 2 n0^2 (|alpha|^2 - |beta|^2)^2, mu = |A|^2 - |alpha|^2 + n0: no n0^4 term.  All is in
    units of N = max(n0, 1) and 1/l = max(1, |A|^2/N, |B|^2/N, |mu|/N), and A/sqrt(N) is
    sqrt(n0/N) (alpha - conj(beta w)) + (sqrt(x/N) - sqrt(n0/N)) alpha up to a phase, w =
    A-/|A-|, so that a deamplified mean (alpha = beta at k^2 = 0) does not cancel."""
    log_n0, a_minus = np.atleast_1d(sol.log_n0), np.atleast_1d(sol.a_minus)  # rounds as a grid
    alpha, beta, log_n = complex(pair.alpha), complex(pair.beta), np.maximum(log_n0, 0.0)
    p, e = np.exp(log_n0 - log_n), np.exp(-log_n)  # n0/N, 1/N
    g, h, w = np.sqrt(p), e / (np.sqrt(p + e) + np.sqrt(p)), np.exp(1j * np.angle(a_minus))
    z, z_b = alpha - np.conj(beta * w), beta - np.conj(alpha * w)
    mean_a, mean_b = np.abs(g * z + h * alpha) ** 2, np.abs(g * z_b + h * beta) ** 2
    mu = g * g * np.abs(z) ** 2 - 2.0 * g * h * np.real(alpha * beta * w) + p
    l = 1.0 / np.maximum(np.maximum(1.0, np.abs(mu)), np.maximum(mean_a, mean_b))
    mean_a, mean_b, mu, p_l = mean_a * l, mean_b * l, mu * l, p * l
    diff = (abs(alpha) ** 2 - abs(beta) ** 2) * l
    c = mean_a * mean_b + 2.0 * p_l * (mean_a + mean_b + p_l) + e * l * mu
    a22, b22 = (v * v + 4.0 * v * p_l + 2.0 * p_l * p_l for v in (mean_a, mean_b))
    with np.errstate(over="ignore"):  # N past the float range
        return tuple(_real(np.reshape(v, np.shape(sol.t))) for v in _ratio_f(
            -mu * (2.0 * c - e * l * mu) - 2.0 * p * p_l * (e * diff) * diff, np.sqrt(a22)
            * np.sqrt(b22) + c, np.exp(log_n) / l, np.sqrt(mean_a + p_l) * np.sqrt(mean_b + p_l)))


def cross_correlation_general(moments: MomentTable) -> tuple[float, float]:
    """(f, F) from the moment table: the tests' reference for the two closed forms above."""
    a22, b22, c = (moments.expect(*k).real for k in ((2, 2, 0, 0), (0, 0, 2, 2), (1, 1, 1, 1)))
    f_value = np.sqrt(np.maximum(a22, 0.0)) * np.sqrt(np.maximum(b22, 0.0)) - c
    return _ratio_f(f_value, 1.0, 1.0, np.sqrt(np.maximum(moments.mean_a * moments.mean_b, 0.0)))


# -- quadrature squeezing ---------------------------------------------------


@dataclass(frozen=True)
class SqueezingKernel:
    """|T_theta(t)|^2 together with its oscillation kernels G(t), H(t)."""

    theta: float
    t_sq: float
    g_kernel: float
    h_kernel: float


def squeezing_kernel(sol: AnalyticSolution, theta: float) -> SqueezingKernel:
    """Quadrature kernel |T_theta|^2 = |u e^(i theta) + conj(v) e^(-i theta)|^2 = 1/(sqrt x +
    sqrt n0)^2 + 4 sqrt(x n0) sin^2(psi/2), psi = 2 theta + 2 Im A0 - arg A- = 2 theta + arg(-u v),
    from log x and log n0, with sin(psi/2) expanded about Im A0 so that its size is reduced exactly.
    G + iH is the record's A-, which unitarity makes -conj(A+) exp(2i Im A0) under any pump;
    under the harmonic pump, also conj(A-) exp(2i Im A0 + i Omega t), |T_theta|^2 = x [1 + y
    - 2(cos(Wt-2th) G + sin(Wt-2th) H)].  A record at one time is evaluated as a one-element
    grid, so that it rounds exactly as the same time on a grid does."""
    shape = np.shape(sol.t)
    if not shape:
        sol = type(sol)(*(np.atleast_1d(getattr(sol, f)) for f in sol.__dataclass_fields__))
    half, phase = theta - 0.5 * np.angle(sol.a_minus), sol.a_zero.imag
    sin = np.sin(phase) * np.cos(half) + np.cos(phase) * np.sin(half)  # sin(psi/2)
    with np.errstate(over="ignore", invalid="ignore"):  # inf times a zero sin is 0
        excess = (2.0 * sin) ** 2 * np.exp(0.5 * sol.log_x) * np.exp(0.5 * sol.log_n0)
        t_sq = np.exp(-sol.log_x) / (1.0 + np.sqrt(sol.y)) ** 2 + np.where(sin == 0.0, 0.0, excess)
    t_sq, g, h = (_real(np.reshape(value, shape))
                  for value in (t_sq, sol.a_minus.real, sol.a_minus.imag))
    return SqueezingKernel(theta=theta, t_sq=t_sq, g_kernel=g, h_kernel=h)


def quadrature_variance(kernel: SqueezingKernel,
                        state: FockPair | CoherentPair | PureAModeState) -> float:
    """Var X_theta: (r+s+1)|T|^2 for a Fock pair, |T|^2 for a coherent pair or a-mode state."""
    if isinstance(state, FockPair):
        return kernel.t_sq * (state.r + state.s + 1.0)
    if isinstance(state, PureAModeState):
        p, n = np.asarray(state.probs), np.arange(len(state.probs))
        c = np.sqrt(p) * np.exp(1j * np.asarray(state.phases))  # <n|psi>
        excess = n @ p - abs(np.vdot(c[:-1], np.sqrt(n[1:]) * c[1:])) ** 2
        if excess > 1e-12 * (1.0 + n @ p):
            raise ValueError(f"not a coherent a mode: mean n - |<a>|^2 = {excess:.3e}")
    return kernel.t_sq


def squeezing_extrema(params: ModelParams, theta: float, t_range,
                      n_grid: int = 4001) -> list[tuple[float, float]]:
    """Local minima of |T_theta|^2 on (t0, t1), bracketed on a grid and refined."""
    from scipy.optimize import minimize_scalar
    t0, t1 = t_range
    ts = np.linspace(t0, t1, n_grid)
    vals = squeezing_kernel(solve_analytic(params, ts), theta).t_sq
    minima = []
    for i in np.flatnonzero((vals[1:-1] < vals[:-2]) & (vals[1:-1] < vals[2:])) + 1:
        res = minimize_scalar(lambda t: squeezing_kernel(solve_analytic(params, t), theta).t_sq,
                              bounds=(ts[i - 1], ts[i + 1]),
                              method="bounded",
                              options={"xatol": 1e-12})
        minima.append((float(res.x), float(res.fun)))
    return minima


def asymptotic_minima_period(params: ModelParams) -> float:
    """Large-time spacing of the quadrature-variance minima below threshold."""
    if classify_regime(params) is not RegimeTag.SUB or params.k == 0.0:
        raise RegimeError("asymptotic period pi/k applies below threshold with k != 0")
    return math.pi / (abs(params.k) * params.g)


# -- signal-to-noise ---------------------------------------------------------


@dataclass(frozen=True)
class SnrExtremum:
    time: float
    value: float
    kind: str  # 'local_max' | 'global_min' | 'global_max'


@dataclass(frozen=True)
class SnrReport:
    """Quadrature signal-to-noise ratio and its Yuen bound."""

    eta: float
    yuen_bound: float


def snr_rho_fock(d: AnalyticSolution, f: FockPair) -> float:
    """rho_a = mean / std of n_a(t) at the record's n0: +inf at t = 0 with r > 0 (no Fock
    variance), 0 with r = 0; at n0 = inf, past the float range, it is ``snr_rho_limit``.
    Where n0 underflows, rho reads the record's log n0."""
    return _snr_rho(d.n0, f, d.log_n0)


def snr_rho_limit(f: FockPair) -> float:
    """Large-time limit of rho_a below threshold: rho at n0 = inf, (r+s+1)/sqrt(2rs+r+s+1)."""
    return _snr_rho(math.inf, f)


def snr_rho_extremum_value(params: ModelParams, f: FockPair) -> float:
    """rho at the half-period times gt sqrt(k^2-1) = n pi/2 (odd n): n0 = 1/(k^2-1)."""
    k2 = params.k2
    if k2 <= 1.0:
        raise RegimeError("the half-period extremum of rho requires k^2 > 1")
    return _snr_rho(1.0 / (k2 - 1.0), f)


def snr_rho_min_value(f: FockPair) -> float:
    """Global minimum of rho, independent of the detuning: rho at n0* = r/(s-r+1), inf for s = r-1.
    Needs r, s > 0 and s >= r-1; for s < r-1 rho falls to ``snr_rho_limit`` with no minimum."""
    r, s = f.r, f.s
    if r == 0 or s == 0:
        raise ValueError(f"the minimum of rho needs r, s > 0, got |{r},{s}>")
    if s < r - 1:
        raise ValueError(f"rho of |{r},{s}> falls to its limit with no minimum: s < r-1")
    return _snr_rho(r / (s - r + 1) if s >= r else math.inf, f)


def snr_rho_extrema(params: ModelParams, f: FockPair) -> list[SnrExtremum]:
    """Analytic extrema of rho_a over the first revival period.

    Requires k^2 > 1.  When 0 < r/(s-r+1) < 1/(k^2-1) the half-period
    extremum is a local maximum flanked by two global minima;
    otherwise it is the single global extremum (max for r = 0, min for
    r != 0).  A non-positive denominator s-r+1 counts as violating the
    inequality.
    """
    k2 = params.k2
    extremum = snr_rho_extremum_value(params, f)  # refuses k^2 <= 1
    scale = 1.0 / (params.g * math.sqrt(k2 - 1.0))
    r, s = f.r, f.s

    has_minima = (s - r + 1.0) > 0.0 and r > 0 \
        and r / (s - r + 1.0) < 1.0 / (k2 - 1.0)
    half = SnrExtremum(time=math.pi / 2.0 * scale, value=extremum,
                       kind="local_max" if has_minima
                       else "global_max" if r == 0 else "global_min")
    if not has_minima:
        return [half]
    asin = math.asin(math.sqrt((k2 - 1.0) * r / (s - r + 1.0)))
    value = snr_rho_min_value(f)
    return [SnrExtremum(time=asin * scale, value=value, kind="global_min"), half,
            SnrExtremum(time=(math.pi - asin) * scale, value=value,
                        kind="global_min")]


def snr_eta_coherent(sol: AnalyticSolution, pair: CoherentPair) -> SnrReport:
    """Quadrature SNR eta_a for a coherent pair, with the Yuen bound.

    eta = <X>^2 / Var X = 2 (Re <a(t)>)^2 / (n0 + 1/2) for X = a + a+,
    with <a(t)> = u alpha + v conj(beta), at the record's n0.  Both sides
    are divided through by N = max(n0, 1): ``_coherent_mean`` gives <a(t)>/sqrt(N),
    so eta stays finite past the overflow of n0, u and v.  The Yuen bound
    4 mean_a (mean_a + 1) reads the same mean numbers, and inf past mean_a ~ 1e154.
    eta vanishes identically for Fock inputs (zero quadrature mean).
    """
    scaled, _, n0_n, log_n = mean = _coherent_mean(sol, pair)
    mean_a, _ = _mean_numbers(mean, pair)
    with np.errstate(over="ignore"):  # mean_a^2 overflows past the float range
        yuen_bound = 4.0 * mean_a * (mean_a + 1.0)
    return SnrReport(eta=_real(2.0 * scaled.real ** 2 / (n0_n + 0.5 * np.exp(-log_n))),
                     yuen_bound=yuen_bound)


# -- instantaneous diagonalization -------------------------------------------


@dataclass(frozen=True)
class DiagonalizationResult:
    stable: bool
    omega_A: float | None
    omega_B: float | None
    omega_0: float | None
    squeeze_r: float | None
    squeeze_phi_offset: float  # phi = pi/2 - omega*t; the constant part


def instantaneous_diagonalization(params: ModelParams) -> DiagonalizationResult:
    """Two-mode squeeze diagonalization; unstable when g^2 >= omega_+^2."""
    w_plus = 0.5 * (params.omega_a + params.omega_b)
    w_minus = 0.5 * (params.omega_a - params.omega_b)
    ratio = params.g ** 2 / w_plus ** 2
    if ratio >= 1.0:
        return DiagonalizationResult(stable=False, omega_A=None, omega_B=None,
                                     omega_0=None, squeeze_r=None,
                                     squeeze_phi_offset=math.pi / 2.0)
    root = math.sqrt(1.0 - ratio)
    cosh2r = 1.0 / root
    return DiagonalizationResult(
        stable=True,
        omega_A=w_minus + w_plus * root,
        omega_B=-w_minus + w_plus * root,
        omega_0=w_plus * root,
        squeeze_r=0.5 * math.acosh(cosh2r),
        squeeze_phi_offset=math.pi / 2.0,
    )
