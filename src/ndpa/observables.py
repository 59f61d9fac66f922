"""Heisenberg-picture observables: photon statistics, correlations,
quadrature squeezing, signal-to-noise ratios and the instantaneous
diagonalization of the Hamiltonian.  Each reads the one ``AnalyticSolution`` it is
handed, of either solver; only ``squeezing_extrema`` solves for itself."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .amplitudes import (_MIN_NORMAL, CoherentPair, FockPair, PureAModeState, _coherent_mean,
                         _mean_numbers)
from .model import ModelParams, RegimeError, RegimeTag, classify_regime
from .moments import MomentTable
from .weinorman import AnalyticSolution, _real, bogoliubov_pair, solve_analytic


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


def mandel_q_coherent(moments: MomentTable) -> float:
    """Mandel Q from the moment table.  A zero mean raises a ValueError, and so do moments past
    the float range (n0 above ~1e154, g t ~ 178 at k^2 = 0), naming the first grid index."""
    with np.errstate(over="ignore", invalid="ignore"):
        mean = moments.mean_a
        if np.any(mean == 0.0):
            raise ValueError("Mandel Q undefined at zero mean photon number")
        q = _real((moments.expect(2, 2, 0, 0).real - mean * mean) / mean)
    if not np.isfinite(q).all():
        raise ValueError(f"the moment table overflowed at grid index {np.argmin(np.isfinite(q))}")
    return q


def _ratio_f(f_value, mean_a, mean_b):
    """(f, F) with F = f / sqrt(mean_a mean_b), NaN where a mean vanishes."""
    denom = mean_a * mean_b
    with np.errstate(divide="ignore", invalid="ignore"):
        big_f = np.where(denom > 0.0, f_value / np.sqrt(denom), np.nan)
    return _real(f_value), _real(big_f)


def cross_correlation_fock(d: AnalyticSolution, f: FockPair) -> tuple[float, float]:
    """(f, F) for an initial Fock pair from the closed form.

    F = f / sqrt(mean_a mean_b) is NaN whenever a mean vanishes (e.g. at
    t = 0 with r or s zero).
    """
    r, s, x, y = f.r, f.s, d.x, d.y
    first = np.sqrt(r * (r - 1.0) + 4.0 * r * (s + 1.0) * y
                    + (s + 1.0) * (s + 2.0) * y * y)
    second = np.sqrt(s * (s - 1.0) + 4.0 * s * (r + 1.0) * y
                     + (r + 1.0) * (r + 2.0) * y * y)
    bracket = (r * s + (r + 1.0) * (s + 1.0) * y * y
               + (r * s + r * (r + 1.0) + s * (s + 1.0)
                  + (r + 1.0) * (s + 1.0)) * y)
    f_value = x * x * (first * second - bracket)
    return _ratio_f(f_value, *mean_photon_fock(d, f))


def cross_correlation_general(moments: MomentTable) -> tuple[float, float]:
    """(f, F) from the moment table; f < 0 certifies non-classical correlations."""
    f_value = (np.sqrt(np.maximum(moments.expect(2, 2, 0, 0).real, 0.0))
               * np.sqrt(np.maximum(moments.expect(0, 0, 2, 2).real, 0.0))
               - moments.expect(1, 1, 1, 1).real)
    return _ratio_f(f_value, moments.mean_a, moments.mean_b)


# -- quadrature squeezing ---------------------------------------------------


@dataclass(frozen=True)
class SqueezingKernel:
    """|T_theta(t)|^2 together with its oscillation kernels G(t), H(t)."""

    theta: float
    t_sq: float
    g_kernel: float
    h_kernel: float


def squeezing_kernel(sol: AnalyticSolution, theta: float) -> SqueezingKernel:
    """Quadrature kernel |T_theta|^2 = |u e^(i theta) + conj(v) e^(-i theta)|^2.

    (u, v) is the record's Bogoliubov pair and G + iH its A-, which unitarity makes -conj(A+)
    exp(2i Im A0) under any pump; under the harmonic pump, also conj(A-) exp(2i Im A0 + i Omega t),
    |T_theta|^2 = x [1 + y - 2(cos(Wt-2th) G + sin(Wt-2th) H)].  A record at one time is
    evaluated as a one-element grid, so that it rounds exactly as the same time on a grid does.
    """
    shape = np.shape(sol.t)
    if not shape:
        sol = type(sol)(*(np.atleast_1d(getattr(sol, f)) for f in sol.__dataclass_fields__))
    u, v = bogoliubov_pair(sol)
    t_sq = np.abs(u * np.exp(1j * theta) + np.conj(v) * np.exp(-1j * theta)) ** 2
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
    are divided through by N = max(n0, 1) in the record's logs: <a(t)>/sqrt(N)
    is the mean of the pair of A0 + log(N)/2, so eta stays finite past the
    overflow of n0, u and v.  The Yuen bound 4 mean_a (mean_a + 1) takes
    |<a(t)>| = |<a(t)>/sqrt(N)| sqrt(N), and reads inf past mean_a ~ 1e154.
    eta vanishes identically for Fock inputs (zero quadrature mean).
    """
    half_log = 0.5 * np.maximum(sol.log_n0, 0.0)  # log sqrt(N)
    scaled = _coherent_mean(replace(sol, a_zero=sol.a_zero + half_log), pair)  # <a(t)>/sqrt(N)
    over_n = np.exp(sol.log_n0 - 2.0 * half_log) + 0.5 * np.exp(-2.0 * half_log)  # (n0 + 1/2)/N
    with np.errstate(over="ignore"):  # sqrt(N) and mean_a overflow past the float range
        mean_a, _ = _mean_numbers(np.abs(scaled) * np.exp(half_log), sol.n0, pair)
        yuen_bound = 4.0 * mean_a * (mean_a + 1.0)
    return SnrReport(eta=_real(2.0 * scaled.real ** 2 / over_n), yuen_bound=yuen_bound)


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
