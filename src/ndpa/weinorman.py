"""Disentangled evolution-operator coefficients A+(t), A-(t), A0(t).

The interaction-picture evolution operator factorizes as
``exp(A+ K+) exp(2 A0 K0) exp(A- K-)`` where the three complex coefficient
functions satisfy a Riccati-type ODE system.  For the harmonic pump the
solutions are closed-form and split into three regimes by k^2.  The
implementation below keeps Im A0 continuous in t (no principal-branch
jumps) and evaluates all large-argument hyperbolics in log form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import DEFAULT_REGIME_EPS, ModelParams, PumpProfile


class IntegrationError(RuntimeError):
    """ODE integration failed before reaching the end of the grid."""


@dataclass(frozen=True)
class WeiNormanCoefficients:
    """The complex triple (A+, A-, A0) at time t.

    Fields may hold numpy arrays when evaluated on a time grid.
    """

    t: float
    a_plus: complex
    a_minus: complex
    a_zero: complex


@dataclass(frozen=True)
class RegimeAngles:
    """tan(gamma) = k/sqrt(1-k^2) below threshold; coth(delta) = k/sqrt(k^2-1) above."""

    gamma: float | None
    delta: float | None


@dataclass(frozen=True)
class DerivedScalars:
    """x = exp(-2 Re A0), y = |A-|^2 and the vacuum mean photon number n0.

    Satisfy x*y = n0 and x = 1 + n0.  The log fields stay finite deep in
    the sub-threshold regime where x itself overflows.
    """

    x: float
    y: float
    n0: float
    log_x: float
    log_y: float
    log_n0: float


def _real(value):
    """A float for a scalar input, a float array for a grid."""
    value = np.asarray(value, dtype=float)
    return float(value) if value.ndim == 0 else value


def regime_angles(params: ModelParams) -> RegimeAngles:
    k = params.k
    k2 = k * k
    if k2 < 1.0 - DEFAULT_REGIME_EPS:
        return RegimeAngles(gamma=float(np.arctan(k / np.sqrt(1.0 - k2))), delta=None)
    if k2 > 1.0 + DEFAULT_REGIME_EPS:
        return RegimeAngles(gamma=None, delta=float(np.arctanh(np.sqrt(k2 - 1.0) / k)))
    return RegimeAngles(gamma=None, delta=None)


def _log_cosh(z):
    """log(cosh(z)) without overflow; valid for complex z."""
    z = np.where(z.real < 0, -z, z)
    return z - np.log(2.0) + np.log1p(np.exp(-2.0 * z))


def coefficients(k, gt, dtype=np.complex128):
    """Vectorized analytic (A+, A-, A0) as functions of k and g*t.

    Valid for the harmonic pump only.  Broadcasts over k and gt.  Pass
    ``dtype=np.complex256`` to verify the unitarity identities beyond
    double rounding (the r3 residual is conditioned like x(t)*eps).
    """
    real_dtype = np.finfo(dtype).dtype
    k, gt = np.broadcast_arrays(np.asarray(k, dtype=real_dtype),
                                np.asarray(gt, dtype=real_dtype))
    k2 = k * k
    sub = k2 < 1.0 - DEFAULT_REGIME_EPS
    sup = k2 > 1.0 + DEFAULT_REGIME_EPS
    crit = ~(sub | sup)

    a_minus = np.zeros(k.shape, dtype=dtype)
    a_zero = np.zeros(k.shape, dtype=dtype)

    if np.any(sub):
        ks, gts = k[sub], gt[sub]
        q = np.sqrt(1.0 - ks * ks)
        tau = gts * q
        gamma = np.arctan(ks / q)
        z = tau - 1j * gamma
        a_minus[sub] = q * np.tanh(z) + 1j * ks
        a_zero[sub] = -_log_cosh(z) + np.log(np.cos(gamma))

    if np.any(sup):
        ks, gts = k[sup], gt[sup]
        q = np.sqrt(ks * ks - 1.0)
        u = gts * q
        a_minus[sup] = q / np.tan(u + 1j * np.arctanh(q / ks)) + 1j * ks
        # sin(u + i*delta)/sin(i*delta) = cos(u) - i*coth(delta)*sin(u);
        # factor out exp(-i*s*u) to keep the log continuous in t.
        s = np.sign(ks)
        cmag = np.abs(ks) / q
        rho = (1.0 - cmag) / (1.0 + cmag)
        log_ratio = (np.log((1.0 + cmag) / 2.0) - 1j * s * u
                     + np.log1p(rho * np.exp(2j * s * u)))
        a_zero[sup] = -log_ratio

    if np.any(crit):
        ks, gts = k[crit], gt[crit]
        s = np.sign(ks)
        a_minus[crit] = 1.0 / (gts + 1j * s) + 1j * s
        a_zero[crit] = -np.log(1.0 - 1j * s * gts)

    a_zero = a_zero - 1j * k * gt  # the -i*Omega*t/2 secular phase
    a_plus = -np.exp(-2j * k * gt) * a_minus
    return a_plus, a_minus, a_zero


def solve_analytic(params: ModelParams, t) -> WeiNormanCoefficients:
    """Closed-form coefficients for the harmonic pump.

    A scalar time gives complex fields; an array of times gives arrays.
    """
    t = np.asarray(t, dtype=float)
    fields = coefficients(params.k, params.g * t)
    if t.ndim == 0:
        return WeiNormanCoefficients(float(t), *(complex(f) for f in fields))
    return WeiNormanCoefficients(t, *fields)


def solve_ode(pump: PumpProfile, params: ModelParams, t_grid,
              tol: float = 1e-10) -> list[WeiNormanCoefficients]:
    """Integrate the coefficient ODE system for an arbitrary pump profile.

    Uses an embedded explicit Runge-Kutta 5(4) pair with adaptive PI step
    control; the Riccati variable A+ stays inside the unit disc for this
    model, so no pole handling is required.
    """
    from scipy.integrate import solve_ivp
    if tol <= 0:
        raise ValueError("tol must be positive")
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size < 1:
        raise ValueError("t_grid must be a non-empty 1-d array")
    if t_grid[0] != 0.0:
        raise ValueError("t_grid must start at 0")
    if np.any(np.diff(t_grid) <= 0):
        raise ValueError("t_grid must be strictly increasing")

    wsum = params.omega_a + params.omega_b

    def rhs(t, y):
        ap, a0, am = y
        gt = pump.value(t) * np.exp(-1j * wsum * t)
        return np.array([gt * ap * ap - np.conj(gt), gt * ap,
                         gt * np.exp(2.0 * a0)], dtype=complex)

    if t_grid.size == 1:  # only t = 0 requested
        sols = np.zeros((3, 1), dtype=complex)
    else:
        res = solve_ivp(rhs, (0.0, float(t_grid[-1])),
                        np.zeros(3, dtype=complex), method="RK45",
                        t_eval=t_grid, rtol=0.1 * tol, atol=tol * 1e-4)
        if not res.success:
            reached = res.t[-1] if res.t.size else 0.0
            raise IntegrationError(
                f"integration failed near t = {reached:.6g}: {res.message}")
        sols = res.y

    return [WeiNormanCoefficients(t=float(t_grid[i]), a_plus=complex(sols[0, i]),
                                  a_zero=complex(sols[1, i]),
                                  a_minus=complex(sols[2, i]))
            for i in range(t_grid.size)]


def bogoliubov_pair(c: WeiNormanCoefficients):
    """Interaction-picture (u, v) of a(t) = u a + v b+, also of b(t) = u b + v a+."""
    u = np.exp(-np.conj(c.a_zero))
    return u, -u * np.conj(c.a_minus)


def unitarity_residuals(c: WeiNormanCoefficients):
    """Residuals of the three unitarity constraints; all ~0 for exact coefficients."""
    ap, am, a0 = c.a_plus, c.a_minus, c.a_zero
    det = np.exp(2.0 * a0) - am * ap
    r1 = np.abs(np.conj(ap) + am / det)
    r2 = np.abs(np.conj(am) + ap / det)
    r3 = np.abs(np.exp(-a0 - np.conj(a0)) * (1.0 - np.abs(am) ** 2) - 1.0)
    return r1, r2, r3


def _log_sinh(t):
    """log(sinh(t)) for t >= 0, stable for large t; -inf at t = 0."""
    t = np.asarray(t, dtype=float)
    with np.errstate(divide="ignore"):
        return t - np.log(2.0) + np.log1p(-np.exp(-2.0 * t))


def scalars(k, gt):
    """Vectorized (x, y, n0, log_x, log_y, log_n0) as functions of k and g*t.

    x = (sinh^2(gt*sqrt(1-k^2)) + 1 - k^2) / (1 - k^2) continued through
    k^2 = 1 (where it becomes 1 + (gt)^2) and into k^2 > 1 (where sinh^2
    turns into -sin^2).
    """
    k, gt = np.broadcast_arrays(np.asarray(k, dtype=float),
                                np.asarray(gt, dtype=float))
    k2 = k * k
    sub = k2 < 1.0 - DEFAULT_REGIME_EPS
    sup = k2 > 1.0 + DEFAULT_REGIME_EPS
    crit = ~(sub | sup)

    log_n0 = np.empty(k.shape, dtype=float)
    with np.errstate(divide="ignore"):
        if np.any(sub):
            tau = np.abs(gt[sub]) * np.sqrt(1.0 - k2[sub])
            log_n0[sub] = 2.0 * _log_sinh(tau) - np.log(1.0 - k2[sub])
        if np.any(sup):
            u = gt[sup] * np.sqrt(k2[sup] - 1.0)
            log_n0[sup] = 2.0 * np.log(np.abs(np.sin(u))) - np.log(k2[sup] - 1.0)
        if np.any(crit):
            log_n0[crit] = 2.0 * np.log(np.abs(gt[crit]))

    log_x = np.logaddexp(0.0, log_n0)
    # log y = -log(1 + 1/n0); the direct difference log_n0 - log_x loses all
    # precision once both exceed ~1/eps deep below threshold
    with np.errstate(over="ignore"):
        log_y = -np.log1p(np.exp(-log_n0))
    with np.errstate(over="ignore"):
        n0 = np.exp(log_n0)
        x = np.exp(log_x)
    y = -np.expm1(-log_x)
    return x, y, n0, log_x, log_y, log_n0


def derived_scalars(params: ModelParams, t) -> DerivedScalars:
    """The real triple (x, y, n0) entering every probability formula.

    A scalar time gives float fields; an array of times gives arrays.
    """
    gt = params.g * np.asarray(t, dtype=float)
    return DerivedScalars(*(_real(value) for value in scalars(params.k, gt)))
