"""Disentangled evolution-operator coefficients A+(t), A-(t), A0(t).

The interaction-picture evolution operator factorizes as
``exp(A+ K+) exp(2 A0 K0) exp(A- K-)`` where the three complex coefficient
functions satisfy a Riccati-type ODE system.  For the harmonic pump the
solutions are closed-form, split into three regimes by k^2 once, in
``_regime_kernel``: real transcendentals only, hyperbolics in log form, and
the winding that keeps Im A0 continuous in t (no principal-branch jumps).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ModelParams, PumpProfile, _regime_split


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


def _softplus(v):
    """log(1 + e^v) without overflow."""
    out = np.abs(v)
    np.log1p(np.exp(np.negative(out, out=out), out=out), out=out)
    return np.add(out, np.maximum(v, 0.0), out=out)


def _regime_kernel(k, gt):
    """The harmonic closed forms' regime split, in real arithmetic, on a (k, gt) grid.

    With q = sqrt|1 - k^2| (1 at threshold), u = q gt, T = tanh u, tan u or u
    below, above and at threshold, and C = cosh u, cos u or 1, returns the k
    of the forms (its sign at threshold, so k^2 + q^2 = 1), the winding
    s (u - arctan T) = s n pi of -arg C above threshold (0 elsewhere, s = sign k),
    w = T/q and log n0 = 2 log|w C|.  Grid arrays are written in place.
    """
    k2 = k * k
    sub, sup = _regime_split(k2)
    crit = ~(sub | sup)
    q = np.where(crit, 1.0, np.sqrt(np.abs(1.0 - k2)))
    u = q * gt
    t = np.tan(u, out=u.copy(), where=sup)
    np.tanh(u, out=t, where=sub)
    a = np.abs(t)
    with np.errstate(divide="ignore"):
        log_s = np.log(a)
    # log|C| = |u| - log1p|tanh u| below threshold, -log1p(tan^2 u)/2 above
    np.log1p(np.square(a, out=a, where=sup), out=a)
    np.subtract(log_s, np.multiply(a, 0.5, out=a, where=sup), out=log_s, where=~crit)
    np.add(log_s, np.abs(u, out=a, where=sub), out=log_s, where=sub)
    log_s -= np.log(q)
    np.subtract(u, np.arctan(t, out=a, where=sup), out=u, where=sup)
    u *= np.sign(k) * sup
    t /= q
    return np.where(crit, np.sign(k), k), u, t, np.multiply(log_s, 2.0, out=log_s)


def coefficients(k, gt, dtype=np.complex128):
    """Vectorized analytic (A+, A-, A0) as functions of k and g*t.

    Valid for the harmonic pump only.  Broadcasts over k and gt; scalar k and
    gt give numpy scalars.  ``dtype=np.complex256`` checks the unitarity
    identities beyond double rounding (r3 is conditioned like x(t)*eps).  In
    real arithmetic, from ``_regime_kernel``: A- = w / (1 - i k w), Re A0 =
    -log(1 + n0)/2, Im A0 = arctan(k w) + winding - k gt, continuous in t (k gt
    is the Omega t/2 secular phase), and A+ = -exp(-2i k gt) A- via tan(k gt).
    """
    real_dtype = np.finfo(dtype).dtype
    k, gt = np.asarray(k, dtype=real_dtype), np.asarray(gt, dtype=real_dtype)
    k_c, winding, w, log_n0 = _regime_kernel(np.atleast_1d(k), gt)
    a_minus, a_zero = np.empty(w.shape, dtype), np.empty(w.shape, dtype)
    np.multiply(_softplus(log_n0), -0.5, out=a_zero.real)
    kw = np.multiply(k_c, w, out=log_n0)
    d = np.square(kw)
    np.divide(w, np.add(d, 1.0, out=d), out=a_minus.real)
    np.multiply(kw, a_minus.real, out=a_minus.imag)
    np.add(np.arctan(kw, out=kw), winding, out=kw)
    np.subtract(kw, np.multiply(k, gt, out=winding), out=a_zero.imag)
    tan = np.tan(winding, out=winding)
    a_plus = np.square(tan + 1j)  # -exp(-2i k gt) (1 + tan^2 k gt)
    a_plus /= np.add(np.square(tan, out=d), 1.0, out=d)
    a_plus *= a_minus
    shape = np.broadcast_shapes(k.shape, gt.shape)
    return tuple(a.reshape(shape)[()] for a in (a_plus, a_minus, a_zero))


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
    """Residuals of the three unitarity constraints; all ~0 for exact coefficients.

    r1 = |conj A+ + A-/D|, r2 = |conj A- + A+/D| with D = exp(2 A0) - A- A+,
    and r3 = |x (1 - |A-|^2) - 1| with x = exp(-2 Re A0), which is formed in
    logs so that it is never nan for finite input where x overflows.
    """
    shape = np.broadcast_shapes(*(np.shape(f) for f in (c.a_plus, c.a_minus, c.a_zero)))
    ap, am, a0 = np.broadcast_arrays(*np.atleast_1d(c.a_plus, c.a_minus, c.a_zero))
    tan = np.tan(a0.imag)
    det = np.square(1.0 + 1j * tan)  # exp(2 A0) = det exp(2 Re A0) / (1 + tan^2 Im A0)
    det *= np.exp(2.0 * a0.real) / np.add(np.square(tan, out=tan), 1.0, out=tan)
    det -= np.multiply(am, ap)
    # r1 = |conj(A+) D + A-| / |D| and r2 = |conj(A-) D + A+| / |D|
    num, mod_d = np.empty_like(det), np.abs(det, out=tan)
    r1, r2 = (np.abs(np.add(np.multiply(np.conj(a, out=num), det, out=num), b, out=num))
              / mod_d for a, b in ((ap, am), (am, ap)))
    del num, det
    m = np.abs(am)
    np.subtract(1.0, np.square(m, out=m), out=m)
    with np.errstate(divide="ignore", over="ignore"):
        r3 = np.log(np.abs(m))
        np.exp(np.subtract(r3, np.multiply(a0.real, 2.0, out=mod_d), out=r3), out=r3)
    r3 = np.abs(np.subtract(np.copysign(r3, m, out=r3), 1.0, out=r3), out=r3)
    return tuple(r.reshape(shape)[()] for r in (r1, r2, r3))


def scalars(k, gt):
    """Vectorized (x, y, n0, log_x, log_y, log_n0) as functions of k and g*t.

    n0 = sinh^2(gt q)/q^2 with q^2 = 1 - k^2, continued through k^2 = 1
    (where it is (gt)^2) and into k^2 > 1 (where sinh^2 turns into -sin^2);
    x = 1 + n0, y = n0/x.  The logs stay finite where x overflows.
    """
    k, gt = np.asarray(k, dtype=float), np.asarray(gt, dtype=float)
    *_, log_n0 = _regime_kernel(np.atleast_1d(k), gt)
    with np.errstate(over="ignore", divide="ignore"):
        n0 = np.exp(log_n0)
        inv = 1.0 / n0
    # log y = -log(1 + 1/n0); the direct difference log_n0 - log_x loses all
    # precision once both exceed ~1/eps deep below threshold
    return tuple(v.reshape(np.broadcast_shapes(k.shape, gt.shape))[()] for v in (
        n0 + 1.0, 1.0 / (1.0 + inv), n0, _softplus(log_n0), -np.log1p(inv), log_n0))


def derived_scalars(params: ModelParams, t) -> DerivedScalars:
    """The real triple (x, y, n0) entering every probability formula.

    A scalar time gives float fields; an array of times gives arrays.
    """
    gt = params.g * np.asarray(t, dtype=float)
    return DerivedScalars(*(_real(value) for value in scalars(params.k, gt)))
