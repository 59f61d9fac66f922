"""Disentangled evolution-operator coefficients A+(t), A-(t), A0(t).

The interaction-picture evolution operator factorizes as ``exp(A+ K+) exp(2 A0 K0)
exp(A- K-)`` (Wei & Norman, J. Math. Phys. 4, 575, 1963).  For the harmonic pump
``_regime_kernel`` splits the closed forms into three regimes by the sign of 1 - k^2
once: real transcendentals only, hyperbolics in log form, and the winding that keeps
Im A0 continuous in t.  ``solve_analytic`` builds from one kernel pass the coefficients and
x = 1 + n0, y = n0/x and n0, as one ``AnalyticSolution``.  Grids are evaluated in fixed
blocks of rows straight into their outputs (peak memory: the outputs plus one block), with
complex products out of place, so that a time alone rounds as in a grid.  For any other pump
``solve_ode`` reads them off the Bogoliubov pair (u, v) on the oracle's stretch loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ModelParams, PumpProfile, _require_finite
from .oracle import IntegrationError, _integrate  # solve_ode raises IntegrationError


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
class AnalyticSolution(WeiNormanCoefficients):
    """(A+, A-, A0) with x = exp(-2 Re A0) = 1 + n0, y = |A-|^2 = n0/x and the
    vacuum mean photon number n0, from one kernel pass.  The log fields stay
    finite deep in the sub-threshold regime where x itself overflows.
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


def _softplus(v, out=None):
    """log(1 + e^v) without overflow."""
    out = np.abs(v, out=out)
    np.log1p(np.exp(np.negative(out, out=out), out=out), out=out)
    return np.add(out, np.maximum(v, 0.0), out=out)


def _regime_kernel(k, gt):
    """The harmonic closed forms' regime split, in real arithmetic, on a (k, gt) grid.

    With q = sqrt|1 - k^2| (1 at threshold), u = q gt, T = tanh u, tan u or u
    below, above and at threshold, and C = cosh u, cos u or 1, returns the winding
    s (u - arctan T) = s n pi of -arg C above threshold (0 elsewhere, s = sign k),
    w = T/q and log n0 = 2 log|w C|.  The split is exact, threshold being |k| = 1
    alone: T/q needs no band, as a tiny q makes a tiny u with no cancellation, and
    1 - k^2 is formed as (1 - k)(1 + k), which keeps the digits 1 - k k loses near
    |k| = 1.  Grid arrays are written in place.
    """
    one_minus_k2 = (1.0 - k) * (1.0 + k)
    sub, sup = one_minus_k2 > 0.0, one_minus_k2 < 0.0
    crit = ~(sub | sup)
    q = np.where(crit, 1.0, np.sqrt(np.abs(one_minus_k2)))
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
    return u, t, np.multiply(log_s, 2.0, out=log_s)


def _coefficients(k, gt, a_plus, a_minus, a_zero, *scalar_out):
    """(A+, A-, A0) on (k, gt) into the given arrays, and the six scalars into ``scalar_out``."""
    winding, w, log_n0 = _regime_kernel(k, gt)
    if scalar_out:
        _scalars(log_n0, *scalar_out)  # before log n0 is written over
    np.clip(w, -2.0 ** 511, 2.0 ** 511, out=w)  # (kw)^2 finite; moves A- < 2^-511
    np.multiply(_softplus(log_n0), -0.5, out=a_zero.real)
    kw = np.multiply(k, w, out=log_n0)
    d = np.square(kw)
    np.divide(w, np.add(d, 1.0, out=d), out=a_minus.real)
    np.multiply(kw, a_minus.real, out=a_minus.imag)
    np.add(np.arctan(kw, out=kw), winding, out=kw)
    np.subtract(kw, np.multiply(k, gt, out=winding), out=a_zero.imag)
    tan = np.tan(winding, out=winding)
    phase = np.square(tan + 1j)  # -exp(-2i k gt) (1 + tan^2 k gt)
    phase /= np.add(np.square(tan, out=d), 1.0, out=d)
    np.multiply(phase, a_minus, out=a_plus)  # out of place: in place, one point rounds apart


def _scalars(log_n0, x, y, n0, log_x, log_y, log_n0_out):
    """(x, y, n0, log_x, log_y, log_n0) into the given arrays from log n0."""
    np.copyto(log_n0_out, log_n0)
    with np.errstate(over="ignore", divide="ignore"):
        inv = np.divide(1.0, np.exp(log_n0, out=n0))
    np.add(n0, 1.0, out=x)
    np.divide(1.0, np.add(1.0, inv, out=y), out=y)
    _softplus(log_n0, out=log_x)
    # log y = -log(1 + 1/n0); the direct difference log_n0 - log_x loses all
    # precision once both exceed ~1/eps deep below threshold
    np.negative(np.log1p(inv, out=log_y), out=log_y)


_BLOCK = 16_384  # points (or one row) per block: temporaries this small stay in cache


def _blockwise(body, dtypes, **inputs):
    """Outputs, one per dtype, of ``body(*inputs, *outputs)`` on the broadcast grid of the
    finite ``inputs``, in blocks of leading-axis rows; scalar inputs give numpy scalars."""
    for name, value in inputs.items():
        _require_finite(name, value)
    shape = np.broadcast(*inputs.values()).shape
    outs = tuple(np.empty(shape or (1,), dt) for dt in dtypes)
    ins = [np.array(v, copy=None, ndmin=outs[0].ndim) for v in inputs.values()]
    rows = max(_BLOCK * len(outs[0]) // max(outs[0].size, 1), 1)  # <= _BLOCK points or 1 row
    for s in range(0, len(outs[0]), rows):
        body(*[v if len(v) == 1 else v[s:s + rows] for v in ins], *[o[s:s + rows] for o in outs])
    return outs if shape else tuple(o[0] for o in outs)


def coefficients(k, gt, dtype=np.complex128):
    """Vectorized analytic (A+, A-, A0) as functions of k and g*t.

    Valid for the harmonic pump only.  Broadcasts over k and gt; scalar k and
    gt give numpy scalars.  ``dtype=np.complex256`` checks the unitarity
    identities beyond double rounding (r3 is conditioned like x(t)*eps).  In
    real arithmetic, from ``_regime_kernel``: A- = w / (1 - i k w), Re A0 =
    -log(1 + n0)/2, Im A0 = arctan(k w) + winding - k gt, continuous in t (k gt
    is the Omega t/2 secular phase), and A+ = -exp(-2i k gt) A- via tan(k gt).
    """
    real = np.finfo(dtype).dtype
    return _blockwise(_coefficients, (dtype,) * 3, k=np.asarray(k, real), gt=np.asarray(gt, real))


def scalars(k, gt):
    """Vectorized (x, y, n0, log_x, log_y, log_n0) as functions of k and g*t.

    n0 = sinh^2(gt q)/q^2 with q^2 = 1 - k^2, continued through k^2 = 1
    (where it is (gt)^2) and into k^2 > 1 (where sinh^2 turns into -sin^2);
    x = 1 + n0, y = n0/x.  The logs stay finite where x overflows.
    """
    return _blockwise(lambda k, gt, *out: _scalars(_regime_kernel(k, gt)[2], *out),
                      (float,) * 6, k=np.asarray(k, float), gt=np.asarray(gt, float))


def solve_analytic(params: ModelParams, t) -> AnalyticSolution:
    """Closed-form coefficients and scalars for the harmonic pump, one kernel pass.

    A scalar time gives complex and float fields; an array of times gives arrays.
    A finite t whose g t overflows raises a ValueError that names it.
    """
    t, k = np.asarray(t, dtype=float), np.array([params.k])  # ModelParams are finite

    def body(t, *out):  # g t per block, so no grid-sized temporary
        with np.errstate(over="ignore"):
            gt = params.g * t
        if not np.isfinite(gt).all():
            raise ValueError(f"g t = {params.g} * t overflows at t = {t[~np.isfinite(gt)][0]}")
        _coefficients(k, gt, *out)

    fields = _blockwise(body, (complex,) * 3 + (float,) * 6, t=t)
    if t.ndim == 0:
        return AnalyticSolution(float(t), *map(complex, fields[:3]), *map(float, fields[3:]))
    return AnalyticSolution(t, *fields)


derived_scalars = solve_analytic  # the former scalar half's name; perfbench calls it


def solve_ode(pump: PumpProfile, params: ModelParams, t_grid,
              tol: float = 1e-10) -> list[WeiNormanCoefficients]:
    """Coefficients on ``t_grid`` for an arbitrary pump profile, to about ``tol``.

    The oracle's stretch loop integrates the Bogoliubov pair a(t) = u a + v b+,
    u' = -conj(G v), v' = -conj(G u), G(t) = g(t) exp(-i (omega_a + omega_b) t)
    from (1, 0), and phi = arg u by phi' = Im(u'/u), continuous whatever the
    grid: A- = -conj(v/u), A+ = v/conj(u), A0 = -log|u| + i phi.  Below
    threshold |u| ~ exp(q g t) overflows near q g t = 700: ``IntegrationError``.
    """
    if not (tol > 0 and np.isfinite(tol)):
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size < 1:
        raise ValueError("t_grid must be a non-empty 1-d array")
    _require_finite("t_grid", t_grid)
    if t_grid[0] != 0.0:
        raise ValueError("t_grid must start at 0")
    if np.any(np.diff(t_grid) <= 0):
        raise ValueError("t_grid must be strictly increasing")

    def pair(gt, y):  # in Python complex arithmetic, several times faster than numpy scalars
        (u, v, _), gt = y.tolist(), complex(gt)
        du = -(gt * v).conjugate()
        return np.array([du, -(gt * u).conjugate(), (du / u).imag])

    times = t_grid.tolist()
    states = _integrate(pump, params.omega_a + params.omega_b, pair, np.array([1, 0, 0j]),
                        times, 0.01 * tol, 1e-5 * tol)
    return [WeiNormanCoefficients(t, complex(v / u.conjugate()), complex(-(v / u).conjugate()),
                                  complex(-np.log(abs(u)), phi.real))
            for t, (u, v, phi) in zip(times, states)]


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
    fields = {name: np.asarray(getattr(c, name)) for name in ("a_plus", "a_minus", "a_zero")}
    real = np.finfo(np.result_type(*fields.values(), 1.0)).dtype
    return _blockwise(_residuals, (real,) * 3, **fields)


def _residuals(ap, am, a0, r1, r2, r3):
    ap, am, a0 = np.broadcast_arrays(ap, am, a0)
    tan = np.tan(a0.imag)
    # exp(2 A0) = (1 + i tan)^2 exp(2 Re A0) / (1 + tan^2 Im A0); products out of place
    det = np.square(1.0 + 1j * tan) * (np.exp(2.0 * a0.real) / (1.0 + np.square(tan)))
    det -= np.multiply(am, ap)
    # r1 = |conj(A+) D + A-| / |D| and r2 = |conj(A-) D + A+| / |D|
    mod_d = np.abs(det, out=tan)
    for a, b, r in ((ap, am, r1), (am, ap, r2)):
        np.divide(np.abs(np.conj(a) * det + b), mod_d, out=r)
    m = np.abs(am)
    np.subtract(1.0, np.square(m, out=m), out=m)
    with np.errstate(divide="ignore", over="ignore"):
        np.log(np.abs(m), out=r3)
        np.exp(np.subtract(r3, np.multiply(a0.real, 2.0, out=mod_d), out=r3), out=r3)
    np.abs(np.subtract(np.copysign(r3, m, out=r3), 1.0, out=r3), out=r3)
