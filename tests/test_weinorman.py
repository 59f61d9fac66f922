import math
import tracemalloc

import numpy as np
import pytest

from ndpa.model import CustomPump, HarmonicPump, ModelParams
from ndpa.weinorman import (WeiNormanCoefficients, coefficients, derived_scalars,
                            scalars, solve_analytic, solve_ode, unitarity_residuals)


def params_for(k2, g=1.0, sign=1):
    return ModelParams.from_k2(k2, g=g, omega_a=3.0, omega_b=2.0, sign=sign)


def test_initial_conditions():
    for k2 in (0.0, 0.5, 1.0, 1.5):
        c = solve_analytic(params_for(k2), 0.0)
        assert c.a_plus == 0.0
        assert c.a_minus == 0.0
        assert c.a_zero == 0.0


def test_zero_detuning_reduces_to_hyperbolic():
    params = ModelParams(omega_a=3.0, omega_b=2.0, g=1.0, omega=5.0)
    for gt in (0.3, 1.0, 2.5):
        c = solve_analytic(params, gt)
        assert c.a_minus == pytest.approx(math.tanh(gt), abs=1e-13)
        assert c.a_zero == pytest.approx(-math.log(math.cosh(gt)), abs=1e-13)
        assert c.a_plus == pytest.approx(-math.tanh(gt), abs=1e-13)


def test_phase_relation_between_a_plus_and_a_minus():
    rng = np.random.default_rng(0)
    k = rng.uniform(-2.0, 2.0, size=200)
    gt = rng.uniform(0.0, 8.0, size=200)
    a_plus, a_minus, _ = coefficients(k, gt)
    assert np.allclose(a_plus, -np.exp(-2j * k * gt) * a_minus, atol=1e-14)


def test_unitarity_residuals_high_precision():
    rng = np.random.default_rng(42)
    k2 = rng.uniform(0.0, 4.0, size=10_000)
    gt = rng.uniform(0.0, 10.0, size=10_000)
    k = np.sqrt(k2) * rng.choice([-1.0, 1.0], size=k2.size)
    a_plus, a_minus, a_zero = coefficients(k, gt, dtype=np.complex256)

    det = np.exp(2.0 * a_zero) - a_minus * a_plus
    r1 = np.abs(np.conj(a_plus) + a_minus / det)
    r2 = np.abs(np.conj(a_minus) + a_plus / det)
    r3 = np.abs(np.exp(-2.0 * a_zero.real) * (1.0 - np.abs(a_minus) ** 2) - 1.0)
    assert float(np.max(r1)) <= 1e-10
    assert float(np.max(r2)) <= 1e-10
    assert float(np.max(r3)) <= 1e-10


def test_unitarity_residuals_helper():
    c = solve_analytic(params_for(1.5), 2.0)
    r1, r2, r3 = unitarity_residuals(c)
    assert r1 < 1e-12 and r2 < 1e-12 and r3 < 1e-9


def test_regime_continuity_at_critical():
    eps = 1e-6
    for sign in (1, -1):
        below = coefficients(sign * math.sqrt(1.0 - eps), 2.0)
        above = coefficients(sign * math.sqrt(1.0 + eps), 2.0)
        crit = coefficients(float(sign), 2.0)
        for lo, hi, mid in zip(below, above, crit):
            assert abs(lo - mid) < 5e-5
            assert abs(hi - mid) < 5e-5


def test_super_regime_revival_zeros():
    # at gt = pi*sqrt(2), k^2 = 1.5: A- vanishes and Re A0 returns to 0
    c = solve_analytic(params_for(1.5), math.pi * math.sqrt(2.0))
    assert abs(c.a_minus) < 1e-12
    assert abs(c.a_zero.real) < 1e-12


def test_imaginary_a0_continuous_in_super_regime():
    params = params_for(1.5)
    t = np.linspace(0.0, 20.0, 4000)
    c = solve_analytic(params, t)
    phase = np.imag(c.a_zero) + params.Omega * t / 2.0  # remove secular part
    assert np.max(np.abs(np.diff(phase))) < 0.1  # no 2*pi branch jumps


def test_scalars_identities():
    rng = np.random.default_rng(1)
    k = rng.uniform(-1.9, 1.9, size=500)
    gt = rng.uniform(0.0, 6.0, size=500)
    x, y, n0, log_x, log_y, log_n0 = scalars(k, gt)
    assert np.allclose(x * y, n0, rtol=1e-12)
    assert np.allclose(x, 1.0 + n0, rtol=1e-12)
    assert np.all(y < 1.0)
    # consistency with the coefficient functions
    _, a_minus, a_zero = coefficients(k, gt)
    assert np.allclose(x, np.exp(-2.0 * a_zero.real), rtol=1e-10)
    assert np.allclose(y, np.abs(a_minus) ** 2, atol=1e-10)


def test_scalars_log_domain_deep_sub():
    d = derived_scalars(params_for(0.5), 600.0)
    assert math.isinf(d.x)
    tau = 600.0 * math.sqrt(0.5)
    expected = 2.0 * (tau - math.log(2.0)) - math.log(0.5)
    assert d.log_x == pytest.approx(expected, rel=1e-12)
    assert d.y == pytest.approx(1.0)
    assert d.log_y == pytest.approx(-math.exp(-d.log_x), abs=1e-12)


def test_scalars_super_regime_bounds():
    # k^2 = 1.5: n0 = sin^2(u)/0.5 <= 2, so x <= 3 and y <= 2/3
    gt = np.linspace(0.0, 30.0, 3000)
    x, y, n0, *_ = scalars(math.sqrt(1.5), gt)
    assert np.max(n0) <= 2.0 + 1e-12
    assert np.max(x) <= 3.0 + 1e-12
    assert np.max(y) <= 2.0 / 3.0 + 1e-12


def test_critical_scalars():
    d = derived_scalars(params_for(1.0), 2.0)
    assert d.n0 == pytest.approx(4.0, rel=1e-12)
    assert d.x == pytest.approx(5.0, rel=1e-12)


@pytest.mark.parametrize("k2", [0.0, 0.5, 1.0, 1.5, 3.0])
def test_ode_matches_analytic(k2):
    params = params_for(k2)
    pump = HarmonicPump.from_params(params)
    t_grid = np.linspace(0.0, 10.0, 101)
    sols = solve_ode(pump, params, t_grid, tol=1e-10)
    worst = 0.0
    for c_ode in sols:
        c_ref = solve_analytic(params, c_ode.t)
        worst = max(worst,
                    abs(c_ode.a_plus - c_ref.a_plus),
                    abs(c_ode.a_minus - c_ref.a_minus),
                    abs(c_ode.a_zero - c_ref.a_zero))
    assert worst <= 10.0 * 1e-10


def test_ode_zero_pump():
    params = params_for(1.5)
    pump = CustomPump(fn=lambda t: 0.0)
    sols = solve_ode(pump, params, np.linspace(0.0, 5.0, 11))
    for c in sols:
        assert c.a_plus == 0.0
        assert c.a_minus == 0.0
        assert c.a_zero == 0.0


def test_ode_grid_validation():
    params = params_for(1.5)
    pump = HarmonicPump.from_params(params)
    with pytest.raises(ValueError):
        solve_ode(pump, params, [1.0, 2.0])
    with pytest.raises(ValueError):
        solve_ode(pump, params, [0.0, 2.0, 1.0])
    with pytest.raises(ValueError):
        solve_ode(pump, params, [0.0, 1.0], tol=0.0)


def _threshold_grid():
    """(k column, gt row) with k^2 = 1 +- 5e-9 inside the threshold band,
    k^2 = 1 +- 2e-8 and 1 +- 1e-6 beside it, negative k, k = 0.2, gt = 0 and
    300, and q gt = pi/2 +- 1e-9, a pole of tan, for k^2 = 1 + 1e-6, 1.5 and
    3 (also 3 pi/2 +- 1e-9 for the last two)."""
    k2 = np.array([1.0 - 5e-9, 1.0 + 5e-9, 1.0 - 2e-8, 1.0 + 2e-8, 1.0 - 1e-6, 1.0 + 1e-6,
                   1.5, 3.0])
    k = np.concatenate([np.linspace(-1.9, 1.9, 39), [0.2, -0.2, 1.0, -1.0],
                        np.sqrt(k2), -np.sqrt(k2)])
    q = np.sqrt(k2[5:] - 1.0)
    poles = [(n * np.pi / 2 + d) / q[n // 3:] for n in (1, 3) for d in (-1e-9, 1e-9)]
    gt = np.concatenate([[0.0, 1e-9, 300.0], np.linspace(0.05, 12.0, 40), *poles])
    return k[:, None], gt[None, :]


def _complex_forms(k, gt):
    """The regime forms in complex long-double arithmetic, one regime at a time."""
    k, gt = np.broadcast_arrays(np.asarray(k, np.longdouble), np.asarray(gt, np.longdouble))
    k2, one = k * k, np.longdouble(1.0)
    sub, sup = k2 < 1.0 - 1e-8, k2 > 1.0 + 1e-8
    crit = ~(sub | sup)
    a_minus, a_zero = np.zeros(k.shape, np.clongdouble), np.zeros(k.shape, np.clongdouble)
    ks, gts = k[sub], gt[sub]
    q = np.sqrt(one - ks * ks)
    gamma = np.arctan(ks / q)
    z = gts * q - 1j * gamma
    a_minus[sub] = q * np.tanh(z) + 1j * ks
    zr = np.where(z.real < 0, -z, z)  # log cosh z without overflow
    a_zero[sub] = np.log(np.cos(gamma)) - (zr - np.log(2 * one) + np.log1p(np.exp(-2 * zr)))
    ks, gts = k[sup], gt[sup]
    q = np.sqrt(ks * ks - one)
    u, s, c = gts * q, np.sign(ks), np.abs(ks) / q
    a_minus[sup] = q / np.tan(u + 1j * np.arctanh(q / ks)) + 1j * ks
    # log(cos u - i (k/q) sin u) with exp(-i s u) factored out, continuous in t
    a_zero[sup] = -(np.log((one + c) / 2) - 1j * s * u
                    + np.log1p((one - c) / (one + c) * np.exp(2j * s * u)))
    s = np.sign(k[crit])
    a_minus[crit] = one / (gt[crit] + 1j * s) + 1j * s
    a_zero[crit] = -np.log(one - 1j * s * gt[crit])
    a_zero -= 1j * k * gt
    return -np.exp(-2j * k * gt) * a_minus, a_minus, a_zero


def _worst(values, reference):
    return max(float(np.max(np.abs(v - r) / np.maximum(1.0, np.abs(r))))
               for v, r in zip(values, reference))


def test_long_double_kernel_matches_complex_forms():
    k, gt = _threshold_grid()
    assert _worst(coefficients(k, gt, dtype=np.complex256), _complex_forms(k, gt)) <= 1e-15


def test_coefficients_error_against_long_double():
    k, gt = _threshold_grid()
    worst = _worst(coefficients(k, gt), coefficients(k, gt, dtype=np.complex256))
    # the complex-valued transcendentals these real forms replaced reached
    # 4.72e-13 on this grid (A- and A+ at k^2 = 1 - 2e-8, gt = 0)
    assert worst <= 4.722e-13


def test_coefficients_agree_with_scalars_where_x_overflows():
    k, gt = _threshold_grid()
    gt = np.concatenate([gt, [[360.0, 600.0, 900.0]]], axis=1)
    _, a_minus, a_zero = coefficients(k, gt)
    x, _, _, log_x, log_y, _ = scalars(k, gt)
    assert np.isinf(x).any()
    np.testing.assert_allclose(a_zero.real, -log_x / 2.0, rtol=0.0, atol=1e-13)
    with np.errstate(divide="ignore"):  # A- = 0 and log y = -inf at gt = 0
        np.testing.assert_allclose(2.0 * np.log(np.abs(a_minus)), log_y, rtol=0.0, atol=1e-13)


@pytest.mark.parametrize("k, gt", [(0.0, 360.0), (0.5, 900.0)])
def test_residuals_defined_where_x_overflows(k, gt):
    params = params_for(k * k)
    r1, r2, r3 = unitarity_residuals(solve_analytic(params, gt))
    assert derived_scalars(params, gt).x == math.inf
    assert r1 <= 1e-12 and r2 <= 1e-12
    assert not math.isnan(r3)  # r3 <= 64 eps x holds with x = inf


def test_scalar_input_gives_scalars():
    kinds = {type(v) for v in coefficients(0.5, 1.0)}
    assert kinds == {np.complex128}
    assert {type(v) for v in scalars(0.5, 1.0)} == {np.float64}
    assert {type(v) for v in unitarity_residuals(solve_analytic(params_for(0.5), 1.0))} == {
        np.float64}
    assert [np.shape(v) for v in coefficients(0.5, np.ones(3))] == [(3,)] * 3


@pytest.mark.parametrize("name, bound", [("coefficients", 114.0), ("scalars", 75.0),
                                         ("unitarity_residuals", 64.0)])
def test_grid_peak_memory_per_point(name, bound):
    # bound: the bytes per point of the complex-valued forms on a 10^6-point grid
    k, gt = np.linspace(-1.8, 1.8, 400)[:, None], np.linspace(0.0, 10.0, 400)[None, :]
    c = WeiNormanCoefficients(gt, *coefficients(k, gt))
    call = {"coefficients": lambda: coefficients(k, gt), "scalars": lambda: scalars(k, gt),
            "unitarity_residuals": lambda: unitarity_residuals(c)}[name]
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / k.size / gt.size <= bound
