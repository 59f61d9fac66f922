import cmath
import dataclasses
import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ndpa import oracle, weinorman
from ndpa.model import CustomPump, HarmonicPump, ModelParams, TabulatedPump
from ndpa.weinorman import (WeiNormanCoefficients, coefficients, derived_scalars,
                            scalars, solve_analytic, solve_ode, unitarity_residuals)

from helpers import params_for


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
    d = solve_analytic(params_for(0.5), 600.0)
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
    d = solve_analytic(params_for(1.0), 2.0)
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
    # tol = inf returned a wrong A- at t = 3, tol = nan failed on "Required step size"
    for tol in (math.inf, math.nan):
        with pytest.raises(ValueError, match=f"tol must be positive and finite, got {tol}"):
            solve_ode(pump, params, [0.0, 3.0], tol=tol)
    for grid, shown in (([0.0, math.nan], r"t_grid\[1\] = nan"),
                        ([0.0, 1.0, math.inf], r"t_grid\[2\] = inf"),
                        ([[0.0, 1.0]], "non-empty 1-d array"), ([], "non-empty 1-d array")):
        with pytest.raises(ValueError, match=shown):
            solve_ode(pump, params, grid)


@pytest.mark.parametrize("k2", [0.5, 1.5, 3.0])
def test_ode_im_a0_does_not_depend_on_the_grid(k2):
    # arg u is integrated, not unwrapped over the output grid: one output at
    # t = 10 alone gets Im A0 right off the principal branch of arg u
    params = params_for(k2)
    tol = 1e-10
    c_ode = solve_ode(HarmonicPump.from_params(params), params, [0.0, 10.0], tol=tol)[-1]
    c_ref = solve_analytic(params, 10.0)
    assert abs(c_ode.a_zero.imag) > math.pi
    for field in ("a_plus", "a_minus", "a_zero"):
        assert abs(getattr(c_ode, field) - getattr(c_ref, field)) <= 10.0 * tol, field


def test_ode_tabulated_constant_pump_matches_closed_form():
    # 11 equal samples g = 1 are HarmonicPump(1, 0); outputs fall on the
    # samples and strictly inside the stretches between them
    params = ModelParams(omega_a=0.4, omega_b=0.4, g=1.0, omega=0.0)
    tab = TabulatedPump(times=tuple(np.linspace(0.0, 5.0, 11)), values=(1.0,) * 11)
    tol = 1e-10
    grid = np.linspace(0.0, 5.0, 26)
    exact = solve_analytic(params, grid)
    sols = solve_ode(tab, params, grid, tol=tol)
    assert [c.t for c in sols] == grid.tolist()
    for field in ("a_plus", "a_minus", "a_zero"):
        got = np.array([getattr(c, field) for c in sols])
        assert np.max(np.abs(got - getattr(exact, field))) <= 10.0 * tol, field


def test_ode_overflow_raises_instead_of_returning_nan():
    # deep below threshold |u| ~ exp(q g t) (k^2 = 0): past g t ~ 708.7 the steps shrink
    # to nothing, which must raise, never return nan.  Up to there the states are finite
    # and right, at the end of a step and off its interpolant (taken in units of the
    # state, so that h D K stays finite at g t = 705) alike
    params = params_for(0.0)
    pump = HarmonicPump.from_params(params)
    with np.errstate(over="ignore", invalid="ignore"):
        for grid in ([0.0, 710.0], [0.0, 720.0]):
            with pytest.raises(weinorman.IntegrationError,
                               match=r"failed on \[0, 7\d+\]: Required step size"):
                solve_ode(pump, params, grid)
    for grid in ([0.0, 705.0], [0.0, 705.0, 706.0]):
        got, exact = solve_ode(pump, params, grid)[1:], solve_analytic(params, grid[1:])
        assert np.all(np.abs(got.a_minus - exact.a_minus) < 1e-9)
        assert np.all(np.abs(got.a_zero - exact.a_zero) < 1e-9)


@pytest.mark.parametrize("k2", [0.0, 0.5, 1.0, 1.5, 3.0])
def test_ode_record_scalars_match_closed_forms(k2):
    # solve_ode returns the record solve_analytic does: x, y, n0 and log x to
    # 10 tol (relative past 1), log y and log n0 to a y error of 10 tol
    params, tol, grid = params_for(k2), 1e-10, np.linspace(0.0, 10.0, 41)
    got = solve_ode(HarmonicPump.from_params(params), params, grid, tol)
    exact = solve_analytic(params, grid)
    assert isinstance(got, weinorman.AnalyticSolution) and got.t.tolist() == grid.tolist()
    assert (got.x[0], got.y[0], got.n0[0], got.log_x[0], got.log_y[0]) == (1, 0, 0, 0, -math.inf)
    for field in ("x", "y", "n0", "log_x"):
        want = getattr(exact, field)
        assert np.all(abs(getattr(got, field) - want) <= 10 * tol * np.maximum(1, abs(want)))
    for field in ("log_y", "log_n0"):  # -inf at t = 0 on both
        error = abs(getattr(got, field)[1:] - getattr(exact, field)[1:])
        assert np.all(error * exact.y[1:] <= 10 * tol), field
    # one record: y = |A-|^2, x = exp(-2 Re A0) and n0 = x y, each to rounding
    np.testing.assert_allclose(got.y, abs(got.a_minus) ** 2, rtol=1e-14)
    np.testing.assert_allclose(got.x, np.exp(-2 * got.a_zero.real), rtol=1e-13)
    np.testing.assert_allclose(got.n0, got.x * got.y, rtol=1e-13)


def test_ode_record_past_the_float_range_keeps_finite_logs():
    # at k^2 = 0, g t = 705: x = |u|^2 overflows to inf, silently, its logs stay finite
    params = params_for(0.0)
    c = solve_ode(HarmonicPump.from_params(params), params, [0.0, 705.0])[-1]
    exact = solve_analytic(params, 705.0)
    assert c.x == c.n0 == exact.x == math.inf and c.y == 1.0
    assert c.log_x == pytest.approx(exact.log_x, rel=1e-12)
    assert c.log_n0 == pytest.approx(exact.log_n0, rel=1e-12)


def test_a_grid_record_indexes_by_time():
    params = params_for(1.5)
    grid = np.linspace(0.0, 3.0, 7)
    names = [f.name for f in dataclasses.fields(weinorman.AnalyticSolution)]
    pump = HarmonicPump.from_params(params)
    for sol in (solve_analytic(params, grid), solve_ode(pump, params, grid)):
        records = list(sol)
        assert len(records) == sol.t.size == 7
        for i, c in enumerate(records):
            assert [getattr(c, f) for f in names] == [getattr(sol, f)[i] for f in names]
            assert type(c.t) is float and type(c.a_minus) is complex and type(c.x) is float
        last, tail = sol[-1], sol[2:5]
        assert last.t == 3.0 and last.y == sol.y[-1]
        assert isinstance(tail, weinorman.AnalyticSolution)
        assert tail.t.tolist() == grid[2:5].tolist()
        assert [c.n0 for c in tail] == sol.n0[2:5].tolist()
        with pytest.raises(IndexError):
            sol[7]
    # a time alone from the grid is that time's own record, bit for bit
    assert solve_analytic(params, grid)[4] == solve_analytic(params, grid[4])
    with pytest.raises(TypeError, match="a record at one time has no times to index"):
        solve_analytic(params, 1.0)[0]
    with pytest.raises(TypeError, match="no times to index"):
        list(solve_analytic(params, 1.0))


def test_ode_at_t_zero_alone():
    params = params_for(1.5)
    (c,) = solve_ode(HarmonicPump.from_params(params), params, [0.0])
    assert (c.t, c.a_plus, c.a_minus, c.a_zero) == (0.0, 0.0, 0.0, 0.0)


def _scipy_dop853(pump, params, grid, tol):
    """solve_ode's system on scipy's DOP853 at solve_ode's tolerances and first step: the
    coefficients at grid[1:] (t_eval, or the end state for 2 points) and the RHS calls."""
    wsum = params.omega_a + params.omega_b

    def rhs(t, y):
        gt = pump.value(t) * cmath.exp(-1j * wsum * t)
        du = -(gt * y[1]).conjugate()
        return [du, -(gt * y[0]).conjugate(), (du / y[0]).imag]

    sol = oracle.solve_ivp(rhs, (0.0, grid[-1]), [1, 0, 0j], method="DOP853",
                           t_eval=grid[1:] if grid.size > 2 else None, first_step=grid[-1],
                           rtol=0.01 * tol, atol=1e-5 * tol)
    u, v, phi = sol.y[:, 1 - grid.size:]
    return (v / u.conj(), -(v / u).conj(), -np.log(np.abs(u)) + 1j * phi.real), sol.nfev


@pytest.mark.parametrize("k2", [0.5, 1.5])
def test_ode_matches_scipy_dop853(k2):
    # the stepper against scipy's own DOP853 from the same first step, read off
    # the interpolant at the 39 times inside [0, 10]
    params, grid, tol = params_for(k2), np.linspace(0.0, 10.0, 41), 1e-10
    pump = HarmonicPump.from_params(params)
    want, _ = _scipy_dop853(pump, params, grid, tol)
    got = solve_ode(pump, params, grid, tol)[1:]
    for field, value in zip(("a_plus", "a_minus", "a_zero"), want):
        assert np.max(np.abs([getattr(c, field) for c in got] - value)) < 1e-12, field


def test_ode_at_the_rtol_floor_steps_as_scipy():
    # tol = 1e-13 asks for rtol = 1e-15, which both raise to 100 eps with a
    # warning; then they take the same steps, one pump value per RHS call
    params, grid, calls = params_for(1.5), np.array([0.0, 2.0]), []
    value = HarmonicPump.from_params(params).value
    with pytest.warns(UserWarning, match=r"Setting `rtol = np\.maximum\(rtol, 2\.22"):
        (_, got) = solve_ode(CustomPump(fn=lambda t: calls.append(t) or value(t)), params,
                             grid, tol=1e-13)
        want, nfev = _scipy_dop853(HarmonicPump.from_params(params), params, grid, 1e-13)
    assert len(calls) == nfev
    for field, value in zip(("a_plus", "a_minus", "a_zero"), want):
        assert abs(getattr(got, field) - value[0]) < 1e-12, field


def test_ode_pump_calls_on_a_401_point_grid(monkeypatch):
    # a cost guard: one pump value per RHS call, the same count on every run,
    # and no more than the 1228 calls of the scipy solver object it replaced
    params, counts = params_for(1.5), []
    value, stepper = HarmonicPump.from_params(params).value, oracle._dop853
    rhs_calls, pump_calls = [], []
    monkeypatch.setattr(oracle, "_dop853", lambda fun, *args: stepper(
        lambda t, y: rhs_calls.append(t) or fun(t, y), *args))
    pump = CustomPump(fn=lambda t: pump_calls.append(t) or value(t))
    for _ in range(2):
        solve_ode(pump, params, np.linspace(0.0, 10.0, 401))
        counts.append((len(pump_calls), len(rhs_calls)))
        pump_calls.clear()
        rhs_calls.clear()
    assert counts[0] == counts[1] and counts[0][0] == counts[0][1] <= 1228


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
    """The regime forms in complex long-double arithmetic, one regime at a time,
    split at k^2 = 1 exactly."""
    k, gt = np.broadcast_arrays(np.asarray(k, np.longdouble), np.asarray(gt, np.longdouble))
    k2, one = k * k, np.longdouble(1.0)
    sub, sup = k2 < 1.0, k2 > 1.0
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


@pytest.mark.parametrize("dk2", [-5e-9, 5e-9, -1e-10, 1e-10])
def test_closed_forms_exact_through_the_threshold_band(dk2):
    # inside the band |k^2 - 1| <= 1e-8 the threshold forms were applied as if
    # k^2 were 1, which put n0 3.3e-5 off at gt = 100; the 40-digit references
    # n0 = |sinh(q gt)/q|^2 and A0 = -log(cosh q gt - i k sinh(q gt)/q) - i k gt,
    # q = sqrt(1 - k^2), hold on both sides of threshold
    gts = [1e-3, 0.5, 3.0, 10.0, 30.0, 100.0, 300.0]
    for k in (math.sqrt(1.0 + dk2), -math.sqrt(1.0 + dk2)):
        n0 = scalars(k, np.array(gts))[2]
        a_zero = coefficients(k, np.array(gts))[2]
        with mpmath.workdps(40):
            q = mpmath.sqrt(mpmath.mpc(1) - mpmath.mpf(k) ** 2)
            for i, gt in enumerate(gts):
                sh = mpmath.sinh(q * gt) / q
                want_n0 = abs(sh) ** 2
                want_a0 = -mpmath.log(mpmath.cosh(q * gt) - 1j * k * sh) - 1j * k * gt
                assert abs(n0[i] - want_n0) <= 1e-12 * want_n0, (k, gt)
                assert abs(a_zero[i] - complex(want_a0)) <= 1e-12 * max(1.0, abs(want_a0)), (k, gt)


@pytest.mark.parametrize("dk2", [-0.99e-8, 0.99e-8])
def test_solve_ode_agrees_with_closed_forms_inside_the_threshold_band(dk2):
    # the independent check of the test above: with the band's threshold forms
    # A0 was 4.4e-7 off at gt = 30 and 2.6e-5 at gt = 300
    params = params_for(1.0 + dk2)
    grid, tol = np.array([0.0, 30.0, 300.0]), 1e-10
    exact = solve_analytic(params, grid)
    for c, a_minus, a_zero in zip(solve_ode(HarmonicPump.from_params(params), params, grid, tol),
                                  exact.a_minus, exact.a_zero):
        assert abs(c.a_minus - a_minus) <= 10.0 * tol * max(1.0, abs(a_minus)), c.t
        assert abs(c.a_zero - a_zero) <= 10.0 * tol * max(1.0, abs(a_zero)), c.t


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
    s = solve_analytic(params, gt)
    r1, r2, r3 = unitarity_residuals(s)
    assert s.x == math.inf
    assert r1 <= 1e-12 and r2 <= 1e-12
    assert not math.isnan(r3)  # r3 <= 64 eps x holds with x = inf


@pytest.mark.parametrize("k", [1.0, -1.0])
@pytest.mark.parametrize("gt", [1e200, 1e300])
def test_threshold_coefficients_where_kw_squared_would_overflow(k, gt):
    # at threshold w = gt, so (k w)^2 passes the largest double past gt ~ 1.3e154;
    # A- = w / (1 - i k w) tends to i sign(k)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        a_plus, a_minus, a_zero = coefficients(k, gt)
        r1, r2, _ = unitarity_residuals(WeiNormanCoefficients(gt, a_plus, a_minus, a_zero))
    assert abs(a_minus - 1j * math.copysign(1.0, k)) <= 1e-12
    assert r1 <= 1e-12 and r2 <= 1e-12


@pytest.mark.parametrize("t", [1.3, np.linspace(0.0, 3.0, 7)])
def test_solve_analytic_runs_the_kernel_once(monkeypatch, t):
    calls, kernel = [], weinorman._regime_kernel
    monkeypatch.setattr(weinorman, "_regime_kernel",
                        lambda k, gt: calls.append(gt) or kernel(k, gt))
    solve_analytic(params_for(0.5), t)
    assert len(calls) == 1


def _solution_fields(s):
    return [getattr(s, f.name) for f in dataclasses.fields(s)[1:]]


def test_solution_equals_coefficients_and_scalars():
    # g = 1, so t = gt; omega_a + omega_b = 1, so k = (omega - 1) / 2
    k, gt = _threshold_grid()
    cases = [(ModelParams(omega_a=0.5, omega_b=0.5, g=1.0, omega=1.0 + 2.0 * kv), gt.ravel())
             for kv in k.ravel()] + [(params_for(0.5), 600.0)]
    for params, t in cases:
        want = coefficients(params.k, t) + scalars(params.k, t)
        for got, value in zip(_solution_fields(solve_analytic(params, t)), want, strict=True):
            np.testing.assert_array_equal(got, value)
    assert solve_analytic(params_for(0.5), 600.0).x == math.inf


def test_solution_of_a_scalar_time_holds_python_numbers():
    s = solve_analytic(params_for(0.5), 1.0)
    assert type(s.t) is float
    assert [type(v) for v in _solution_fields(s)] == [complex] * 3 + [float] * 6
    assert derived_scalars is solve_analytic


def test_scalar_input_gives_scalars():
    kinds = {type(v) for v in coefficients(0.5, 1.0)}
    assert kinds == {np.complex128}
    assert {type(v) for v in scalars(0.5, 1.0)} == {np.float64}
    assert {type(v) for v in unitarity_residuals(solve_analytic(params_for(0.5), 1.0))} == {
        np.float64}
    assert [np.shape(v) for v in coefficients(0.5, np.ones(3))] == [(3,)] * 3


@pytest.mark.parametrize("name, bound", [("coefficients", 60.0), ("scalars", 60.0),
                                         ("unitarity_residuals", 36.0),
                                         ("solve_analytic", 108.0)])
def test_grid_peak_memory_per_point(name, bound):
    # bound: the outputs' bytes per point (48, 48, 24 and 96) plus 12, on
    # 160 000 points: temporaries are block-sized, not grid-sized
    k, gt = np.linspace(-1.8, 1.8, 400)[:, None], np.linspace(0.0, 10.0, 400)[None, :]
    c = WeiNormanCoefficients(gt, *coefficients(k, gt))
    t, params = np.linspace(0.0, 10.0, 160_000), params_for(0.5)
    call = {"coefficients": lambda: coefficients(k, gt), "scalars": lambda: scalars(k, gt),
            "unitarity_residuals": lambda: unitarity_residuals(c),
            "solve_analytic": lambda: solve_analytic(params, t)}[name]
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / 160_000 <= bound


@pytest.mark.parametrize("call, shown", [
    (lambda: scalars(math.nan, 1.0), "k = nan"),
    (lambda: coefficients(math.nan, 1.0), "k = nan"),
    (lambda: scalars(0.5, math.inf), "gt = inf"),
    (lambda: coefficients(np.array([0.5, 1.5]), np.array([[0.0], [-math.inf]])),
     r"gt\[1\] = -inf"),
    (lambda: solve_analytic(params_for(0.5), np.array([0.0, 1.0, math.nan])), r"t\[2\] = nan"),
    (lambda: unitarity_residuals(WeiNormanCoefficients(0.0, 0j, complex(math.nan, 0.0), 0j)),
     r"a_minus = \(nan\+0j\)"),
])
def test_grids_refuse_non_finite_input(call, shown):
    # nan k fell into neither regime mask and read as threshold: scalars(nan, 1) gave n0 = 1
    with pytest.raises(ValueError, match=shown + " is not finite"):
        call()


def test_solve_analytic_refuses_a_time_whose_gt_overflows():
    # g t = 10 * 1e308 is inf: nan coefficients after overflow warnings, before
    params = ModelParams.from_k2(0.5, g=10.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"overflows at t = 1e\+308"):
            solve_analytic(params, 1e308)
        with pytest.raises(ValueError, match=r"overflows at t = -1e\+308"):
            solve_analytic(params, np.array([0.0, 1.0, -1e308]))
    assert solve_analytic(params, 1e307).t == 1e307  # g t = 1e308 is finite


def _row_by_row(fn, *inputs):
    """``fn``'s outputs on the broadcast grid of ``inputs`` from one call per
    leading-axis row (a 1-d grid is one row), each a (1, m) grid: one block."""
    shape = np.broadcast_shapes(*(np.shape(v) for v in inputs))
    ins = [np.array(v, ndmin=max(len(shape), 2)) for v in inputs]
    rows = [fn(*(v if len(v) == 1 else v[i:i + 1] for v in ins))
            for i in range(max(len(v) for v in ins))]
    rows = rows or [fn(*(np.zeros((1, 0), v.dtype) for v in ins))]  # no rows: the dtypes
    return [np.concatenate([r[j] for r in rows]).reshape(shape) for j in range(len(rows[0]))]


def _grid_k(rng, shape):
    """k across all three regimes, with threshold and its band edges exactly."""
    special = np.array([1.0, -1.0, math.sqrt(1.0 + 5e-9), math.sqrt(1.0 - 2e-8), 0.0])
    k = rng.uniform(-1.9, 1.9, shape)
    k.flat[::7] = np.resize(special, k.flat[::7].size)
    return k


BLOCK = weinorman._BLOCK


@pytest.mark.parametrize("long_double", [False, True])
@pytest.mark.parametrize("kind", ["outer", "scalar k", "1-d gt", "1-d k", "empty"])
@settings(max_examples=5, deadline=None, derandomize=True)
@given(m=st.sampled_from([BLOCK // 64, BLOCK // 3, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3]),
       extra=st.integers(-1, 2), seed=st.integers(0, 2 ** 32 - 1))
def test_grids_are_block_invariant(kind, long_double, m, extra, seed):
    # n m straddles a block: n = BLOCK // m + extra rows of m points
    rng, n = np.random.default_rng(seed), max(BLOCK // m + extra, 1)
    k, gt = {"outer": lambda: (_grid_k(rng, (n, 1)), rng.uniform(0.0, 12.0, (1, m))),
             "scalar k": lambda: (0.5, rng.uniform(0.0, 12.0, (n, m))),
             "1-d gt": lambda: (-1.2, rng.uniform(0.0, 12.0, n * m)),
             "1-d k": lambda: (_grid_k(rng, n * m), 3.7),
             "empty": lambda: [(np.zeros((0, 1)), np.ones((1, m))),  # (0, m)
                               (np.ones((n, 1)), np.ones((1, 0))),  # (n, 0)
                               (0.5, np.zeros(0))][min(extra + 1, 2)],  # (0,)
             }[kind]()
    dtype = np.complex256 if long_double else np.complex128
    want = _row_by_row(lambda k, gt: coefficients(k, gt, dtype), k, gt)
    got = coefficients(k, gt, dtype)
    want += _row_by_row(scalars, k, gt)
    got += scalars(k, gt)
    want += _row_by_row(lambda *c: unitarity_residuals(WeiNormanCoefficients(0.0, *c)), *got[:3])
    got += unitarity_residuals(WeiNormanCoefficients(0.0, *got[:3]))
    if np.ndim(k) == 0:
        params = ModelParams(omega_a=0.5, omega_b=0.5, g=1.0, omega=1.0 + 2.0 * k)
        want += _row_by_row(lambda t: _solution_fields(solve_analytic(params, t)), gt)
        got += tuple(_solution_fields(solve_analytic(params, gt)))
    for g, w in zip(got, want, strict=True):
        assert g.dtype == w.dtype and g.shape == w.shape
        np.testing.assert_array_equal(g, w)
