import itertools
import math
import re
import sys
from operator import attrgetter

import mpmath
import numpy as np
import pytest

from ndpa.amplitudes import CoherentPair, FockPair, PureAModeState
from ndpa.model import HarmonicPump, ModelParams, RegimeError, TabulatedPump
from ndpa.moments import second_moments
from ndpa.observables import (_mandel_q, _snr_rho, asymptotic_minima_period,
                              cross_correlation_fock,
                              cross_correlation_general,
                              instantaneous_diagonalization, mandel_q_coherent,
                              mandel_q_fock, mandel_q_fock_max,
                              mean_photon_fock, quadrature_variance,
                              snr_eta_coherent, snr_rho_extrema, snr_rho_fock,
                              snr_rho_limit, snr_rho_min_value,
                              squeezing_extrema, squeezing_kernel)
from ndpa.weinorman import bogoliubov_pair, coefficients, solve_analytic, solve_ode

from helpers import params_for


# -- Bogoliubov pair ---------------------------------------------------------


def test_bogoliubov_pair_initial_and_commutator():
    u, v = bogoliubov_pair(solve_analytic(params_for(1.5), 0.0))
    assert u == pytest.approx(1.0)
    assert v == pytest.approx(0.0)
    rng = np.random.default_rng(2)
    for _ in range(50):
        p = params_for(rng.uniform(0.0, 4.0))
        u, v = bogoliubov_pair(solve_analytic(p, rng.uniform(0.0, 8.0)))
        assert abs(u) ** 2 - abs(v) ** 2 == pytest.approx(1.0, abs=1e-10)


def test_bogoliubov_pair_zero_detuning():
    params = ModelParams(omega_a=3.0, omega_b=2.0, g=1.0, omega=5.0)
    u, v = bogoliubov_pair(solve_analytic(params, 1.3))
    assert abs(u) == pytest.approx(math.cosh(1.3))
    assert abs(v) == pytest.approx(math.sinh(1.3))


# -- photon statistics -------------------------------------------------------


def test_mean_photon_fock():
    params = params_for(1.5)
    d0 = solve_analytic(params, 0.0)
    assert mean_photon_fock(d0, FockPair(2, 5)) == (2.0, 5.0)
    d = solve_analytic(params, 1.0)
    ma, mb = mean_photon_fock(d, FockPair(2, 0))
    assert ma == pytest.approx(2.0 + 3.0 * d.n0)
    assert ma - mb == pytest.approx(2.0)
    # cross-check against the moment engine
    tab = second_moments(FockPair(2, 0), d)
    assert ma == pytest.approx(tab.mean_a, rel=1e-10)


def test_mandel_q_fock_limits():
    d0 = solve_analytic(params_for(1.5), 0.0)
    assert mandel_q_fock(d0, FockPair(2, 3)) == -1.0
    assert mandel_q_fock(d0, FockPair(0, 3)) == 0.0


def _q_fock_grid(k2, r, s, tmax, n):
    """Vectorized Mandel Q on a gt grid (n0 > 0 everywhere on it)."""
    from ndpa.weinorman import scalars
    gt = np.linspace(1e-4, tmax, n)
    n0 = scalars(math.sqrt(k2), gt)[2]
    num = n0 * 2 * r * s + n0 ** 2 * (2 * r * s + r + s + 1) - r
    return num / (r + n0 * (r + s + 1))


@pytest.mark.parametrize("k2", [1.5, 2.0])
@pytest.mark.parametrize("s", [1, 5])
def test_mandel_q_max_source_free(k2, s):
    grid = _q_fock_grid(k2, 0, s, 4.0 * math.pi / math.sqrt(k2 - 1.0), 400001)
    assert grid.max() == pytest.approx(1.0 / (k2 - 1.0), abs=1e-6)
    assert mandel_q_fock_max(params_for(k2), FockPair(0, s)) == pytest.approx(
        1.0 / (k2 - 1.0))


def test_mandel_q_max_formula_r1():
    grid = _q_fock_grid(1.5, 1, 0, 20.0, 400001)
    assert mandel_q_fock_max(params_for(1.5), FockPair(1, 0)) == \
        pytest.approx(1.4)
    assert grid.max() == pytest.approx(1.4, abs=1e-6)
    with pytest.raises(RegimeError):
        mandel_q_fock_max(params_for(0.5), FockPair(1, 0))


def test_mandel_q_coherent_matches_fock_vacuum_limit():
    params = params_for(1.5)
    c = solve_analytic(params, 1.2)
    q_coh = mandel_q_coherent(second_moments(CoherentPair(0.0, 0.0), c))
    assert q_coh == pytest.approx(mandel_q_fock(c, FockPair(0, 0)), rel=1e-9)
    # coherent light is Poissonian at t=0
    c0 = solve_analytic(params, 0.0)
    assert mandel_q_coherent(second_moments(CoherentPair(2.0, 1.0), c0)) == \
        pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        mandel_q_coherent(second_moments(CoherentPair(0.0, 0.0), c0))


# -- cross correlations ------------------------------------------------------


def test_correlation_equal_occupation_is_minus_one():
    for r in (1, 3, 10):
        for k2 in (0.5, 1.5):
            params = params_for(k2)
            for t in (0.3, 1.1, 2.7):
                d = solve_analytic(params, t)
                _, big_f = cross_correlation_fock(d, FockPair(r, r))
                assert big_f == pytest.approx(-1.0, abs=1e-10)


def test_correlation_s0_nonpositive():
    params = params_for(1.5)
    d = solve_analytic(params, np.linspace(0.05, 8.0, 80))
    for r in (1, 5, 50):
        f_val, _ = cross_correlation_fock(d, FockPair(r, 0))
        assert np.all(f_val <= 1e-10)


def test_correlation_positive_excursion_50_10():
    params = params_for(0.5)
    _, big_f = cross_correlation_fock(solve_analytic(params, np.linspace(0.1, 1.3, 400)),
                                      FockPair(50, 10))
    assert np.max(big_f) > 0.0


def test_correlation_closed_form_vs_moments():
    rng = np.random.default_rng(11)
    for _ in range(40):
        params = params_for(rng.uniform(0.1, 2.5))
        t = rng.uniform(0.05, 3.0)
        f = FockPair(int(rng.integers(0, 6)), int(rng.integers(0, 6)))
        d = solve_analytic(params, t)
        tab = second_moments(f, d)
        f_closed, _ = cross_correlation_fock(d, f)
        f_moments, _ = cross_correlation_general(tab)
        assert f_closed == pytest.approx(f_moments, abs=1e-9)


def test_correlation_undefined_normalization_at_t0():
    d0 = solve_analytic(params_for(1.5), 0.0)
    f_val, big_f = cross_correlation_fock(d0, FockPair(1, 0))
    assert math.isnan(big_f)
    assert f_val == 0.0


def test_correlation_vacuum_consistency():
    params = params_for(1.2)
    d = solve_analytic(params, 1.4)
    tab = second_moments(FockPair(0, 0), d)
    assert cross_correlation_general(tab)[0] == pytest.approx(
        cross_correlation_fock(d, FockPair(0, 0))[0], abs=1e-10)


# -- squeezing ---------------------------------------------------------------


def test_kernel_initial_and_zero_detuning():
    params = params_for(1.5)
    assert squeezing_kernel(solve_analytic(params, 0.0), 0.7).t_sq == pytest.approx(1.0)
    p0 = ModelParams(omega_a=3.0, omega_b=2.0, g=1.0, omega=5.0)
    for gt in (0.5, 2.0):
        sol = solve_analytic(p0, gt)
        assert squeezing_kernel(sol, 0.0).t_sq == pytest.approx(
            math.exp(-2.0 * gt), abs=1e-10)
        assert squeezing_kernel(sol, math.pi / 2.0).t_sq == pytest.approx(
            math.exp(2.0 * gt), rel=1e-10)


def test_kernel_matches_direct_modulus():
    rng = np.random.default_rng(8)
    for _ in range(60):
        params = params_for(rng.uniform(0.0, 3.0))
        t = rng.uniform(0.0, 6.0)
        theta = rng.uniform(0.0, math.pi)
        c = solve_analytic(params, t)
        direct = abs(np.exp(-np.conj(c.a_zero) + 1j * theta)
                     - c.a_minus * np.exp(-c.a_zero - 1j * theta)) ** 2
        assert squeezing_kernel(c, theta).t_sq == pytest.approx(direct, rel=1e-8, abs=1e-10)
    # G + iH is the record's A-; under the harmonic pump also conj(A-) exp(2i Im A0 + i Omega t)
    gt = np.linspace(0.0, 18.2, 183)
    for k2, sign, theta in itertools.product(np.linspace(0.0, 10.0, 9), (1, -1),
                                             (0.0, 0.4, math.pi / 2.0)):
        params = params_for(k2, sign=sign)
        c = solve_analytic(params, gt)
        kernel = squeezing_kernel(c, theta)
        gh = kernel.g_kernel + 1j * kernel.h_kernel
        want = np.conj(c.a_minus) * np.exp(2j * c.a_zero.imag + 1j * params.Omega * c.t)
        assert np.all(np.abs(gh - want) <= 1e-13 * np.maximum(1.0, np.abs(gh))), (k2, sign)
    # under any pump A- = -conj(A+) exp(2i Im A0) by unitarity; a solve_ode record keeps it
    # to its tolerance, its phase Im A0 being integrated, under a pump modulated in amplitude
    params = params_for(1.5)
    samples = np.linspace(0.0, 5.0, 101)
    value = HarmonicPump.from_params(params).value(samples) * (1.0 + 0.3 * np.sin(samples))
    c = solve_ode(TabulatedPump(times=tuple(samples), values=tuple(value)), params,
                  np.linspace(0.0, 5.0, 51))
    kernel = squeezing_kernel(c, 0.4)
    gh = kernel.g_kernel + 1j * kernel.h_kernel
    for want in (c.a_minus, -np.conj(c.a_plus) * np.exp(2j * c.a_zero.imag)):
        assert np.all(np.abs(gh - want) <= 1e-9)


def test_kernel_matches_long_double_modulus():
    # fig7log's grid: x grows to ~1e8, so cancellation in x(1 + y - 2(...))
    # would show far above the double-precision modulus
    params = params_for(0.5)
    gt = np.linspace(0.0, 14.0, 1501)
    _, a_minus, a_zero = coefficients(params.k, gt, dtype=np.complex256)
    for theta in (0.0, 0.3, math.pi / 2.0):
        phase = np.exp(np.complex256(1j * theta))
        ref = np.abs(np.exp(-np.conj(a_zero)) * phase
                     - a_minus * np.exp(-a_zero) / phase) ** 2
        np.testing.assert_allclose(squeezing_kernel(solve_analytic(params, gt), theta).t_sq,
                                   ref.astype(float), rtol=1e-11, atol=0.0)


def test_kernel_branches_agree_at_critical():
    for sign in (1, -1):
        lo, mid, hi = (params_for(k2, sign=sign) for k2 in (1.0 - 1e-7, 1.0, 1.0 + 1e-7))
        for t in (0.5, 2.0, 5.0):
            vals = [squeezing_kernel(solve_analytic(p, t), 0.3) for p in (lo, mid, hi)]
            assert vals[0].g_kernel == pytest.approx(vals[1].g_kernel, abs=1e-5)
            assert vals[2].g_kernel == pytest.approx(vals[1].g_kernel, abs=1e-5)
            assert vals[0].h_kernel == pytest.approx(vals[1].h_kernel, abs=1e-5)
            assert vals[2].h_kernel == pytest.approx(vals[1].h_kernel, abs=1e-5)


def test_quadrature_variance_states():
    params = params_for(0.5)
    kernel = squeezing_kernel(solve_analytic(params, 2.0), 0.4)
    assert quadrature_variance(kernel, FockPair(1, 1)) == pytest.approx(
        3.0 * kernel.t_sq)
    # coherent variance equals the vacuum variance, independent of amplitude
    for pair in (CoherentPair(0.0, 0.0), CoherentPair(3.0, -2.0 + 1j)):
        assert quadrature_variance(kernel, pair) == kernel.t_sq


def test_quadrature_variance_of_an_amode_state():
    # a coherent a mode's is |T|^2 too; an a-mode state that is not coherent is refused,
    # naming its excess n - |<a>|^2: |1> has 1, (|0> + |1>)/sqrt(2) has 1/2 - 1/4
    kernel = squeezing_kernel(solve_analytic(params_for(0.5), 1.3), 0.4)
    for alpha in (0.85, 100.0):
        assert quadrature_variance(kernel, PureAModeState.poisson(alpha)) == kernel.t_sq
    for psi, excess in ((PureAModeState((0.0, 1.0), (0.0, 0.0)), "1.000e+00"),
                        (PureAModeState((0.5, 0.5), (0.0, 0.0)), "2.500e-01")):
        with pytest.raises(ValueError, match=rf"mean n - \|<a>\|\^2 = {re.escape(excess)}"):
            quadrature_variance(kernel, psi)


def test_uncertainty_product_bound_and_revivals():
    params = params_for(9.0 / 5.0)
    sol = solve_analytic(params, np.linspace(0.0, 15.0, 3001))
    prod = squeezing_kernel(sol, 0.0).t_sq * squeezing_kernel(sol, math.pi / 2.0).t_sq
    assert np.all(prod >= 1.0 - 1e-10)
    t_rev = math.pi * math.sqrt(5.0)
    for mult in (1, 2):
        sol = solve_analytic(params, mult * t_rev)
        v0 = squeezing_kernel(sol, 0.0).t_sq
        v90 = squeezing_kernel(sol, math.pi / 2.0).t_sq
        assert v0 * v90 == pytest.approx(1.0, abs=1e-8)


def test_variance_half_period_shift():
    params = params_for(9.0 / 5.0)
    t_half = math.pi * math.sqrt(5.0) / 2.0
    ts = np.linspace(0.1, 6.0, 25)
    v0_shift = squeezing_kernel(solve_analytic(params, ts + t_half), 0.0).t_sq
    v90 = squeezing_kernel(solve_analytic(params, ts), math.pi / 2.0).t_sq
    assert v0_shift == pytest.approx(v90, rel=1e-8, abs=1e-10)


def test_squeezing_minima_asymptotic_period():
    params = params_for(0.5)
    minima = squeezing_extrema(params, 0.0, (20.0, 45.0), n_grid=8001)
    times = [t for t, _ in minima]
    spacings = np.diff(times)
    expected = asymptotic_minima_period(params)
    assert np.all(np.abs(spacings - expected) < 0.02 * expected)
    with pytest.raises(RegimeError):
        asymptotic_minima_period(params_for(1.5))


def test_squeezing_extrema_refine_every_strict_grid_minimum_in_order():
    params, ts = params_for(0.5), np.linspace(20.0, 36.0, 801)
    vals = squeezing_kernel(solve_analytic(params, ts), 0.0).t_sq
    loop = [i for i in range(1, ts.size - 1) if vals[i] < vals[i - 1] and vals[i] < vals[i + 1]]
    minima = squeezing_extrema(params, 0.0, (20.0, 36.0), n_grid=801)
    assert len(minima) == len(loop) > 1
    assert all(ts[i - 1] <= t <= ts[i + 1] for (t, _), i in zip(minima, loop))


def test_variance_moment_engine_agreement():
    # two-mode quadrature variance from the moment engine equals the kernel
    params = params_for(0.5)
    t, theta = 2.0, 0.4
    tab = second_moments(FockPair(1, 1), solve_analytic(params, t))
    ea = np.exp(1j * theta)
    mean = (tab.expect(0, 1, 0, 0) * ea + tab.expect(1, 0, 0, 0) / ea
            + tab.expect(0, 0, 1, 0) / ea
            + tab.expect(0, 0, 0, 1) * ea) / math.sqrt(2.0)
    x2 = (tab.expect(0, 2, 0, 0) * ea ** 2 + 2 * tab.expect(0, 1, 1, 0)
          + tab.expect(0, 0, 2, 0) / ea ** 2
          + tab.expect(2, 0, 0, 0) / ea ** 2 + 2 * tab.expect(1, 0, 0, 1)
          + tab.expect(0, 0, 0, 2) * ea ** 2
          + 2 * tab.expect(1, 1, 0, 0) + 2 * tab.expect(0, 0, 1, 1) + 2
          + 2 * (tab.expect(0, 1, 0, 1) * ea ** 2
                 + tab.expect(1, 0, 1, 0) / ea ** 2)) / 2.0
    var = (x2 - mean ** 2).real
    kernel = squeezing_kernel(solve_analytic(params, t), theta)
    assert var == pytest.approx(quadrature_variance(kernel, FockPair(1, 1)),
                                rel=1e-10)


# -- signal-to-noise ---------------------------------------------------------


def test_rho_sentinels():
    d0 = solve_analytic(params_for(1.5), 0.0)
    assert snr_rho_fock(d0, FockPair(2, 1)) == math.inf
    assert snr_rho_fock(d0, FockPair(0, 1)) == 0.0


@pytest.mark.parametrize("r, s", [(1, 0), (0, 3), (0, 0)])
def test_rho_min_value_needs_both_modes_occupied(r, s):
    with pytest.raises(ValueError, match=f"needs r, s > 0, got \\|{r},{s}>"):
        snr_rho_min_value(FockPair(r, s))


def test_rho_asymptotic_limit():
    params = params_for(0.5)
    t = 25.0 / (math.sqrt(0.5))
    d = solve_analytic(params, t)
    rho = snr_rho_fock(d, FockPair(100, 1))
    assert rho == pytest.approx(snr_rho_limit(FockPair(100, 1)), abs=1e-3)
    assert snr_rho_limit(FockPair(100, 1)) == pytest.approx(
        102.0 / math.sqrt(302.0))


@pytest.mark.parametrize("k2", [1.2, 1.5, 2.0])
def test_rho_global_minimum_independent_of_detuning(k2):
    params = params_for(k2)
    f = FockPair(1, 100)
    ext = snr_rho_extrema(params, f)
    minima = [e for e in ext if e.kind == "global_min"]
    assert minima
    expected = 2.0 * math.sqrt(101.0 / 302.0)
    for e in minima:
        assert e.value == pytest.approx(expected, abs=1e-9)
        d = solve_analytic(params, e.time)
        assert snr_rho_fock(d, f) == pytest.approx(expected, abs=1e-7)


def test_rho_extrema_case_analysis():
    params = params_for(1.5)
    # inequality satisfied: local max between two global minima
    kinds = [e.kind for e in snr_rho_extrema(params, FockPair(1, 100))]
    assert kinds == ["global_min", "local_max", "global_min"]
    # r=0: single global maximum
    kinds = [e.kind for e in snr_rho_extrema(params, FockPair(0, 10))]
    assert kinds == ["global_max"]
    # r != 0 with the inequality violated: single global minimum
    kinds = [e.kind for e in snr_rho_extrema(params, FockPair(100, 1))]
    assert kinds == ["global_min"]
    # non-positive denominator s-r+1 counts as violating the inequality
    kinds = [e.kind for e in snr_rho_extrema(params, FockPair(3, 1))]
    assert kinds == ["global_min"]
    with pytest.raises(RegimeError):
        snr_rho_extrema(params_for(0.5), FockPair(1, 1))


def test_rho_extrema_against_grid():
    from ndpa.weinorman import scalars
    params = params_for(1.5)
    ts = np.linspace(1e-5, math.pi / math.sqrt(0.5) - 1e-5, 200001)
    n0 = scalars(params.k, ts)[2]
    for f in (FockPair(1, 100), FockPair(100, 1), FockPair(0, 10)):
        ext = snr_rho_extrema(params, f)
        r, s = f.r, f.s
        vals = ((r + n0 * (r + s + 1))
                / np.sqrt(n0 + n0 ** 2) / math.sqrt(2 * r * s + r + s + 1))
        finite = vals[np.isfinite(vals)]
        for e in ext:
            if e.kind == "global_min":
                assert finite.min() == pytest.approx(e.value, abs=1e-6)
            if e.kind == "global_max":
                assert finite.max() == pytest.approx(e.value, abs=1e-6)
            # refine around the analytic time: it must be a stationary point
            i = np.searchsorted(ts, e.time)
            window = vals[max(i - 300, 0):i + 300]
            if e.kind.endswith("max"):
                assert window.max() == pytest.approx(e.value, abs=1e-6)
            else:
                assert window.min() == pytest.approx(e.value, abs=1e-6)
    assert snr_rho_min_value(FockPair(1, 100)) == pytest.approx(
        2.0 * math.sqrt(101.0 / 302.0))


def test_eta_initial_value_and_bound():
    params = params_for(1.5)
    c0 = solve_analytic(params, 0.0)
    rep = snr_eta_coherent(c0, CoherentPair(1.3, 0.4j))
    assert rep.eta == pytest.approx(4.0 * 1.3 ** 2)
    assert rep.yuen_bound == pytest.approx(4.0 * 1.3 ** 2 * (1.3 ** 2 + 1.0))


def test_eta_matches_moment_engine():
    rng = np.random.default_rng(4)
    for _ in range(30):
        params = params_for(rng.uniform(0.2, 3.0))
        t = rng.uniform(0.05, 3.0)
        pair = CoherentPair(complex(rng.normal(), rng.normal()),
                            complex(rng.normal(), rng.normal()))
        c = solve_analytic(params, t)
        tab = second_moments(pair, c)
        mean_x = (tab.expect(0, 1, 0, 0)
                  + tab.expect(1, 0, 0, 0)).real / math.sqrt(2.0)
        x2 = ((tab.expect(0, 2, 0, 0) + tab.expect(2, 0, 0, 0)
               + 2.0 * tab.expect(1, 1, 0, 0) + 1.0) / 2.0).real
        var = x2 - mean_x * mean_x
        rep = snr_eta_coherent(c, pair)
        assert rep.eta == pytest.approx(mean_x ** 2 / var, abs=1e-10)


def test_eta_yuen_bound_holds():
    params = params_for(10.0)
    pair = CoherentPair(0.0, 3.0)
    rep = snr_eta_coherent(solve_analytic(params, np.linspace(1e-3, 14.0, 7000)), pair)
    assert np.all(rep.eta <= rep.yuen_bound + 1e-9)
    best = int(np.argmax(rep.eta))
    assert 1.5 <= rep.yuen_bound[best] / rep.eta[best] <= 4.0


def test_eta_forms_the_bogoliubov_pair_once(monkeypatch):
    # eta and the Yuen bound both read <a(t)> = u alpha + v conj(beta), formed once; every
    # module's binding of the pair is counted, so that a call through any of them is seen
    calls = []

    def counted(sol):
        calls.append(None)
        return bogoliubov_pair(sol)

    for module in [m for name, m in sys.modules.items() if name.split(".")[0] == "ndpa"]:
        if getattr(module, "bogoliubov_pair", None) is bogoliubov_pair:
            monkeypatch.setattr(module, "bogoliubov_pair", counted)
    for t in (0.0, 1.3, np.linspace(0.0, 2.0, 5)):
        snr_eta_coherent(solve_analytic(params_for(1.5), t), CoherentPair(0.8, 0.5j))
    assert len(calls) == 3


# -- the float range ---------------------------------------------------------

_STARTS = [FockPair(1, 0), FockPair(0, 1), FockPair(2, 3), FockPair(1, 100), FockPair(100, 1)]
# g t from 0 to past where n0 leaves the float range (n0 ~ exp(2 q g t)/4q^2 below
# threshold, (g t)^2 at it) and, below threshold, past where u and v overflow too
_GRIDS = {0.0: np.r_[np.linspace(0.0, 360.0, 61), 1e3, 1e4],
          0.5: np.r_[np.linspace(0.0, 520.0, 61), 1.5e3],
          1.0: np.r_[0.0, np.geomspace(1e-3, 1e155, 61)],
          1.5: np.linspace(0.0, 30.0, 61)}


def _fock_reference(log_n0, f):
    """(Q, rho) of |r,s> at n0 = exp(log_n0), at 60 digits."""
    r, s = f.r, f.s
    k = 2 * r * s + r + s + 1
    with mpmath.workdps(60):
        n0 = mpmath.exp(mpmath.mpf(log_n0))
        mean = r + (r + s + 1) * n0
        return (2 * r * s * n0 + k * n0 ** 2 - r) / mean, mean / mpmath.sqrt(k * n0 * (1 + n0))


@pytest.mark.parametrize("k2", sorted(_GRIDS))
def test_fock_q_and_rho_hold_across_the_float_range(k2):
    sol = solve_analytic(params_for(k2), _GRIDS[k2])
    assert sol.log_n0[0] == -math.inf and np.isinf(sol.n0[1:]).any() == (k2 <= 1.0)
    for f in _STARTS:
        q, rho = mandel_q_fock(sol, f), snr_rho_fock(sol, f)
        assert (q[0], rho[0]) == ((-1.0, math.inf) if f.r else (0.0, 0.0))
        for i, log_n0 in enumerate(sol.log_n0[1:], 1):
            want_q, want_rho = _fock_reference(log_n0, f)
            if not (q[i] == math.inf and want_q > 1e300):
                assert abs(q[i] - want_q) <= 1e-12 * abs(want_q), (f, i, q[i], want_q)
            assert 0.0 < rho[i] < math.inf
            assert abs(rho[i] - want_rho) <= 1e-12 * want_rho, (f, i, rho[i], want_rho)


def test_rho_reads_log_n0_where_n0_underflows():
    # n0 = (g t)^2 at k^2 = 0 is subnormal at g t = 1e-157 and 0 from ~1e-162 on, where
    # log n0 stays finite; the last time is t = 0, log n0 = -inf
    sol = solve_analytic(params_for(0.0), np.array([1e-157, 1e-170, 1e-300, 0.0]))
    assert 0.0 < sol.n0[0] < sys.float_info.min and (sol.n0[1:] == 0.0).all()
    assert np.isfinite(sol.log_n0[:-1]).all() and sol.log_n0[-1] == -math.inf
    for f in _STARTS:
        rho = snr_rho_fock(sol, f)
        assert rho[-1] == (math.inf if f.r else 0.0)
        for i, log_n0 in enumerate(sol.log_n0[:-1]):
            want = _fock_reference(log_n0, f)[1]
            assert abs(rho[i] - want) <= 1e-12 * want, (f, i, rho[i], want)
    one = solve_analytic(params_for(0.0), 1e-170)
    assert snr_rho_fock(one, FockPair(1, 0)) == pytest.approx(math.sqrt(0.5) * 1e170, rel=1e-12)
    assert mandel_q_fock(one, FockPair(1, 0)) == -1.0


@pytest.mark.parametrize("k2", sorted(_GRIDS))
def test_coherent_eta_holds_across_the_float_range(k2):
    pair = CoherentPair(0.8, 0.5j)
    sol = solve_analytic(params_for(k2), _GRIDS[k2])
    eta, bound = attrgetter("eta", "yuen_bound")(snr_eta_coherent(sol, pair))
    assert np.isfinite(eta).all() and (eta > 0.0).all()
    assert (bound >= eta).all()  # inf, never nan, past the float range
    with mpmath.workdps(60):
        for i, (a_zero, a_minus, log_n0) in enumerate(zip(sol.a_zero, sol.a_minus, sol.log_n0)):
            u = mpmath.exp(-mpmath.conj(mpmath.mpc(a_zero)))
            mean = u * pair.alpha - u * mpmath.conj(mpmath.mpc(a_minus)) * np.conj(pair.beta)
            want = 2 * mpmath.re(mean) ** 2 / (mpmath.exp(mpmath.mpf(log_n0)) + mpmath.mpf(0.5))
            assert abs(eta[i] - want) <= 1e-12 * want, (i, eta[i], want)


def test_rho_limit_minimum_and_q_maximum_are_the_forms_at_their_n0():
    for f in _STARTS + [FockPair(2, 1), FockPair(7, 9)]:
        assert snr_rho_limit(f) == _snr_rho(math.inf, f)
        assert snr_rho_limit(f) == (f.r + f.s + 1.0) / math.sqrt(2.0 * f.r * f.s + f.r + f.s + 1.0)
        for params in map(params_for, (1.2, 1.5, 3.0)):
            assert mandel_q_fock_max(params, f) == _mandel_q(1.0 / (params.k2 - 1.0), f)
        if f.r and f.s >= f.r - 1 and f.s:
            star = f.r / (f.s - f.r + 1) if f.s >= f.r else math.inf
            assert snr_rho_min_value(f) == _snr_rho(star, f)
            assert snr_rho_min_value(f) <= min(_snr_rho(np.geomspace(1e-3, 1e3, 601), f))
    # at s = r - 1 the stationary point is n0 = inf: the minimum is the limit
    assert snr_rho_min_value(FockPair(2, 1)) == snr_rho_limit(FockPair(2, 1))
    # a record past the float range reads the limit bit for bit
    d = solve_analytic(params_for(0.0), 400.0)
    assert d.n0 == math.inf and snr_rho_fock(d, FockPair(2, 3)) == snr_rho_limit(FockPair(2, 3))


@pytest.mark.parametrize("r, s", [(100, 1), (3, 1), (5, 2)])
def test_rho_min_value_refuses_a_pair_without_a_minimum(r, s):
    with pytest.raises(ValueError, match=f"\\|{r},{s}> falls to its limit with no minimum"):
        snr_rho_min_value(FockPair(r, s))
    rho = _snr_rho(np.geomspace(1e-6, 1e12, 400), FockPair(r, s))
    assert (np.diff(rho) < 0).all() and rho[-1] > snr_rho_limit(FockPair(r, s))


def test_coherent_q_refuses_an_overflowed_moment_table():
    sol = solve_analytic(params_for(0.0), np.linspace(0.0, 200.0, 201))
    with pytest.raises(ValueError, match="^the moment table overflowed at grid index 178$"):
        mandel_q_coherent(second_moments(CoherentPair(0.8, 0.5j), sol))
    q = mandel_q_coherent(second_moments(CoherentPair(0.8, 0.5j), sol[:178]))
    assert np.isfinite(q).all()


# -- diagonalization ---------------------------------------------------------


def test_diagonalization_decoupled_limit():
    params = ModelParams(omega_a=3.0, omega_b=2.0, g=1e-9, omega=5.0)
    res = instantaneous_diagonalization(params)
    assert res.stable
    assert res.omega_A == pytest.approx(3.0)
    assert res.omega_B == pytest.approx(2.0)
    assert res.squeeze_r == pytest.approx(0.0, abs=1e-9)


def test_diagonalization_instability_boundary():
    stable = instantaneous_diagonalization(
        ModelParams(omega_a=3.0, omega_b=2.0, g=2.4, omega=5.0))
    assert stable.stable
    assert math.cosh(2.0 * stable.squeeze_r) == pytest.approx(
        1.0 / math.sqrt(1.0 - (2.4 / 2.5) ** 2))
    unstable = instantaneous_diagonalization(
        ModelParams(omega_a=3.0, omega_b=2.0, g=2.5, omega=5.0))
    assert not unstable.stable
    assert unstable.omega_A is None


def test_unstable_regime_exponential_growth():
    # with g^2 > omega_+^2 the sub-threshold closed forms still apply and the
    # vacuum photon number grows at rate 2 g sqrt(1 - k^2)
    params = ModelParams(omega_a=1.0, omega_b=1.0, g=3.0, omega=2.0)
    assert not instantaneous_diagonalization(params).stable
    rate = 2.0 * params.g * math.sqrt(1.0 - params.k2)
    d1 = solve_analytic(params, 4.0)
    d2 = solve_analytic(params, 5.0)
    assert d2.log_n0 - d1.log_n0 == pytest.approx(rate, rel=1e-6)
