"""Array-valued closed forms against their scalar calls, point by point.

Every helper the CLI evaluates on a whole time grid must give, at each
grid time, what its scalar call gives there.  Helpers of the derived
scalars (x, y, n0) do the same real arithmetic either way and must agree
exactly.  Helpers of the complex coefficients use Python's complex
arithmetic for a scalar and numpy's for a grid, which round differently,
so they agree to a relative and absolute 1e-12.
"""

import math

import numpy as np
import pytest

from ndpa import (CoherentPair, FockOutcome, FockPair, ModelParams,
                  PureAModeState, amode_prob, coherent_mean_numbers,
                  coherent_revival_prob, cross_correlation_fock,
                  cross_correlation_general, derived_scalars, fock11_prob,
                  mandel_q_coherent, mandel_q_fock, second_moments,
                  snr_eta_coherent, snr_rho_fock, solve_analytic,
                  squeezing_kernel, vacuum_prob)

TIMES = np.linspace(0.0, 3.0, 31)  # includes gt = 0
K2S = (0.5, 1.0, 1.5)  # below, at and above threshold
FOCK = (FockPair(0, 0), FockPair(1, 0), FockPair(0, 1), FockPair(2, 1),
        FockPair(50, 10), FockPair(100, 1))
COHERENT = (CoherentPair(1.0, 1.0), CoherentPair(0.6 + 0.2j, -1.5j))
COMPLEX_TOL = 1e-12


def params_for(k2):
    return ModelParams.from_k2(k2, omega_a=3.0, omega_b=2.0)


def on_grid(params):
    return solve_analytic(params, TIMES), derived_scalars(params, TIMES)


def at_points(params):
    return [(solve_analytic(params, t), derived_scalars(params, t)) for t in TIMES]


def assert_pointwise(grid_value, point_values, exact=True):
    """The grid column equals the scalar calls; each scalar call is a float."""
    assert all(type(v) is float for v in point_values)
    assert np.shape(grid_value) == TIMES.shape
    if exact:
        np.testing.assert_array_equal(grid_value, point_values)
    else:
        np.testing.assert_allclose(grid_value, point_values, rtol=COMPLEX_TOL,
                                   atol=COMPLEX_TOL)


@pytest.mark.parametrize("k2", K2S)
def test_probabilities(k2):
    params = params_for(k2)
    c, d = on_grid(params)
    points = at_points(params)
    for n in (0, 1, 3):
        assert_pointwise(vacuum_prob(d, n), [vacuum_prob(dp, n) for _, dp in points])
        assert_pointwise(fock11_prob(d, n), [fock11_prob(dp, n) for _, dp in points])
    psi = PureAModeState.poisson(0.85)
    for m, n in ((0, 0), (1, 2), (2, 1), (0, 3)):
        out = FockOutcome(m, n)
        assert_pointwise(amode_prob(d, psi, out),
                         [amode_prob(dp, psi, out) for _, dp in points])
    for pair in COHERENT:
        for i in (0, 1):
            assert_pointwise(coherent_revival_prob(c, pair)[i],
                             [coherent_revival_prob(cp, pair)[i] for cp, _ in points],
                             exact=False)


@pytest.mark.parametrize("k2", K2S)
def test_fock_observables(k2):
    params = params_for(k2)
    c, d = on_grid(params)
    points = at_points(params)
    for f in FOCK:
        assert_pointwise(mandel_q_fock(d, f), [mandel_q_fock(dp, f) for _, dp in points])
        assert_pointwise(snr_rho_fock(d, f), [snr_rho_fock(dp, f) for _, dp in points])
        for i in (0, 1):
            assert_pointwise(cross_correlation_fock(d, f)[i],
                             [cross_correlation_fock(dp, f)[i] for _, dp in points])


@pytest.mark.parametrize("k2", K2S)
def test_squeezing_kernel(k2):
    params = params_for(k2)
    for theta in (0.0, 0.4, math.pi / 2.0):
        grid = squeezing_kernel(params, theta, TIMES)
        points = [squeezing_kernel(params, theta, t) for t in TIMES]
        for key in ("t_sq", "g_kernel", "h_kernel"):
            assert_pointwise(getattr(grid, key), [getattr(p, key) for p in points])


@pytest.mark.parametrize("k2", K2S)
def test_coherent_observables(k2):
    params = params_for(k2)
    c, d = on_grid(params)
    points = at_points(params)
    for pair in COHERENT:
        report = snr_eta_coherent(c, d, pair)
        reports = [snr_eta_coherent(cp, dp, pair) for cp, dp in points]
        for key in ("eta", "yuen_bound"):
            assert_pointwise(getattr(report, key), [getattr(r, key) for r in reports],
                             exact=False)
        for i in (0, 1):
            assert_pointwise(coherent_mean_numbers(c, d, pair)[i],
                             [coherent_mean_numbers(cp, dp, pair)[i]
                              for cp, dp in points], exact=False)
        tab = second_moments(pair, c)
        tabs = [second_moments(pair, cp) for cp, _ in points]
        assert_pointwise(mandel_q_coherent(tab), [mandel_q_coherent(t) for t in tabs],
                         exact=False)
        for i in (0, 1):
            assert_pointwise(cross_correlation_general(tab)[i],
                             [cross_correlation_general(t)[i] for t in tabs], exact=False)


def test_edge_values_at_gt_zero():
    _, d = on_grid(params_for(1.5))
    assert snr_rho_fock(d, FockPair(2, 1))[0] == math.inf
    assert snr_rho_fock(d, FockPair(0, 1))[0] == 0.0
    assert math.isnan(cross_correlation_fock(d, FockPair(1, 0))[1][0])
    assert mandel_q_fock(d, FockPair(2, 1))[0] == -1.0
    assert mandel_q_fock(d, FockPair(0, 5))[0] == 0.0
    assert fock11_prob(d, 1)[0] == 1.0
    assert np.all(np.isfinite(cross_correlation_fock(d, FockPair(1, 0))[1][1:]))


def test_coherent_mandel_q_rejects_a_zero_mean_anywhere_on_the_grid():
    c, _ = on_grid(params_for(1.5))
    with pytest.raises(ValueError):
        mandel_q_coherent(second_moments(CoherentPair(0.0, 0.5), c))
