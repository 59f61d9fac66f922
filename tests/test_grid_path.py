"""Array-valued closed forms against their scalar calls, point by point.

Every helper the CLI evaluates on a whole time grid must give, at each
grid time, what its scalar call gives there.  Helpers of the derived
scalars (x, y, n0) do the same real arithmetic either way and must agree
exactly.  Helpers of the complex coefficients use Python's complex
arithmetic for a scalar and numpy's for a grid, which round differently,
so they agree to a relative and absolute 1e-12.  The coefficients
themselves, and their unitarity residuals, agree exactly.
"""

import math

import numpy as np
import pytest

from ndpa import (CoherentPair, FockOutcome, FockPair, ModelParams,
                  PureAModeState, amode_prob, coherent_mean_numbers,
                  coherent_revival_prob, cross_correlation_fock,
                  cross_correlation_general, fock11_prob,
                  fock_amplitude, mandel_q_coherent, mandel_q_fock,
                  second_moments, snr_eta_coherent, snr_rho_fock,
                  solve_analytic, squeezing_kernel, unitarity_residuals, vacuum_prob)

TIMES = np.linspace(0.0, 3.0, 31)  # includes gt = 0
K2S = (0.5, 1.0, 1.5)  # below, at and above threshold
FOCK = (FockPair(0, 0), FockPair(1, 0), FockPair(0, 1), FockPair(2, 1),
        FockPair(50, 10), FockPair(100, 1))
COHERENT = (CoherentPair(1.0, 1.0), CoherentPair(0.6 + 0.2j, -1.5j))
# (initial, outcome): degree 0, then n < r, n = r and n > r, then a < b,
# where the Jacobi indices swap
TRANSITIONS = ((FockPair(0, 0), FockOutcome(2, 2)), (FockPair(8, 6), FockOutcome(3, 5)),
               (FockPair(8, 6), FockOutcome(6, 8)), (FockPair(8, 6), FockOutcome(9, 11)),
               (FockPair(2, 7), FockOutcome(9, 4)))
COMPLEX_TOL = 1e-12


def params_for(k2):
    return ModelParams.from_k2(k2, omega_a=3.0, omega_b=2.0)


def on_grid(params):
    return solve_analytic(params, TIMES)


def at_points(params):
    return [solve_analytic(params, t) for t in TIMES]


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
    s = on_grid(params)
    points = at_points(params)
    for n in (0, 1, 3):
        assert_pointwise(vacuum_prob(s, n), [vacuum_prob(sp, n) for sp in points])
        assert_pointwise(fock11_prob(s, n), [fock11_prob(sp, n) for sp in points])
    psi = PureAModeState.poisson(0.85)
    for m, n in ((0, 0), (1, 2), (2, 1), (0, 3)):
        out = FockOutcome(m, n)
        assert_pointwise(amode_prob(s, psi, out),
                         [amode_prob(sp, psi, out) for sp in points])
    for pair in COHERENT:
        for i in (0, 1):
            assert_pointwise(coherent_revival_prob(s, pair)[i],
                             [coherent_revival_prob(sp, pair)[i] for sp in points],
                             exact=False)
    for initial, outcome in TRANSITIONS:  # complex values, compared to COMPLEX_TOL
        amps = [fock_amplitude(sp, initial, outcome) for sp in points]
        assert all(type(v) is complex for v in amps)
        np.testing.assert_allclose(fock_amplitude(s, initial, outcome), amps,
                                   rtol=COMPLEX_TOL, atol=COMPLEX_TOL)


@pytest.mark.parametrize("k2", K2S)
def test_coefficients_and_residuals(k2):
    # exact: every complex product is formed out of place, so a lone time
    # rounds as it does inside a grid (A+ and r1, r2 once differed in the last bit)
    params = params_for(k2)
    s = on_grid(params)
    points = at_points(params)
    for name in ("a_plus", "a_minus", "a_zero"):
        np.testing.assert_array_equal(getattr(s, name), [getattr(sp, name) for sp in points])
    residuals = [unitarity_residuals(sp) for sp in points]
    for i, grid_r in enumerate(unitarity_residuals(s)):
        np.testing.assert_array_equal(grid_r, [r[i] for r in residuals])


@pytest.mark.parametrize("k2", K2S)
def test_fock_observables(k2):
    params = params_for(k2)
    s = on_grid(params)
    points = at_points(params)
    for f in FOCK:
        assert_pointwise(mandel_q_fock(s, f), [mandel_q_fock(sp, f) for sp in points])
        assert_pointwise(snr_rho_fock(s, f), [snr_rho_fock(sp, f) for sp in points])
        for i in (0, 1):
            assert_pointwise(cross_correlation_fock(s, f)[i],
                             [cross_correlation_fock(sp, f)[i] for sp in points])


@pytest.mark.parametrize("k2", K2S)
def test_squeezing_kernel(k2):
    params = params_for(k2)
    for theta in (0.0, 0.4, math.pi / 2.0):
        grid = squeezing_kernel(solve_analytic(params, TIMES), theta)
        points = [squeezing_kernel(solve_analytic(params, t), theta) for t in TIMES]
        for key in ("t_sq", "g_kernel", "h_kernel"):
            assert_pointwise(getattr(grid, key), [getattr(p, key) for p in points])


@pytest.mark.parametrize("k2", K2S)
def test_coherent_observables(k2):
    params = params_for(k2)
    s = on_grid(params)
    points = at_points(params)
    for pair in COHERENT:
        report = snr_eta_coherent(s, pair)
        reports = [snr_eta_coherent(sp, pair) for sp in points]
        for key in ("eta", "yuen_bound"):
            assert_pointwise(getattr(report, key), [getattr(r, key) for r in reports],
                             exact=False)
        for i in (0, 1):
            assert_pointwise(coherent_mean_numbers(s, s, pair)[i],
                             [coherent_mean_numbers(sp, sp, pair)[i]
                              for sp in points], exact=False)
        tab = second_moments(pair, s)
        tabs = [second_moments(pair, sp) for sp in points]
        assert_pointwise(mandel_q_coherent(tab), [mandel_q_coherent(t) for t in tabs],
                         exact=False)
        for i in (0, 1):
            assert_pointwise(cross_correlation_general(tab)[i],
                             [cross_correlation_general(t)[i] for t in tabs], exact=False)


def test_edge_values_at_gt_zero():
    s = on_grid(params_for(1.5))
    assert snr_rho_fock(s, FockPair(2, 1))[0] == math.inf
    assert snr_rho_fock(s, FockPair(0, 1))[0] == 0.0
    assert math.isnan(cross_correlation_fock(s, FockPair(1, 0))[1][0])
    assert mandel_q_fock(s, FockPair(2, 1))[0] == -1.0
    assert mandel_q_fock(s, FockPair(0, 5))[0] == 0.0
    assert fock11_prob(s, 1)[0] == 1.0
    assert np.all(np.isfinite(cross_correlation_fock(s, FockPair(1, 0))[1][1:]))


def test_coherent_mandel_q_rejects_a_zero_mean_anywhere_on_the_grid():
    s = on_grid(params_for(1.5))
    with pytest.raises(ValueError):
        mandel_q_coherent(second_moments(CoherentPair(0.0, 0.5), s))
