import itertools

import pytest

from ndpa.amplitudes import CoherentPair, FockPair
from ndpa.model import HarmonicPump, ModelParams
from ndpa.moments import second_moments
from ndpa.oracle import OracleConfig, coherent_state, evolve_truncated, \
    fock_state, oracle_moment
from ndpa.weinorman import solve_analytic


def params_for(k2):
    return ModelParams.from_k2(k2, g=1.0, omega_a=3.0, omega_b=2.0)


def all_patterns(max_degree=4):
    for p, q, r, s in itertools.product(range(max_degree + 1), repeat=4):
        if 0 < p + q + r + s <= max_degree:
            yield p, q, r, s


def test_t0_fock_values():
    c = solve_analytic(params_for(1.5), 0.0)
    tab = second_moments(FockPair(3, 1), c)
    assert tab.expect(2, 2, 0, 0) == pytest.approx(3 * 2)
    assert tab.expect(1, 1, 0, 0) == pytest.approx(3)
    assert tab.expect(0, 0, 1, 1) == pytest.approx(1)
    assert tab.expect(1, 0, 0, 0) == 0


def test_t0_coherent_values():
    c = solve_analytic(params_for(1.5), 0.0)
    alpha, beta = 0.7 + 0.2j, -0.3j
    tab = second_moments(CoherentPair(alpha, beta), c)
    assert tab.expect(1, 1, 1, 1) == pytest.approx(abs(alpha) ** 2
                                                   * abs(beta) ** 2)
    assert tab.expect(0, 1, 0, 0) == pytest.approx(alpha)


def test_fock_moments_match_oracle():
    params = params_for(1.5)
    t = 0.7
    c = solve_analytic(params, t)
    tab = second_moments(FockPair(1, 0), c)
    state = evolve_truncated(HarmonicPump.from_params(params), params,
                             fock_state(40, 1, 0), t,
                             OracleConfig(cutoff=40, tol=1e-12))
    for pattern in all_patterns():
        assert tab.expect(*pattern) == pytest.approx(
            oracle_moment(state, *pattern), abs=1e-8)


def test_coherent_moments_match_oracle():
    params = params_for(0.8)
    t = 1.1
    pair = CoherentPair(0.6 + 0.2j, 0.3 - 0.5j)
    c = solve_analytic(params, t)
    tab = second_moments(pair, c)
    state = evolve_truncated(HarmonicPump.from_params(params), params,
                             coherent_state(72, pair.alpha, pair.beta), t,
                             OracleConfig(cutoff=72, tol=1e-12))
    for pattern in all_patterns():
        assert tab.expect(*pattern) == pytest.approx(
            oracle_moment(state, *pattern), abs=1e-8)


def test_charge_difference_conserved():
    params = params_for(0.5)
    for t in (0.4, 1.2, 2.5):
        tab = second_moments(FockPair(2, 1), solve_analytic(params, t))
        assert tab.mean_a - tab.mean_b == pytest.approx(1.0, abs=1e-10)


def test_variances_non_negative():
    params = params_for(1.5)
    tab = second_moments(CoherentPair(1.2, -0.7), solve_analytic(params, 1.3))
    assert tab.var_na >= 0
    assert tab.var_nb >= 0
