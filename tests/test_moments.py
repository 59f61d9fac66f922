import itertools
import math

import numpy as np
import pytest

from ndpa.amplitudes import CoherentPair, FockPair, PureAModeState
from ndpa.model import HarmonicPump
from ndpa.moments import second_moments
from ndpa.oracle import OracleConfig, coherent_state, evolve_truncated, \
    fock_state, oracle_moment
from ndpa.weinorman import bogoliubov_pair, solve_analytic

from helpers import params_for


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
    for mean, pattern in ((tab.mean_a, (2, 2, 0, 0)), (tab.mean_b, (0, 0, 2, 2))):
        assert tab.expect(*pattern).real + mean - mean * mean >= 0  # <c+^2 c^2> + <n> - <n>^2


# -- exact ladder reference -----------------------------------------------------


def _lower(x, axis):
    """c |n> = sqrt(n) |n-1> along one mode axis of x[..., n_a, n_b]."""
    out = np.zeros_like(x)
    src, dst = np.moveaxis(x, axis, -1), np.moveaxis(out, axis, -1)
    dst[..., :-1] = src[..., 1:] * np.sqrt(np.arange(1, src.shape[-1]))
    return out


def _raise(x, axis):
    """c+ |n> = sqrt(n+1) |n+1>, dropping what leaves the cutoff."""
    out = np.zeros_like(x)
    src, dst = np.moveaxis(x, axis, -1), np.moveaxis(out, axis, -1)
    dst[..., 1:] = src[..., :-1] * np.sqrt(np.arange(1, src.shape[-1]))
    return out


def ladder_moment(psi, u, v, p, q, r, s):
    """<psi| a+(t)^p a(t)^q b+(t)^r b(t)^s |psi> by shift-and-sqrt steps.

    psi[n_a, n_b] holds the initial amplitudes; u and v are grid arrays.
    a(t) = u a + v b+ and b(t) = u b + v a+ act from the right.
    """
    u, v = u[:, None, None], v[:, None, None]
    ub, vb = np.conj(u), np.conj(v)
    a, b = -2, -1
    phi = np.broadcast_to(psi, u.shape[:1] + psi.shape).astype(complex)
    for _ in range(s):
        phi = u * _lower(phi, b) + v * _raise(phi, a)
    for _ in range(r):
        phi = ub * _raise(phi, b) + vb * _lower(phi, a)
    for _ in range(q):
        phi = u * _lower(phi, a) + v * _raise(phi, b)
    for _ in range(p):
        phi = ub * _raise(phi, a) + vb * _lower(phi, b)
    return np.sum(np.conj(psi) * phi, axis=(-2, -1))


def _coherent_amplitudes(alpha, dim):
    n = np.arange(dim)
    log_norm = np.array([0.5 * math.lgamma(k + 1.0) for k in n])
    return np.exp(-0.5 * abs(alpha) ** 2 - log_norm) * complex(alpha) ** n


def initial_amplitudes(state, degree):
    """psi[n_a, n_b]; exact for a Fock pair, truncated at 40 for a coherent one."""
    if isinstance(state, FockPair):
        dim = max(state.r, state.s) + degree + 1
        psi = np.zeros((dim, dim))
        psi[state.r, state.s] = 1.0
        return psi
    return np.outer(_coherent_amplitudes(state.alpha, 40),
                    _coherent_amplitudes(state.beta, 40))


STATES = [FockPair(0, 0), FockPair(3, 1), FockPair(2, 5),
          CoherentPair(0.6 + 0.2j, 0.3 - 0.5j), CoherentPair(-1.2j, 0.9 + 0.4j)]


def assert_matches_ladder(state, k2, patterns, degree):
    c = solve_analytic(params_for(k2), np.linspace(0.0, 2.0, 7))
    u, v = bogoliubov_pair(c)
    tab = second_moments(state, c)
    psi = initial_amplitudes(state, degree)
    for pattern in patterns:
        ref = ladder_moment(psi, u, v, *pattern)
        got = tab.expect(*pattern)
        assert np.all(np.abs(got - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref))), pattern


@pytest.mark.parametrize("k2", [0.5, 1.0, 1.5])
@pytest.mark.parametrize("state", STATES, ids=repr)
def test_every_pattern_to_degree_four_matches_ladder(state, k2):
    assert_matches_ladder(state, k2, all_patterns(), 4)


@pytest.mark.parametrize("state", STATES, ids=repr)
def test_degree_six_pattern_matches_ladder(state):
    assert_matches_ladder(state, 1.5, [(2, 1, 2, 1)], 6)


def test_negative_power_names_the_pattern():
    tab = second_moments(FockPair(1, 0), solve_analytic(params_for(1.5), 0.3))
    with pytest.raises(ValueError, match=r"\(-1, 0, 0, 0\)"):
        tab.expect(-1, 0, 0, 0)


def test_other_initial_states_are_refused_by_type():
    psi = PureAModeState.poisson(0.5)
    with pytest.raises(TypeError, match="PureAModeState"):
        second_moments(psi, solve_analytic(params_for(1.5), 0.3))
