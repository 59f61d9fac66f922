import math

import numpy as np
import pytest

from ndpa.amplitudes import (CoherentPair, FockOutcome, FockPair,
                             PureAModeState, amode_norm, amode_prob,
                             coherent_mean_numbers, coherent_revival_prob,
                             coherent_transition_prob, effective_temperature,
                             fock11_norm, fock11_prob, fock_amplitude,
                             reduced_density_a, reduced_density_b,
                             vacuum_norm, vacuum_prob)
from ndpa.model import ModelParams
from ndpa.weinorman import derived_scalars, solve_analytic


def params_for(k2, g=1.0):
    return ModelParams.from_k2(k2, g=g, omega_a=3.0, omega_b=2.0)


def test_fock_amplitude_charge_conservation():
    c = solve_analytic(params_for(1.5), 1.2)
    assert fock_amplitude(c, FockPair(2, 0), FockOutcome(1, 2)) == 0j
    # m = s - r + n holds for (r,s)=(2,0), n=3 -> m=1
    amp = fock_amplitude(c, FockPair(2, 0), FockOutcome(1, 3))
    assert amp != 0j


def test_fock_amplitude_t0_identity():
    c = solve_analytic(params_for(1.5), 0.0)
    assert fock_amplitude(c, FockPair(2, 1), FockOutcome(1, 2)) == pytest.approx(1.0)
    assert abs(fock_amplitude(c, FockPair(2, 1), FockOutcome(2, 3))) < 1e-15


def test_vacuum_prob_matches_amplitude():
    c = solve_analytic(params_for(0.5), 1.7)
    d = derived_scalars(params_for(0.5), 1.7)
    for n in range(5):
        amp = fock_amplitude(c, FockPair(0, 0), FockOutcome(n, n))
        assert vacuum_prob(d, n) == pytest.approx(abs(amp) ** 2, rel=1e-10)


def test_fock11_prob_matches_amplitude():
    for k2, t in [(0.5, 1.3), (1.0, 2.0), (1.5, 0.8)]:
        c = solve_analytic(params_for(k2), t)
        d = derived_scalars(params_for(k2), t)
        for n in range(5):
            amp = fock_amplitude(c, FockPair(1, 1), FockOutcome(n, n))
            assert fock11_prob(d, n) == pytest.approx(abs(amp) ** 2,
                                                      rel=1e-9, abs=1e-13)


def test_fock11_prob_initial_value():
    d = derived_scalars(params_for(1.5), 0.0)
    assert fock11_prob(d, 1) == pytest.approx(1.0)
    assert fock11_prob(d, 0) == 0.0
    assert fock11_prob(d, 3) == 0.0


def test_fock11_revival():
    t_rev = math.pi * math.sqrt(2.0)
    for t in (t_rev, 2.0 * t_rev):
        d = derived_scalars(params_for(1.5), t)
        assert fock11_prob(d, 1) == pytest.approx(1.0, abs=1e-8)
        assert fock11_prob(d, 3) == pytest.approx(0.0, abs=1e-8)


def test_fock11_decay_below_threshold():
    d = derived_scalars(params_for(0.5), 8.0)
    assert fock11_prob(d, 1) <= 1e-3


def test_amode_prob_phase_independent():
    psi = PureAModeState.poisson(0.85)
    rng = np.random.default_rng(5)
    shifted = PureAModeState(probs=psi.probs,
                             phases=tuple(rng.uniform(0, 2 * np.pi,
                                                      len(psi.phases))))
    d = derived_scalars(params_for(1.5), 1.1)
    for m, n in [(0, 0), (1, 2), (2, 5)]:
        assert amode_prob(d, psi, FockOutcome(m, n)) == \
            amode_prob(d, shifted, FockOutcome(m, n))


def test_amode_prob_vacuum_reduction():
    psi = PureAModeState(probs=(1.0,), phases=(0.0,))
    d = derived_scalars(params_for(0.5), 1.4)
    for n in range(4):
        assert amode_prob(d, psi, FockOutcome(n, n)) == \
            pytest.approx(vacuum_prob(d, n), rel=1e-12)
    assert amode_prob(d, psi, FockOutcome(1, 0)) == 0.0


def test_poisson_peak_value():
    # max over gt of p_12 for the Poisson a-mode state equals
    # 8|alpha|^2 exp(-|alpha|^2)/27 (attained where y = 2/3)
    alpha = 0.85
    psi = PureAModeState.poisson(alpha)
    params = params_for(1.5)
    ts = np.linspace(1e-3, 20.0, 8000)
    best = max(amode_prob(derived_scalars(params, t), psi, FockOutcome(1, 2))
               for t in ts)
    expected = 8.0 * alpha ** 2 * math.exp(-alpha ** 2) / 27.0
    assert best == pytest.approx(expected, abs=1e-4)
    assert expected == pytest.approx(0.104, abs=5e-4)


def test_reduced_densities_are_marginals():
    psi = PureAModeState.poisson(0.85)
    d = derived_scalars(params_for(1.5), 1.3)
    for m in range(4):
        direct = sum(amode_prob(d, psi, FockOutcome(m, n))
                     for n in range(m, m + len(psi.probs)))
        assert reduced_density_b(d, psi, m) == pytest.approx(direct, rel=1e-10)
    for n in range(4):
        direct = sum(amode_prob(d, psi, FockOutcome(m, n))
                     for m in range(0, n + 1))
        assert reduced_density_a(d, psi, n) == pytest.approx(direct, rel=1e-10)


def test_thermal_ratio_below_threshold():
    # for large gt below threshold the vacuum marginal becomes thermal
    params = params_for(0.5)
    t = 20.0 / math.sqrt(0.5)
    d = derived_scalars(params, t)
    p1 = math.exp(1 * d.log_y - d.log_x)
    p2 = math.exp(2 * d.log_y - d.log_x)
    assert p2 / p1 == pytest.approx(d.y, rel=1e-6)
    # temperature checked at a moderate time where y is still below 1
    d = derived_scalars(params, 10.0 / math.sqrt(0.5))
    temp = effective_temperature(d.y, params.omega_a)
    assert temp > 0
    assert math.exp(-params.omega_a / temp) == pytest.approx(d.y, rel=1e-12)


def test_effective_temperature_validation():
    assert effective_temperature(0.0, 1.0) == 0.0
    with pytest.raises(ValueError):
        effective_temperature(1.5, 1.0)


def test_coherent_transition_consistency():
    # the revival form is the transition probability back to the start
    pair = CoherentPair(0.9, -0.4 + 0.3j)
    for k2, t in [(0.5, 1.0), (1.8, 3.0)]:
        c = solve_analytic(params_for(k2), t)
        direct = coherent_transition_prob(c, pair, pair)
        prob, _ = coherent_revival_prob(c, pair)
        assert prob == pytest.approx(direct, rel=1e-12)


def test_coherent_full_revival():
    params = params_for(9.0 / 5.0)
    c = solve_analytic(params, math.pi * math.sqrt(20.0))
    prob, gap = coherent_revival_prob(c, CoherentPair(1.0, 1.0))
    assert prob == pytest.approx(1.0, abs=1e-8)
    assert gap < 1e-8


def test_coherent_irrational_detuning_never_revives():
    params = ModelParams(omega_a=3.0, omega_b=2.0, g=1.0,
                         omega=5.0 + 2.0 * math.sqrt(math.pi))
    pair = CoherentPair(5.0, 5.0)
    # skip the trivial neighborhood of t=0 where the state has not moved yet
    ts = np.linspace(0.5, 50.0, 19801)
    probs = np.array([coherent_revival_prob(solve_analytic(params, t), pair)[0]
                      for t in ts])
    # the quasi-revival peak near gt = 40.8 tops out at 0.9281 < 1
    assert probs.max() < 0.93


def test_coherent_mean_numbers_difference_conserved():
    pair = CoherentPair(1.1, 0.4j)
    diff0 = abs(pair.alpha) ** 2 - abs(pair.beta) ** 2
    for t in (0.5, 1.5, 3.0):
        c = solve_analytic(params_for(1.5), t)
        d = derived_scalars(params_for(1.5), t)
        mean_a, mean_b = coherent_mean_numbers(c, d, pair)
        assert mean_a - mean_b == pytest.approx(diff0, abs=1e-10)


@pytest.mark.parametrize("k2", [0.5, 1.0, 1.5])
@pytest.mark.parametrize("gt", [0.0, 1.0, 3.0, 6.0])
def test_normalization_certified(k2, gt):
    d = derived_scalars(params_for(k2), gt)
    assert vacuum_norm(d) == pytest.approx(1.0, abs=1e-8)
    assert fock11_norm(d) == pytest.approx(1.0, abs=1e-8)
    psi = PureAModeState.poisson(0.85)
    assert amode_norm(d, psi) == pytest.approx(1.0, abs=1e-8)


def test_normalization_deep_sub_log_domain():
    params = params_for(0.5)
    t = 30.0 / math.sqrt(0.5)
    d = derived_scalars(params, t)
    assert vacuum_norm(d) == pytest.approx(1.0, abs=1e-8)
    assert fock11_norm(d) == pytest.approx(1.0, abs=1e-8)


def test_pure_amode_state_validation():
    with pytest.raises(ValueError):
        PureAModeState(probs=(0.5, 0.4), phases=(0.0, 0.0))
    with pytest.raises(ValueError):
        PureAModeState(probs=(1.0,), phases=(0.0, 0.0))
