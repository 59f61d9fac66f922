import cmath
import math

import numpy as np
import pytest

from ndpa import oracle
from ndpa.amplitudes import (CoherentPair, FockOutcome, FockPair,
                             PureAModeState, amode_prob, coherent_revival_prob,
                             coherent_transition_prob, fock11_prob,
                             fock_amplitude, reduced_density_a,
                             reduced_density_b, vacuum_prob)
from ndpa.model import CustomPump, HarmonicPump, ModelParams, TabulatedPump
from ndpa.oracle import (OracleConfig, TruncationError, _pair_amplitudes,
                         amode_state, coherent_state, edge_mass,
                         evolve_converged, evolve_truncated, fock_state,
                         oracle_moment, oracle_probability)
from ndpa.weinorman import derived_scalars, solve_analytic


def params_for(k2):
    return ModelParams.from_k2(k2, g=1.0, omega_a=3.0, omega_b=2.0)


def pump_for(params):
    return HarmonicPump.from_params(params)


def test_generator_matrix_elements():
    amp = _pair_amplitudes(2, 0)  # <j+1| K+ |j> = <j| K- |j+1>
    assert amp.shape == (2,)
    assert amp[0] == pytest.approx(1.0)
    assert amp[1] == pytest.approx(2.0)
    amp = _pair_amplitudes(3, 1)
    assert amp.shape == (2,)  # block q = 1 has dimension 3
    assert amp[0] == pytest.approx(math.sqrt(2.0 * 1.0))
    assert _pair_amplitudes(3, -1)[0] == pytest.approx(math.sqrt(1.0 * 2.0))
    with pytest.raises(ValueError):
        _pair_amplitudes(3, 4)


def test_commutator_on_interior():
    cutoff, q = 8, 0
    k_plus = np.diag(_pair_amplitudes(cutoff, q), -1)
    k_minus = k_plus.T
    comm = k_plus @ k_minus - k_minus @ k_plus
    j = np.arange(cutoff)  # interior of the block
    na, nb = j + max(q, 0), j + max(-q, 0)
    two_k0 = na + nb + 1.0
    # [K+, K-] = -2 K0 holds on the interior; only the edge row deviates
    assert np.allclose(np.diag(comm)[:-1], -two_k0)
    assert comm[cutoff, cutoff] > 0  # edge row has the opposite sign


def test_zero_pump_identity():
    params = params_for(1.5)
    init = fock_state(16, 1, 1)
    out = evolve_truncated(CustomPump(fn=lambda t: 0.0), params, init, 2.0)
    assert abs(out.amplitude(1, 1)) == pytest.approx(1.0)


def test_block_charge_conserved():
    params = params_for(0.5)
    out = evolve_truncated(pump_for(params), params, fock_state(24, 2, 0), 1.0)
    assert set(out.blocks) == {2}
    dense = out.dense()
    na, nb = np.nonzero(np.abs(dense) > 1e-14)
    assert np.all(na - nb == 2)


def test_norm_conserved_and_edge_mass():
    params = params_for(1.5)
    out = evolve_truncated(pump_for(params), params, fock_state(32, 1, 1), 2.0)
    assert out.total_norm() == pytest.approx(1.0, abs=1e-9)
    # the diagnostic shrinks geometrically as the cutoff grows
    big = evolve_truncated(pump_for(params), params, fock_state(64, 1, 1), 2.0)
    assert edge_mass(big) < 1e-4 * edge_mass(out)


def test_vacuum_revival_overlap():
    params = params_for(1.5)
    out = evolve_truncated(pump_for(params), params, fock_state(60, 0, 0),
                           math.pi * math.sqrt(2.0),
                           OracleConfig(cutoff=60, tol=1e-12))
    assert oracle_probability(out, 0, 0) == pytest.approx(1.0, abs=1e-8)


def test_coherent_revival_probability():
    params = params_for(9.0 / 5.0)
    pair = CoherentPair(1.0, 1.0)
    t_rev = math.pi * math.sqrt(20.0)
    cutoff = 56
    out = evolve_truncated(pump_for(params), params,
                           coherent_state(cutoff, pair.alpha, pair.beta),
                           t_rev, OracleConfig(cutoff=cutoff, tol=1e-12))
    amp = coherent_state(cutoff, pair.alpha, pair.beta).overlap(out)
    assert abs(amp) ** 2 == pytest.approx(1.0, abs=1e-6)


def _count_solve_ivp(monkeypatch):
    """Record the span of every ``solve_ivp`` call the oracle makes."""
    calls, solve_ivp = [], oracle.solve_ivp

    def counted(fun, t_span, y0, **kwargs):
        calls.append(t_span)
        return solve_ivp(fun, t_span, y0, **kwargs)

    monkeypatch.setattr(oracle, "solve_ivp", counted)
    return calls


def test_harmonic_path_matches_batched_ode(monkeypatch):
    # the exact harmonic propagator against the ODE path for the same pump
    params = params_for(1.5)
    calls = _count_solve_ivp(monkeypatch)
    start = coherent_state(32, 0.8, 0.5 + 0.3j)
    cfg = OracleConfig(cutoff=32, tol=1e-12)
    for pump in (pump_for(params),
                 HarmonicPump(g=0.8 * cmath.exp(0.6j), omega=params.omega + 0.7)):
        exact = evolve_truncated(pump, params, start, 1.3, cfg)
        assert calls == []
        ode = evolve_truncated(CustomPump(fn=pump.value), params, start, 1.3, cfg)
        assert calls.pop() == (0.0, 1.3) and calls == []
        assert set(ode.blocks) == set(exact.blocks)
        for q, vec in exact.blocks.items():
            assert np.max(np.abs(vec - ode.blocks[q])) < 1e-10, (pump, q)


def test_tabulated_pump_tolerance_refinement(monkeypatch):
    # integrating between the samples avoids stepping across the kinks of
    # the linear interpolation, so tightening the tolerance changes nothing
    params = params_for(1.5)
    samples = np.linspace(0.0, 0.5, 101)
    values = pump_for(params).value(samples) * (1.0 + 0.1 * np.sin(2 * math.pi * samples / 0.5))
    tab = TabulatedPump(times=tuple(samples), values=tuple(values))
    calls = _count_solve_ivp(monkeypatch)
    coarse, fine = (evolve_truncated(tab, params, fock_state(24, 2, 1), 0.5,
                                     OracleConfig(cutoff=24, tol=tol))
                    for tol in (1e-11, 1e-13))
    assert len(calls) == 2 * 100  # one call per sample interval
    assert np.max(np.abs(coarse.blocks[1] - fine.blocks[1])) < 1e-10


def test_overlap_sums_shared_blocks():
    coh = coherent_state(12, 0.7, 0.4j)
    assert coh.overlap(coh) == pytest.approx(coh.total_norm())
    dense = np.vdot(coh.dense(), fock_state(12, 2, 1).dense())
    assert coh.overlap(fock_state(12, 2, 1)) == pytest.approx(dense)
    assert fock_state(12, 2, 1).overlap(fock_state(12, 1, 1)) == 0j


def test_matches_vacuum_closed_form():
    params = params_for(0.5)
    t = 1.5
    out = evolve_truncated(pump_for(params), params, fock_state(48, 0, 0), t,
                           OracleConfig(cutoff=48, tol=1e-12))
    d = derived_scalars(params, t)
    for n in range(6):
        assert oracle_probability(out, n, n) == pytest.approx(
            vacuum_prob(d, n), abs=1e-10)


def test_matches_fock_amplitudes():
    params = params_for(1.5)
    t = 1.2
    c = solve_analytic(params, t)
    out = evolve_truncated(pump_for(params), params, fock_state(40, 2, 1), t,
                           OracleConfig(cutoff=40, tol=1e-12))
    for n in range(5):
        m = 1 - 2 + n
        if m < 0:
            continue
        amp = fock_amplitude(c, FockPair(2, 1), FockOutcome(m, n))
        assert out.amplitude(n, m) == pytest.approx(amp, abs=1e-10)


def test_matches_amode_closed_form():
    params = params_for(1.0)
    t = 1.3
    psi = PureAModeState.poisson(0.85)
    out = evolve_truncated(pump_for(params), params,
                           amode_state(64, psi.probs, psi.phases), t,
                           OracleConfig(cutoff=64, tol=1e-12))
    d = derived_scalars(params, t)
    for m, n in [(0, 0), (1, 2), (0, 3), (2, 2)]:
        assert oracle_probability(out, m, n) == pytest.approx(
            amode_prob(d, psi, FockOutcome(m, n)), abs=1e-9)


# (k^2, gt) where cutoff 96 is converged: the vacuum y^96 is below 4e-12
CONVERGED_AT_96 = [(0.5, 1.5), (1.0, 1.5), (1.8, 3.0)]


def _at_doubled_cutoffs(params, make_initial, t, probe):
    """probe of the evolved state at cutoff 96, checked against cutoff 192."""
    values = [probe(evolve_truncated(pump_for(params), params, make_initial(cutoff),
                                     t, OracleConfig(cutoff=cutoff)))
              for cutoff in (96, 192)]
    assert np.max(np.abs(values[0] - values[1])) < 1e-13
    return values[0]


@pytest.mark.parametrize("k2,t", CONVERGED_AT_96)
def test_reduced_densities_match_oracle_marginals(k2, t):
    params = params_for(k2)
    psi = PureAModeState.poisson(0.85)

    def marginals(state):
        p = np.abs(state.dense()) ** 2
        return np.concatenate([p.sum(axis=1)[:8], p.sum(axis=0)[:8]])

    oracle_values = _at_doubled_cutoffs(
        params, lambda cutoff: amode_state(cutoff, psi.probs, psi.phases), t,
        marginals)
    d = derived_scalars(params, t)
    closed = [reduced_density_a(d, psi, n) for n in range(8)] \
        + [reduced_density_b(d, psi, m) for m in range(8)]
    assert np.max(np.abs(np.array(closed) - oracle_values)) < 1e-12


@pytest.mark.parametrize("k2,t", CONVERGED_AT_96)
def test_coherent_transition_matches_oracle_overlap(k2, t):
    params = params_for(k2)
    initial = CoherentPair(0.8, 0.5 + 0.3j)
    final = CoherentPair(0.6 - 0.2j, 0.9 + 0.4j)

    def overlap(state):
        bra = coherent_state(state.cutoff, final.alpha, final.beta)
        return abs(bra.overlap(state)) ** 2

    oracle_value = _at_doubled_cutoffs(
        params, lambda cutoff: coherent_state(cutoff, initial.alpha, initial.beta),
        t, overlap)
    closed = coherent_transition_prob(solve_analytic(params, t), initial, final)
    assert oracle_value > 0.05
    assert closed == pytest.approx(oracle_value, abs=1e-12)


def test_oracle_moment_normal_ordering():
    params = params_for(1.5)
    out = evolve_truncated(pump_for(params), params, fock_state(32, 1, 1), 0.0)
    assert oracle_moment(out, 1, 1, 0, 0) == pytest.approx(1.0)
    assert oracle_moment(out, 2, 2, 0, 0) == pytest.approx(0.0)
    assert oracle_moment(out, 1, 1, 1, 1) == pytest.approx(1.0)


def test_doubling_convergence():
    params = params_for(0.5)
    pump = pump_for(params)
    t = 2.0

    value, state, cutoff = evolve_converged(
        pump, params, lambda c: fock_state(c, 1, 1), t,
        lambda s: oracle_probability(s, 1, 1),
        OracleConfig(cutoff=16, tol=1e-11))
    d = derived_scalars(params, t)
    assert value == pytest.approx(fock11_prob(d, 1), abs=1e-9)
    assert cutoff >= 32


def test_truncation_error_for_unnormalized_input():
    params = params_for(0.5)
    init = fock_state(16, 1, 1)
    init.blocks[0] *= 0.5
    init.norm_deficit = 0.75
    with pytest.raises(TruncationError):
        evolve_truncated(pump_for(params), params, init, 1.0)


def test_fock_state_rejects_negative_occupation():
    with pytest.raises(ValueError, match=r"\(-1, 0\)"):
        fock_state(10, -1, 0)


def test_amplitude_rejects_negative_occupation():
    state = fock_state(10, 1, 1)
    with pytest.raises(ValueError, match=r"\(-1, 1\)"):
        state.amplitude(-1, 1)
    with pytest.raises(ValueError, match=r"\(1, -1\)"):
        oracle_probability(state, -1, 1)  # outcome m = -1 in mode b


def test_evolve_rejects_non_finite_time():
    params = params_for(1.5)
    with pytest.raises(ValueError, match="got nan"):
        evolve_truncated(pump_for(params), params, fock_state(16, 1, 1), math.nan)


def test_config_validation():
    with pytest.raises(ValueError):
        OracleConfig(cutoff=2)
    with pytest.raises(ValueError):
        OracleConfig(tol=0.0)


def test_coherent_state_construction():
    st = coherent_state(32, 1.0, 0.5)
    assert st.total_norm() == pytest.approx(1.0, abs=1e-12)
    assert abs(st.amplitude(0, 0)) ** 2 == pytest.approx(
        math.exp(-1.0) * math.exp(-0.25))


def test_irrational_detuning_peak_oracle_value():
    # quasi-revival peak height for an irrational squared detuning; the
    # closed form puts it at 0.92814 (gt near 40.79), strictly below 1
    params = ModelParams(omega_a=3.0, omega_b=2.0, g=1.0,
                         omega=5.0 + 2.0 * math.sqrt(math.pi))
    prob, _ = coherent_revival_prob(solve_analytic(params, 40.79),
                                    CoherentPair(5.0, 5.0))
    assert prob == pytest.approx(0.9281, abs=2e-4)
