import cmath
import itertools
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import ndpa
from ndpa import oracle
from ndpa.amplitudes import (CoherentPair, FockOutcome, FockPair,
                             PureAModeState, amode_prob, coherent_revival_prob,
                             coherent_transition_prob, fock11_norm, fock11_prob,
                             fock_amplitude, reduced_density_a,
                             reduced_density_b, vacuum_norm, vacuum_prob)
from ndpa.model import CustomPump, HarmonicPump, ModelParams, TabulatedPump
from ndpa.oracle import (IntegrationError, OracleConfig, TruncationError, _pair_amplitudes,
                         amode_state, coherent_state, edge_mass,
                         evolve_converged, evolve_truncated, fock_state,
                         oracle_moment, oracle_probability)
from ndpa.observables import quadrature_variance, squeezing_kernel
from ndpa.weinorman import solve_analytic, solve_ode, unitarity_residuals

from helpers import params_for


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
    out = evolve_truncated(CustomPump(fn=lambda t: 0.0), params, init, 2.0,
                           OracleConfig(cutoff=16))
    assert abs(out.amplitude(1, 1)) == pytest.approx(1.0)


def test_block_charge_conserved():
    params = params_for(0.5)
    out = evolve_truncated(pump_for(params), params, fock_state(24, 2, 0), 1.0,
                           OracleConfig(cutoff=24))
    assert set(out.blocks) == {2}
    dense = out.dense()
    na, nb = np.nonzero(np.abs(dense) > 1e-14)
    assert np.all(na - nb == 2)


def test_norm_conserved_and_edge_mass():
    params = params_for(1.5)
    out = evolve_truncated(pump_for(params), params, fock_state(32, 1, 1), 2.0)
    assert out.total_norm() == pytest.approx(1.0, abs=1e-9)
    # the diagnostic shrinks geometrically as the cutoff grows
    big = evolve_truncated(pump_for(params), params, fock_state(64, 1, 1), 2.0,
                           OracleConfig(cutoff=64))
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


def _count_stretches(monkeypatch):
    """Record the span of every stretch the oracle's stepper takes, and the RHS calls
    of each stretch that reaches its end, its interpolants' included."""
    spans, finished, stepper = [], [], oracle._dop853

    def counted(fun, t0, y, t1, *args):
        spans.append((t0, t1))
        calls = []
        result = stepper(lambda t, y: calls.append(t) or fun(t, y), t0, y, t1, *args)
        finished.append(len(calls))
        return result

    monkeypatch.setattr(oracle, "_dop853", counted)
    return spans, finished


def test_harmonic_path_matches_batched_ode(monkeypatch):
    # the exact harmonic propagator against the ODE path for the same pump,
    # forward and backward in time
    params = params_for(1.5)
    calls, _ = _count_stretches(monkeypatch)
    start = coherent_state(32, 0.8, 0.5 + 0.3j)
    cfg = OracleConfig(cutoff=32, tol=1e-12)
    for pump in (pump_for(params),
                 HarmonicPump(g=0.8 * cmath.exp(0.6j), omega=params.omega + 0.7)):
        for t in (1.3, -1.3):
            exact = evolve_truncated(pump, params, start, t, cfg)
            assert calls == []
            ode = evolve_truncated(CustomPump(fn=pump.value), params, start, t, cfg)
            assert calls.pop() == (0.0, t) and calls == []
            assert set(ode.blocks) == set(exact.blocks)
            for q, vec in exact.blocks.items():
                assert np.max(np.abs(vec - ode.blocks[q])) < 1e-10, (pump, t, q)


def test_tabulated_constant_pump_matches_harmonic_path():
    # 11 equal samples g = 1 are HarmonicPump(1, 0); the stretch loop against
    # the exact propagator, to the bound of the batched-ODE comparison above
    params = ModelParams(omega_a=0.4, omega_b=0.4, g=1.0, omega=0.0)
    tab = TabulatedPump(times=tuple(np.linspace(0.0, 5.0, 11)), values=(1.0,) * 11)
    start = coherent_state(32, 0.8, 0.5 + 0.3j)
    cfg = OracleConfig(cutoff=32, tol=1e-12)
    for t in (1.3, 5.0):
        exact = evolve_truncated(HarmonicPump(g=1.0, omega=0.0), params, start, t, cfg)
        ode = evolve_truncated(tab, params, start, t, cfg)
        assert set(ode.blocks) == set(exact.blocks)
        for q, vec in exact.blocks.items():
            assert np.max(np.abs(vec - ode.blocks[q])) < 1e-10, (t, q)


def test_failed_solve_raises_integration_error_naming_the_stretch(monkeypatch):
    # one error for both users of the stretch loop, naming the stretch and the
    # reason; a nan error estimate refuses every step down to the minimum step
    monkeypatch.setattr(oracle, "_E", oracle._E * [[np.nan], [1.0]])  # a nan 5th-order row
    params = params_for(1.5)
    pump = CustomPump(fn=pump_for(params).value)
    stretch = r"integrator failed on \[0, 1\.5\]: Required step size"
    with pytest.raises(IntegrationError, match=stretch):
        evolve_truncated(pump, params, fock_state(12, 1, 0), 1.5, OracleConfig(cutoff=12))
    with pytest.raises(IntegrationError, match=stretch):
        solve_ode(pump, params, [0.0, 0.5, 1.5])
    assert ndpa.IntegrationError is IntegrationError


def test_non_finite_custom_pump_fails_at_once(monkeypatch):
    # the pump's own error names the time, before any step shrinking
    params = params_for(1.5)
    calls, finished = _count_stretches(monkeypatch)
    pump = CustomPump(fn=lambda t: math.nan if t > 0.3 else 1.0)
    with pytest.raises(ValueError, match=r"pump value at t = \S+ is \(nan\+0j\)"):
        evolve_truncated(pump, params, fock_state(12, 1, 0), 1.0, OracleConfig(cutoff=12))
    with pytest.raises(ValueError, match=r"pump value at t = \S+ is \(nan\+0j\)"):
        solve_ode(pump, params, [0.0, 0.5, 1.0])
    assert len(calls) == 2 and finished == []  # neither solve reached its bound


def test_rtol_below_the_floor_is_raised_to_it(monkeypatch):
    # as scipy's DOP853 does, an rtol below 100 eps (2.22e-14) becomes 100 eps with
    # a UserWarning, for both users of the stretch loop; atol is left as asked, and
    # rtol = 3e-14 passes unchanged and silent (the suite turns warnings into errors)
    seen, stepper = [], oracle._dop853

    def recording(fun, t0, y, t1, times, rtol, atol):
        seen.append((rtol, atol))
        return stepper(fun, t0, y, t1, times, rtol, atol)

    monkeypatch.setattr(oracle, "_dop853", recording)
    params = params_for(1.5)
    pump = CustomPump(fn=pump_for(params).value)
    floor = r"`rtol` is too small\. Setting `rtol = np\.maximum\(rtol, 2\.220446049250313e-14\)`"
    for tol in (1e-15, 2e-14):
        with pytest.warns(UserWarning, match=floor):
            evolve_truncated(pump, params, fock_state(12, 1, 0), 1.0,
                             OracleConfig(cutoff=12, tol=tol))
    with pytest.warns(UserWarning, match=floor):
        solve_ode(pump, params, [0.0, 0.5, 1.0], tol=1e-13)  # rtol 1e-15
    evolve_truncated(pump, params, fock_state(12, 1, 0), 1.0, OracleConfig(cutoff=12, tol=3e-14))
    floor = 100 * np.finfo(float).eps
    assert seen == [(floor, 1e-15 * 1e-2), (floor, 2e-14 * 1e-2), (floor, 1e-5 * 1e-13),
                    (3e-14, 3e-14 * 1e-2)]


def test_tableau_is_scipys_dop853():
    # the module's tableau, entry for entry, as scipy's DOP853 class carries it
    from scipy.integrate import DOP853
    assert np.array_equal(oracle._A, np.vstack(
        (np.pad(DOP853.A, ((0, 0), (0, 4))), np.pad(DOP853.B, (0, 4)), DOP853.A_EXTRA)))
    assert oracle._A.dtype == complex and not oracle._A.imag.any()
    assert np.array_equal(oracle._C, np.hstack((DOP853.C, 1.0, DOP853.C_EXTRA)))
    assert np.array_equal(oracle._E, [DOP853.E5, DOP853.E3])
    assert np.array_equal(oracle._D, DOP853.D)


@pytest.mark.parametrize("n_grid", [2, 11, 401, 403])
def test_each_stretch_gets_only_its_own_output_times(monkeypatch, n_grid):
    # the grid is split among the stretches once: each is handed the times in
    # (t0, t1], so together they receive every time after the start exactly once
    params, received = params_for(1.5), []
    samples = np.linspace(0.0, 10.0, 401)
    tab = TabulatedPump(times=tuple(samples), values=tuple(pump_for(params).value(samples)))
    stepper = oracle._dop853

    def recording(fun, t0, y, t1, times, *args):
        assert all(t0 < s <= t1 for s in times), (t0, t1, times)
        received.extend(times)
        return stepper(fun, t0, y, t1, times, *args)

    monkeypatch.setattr(oracle, "_dop853", recording)
    grid = np.linspace(0.0, 10.0, n_grid)
    assert solve_ode(tab, params, grid).t.size == n_grid
    assert received == grid[1:].tolist()


def test_tabulated_pump_tolerance_refinement(monkeypatch):
    # integrating between the samples avoids stepping across the kinks of
    # the linear interpolation, so tightening the tolerance changes nothing
    params = params_for(1.5)
    samples = np.linspace(0.0, 0.5, 101)
    values = pump_for(params).value(samples) * (1.0 + 0.1 * np.sin(2 * math.pi * samples / 0.5))
    tab = TabulatedPump(times=tuple(samples), values=tuple(values))
    calls, _ = _count_stretches(monkeypatch)
    coarse, fine = (evolve_truncated(tab, params, fock_state(24, 2, 1), 0.5,
                                     OracleConfig(cutoff=24, tol=tol))
                    for tol in (1e-11, 1e-13))
    assert len(calls) == 2 * 100  # one stretch per sample interval
    assert np.max(np.abs(coarse.blocks[1] - fine.blocks[1])) < 1e-10


def _modulated_pump(params, t_end=0.5, n=101, depth=0.1):
    """A harmonic pump times 1 + depth sin(2 pi t / t_end), sampled n times."""
    samples = np.linspace(0.0, t_end, n)
    values = pump_for(params).value(samples) * (1.0 + depth * np.sin(2 * math.pi * samples / t_end))
    return TabulatedPump(times=tuple(samples), values=tuple(values))


def _interpolating_reference(pump, params, initial, t, tol):
    """The same stretches as the oracle, with np.interp at every RHS call."""
    blocks, cutoff = initial.blocks, initial.cutoff
    amp = np.zeros((len(blocks), cutoff))
    y = np.zeros((len(blocks), cutoff + 1), dtype=complex)
    for row, (q, vec) in enumerate(blocks.items()):
        amp[row, :vec.size - 1] = _pair_amplitudes(cutoff, q)
        y[row, :vec.size] = vec
    wsum = params.omega_a + params.omega_b

    def rhs(time, flat):
        y = flat.reshape(amp.shape[0], cutoff + 1)
        gt = pump.value(time) * np.exp(-1j * wsum * time)
        dy = np.zeros_like(y)
        dy[:, :-1] = gt * amp * y[:, 1:]
        dy[:, 1:] -= np.conj(gt) * amp * y[:, :-1]
        return dy.ravel()

    kinks = np.asarray(pump.times)
    knots = [0.0, *kinks[(kinks > 0.0) & (kinks < t)], t]
    flat = y.ravel()
    for t0, t1 in zip(knots, knots[1:]):
        flat = oracle.solve_ivp(rhs, (t0, t1), flat, method="DOP853", t_eval=(t1,),
                                rtol=tol, atol=tol * 1e-2).y[:, -1]
    y = flat.reshape(y.shape)
    return {q: y[row, :vec.size] for row, (q, vec) in enumerate(blocks.items())}


@pytest.mark.parametrize("initial, t", [(fock_state(24, 2, 1), 0.5),
                                        (coherent_state(24, 0.8, 0.5 + 0.3j), 0.37)])
def test_tabulated_stretches_match_interpolating_reference(initial, t):
    # on each stretch the pump is the straight line through its end samples
    params = params_for(1.5)
    tab = _modulated_pump(params)
    cfg = OracleConfig(cutoff=24, tol=1e-11)
    out = evolve_truncated(tab, params, initial, t, cfg)
    want = _interpolating_reference(tab, params, initial, t, cfg.tol)
    assert set(out.blocks) == set(want)
    for q, vec in want.items():
        assert np.max(np.abs(out.blocks[q] - vec)) < 1e-12, q


def test_tabulated_stretch_builds_no_dense_output(monkeypatch):
    # each stretch is one DOP853 step: 1 RHS call at its start and 12 for the
    # step; a dense output would add 3 more to every stretch
    params = params_for(1.5)
    calls, finished = _count_stretches(monkeypatch)
    evolve_truncated(_modulated_pump(params), params, fock_state(24, 2, 1), 0.5,
                     OracleConfig(cutoff=24, tol=1e-11))
    assert len(calls) == 100
    assert finished == [13] * 100


@pytest.mark.parametrize("start", [coherent_state(24, 0.8, 0.5 + 0.3j),  # 28 blocks, 10..25
                                   coherent_state(28, 1.2, 0.3j)])  # 30 blocks, 9..29
def test_flat_rhs_keeps_every_block_norm(start):
    # the flat right-hand side couples each block's last entry to the next
    # block's first with a zero coefficient; a leak would move a norm by ~1e-2
    params = params_for(1.5)
    cfg = OracleConfig(cutoff=start.cutoff, tol=1e-11)
    for pump, t in ((_modulated_pump(params), 0.5), (CustomPump(fn=pump_for(params).value), 1.3)):
        out = evolve_truncated(pump, params, start, t, cfg)
        assert set(out.blocks) == set(start.blocks)
        for q, vec in start.blocks.items():
            drift = np.vdot(out.blocks[q], out.blocks[q]).real - np.vdot(vec, vec).real
            assert abs(drift) < 1e-12, (pump, q)


def test_tabulated_pump_evaluated_once(monkeypatch):
    params = params_for(1.5)
    tab = _modulated_pump(params)
    calls, value = [], TabulatedPump.value

    def counted(self, t):
        calls.append(np.size(t))
        return value(self, t)

    monkeypatch.setattr(TabulatedPump, "value", counted)
    evolve_truncated(tab, params, fock_state(24, 2, 1), 0.5, OracleConfig(cutoff=24))
    assert calls == [101]  # 0, the 99 interior samples and t, in one call
    evolve_truncated(tab, params, fock_state(24, 2, 1), 0.25, OracleConfig(cutoff=24))
    assert calls == [101, 51]


def test_tabulated_pump_fails_before_integrating(monkeypatch):
    # t past the last sample is refused before any stretch is integrated
    params = params_for(1.5)
    calls, _ = _count_stretches(monkeypatch)
    with pytest.raises(ValueError, match=r"t = 0\.7, outside the tabulated range \[0\.0, 0\.5\]"):
        evolve_truncated(_modulated_pump(params), params, fock_state(16, 1, 1), 0.7,
                         OracleConfig(cutoff=16))
    assert calls == []


def test_harmonic_path_diagonalizes_once_per_charge_pair(monkeypatch):
    calls, dstevd = [], oracle.dstevd

    def counted(d, e, *args, **kwargs):
        calls.append(d.size)
        return dstevd(d, e, *args, **kwargs)

    monkeypatch.setattr(oracle, "dstevd", counted)
    params = params_for(1.5)
    start = coherent_state(32, 0.8, 0.5 + 0.3j)
    charges = {abs(q) for q in start.blocks}
    assert len(charges) < len(start.blocks)  # the start holds pairs +-q
    for rounds in (1, 2):  # nothing is kept from one call to the next
        evolve_truncated(pump_for(params), params, start, 1.3, OracleConfig(cutoff=32))
        assert sorted(calls) == sorted(rounds * [33 - a for a in charges])


def test_harmonic_path_keeps_the_per_block_products():
    # the rule before the phases were shared: each block's own phases and products, bit for bit
    params, t = params_for(1.5), 1.3
    pump = pump_for(params)
    w, turn = params.omega_a + params.omega_b - pump.omega, 0.5 * np.pi - np.angle(pump.g)
    for start in (coherent_state(40, 1.5, 1.5j), fock_state(24, 2, 1),
                  amode_state(16, [0.5, 0.3, 0.2])):
        state = evolve_truncated(pump, params, start, t, OracleConfig(cutoff=start.cutoff))
        assert list(state.blocks) == list(start.blocks)
        for q, vec in start.blocks.items():
            j = np.arange(vec.size)
            lam, v = oracle._tridiagonal_eigh(
                -w * j, abs(pump.g) * _pair_amplitudes(start.cutoff, abs(q)))
            rotated = v @ (np.exp(1j * lam * t) * (v.T @ (np.exp(-1j * turn * j) * vec)))
            want = np.exp(1j * (w * t + turn) * j) * rotated
            assert np.array_equal(state.blocks[q], want), (start.cutoff, q)


def test_harmonic_path_refuses_a_failed_diagonalization(monkeypatch):
    # dstevd reports failure through info alone; the oracle must not apply its output
    def failing(d, e):
        return d, np.eye(d.size), 3

    monkeypatch.setattr(oracle, "dstevd", failing)
    params = params_for(1.5)
    with pytest.raises(np.linalg.LinAlgError, match=r"block of 17 levels: info = 3"):
        evolve_truncated(pump_for(params), params, fock_state(16, 1, 1), 1.0,
                         OracleConfig(cutoff=16))


def _traced_peak(pump, params, start, t):
    """Peak ``tracemalloc`` bytes of one ``evolve_truncated`` call to t."""
    import gc
    import tracemalloc
    cfg = OracleConfig(cutoff=start.cutoff)
    evolve_truncated(pump, params, start, 0.1, cfg)  # loads scipy
    gc.collect()
    tracemalloc.start()
    try:
        evolve_truncated(pump, params, start, t, cfg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_custom_pump_memory_stays_flat():
    # each solve keeps only its end state, not every accepted step
    params = params_for(1.5)
    pump = CustomPump(fn=pump_for(params).value)
    assert _traced_peak(pump, params, coherent_state(24, 0.8, 0.5 + 0.3j), 2.0) < 2e6


@pytest.mark.parametrize("n, t", [(201, 1.0), (2, 2.0), (2, 10.0)])
def test_tabulated_pump_memory_stays_flat(n, t):
    # 201 samples: nothing is kept from one stretch to the next;
    # 2 samples: one long stretch of many steps keeps only its current state
    # (keeping every step, the stretch over [0, 10] peaked at 10.1 MiB)
    params = params_for(1.5)
    samples = np.linspace(0.0, t, n)
    tab = TabulatedPump(times=tuple(samples), values=tuple(pump_for(params).value(samples)))
    assert _traced_peak(tab, params, coherent_state(24, 0.8, 0.5), t) < 2e6


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
    d = solve_analytic(params, t)
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


def two_mode_variance(expect, theta):
    """Var X_theta of the two-mode quadrature from the normal-ordered moments
    expect(p, q, r, s) = <a+^p a^q b+^r b^s>, as in test_observables."""
    ea = np.exp(1j * theta)
    mean = (expect(0, 1, 0, 0) * ea + expect(1, 0, 0, 0) / ea + expect(0, 0, 1, 0) / ea
            + expect(0, 0, 0, 1) * ea) / math.sqrt(2.0)
    x2 = (expect(0, 2, 0, 0) * ea ** 2 + 2 * expect(0, 1, 1, 0) + expect(0, 0, 2, 0) / ea ** 2
          + expect(2, 0, 0, 0) / ea ** 2 + 2 * expect(1, 0, 0, 1) + expect(0, 0, 0, 2) * ea ** 2
          + 2 * expect(1, 1, 0, 0) + 2 * expect(0, 0, 1, 1) + 2
          + 2 * (expect(0, 1, 0, 1) * ea ** 2 + expect(1, 0, 1, 0) / ea ** 2)) / 2.0
    return (x2 - mean ** 2).real


def test_closed_forms_under_a_tabulated_pump_match_the_oracle():
    # a harmonic pump modulated in amplitude and sampled 41 times: the closed forms
    # take solve_ode's record as they take solve_analytic's, and agree with the
    # oracle's integration of the same pump, amplitude phases included; so does the
    # quadrature variance of |1,1>, against the oracle state's own moments
    params = params_for(1.5)
    samples = np.linspace(0.0, 1.0, 41)
    value = pump_for(params).value(samples) * (1.0 + 0.3 * np.sin(2.0 * math.pi * samples))
    tab = TabulatedPump(times=tuple(samples), values=tuple(value))
    sol = solve_ode(tab, params, [0.0, 0.5, 1.0])
    cfg = OracleConfig(cutoff=40, tol=1e-12)
    for i, t in ((1, 0.5), (2, 1.0)):
        c = sol[i]
        vacuum, fock11, fock21 = (evolve_truncated(tab, params, fock_state(40, r, s), t, cfg)
                                  for r, s in ((0, 0), (1, 1), (2, 1)))
        for n in range(6):
            assert abs(vacuum_prob(c, n) - oracle_probability(vacuum, n, n)) < 1e-13, (t, n)
            assert vacuum_prob(sol, n)[i] == pytest.approx(vacuum_prob(c, n), rel=1e-14)
            assert abs(fock11_prob(c, n) - oracle_probability(fock11, n, n)) < 1e-13, (t, n)
            if n:
                amp = fock_amplitude(c, FockPair(2, 1), FockOutcome(n - 1, n))
                assert abs(amp - fock21.amplitude(n, n - 1)) < 1e-13, (t, n)
        for theta in (0.0, 0.4, math.pi / 2.0):
            want = two_mode_variance(lambda *pqrs: oracle_moment(fock11, *pqrs), theta)
            assert quadrature_variance(squeezing_kernel(c, theta), FockPair(1, 1)) \
                == pytest.approx(want, rel=1e-9), (t, theta)
    assert max(r.max() for r in unitarity_residuals(sol)) < 1e-13
    for norm in (vacuum_norm, fock11_norm):
        assert norm(sol[-1]) == pytest.approx(1.0, abs=1e-13)


def test_matches_amode_closed_form():
    params = params_for(1.0)
    t = 1.3
    psi = PureAModeState.poisson(0.85)
    out = evolve_truncated(pump_for(params), params,
                           amode_state(64, psi.probs, psi.phases), t,
                           OracleConfig(cutoff=64, tol=1e-12))
    d = solve_analytic(params, t)
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
    d = solve_analytic(params, t)
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
    d = solve_analytic(params, t)
    assert value == pytest.approx(fock11_prob(d, 1), abs=1e-9)
    assert cutoff >= 32
    # a probe that never settles runs out of cutoffs (at t = 0 each evolution is a copy)
    with pytest.raises(TruncationError, match="no convergence below cutoff 4096"):
        evolve_converged(pump, params, lambda c: fock_state(c, 1, 1), 0.0,
                         lambda s: s.cutoff, OracleConfig(cutoff=2048))


def test_truncation_error_for_unnormalized_input():
    params = params_for(0.5)
    init = fock_state(16, 1, 1)
    init.blocks[0] *= 0.5
    init.norm_deficit = 0.75
    with pytest.raises(TruncationError):
        evolve_truncated(pump_for(params), params, init, 1.0, OracleConfig(cutoff=16))


@pytest.mark.parametrize("cutoff", [24, 96])
def test_norm_drift_in_evolution_blames_the_integrator(cutoff):
    # the truncated generator keeps the norm at any cutoff, so a drift this loose a
    # tolerance leaves is the integrator's, and it does not shrink as the cutoff grows
    params = params_for(1.5)
    pump, start = CustomPump(fn=pump_for(params).value), fock_state(cutoff, 2, 1)
    with pytest.raises(IntegrationError, match=r"drifted by -\d.*cfg\.tol = 1e-05"):
        evolve_truncated(pump, params, start, 5.0, OracleConfig(cutoff=cutoff, tol=1e-5))
    out = evolve_truncated(pump, params, start, 5.0, OracleConfig(cutoff=cutoff, tol=1e-9))
    assert out.norm_deficit < 1e-9


def test_fock_state_rejects_negative_occupation():
    with pytest.raises(ValueError, match=r"\(-1, 0\)"):
        fock_state(10, -1, 0)


def test_amplitude_outside_the_stored_blocks_is_zero():
    state = fock_state(10, 2, 1)  # block q = 1 alone, entries j = min(n_a, n_b) = 0..9
    assert state.amplitude(2, 1) == 1.0 and state.amplitude(3, 2) == 0j
    assert state.amplitude(2, 2) == 0j  # block 0 is not stored
    assert state.amplitude(11, 10) == 0j  # j = 10, past the block's last entry


def test_amplitude_rejects_negative_occupation():
    state = fock_state(10, 1, 1)
    with pytest.raises(ValueError, match=r"\(-1, 1\)"):
        state.amplitude(-1, 1)
    with pytest.raises(ValueError, match=r"\(1, -1\)"):
        oracle_probability(state, -1, 1)  # outcome m = -1 in mode b


def test_evolve_refuses_a_start_at_another_cutoff():
    # the cutoff-8 vacuum under OracleConfig(cutoff=128) was evolved at cutoff 8,
    # p_00 = 0.184 against the closed form's 0.0287
    params = params_for(0.5)
    with pytest.raises(ValueError, match=r"start's cutoff 8 differs from cfg.cutoff = 128"):
        evolve_truncated(pump_for(params), params, fock_state(8, 0, 0), 3.0,
                         OracleConfig(cutoff=128))
    with pytest.raises(ValueError, match=r"start's cutoff 16 differs from cfg.cutoff = 32"):
        evolve_truncated(pump_for(params), params, fock_state(16, 0, 0), 3.0)


def test_evolve_rejects_non_finite_time():
    params = params_for(1.5)
    with pytest.raises(ValueError, match="got nan"):
        evolve_truncated(pump_for(params), params, fock_state(16, 1, 1), math.nan)


def test_config_validation():
    with pytest.raises(ValueError):
        OracleConfig(cutoff=2)
    with pytest.raises(ValueError):
        OracleConfig(tol=0.0)
    for cutoff in (2, True, 8.5, 8.0, "8"):
        with pytest.raises(ValueError, match=re.escape(
                f"cutoff must be at least 4 and an integer, got {cutoff!r}")):
            OracleConfig(cutoff=cutoff)
    for tol in (0.0, -1e-9, math.nan, math.inf):
        with pytest.raises(ValueError, match=f"tol must be positive and finite, got {tol!r}"):
            OracleConfig(tol=tol)
    assert OracleConfig(cutoff=np.int64(8)).cutoff == 8


def test_coherent_state_construction():
    st = coherent_state(32, 1.0, 0.5)
    assert st.total_norm() == pytest.approx(1.0, abs=1e-12)
    assert abs(st.amplitude(0, 0)) ** 2 == pytest.approx(
        math.exp(-1.0) * math.exp(-0.25))


@pytest.mark.parametrize("alpha, beta", [(0.8, 0.5 + 0.3j), (0.0, 1.2), (1.5j, 0.0),
                                         (0.0, 0.0), (2.0, 0.3)])
def test_coherent_state_blocks_are_amplitude_products(alpha, beta):
    # block q holds ca[n_a] cb[n_b] on n_a - n_b = q, kept above weight 1e-16
    cutoff = 40
    n = np.arange(cutoff + 1)
    ca, cb = oracle._coherent_amps(alpha, n), oracle._coherent_amps(beta, n)
    st = coherent_state(cutoff, alpha, beta)
    want = {}
    for q in range(-cutoff, cutoff + 1):
        na, nb = st.occupations(q)
        vec = ca[na] * cb[nb]
        if np.vdot(vec, vec).real > 1e-16:
            want[q] = vec
    assert set(st.blocks) == set(want)
    assert len(want) < 2 * cutoff + 1  # some blocks are dropped
    for q, vec in want.items():
        assert st.blocks[q].dtype == complex and st.blocks[q].flags.writeable
        assert np.array_equal(st.blocks[q], vec), q


def test_irrational_detuning_peak_oracle_value():
    # quasi-revival peak height for an irrational squared detuning; the
    # closed form puts it at 0.92814 (gt near 40.79), strictly below 1
    params = ModelParams(omega_a=3.0, omega_b=2.0, g=1.0,
                         omega=5.0 + 2.0 * math.sqrt(math.pi))
    prob, _ = coherent_revival_prob(solve_analytic(params, 40.79),
                                    CoherentPair(5.0, 5.0))
    assert prob == pytest.approx(0.9281, abs=2e-4)


def test_amode_state_refuses_non_finite_entries():
    with pytest.raises(ValueError, match=r"probs\[0\] = nan is not finite"):
        amode_state(8, [math.nan, 1.0])
    with pytest.raises(ValueError, match=r"phases\[1\] = -inf is not finite"):
        amode_state(8, [0.5, 0.5], [0.0, -math.inf])


@pytest.mark.parametrize("build, shown", [
    (lambda: fock_state(16, True, 1), "got True"),  # vec[True] = 1 filled the whole block
    (lambda: fock_state(16, 2.5, 1), "got 2.5"),
    (lambda: coherent_state(16, math.nan, 0.5), "got nan"),
    (lambda: coherent_state(16, math.inf, 0.5), "got inf"),
    (lambda: amode_state(16, [0.5, 0.7]), "got 1.2"),
    (lambda: amode_state(16, [1.5, -0.5]), r"probs\[1\] = -0.5"),
    (lambda: amode_state(3, [0.2] * 5), "distribution support exceeds cutoff"),
])
def test_starts_refuse_bad_input_naming_it(build, shown):
    # every start validates through FockPair, CoherentPair or PureAModeState
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=shown):
            build()


@pytest.mark.parametrize("alpha", [40.0, 1e100])
def test_start_with_no_weight_inside_its_cutoff_is_empty(alpha):
    # 40: every block weighs under 1e-16; 1e100: every amplitude underflows to 0
    start = coherent_state(56, alpha, 0.0)
    assert start.blocks == {} and start.norm_deficit == 1.0
    params = params_for(1.5)
    with pytest.raises(TruncationError, match="initial norm deficit"):
        evolve_truncated(pump_for(params), params, start, 1.0, OracleConfig(cutoff=56))


@pytest.mark.parametrize("cutoff, r, s", [(8, 0, 0), (24, 2, 1), (8, 1, 1), (16, 1, 1),
                                          (32, 1, 1), (64, 1, 1), (118, 2, 1), (4096, 1, 1)])
def test_fock_start_is_one_unit_block(cutoff, r, s):
    # the benchmark's Fock starts: block q = r - s alone, 1 at j = min(r, s)
    want = np.zeros(cutoff + 1 - abs(r - s), dtype=complex)
    want[min(r, s)] = 1.0
    start = fock_state(cutoff, r, s)
    assert list(start.blocks) == [r - s] and start.norm_deficit == 0.0
    assert start.blocks[r - s].tobytes() == want.tobytes()


def test_fock_start_memory_is_linear_in_the_cutoff():
    tracemalloc.start()
    try:
        fock_state(4096, 1, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6  # a dense (cutoff + 1)^2 product would take 268 MB


def test_amode_start_drops_blocks_by_the_one_weight_rule():
    psi = PureAModeState.poisson(0.85)
    start = amode_state(64, psi.probs, psi.phases)
    kept = [s for s, p in enumerate(psi.probs) if p > 1e-16]
    assert list(start.blocks) == kept and len(kept) < len(psi.probs)
    for s in kept:  # |s>_a |0>_b: block q = s, j = 0
        want = np.zeros(65 - s, dtype=complex)
        want[0] = math.sqrt(psi.probs[s]) * cmath.exp(1j * psi.phases[s])
        np.testing.assert_allclose(start.blocks[s], want, rtol=1e-15, atol=0.0)
    assert start.norm_deficit <= 1e-15
    assert amode_state(8, [0.25, 0.75]).amplitude(1, 0) == math.sqrt(0.75)  # phases=None: 0


def _direct_product(cutoff, a, b):
    """Blocks and norm deficit of |a> (x) |b> by the direct rule: every charge q the supports
    reach, its block kept where np.vdot(vec, vec).real > 1e-16."""
    blocks, na, nb = {}, np.flatnonzero(a), np.flatnonzero(b)
    if na.size and nb.size:
        for q in range(na[0] - nb[-1], na[-1] - nb[0] + 1):
            vec = a[q:] * b[:b.size - q] if q >= 0 else a[:a.size + q] * b[-q:]
            if np.vdot(vec, vec).real > 1e-16:
                blocks[q] = vec
    return blocks, max(0.0, 1.0 - float(sum(np.vdot(v, v).real for v in blocks.values())))


def _product_pairs():
    """(cutoff, a, b): coherent, Fock and a-mode amplitude pairs."""
    for cutoff in (8, 24, 40, 64):
        n = np.arange(cutoff + 1)
        for ra, rb in itertools.product((0.0, 1e-9, 0.5, 1.5, 3.0), repeat=2):
            yield (cutoff, oracle._coherent_amps(ra * cmath.exp(0.7j), n),
                   oracle._coherent_amps(rb * cmath.exp(-2.1j), n))
        for r, s in ((0, 0), (1, 1), (cutoff, 0), (2, cutoff - 1)):
            yield cutoff, (n == r).astype(complex), (n == s).astype(complex)
        psi = PureAModeState.poisson(min(cutoff / 4.0, 3.0))
        a = np.zeros(cutoff + 1, dtype=complex)
        a[:len(psi.probs)] = np.sqrt(psi.probs)[:cutoff + 1]
        yield cutoff, a, (n == 0).astype(complex)


def test_product_state_keeps_the_charges_of_the_direct_rule():
    # the weights of all charges come from one correlation of |a|^2 and |b|^2
    for cutoff, a, b in _product_pairs():
        state = oracle._product_state(cutoff, a, b)
        blocks, deficit = _direct_product(cutoff, a, b)
        assert list(state.blocks) == list(blocks), cutoff
        for q, vec in blocks.items():
            assert np.array_equal(state.blocks[q], vec), (cutoff, q)
        assert state.norm_deficit == deficit, cutoff


@st.composite
def _starts(draw):
    """A Fock, coherent or a-mode start at a cutoff in 4..64 with norm deficit <= 1e-9."""
    cutoff = draw(st.integers(4, 64))
    kind = draw(st.sampled_from(["fock", "coherent", "amode"]))
    if kind == "fock":
        return fock_state(cutoff, draw(st.integers(0, cutoff)), draw(st.integers(0, cutoff)))
    if kind == "amode":
        weights = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=cutoff + 1)))
        assume(weights.sum() > 0.1)
        return amode_state(cutoff, weights / weights.sum())
    alpha, beta = (draw(st.floats(0.0, 2.0)) * cmath.exp(1j * draw(st.floats(-3.2, 3.2)))
                   for _ in "ab")
    start = coherent_state(cutoff, alpha, beta)
    assume(start.norm_deficit <= 1e-9)
    return start


@settings(max_examples=60, deadline=None, derandomize=True)
@given(start=_starts(), k2=st.floats(0.2, 2.5), t=st.floats(0.05, 3.0))
@example(start=fock_state(4, 4, 0), k2=1.5, t=1.0)  # |q| = cutoff: 1 entry
@example(start=fock_state(9, 0, 8), k2=0.5, t=2.0)  # |q| = cutoff - 1: 2 entries
@example(start=amode_state(6, [0.5, 0, 0, 0, 0, 0.25, 0.25]), k2=1.0, t=0.7)
def test_edge_mass_is_the_mass_near_the_cutoff(start, k2, t):
    # the definition: the mass on levels with max(n_a, n_b) >= cutoff - 2
    params = params_for(k2)
    state = evolve_truncated(pump_for(params), params, start, t,
                             OracleConfig(cutoff=start.cutoff))
    want = 0.0
    for q, vec in state.blocks.items():
        na, nb = state.occupations(q)
        want += float(np.sum(np.abs(vec[np.maximum(na, nb) >= state.cutoff - 2]) ** 2))
    assert edge_mass(state) == pytest.approx(want, rel=1e-15, abs=0.0)
