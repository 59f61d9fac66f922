import math
import re
import tracemalloc

import mpmath
import numpy as np
import pytest

from ndpa.amplitudes import (CoherentPair, FockOutcome, FockPair,
                             PureAModeState, _line_norm, _one_time, amode_norm, amode_prob,
                             coherent_mean_numbers, coherent_revival_prob,
                             coherent_transition_prob, effective_temperature,
                             fock11_norm, fock11_prob, fock_amplitude,
                             reduced_density_a, reduced_density_b,
                             vacuum_norm, vacuum_prob)
from ndpa.model import HarmonicPump, ModelParams
from ndpa.oracle import OracleConfig, evolve_truncated, fock_state, oracle_probability
from ndpa.weinorman import solve_analytic

from helpers import params_for


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


def _outcome_probabilities(c, r, s, n_max):
    """|<n-q, n| U |r, s>|^2 for every outcome n <= n_max, q = r - s."""
    q = r - s
    return np.array([abs(fock_amplitude(c, FockPair(r, s), FockOutcome(n - q, n))) ** 2
                     for n in range(max(q, 0), n_max + 1)])


def test_large_fock_distributions_sum_to_one_and_match_the_oracle():
    # as a double-precision alternating sum these read 1 + 8.1 and 1 + 7e52
    params = params_for(1.5)
    c = solve_analytic(params, 1.0)
    for r, s in ((40, 40), (120, 100)):
        assert _outcome_probabilities(c, r, s, 2000).sum() == pytest.approx(1.0, abs=1e-10)
    pump = HarmonicPump.from_params(params)
    oracles = [evolve_truncated(pump, params, fock_state(cutoff, 120, 100), 1.0,
                                OracleConfig(cutoff=cutoff)) for cutoff in (640, 1280)]
    for n, rounded in ((100, 7.6e-4), (120, 1.6e-3), (140, 1.9e-3)):
        want = oracle_probability(oracles[0], n - 20, n)
        assert oracle_probability(oracles[1], n - 20, n) == pytest.approx(want, rel=1e-10)
        assert want == pytest.approx(rounded, rel=0.04)
        got = abs(fock_amplitude(c, FockPair(120, 100), FockOutcome(n - 20, n))) ** 2
        assert got == pytest.approx(want, rel=1e-10)


def test_vacuum_prob_matches_amplitude():
    c = solve_analytic(params_for(0.5), 1.7)
    for n in range(5):
        amp = fock_amplitude(c, FockPair(0, 0), FockOutcome(n, n))
        assert vacuum_prob(c, n) == pytest.approx(abs(amp) ** 2, rel=1e-10)


def test_fock11_prob_matches_amplitude():
    for k2, t in [(0.5, 1.3), (1.0, 2.0), (1.5, 0.8)]:
        c = solve_analytic(params_for(k2), t)
        for n in range(5):
            amp = fock_amplitude(c, FockPair(1, 1), FockOutcome(n, n))
            assert fock11_prob(c, n) == pytest.approx(abs(amp) ** 2,
                                                      rel=1e-9, abs=1e-13)


def test_fock11_prob_initial_value():
    d = solve_analytic(params_for(1.5), 0.0)
    assert fock11_prob(d, 1) == pytest.approx(1.0)
    assert fock11_prob(d, 0) == 0.0
    assert fock11_prob(d, 3) == 0.0


def test_fock11_revival():
    t_rev = math.pi * math.sqrt(2.0)
    for t in (t_rev, 2.0 * t_rev):
        d = solve_analytic(params_for(1.5), t)
        assert fock11_prob(d, 1) == pytest.approx(1.0, abs=1e-8)
        assert fock11_prob(d, 3) == pytest.approx(0.0, abs=1e-8)


def test_fock11_decay_below_threshold():
    d = solve_analytic(params_for(0.5), 8.0)
    assert fock11_prob(d, 1) <= 1e-3


def test_amode_prob_phase_independent():
    psi = PureAModeState.poisson(0.85)
    rng = np.random.default_rng(5)
    shifted = PureAModeState(probs=psi.probs,
                             phases=tuple(rng.uniform(0, 2 * np.pi,
                                                      len(psi.phases))))
    d = solve_analytic(params_for(1.5), 1.1)
    for m, n in [(0, 0), (1, 2), (2, 5)]:
        assert amode_prob(d, psi, FockOutcome(m, n)) == \
            amode_prob(d, shifted, FockOutcome(m, n))


def test_amode_prob_vacuum_reduction():
    psi = PureAModeState(probs=(1.0,), phases=(0.0,))
    d = solve_analytic(params_for(0.5), 1.4)
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
    best = np.max(amode_prob(solve_analytic(params, ts), psi, FockOutcome(1, 2)))
    expected = 8.0 * alpha ** 2 * math.exp(-alpha ** 2) / 27.0
    assert best == pytest.approx(expected, abs=1e-4)
    assert expected == pytest.approx(0.104, abs=5e-4)


def test_reduced_densities_are_marginals():
    psi = PureAModeState.poisson(0.85)
    d = solve_analytic(params_for(1.5), 1.3)
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
    d = solve_analytic(params, t)
    p1 = math.exp(1 * d.log_y - d.log_x)
    p2 = math.exp(2 * d.log_y - d.log_x)
    assert p2 / p1 == pytest.approx(d.y, rel=1e-6)
    # temperature checked at a moderate time where y is still below 1
    d = solve_analytic(params, 10.0 / math.sqrt(0.5))
    temp = effective_temperature(d.y, params.omega_a)
    assert temp > 0
    assert math.exp(-params.omega_a / temp) == pytest.approx(d.y, rel=1e-12)


def test_effective_temperature_validation():
    assert effective_temperature(0.0, 1.0) == 0.0
    for bad in (1.5, 1.0, -0.25, math.nan):
        with pytest.raises(ValueError, match=re.escape(f"got y = {bad!r}")):
            effective_temperature(bad, 1.0)


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
    probs, _ = coherent_revival_prob(solve_analytic(params, np.linspace(0.5, 50.0, 19801)),
                                     pair)
    # the quasi-revival peak near gt = 40.8 tops out at 0.9281 < 1
    assert probs.max() < 0.93


def test_coherent_mean_numbers_difference_conserved():
    pair = CoherentPair(1.1, 0.4j)
    diff0 = abs(pair.alpha) ** 2 - abs(pair.beta) ** 2
    for t in (0.5, 1.5, 3.0):
        c = solve_analytic(params_for(1.5), t)
        mean_a, mean_b = coherent_mean_numbers(c, c, pair)
        assert mean_a - mean_b == pytest.approx(diff0, abs=1e-10)


def test_coherent_mean_numbers_past_the_float_range_are_inf():
    # |<a(t)>|^2 overflows for alpha = 1e154 (|u alpha| ~ 3e154); the suite's
    # warnings-as-errors catches an overflow warning
    c = solve_analytic(params_for(0.5), 3.0)
    assert coherent_mean_numbers(c, c, CoherentPair(1e154, 0.5)) == (math.inf, math.inf)
    grid = solve_analytic(params_for(0.5), np.array([0.0, 3.0]))
    mean_a, mean_b = coherent_mean_numbers(grid, grid, CoherentPair(1e154, 0.5))
    assert np.isfinite(mean_a[0]) and np.isinf(mean_a[1]) and np.isinf(mean_b[1])
    assert all(map(math.isfinite, coherent_mean_numbers(c, c, CoherentPair(1e150, 0.5))))


@pytest.mark.parametrize("k2", [0.5, 1.0, 1.5])
@pytest.mark.parametrize("gt", [0.0, 1.0, 3.0, 6.0])
def test_normalization_certified(k2, gt):
    d = solve_analytic(params_for(k2), gt)
    assert vacuum_norm(d) == pytest.approx(1.0, abs=1e-8)
    assert fock11_norm(d) == pytest.approx(1.0, abs=1e-8)
    psi = PureAModeState.poisson(0.85)
    assert amode_norm(d, psi) == pytest.approx(1.0, abs=1e-8)


def test_normalization_deep_sub_log_domain():
    params = params_for(0.5)
    t = 30.0 / math.sqrt(0.5)
    d = solve_analytic(params, t)
    assert vacuum_norm(d) == pytest.approx(1.0, abs=1e-8)
    assert fock11_norm(d) == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("gt", [8.0, 12.0, 30.0 / math.sqrt(0.5)])
def test_amode_norm_deep_below_threshold_stays_small(gt):
    # 1 - y <= 2.5e-5 here: no source certifies within 2e6 terms
    d = solve_analytic(params_for(0.5), gt)
    psi = PureAModeState.poisson(0.85)
    tracemalloc.start()
    try:
        norm = amode_norm(d, psi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert norm == pytest.approx(1.0, abs=1e-8)
    assert peak < 64e6


def test_certified_sums_stay_small_at_a_million_terms():
    # 1 - y = 1.0e-4 here: each line needs some 10^5 to 10^6 terms, which
    # are summed a fixed-size chunk at a time (56.6 to 113 MiB in one piece)
    d = solve_analytic(params_for(0.5), 7.0)
    psi = PureAModeState.poisson(0.85)
    for norm in (lambda: vacuum_norm(d), lambda: fock11_norm(d), lambda: amode_norm(d, psi)):
        tracemalloc.start()
        try:
            value = norm()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert value == pytest.approx(1.0, abs=1e-12)
        assert peak < 16 * 2 ** 20


def test_amode_norm_of_a_wide_source_matches_its_closed_form():
    # poisson(100) has some 7 700 sources with P_l > 0; the smallest are left
    # out whole, and each line sums only where its terms are above the budget.
    # Each line |l, 0> sums to (x (1 - y))^-(l+1) over all outcomes, which is
    # 1 + O(l eps) on the doubles x, y: evaluated here at 30 digits
    d = solve_analytic(params_for(1.5), 1.0)
    psi = PureAModeState.poisson(100)
    with mpmath.workdps(30):
        rate = mpmath.mpf(d.log_x) + mpmath.log(1 - mpmath.exp(mpmath.mpf(d.log_y)))
        want = float(mpmath.fsum(mpmath.mpf(p) * mpmath.exp(-(l + 1) * rate)
                                 for l, p in enumerate(psi.probs)))
        lines = {l: float(mpmath.exp(-(l + 1) * rate)) for l in (3000, 11_200)}
    assert amode_norm(d, psi) == pytest.approx(want, abs=1e-13)
    for l, line in lines.items():  # one source each, the largest poisson(100) has
        assert _line_norm(d, l, 0) == pytest.approx(line, abs=1e-13)


@pytest.mark.parametrize("k2, gt", [(0.5, 6.0), (1.0, 6.0), (1.5, 3.0)])
def test_diagonal_norms_are_their_outcome_sums(k2, gt):
    d = solve_analytic(params_for(k2), gt)
    n = np.arange(2 ** 18)
    assert vacuum_norm(d) == pytest.approx(vacuum_prob(d, n).sum(), abs=1e-12)
    assert fock11_norm(d) == pytest.approx(fock11_prob(d, n).sum(), abs=1e-12)


@pytest.mark.parametrize("k2", [0.5, 1.5])
def test_amode_norm_is_its_outcome_sum(k2):
    d = solve_analytic(params_for(k2), 1.0)
    psi = PureAModeState.poisson(0.85)
    direct = sum(amode_prob(d, psi, FockOutcome(m, n)) for m in range(256)
                 for n in range(m, m + len(psi.probs)))
    assert amode_norm(d, psi) == pytest.approx(direct, abs=1e-12)


def test_poisson_of_zero_is_the_vacuum():
    psi = PureAModeState.poisson(0)
    assert psi.probs == (1.0,) + (0.0,) * 24 and psi.phases == (0.0,) * 25


def test_pure_amode_state_validation():
    with pytest.raises(ValueError):
        PureAModeState(probs=(0.5, 0.4), phases=(0.0, 0.0))
    with pytest.raises(ValueError):
        PureAModeState(probs=(1.0,), phases=(0.0, 0.0))


@pytest.mark.parametrize("cls", [FockPair, FockOutcome])
def test_fock_labels_refuse_non_integer_occupations(cls):
    with pytest.raises(ValueError, match="must be a non-negative integer, got 1.5"):
        cls(1.5, 0)
    with pytest.raises(ValueError, match="must be a non-negative integer, got 2.0"):
        cls(0, 2.0)
    with pytest.raises(ValueError, match="must be a non-negative integer, got -3"):
        cls(1, -3)
    label = cls(np.int64(2), np.int32(1))  # numpy integers are occupations too
    assert label == cls(2, 1)


@pytest.mark.parametrize("call, name, bad", [
    (lambda d, psi, v: vacuum_prob(d, v), "n", np.array([1.5, 2.0])),
    (lambda d, psi, v: vacuum_prob(d, v), "n", 2.5),
    (lambda d, psi, v: vacuum_prob(d, v), "n", np.array([3, -1])),
    (lambda d, psi, v: fock11_prob(d, v), "n", math.nan),
    (lambda d, psi, v: fock11_prob(d, v), "n", True),
    (lambda d, psi, v: fock11_prob(d, v), "n", np.True_),
    (lambda d, psi, v: reduced_density_a(d, psi, v), "n", 1.5),
    (lambda d, psi, v: reduced_density_b(d, psi, v), "m", 1.5),
    (lambda d, psi, v: reduced_density_b(d, psi, v), "m", np.array([1, 2])),
    (lambda d, psi, v: FockPair(v, 0), "r", True),
    (lambda d, psi, v: FockPair(0, v), "s", np.arange(3)),
    (lambda d, psi, v: FockOutcome(v, 1), "m", np.array([0.0, 1.0])),
])
def test_occupations_refuse_anything_but_non_negative_integers(call, name, bad):
    d = solve_analytic(params_for(1.5), 1.0)
    psi = PureAModeState.poisson(0.85)
    message = f"occupation {name} must be a non-negative integer, got {re.escape(repr(bad))}"
    with pytest.raises(ValueError, match=message):
        call(d, psi, bad)


def test_integer_arrays_are_occupations():
    d = solve_analytic(params_for(1.5), 1.0)
    n = np.array([0, 3, 7], dtype=np.int32)
    np.testing.assert_allclose(vacuum_prob(d, n), [vacuum_prob(d, int(v)) for v in n],
                               rtol=1e-14)
    np.testing.assert_allclose(fock11_prob(d, n.astype(np.uint8)),
                               [fock11_prob(d, int(v)) for v in n], rtol=1e-14)
    assert vacuum_prob(d, np.int64(3)) == vacuum_prob(d, 3)
    assert FockOutcome(np.int64(2), np.uint16(1)).m == 2


def test_outcome_arrays_give_one_amplitude_per_outcome():
    c = solve_analytic(params_for(1.5), 0.8)
    start = FockPair(5, 3)
    m, n = np.array([0, 1, 2, 5, 9, 3]), np.array([2, 3, 4, 7, 11, 3])  # the last is off the line
    got = fock_amplitude(c, start, FockOutcome(m, n))
    want = [fock_amplitude(c, start, FockOutcome(int(i), int(j))) for i, j in zip(m, n)]
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)
    assert got[-1] == 0j


def test_outcome_arrays_over_a_grid_give_a_table_of_per_time_calls():
    # the outcome axes lead, the time axis follows: each column is the call at its time
    params, times = params_for(1.5), np.array([0.0, 0.5, 0.8, 2.3])
    grid, ones = solve_analytic(params, times), [solve_analytic(params, t) for t in times]
    start, psi = FockPair(8, 6), PureAModeState.poisson(0.85)
    n = np.arange(2, 60)
    table = fock_amplitude(grid, start, FockOutcome(n - 2, n))
    assert table.shape == (n.size, times.size)
    for column, c in zip(table.T, ones):
        np.testing.assert_allclose(column, fock_amplitude(c, start, FockOutcome(n - 2, n)),
                                   rtol=0, atol=1e-15)
    # one outcome over the grid keeps the exact prefactor: its row, to rounding
    np.testing.assert_allclose(fock_amplitude(grid, start, FockOutcome(5, 7)), table[5],
                               rtol=1e-13, atol=1e-300)
    m, k = np.array([0, 1, 2, 1, 3]), np.array([0, 2, 5, 1, 2])  # the last is outside: n < m
    per_time = {
        "vacuum": (vacuum_prob(grid, np.arange(6)), [vacuum_prob(c, np.arange(6)) for c in ones]),
        "a-mode": (amode_prob(grid, psi, FockOutcome(m, k)),
                   [amode_prob(c, psi, FockOutcome(m, k)) for c in ones]),
        "rho_b": (reduced_density_b(grid, psi, 2), [reduced_density_b(c, psi, 2) for c in ones]),
        "rho_a": (reduced_density_a(grid, psi, 3), [reduced_density_a(c, psi, 3) for c in ones]),
    }
    for name, (got, want) in per_time.items():
        want = np.array(want).T
        assert got.shape == want.shape, name
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0, err_msg=name)
    assert (per_time["a-mode"][0][-1] == 0.0).all()
    # a one-point grid gives one value, the sum over outcomes at that time alone
    np.testing.assert_allclose(reduced_density_b(solve_analytic(params, times[2:3]), psi, 2),
                               [reduced_density_b(ones[2], psi, 2)], rtol=1e-14)


def _modulus_60(c, r, s, m, n):
    """|<m, n| U |r, s>| as the Jacobi form with mpmath.jacobi at 60 digits, on the
    doubles one outcome at one time reads: y, log y, log x and 1/x."""
    y, log_y, log_x, inv_x = _one_time(c)[:4]
    R, a, b = min(r, s, m, n), abs(n - r), abs(s - r)
    with mpmath.workdps(60):
        fac = mpmath.factorial
        pre = fac(R) * fac(R + a + b) / (fac(R + a) * fac(R + b))
        power = mpmath.exp(a * mpmath.mpf(log_y) - (b + 1) * mpmath.mpf(log_x))
        return mpmath.sqrt(pre * power) * abs(mpmath.jacobi(R, a, b, mpmath.mpf(inv_x) - y))


# |40,40> has lo = min(a, b) = 0, |120,100> lo <= 20 and |100,60> lo = 40 from n = 140 on;
# n = 25 ... 55 of |40,40> have min(R, hi) < 20, where scipy's binom is a product
_SCALAR_STARTS = {(40, 40): [2, 25, 45, 55, 61, 200, 700, 1500],
                  (120, 100): [22, 60, 130, 400, 900, 1500],
                  (100, 60): [140, 180, 500, 1100, 1500]}


@pytest.mark.parametrize("r, s", sorted(_SCALAR_STARTS))
def test_one_outcome_matches_60_digit_jacobi_and_the_grid_path(r, s):
    params, q = params_for(1.5), r - s
    c, grid = solve_analytic(params, 1.0), solve_analytic(params, np.array([0.5, 1.0]))
    for n in _SCALAR_STARTS[r, s]:
        out = FockOutcome(n - q, n)
        got, want = fock_amplitude(c, FockPair(r, s), out), _modulus_60(c, r, s, n - q, n)
        assert abs(abs(got) - want) <= 1e-12 * want, (n, abs(got), want)
        # the int-label grid path: the rescaled recurrence over the exact math.comb prefactor
        assert abs(fock_amplitude(grid, FockPair(r, s), out)[1] - got) <= 1e-12 * abs(got), n


def test_scipys_binom_is_a_product_below_20():
    # one outcome at one time logs the binom that divides eval_jacobi where min(R, hi) < 20,
    # as scipy multiplies it out there; past that it is good only to about 4e-12
    from fractions import Fraction
    from scipy.special import binom
    for k in range(2, 20):
        for n in (k, k + 1, 2 * k + 7, 100, 1500, 10 ** 6):
            assert abs(Fraction(binom(n, k)) / math.comb(n, k) - 1) <= 1e-14, (n, k)


def test_one_outcome_forms_no_binomial_with_math_comb(monkeypatch):
    c = solve_analytic(params_for(1.5), 1.0)
    cases = [(FockPair(40, 40), FockOutcome(960, 960)), (FockPair(120, 100), FockOutcome(880, 900)),
             (FockPair(100, 60), FockOutcome(460, 500)), (FockPair(4, 3), FockOutcome(30, 31))]
    want = [fock_amplitude(c, start, out) for start, out in cases]

    def comb(*args):
        raise AssertionError("math.comb on the scalar path")

    monkeypatch.setattr(math, "comb", comb)
    assert [fock_amplitude(c, start, out) for start, out in cases] == want


@pytest.mark.parametrize("norm", [vacuum_norm, fock11_norm,
                                  lambda d: amode_norm(d, PureAModeState.poisson(0.85))])
def test_normalization_sums_refuse_a_time_grid(norm):
    grid = solve_analytic(params_for(1.5), np.array([0.5, 0.8, 1.1]))
    with pytest.raises(ValueError, match=re.escape("not a grid of shape (3,)")):
        norm(grid)


@pytest.mark.parametrize("probs, phases, entry", [
    ((math.nan, 1.0), (0.0, 0.0), r"probs\[0\] = nan"),
    ((0.5, 0.5), (0.0, math.inf), r"phases\[1\] = inf"),
])
def test_pure_amode_state_refuses_non_finite_entries(probs, phases, entry):
    with pytest.raises(ValueError, match=entry + " is not finite"):
        PureAModeState(probs=probs, phases=phases)
