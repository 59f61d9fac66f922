"""Property tests of the general Fock transition amplitudes.

For any start |r, s> with r, s <= 200, any k^2 below, at or above
threshold and any gt with a vacuum mean n0 <= 20, the outcome
probabilities |<n - q, n| U |r, s>|^2 sum to one.  For r, s <= 12 the
complex amplitude, phase included, matches the terminating sum
evaluated with mpmath at 50 digits.  Near r, s = 200 the amplitude
moduli on both sides of C(R + max(a, b), R) = 1e308, where the scalar
path hands over from scipy's eval_jacobi to the rescaled loop, match
mpmath.jacobi at 60 digits, from single outcomes and from one outcome
array, and grid calls match scalar calls there.  The sums to one ask for
each start's outcomes as one array and check 20 of them one by one.
"""

import itertools
import math
import sys
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ndpa import FockOutcome, FockPair, ModelParams, fock_amplitude, solve_analytic
from ndpa.amplitudes import _transition

K2 = st.one_of(st.floats(0.2, 0.95), st.just(1.0), st.floats(1.05, 3.0))
N0 = st.floats(0.0, 20.0)


def gt_for(k2: float, n0: float) -> float:
    """A gt at which the vacuum mean photon number is n0 (at most 1/(k^2 - 1)
    above threshold, where n0 = sin^2(gt sqrt(k^2 - 1)) / (k^2 - 1))."""
    if k2 == 1.0:
        return math.sqrt(n0)
    q = math.sqrt(abs(1.0 - k2))
    return (math.asinh(q * math.sqrt(n0)) if k2 < 1.0
            else math.asin(min(1.0, q * math.sqrt(n0)))) / q


def params_for(k2):
    return ModelParams.from_k2(k2, omega_a=3.0, omega_b=2.0)


def amplitude_mp(c, r, s, m, n):
    """<m, n| U |r, s> as the terminating sum over k, at 50 digits."""
    with mpmath.workdps(50):
        ap, am, a0 = (mpmath.mpc(c.a_plus), mpmath.mpc(c.a_minus), mpmath.mpc(c.a_zero))
        fac = mpmath.factorial
        total = mpmath.fsum(mpmath.exp((s + r + 1 - 2 * k) * a0) * am ** k * ap ** (n + k - r)
                            / (fac(r - k) * fac(s - k) * fac(k) * fac(n + k - r))
                            for k in range(max(0, r - n), min(r, s) + 1))
        return complex(total * mpmath.sqrt(fac(r) * fac(s) * fac(m) * fac(n)))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(r=st.integers(0, 200), s=st.integers(0, 200), k2=K2, n0=N0)
def test_outcome_probabilities_sum_to_one(r, s, k2, n0):
    params = params_for(k2)
    gt = gt_for(k2, n0)
    c = solve_analytic(params, gt)
    # past three times the mean <n_a> = r + n0 (r + s + 1), the outcome
    # probabilities fall off like y^n; 60 / log(1/y) more terms cover that
    levels = int(3.0 * (r + c.n0 * (r + s + 1)) - 60.0 / c.log_y) + 1
    q = r - s
    n = np.arange(max(q, 0), max(q, 0) + levels)
    sampled = np.random.default_rng([r, s]).choice(n, size=min(20, n.size), replace=False)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        amps = fock_amplitude(c, FockPair(r, s), FockOutcome(n - q, n))
        one_by_one = [fock_amplitude(c, FockPair(r, s), FockOutcome(int(i) - q, int(i)))
                      for i in sampled]
    probs = np.abs(amps) ** 2
    assert np.all(np.isfinite(probs))
    assert abs(probs.sum() - 1.0) <= 1e-10
    # the outcome array runs the recurrence and a Stirling-form prefactor, a
    # single outcome scipy's eval_jacobi (or the loop) and exact math.comb
    np.testing.assert_allclose(amps[sampled - max(q, 0)], one_by_one, rtol=0, atol=1e-12)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(r=st.integers(0, 12), s=st.integers(0, 12), k2=K2, n0=N0,
       level=st.integers(0, 30))
def test_amplitude_matches_the_50_digit_sum(r, s, k2, n0, level):
    c = solve_analytic(params_for(k2), gt_for(k2, n0))
    n = level + max(r - s, 0)
    m = s - r + n
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = fock_amplitude(c, FockPair(r, s), FockOutcome(m, n))
    assert abs(got - amplitude_mp(c, r, s, m, n)) <= 1e-12


def modulus_mp(c, r, s, m, n):
    """|<m, n| U |r, s>| as the Jacobi form with mpmath.jacobi at 60 digits, on the
    doubles the amplitude is evaluated from: |A-|, Re A0 and z = exp(2 Re A0) - |A-|^2."""
    R, a, b = min(r, s, m, n), abs(n - r), abs(s - r)
    mod_minus, re_a0 = abs(c.a_minus), c.a_zero.real
    u, w = math.exp(2.0 * re_a0), mod_minus * mod_minus
    with mpmath.workdps(60):
        fac = mpmath.factorial
        log_x, y = -2 * mpmath.mpf(re_a0), mpmath.mpf(mod_minus) ** 2
        pre = fac(R) * fac(R + a + b) / (fac(R + a) * fac(R + b)) * y ** a
        jacobi = mpmath.jacobi(R, a, b, mpmath.mpf(u) - mpmath.mpf(w))
        return float(mpmath.sqrt(pre * mpmath.exp(-(b + 1) * log_x)) * abs(jacobi))


@pytest.mark.parametrize("k2", [0.5, 1.0, 1.1])
@pytest.mark.parametrize("r, s", [(200, 200), (200, 190), (190, 200)])
def test_moduli_match_60_digit_jacobi_where_the_binomial_overflows(r, s, k2):
    # outcomes a = n - r around C(R + a, R) = 1e308 and past the largest double,
    # at an n0 that puts the mean <n_a> = r + n0 (r + s + 1) there
    R, q = min(r, s), r - s
    cross = next(a for a in itertools.count() if math.comb(R + a, R) > 1e308)
    gt = gt_for(k2, cross / (r + s + 1))
    params = params_for(k2)
    times = np.array([0.5 * gt, gt])
    (c_half, c), grid = [solve_analytic(params, t) for t in times], solve_analytic(params, times)
    outcomes = [FockOutcome(r + a - q, r + a) for a in range(cross - 12, cross + 25, 4)]
    binomials = [math.comb(R + o.n - r, R) for o in outcomes]
    assert min(binomials) < 1e308 and max(binomials) > sys.float_info.max
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        array = fock_amplitude(c, FockPair(r, s), FockOutcome(np.array([o.m for o in outcomes]),
                                                              np.array([o.n for o in outcomes])))
        for out, got_in_array in zip(outcomes, array):
            got = fock_amplitude(c, FockPair(r, s), out)
            want = modulus_mp(c, r, s, out.m, out.n)
            assert want > 1e-4  # the outcomes carry probability
            assert abs(abs(got) - want) <= 1e-12
            assert abs(abs(got_in_array) - want) <= 1e-12
            np.testing.assert_allclose(fock_amplitude(grid, FockPair(r, s), out),
                                       [fock_amplitude(c_half, FockPair(r, s), out), got],
                                       rtol=0, atol=1e-12)


@pytest.mark.parametrize("R, a, b", [(2, 0, 0), (3, 4, 1), (40, 1460, 0), (121, 3, 20),
                                     (np.int64(7), 5, 9)])
def test_scalar_recurrence_is_scipys_integer_degree_eval_jacobi(R, a, b):
    # at an integer degree eval_jacobi runs the forward recurrence in C and
    # multiplies by its binom(R + hi, R), which the division takes back out
    # exactly; a float degree would select its hypergeometric form instead
    from scipy.special import binom, eval_jacobi
    y, x = 0.75, 4.0  # 1/x = 0.25 exactly, so z = 1/x - y = -0.5
    hi, lo, z, sign = (a, b, -0.5, 1.0) if a >= b else (b, a, 0.5, (-1.0) ** int(R))
    _, f = _transition(R, a, b, y, math.log(y), math.log(x), 1.0 / x)
    assert f == sign * eval_jacobi(int(R), hi, lo, z) / binom(R + hi, R)
