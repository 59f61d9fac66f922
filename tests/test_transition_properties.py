"""Property tests of the general Fock transition amplitudes.

For any start |r, s> with r, s <= 200, any k^2 below, at or above
threshold and any gt with a vacuum mean n0 <= 20, the outcome
probabilities |<n - q, n| U |r, s>|^2 sum to one.  For r, s <= 12 the
complex amplitude, phase included, matches the terminating sum
evaluated with mpmath at 50 digits.
"""

import math
import warnings

import mpmath
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ndpa import (FockOutcome, FockPair, ModelParams, derived_scalars,
                  fock_amplitude, solve_analytic)

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


@settings(max_examples=12, deadline=None, derandomize=True)
@given(r=st.integers(0, 200), s=st.integers(0, 200), k2=K2, n0=N0)
def test_outcome_probabilities_sum_to_one(r, s, k2, n0):
    params = params_for(k2)
    gt = gt_for(k2, n0)
    c, d = solve_analytic(params, gt), derived_scalars(params, gt)
    # past three times the mean <n_a> = r + n0 (r + s + 1), the outcome
    # probabilities fall off like y^n; 60 / log(1/y) more terms cover that
    levels = int(3.0 * (r + d.n0 * (r + s + 1)) - 60.0 / d.log_y) + 1
    q = r - s
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        probs = np.array([abs(fock_amplitude(c, FockPair(r, s), FockOutcome(n - q, n))) ** 2
                          for n in range(max(q, 0), max(q, 0) + levels)])
    assert np.all(np.isfinite(probs))
    assert abs(probs.sum() - 1.0) <= 1e-10


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
