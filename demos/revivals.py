"""Quantum revivals of Fock and coherent states.

Above the critical detuning (k^2 > 1) every initial Fock state returns to
itself exactly at gt = j*pi/sqrt(k^2 - 1).  Coherent states revive only for
special rational values of k^2; for irrational k^2 the return probability
approaches but never reaches 1.
"""

import math

import numpy as np

from ndpa import (CoherentPair, ModelParams, coherent_revival_params,
                  coherent_revival_prob, fock11_prob, fock_revival_times,
                  solve_analytic)


def main():
    params = ModelParams.from_k2(1.5, g=1.0, omega_a=3.0, omega_b=2.0)
    print("Fock revivals at k^2 = 1.5 (initial state |1,1>)")
    for spec in fock_revival_times(params, n_max=3):
        s = solve_analytic(params, spec.t_rev)
        print("  gt = %8.5f   p_11 = %.12f   p_33 = %.3e"
              % (spec.t_rev, fock11_prob(s, 1), fock11_prob(s, 3)))

    print()
    rev = coherent_revival_params(6, 4)
    print("Coherent revival: n = 6, p = 4 gives k^2 = %.4f, gt = pi*sqrt(20)"
          % rev.k_squared)
    params = ModelParams.from_k2(rev.k_squared, g=1.0, omega_a=3.0,
                                 omega_b=2.0)
    pair = CoherentPair(1.0, 1.0)
    for mult in (0.5, 1.0, 1.5, 2.0):
        t = mult * math.pi * math.sqrt(20.0)
        prob, _ = coherent_revival_prob(solve_analytic(params, t), pair)
        print("  gt = %8.4f   |<a,b|psi(t)>|^2 = %.12f" % (t, prob))

    print()
    print("Irrational k^2 = pi, alpha = beta = 5: quasi-revivals only")
    params = ModelParams(omega_a=3.0, omega_b=2.0, g=1.0,
                         omega=5.0 + 2.0 * math.sqrt(math.pi))
    pair = CoherentPair(5.0, 5.0)
    ts = np.linspace(0.5, 50.0, 4951)
    probs, _ = coherent_revival_prob(solve_analytic(params, ts), pair)
    for i in range(1, len(ts) - 1):
        if probs[i] > 0.5 and probs[i] >= probs[i - 1] \
                and probs[i] >= probs[i + 1]:
            print("  quasi-revival near gt = %.2f with p = %.4f  (< 1)"
                  % (ts[i], probs[i]))


if __name__ == "__main__":
    main()
