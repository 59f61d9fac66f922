"""Photon statistics: Mandel Q factor and cross-mode correlations.

The Mandel Q factor of mode a flags sub-Poissonian (non-classical) light when
negative.  The normalized cross correlation F certifies non-classical
inter-mode correlations when negative; a twin Fock start |r,r> pins F at -1
for all times.
"""

import math

import numpy as np

from ndpa import (FockPair, ModelParams, cross_correlation_fock,
                  mandel_q_fock, mandel_q_fock_max, mean_photon_fock,
                  solve_analytic)


def main():
    params = ModelParams.from_k2(1.5, g=1.0, omega_a=3.0, omega_b=2.0)
    print("Mandel Q for |0,1> at k^2 = 1.5 (oscillatory regime)")
    for gt in np.linspace(0.0, 2.5, 6):
        s = solve_analytic(params, gt)
        na, nb = mean_photon_fock(s, FockPair(0, 1))
        print("  gt = %.2f   <n_a> = %7.4f   Q = %+.4f"
              % (gt, na, mandel_q_fock(s, FockPair(0, 1))))
    print("  analytic maximum of Q: %.6f  (equals 1/(k^2-1) = %.6f)"
          % (mandel_q_fock_max(params, FockPair(0, 1)), 1.0 / 0.5))

    print()
    print("Cross correlation F(t) for twin Fock inputs |r,r>")
    for r in (1, 3):
        vals = [cross_correlation_fock(solve_analytic(params, gt),
                                       FockPair(r, r))[1]
                for gt in (0.5, 1.5, 3.0)]
        print("  r = %2d   F = %s  (pinned at -1)"
              % (r, ", ".join("%+.10f" % v for v in vals)))

    print()
    print("Positive excursion of F for |50,10> below threshold (k^2 = 0.5)")
    params = ModelParams.from_k2(0.5, g=1.0, omega_a=3.0, omega_b=2.0)
    for gt in np.linspace(0.1, 1.3, 7):
        _, big_f = cross_correlation_fock(solve_analytic(params, gt),
                                          FockPair(50, 10))
        marker = "  <-- classical-looking window" if big_f > 0 else ""
        print("  gt = %.2f   F = %+.4f%s" % (gt, big_f, marker))


if __name__ == "__main__":
    main()
