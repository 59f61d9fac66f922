"""Two-mode quadrature squeezing.

The joint quadrature X_theta mixes the two modes; its variance drops below
the vacuum level in one phase while the conjugate phase grows, keeping the
uncertainty product at or above the vacuum value.  On resonance (k = 0) the
variances are pure exponentials.
"""

import math

import numpy as np

from ndpa import (FockPair, ModelParams, asymptotic_minima_period, quadrature_variance,
                  solve_analytic, squeezing_extrema, squeezing_kernel)


def main():
    p0 = ModelParams(omega_a=3.0, omega_b=2.0, g=1.0, omega=5.0)
    print("Resonant pump (k = 0): exponential squeezing of the vacuum")
    for gt in (0.5, 1.0, 2.0):
        sol = solve_analytic(p0, gt)
        lo = squeezing_kernel(sol, 0.0).t_sq
        hi = squeezing_kernel(sol, math.pi / 2.0).t_sq
        print("  gt = %.1f   Var[X_0] = %.6f = e^-2gt   Var[X_pi/2] = %.4f"
              % (gt, lo, hi))

    print()
    params = ModelParams.from_k2(9.0 / 5.0, g=1.0, omega_a=3.0, omega_b=2.0)
    print("Detuned pump (k^2 = 9/5): periodic squeezing, product >= 1")
    for gt in np.linspace(0.0, 7.5, 6):
        sol = solve_analytic(params, gt)
        v0 = squeezing_kernel(sol, 0.0).t_sq
        v90 = squeezing_kernel(sol, math.pi / 2.0).t_sq
        print("  gt = %.2f   Var[X_0] = %7.4f   Var[X_pi/2] = %7.4f"
              "   product = %.6f" % (gt, v0, v90, v0 * v90))
    sol = solve_analytic(params, math.pi * math.sqrt(5.0))
    prod = squeezing_kernel(sol, 0.0).t_sq * squeezing_kernel(sol, math.pi / 2.0).t_sq
    print("  at gt = pi*sqrt(5) the product returns to %.12f" % prod)

    print()
    print("Fock input |2,1> scales the variance by r + s + 1 = 4")
    kernel = squeezing_kernel(solve_analytic(params, 1.3), 0.0)
    print("  Var[X_0](|2,1>) / Var[X_0](vac) = %.6f"
          % (quadrature_variance(kernel, FockPair(2, 1)) / kernel.t_sq))

    print()
    params = ModelParams.from_k2(0.5, g=1.0, omega_a=3.0, omega_b=2.0)
    print("Below threshold (k^2 = 0.5) the variance grows on average but")
    print("dips periodically; the dips settle into a fixed spacing:")
    minima = squeezing_extrema(params, 0.0, (20.0, 36.0), n_grid=8001)
    times = [t for t, _ in minima]
    for a, b in zip(times, times[1:]):
        print("  dip at gt = %.4f, next at %.4f, spacing %.4f"
              % (a, b, b - a))
    print("  asymptotic spacing: %.4f" % asymptotic_minima_period(params))


if __name__ == "__main__":
    main()
