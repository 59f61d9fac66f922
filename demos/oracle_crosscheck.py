"""Cross-check closed forms against the truncated-space propagator.

The truncated propagator integrates the Schrodinger equation in a
photon-number-bounded basis, one block per conserved charge n_a - n_b.
Because the truncated generator stays anti-Hermitian the norm is conserved
even when the basis is too small, so convergence is certified by doubling
the cutoff and watching the probe value stabilize.
"""

import math

from ndpa import (CoherentPair, FockPair, HarmonicPump, ModelParams,
                  OracleConfig, coherent_revival_prob, edge_mass,
                  evolve_converged, evolve_truncated, fock11_prob, fock_state,
                  oracle_probability, solve_analytic)


def main():
    params = ModelParams.from_k2(0.5, g=1.0, omega_a=3.0, omega_b=2.0)
    pump = HarmonicPump.from_params(params)
    t = 2.0

    print("Probability p_11 from |1,1> at k^2 = 0.5, gt = 2:")
    print("  closed form          : %.12f"
          % fock11_prob(solve_analytic(params, t), 1))
    value, state, cutoff = evolve_converged(
        pump, params, lambda c: fock_state(c, 1, 1), t,
        lambda s: oracle_probability(s, 1, 1),
        OracleConfig(cutoff=16, tol=1e-11))
    print("  truncated propagator : %.12f  (converged at cutoff %d)"
          % (value, cutoff))
    print("  edge mass diagnostic : %.2e" % edge_mass(state))

    print()
    print("Why norm conservation alone cannot certify the cutoff:")
    for cutoff in (16, 32, 64):
        st = evolve_truncated(pump, params, fock_state(cutoff, 1, 1), t,
                              OracleConfig(cutoff=cutoff, tol=1e-12))
        print("  cutoff %3d: |1 - norm| = %.1e   edge mass = %.2e"
              "   p_11 = %.10f"
              % (cutoff, abs(1.0 - st.total_norm()), edge_mass(st),
                 oracle_probability(st, 1, 1)))
    print("  the norm is flat; only the edge mass and the probe move.")

    print()
    params = ModelParams.from_k2(9.0 / 5.0, g=1.0, omega_a=3.0, omega_b=2.0)
    t_rev = math.pi * math.sqrt(20.0)
    prob, _ = coherent_revival_prob(solve_analytic(params, t_rev),
                                    CoherentPair(1.0, 1.0))
    print("Coherent revival (k^2 = 9/5, alpha = beta = 1) closed form: "
          "%.10f" % prob)
    print("(the truncated propagator reproduces this; see tests/)")


if __name__ == "__main__":
    main()
