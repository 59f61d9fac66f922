"""Signal-to-noise ratios of the amplified field.

rho measures the photon-number SNR of mode a for Fock inputs; above the
critical detuning it oscillates between closed-form extrema.  eta is the
quadrature SNR for coherent inputs and always respects the Yuen bound
4<n_a>(<n_a> + 1).
"""

import math

import numpy as np

from ndpa import (CoherentPair, FockPair, ModelParams, snr_eta_coherent,
                  snr_rho_extrema, snr_rho_fock, snr_rho_limit,
                  solve_analytic)


def main():
    params = ModelParams.from_k2(0.5, g=1.0, omega_a=3.0, omega_b=2.0)
    f = FockPair(100, 1)
    print("rho for |100,1> below threshold approaches a constant:")
    for gt in (2.0, 10.0, 25.0 / math.sqrt(0.5)):
        rho = snr_rho_fock(solve_analytic(params, gt), f)
        print("  gt = %7.3f   rho = %.6f" % (gt, rho))
    print("  asymptote: (r+s+1)/sqrt(2rs+r+s+1) = %.6f" % snr_rho_limit(f))

    print()
    print("Above threshold rho oscillates; extrema are closed-form:")
    for k2 in (1.2, 1.5, 2.0):
        ext = snr_rho_extrema(ModelParams.from_k2(k2, g=1.0, omega_a=3.0,
                                                  omega_b=2.0),
                              FockPair(1, 100))
        desc = ", ".join("%s %.5f at gt=%.3f" % (e.kind, e.value, e.time)
                         for e in ext)
        print("  k^2 = %.1f: %s" % (k2, desc))
    print("  the global minimum 2*sqrt(101/302) = %.6f is detuning-free"
          % (2.0 * math.sqrt(101.0 / 302.0)))

    print()
    params = ModelParams.from_k2(10.0, g=1.0, omega_a=3.0, omega_b=2.0)
    pair = CoherentPair(0.0, 3.0)
    print("eta for coherent input (alpha=0, beta=3) at k^2 = 10:")
    ts = np.linspace(1e-3, 14.0, 7000)
    rep = snr_eta_coherent(solve_analytic(params, ts), pair)
    i = int(np.argmax(rep.eta))
    violated = int(np.count_nonzero(~(rep.eta <= rep.yuen_bound)))  # NaN counts too
    print("  max eta = %.4f at gt = %.3f" % (rep.eta[i], ts[i]))
    print("  Yuen bound there = %.4f (ratio %.2f, %s)"
          % (rep.yuen_bound[i], rep.yuen_bound[i] / rep.eta[i],
             "bound never violated" if violated == 0
             else "bound violated at %d of %d times" % (violated, ts.size)))


if __name__ == "__main__":
    main()
