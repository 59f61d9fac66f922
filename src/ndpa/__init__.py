"""Two-mode non-degenerate parametric amplifier with a harmonic pump.

The interaction H = i[g(t) ab - g*(t) a+b+] is solved exactly through the
factorized (disentangled) evolution operator; the package exposes the
coefficient functions, transition amplitudes and probabilities, photon
statistics, squeezing and signal-to-noise observables, plus a brute-force
truncated-basis propagator used as an independent cross-check.
"""

from .model import (CoherentRevival, CustomPump, HarmonicPump, ModelParams,
                    ParityError, PumpProfile, Regime, RegimeError, RegimeTag,
                    RevivalSpec, TabulatedPump, classify_regime,
                    coherent_revival_params, fock_revival_times)
from .weinorman import (DerivedScalars, IntegrationError, RegimeAngles,
                        WeiNormanCoefficients, coefficients, derived_scalars,
                        regime_angles, scalars, solve_analytic, solve_ode,
                        unitarity_residuals)
from .amplitudes import (CoherentPair, FockOutcome, FockPair, PureAModeState,
                         amode_norm, amode_prob, coherent_mean_numbers,
                         coherent_revival_prob, coherent_transition_prob,
                         effective_temperature, fock11_norm, fock11_prob,
                         fock_amplitude, reduced_density_a, reduced_density_b,
                         vacuum_norm, vacuum_prob)
from .moments import MomentTable, second_moments
from .observables import (BogoliubovCoefficients, DiagonalizationResult,
                          SnrExtremum, SnrReport, SqueezingKernel,
                          asymptotic_minima_period, cross_correlation_fock,
                          cross_correlation_general, heisenberg_a,
                          instantaneous_diagonalization, mandel_q_coherent,
                          mandel_q_fock, mandel_q_fock_max, mean_photon_fock,
                          quadrature_variance, snr_eta_coherent,
                          snr_rho_extrema, snr_rho_fock, snr_rho_limit,
                          snr_rho_min_value, squeezing_extrema,
                          squeezing_kernel)
from .oracle import (OracleConfig, TruncatedState, TruncationError,
                     amode_state, auto_cutoff, build_generators,
                     coherent_state, edge_mass, evolve_converged,
                     evolve_truncated, fock_state, oracle_moment,
                     oracle_probability)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
