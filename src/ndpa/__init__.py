"""Two-mode non-degenerate parametric amplifier with a harmonic pump.

The interaction H = i[g(t) ab - g*(t) a+b+] is solved exactly through the
factorized SU(1,1) evolution operator exp(A+ K+) exp(2 A0 K0) exp(A- K-),
whose closed forms split into three regimes by k^2 against 1.  The package
exposes those coefficients and the Bogoliubov pair a(t) = u a + v b+
(``weinorman``), transition probabilities and certified normalization sums
(``amplitudes``), normal-ordered moments (``moments``), photon statistics,
squeezing, signal-to-noise and diagonalization results (``observables``),
start states and revival times (``model``), a truncated-Fock propagator that
checks them independently (``oracle``) and the CSV scenario runner (``cli``).
"""

from types import ModuleType as _ModuleType

from .model import (CoherentPair, CoherentRevival, CustomPump, FockOutcome,
                    FockPair, HarmonicPump, ModelParams, ParityError,
                    PumpProfile, PureAModeState, RegimeError, RegimeTag,
                    RevivalSpec, TabulatedPump, classify_regime,
                    coherent_revival_params, fock_revival_times)
from .weinorman import (AnalyticSolution, IntegrationError,
                        WeiNormanCoefficients, coefficients, derived_scalars,
                        scalars, solve_analytic, solve_ode,
                        unitarity_residuals)
from .amplitudes import (amode_norm, amode_prob, coherent_mean_numbers,
                         coherent_revival_prob, coherent_transition_prob,
                         effective_temperature, fock11_norm, fock11_prob,
                         fock_amplitude, reduced_density_a, reduced_density_b,
                         vacuum_norm, vacuum_prob)
from .moments import MomentTable, second_moments
from .observables import (DiagonalizationResult, SnrExtremum, SnrReport,
                          SqueezingKernel, asymptotic_minima_period,
                          cross_correlation_fock, cross_correlation_general,
                          instantaneous_diagonalization, mandel_q_coherent,
                          mandel_q_fock, mandel_q_fock_max, mean_photon_fock,
                          quadrature_variance, snr_eta_coherent,
                          snr_rho_extrema, snr_rho_fock, snr_rho_limit,
                          snr_rho_min_value, squeezing_extrema,
                          squeezing_kernel)
from .oracle import (OracleConfig, TruncatedState, TruncationError,
                     amode_state, coherent_state, edge_mass, evolve_converged,
                     evolve_starts, evolve_truncated, fock_state, oracle_moment,
                     oracle_probability)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")
           and not isinstance(globals()[name], _ModuleType)]
