"""Stochastic property-trajectory dynamics over spectrally tracked quantum states.

The package simulates continuous-time Markov jump dynamics for the
definite properties of factored quantum systems: reduced states are
spectrally decomposed and tracked through eigenvalue crossings,
probability currents satisfying a continuity equation are converted into
transition rates, finite-time kernels are built by the minimal-solution
series, and Monte Carlo path ensembles reproduce the quantum single-time
probabilities.
"""

from .errors import (AmbiguousContinuation, ModalDynError, PoleInInterval,
                     ScenarioValidationError, TruncationNotConverged)
from .hilbert import (FactorSpace, check_hermitian, check_ket, evolve_on_grid,
                      partial_trace, projector_from_vector, tensor_product)
from .spectral import CrossingEvent, SpectralTrajectory, detect_crossings, track
from .algebra import (FauxBooleanAlgebra, PropertyState, composite_generating_set,
                      generate_faux_boolean, joint_distribution, joint_probability,
                      ultrafilter_state)
from .currents import CurrentMatrix, continuity_residual, current_matrix
from .kinetics import (RateMatrix, RateTrajectory, classify_singularities, master_residual,
                       pole_free_rows, rate_matrix)
from .feller import (TransitionKernel, chapman_kolmogorov_residual,
                     feller_minimal, forward_ode_kernel, honesty_deficit)
from .sampler import (EnsembleStats, JumpProcess, PathEnsemble, SamplePath,
                      ensemble_marginals, low_probability_occupancy, total_variation)
from .scenario import (BUILTINS, Scenario, Thresholds, builtin_scenarios,
                       load_scenario)
from .pipeline import (JointFamily, PipelineResult, RunReport, compute_currents,
                       compute_joint_family, compute_rates, pdot_target, run)

__version__ = "0.4.1"
