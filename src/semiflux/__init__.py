"""Numerical laboratory for a viscous isentropic gas coupled to its own
electric field through a self-consistent potential and momentum damping.

The package tracks three layers of structure side by side:

* a finite-volume solver for the damped, diffusive conservation laws,
* monitor routines that recompute the a-priori bounds the solution is
  supposed to obey (positivity, mass, field size, invariant growth,
  long-time plateaus, weak entropy inequalities),
* limit studies: a fixed-point integral iteration for short times and a
  stiff-damping sweep toward the drift-diffusion regime.
"""

from .field import field_bound, solve_field
from .model import (Boundary, ConfigurationError, DeviceProfile, GasModel,
                    Grid1D, HydroState, PressureConvention, ProfileCheck,
                    cumulative_integral, total_integral,
                    validate_uniform_hypotheses)
from .monitors import (ALL_MONITORS, EntropyPair, MonitorReport, MonitorSuite,
                       TestFunction, convexity_check, entropy_residual,
                       entropy_spot_check, evaluate_trajectory,
                       mechanical_energy_pair, plateau_check)
from .picard import (ContractionReport, HeatKernel, PicardIterate,
                     PicardResult, picard_solve, picard_step)
from .relaxation import (CouplingRule, DDTrajectory, StudyResult, StudyRow,
                         dissipation_integral, drift_diffusion_run,
                         relaxation_study)
from .scenarios import SCENARIOS, RunSetup, make_setup
from .solver import (IntegrationError, SolverConfig, SourceVariant,
                     StepReport, Trajectory, prepare_initial, run, step)

__version__ = "0.1.0"

__all__ = [
    "ALL_MONITORS", "Boundary", "ConfigurationError", "ContractionReport",
    "CouplingRule", "DDTrajectory", "DeviceProfile",
    "EntropyPair", "GasModel", "Grid1D", "HeatKernel", "HydroState",
    "IntegrationError", "MonitorReport", "MonitorSuite", "PicardIterate",
    "PicardResult", "PressureConvention",
    "ProfileCheck", "RunSetup", "SCENARIOS",
    "SolverConfig", "SourceVariant", "StepReport", "StudyResult", "StudyRow",
    "TestFunction", "Trajectory", "convexity_check", "cumulative_integral",
    "dissipation_integral", "drift_diffusion_run", "entropy_residual",
    "entropy_spot_check", "evaluate_trajectory", "field_bound",
    "make_setup", "mechanical_energy_pair", "picard_solve",
    "picard_step", "plateau_check", "prepare_initial", "relaxation_study",
    "run", "solve_field", "step", "total_integral",
    "validate_uniform_hypotheses", "__version__",
]
