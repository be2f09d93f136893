"""isoflow: simulator and verification harness for the nonlocal heat equation
rho(x) u_t = J*u - u in an inhomogeneous medium."""

from .kernels import Kernel, KernelError, Stencil, discretize, stencil_second_moment
from .grids import (DomainMask, Field, Grid, GridError, convolve_direct,
                    convolve_fft, integrate, lp_local_distance, read_snapshot,
                    write_snapshot)
from .media import (Medium, MediumClassification, MediumError, classify,
                    default_alpha, floor, quadratic_growth_constant, weighted_mean)
from .solver import (NumericalAbort, Probes, SolverConfig, SolverError,
                     Trajectory, monotone_approx_run, picard_solve, run,
                     stability_dt, step_euler, step_exponential, trust_radius)
from .diagnostics import (DiagnosticsRecord, dissipation_budget, lyapunov_F,
                          lyapunov_identity_check, mass, weighted_energy)
from .verify import (comparison_harness, quadratic_identity, run_suite,
                     steady_state_nullspace, supersolution_residual)
from .scenario import (ConfigError, Scenario, emit_scenario, parse_scenario,
                       parse_scenario_text, registry, run_scenario)

__version__ = "0.1.0"

__all__ = [
    "Kernel", "KernelError", "Stencil", "discretize", "stencil_second_moment",
    "DomainMask", "Field", "Grid", "GridError", "convolve_direct",
    "convolve_fft", "integrate", "lp_local_distance", "read_snapshot",
    "write_snapshot",
    "Medium", "MediumClassification", "MediumError", "classify",
    "default_alpha", "floor", "quadratic_growth_constant", "weighted_mean",
    "NumericalAbort", "Probes", "SolverConfig", "SolverError", "Trajectory",
    "monotone_approx_run", "picard_solve", "run", "stability_dt", "step_euler",
    "step_exponential", "trust_radius",
    "DiagnosticsRecord", "dissipation_budget", "lyapunov_F",
    "lyapunov_identity_check", "mass", "weighted_energy",
    "comparison_harness", "quadratic_identity", "run_suite",
    "steady_state_nullspace", "supersolution_residual",
    "ConfigError", "Scenario", "emit_scenario", "parse_scenario",
    "parse_scenario_text", "registry", "run_scenario",
]
