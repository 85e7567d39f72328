"""Semilinear heat flow with a nonlinear memory boundary flux.

The package simulates u_t = Laplacian(u) + c(t) u^p on an interval whose
endpoints accumulate flux k(t) * integral of u^q over the past, classifies
(p, q, c, k) into global-existence and blow-up regimes, builds verifiable
barrier functions for the global regimes, and cross-checks blow-up against
a radial comparison ODE.
"""

from .coeffs import (CONVERGES, DIVERGES, FAMILIES, ZERO,
                     CoefficientSpec, CumulativeIntegral, Flux, GrowthForm,
                     IntegralVerdict, WindowBound, coefficient_sup,
                     eval_coeff, growth_form, integrate_improper,
                     memory_window_check, spec_from_json, spec_to_json,
                     tail_verdict)
from .constructions import (AuxiliarySolution, DominationReport,
                            ResidualReport, SupersolutionSpec,
                            build_th00_supersolution, build_th2_supersolution,
                            build_th4_supersolution, check_domination,
                            small_data_threshold, solve_auxiliary_linear,
                            verify_supersolution, z_profile)
from .criteria import (REGIME_BLOWUP_ALL, REGIME_BOUNDED_SMALL,
                       REGIME_GLOBAL_ALL, REGIME_GLOBAL_SMALL,
                       REGIME_INDETERMINATE, ConditionReport,
                       RegimeVerdict, classify_regime, effective_flux,
                       effective_flux_conditions, memory_moment_conditions,
                       total_forcing_condition, weighted_memory_conditions)
from .errors import (ConfigurationError, DomainError, NotApplicableError,
                     SolverFault)
from .ode_oracle import (DEFAULT_ODE_CONTROLS, OdeControls, OdeOutcome,
                         OdeProblem, Th0Report, check_th0_criterion,
                         energy_drift, integrate_ode)
from .pde_core import (STATUS_ABORTED, STATUS_BLOWUP, STATUS_GLOBAL,
                       BlowupEstimate, ComparisonReport, InitialSpec,
                       MemoryRule, PrescribedFluxRule, Scenario,
                       SimulationOutcome, SolverControls, Trace,
                       WeightedMemoryRule, estimate_blowup_time,
                       mass_inequality_check, run, run_group,
                       verify_comparison)
from .transform import (EquivalenceReport, equivalence_check,
                        from_transformed, to_transformed)

__version__ = "0.1.0"

__all__ = [
    "CONVERGES", "DIVERGES", "FAMILIES", "ZERO",
    "CoefficientSpec", "CumulativeIntegral", "Flux", "GrowthForm", "IntegralVerdict",
    "WindowBound", "coefficient_sup", "eval_coeff", "growth_form",
    "integrate_improper", "memory_window_check", "spec_from_json",
    "spec_to_json", "tail_verdict",
    "AuxiliarySolution", "DominationReport", "ResidualReport",
    "SupersolutionSpec", "build_th00_supersolution", "build_th2_supersolution",
    "build_th4_supersolution", "check_domination",
    "small_data_threshold", "solve_auxiliary_linear", "verify_supersolution",
    "z_profile",
    "REGIME_BLOWUP_ALL", "REGIME_BOUNDED_SMALL",
    "REGIME_GLOBAL_ALL", "REGIME_GLOBAL_SMALL", "REGIME_INDETERMINATE",
    "ConditionReport", "RegimeVerdict", "classify_regime",
    "effective_flux", "effective_flux_conditions", "memory_moment_conditions",
    "total_forcing_condition", "weighted_memory_conditions",
    "ConfigurationError", "DomainError", "NotApplicableError", "SolverFault",
    "DEFAULT_ODE_CONTROLS", "OdeControls", "OdeOutcome", "OdeProblem",
    "Th0Report", "check_th0_criterion", "energy_drift", "integrate_ode",
    "STATUS_ABORTED", "STATUS_BLOWUP", "STATUS_GLOBAL", "BlowupEstimate",
    "ComparisonReport", "InitialSpec", "MemoryRule", "PrescribedFluxRule",
    "Scenario", "SimulationOutcome", "SolverControls", "Trace",
    "WeightedMemoryRule", "estimate_blowup_time", "mass_inequality_check",
    "run", "run_group", "verify_comparison",
    "EquivalenceReport", "equivalence_check", "from_transformed",
    "to_transformed",
    "__version__",
]
