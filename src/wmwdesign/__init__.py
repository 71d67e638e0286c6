"""Power analysis and optimal sample-size allocation for the Wilcoxon-Mann-Whitney test."""

from .design import CurvePoint, DesignReport, optimal_design, power_curve
from .distributions import (
    DistributionSpec,
    ParameterError,
    chi_square,
    exponential,
    log_normal,
    normal,
    student_t,
)
from .exact_null import (
    CriticalValue,
    ExactNullTable,
    TableSizeError,
    build_table,
    critical_value,
)
from .exceedance import (
    ExceedanceSummary,
    IdentityReport,
    QuadratureAccuracyError,
    check_identities,
    prob_x_ge_y,
    second_moment_integrals,
)
from .moments import Design, MomentSummary, alt_moments, null_moments
from .power import (
    ONE_SIDED_UPPER,
    TWO_SIDED,
    AllocationSearchError,
    ConfigurationError,
    PowerQuery,
    PowerResult,
    deficiency_general,
    deficiency_symmetric,
    welch_deficiency,
    welch_optimal_omega,
    welch_power,
    wmw_power,
)
from .simulate import SimulationPlan, SimulationResult, compute_u, simulate_power

__version__ = "0.1.0"

__all__ = [
    "AllocationSearchError",
    "ConfigurationError",
    "CriticalValue",
    "CurvePoint",
    "Design",
    "DesignReport",
    "DistributionSpec",
    "ExactNullTable",
    "ExceedanceSummary",
    "IdentityReport",
    "MomentSummary",
    "ONE_SIDED_UPPER",
    "ParameterError",
    "PowerQuery",
    "PowerResult",
    "QuadratureAccuracyError",
    "SimulationPlan",
    "SimulationResult",
    "TWO_SIDED",
    "TableSizeError",
    "alt_moments",
    "build_table",
    "check_identities",
    "chi_square",
    "compute_u",
    "critical_value",
    "deficiency_general",
    "deficiency_symmetric",
    "exponential",
    "log_normal",
    "normal",
    "null_moments",
    "optimal_design",
    "power_curve",
    "prob_x_ge_y",
    "second_moment_integrals",
    "simulate_power",
    "student_t",
    "welch_deficiency",
    "welch_optimal_omega",
    "welch_power",
    "wmw_power",
]
