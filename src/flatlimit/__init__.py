"""Worst-case optimal cubature in Gaussian-kernel RKHSs and its flat limit.

The library computes kernel cubature weights that minimize the worst-case
error over the unit ball of a reproducing kernel Hilbert space, follows the
weights and the error as the kernel length scale grows, and compares the
flat-limit behavior against classical polynomial and Gaussian quadrature.
"""

__version__ = "0.1.0"

from .core import (
    MACHINE,
    CubatureRule,
    MultiIndex,
    MultiIndexSet,
    PointSet,
    PrecisionConfig,
    enumerate_multi_indices,
    monomial_eval,
)
from .cubature import (
    UnisolvencyReport,
    WeightSolution,
    WorstCaseReport,
    optimal_weights,
    phi_weights,
    polynomial_weights,
    unisolvency_check,
    worst_case_error,
)
from .errors import (
    ConfigError,
    FlatLimitError,
    NotUnisolventError,
    NumericalInconsistencyError,
    NumericallyIndefiniteError,
    QuadratureError,
    SingularMatrixError,
)
from .experiments import (
    OptimalRecord,
    OptimalStudyConfig,
    OptimalStudyResult,
    RateFit,
    SweepConfig,
    SweepRecord,
    SweepResult,
    fit_rate,
    run_optimal_study,
    run_sweep,
)
from .functionals import (
    FunctionalSpec,
    apply_functional,
    damped_moment,
    double_embedding,
    kernel_embedding,
    moment,
)
from .gauss_optimal import (
    GaussRule,
    OptimizationTrace,
    OptimizerSettings,
    chebyshev_system_zero_count,
    gauss_rule_from_moments,
    optimize_points,
)
from .kernels import (
    gram_matrix,
    kernel_eval,
    phi_basis_eval,
)
from .linalg import (
    SolveResult,
    auto_precision_bits,
    condition_estimate,
    solve_general,
    solve_spd,
)

__all__ = [
    "MACHINE",
    "CubatureRule",
    "MultiIndex",
    "MultiIndexSet",
    "PointSet",
    "PrecisionConfig",
    "enumerate_multi_indices",
    "monomial_eval",
    "UnisolvencyReport",
    "WeightSolution",
    "WorstCaseReport",
    "optimal_weights",
    "phi_weights",
    "polynomial_weights",
    "unisolvency_check",
    "worst_case_error",
    "ConfigError",
    "FlatLimitError",
    "NotUnisolventError",
    "NumericalInconsistencyError",
    "NumericallyIndefiniteError",
    "QuadratureError",
    "SingularMatrixError",
    "OptimalRecord",
    "OptimalStudyConfig",
    "OptimalStudyResult",
    "RateFit",
    "SweepConfig",
    "SweepRecord",
    "SweepResult",
    "fit_rate",
    "run_optimal_study",
    "run_sweep",
    "FunctionalSpec",
    "apply_functional",
    "damped_moment",
    "double_embedding",
    "kernel_embedding",
    "moment",
    "GaussRule",
    "OptimizationTrace",
    "OptimizerSettings",
    "chebyshev_system_zero_count",
    "gauss_rule_from_moments",
    "optimize_points",
    "gram_matrix",
    "kernel_eval",
    "phi_basis_eval",
    "SolveResult",
    "auto_precision_bits",
    "condition_estimate",
    "solve_general",
    "solve_spd",
    "__version__",
]
