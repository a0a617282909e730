"""Exception hierarchy.

All library-specific failures derive from FlatLimitError so callers can
distinguish numerical trouble from programming errors (plain ValueError /
TypeError are still raised for malformed arguments).
"""


class FlatLimitError(Exception):
    """Base class for all numerical and configuration failures."""


class ConfigError(FlatLimitError):
    """Invalid or inconsistent experiment configuration."""


class QuadratureError(FlatLimitError):
    """Adaptive quadrature left its error estimate above the requested
    tolerance."""


class SingularMatrixError(FlatLimitError):
    """Linear system singular at the working precision."""


class NumericallyIndefiniteError(FlatLimitError):
    """A symmetric matrix that should be positive definite failed its
    Cholesky factorization at the working precision.  The usual fix is to
    increase the precision, not to regularize the matrix."""


class NotUnisolventError(FlatLimitError):
    """Point set does not determine polynomial interpolation of the
    requested degree (singular Vandermonde system)."""


class NumericalInconsistencyError(FlatLimitError):
    """Two evaluations that must agree up to roundoff disagreed by more
    than the plausible cancellation budget.  Indicates insufficient
    precision or a broken precondition rather than an expected failure."""
