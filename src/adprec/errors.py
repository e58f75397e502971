"""Exception types shared across the package."""


class AdprecError(Exception):
    """Base class for all package-specific errors."""


class ShapeMismatch(AdprecError):
    """Block shapes of two structured points (or a point and its space) disagree."""


class NonPositiveDefinite(AdprecError):
    """A matrix that must be positive definite has a non-positive eigenvalue.

    Raised by negative matrix powers and log-traces.  For preconditioner
    states this signals corruption: accumulation can only grow eigenvalues,
    so a value below the floor means the state was built incorrectly.
    """


class InvalidConfig(AdprecError):
    """A configuration value is out of its legal range or inconsistent."""


class NonFiniteIterate(AdprecError):
    """An optimizer iterate or record value became NaN or infinite."""
