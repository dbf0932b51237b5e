"""Exception hierarchy shared across the package."""


class CommgateError(Exception):
    """Base class for all package-specific errors."""


class DistributionError(CommgateError, ValueError):
    """Invalid reward-prior parameters or out-of-domain evaluation."""


class QuadratureError(CommgateError, RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance.

    Carries the best available estimate in ``estimate`` (a float, or an
    array for an array call) and the summed error estimate of the pieces
    that failed in ``error_bound``.
    """

    def __init__(self, message, estimate, error_bound):
        super().__init__(message)
        self.estimate = estimate
        self.error_bound = error_bound


class ScheduleError(CommgateError, ValueError):
    """Communication schedule violates the window layout rules."""


class SolverError(CommgateError, RuntimeError):
    """Threshold solver failed to converge; ``diagnostics`` has details."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class ConfigError(CommgateError, ValueError):
    """Invalid simulation or experiment configuration."""


class DatasetError(CommgateError, ValueError):
    """Ratings table could not be loaded or fitted."""
