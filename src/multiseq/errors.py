"""Exception hierarchy shared across the package."""


class TrialDesignError(Exception):
    """Base class for all package-specific errors."""


class InvalidCorrelationError(TrialDesignError):
    """A correlation matrix is not positive semidefinite (after one jitter pass)."""


class CalibrationError(TrialDesignError):
    """No boundary > 0 reaches the target error rate: the rejection rate
    as the boundary tends to 0+ is already at or below the target."""


class InfeasibleDesignError(TrialDesignError):
    """No sample size within the allowed range reaches the required power."""


class ConfigError(TrialDesignError):
    """A run configuration failed validation; the message names the field."""
