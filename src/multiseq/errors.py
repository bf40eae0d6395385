"""Exception hierarchy shared across the package. Invalid input to a
constructor, a rho that is not positive semidefinite included, raises
ValueError instead."""


class TrialDesignError(Exception):
    """Base class for all package-specific errors."""


class CalibrationError(TrialDesignError):
    """No boundary > 0 reaches the target error rate: the rejection rate
    as the boundary tends to 0+ is already at or below the target."""


class InfeasibleDesignError(TrialDesignError):
    """No sample size within the allowed range reaches the required power."""


class ConfigError(TrialDesignError):
    """A run configuration failed validation, or its null block cannot be
    allocated; the message names the field."""
