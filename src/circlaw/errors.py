"""Exception types shared across the package."""

__all__ = ["CirclawError", "ShapeError", "InvalidValueError", "BudgetViolationError",
           "MeasureError", "SingularSupportError", "DomainError", "ValidationError",
           "NumericalConsistencyError"]


class CirclawError(Exception):
    """Base class for all package-specific errors."""


class ShapeError(CirclawError, ValueError):
    """Matrix or vector dimensions are invalid or inconsistent."""


class InvalidValueError(CirclawError, ValueError):
    """An input contains non-finite or otherwise inadmissible values."""


class BudgetViolationError(CirclawError, ValueError):
    """A realized perturbation exceeds its declared rank or norm budget."""


class MeasureError(CirclawError, ValueError):
    """An empirical measure is empty or otherwise unusable."""


class SingularSupportError(MeasureError):
    """A log-integral was requested for a measure with atoms at or below zero."""


class DomainError(CirclawError, ValueError):
    """Atoms or function support fall outside the required interval or region."""


class ValidationError(CirclawError, ValueError):
    """A configuration document or argument set failed validation."""


class NumericalConsistencyError(CirclawError, RuntimeError):
    """Two independent computations of the same quantity disagree beyond tolerance."""
