"""Shared exception types for domain, accuracy and growth failures."""

from __future__ import annotations


class DomainError(ValueError):
    """Raised when inputs fall outside the mathematical domain of an operation."""


class AccuracyError(RuntimeError):
    """Raised when a numerical routine cannot meet its requested tolerance.

    Carries the best available estimate and the estimated error bound so
    callers can decide whether the partial result is still usable.
    """

    def __init__(self, message: str, estimate: float | None = None,
                 error_bound: float | None = None):
        super().__init__(message)
        self.estimate = estimate
        self.error_bound = error_bound


class UnboundedGrowthError(ArithmeticError):
    """Growth beyond floating-point range.

    Public for callers that catch it; no routine raises it: a power integral
    past the float range is reported as None beside its finite logarithm.
    """

    def __init__(self, message: str, context: tuple | None = None):
        super().__init__(message)
        self.context = context
