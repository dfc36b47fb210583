"""Shared exception types for domain and accuracy failures."""


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

