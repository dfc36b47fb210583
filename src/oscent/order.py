"""Entropic order parameter with lattice classification."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError

# snap tolerance for recognising 2p as an integer
_LATTICE_TOL = 1e-9
# an order closer to 1 than this, and not the Shannon point itself, is
# rejected.  ln N / (1 - p) divides the rounding of ln N by |p - 1|: against
# mpmath and a Taylor reference, total entropies over n <= 10, l, m <= 4 are
# off by up to 5.5e-15 / |p - 1|, which is 4.7e-10 just past this edge and
# 4.6e-9 at 1e-6.  The factor grows with l (3.6e-14 at l = 20).
_NEAR_UNITY_BAND = 1e-5


@dataclass(frozen=True)
class EntropyOrder:
    """Order p of an entropic functional.

    Classifies p into the Shannon limit (|p - 1| <= 1e-12), the half-integer
    lattice (2p a positive integer, where exact polynomial-power evaluation
    is possible) or a general positive real.  Orders with
    1e-12 < |p - 1| < 1e-5 raise DomainError.
    """

    p: float

    def __post_init__(self):
        # 2p must stay finite for the lattice test and the radial weights
        if not (self.p > 0 and math.isfinite(2.0 * self.p)):
            raise DomainError(
                f"entropic order must be positive and finite, got {self.p}")
        if not self.is_unity and abs(self.p - 1.0) < _NEAR_UNITY_BAND:
            raise DomainError(
                f"entropic order p={self.p!r} lies in the near-1 band "
                f"1e-12 < |p - 1| < {_NEAR_UNITY_BAND:g}, where "
                "ln N / (1 - p) loses its digits; use p = 1 (Shannon) or an "
                "order outside the band")

    @property
    def is_unity(self) -> bool:
        """Whether p is the Shannon point, to |p - 1| <= 1e-12."""
        return abs(self.p - 1.0) <= 1e-12

    @property
    def two_p(self) -> int | None:
        """2p as an exact integer when on the half-integer lattice, else None."""
        q = 2.0 * self.p
        r = round(q)
        if r >= 1 and abs(q - r) <= _LATTICE_TOL * max(1.0, abs(q)):
            return int(r)
        return None


def as_order(p) -> EntropyOrder:
    if isinstance(p, EntropyOrder):
        return p
    return EntropyOrder(float(p))
