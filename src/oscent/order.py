"""Entropic order parameter with lattice classification."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError

# snap tolerance for recognising 2p as an integer
_LATTICE_TOL = 1e-9


@dataclass(frozen=True)
class EntropyOrder:
    """Order p of an entropic functional.

    Classifies p into the Shannon limit (p = 1), the half-integer lattice
    (2p a positive integer, where exact polynomial-power evaluation is
    possible) or a general positive real.
    """

    p: float

    def __post_init__(self):
        # 2p must stay finite for the lattice test and the radial weights
        if not (self.p > 0 and math.isfinite(2.0 * self.p)):
            raise DomainError(
                f"entropic order must be positive and finite, got {self.p}")

    @property
    def is_unity(self) -> bool:
        return self.p == 1.0

    @property
    def two_p(self) -> int | None:
        """2p as an exact integer when on the half-integer lattice, else None."""
        q = 2.0 * self.p
        r = round(q)
        if r >= 1 and abs(q - r) <= _LATTICE_TOL * max(1.0, abs(q)):
            return int(r)
        return None

    @property
    def on_lattice(self) -> bool:
        return self.two_p is not None


def as_order(p) -> EntropyOrder:
    if isinstance(p, EntropyOrder):
        return p
    return EntropyOrder(float(p))
