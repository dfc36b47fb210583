"""Entropic measures of three-dimensional isotropic harmonic oscillator states.

Renyi, Shannon, and Tsallis entropies of oscillator eigenstates split into
radial and angular parts, each computed by several independent exact routes,
together with large-n asymptotic regimes, position-momentum uncertainty
sums, and a brute-force full-space oracle for cross-checking.
"""

__version__ = "0.1.0"

from .angular import AngularResult, AngularState, renyi_angular, shannon_angular
from .entropy import (
    SHANNON_SUM_BOUND,
    ConjugatePair,
    EntropyDecomposition,
    UncertaintyRecord,
    disequilibrium,
    momentum_renyi,
    renyi_sum_bound,
    renyi_total,
    shannon_total,
    tsallis_from_renyi,
    uncertainty_sum,
)
from .errors import AccuracyError, DomainError
from .oracle import full_density, renyi_full, shannon_full
from .order import EntropyOrder, as_order
from .radial import (
    LaguerreNorm,
    OscillatorParams,
    QuantumState,
    closed_n1l,
    energy,
    laguerre_norm,
    radial_density,
    renyi_radial_exact,
    shannon_radial_exact,
)

# the large-n names load on first use, with rydberg's module-level import of
# scipy.special, which importing oscent or oscent.cli leaves out
_RYDBERG = ("AsymptoticValue", "RegimeConstant", "bessel_constant",
            "cosine_constant", "renyi_radial_asymptotic",
            "shannon_radial_asymptotic")

__all__ = [
    "__version__",
    "AngularResult", "AngularState", "renyi_angular", "shannon_angular",
    "SHANNON_SUM_BOUND", "ConjugatePair", "EntropyDecomposition",
    "UncertaintyRecord", "disequilibrium", "momentum_renyi",
    "renyi_sum_bound", "renyi_total", "shannon_total", "tsallis_from_renyi",
    "uncertainty_sum",
    "AccuracyError", "DomainError", "full_density", "renyi_full", "shannon_full",
    "EntropyOrder", "as_order",
    "LaguerreNorm", "OscillatorParams", "QuantumState", "closed_n1l",
    "energy", "laguerre_norm", "radial_density", "renyi_radial_exact",
    "shannon_radial_exact",
    *_RYDBERG,
]


def __getattr__(name: str):
    if name in _RYDBERG:
        from . import rydberg
        return getattr(rydberg, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
