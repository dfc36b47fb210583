"""Total-state entropies assembled from radial and angular parts.

The eigenstate density factorises as rho_{n,l,m} = rho_{n,l}(r) |Y_{l,m}|^2,
so every Renyi entropy splits additively into a radial and an angular term.
Momentum-space densities are rescaled copies of position-space ones, which
turns the momentum entropy into a +3 ln lam shift and makes joint
position-momentum uncertainty sums independent of the oscillator strength.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import angular as _ang
from . import radial as _rad
from . import specfun
from .errors import DomainError
from .order import EntropyOrder, as_order
from .radial import OscillatorParams, QuantumState

__all__ = [
    "EntropyDecomposition", "ConjugatePair", "UncertaintyRecord",
    "renyi_total", "shannon_total", "tsallis_from_renyi", "disequilibrium",
    "momentum_renyi", "renyi_sum_bound", "SHANNON_SUM_BOUND",
    "uncertainty_sum",
]

_LN_PI = math.log(math.pi)

#: Shannon position-momentum lower bound in three dimensions.
SHANNON_SUM_BOUND = 3.0 * (1.0 + _LN_PI)


@dataclass(frozen=True)
class EntropyDecomposition:
    """Radial/angular split of a total entropy; total = radial + angular."""

    radial: float
    angular: float
    total: float
    space: str
    mode: str
    p: EntropyOrder
    warnings: tuple[str, ...] = ()


@dataclass(frozen=True)
class ConjugatePair:
    """Order pair (p, q) with 1/p + 1/q = 2, both above 1/2."""

    p: float
    q: float

    def __post_init__(self):
        if not self.conjugate(self.p, self.q):
            raise DomainError(f"orders are not conjugate: 1/{self.p} + 1/{self.q} != 2")

    @staticmethod
    def conjugate(p: float, q: float) -> bool:
        """Whether 1/p + 1/q = 2 to 1e-12; DomainError unless both exceed 1/2."""
        if not (p > 0.5 and q > 0.5):
            raise DomainError(f"both orders must exceed 1/2, got p={p}, q={q}")
        return abs(1.0 / p + 1.0 / q - 2.0) <= 1e-12

    @classmethod
    def of(cls, p: float) -> "ConjugatePair":
        """Pair p with its conjugate order q = p/(2p - 1)."""
        if not p > 0.5:
            raise DomainError(f"conjugate order needs p > 1/2, got p={p}")
        return cls(p, p / (2.0 * p - 1.0))


@dataclass(frozen=True)
class UncertaintyRecord:
    """Joint position-momentum entropy sum against its lower bound."""

    sum: float
    bound: float
    saturated: bool
    kind: str
    p: float
    q: float
    warnings: tuple[str, ...] = ()


def _pack(radial: float, angular: float, space: str, mode: str,
          order: EntropyOrder, warns: tuple[str, ...]) -> EntropyDecomposition:
    return EntropyDecomposition(radial, angular, radial + angular,
                                space, mode, order, warns)


def _in_space(value: float, space: str, params: OscillatorParams) -> float:
    if space == "position":
        return value
    if space == "momentum":
        return momentum_renyi(value, params)
    raise DomainError(f"unknown space tag {space!r}")


def renyi_total(state: QuantumState, params: OscillatorParams | None = None,
                p=2.0, mode: str = "exact", *,
                space: str = "position") -> EntropyDecomposition:
    """Total Renyi entropy R_p split into radial and angular parts.

    mode "exact" evaluates the finite-n radial integral; "asymptotic" takes
    the large-n regime value instead (angular part stays exact).  The
    momentum-space value only differs by the scale shift on the radial
    term.
    """
    order = as_order(p)
    if order.is_unity:
        raise DomainError("p = 1 is the Shannon limit; use shannon_total")
    params = params or OscillatorParams()
    ang = _ang.renyi_angular(state.angular, order.p)
    warns: tuple[str, ...] = ()
    if mode == "exact":
        rad = _rad.renyi_radial_exact(state, params, order.p)
    elif mode == "asymptotic":
        from . import rydberg as _ryd
        asym = _ryd.renyi_radial_asymptotic(state.n, state.l, params, order.p)
        rad = asym.value
        if asym.caveat:
            warns += (_ryd.CAVEAT,)
    else:
        raise DomainError(f"unknown mode {mode!r}")
    return _pack(_in_space(rad, space, params), ang.renyi, space, mode, order,
                 warns)


def shannon_total(state: QuantumState, params: OscillatorParams | None = None,
                  mode: str = "exact", *,
                  space: str = "position") -> EntropyDecomposition:
    """Total Shannon entropy S = S_radial + S[Y_{l,m}]."""
    params = params or OscillatorParams()
    ang = _ang.shannon_angular(state.angular)
    warns: tuple[str, ...] = ()
    if mode == "exact":
        rad = _rad.shannon_radial_exact(state, params)
    elif mode == "asymptotic":
        from . import rydberg as _ryd
        rad = _ryd.shannon_radial_asymptotic(state.n, params)
    else:
        raise DomainError(f"unknown mode {mode!r}")
    return _pack(_in_space(rad, space, params), ang, space, mode, as_order(1.0),
                 warns)


def tsallis_from_renyi(r: float, p) -> float | None:
    """Tsallis entropy T_p = (e^{(1-p) r} - 1)/(1 - p); T_1 = r.

    A formula in r alone, which expm1 keeps smooth up to p = 1: unlike the
    entropies it takes the orders of the near-1 band, which EntropyOrder
    rejects.  None past the float range.
    """
    pf = float(p)
    if not (pf > 0 and math.isfinite(pf)):
        raise DomainError(f"entropic order must be positive and finite, got {pf}")
    if pf == 1.0:
        return r
    try:
        return math.expm1((1.0 - pf) * r) / (1.0 - pf)
    except OverflowError:  # e^x - 1 = e^x here, and |1 - p| > 1 may bring T back
        t = specfun._exp_or_none((1.0 - pf) * r - math.log(abs(1.0 - pf)))
        return None if t is None else math.copysign(t, 1.0 - pf)


def disequilibrium(state: QuantumState,
                   params: OscillatorParams | None = None) -> float | None:
    """Average density <rho> = exp(-R_2), None past the float range."""
    return specfun._exp_or_none(-renyi_total(state, params, 2.0).total)


def momentum_renyi(position_value: float,
                   params: OscillatorParams | None = None) -> float:
    """Momentum-space entropy from the position-space one: add 3 ln lam.

    The momentum density is a dilated copy of the position density, so the
    shift is the same for every Renyi order and for Shannon.
    """
    params = params or OscillatorParams()
    return position_value + 3.0 * math.log(params.lam)


def _order_term(t: float) -> float:
    # ln(t)/(1-t) continued through the removable point t = 1
    if abs(t - 1.0) < 1e-14:
        return -1.0
    return math.log(t) / (1.0 - t)


def renyi_sum_bound(p: float, q: float) -> float:
    """Lower bound 3 ln pi - (3/2)(ln p/(1-p) + ln q/(1-q)) for the sum.

    Reduces to the Shannon bound 3(1 + ln pi) as p, q -> 1.
    """
    return 3.0 * _LN_PI - 1.5 * (_order_term(p) + _order_term(q))


def uncertainty_sum(state: QuantumState,
                    params: OscillatorParams | None = None,
                    pair: ConjugatePair | tuple[float, float] | None = None,
                    entropy_kind: str = "renyi", *,
                    mode: str = "exact",
                    allow_nonconjugate: bool = False) -> UncertaintyRecord:
    """Position-momentum entropy sum with its saturable lower bound.

    Renyi kind sums R_p over position and R_q over momentum for a conjugate
    pair; Shannon kind uses p = q = 1.  The lam shifts cancel, so the sum is
    scale-free.  A plain (p, q) tuple is accepted in place of a pair; a
    non-conjugate tuple is rejected unless allow_nonconjugate is set, in
    which case the identity sum and formula bound are still reported with a
    warning (the inequality is only guaranteed on conjugate pairs).
    """
    params = params or OscillatorParams()
    warns: tuple[str, ...] = ()
    if entropy_kind == "shannon":
        pos = shannon_total(state, params, mode)
        mom = momentum_renyi(pos.total, params)
        warns += pos.warnings
        total = pos.total + mom
        bound = SHANNON_SUM_BOUND
        pv = qv = 1.0
    elif entropy_kind == "renyi":
        if pair is None:
            raise DomainError("renyi uncertainty sum needs an order pair")
        if isinstance(pair, ConjugatePair):
            pv, qv = pair.p, pair.q
        else:
            pv, qv = float(pair[0]), float(pair[1])
            if not allow_nonconjugate:
                ConjugatePair(pv, qv)
            elif not ConjugatePair.conjugate(pv, qv):
                warns += ("order pair is not conjugate; the reported bound "
                          "is the formula value, not a guaranteed minimum",)
        pos = renyi_total(state, params, pv, mode)
        mom_pos = renyi_total(state, params, qv, mode)
        warns += pos.warnings + mom_pos.warnings
        total = pos.total + momentum_renyi(mom_pos.total, params)
        bound = renyi_sum_bound(pv, qv)
    else:
        raise DomainError(f"unknown entropy kind {entropy_kind!r}")
    return UncertaintyRecord(total, bound, abs(total - bound) < 1e-9,
                             entropy_kind, pv, qv, warns)
