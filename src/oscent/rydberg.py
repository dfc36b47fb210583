"""High-n asymptotics of the radial Renyi entropy and its regime constants.

For n -> infinity the Laguerre norm integral is dominated by different
regions of the half-line depending on the order p: the oscillatory bulk
(cosine regime, p < 3/2), the origin where the polynomials look like Bessel
functions (p > 3/2), or the matching region between the two (p = 3/2).
Each branch carries its own constant; the transition branch has an unknown
O(1) remainder and is flagged with a caveat.  The Bessel constant sums
panels between the zeros of J_alpha(2t); its head [0, z_1] holds nearly all
of it, is started by specfun.plan_panels' mass bound, its dropped piece checked
by power_panels and its sum certified by settled, as the radial head is; a head
below the next lobe raises AccuracyError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import jv, jvp, zeta

from . import specfun
from .errors import AccuracyError, DomainError
from .order import as_order
from .radial import OscillatorParams

__all__ = [
    "P_STAR", "CAVEAT", "RegimeConstant", "AsymptoticValue", "cosine_constant",
    "bessel_constant", "bessel_zeros", "renyi_radial_asymptotic",
    "shannon_radial_asymptotic",
]

P_STAR = 1.5
CAVEAT = "asymptotic value carries an undetermined order-one remainder"

_LN_2 = math.log(2.0)
_LN_PI = math.log(math.pi)

# transition-branch prefactor 8 sqrt(2) / (3 pi^{5/2})
_TRANSITION_CONST = 8.0 * math.sqrt(2.0) / (3.0 * math.pi ** 2.5)

# agreement of the Bessel-constant estimates at 40, 80 (and 160) zeros
_BESSEL_TOL = 1e-7
# specfun.settled's tolerance on the head [0, z_1]: it holds nearly all of C_B
# (99.4% at alpha = 100.5, p = 8), so it is certified two digits below _BESSEL_TOL
_HEAD_TOL = 1e-9


@dataclass(frozen=True)
class RegimeConstant:
    """Constant of one asymptotic regime and its log; log_value = inf marks divergence."""

    kind: str                 # "cosine" | "bessel"
    value: float | None       # None past the float range
    log_value: float
    alpha: float | None       # Bessel order; None for the cosine kind
    beta: float
    p: float

    @property
    def divergent(self) -> bool:
        return self.log_value == math.inf


@dataclass(frozen=True)
class AsymptoticValue:
    """Leading-order entropy value with its regime classification."""

    value: float
    regime: str               # "cosine" | "transition" | "bessel"
    leading_exponent: float   # coefficient of ln n
    caveat: bool              # unknown O(1)/o(1) remainder
    n: int
    l: int
    p: float


def _is_pole(a: float) -> bool:
    return a <= 0 and abs(a - round(a)) < 1e-12


def cosine_constant(p) -> RegimeConstant:
    """Bulk-regime constant C(beta, p) with beta = (1-p)/2.

    C = 2^{beta+1}/pi^{p+1/2} Gamma(3/2-p) Gamma(1-p/2) Gamma(p+1/2)
        / (Gamma(beta+2-p) Gamma(1+p)).
    Diverges exactly at p = 3/2 where Gamma(3/2-p) has its pole.
    """
    order = as_order(p)
    pf = order.p
    beta = 0.5 * (1.0 - pf)
    num_args = (1.5 - pf, 1.0 - 0.5 * pf, pf + 0.5)
    den_args = (beta + 2.0 - pf, 1.0 + pf)
    if any(_is_pole(a) for a in num_args):
        return RegimeConstant("cosine", math.inf, math.inf, None, beta, pf)
    if any(_is_pole(a) for a in den_args):
        return RegimeConstant("cosine", 0.0, -math.inf, None, beta, pf)
    value = (2.0 ** (beta + 1.0) / math.pi ** (pf + 0.5)
             * math.gamma(num_args[0]) * math.gamma(num_args[1])
             * math.gamma(num_args[2])
             / (math.gamma(den_args[0]) * math.gamma(den_args[1])))
    return RegimeConstant("cosine", value, math.log(value), None, beta, pf)


@lru_cache(maxsize=specfun._RULE_CACHE)
def bessel_zeros(alpha: float, count: int) -> tuple[float, ...]:
    """First `count` positive zeros of J_alpha: sign-scan brackets, Newton polish.

    Works for any real order >= 0, unlike the integer-only library tables.
    A grid of step pi/8, reaching 2 pi + 10 past (count + alpha/2) pi (the
    McMahon estimate of the count-th zero is (count + alpha/2 - 1/4) pi),
    brackets each zero by a sign change; too few brackets raise.  Newton
    steps on J_alpha / J_alpha' from secant starts stop once every step is a
    few ulp.  The brackets are disjoint, so a zero that stays in its bracket
    is the one zero there.
    """
    if alpha < 0:
        raise DomainError(f"Bessel order must be >= 0, got {alpha}")
    if count <= 0:
        return ()
    grid = np.arange(max(0.5, 0.9 * alpha), (count + 0.5 * alpha + 2.0) * math.pi + 10.0,
                     math.pi / 8.0)
    vals = jv(alpha, grid)
    i = np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0][:count]
    if i.size < count:
        raise AccuracyError(f"bracketed {i.size} of {count} zeros of J_{alpha}")
    lo, hi, f_lo, f_hi = grid[i], grid[i + 1], vals[i], vals[i + 1]
    z = lo - f_lo * (hi - lo) / (f_hi - f_lo)
    ulps = 4 * np.finfo(float).eps * z
    for _ in range(8):
        step = jv(alpha, z) / jvp(alpha, z)
        z = z - step
        if np.all(np.abs(step) <= ulps):
            break
    if np.any(np.abs(step) > ulps) or not np.all((lo < z) & (z < hi)):
        raise AccuracyError(f"Newton polishing of the J_{alpha} zeros failed to "
                            f"settle inside their brackets")
    return tuple(float(v) for v in z)


def _bessel_partial_terms(alpha: float, beta: float, p: float, kzeros: int) -> np.ndarray:
    """Head plus inter-zero contributions to the C_B integral, in t.

    specfun.power_panels of |J_alpha(2t) / t^alpha|^{2p} t^{2 beta + 1 + 2p alpha}
    on [0, z_1], and of |J_alpha(2t)|^{2p} t^{2 beta + 1} between consecutive
    zeros, where J_alpha(2t) / t^alpha underflows at high alpha p.  The
    head's ratio is exp(ln|J| - alpha ln t), and its ends, panels and sum, in
    long double: no float power of t is taken, the head holds past the float
    range, and a node where the ratio underflows adds 0.  The head sits
    beside the turning point 2t = alpha, where the ratio falls steeply, and
    specfun.plan_panels slices it against its edge power, the root z_1 and
    the rate (2 alpha + 1) p / z_1: the head is the planner's integrand times
    e^(rate t) (1 + t/z_1)^2p prod_(k>=2) (1 - t^2/z_k^2)^2p (DLMF 10.21.15),
    which never falls, so the planner's mass bound holds for the head, and
    power_panels checks the piece dropped.  specfun.settled certifies it, and
    the inter-zero panels take one pass.  For p > 3/2 the lobes shrink past
    the first: a head below the first inter-zero panel raises AccuracyError.
    """
    q2 = 2.0 * p
    zs = np.array(bessel_zeros(alpha, kzeros + 1)) / 2.0  # zeros of J_a(2t)

    def ratio(t, *_):
        with np.errstate(divide="ignore"):  # ln 0 = -inf: the node adds 0
            ln_j = np.log(np.abs(jv(alpha, 2.0 * t.astype(float))), dtype=np.longdouble)
        return np.exp(ln_j - alpha * np.log(t))

    what = f"Bessel head panel for (alpha={alpha}, p={p})"
    edges = ((0.0, 2.0 * beta + 1.0 + q2 * alpha), None)
    slices = specfun.plan_panels(np.longdouble([0, zs[0]]), ["edge", "root"], edges, q2,
                                 (2.0 * alpha + 1.0) * p / zs[0], what)
    head, _ = specfun.settled(
        lambda m: specfun.power_panels(slices, ratio, q2, edges, m), _HEAD_TOL, what)
    rest = specfun.power_panels([(a, b, "root", "root") for a, b in zip(zs, zs[1:])],
                                lambda t, *_: jv(alpha, 2.0 * t.astype(float)), q2,
                                ((0.0, 2.0 * beta + 1.0), None), specfun._NODES)
    if not head >= rest[0]:
        raise AccuracyError(f"{what}: {float(head)} is below the first inter-zero "
                            f"panel {rest[0]}, so its lobe is lost")
    return np.concatenate(([head], rest))


@lru_cache(maxsize=specfun._RULE_CACHE)
def bessel_constant(alpha: float, p: float) -> RegimeConstant:
    """Origin-regime constant C_B = 2 int_0^inf t^{2 beta + 1} |J_alpha(2t)|^{2p} dt
    at beta = (1 - p)/2.

    Summed between consecutive Bessel zeros; the algebraic k^{-s} tail
    (s = p - 2 beta - 1 = 2p - 2 > 1, from the t^{2 beta + 1 - p} envelope)
    is closed with a three-term Hurwitz-zeta fit, as averaging cannot speed
    up this monotone tail.  The estimates at 40 and 80 zeros share one list of
    terms, the first 41 of the 81; a third at 160 zeros decides when they
    disagree.  They are long double, and ln C_B is carried beside C_B.
    """
    if alpha < 0:
        raise DomainError(f"Bessel order must be >= 0, got {alpha}")
    if not p > P_STAR:
        raise DomainError(
            f"Bessel-regime integral diverges for p <= 3/2, got p={p}")
    beta = 0.5 * (1.0 - p)
    mu = 2.0 * beta + 1.0 + 2.0 * p * alpha
    if not mu > -1.0:
        raise DomainError(
            f"origin exponent {mu} <= -1: integral diverges at zero")
    s = p - 2.0 * beta - 1.0

    def estimate(terms: np.ndarray) -> float:
        k = len(terms)  # the head and k - 1 inter-zero panels
        partial = np.sum(terms)
        # fit T_k = a0 k^{-s} + a1 k^{-s-1} + a2 k^{-s-2} on the last panels
        nfit = min(12, k - 5)
        ks = np.arange(k - nfit, k, dtype=float)
        design = np.stack([ks ** (-s), ks ** (-s - 1), ks ** (-s - 2)], axis=1)
        coef, *_ = np.linalg.lstsq(design, terms[-nfit:].astype(float), rcond=None)
        rem = coef[0] * zeta(s, k) + coef[1] * zeta(s + 1, k) + coef[2] * zeta(s + 2, k)
        return partial + rem

    terms = _bessel_partial_terms(alpha, beta, p, 80)
    v1, v2 = estimate(terms[:41]), estimate(terms)
    # written as `not <=` so that a NaN estimate fails the test
    if not abs(v1 - v2) <= _BESSEL_TOL * abs(v2):
        v3 = estimate(_bessel_partial_terms(alpha, beta, p, 160))
        if not abs(v2 - v3) <= _BESSEL_TOL * abs(v3):
            raise AccuracyError(
                f"Bessel-constant tail did not converge for "
                f"(alpha={alpha}, p={p})",
                estimate=float(2 * v3), error_bound=float(abs(v2 - v3) / abs(v3)))
        v2 = v3
    return RegimeConstant("bessel", float(2 * v2) if v2 < np.finfo(float).max / 2 else None,
                          float(np.log(2 * v2)), alpha, beta, p)


def renyi_radial_asymptotic(n: int, l: int, params=None, p=2.0) -> AsymptoticValue:
    """Leading-order radial Renyi entropy of a high-n oscillator state.

    Cosine branch (p < 3/2):   [ (3/2)(p-1) ln lam + ln C + ((1-p)/2) ln(2 n^3) ]/(1-p);
    transition (p = 3/2):      -2 ln[ lam^{3/4} (8 sqrt2/(3 pi^{5/2})) n^{-3/4} ln n ],
    with an unknown O(1) inside the logarithm (caveat flag);
    Bessel branch (p > 3/2):   [ (p-1) ln(2 lam^{3/2}) + ln C_B + ((p-3)/2) ln n ]/(1-p),
    with C_B at order alpha = l + 1/2.
    """
    if n < 1:
        raise DomainError(f"asymptotic value needs n >= 1, got {n}")
    if l < 0:
        raise DomainError(f"orbital number must be >= 0, got l={l}")
    order = as_order(p)
    if order.is_unity:
        raise DomainError("p = 1 is the Shannon limit; use shannon_radial_asymptotic")
    params = params or OscillatorParams()
    pf = order.p
    lnlam = math.log(params.lam)
    if pf < P_STAR:
        c = cosine_constant(pf)
        value = ((1.5 * (pf - 1.0) * lnlam + c.log_value) / (1.0 - pf)
                 + 0.5 * _LN_2 + 1.5 * math.log(n))
        return AsymptoticValue(value, "cosine", 1.5, False, n, l, pf)
    if pf == P_STAR:
        if n < 2:
            raise DomainError("transition branch needs n >= 2 (ln ln n term)")
        value = -2.0 * (0.75 * lnlam + math.log(_TRANSITION_CONST)
                        - 0.75 * math.log(n) + math.log(math.log(n)))
        return AsymptoticValue(value, "transition", 1.5, True, n, l, pf)
    cb = bessel_constant(l + 0.5, pf)
    value = (((pf - 1.0) * (_LN_2 + 1.5 * lnlam) + cb.log_value)
             / (1.0 - pf) + 0.5 * (pf - 3.0) / (1.0 - pf) * math.log(n))
    return AsymptoticValue(value, "bessel", 0.5 * (pf - 3.0) / (1.0 - pf),
                           False, n, l, pf)


def shannon_radial_asymptotic(n: int, params=None) -> float:
    """Leading term of the radial Shannon entropy for large n.

    S ~ (3/2) ln n - (3/2) ln lam + ln pi - 1.
    """
    if n < 1:
        raise DomainError(f"asymptotic value needs n >= 1, got {n}")
    params = params or OscillatorParams()
    return 1.5 * math.log(n) - 1.5 * math.log(params.lam) + _LN_PI - 1.0
