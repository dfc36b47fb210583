"""Entropies of the angular factor of central-potential eigenstates.

The squared spherical harmonic |Y_{l,m}|^2 integrates against its own p-th
power by closed forms for the (l, l), (l, l-1) families, one exact
Gauss-Jacobi rule at even 2p and Gauss-Jacobi panel quadrature of the
orthonormal Jacobi row between the Gegenbauer roots at any real p.  The
paper's two analytic procedures are exact rational references: a
linearization of the Gegenbauer power into hypergeometric-type sums and a
Bell-polynomial expansion of the Jacobi power, each one call of
specfun._power_moments under long-double Gamma factors, up to degree
(l - |m|) 2p = 1000 (specfun._exact_two_p).  shannon_angular takes the
digamma closed forms of the families and log-weighted panels elsewhere.
The rule and the panels take the power-integral core the radial part
shares, specfun._rule_sum and specfun._panel_pass, whose integrand is
specfun.panel_rows on the Jacobi family at a = b = |m|, a Taylor series of
its equation about each panel centre from l - |m| = 40 on, as radial's.

renyi_angular keeps each result by (l, |m|, p) and shannon_angular each
value by (l, |m|), in caches of specfun._RULE_CACHE entries that keep no
error; the lambda_* routes stay uncached, so each reference is computed on
its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import specfun
from .errors import AccuracyError, DomainError
from .order import EntropyOrder, as_order

__all__ = [
    "AngularState", "AngularResult", "lambda_linearization", "lambda_bell",
    "lambda_quadrature", "lambda_closed", "renyi_angular", "shannon_angular",
    "shannon_route",
]

_LN_PI = math.log(math.pi)
_LN_2 = math.log(2.0)
_TWO_PI = 2.0 * math.pi
_LN_2PI = specfun._LN_2 + specfun._LN_PI  # long double, as the panel sums

# panel quadrature: the agreement the second pass of specfun.settled must reach
_RENYI_TOL = 1e-12
_SHANNON_TOL = 1e-11


@dataclass(frozen=True)
class AngularState:
    """Orbital and magnetic quantum numbers of a spherical harmonic."""

    l: int
    m: int

    def __post_init__(self):
        if self.l < 0:
            raise DomainError(f"orbital number must be >= 0, got l={self.l}")
        if abs(self.m) > self.l:
            raise DomainError(f"|m| must not exceed l, got l={self.l}, m={self.m}")

    @property
    def m_abs(self) -> int:
        # entropies depend on m only through |m|
        return abs(self.m)

    @property
    def closed_family(self) -> bool:
        """Whether the state is in the (l, l) or (l, l-1) closed-form family."""
        return self.m_abs >= self.l - 1


@dataclass(frozen=True)
class AngularResult:
    """Power integral Lambda of |Y_{l,m}|^2 and the derived entropy.

    The entropy comes from ln Lambda; lambda_value may underflow to 0.0
    beside it, and is None past the float range (ln Lambda > 709.78).
    """

    lambda_value: float | None
    renyi: float | None
    method: str
    p: EntropyOrder


def _exact_route_order(state: AngularState, p, route: str) -> tuple[EntropyOrder, int]:
    """The order and 2p of an exact route on the degree-(l - |m|) factor, or DomainError
    (specfun._exact_two_p): 2p even or l = |m|, where the factor is constant."""
    order = as_order(p)
    l, m = state.l, state.m_abs
    return order, specfun._exact_two_p(order, l - m, route,
                                       f"l={l}, m={m}, p={order.p}; use quadrature")


def _ctilde0(l: int, m: int, q: int) -> Fraction:
    """Exact rational core of the linearized 2p-fold Gegenbauer product.

    The nested sum over indices j_1 .. j_q in [0, l-m] collapses through the
    generating polynomial U(z) = sum_j u_j z^j: grouping by the total degree
    J = j_1 + ... + j_q turns it into sum_J (c)_J/(d)_J [z^J] U(z)^q, c = mp + 1
    and d = 2mp + 2, with u_j = (m-l)_j (l+m+1)_j / ((m+1)_j j!) and the
    Pochhammer ratios by their steps (specfun._power_moments).
    """
    u = [Fraction(1)]
    for j in range(l - m):
        u.append(u[-1] * Fraction((j + m - l) * (j + l + m + 1), (j + m + 1) * (j + 1)))
    c, d = Fraction(m * q, 2) + 1, Fraction(m * q + 2)
    return Fraction(math.comb(l, l - m)) ** q * specfun._power_moments(
        u, q, lambda j: (c + j) / (d + j))


def _lin_log_prefactor(l: int, m: int, p: float) -> float:
    # in long double: most of the fifteen terms carry a factor p, and float
    # log-Gammas put the sum up to 1.2e-13 off at (11, 7, 2p = 8)
    lg, ln_2, ln_pi = specfun._lgamma, specfun._LN_2, specfun._LN_PI
    p = np.longdouble(p)
    return float((2 * p * (2 * m - 1) + 2) * ln_2
                 + p * np.log(np.longdouble(2 * l + 1))
                 - (2 * p - 1) * ln_pi
                 + 2 * lg(m * p + 1) - lg(2 * m * p + 2)
                 + p * (2 * lg(m + 0.5) + 2 * lg(m + 1) + lg(l - m + 1) + lg(l + m + 1)
                        - 2 * lg(2 * m + 1) - 2 * lg(l + 1)))


def _positive(exact: Fraction, context) -> Fraction:
    # a sign-definite power integrates to a positive sum
    if not exact > 0:
        raise AccuracyError(f"exact angular sum not positive for {context}")
    return exact


def _result(log_lam: float, order: EntropyOrder, method: str,
            lambda_value: float | None = None) -> AngularResult:
    """The AngularResult of ln Lambda, with Lambda = exp(ln Lambda) unless
    given, None past the float range."""
    renyi = None if order.is_unity else log_lam / (1.0 - order.p)
    if lambda_value is None:
        lambda_value = specfun._exp_or_none(log_lam)
    return AngularResult(lambda_value, renyi, method, order)


def lambda_linearization(state: AngularState, p) -> AngularResult:
    """Power integral of |Y_{l,m}|^2 via the exact linearization route.

    Requires a sign-definite power (_exact_route_order); the rational core
    is evaluated exactly and converted to floating point once at the end.
    """
    order, q = _exact_route_order(state, p, "linearization")
    l, m = state.l, state.m_abs
    core = _positive(_ctilde0(l, m, q), (l, m, order.p))
    logmag = _lin_log_prefactor(l, m, 0.5 * q) + specfun.log_fraction(core)
    return _result(logmag, order, "linearization")


def lambda_bell(state: AngularState, p) -> AngularResult:
    """Power integral of |Y_{l,m}|^2 via the Bell-polynomial route.

    Lambda = (2 pi)^(1-p) h_n^-p integral P_n^(m,m)(t)^2p (1 - t^2)^(mp) dt, n = l - |m|
    and h_n the exact squared norm of P_n^(m,m): the power's coefficients, the partial
    Bell values q!/(k+q)! B_(k+q,q)(1! c_0, 2! c_1, ...) = [t^k] C(t)^q of the exact
    coefficients c_i (specfun._jacobi_exact; Comtet, Advanced Combinatorics, 1974,
    §3.3), summed against the even moments over the first, sqrt(pi) Gamma(mp + 1) /
    Gamma(mp + 3/2), by their steps (k+1)/(k+3+mq) (specfun._power_moments).  The
    first moment and (2 pi)^(1-p) are long double, as the linearization's prefactor.
    Requires a sign-definite power (_exact_route_order).
    """
    order, q = _exact_route_order(state, p, "Bell")
    l, m, n = state.l, state.m_abs, state.l - state.m_abs
    acc = _positive(specfun._power_moments(specfun._jacobi_exact(n, m), q,
                                           lambda k: Fraction(k + 1, k + 3 + m * q), 2),
                    (l, m, order.p))
    h_n = Fraction(2 ** (2 * m + 1) * math.factorial(l) ** 2,
                   math.factorial(n) * (2 * l + 1) * math.factorial(l + m))
    lg, pf, log = specfun._lgamma, np.longdouble(0.5 * q), specfun.log_fraction
    return _result(float((1 - pf) * _LN_2PI + specfun._LN_PI / 2 + lg(m * pf + 1)
                         - lg(m * pf + 1.5) + log(acc) - pf * log(h_n)), order, "bell")


def _angular_pass(state: AngularState, p: float, what: str, log_coefs=None):
    """The pass m -> power_panels of |A C(t)|^{2p} (1 - t^2)^{mp} from -1 over the roots
    to 1 (what names the state): A C_n = p_n / sqrt(2 pi), row n = l - |m| of the Jacobi
    family at a = b = |m|, orthonormal against 2 pi (1 - t^2)^|m|."""
    m, n = state.m_abs, state.l - state.m_abs
    return specfun._panel_pass(
        specfun.jacobi_family(n, m, m),
        np.concatenate(([-1.0], specfun.gegenbauer_roots(n, m + 0.5), [1.0])),
        ["edge"] + ["root"] * n + ["edge"], ((-1.0, m * p), (1.0, m * p)), 0.0, 2.0 * p, what,
        log_coefs, ln_scale=_LN_2PI)


def _lambda_gauss_jacobi(state: AngularState, order: EntropyOrder) -> AngularResult:
    """Power integral of |Y_{l,m}|^2 at even 2p = q (or l = |m|), exact up to
    rounding: |A C(t)|^q has degree n q, n = l - |m|, against the weight
    (1 - t^2)^{mp}, so one Gauss rule of n q/2 + 1 nodes sums it term by positive
    term (specfun._rule_sum), its nodes mapped onto [-1, 1] as power_panels maps them."""
    m, n, q = state.m_abs, state.l - state.m_abs, order.two_p
    t, ln_w = specfun.gauss_jacobi(n * q // 2 + 1, m * order.p, m * order.p)
    ln_v = specfun._rule_sum(specfun.panel_rows(specfun.jacobi_family(n, m, m), None,
                                                ln_scale=_LN_2PI), -1 + (1 + t), ln_w, q,
                             f"Gauss-Jacobi rule for {state}, p={order.p}")
    if not np.isfinite(ln_v):
        raise AccuracyError(f"Gauss-Jacobi rule sum {float(np.exp(ln_v))} is not positive and "
                            f"finite for {state}, p={order.p}")
    return _result(float(_LN_2PI + ln_v), order, "gauss_jacobi", _TWO_PI * float(np.exp(ln_v)))


def lambda_quadrature(state: AngularState, p) -> AngularResult:
    """Power integral of |Y_{l,m}|^2 by Gauss-Jacobi panel quadrature.

    2 pi times the integral of |A C(t)|^{2p} (1 - t^2)^{mp} over [-1, 1],
    valid for any real p > 0: panels end at the Gegenbauer roots, where
    |.|^{2p} loses smoothness, and their end weights absorb it
    (_angular_pass).  Certified by a second node count, like radial's.
    """
    order = as_order(p)
    what = f"angular quadrature for l={state.l}, m={state.m_abs}, p={order.p}"
    v, _ = specfun.settled(_angular_pass(state, order.p, what), _RENYI_TOL, what)
    return _result(float(_LN_2PI + np.log(v)), order, "quadrature", _TWO_PI * float(v))


def lambda_closed(state: AngularState, p) -> AngularResult | None:
    """Closed-form power integral for the (l, l) and (l, l-1) families.

    Returns None when the state is outside both families.  Valid for all
    real p > 0.
    """
    order = as_order(p)
    if not state.closed_family:
        return None
    # in long double: near p = 1 the entropy divides its rounding by 1 - p
    l, m = state.l, state.m_abs
    pf, half = np.longdouble(order.p), np.longdouble(0.5)
    lg, ln_2, ln_pi = specfun._lgamma, specfun._LN_2, specfun._LN_PI
    if m == l:
        loglam = (((2 * l - 1) * pf + 1) * ln_2 + pf * np.log(l + half)
                  - (2 * pf - 1.5) * ln_pi
                  + 2 * pf * lg(l + half) + lg(l * pf + 1)
                  - pf * lg(2 * l + 1) - lg(l * pf + 1.5))
    else:  # m == l - 1
        log_k = (np.log(l + half) + 2 * np.log(np.longdouble(2 * l - 1))
                 + 2 * lg(l - half) - (3 - 2 * l) * ln_2 - lg(2 * l) - 2 * ln_pi)
        loglam = (ln_2 + ln_pi + pf * log_k + lg(pf + half)
                  + lg(pf * (l - 1) + 1) - lg(pf * l + 1.5))
    return _result(float(loglam), order, "closed_form")


def renyi_angular(state: AngularState, p) -> AngularResult:
    """Renyi entropy of the angular density, best available route.

    Dispatch: closed form for a closed family (any real p), else the exact
    Gauss-Jacobi rule at even 2p while it is the cheaper cold (specfun._rule_wins:
    up to 300 nodes), else quadrature.
    Outside the families l - |m| >= 2, so the polynomial factor changes sign
    and an odd 2p has no exact route.  Each result is computed once per
    (l, |m|, p) (_renyi_angular).
    """
    order = as_order(p)
    if order.is_unity:
        raise DomainError("p = 1 is the Shannon limit; use shannon_angular")
    return _renyi_angular(state.l, state.m_abs, order.p)


@lru_cache(maxsize=specfun._RULE_CACHE)
def _renyi_angular(l: int, m: int, p: float) -> AngularResult:
    state, order = AngularState(l, m), as_order(p)
    if state.closed_family:
        return lambda_closed(state, order)
    q = order.two_p
    if q is not None and q % 2 == 0 and specfun._rule_wins("jacobi", (l - m) * q // 2 + 1):
        return _lambda_gauss_jacobi(state, order)
    return lambda_quadrature(state, order)


def _shannon_closed(state: AngularState) -> float:
    """Digamma closed forms of the (l, l) and (l, l-1) families, without the
    cancelling terms of size l ln l: Gamma(l+1) / Gamma(l+1/2) sqrt(pi) =
    4^l / C(2l, l) is exact and psi(l+3/2) - psi(l+1) a finite sum.
    """
    l, m = state.l, state.m_abs
    l_gap = l * (2 - 2 * _LN_2
                 - math.fsum(1 / (k * (2 * k + 1)) for k in range(1, l + 1)))
    if m == l:
        return (l_gap + _LN_PI + specfun.log_fraction(
            Fraction(4 ** (l + 1), (2 * l + 1) * math.comb(2 * l, l))))
    # -ln K - psi(3/2) - (l-1) psi(l) + l psi(l+3/2)
    log_k = specfun.log_fraction(Fraction((4 * l * l - 1) * math.comb(2 * l - 2, l - 1),
                                          4 ** l)) - _LN_PI
    return -log_k - specfun.digamma(1.5) + specfun.digamma(float(l)) + l_gap + 1


def _shannon_quadrature(state: AngularState) -> float:
    """-2 pi integral y ln y dt, y = A^2 C(t)^2 (1 - t^2)^m, on the p = 1 panels,
    certified by specfun.settled with the density 2 pi y."""
    m = state.m_abs
    what = f"angular Shannon quadrature for l={state.l}, m={m}"
    v, _ = specfun.settled(_angular_pass(state, 1.0, what, (m, m)), _SHANNON_TOL, what,
                           density=_TWO_PI)
    return -_TWO_PI * float(v)


def shannon_route(state: AngularState) -> str:
    """The route shannon_angular takes: "closed_form" for the (l, l) and
    (l, l-1) families, else "quadrature"."""
    return "closed_form" if state.closed_family else "quadrature"


def shannon_angular(state: AngularState) -> float:
    """Shannon entropy of the angular density.

    The digamma closed forms for the (l, l) and (l, l-1) families, else
    quadrature of -y ln y (shannon_route).  Each value is computed once per
    (l, |m|) (_shannon_angular).
    """
    return _shannon_angular(state.l, state.m_abs)


@lru_cache(maxsize=specfun._RULE_CACHE)
def _shannon_angular(l: int, m: int) -> float:
    state = AngularState(l, m)
    if shannon_route(state) == "closed_form":
        return _shannon_closed(state)
    return _shannon_quadrature(state)
