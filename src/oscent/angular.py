"""Entropies of the angular factor of central-potential eigenstates.

The squared spherical harmonic |Y_{l,m}|^2 integrates against its own p-th
power by closed forms for the (l, l), (l, l-1) families, one exact
Gauss-Jacobi rule at even 2p and Gauss-Jacobi panel quadrature of the
orthonormal Jacobi row between the Gegenbauer roots at any real p.  The
paper's two analytic procedures are exact rational references: a
linearization of the Gegenbauer power into hypergeometric-type sums and a
Bell-polynomial expansion of the orthonormal Jacobi power.  shannon_angular
takes the digamma closed forms of the families and log-weighted panels
elsewhere.  The panel planner, node count and rule cap are specfun's, and
so is the panels' integrand: specfun.panel_rows on the Jacobi family at
a = b = |m|, a Taylor series of its equation about each panel centre from
l - |m| = 40 on, as radial's.

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

# the rational reference routes are supported on this lattice
MAX_TWO_P = 8
MAX_DEGREE = 8

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
    """The order and 2p of an exact polynomial-power route, or DomainError.

    The routes expand the 2p-th power of the polynomial factor without an
    absolute value, so they serve only a sign-definite power: 2p even, or
    l = |m|, where the factor is constant.
    """
    order = as_order(p)
    q = order.two_p
    if q is None:
        raise DomainError(f"{route} route needs 2p integer, got p={order.p}")
    l, m = state.l, state.m_abs
    if q > MAX_TWO_P or (l - m) > MAX_DEGREE:
        raise DomainError(
            f"exact routes support 2p <= {MAX_TWO_P} and l-|m| <= {MAX_DEGREE}, "
            f"got l={l}, m={m}, 2p={q}")
    if q % 2 == 1 and l > m:
        raise DomainError(
            f"{route} route is sign-ambiguous for odd 2p with l > |m|, got "
            f"l={l}, m={m}, 2p={q}; use quadrature")
    return order, q


@lru_cache(maxsize=None)
def _ctilde0(l: int, m: int, q: int) -> Fraction:
    """Exact rational core of the linearized 2p-fold Gegenbauer product.

    The nested sum over indices j_1 .. j_q in [0, l-m] collapses through the
    generating polynomial U(z) = sum_j u_j z^j: grouping by the total degree
    J = j_1 + ... + j_q turns it into sum_J (c)_J/(d)_J [z^J] U(z)^q.
    """
    n = l - m
    u = [specfun.pochhammer(m - l, j) * specfun.pochhammer(l + m + 1, j)
         / (specfun.pochhammer(m + 1, j) * math.factorial(j))
         for j in range(n + 1)]
    upow = specfun.poly_power(tuple(u), q) if n > 0 else (1,)
    c = Fraction(m * q, 2) + 1        # m p + 1
    d = Fraction(m * q + 2)           # 2 m p + 2
    acc = Fraction(0)
    for big_j, coeff in enumerate(upow):
        if coeff == 0:
            continue
        acc += specfun.pochhammer(c, big_j) / specfun.pochhammer(d, big_j) * coeff
    return Fraction(math.comb(l, n)) ** q * acc


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


@lru_cache(maxsize=None)
def _bell_core(l: int, m: int, q: int) -> tuple[Fraction, int, Fraction]:
    """Exact even-k sum of the Bell route: (sum, pi-half-power, norm_square)."""
    n = l - m
    cs, norm_square = specfun.orthonormal_jacobi(n, m, m)
    top = n * q
    args = [math.factorial(i + 1) * (cs[i] if i <= n else Fraction(0))
            for i in range(top + 1)]
    qfact = math.factorial(q)
    acc = Fraction(0)
    pi_half = None
    for k in range(0, top + 1, 2):
        b = specfun.bell_partial(k + q, q, args[:k + 1])
        g1, h1 = specfun.gamma_half_exact(k + 1)
        g2, h2 = specfun.gamma_half_exact(3 + k + m * q)
        if pi_half is None:
            pi_half = h1 - h2
        elif pi_half != h1 - h2:  # parity is fixed for even k
            raise AssertionError("inconsistent pi powers in Bell sum")
        if b == 0:
            continue
        acc += Fraction(qfact, math.factorial(k + q)) * b * 2 * g1 / g2
    return acc, (0 if pi_half is None else pi_half), norm_square


def lambda_bell(state: AngularState, p) -> AngularResult:
    """Power integral of |Y_{l,m}|^2 via the Bell-polynomial route.

    Expands the 2p-th power of the orthonormal Jacobi factor with partial
    Bell polynomials over its exact coefficients; only the final assembly
    leaves rational arithmetic.  Requires a sign-definite power
    (_exact_route_order).
    """
    order, q = _exact_route_order(state, p, "Bell")
    l, m = state.l, state.m_abs
    acc, pi_half, norm_sq = _bell_core(l, m, q)
    acc = _positive(acc, (l, m, order.p))
    gm, hm = specfun.gamma_half_exact(m * q + 2)  # Gamma(m p + 1)
    logmag = (specfun.log_fraction(gm) + 0.5 * hm * _LN_PI
              - 0.5 * q * _LN_2 + (1.0 - 0.5 * q) * _LN_PI
              - 0.5 * q * specfun.log_fraction(norm_sq)
              + specfun.log_fraction(acc) + 0.5 * pi_half * _LN_PI)
    return _result(logmag, order, "bell")


def _integrand(state: AngularState, p: float):
    """poly_on, q2 and edges of |A C(t)|^{2p} (1 - t^2)^{mp}: poly_on(panels) is
    power_panels' poly, A C_n = p_n / sqrt(2 pi) by specfun.panel_rows, row
    n = l - |m| of the Jacobi family at a = b = |m|, orthonormal against
    2 pi (1 - t^2)^|m|; poly_on(None) is that row by the plain recurrence, which
    the rule's one panel takes: no Taylor series serves a panel so wide."""
    m, n = state.m_abs, state.l - state.m_abs
    fam = specfun.jacobi_family(n, m, m)
    return (lambda panels: specfun.panel_rows(fam, panels, ln_scale=_LN_2PI),
            2.0 * p, ((-1.0, m * p), (1.0, m * p)))


def _angular_panels(state: AngularState, p: float, what: str, log_coefs=None):
    """The pass m_nodes -> power_panels of _integrand on the long-double panels of
    plan_panels from -1 over the Gegenbauer roots to 1 (what names the state):
    the panel integrals and, with log_coefs, the log-weighted ones."""
    m, n = state.m_abs, state.l - state.m_abs
    poly_on, q2, edges = _integrand(state, p)
    panels = specfun.plan_panels(
        np.concatenate(([-1.0], specfun.gegenbauer_roots(n, m + 0.5), [1.0])),
        ["edge"] + ["root"] * n + ["edge"], edges, q2, 0.0, what)
    poly = poly_on(panels)
    return lambda m_nodes: specfun.power_panels(panels, poly, q2, edges, m_nodes, log_coefs)


def _from_sum(v, order: EntropyOrder, method: str) -> AngularResult:
    """The AngularResult of a positive sum v = Lambda / 2 pi, by ln v in long double."""
    log_lam = _LN_2PI + np.log(np.longdouble(v))
    return _result(float(log_lam), order, method, _TWO_PI * float(v))


def _lambda_gauss_jacobi(state: AngularState, order: EntropyOrder) -> AngularResult:
    """Power integral of |Y_{l,m}|^2 at even 2p = q (or l = |m|), exact up to
    rounding: |A C(t)|^q has degree n q, n = l - |m|, against the weight
    (1 - t^2)^{mp}, so power_panels' one Gauss rule of n q/2 + 1 nodes on the
    single panel [-1, 1], both ends "edge", sums it term by positive term."""
    n, q = state.l - state.m_abs, order.two_p
    poly_on, q2, edges = _integrand(state, order.p)
    v = specfun.power_panels([(-1.0, 1.0, "edge", "edge")], poly_on(None), q2, edges,
                             n * q // 2 + 1)[0]
    if not 0 < v < np.inf:
        raise AccuracyError(f"Gauss-Jacobi rule sum {float(v)} is not positive and finite "
                            f"for {state}, p={order.p}")
    return _from_sum(v, order, "gauss_jacobi")


def lambda_quadrature(state: AngularState, p) -> AngularResult:
    """Power integral of |Y_{l,m}|^2 by Gauss-Jacobi panel quadrature.

    2 pi times the integral of |A C(t)|^{2p} (1 - t^2)^{mp} over [-1, 1],
    valid for any real p > 0: panels end at the Gegenbauer roots, where
    |.|^{2p} loses smoothness, and their end weights absorb it
    (_angular_panels).  Certified by a second node count, like radial's.
    """
    order = as_order(p)
    what = f"angular quadrature for l={state.l}, m={state.m_abs}, p={order.p}"
    v, _ = specfun.settled(_angular_panels(state, order.p, what), _RENYI_TOL, what)
    return _from_sum(v, order, "quadrature")


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
    Gauss-Jacobi rule at even 2p <= specfun._RULE_MAX_POWER, else quadrature.
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
    if q is not None and q % 2 == 0 and q <= specfun._RULE_MAX_POWER:
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
    v, _ = specfun.settled(_angular_panels(state, 1.0, what, (m, m)),
                           _SHANNON_TOL, what, density=_TWO_PI)
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
