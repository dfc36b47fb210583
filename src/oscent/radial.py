"""Radial entropies of the three-dimensional isotropic harmonic oscillator.

The radial density in the dimensionless variable x = lam r^2 factors through
weighted orthonormal Laguerre polynomials, so every Renyi power integral
reduces to a norm-like integral

    N_{n,l}(p) = integral_0^inf |Lhat_n^(l+1/2)(x)|^{2p} e^{-p x} x^{p l + 1/2} dx.

Four evaluation paths: a symbolic path (exact rational sums) when 2p is an
even integer or n = 0, a closed form for n = 1 at even 2p, one
Gauss-Laguerre rule of n p + 1 nodes at even 2p, exact for the polynomial
power up to rounding, and a panel quadrature with Gauss-Jacobi endpoint
weights valid for any real p > 0.  auto takes the n = 0 formula, the rule
for even 2p <= 8 and the panels otherwise.

specfun.plan_panels plans the panel list, as the angular one: one mass
bound starts its head and ends its tail, and power_panels checks each piece
dropped.  specfun._NODES sets the node count of both engines.  The
integrand is specfun.panel_rows on the Laguerre family at a = l + 1/2 under
e^(-x/2), its root gaps under (x/c)^s: from n = 40 on a Taylor series of
the family's equation about each panel centre where its own coefficients
certify it, and the long-double recurrence elsewhere.

laguerre_norm keeps each value by (n, l, p, path) and shannon_radial_exact
its log integral J by (n, l), in caches of specfun._RULE_CACHE entries that
keep no error; closed_n1l and the routes under them stay uncached.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import specfun
from .angular import AngularState
from .errors import AccuracyError, DomainError
from .order import as_order

__all__ = [
    "OscillatorParams", "QuantumState", "LaguerreNorm", "energy",
    "radial_density", "laguerre_norm", "closed_n1l", "renyi_radial_exact",
    "shannon_radial_exact",
]

_LN_2 = math.log(2.0)
_LN_PI = math.log(math.pi)

# auto's rule takes at most 3000 nodes: there it costs 2.6x (2p = 4, n = 1499) to 5x
# (2p = 8, n = 749) the cold panels, and one Newton pass builds gauss_laguerre's
# rules up to 4000 nodes (at 6000 the steps near x = 0 do not settle in 8 passes)
_RULE_MAX_NODES = 3000
# the exact routes expand a power of degree n 2p in rationals, at a cost without
# bound in 2p (closed_n1l takes 3 s at degree 1000): past this degree they refuse
_EXACT_MAX_DEGREE = 1000
# agreement the second pass must reach: relative to N for Renyi, to max(|J|, 1)
# for the Shannon log integral J
_RENYI_TOL = 1e-11
_SHANNON_TOL = 1e-10


@dataclass(frozen=True)
class OscillatorParams:
    """Oscillator scale lam = m omega / hbar fixing all length units."""

    lam: float = 1.0

    def __post_init__(self):
        if not (self.lam > 0 and math.isfinite(self.lam)):
            raise DomainError(f"oscillator scale must be positive, got {self.lam}")


@dataclass(frozen=True)
class QuantumState:
    """Quantum numbers (n, l, m) of an oscillator eigenstate."""

    n: int
    l: int
    m: int = 0

    def __post_init__(self):
        if self.n < 0:
            raise DomainError(f"radial number must be >= 0, got n={self.n}")
        if self.l < 0:
            raise DomainError(f"orbital number must be >= 0, got l={self.l}")
        if abs(self.m) > self.l:
            raise DomainError(f"|m| must not exceed l, got l={self.l}, m={self.m}")

    @property
    def angular(self) -> AngularState:
        return AngularState(self.l, self.m)


def energy(state: QuantumState, params: OscillatorParams | None = None) -> float:
    """Eigenenergy lam (2n + l + 3/2) in atomic units."""
    params = params or OscillatorParams()
    return params.lam * (2 * state.n + state.l + 1.5)


@dataclass(frozen=True)
class LaguerreNorm:
    """Power-norm integral N_{n,l}(p) with its evaluation provenance.

    The entropies take log_value; value may underflow to 0.0 beside it, and
    is None past the float range (ln N > 709.78).
    """

    value: float | None
    log_value: float
    path: str
    p: float
    warnings: tuple[str, ...] = ()

    def __post_init__(self):
        if not math.isfinite(self.log_value):
            raise DomainError(f"norm logarithm must be finite, got {self.log_value}")


def radial_density(state: QuantumState, params: OscillatorParams | None = None):
    """Vectorised radial probability density r -> rho_{n,l}(r).

    Normalised against the r^2 dr measure.  Evaluation runs in extended
    precision through the weighted orthonormal Laguerre recurrence.
    """
    params = params or OscillatorParams()
    n, l = state.n, state.l
    alpha = Fraction(2 * l + 1, 2)
    lam = params.lam
    amp = 2.0 * lam ** 1.5

    def rho(r):
        r = np.asarray(r, dtype=np.longdouble)
        x = lam * r * r
        psi = specfun.laguerre_orthonormal_weighted(n, alpha, x)
        out = amp * psi * psi * np.where(x > 0, x, 1.0) ** l if l else amp * psi * psi
        if l:
            out = np.where(x > 0, out, 0.0)
        return np.asarray(out, dtype=float)

    return rho


# ---------------------------------------------------------------------------
# quadrature engine

def _norm_panels(n: int, l: int, p: float) -> list[tuple]:
    """Panels (lo, hi, lo_kind, hi_kind) of N_{n,l}(p) by specfun.plan_panels: the head
    [0, r_1] sliced, each root gap whole, the tail past r_n (the mode at n = 0)."""
    ends = specfun.gauss_laguerre(n, l + 0.5)[0].astype(float).tolist() if n else [l + 0.5 / p]
    return specfun.plan_panels(
        [0.0, *ends, math.inf], ["edge"] + (["root"] * n if n else ["plain"]) + ["plain"],
        ((0.0, p * l + 0.5), None), 2.0 * p, p, f"radial panels for n={n}, l={l}, p={p}")


def _norm_pass(n: int, l: int, p: float, panels: list[tuple], log_coefs=None):
    """The pass m -> power_panels of N_{n,l}(p) on the panels: psi is row n of
    specfun.panel_rows for the Laguerre family at a = l + 1/2 under e^(-x/2),
    its root gaps under (x/c)^s, s = floor((a + 1)/2), where w = (x/c)^s psi is
    entire and nearly flat even at l = 1000 (psi varies by e^15 over a gap)."""
    fam = specfun.laguerre_family(n, l + 0.5)
    psi = specfun.panel_rows(fam, panels, -0.5, s=(2 * l + 3) // 4)
    return lambda m: specfun.power_panels(panels, psi, 2.0 * p, ((0.0, p * l + 0.5), None), m,
                                          log_coefs)


def _norm_quadrature(n: int, l: int, p: float) -> LaguerreNorm:
    """Panel quadrature of N_{n,l}(p), certified by a second node count."""
    what = f"radial quadrature for n={n}, l={l}, p={p}"
    v, escalated = specfun.settled(_norm_pass(n, l, p, _norm_panels(n, l, p)), _RENYI_TOL, what)
    warns = ("node count escalated to reach tolerance",) if escalated else ()
    return LaguerreNorm(float(v), float(np.log(v)), "quadrature", p, warns)


# ---------------------------------------------------------------------------
# Gauss-Laguerre path

def _norm_gauss_laguerre(n: int, l: int, q: int, p: float) -> LaguerreNorm:
    """N_{n,l}(p) at even 2p = q by one Gauss rule, exact up to rounding.

    With x = y / p, N = p^-(pl + 3/2) int y^(pl + 1/2) e^-y Lhat_n(y/p)^2p dy,
    a polynomial of degree n 2p against a Laguerre weight, so the rule of
    n p + 1 nodes integrates it exactly, term by positive term:
    N = p^-(pl + 3/2) sum_j w_j e^(y_j) psi(y_j / p)^2p, with
    psi = Lhat_n e^(-x/2).
    """
    a = p * l + 0.5
    y, ln_w = specfun.gauss_laguerre(n * q // 2 + 1, a)
    psi = specfun.laguerre_orthonormal_weighted(n, l + 0.5, y / p)
    # the terms are summed in logs: at large l, psi_j^2p turns subnormal
    # (2p = 6, l = 600) as w_j e^(y_j) grows, and a plain product loses its
    # digits without a warning
    with np.errstate(divide="ignore"):
        t = ln_w + y + q * np.log(np.abs(psi))
    top = np.max(t)
    if not np.isfinite(top):
        raise AccuracyError(
            f"Gauss-Laguerre norm sum not positive for n={n}, l={l}, q={q}")
    logn = float(top + np.log(np.sum(np.exp(t - top)))
                 - (a + 1) * np.log(np.longdouble(p)))
    return LaguerreNorm(specfun._exp_or_none(logn), logn, "gauss_laguerre", p)


# ---------------------------------------------------------------------------
# symbolic paths

def _norm_symbolic_n0(l: int, p: float) -> LaguerreNorm:
    # N_{0,l}(p) = Gamma(pl + 3/2) / (Gamma(l + 3/2)^p p^{pl + 3/2}), in long
    # double: near p = 1 the entropy divides its rounding by 1 - p
    p_ = np.longdouble(p)
    g = p_ * l + np.longdouble(1.5)
    logn = float(specfun._lgamma(g) - p_ * specfun._lgamma(l + 1.5) - g * np.log(p_))
    return LaguerreNorm(specfun._exp_or_none(logn), logn, "symbolic", p)


def _norm_symbolic(n: int, l: int, q: int, p: float) -> LaguerreNorm:
    """Exact rational evaluation for even 2p = q via the polynomial power."""
    alpha = Fraction(2 * l + 1, 2)
    power = specfun.poly_power(specfun.laguerre_poly(n, alpha), q)
    ql = q * l
    base = Fraction(q, 2)
    int_exp_shift = (ql + 2) // 2 if ql % 2 == 0 else (ql + 3) // 2
    acc = Fraction(0)
    for k, a in enumerate(power):
        if a == 0:
            continue
        g, half = specfun.gamma_half_exact(2 * k + ql + 3)
        assert half == (1 if ql % 2 == 0 else 0)
        acc += a * g / base ** (k + int_exp_shift)
    if not acc > 0:
        raise AccuracyError(f"symbolic norm sum not positive for n={n}, l={l}, q={q}")
    gh, hp = specfun.gamma_half_exact(2 * n + 2 * l + 3)
    assert hp == 1
    hn = gh / math.factorial(n)  # Gamma(n + l + 3/2) = hn sqrt(pi) n! / n!
    # one log of the exact ratio: the logs of acc and hn^(q/2) would cancel
    logn = specfun.log_fraction(acc / hn ** (q // 2)) - 0.25 * q * _LN_PI
    if ql % 2 == 0:
        logn += 0.5 * _LN_PI - 0.5 * math.log(float(base))
    return LaguerreNorm(specfun._exp_or_none(logn), logn, "symbolic", p)


def _check_exact_degree(n: int, q: int, p: float, route: str) -> None:
    if n * q > _EXACT_MAX_DEGREE:
        raise DomainError(f"{route} route expands a power of degree n 2p > {_EXACT_MAX_DEGREE} "
                          f"in rationals, got n={n}, p={p}; use --path auto")


def closed_n1l(l: int, p) -> LaguerreNorm:
    """Closed form of N_{1,l}(p) through a negative-parameter Laguerre value.

    N_{1,l}(p) = Gamma(lp+3/2)/Gamma(l+5/2)^p * (2p)!/p^{(l+2)p+3/2}
                 * L_{2p}^{(-(l+2)p-3/2)}(-(l+3/2)p).

    The expansion behind this identity raises the linear Laguerre factor to
    the power 2p without taking absolute values.  L_1 changes sign, so the
    identity holds for even 2p only; odd 2p raises DomainError, and so does
    a degree 2p above _EXACT_MAX_DEGREE.
    """
    if l < 0:
        raise DomainError(f"orbital number must be >= 0, got l={l}")
    order = as_order(p)
    q = order.two_p
    if q is None or q % 2 == 1:
        raise DomainError(
            f"closed n=1 norm needs an even integer 2p: L_1 changes sign, so "
            f"odd 2p is sign-ambiguous; got p={p}")
    _check_exact_degree(1, q, order.p, "closed n=1")
    pf = order.p
    a = -Fraction((l + 2) * q + 3, 2)
    x = -Fraction((2 * l + 3) * q, 4)
    lval = specfun.laguerre_eval_negparam(q, a, x)
    if not lval > 0:
        raise AccuracyError(
            f"closed n=1 Laguerre value not positive for l={l}, p={p}")
    g1, h1 = specfun.gamma_half_exact(l * q + 3)
    g2, h2 = specfun.gamma_half_exact(2 * l + 5)
    # the square over its power of pi is rational for every q = 2p; one log
    # of it keeps the digits that separate logs of its factors would cancel
    square = ((g1 * math.factorial(q) * lval) ** 2
              / (g2 ** q * Fraction(q, 2) ** ((l + 2) * q + 3)))
    logn = 0.5 * specfun.log_fraction(square) + 0.5 * (h1 - pf * h2) * _LN_PI
    return LaguerreNorm(specfun._exp_or_none(logn), logn, "closed_n1", pf)


# ---------------------------------------------------------------------------
# public entry points

def laguerre_norm(n: int, l: int, p, *, path: str = "auto") -> LaguerreNorm:
    """Norm integral N_{n,l}(p), dispatching to the best valid route.

    auto order: the exact n = 0 formula for any real p; for even 2p <= 8
    one Gauss-Laguerre rule of n p + 1 <= 3000 nodes, exact for the
    polynomial power; panel quadrature otherwise, the faster route above
    2p = 8.  For odd 2p with n >= 1 the polynomial power is signed, so
    quadrature is the faithful route.  path="symbolic" gives the exact
    rational value at any even 2p up to degree n 2p = _EXACT_MAX_DEGREE,
    "closed_n1" the n = 1 closed form and "quadrature" the panels.  Each
    value is computed once per (n, l, p, path) (_laguerre_norm).
    """
    if n < 0 or l < 0:
        raise DomainError(f"quantum numbers must be >= 0, got n={n}, l={l}")
    return _laguerre_norm(n, l, as_order(p).p, path)


@lru_cache(maxsize=specfun._RULE_CACHE)
def _laguerre_norm(n: int, l: int, pf: float, path: str) -> LaguerreNorm:
    q = as_order(pf).two_p
    if path == "auto":
        if n == 0:
            return _norm_symbolic_n0(l, pf)
        if (q is not None and q % 2 == 0 and q <= specfun._RULE_MAX_POWER
                and n * q // 2 + 1 <= _RULE_MAX_NODES):
            return _norm_gauss_laguerre(n, l, q, pf)
        return _norm_quadrature(n, l, pf)
    if path == "symbolic":
        if n == 0:
            return _norm_symbolic_n0(l, pf)
        if q is None:
            raise DomainError(f"symbolic route needs 2p integer, got p={pf}")
        if q % 2 == 1:
            raise DomainError(
                "symbolic route is sign-ambiguous for odd 2p with n >= 1; "
                "use quadrature")
        _check_exact_degree(n, q, pf, "symbolic")
        return _norm_symbolic(n, l, q, pf)
    if path == "closed_n1":
        if n != 1:
            raise DomainError(f"closed_n1 route applies only to n=1, got n={n}")
        return closed_n1l(l, pf)
    if path == "quadrature":
        return _norm_quadrature(n, l, pf)
    raise DomainError(f"unknown norm path {path!r}")


def renyi_radial_exact(state: QuantumState, params: OscillatorParams | None = None,
                       p=2.0, *, norm: LaguerreNorm | None = None) -> float:
    """Renyi entropy of the radial density against the r^2 dr measure.

    R_p = -ln 2 - (3/2) ln lam + ln N_{n,l}(p) / (1 - p).
    """
    order = as_order(p)
    if order.is_unity:
        raise DomainError("p = 1 is the Shannon limit; use shannon_radial_exact")
    params = params or OscillatorParams()
    if norm is None:
        norm = laguerre_norm(state.n, state.l, order.p)
    return (-_LN_2 - 1.5 * math.log(params.lam)
            + norm.log_value / (1.0 - order.p))


# ---------------------------------------------------------------------------
# Shannon entropy: log-weighted end rules against the logarithmic kinks

def shannon_radial_exact(state: QuantumState,
                         params: OscillatorParams | None = None) -> float:
    """Shannon entropy of the radial density against the r^2 dr measure.

    S = -ln(2 lam^{3/2}) - J, J = integral psi^2 x^{l+1/2} (ln psi^2 + l ln x) dx
    with psi the weighted orthonormal Laguerre function: the log-weighted
    power_panels integrals on the p = 1 norm panels, certified by
    specfun.settled with the density N_{n,l}(1) = 1.  J is computed once
    per (n, l) (_shannon_log_integral).
    """
    params = params or OscillatorParams()
    return -_LN_2 - 1.5 * math.log(params.lam) - _shannon_log_integral(state.n, state.l)


@lru_cache(maxsize=specfun._RULE_CACHE)
def _shannon_log_integral(n: int, l: int) -> float:
    what = f"Shannon radial quadrature for n={n}, l={l}"
    j, _ = specfun.settled(_norm_pass(n, l, 1.0, _norm_panels(n, l, 1.0), (l, 0)),
                           _SHANNON_TOL, what, density=1.0)
    return float(j)
