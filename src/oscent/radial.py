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

specfun.plan_panels slices the head panel, as it does the angular edges,
and specfun._NODES, beside its table of first-pass errors, sets the node
count of both engines.  From n = 40 on, the integrand on each panel (head
slice, root gap or tail panel) comes from a Taylor series of the Laguerre
equation about the panel centre, whose coefficients one recurrence over the
centres starts and every node-count pass shares; a panel whose own last
coefficients do not certify the series, and every panel below that n, takes
the long-double Laguerre recurrence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

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
# From n = _TAYLOR_MIN_N on, the panels take the Taylor series of
# _panel_series: one recurrence over the panel centres and a fixed cost per
# panel list, then _TAYLOR_TERMS multiply-adds a node, against an n-step
# recurrence per node below.  Warm ms per value, recurrence / series, medians
# of 25 alternated calls, by _norm_quadrature (p = 0.7, 2.5) and
# shannon_radial_exact (p = 1):
#     n              10        30        40        60         100
#     p=0.7, l=0     1.8/2.7   4.6/4.5   7.7/7.0   13.2/9.6   28.1/13.7
#     p=2.5, l=0     2.5/3.8   6.1/5.6   8.2/6.8   14.2/8.8   29.4/12.4
#     p=2.5, l=3     2.5/3.9   6.0/6.2   8.3/7.1   14.3/9.5   31.1/14.2
#     p=1,   l=3     2.6/3.9   6.1/7.1   8.5/8.1   14.2/10.5  29.2/14.6
#     p=0.7, l=20    2.2/3.5   5.3/6.1   7.7/7.6   12.7/10.0  27.3/15.1
_TAYLOR_MIN_N = 40
# Worst deviation of the series from the recurrence, relative to the largest
# |psi| on the panel, at the 36 nodes of every root gap at l in
# {0, 1, 20, 300, 1000} (cut or not), and of every head slice and tail panel that
# _SERIES_CUT keeps at that many terms, at l in {0, 1, 3, 20, 60, 300, 1000}
# and p in {0.1, 0.5, 1, 1.3, 2.5, 8} (share kept):
#     terms         16             20             24             28
#     n = 40        1.6e-8         6.1e-12        5.9e-16        1.4e-16
#     n = 400       1.1e-8         3.3e-12        2.3e-15        2.3e-15
#     n = 1500      1.1e-8         2.6e-12        2.9e-14        2.9e-14
#     head, n = 40  3.9e-16 (92%)  8.8e-16 (98%)  2.6e-15 (99%)  1.4e-14 (99%)
#          n = 400  1.4e-15 (91%)  2.5e-15 (97%)  2.5e-15 (98%)  1.6e-14 (99%)
#     tail, n = 40  8.6e-15 (47%)  8.6e-15 (64%)  8.6e-15 (80%)  8.6e-15 (86%)
#          n = 400  4.9e-14 (61%)  4.9e-14 (80%)  4.9e-14 (88%)  4.9e-14 (91%)
# From 24 terms on it is rounding: at (n, l) = (1500, 1), on the first gap,
# against 60-digit mpmath, the series is 1.3e-14 off and the recurrence 2.2e-14.
# The tail's worst node is next to the last root, where the recurrence is the
# one further off: 6.8e-15 against the series' 2.0e-15 at (40, 1000, 8).
_TAYLOR_TERMS = 24
# A panel keeps its series while its last two coefficients are within
# _SERIES_CUT of its largest.  Share of panels kept at 24 terms, and the worst
# deviation of a kept head slice over n, over n in {40, 100, 400, 1500} and
# the l and p above:
#     cut           1e-18     1e-17     1e-16     1e-15     1e-14
#     head          97.3%     98.0%     98.6%     98.9%     99.1%
#     root gap      0.5%      11.0%     99.1%     99.7%     99.96%
#     tail          81.3%     83.2%     85.6%     86.8%     88.5%
#     worst head/n  1.2e-17   2.2e-17   6.6e-17   3.4e-16   5.8e-16
# The gaps' last coefficients sit at rounding, 1e-17 to 1e-15 of the largest,
# where the series is already within 4e-17 n; from 1e-15 on, head slices at
# l = 1000 keep series up to 1.6e-14 off.  Most panels the cut sends back are
# wide far-tail panels at small p, where 24 terms fall short.
_SERIES_CUT = 1e-16
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
    """Panels (lo, hi, lo_kind, hi_kind) covering (0, inf) for N_{n,l}(p).

    specfun.plan_panels slices the head [0, r_1] ([0, e] at n = 0).  Each
    root gap stays whole: the polynomial's growth cancels e^(-px) there.

    Past the last root the integrand f = C x^gma prod (x - r_i)^{2p} e^{-p x}
    is log-concave, so the mass beyond a point e where log f falls is at most
    f(e) / |(log f)'(e)|.  The tail list ends with the first panel whose start
    has that bound below 1e-25 of a lower bound on the tail mass: never before
    the last lobe's maximum, and with a last panel of negligible share.

    Each tail panel after the first is at most _LOG_VARIATION_CAP times as
    wide as its distance d from the last root.  That root is a branch point
    of the panel's regular factor, and a Gauss rule converges at a rate set
    by w / d.  The log-variation of (x - r_n)^{2p} alone would let a panel
    grow to 16 d / 2p, which leaves 24 nodes 2e-9 short at p = 0.1.
    """
    gma, q2 = p * l + 0.5, 2.0 * p
    rts = specfun.gauss_laguerre(n, l + 0.5)[0].astype(float)
    e = float(rts[-1]) if n else (gma + 4.0) / p
    panels = specfun.plan_panels(
        [0.0] + (rts.tolist() if n else [e]), ["edge"] + (["root"] * n if n else ["plain"]),
        ((0.0, gma), None), q2, p, f"head panel [0, r_1] for n={n}, l={l}, p={p}")

    def log_f(x):
        return q2 * np.sum(np.log(x - rts)) + gma * math.log(x) - p * x

    lf, log_mass, prev_w = (-math.inf if n else log_f(e)), -math.inf, None
    for _ in range(400):
        w = specfun._LOG_VARIATION_CAP / (p + gma / e + (
            max(q2, 1.0) / max(e - rts[-1], prev_w or 1e-3) if n else 0.0))
        panels.append((e, e + w, "root" if n and prev_w is None else "plain",
                       "plain"))
        slope = q2 * np.sum(1.0 / (e - rts)) + gma / e - p if lf > -math.inf else 0.0
        if slope < 0 and lf - math.log(-slope) < log_mass + math.log(1e-25):
            return panels
        lf_next = log_f(e + w)
        log_mass = np.logaddexp(log_mass, math.log(w) + min(lf, lf_next))
        e, lf, prev_w = e + w, lf_next, w
    raise AccuracyError(f"radial tail failed to converge for n={n}, l={l}, p={p}")


def _panel_series(n: int, l: int, panels: list[tuple]):
    """Centres c, half-lengths h, exponents s and scaled Taylor coefficients
    v_k = w_k h^k, k < _TAYLOR_TERMS, of w = (x/c)^s psi about the centre of
    each panel, each of shape (panels, 1) and v of (_TAYLOR_TERMS, panels, 1).

    psi, row n of laguerre_orthonormal_weighted at a = l + 1/2, solves
    x psi'' + (a + 1) psi' + (B - x/4) psi = 0 with B = n + (a + 1)/2
    (DLMF 18.8).  On root gaps s = floor((a + 1)/2): w is entire and nearly
    flat across a gap even at l = 1000, where psi varies by e^15 over one.
    The head slices and tail panels take s = 0, psi itself: (x/c)^s is
    singular at x = 0.  w solves x^2 w'' + A x w' + (s(s - a) + B x - x^2/4) w
    = 0 with A = a + 1 - 2s, so about c (Glaser, Liu and Rokhlin, SIAM J.
    Sci. Comput. 29, 2007, 1420), with r = h / c,
        (k+2)(k+1) v_(k+2) = -[r (k+1)(2k + A) v_(k+1)
                               + r^2 (k(k-1) + A k + s(s-a) + Bc - c^2/4) v_k
                               + r^2 h (B - c/2) v_(k-1) - r^2 h^2 v_(k-2)/4],
    from w_0 = psi(c) and w_1 = psi'(c) + s psi(c)/c, both from one
    long-double recurrence over the centres.  Then
    psi(c + h t) = exp(-s log1p(h t / c)) sum_k v_k t^k.
    """
    lo, hi = (np.array(col, dtype=np.longdouble)[:, None]
              for col in list(zip(*panels))[:2])
    c, h = (lo + hi) / 2, (hi - lo) / 2
    s = np.array([[(2 * l + 3) // 4 if lk == hk == "root" else 0]
                  for _, _, lk, hk in panels])
    a = np.longdouble(l) + np.longdouble(0.5)
    big_a, b = a + 1 - 2 * s, n + (a + 1) / 2
    psi, dpsi = specfun.laguerre_orthonormal_weighted_d1(n, l + 0.5, c)
    r = h / c
    r2 = r * r
    mid = r2 * (b * c - c * c / 4 + s * (s - a))
    back1, back2 = r2 * h * (b - c / 2), r2 * h * h / 4
    v = [psi, h * (dpsi + s * psi / c)]
    for k in range(_TAYLOR_TERMS - 2):
        nxt = r * ((k + 1) * (2 * k + big_a)) * v[k + 1] \
            + (r2 * (k * (k - 1) + big_a * k) + mid) * v[k]
        if k >= 1:
            nxt += back1 * v[k - 1]
        if k >= 2:
            nxt -= back2 * v[k - 2]
        v.append(-nxt / ((k + 2) * (k + 1)))
    return c, h, s, np.array(v)


def _panel_psi(n: int, l: int, panels: list[tuple]):
    """The integrand psi(x, rows) of specfun.power_panels on the panel list.

    From n = _TAYLOR_MIN_N on, every panel whose own last two coefficients
    of _panel_series are within _SERIES_CUT of its largest takes that series;
    every pass on these panels shares the coefficients.  The other panels,
    and every panel below that n, take the recurrence.
    """
    alpha = Fraction(2 * l + 1, 2)
    if n < _TAYLOR_MIN_N:
        return lambda x, rows: specfun.laguerre_orthonormal_weighted(n, alpha, x)
    c, h, s, coefs = _panel_series(n, l, panels)
    mag = np.abs(coefs)
    cut = _SERIES_CUT * mag.max(axis=0)
    # a cut below the normal range certifies nothing: psi(c) has underflowed
    kept = ((mag[-1] + mag[-2] <= cut) & (cut >= np.finfo(cut.dtype).tiny)).ravel()
    index = np.arange(len(panels))

    def series(x, k):
        u = x - c[k]
        t, acc = u / h[k], coefs[-1, k]
        for v in coefs[-2::-1, k]:
            acc = acc * t + v
        # s = 0 on every panel at l = 0
        return acc * np.exp(-s[k] * np.log1p(u / c[k])) if l else acc

    def psi(x, rows):
        on = kept[rows]
        y = np.empty_like(x)
        if not on.all():
            y[~on] = specfun.laguerre_orthonormal_weighted(n, alpha, x[~on])
        if on.any():
            y[on] = series(x[on], index[rows][on])
        return y

    return psi


def _panel_pass(n: int, l: int, p: float, panels: list[tuple], psi, m_nodes: int,
                log_coefs=None):
    """specfun.power_panels of N_{n,l}(p) on the panel list, tail-checked.

    psi is _panel_psi on the same panels.  Returns the panel integrals and,
    with log_coefs, the log-weighted ones.
    """
    lo, hi, lo_kind, hi_kind = zip(*panels)
    out = specfun.power_panels(
        np.array(lo, dtype=np.longdouble), np.array(hi, dtype=np.longdouble),
        lo_kind, hi_kind, psi, 2.0 * p, ((0.0, p * l + 0.5), None), m_nodes,
        log_coefs)
    parts = out if log_coefs is None else out[0]
    # node doubling cannot see a region the panels miss; a list that ends on
    # a negligible, decaying panel has passed the last lobe
    if parts[-1] > min(1e-20 * parts.sum(), parts[-2]):
        raise AccuracyError(
            f"radial tail list ends inside a lobe for n={n}, l={l}, p={p}",
            estimate=float(parts.sum()))
    return out


def _norm_quadrature(n: int, l: int, p: float) -> LaguerreNorm:
    """Panel quadrature of N_{n,l}(p), certified by a second node count."""
    panels = _norm_panels(n, l, p)
    psi = _panel_psi(n, l, panels)
    what = f"radial quadrature for n={n}, l={l}, p={p}"
    v, escalated = specfun.settled(lambda m: _panel_pass(n, l, p, panels, psi, m),
                                   _RENYI_TOL, what)
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
    lpoly = specfun.laguerre_poly(n, alpha)
    power = specfun.poly_power(lpoly, q)
    ql = q * l
    base = Fraction(q, 2)
    int_exp_shift = (ql + 2) // 2 if ql % 2 == 0 else (ql + 3) // 2
    acc = Fraction(0)
    for k, a in enumerate(power.coeffs):
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


def closed_n1l(l: int, p) -> LaguerreNorm:
    """Closed form of N_{1,l}(p) through a negative-parameter Laguerre value.

    N_{1,l}(p) = Gamma(lp+3/2)/Gamma(l+5/2)^p * (2p)!/p^{(l+2)p+3/2}
                 * L_{2p}^{(-(l+2)p-3/2)}(-(l+3/2)p).

    The expansion behind this identity raises the linear Laguerre factor to
    the power 2p without taking absolute values.  L_1 changes sign, so the
    identity holds for even 2p only; odd 2p raises DomainError.
    """
    if l < 0:
        raise DomainError(f"orbital number must be >= 0, got l={l}")
    order = as_order(p)
    q = order.two_p
    if q is None or q % 2 == 1:
        raise DomainError(
            f"closed n=1 norm needs an even integer 2p: L_1 changes sign, so "
            f"odd 2p is sign-ambiguous; got p={p}")
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
    rational value at any even 2p, "closed_n1" the n = 1 closed form and
    "quadrature" the panels.
    """
    if n < 0 or l < 0:
        raise DomainError(f"quantum numbers must be >= 0, got n={n}, l={l}")
    order = as_order(p)
    pf = order.p
    q = order.two_p
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
    specfun.settled with the density N_{n,l}(1) = 1.
    """
    n, l = state.n, state.l
    params = params or OscillatorParams()
    what = f"Shannon radial quadrature for n={n}, l={l}"
    panels = _norm_panels(n, l, 1.0)
    psi = _panel_psi(n, l, panels)
    j, _ = specfun.settled(lambda m: _panel_pass(n, l, 1.0, panels, psi, m, (l, 0)),
                           _SHANNON_TOL, what, density=1.0)
    return -_LN_2 - 1.5 * math.log(params.lam) - float(j)
