"""Radial entropies of the three-dimensional isotropic harmonic oscillator.

The radial density in the dimensionless variable x = lam r^2 factors through
weighted orthonormal Laguerre polynomials, so every Renyi power integral
reduces to a norm-like integral

    N_{n,l}(p) = integral_0^inf |Lhat_n^(l+1/2)(x)|^{2p} e^{-p x} x^{p l + 1/2} dx.

Three evaluation paths: a symbolic path (exact rational sums) when 2p is an
even integer or n = 0, a closed form for n = 1, and a panel quadrature with
Gauss-Jacobi endpoint weights valid for any real p > 0.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal

from . import specfun
from .angular import AngularState
from .errors import AccuracyError, DomainError
from .order import EntropyOrder, as_order

__all__ = [
    "OscillatorParams", "QuantumState", "LaguerreNorm", "energy",
    "radial_density", "laguerre_norm", "closed_n1l",
    "negparam_laguerre_integral", "renyi_radial_exact",
    "shannon_radial_exact",
]

_LN_2 = math.log(2.0)
_LN_PI = math.log(math.pi)

# exact symbolic path is priced by the polynomial-power degree
SYMBOLIC_COST_CAP = 120
_SLICE_BUDGET = 6000
_POINT_CAP = 200000  # points per recurrence call; bounds a batch's memory
_LOG_VARIATION_CAP = 16.0


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

    The weight exponents alpha = l + 1/2 and beta = (1 - p)/2 combine to the
    integrand power x^(p alpha + beta) = x^(p l + 1/2); the construction
    checks the convergence condition p l + 1/2 > -1.  For routes whose
    polynomial-power expansion is signed (odd 2p), signed_power_value keeps
    the signed integral while value holds the absolute-value integral.
    """

    value: float
    log_value: float
    path: str
    p: float
    alpha: float
    beta: float
    warnings: tuple[str, ...] = ()
    signed_power_value: float | None = None

    def __post_init__(self):
        if not self.value > 0:
            raise DomainError(f"norm value must be positive, got {self.value}")
        if not (self.p * self.alpha + self.beta > -1.0):
            raise DomainError(
                f"norm integral diverges: p*alpha + beta = "
                f"{self.p * self.alpha + self.beta} <= -1")


def _mk_norm(value: float, log_value: float, path: str, p: float, l: int,
             warns: tuple[str, ...] = (),
             signed: float | None = None) -> LaguerreNorm:
    return LaguerreNorm(value, log_value, path, p, l + 0.5, 0.5 * (1.0 - p),
                        warns, signed)


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
# root handling

@lru_cache(maxsize=None)
def _refined_roots(n: int, alpha: Fraction) -> np.ndarray:
    """Laguerre roots: Golub-Welsch start polished by long-double Newton steps.

    Each start is first bracketed by a sign change of the recurrence; the
    brackets are disjoint, so a polished root that stays in its bracket is
    the one root there.  Newton uses x p_n' = n p_n - sqrt(n(n+alpha)) p_{n-1}
    and stops once every step is a few ulp of 2n + alpha + 1 + x, the scale
    at which x enters the recurrence.
    """
    if n == 0:
        return np.zeros(0, dtype=np.longdouble)
    af = float(alpha)
    diag = 2.0 * np.arange(n) + af + 1.0
    off = np.sqrt(np.arange(1, n) * (np.arange(1, n) + af))
    x = eigvalsh_tridiagonal(diag, off).astype(np.longdouble)
    d = np.diff(x)
    gaps = np.minimum(np.append(d, np.inf), np.append(np.inf, d))
    delta = 0.45 * np.minimum(gaps, x / 0.46)
    lo, hi = x - delta, x + delta
    if np.any(specfun.laguerre_orthonormal_weighted(n, alpha, lo)
              * specfun.laguerre_orthonormal_weighted(n, alpha, hi) > 0):
        raise AccuracyError(f"failed to bracket Laguerre roots for n={n}")
    c = np.sqrt(np.longdouble(n) * (n + np.longdouble(af)))
    ulps = 4 * np.finfo(np.longdouble).eps * (2 * n + af + 1 + x)
    for _ in range(8):
        pn = specfun.laguerre_orthonormal_weighted(n, alpha, x)
        pm = specfun.laguerre_orthonormal_weighted(n - 1, alpha, x)
        step = x * pn / (n * pn - c * pm)
        x = x - step
        if np.all(np.abs(step) <= ulps):
            break
    if np.any(np.abs(step) > ulps) or not np.all((lo < x) & (x < hi)):
        raise AccuracyError(f"Newton root polishing failed to settle inside the "
                            f"root brackets for n={n}")
    return x


# ---------------------------------------------------------------------------
# quadrature engine

def _variation(a: float, b: float, bk: str, ak: str, q2: float, gma: float,
               roots) -> float:
    """Upper estimate for the log-range of the regular factor on [a, b].

    Counts the exponential envelope, the power weight at zero, and the
    nearest sign node strictly outside either end.  Nodes further out only
    contribute smooth analytic factors, so a panel with endpoint weights
    resolves them without subdivision; summing their log terms would grow
    without bound as the node count rises and force pointless splitting.
    """
    v = 0.5 * q2 * (b - a)  # e^{-p x}
    if gma > 0 and bk != "zero" and a > 0:
        v += gma * math.log(b / a)
    i = bisect.bisect_left(roots, a)
    if i > 0:
        left = roots[i - 1]
        v += q2 * math.log((b - left) / (a - left))
    j = bisect.bisect_right(roots, b)
    if j < len(roots):
        right = roots[j]
        v += q2 * math.log((right - a) / (right - b))
    return v


def _emit_slices(a, b, bk, ak, q2, gma, roots, out, depth=0):
    if (depth >= 48 or (b - a) < 1e-12 * (1.0 + b)
            or _variation(a, b, bk, ak, q2, gma, roots) <= _LOG_VARIATION_CAP):
        out.append((a, b, bk, ak))
        if len(out) > _SLICE_BUDGET:
            raise AccuracyError("quadrature slice budget exhausted")
        return
    mid = 0.5 * (a + b)
    _emit_slices(a, mid, bk, "plain", q2, gma, roots, out, depth + 1)
    _emit_slices(mid, b, "plain", ak, q2, gma, roots, out, depth + 1)


def _root_slices(rts: list, c0: float, q2: float, gma: float) -> list[tuple]:
    """Slices of [0, last root], split at the roots, or of [0, c0] at n = 0."""
    ends = rts or [c0]
    out: list[tuple] = []
    for i, b in enumerate(ends):
        _emit_slices(ends[i - 1] if i else 0.0, b, "root" if i else "zero",
                     "root" if rts else "plain", q2, gma, rts, out)
    return out


def _norm_panels(n: int, l: int, p: float) -> list[tuple]:
    """Panels (lo, hi, lo_kind, hi_kind) covering (0, inf) for N_{n,l}(p).

    Past the last root the integrand f = C x^gma prod (x - r_i)^{2p} e^{-p x}
    is log-concave, so the mass beyond a point e where log f falls is at most
    f(e) / |(log f)'(e)|.  The tail list ends with the first panel whose start
    has that bound below 1e-25 of a lower bound on the tail mass: never before
    the last lobe's maximum, and with a last panel of negligible share.
    """
    gma, q2 = p * l + 0.5, 2.0 * p
    rts = [float(r) for r in _refined_roots(n, Fraction(2 * l + 1, 2))]
    r = np.array(rts)
    e = rts[-1] if n else (gma + 4.0) / p
    panels = _root_slices(rts, e, q2, gma)

    def log_f(x):
        return q2 * np.sum(np.log(x - r)) + gma * math.log(x) - p * x

    lf, log_mass, prev_w = (-math.inf if n else log_f(e)), -math.inf, None
    for _ in range(400):
        w = _LOG_VARIATION_CAP / (p + gma / e + (
            q2 / max(e - rts[-1], prev_w or 1e-3) if n else 0.0))
        panels.append((e, e + w, "root" if n and prev_w is None else "plain",
                       "plain"))
        slope = q2 * np.sum(1.0 / (e - r)) + gma / e - p if lf > -math.inf else 0.0
        if slope < 0 and lf - math.log(-slope) < log_mass + math.log(1e-25):
            return panels
        lf_next = log_f(e + w)
        log_mass = np.logaddexp(log_mass, math.log(w) + min(lf, lf_next))
        e, lf, prev_w = e + w, lf_next, w
    raise AccuracyError(f"radial tail failed to converge for n={n}, l={l}, p={p}")


def _norm_quadrature(n: int, l: int, p: float, rtol: float, nodes: int,
                     extra_warns: tuple[str, ...] = ()) -> LaguerreNorm:
    """Panel quadrature of N_{n,l}(p), certified by a second node count.

    Jacobi end weights absorb the power at zero and the |x - r|^{2p} zeros at
    root ends.  Each pass evaluates every node of every panel in one batched
    recurrence call (split only above _POINT_CAP points).
    """
    alpha = Fraction(2 * l + 1, 2)
    gma, q2 = p * l + 0.5, 2.0 * p
    panels = _norm_panels(n, l, p)
    lo = np.array([s[0] for s in panels], dtype=np.longdouble)[:, None]
    hi = np.array([s[1] for s in panels], dtype=np.longdouble)[:, None]
    h = (hi - lo) / 2
    bk = np.array([s[2] for s in panels])[:, None]
    ak = np.array([s[3] for s in panels])[:, None]
    kinds = [(q2 if s[3] == "root" else 0.0,
              gma if s[2] == "zero" else (q2 if s[2] == "root" else 0.0))
             for s in panels]
    scale = h[:, 0] ** np.array([a + b + 1 for a, b in kinds], dtype=np.longdouble)

    def value(m_nodes: int) -> np.longdouble:
        rules = {k: specfun.gauss_jacobi(m_nodes, *k) for k in set(kinds)}
        t = np.array([rules[k][0] for k in kinds], dtype=np.longdouble)
        w = np.array([rules[k][1] for k in kinds], dtype=np.longdouble)
        x = lo + h * (1.0 + t)
        psi = np.concatenate([
            specfun.laguerre_orthonormal_weighted(n, alpha, chunk)
            for chunk in np.array_split(x.ravel(), -(-x.size // _POINT_CAP))])
        g = np.abs(psi.reshape(x.shape)) / np.where(bk == "root", x - lo, 1.0)
        g = (g / np.where(ak == "root", hi - x, 1.0)) ** q2
        parts = scale * np.sum(w * g * np.where(bk == "zero", 1.0, x ** gma), axis=1)
        total = parts.sum()
        # node doubling cannot see a region the panels miss; a list that
        # ends on a negligible, decaying panel has passed the last lobe
        if parts[-1] > min(1e-20 * total, parts[-2]):
            raise AccuracyError(
                f"radial tail list ends inside a lobe for n={n}, l={l}, p={p}",
                estimate=float(total))
        return total

    v1 = value(nodes)
    v2 = value(nodes + nodes // 2)
    tol = max(rtol, 5e-13)
    rel = abs(float((v1 - v2) / v2)) if v2 != 0 else float("inf")
    warns = extra_warns
    if rel > tol:
        v3 = value(nodes * 2 + nodes // 4)
        rel2 = abs(float((v2 - v3) / v3)) if v3 != 0 else float("inf")
        if rel2 > tol:
            raise AccuracyError(
                f"radial quadrature did not settle for n={n}, l={l}, p={p}",
                estimate=float(v3), error_bound=rel2)
        v2 = v3
        warns = warns + ("node count escalated to reach tolerance",)
    return _mk_norm(float(v2), float(np.log(v2)), "quadrature", p, l, warns)


# ---------------------------------------------------------------------------
# symbolic paths

def _norm_symbolic_n0(l: int, p: float) -> LaguerreNorm:
    # N_{0,l}(p) = Gamma(pl + 3/2) / (Gamma(l + 3/2)^p p^{pl + 3/2})
    g = p * l + 1.5
    logn = math.lgamma(g) - p * math.lgamma(l + 1.5) - g * math.log(p)
    return _mk_norm(math.exp(logn), logn, "symbolic", p, l)


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
    logn = specfun.log_fraction(acc) - 0.5 * q * (specfun.log_fraction(hn) + 0.5 * _LN_PI)
    if ql % 2 == 0:
        logn += 0.5 * _LN_PI - 0.5 * math.log(float(base))
    return _mk_norm(math.exp(logn), logn, "symbolic", p, l)


def closed_n1l(l: int, p, *, rtol: float = 1e-11, nodes: int = 48) -> LaguerreNorm:
    """Closed form of N_{1,l}(p) through a negative-parameter Laguerre value.

    N_{1,l}(p) = Gamma(lp+3/2)/Gamma(l+5/2)^p * (2p)!/p^{(l+2)p+3/2}
                 * L_{2p}^{(-(l+2)p-3/2)}(-(l+3/2)p).

    The expansion behind this identity raises the linear Laguerre factor to
    the power 2p without taking absolute values, so for odd 2p it evaluates
    the signed integral.  In that case the returned value comes from the
    absolute-power quadrature, with the formula's signed result attached as
    signed_power_value; for even 2p the two coincide and the formula value
    is returned exactly.
    """
    if l < 0:
        raise DomainError(f"orbital number must be >= 0, got l={l}")
    order = as_order(p)
    q = order.two_p
    if q is None:
        raise DomainError(
            f"closed n=1 norm needs 2p to be a positive integer, got p={p}")
    pf = order.p
    a = -Fraction((l + 2) * q + 3, 2)
    x = -Fraction((2 * l + 3) * q, 4)
    lval = specfun.laguerre_eval_negparam(q, a, x)
    g1, h1 = specfun.gamma_half_exact(l * q + 3)
    g2, h2 = specfun.gamma_half_exact(2 * l + 5)
    prefactor = (specfun.log_fraction(g1) + 0.5 * h1 * _LN_PI
                 - pf * (specfun.log_fraction(g2) + 0.5 * h2 * _LN_PI)
                 + math.lgamma(q + 1)
                 - ((l + 2) * pf + 1.5) * math.log(pf))
    if q % 2 == 0:
        if not lval > 0:
            raise AccuracyError(
                f"closed n=1 Laguerre value not positive for l={l}, p={p}")
        logn = prefactor + specfun.log_fraction(lval)
        return _mk_norm(math.exp(logn), logn, "closed_n1", pf, l)
    sign = 1 if lval > 0 else (-1 if lval < 0 else 0)
    signed = sign * math.exp(prefactor + specfun.log_fraction(abs(lval))) if sign else 0.0
    quad = _norm_quadrature(1, l, pf, rtol, nodes)
    warn = ("odd 2p with sign-changing polynomial factor; "
            "quadrature value of the absolute power returned",)
    return _mk_norm(quad.value, quad.log_value, "closed_n1", pf, l,
                    quad.warnings + warn, signed)


def negparam_laguerre_integral(n: int, nu: float, x: float, *,
                               nodes: int = 48) -> float:
    """Laguerre value with parameter -n-nu computed from its integral form.

    ((-1)^n / (n! Gamma(nu))) integral_0^inf (x+y)^n y^(nu-1) e^{-y} dy,
    reduced by y = u^2 so a Jacobi panel absorbs the endpoint power
    u^(2nu-1) exactly; plain panels then ride the Gaussian decay.  Equals
    laguerre_eval_negparam(n, -n - nu, x) for every real x.
    """
    if n < 0:
        raise DomainError(f"polynomial degree must be >= 0, got n={n}")
    if not nu > 0:
        raise DomainError(f"integral form requires nu > 0, got nu={nu}")

    def run(m: int) -> float:
        t, w = specfun.gauss_jacobi(m, 0.0, 2.0 * nu - 1.0)
        u = 0.5 * (1.0 + t)
        total = 2.0 ** (-2.0 * nu) * np.dot(w, (x + u * u) ** n * np.exp(-u * u))
        tg, wg = specfun.gauss_legendre(m)
        lo, streak = 1.0, 0
        for _ in range(80):
            u = lo + 0.5 * (1.0 + tg)
            part = 0.5 * np.dot(
                wg, (x + u * u) ** n * u ** (2.0 * nu - 1.0) * np.exp(-u * u))
            total += part
            lo += 1.0
            if abs(part) < 1e-24 * max(abs(total), 1e-300):
                streak += 1
                if streak >= 2:
                    break
            else:
                streak = 0
        return 2.0 * total

    v1 = run(nodes)
    v2 = run(nodes + nodes // 2)
    scale = max(abs(v2), 1e-30)
    if abs(v1 - v2) / scale > 1e-9:
        raise AccuracyError(
            f"negative-parameter Laguerre integral did not settle for "
            f"n={n}, nu={nu}, x={x}", estimate=v2,
            error_bound=abs(v1 - v2) / scale)
    pref = (-1.0) ** n / (math.factorial(n) * math.gamma(nu))
    return pref * v2


# ---------------------------------------------------------------------------
# public entry points

def laguerre_norm(n: int, l: int, p, *, path: str = "auto",
                  rtol: float = 1e-11, nodes: int = 48) -> LaguerreNorm:
    """Norm integral N_{n,l}(p), dispatching to the best valid route.

    auto order: exact n = 0 formula for any real p, symbolic rational sums
    when 2p is an even integer and the power degree n*2p stays within the
    cost cap, panel quadrature otherwise.  For odd 2p with n >= 1 the
    polynomial power is signed, so quadrature is the faithful route.
    """
    if n < 0 or l < 0:
        raise DomainError(f"quantum numbers must be >= 0, got n={n}, l={l}")
    order = as_order(p)
    pf = order.p
    q = order.two_p
    if path == "auto":
        if n == 0:
            return _norm_symbolic_n0(l, pf)
        if q is not None and q % 2 == 0:
            if n * q <= SYMBOLIC_COST_CAP:
                return _norm_symbolic(n, l, q, pf)
            return _norm_quadrature(
                n, l, pf, rtol, nodes,
                ("symbolic path degree cap exceeded; quadrature used",))
        return _norm_quadrature(n, l, pf, rtol, nodes)
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
        return closed_n1l(l, pf, rtol=rtol, nodes=nodes)
    if path == "quadrature":
        return _norm_quadrature(n, l, pf, rtol, nodes)
    raise DomainError(f"unknown norm path {path!r}")


def renyi_radial_exact(state: QuantumState, params: OscillatorParams | None = None,
                       p=2.0, *, path: str = "auto", rtol: float = 1e-11,
                       norm: LaguerreNorm | None = None) -> float:
    """Renyi entropy of the radial density against the r^2 dr measure.

    R_p = -ln 2 - (3/2) ln lam + ln N_{n,l}(p) / (1 - p).
    """
    order = as_order(p)
    if order.is_unity:
        raise DomainError("p = 1 is the Shannon limit; use shannon_radial_exact")
    params = params or OscillatorParams()
    if norm is None:
        norm = laguerre_norm(state.n, state.l, order.p, path=path, rtol=rtol)
    return (-_LN_2 - 1.5 * math.log(params.lam)
            + norm.log_value / (1.0 - order.p))


# ---------------------------------------------------------------------------
# Shannon entropy: graded panels against the logarithmic kinks

def _graded_edges(lo: float, hi: float, toward_lo: bool, levels: int) -> list:
    """Edges of [lo, hi] geometrically refined toward one end."""
    w = hi - lo
    if toward_lo:
        pts = [lo] + [lo + w * 2.0 ** (-j) for j in range(levels, -1, -1)]
    else:
        pts = [hi - w * 2.0 ** (-j) for j in range(1, levels + 1)]
        pts = [lo] + pts + [hi]
    return pts


def _shannon_segments(n: int, l: int) -> list[tuple[float, float]]:
    alpha = Fraction(2 * l + 1, 2)
    roots = [float(r) for r in _refined_roots(n, alpha)]
    tail_from = roots[-1] if n else float(alpha) + 8.0
    slices = _root_slices(roots, tail_from, 2.0, l + 0.5)

    segs: list[tuple[float, float]] = []

    def push(pts):
        segs.extend(zip(pts[:-1], pts[1:]))

    for lo, hi, bk, ak in slices:
        lo_kink = bk in ("zero", "root")
        hi_kink = ak == "root"
        lev_lo = 44 if bk == "zero" else 24
        if lo_kink and hi_kink:
            mid = 0.5 * (lo + hi)
            push(_graded_edges(lo, mid, True, lev_lo))
            push(_graded_edges(mid, hi, False, 24))
        elif lo_kink:
            push(_graded_edges(lo, hi, True, lev_lo))
        elif hi_kink:
            push(_graded_edges(lo, hi, False, 24))
        else:
            segs.append((lo, hi))

    # tail: graded away from the last kink, then growing smooth panels
    h0 = max(2.0, 0.1 * (tail_from if n else 1.0))
    if n:
        push(_graded_edges(tail_from, tail_from + h0, True, 24))
    e = tail_from + (h0 if n else 0.0)
    w = max(4.0, h0)
    # decay e^{-x}: sixty panels of capped width always suffice
    for _ in range(60):
        segs.append((e, e + w))
        e += w
        w = min(1.6 * w, 25.0)
        if e > tail_from + 25.0 * (l + 3) + 20 * math.sqrt(n + 1) + 120:
            break
    return segs


def shannon_radial_exact(state: QuantumState,
                         params: OscillatorParams | None = None,
                         *, rtol: float = 1e-10, nodes: int = 20) -> float:
    """Shannon entropy of the radial density against the r^2 dr measure.

    S = -ln(2 lam^{3/2}) - integral psi^2 x^{l+1/2} (ln psi^2 + l ln x) dx
    with psi the weighted orthonormal Laguerre function; the integrand's
    logarithmic kinks at the roots and at the origin are met with
    geometrically graded panels.
    """
    n, l = state.n, state.l
    params = params or OscillatorParams()
    alpha = Fraction(2 * l + 1, 2)
    segs = _shannon_segments(n, l)

    def accumulate(m_nodes: int) -> np.longdouble:
        t, w = specfun.gauss_legendre(m_nodes)
        t = t.astype(np.longdouble)
        wl = w.astype(np.longdouble)
        total = np.longdouble(0.0)
        # batch segments to keep the recurrence vectorised
        chunk = max(1, _POINT_CAP // m_nodes)
        for i in range(0, len(segs), chunk):
            part = segs[i:i + chunk]
            los = np.array([s[0] for s in part], dtype=np.longdouble)[:, None]
            his = np.array([s[1] for s in part], dtype=np.longdouble)[:, None]
            half = 0.5 * (his - los)
            x = los + half * (1.0 + t[None, :])
            psi = specfun.laguerre_orthonormal_weighted(n, alpha, x.ravel())
            psi = psi.reshape(x.shape)
            t2 = psi * psi
            with np.errstate(divide="ignore", invalid="ignore"):
                lnt = np.where(t2 > 0, np.log(np.where(t2 > 0, t2, 1.0)), 0.0)
                lnx = np.log(x)
            f = t2 * x ** np.longdouble(l + 0.5) * (lnt + l * lnx)
            total += np.sum(half[:, 0] * (f @ wl))
        return total

    j1 = accumulate(nodes)
    j2 = accumulate(nodes + nodes // 2)
    rel = abs(float(j1 - j2)) / max(1.0, abs(float(j2)))
    if rel > max(rtol, 1e-12) * 50:
        raise AccuracyError(
            f"Shannon radial quadrature did not settle for n={n}, l={l}",
            estimate=float(j2), error_bound=rel)
    return -_LN_2 - 1.5 * math.log(params.lam) - float(j2)
