"""Special-function kernel.

Exact rational orthogonal-polynomial coefficients, Gamma-family helpers on
the half-integer lattice, partial Bell polynomials, powers by convolution
(the Bell expansion is a test oracle), every polynomial a coefficient tuple
under one arithmetic, _conv, _plus and _horner, shared by the exact
references and the Taylor-series engine, one long-double orthonormal
recurrence, _rows, behind every production polynomial value (the classical
Laguerre and Gegenbauer recurrences serve the oracle), each family's
equation and structure relation stated once (laguerre_family,
jacobi_family), one Gauss rule generator (Golub-Welsch start, one Newton
pass of _rows under the square root of the weight on those identities, log
Christoffel weights) behind every Gauss-Laguerre and Gauss-Jacobi rule and
the Gegenbauer roots, the log-weighted Gauss-Jacobi product rule, one panel
Taylor-series engine for both families (panel_rows), the panel planner with
its one mass bound, the one panel function, which maps those rules onto
panels in long double, calls its integrand once on all their nodes, forms
every power from logs and checks the pieces dropped, the two-node-count check
and quadrature plumbing.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import islice, zip_longest
from typing import Callable, NamedTuple, Sequence

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal

from .errors import AccuracyError, DomainError

__all__ = [
    "digamma", "gamma_half_exact", "log_fraction", "pochhammer",
    "binomial_exact", "bell_partial", "poly_power", "jacobi_poly",
    "orthonormal_jacobi", "gegenbauer_eval", "gegenbauer_roots", "laguerre_poly",
    "laguerre_eval",
    "laguerre_orthonormal_weighted", "laguerre_eval_negparam", "integrate",
    "Family", "jacobi_family", "laguerre_family", "gauss_legendre", "gauss_jacobi",
    "gauss_laguerre", "gauss_jacobi_log", "panel_rows", "plan_panels", "power_panels",
    "settled",
]

# entries kept by each cache of Gauss rules, Bessel zeros and constants, above the
# 270 a whole benchmark pool fills (gauss_jacobi on grid); new orders evict the oldest
_RULE_CACHE = 512


def _require_long_double(finfo) -> None:
    """Raise ImportError unless long double carries the x87 64-bit mantissa.

    With float64 in its place some recurrence values drift past their
    tolerance with no error raised, so the kernel refuses to load.
    """
    if finfo.nmant < 63:
        raise ImportError(
            "oscent needs an 80-bit extended long double (64-bit mantissa, as "
            f"on x86-64 Linux); numpy.longdouble here has {finfo.nmant + 1} bits")


_require_long_double(np.finfo(np.longdouble))


# ---------------------------------------------------------------------------
# Gamma family

def digamma(x: float) -> float:
    """Logarithmic derivative of Gamma at x > 0."""
    if not x > 0:
        raise DomainError(f"digamma requires x > 0, got {x}")
    import scipy.special  # only here: importing oscent loads no scipy.special
    return float(scipy.special.digamma(x))


def gamma_half_exact(two_x: int) -> tuple[Fraction, int]:
    """Gamma(two_x / 2) represented exactly as (r, h) meaning r * pi**(h/2).

    Only arguments on the positive half-integer lattice are supported; these
    are the ones arising in the exact entropy sums.
    """
    if two_x <= 0:
        raise DomainError(f"gamma_half_exact requires a positive argument, got {two_x}/2")
    if two_x % 2 == 0:
        return Fraction(math.factorial(two_x // 2 - 1)), 0
    j = (two_x - 1) // 2
    # Gamma(j + 1/2) = (2j)! sqrt(pi) / (4^j j!)
    return Fraction(math.factorial(2 * j), 4 ** j * math.factorial(j)), 1


def log_fraction(fr: Fraction) -> float:
    """log of a positive rational, safe for huge numerators/denominators.

    Scaled by bit lengths to one float in (1/2, 2), which keeps the digits
    that log(num) - log(den) would cancel.
    """
    if fr <= 0:
        raise DomainError("log_fraction requires a positive rational")
    shift = fr.numerator.bit_length() - fr.denominator.bit_length()
    num = fr.numerator << max(-shift, 0)
    den = fr.denominator << max(shift, 0)
    return math.log(num / den) + shift * math.log(2.0)


def _exp_or_none(x: float) -> float | None:
    """exp(x) as a float, or None where it overflows (x > 709.78): the logs
    carry the entropies, the plain power integrals are only reported."""
    try:
        return math.exp(x)
    except OverflowError:
        return None


def pochhammer(x, n: int) -> Fraction:
    """Rising factorial (x)_n over exact rationals."""
    if n < 0:
        raise DomainError(f"pochhammer order must be >= 0, got {n}")
    x = Fraction(x)
    out = Fraction(1)
    for k in range(n):
        out *= x + k
    return out


def binomial_exact(x, k: int) -> Fraction:
    """Generalised binomial coefficient C(x, k) with rational x."""
    if k < 0:
        raise DomainError(f"binomial order must be >= 0, got {k}")
    return pochhammer(Fraction(x) - k + 1, k) / math.factorial(k)


# ---------------------------------------------------------------------------
# Exact polynomials: a polynomial is a tuple cs of exact or long-double
# coefficients, cs[k] multiplying x**k

def _conv(f, g) -> tuple:
    """The product of two polynomials given by their coefficient tuples."""
    return tuple(sum(f[i] * g[k - i] for i in range(max(0, k + 1 - len(g)), min(k + 1, len(f))))
                 for k in range(len(f) + len(g) - 1))


def _plus(*fs) -> tuple:
    """The sum of polynomials given by their coefficient tuples."""
    return tuple(sum(e) for e in zip_longest(*fs, fillvalue=0))


def _horner(cs, x):
    """The polynomial with coefficients cs at x, from the last coefficient down."""
    acc = cs[-1]
    for c in cs[-2::-1]:
        acc = acc * x + c
    return acc


def bell_partial(n: int, k: int, xs: Sequence):
    """Partial exponential Bell polynomial B_{n,k}(x_1, ..., x_{n-k+1}).

    Works over any commutative numeric type (Fractions give exact results).
    """
    if k < 0 or k > n:
        raise DomainError(f"bell_partial requires 0 <= k <= n, got n={n}, k={k}")
    if n == 0:
        return xs[0] * 0 + 1 if xs else 1
    if len(xs) < n - k + 1:
        raise DomainError("bell_partial needs arguments x_1 .. x_{n-k+1}")
    zero = xs[0] * 0
    # B[j][i] = B_{j,i}; recurrence over the first argument index.  Entries
    # that would need arguments beyond x_{n-k+1} cannot contribute to the
    # target B_{n,k}, so missing arguments act as zeros.
    table = [[zero for _ in range(k + 1)] for _ in range(n + 1)]
    table[0][0] = zero + 1
    for j in range(1, n + 1):
        top = min(j, k)
        for i in range(1, top + 1):
            acc = zero
            for s in range(1, min(j - i + 1, len(xs)) + 1):
                x = xs[s - 1]
                if x == 0:
                    continue
                acc += math.comb(j - 1, s - 1) * x * table[j - s][i - 1]
            table[j][i] = acc
    return table[n][k]


def poly_power(poly: tuple, q: int) -> tuple:
    """q-th power of an exact polynomial, q >= 1.

    Powers by convolution; the Bell expansion is a test oracle
    (``_poly_power_bell`` in ``tests/test_specfun.py``).
    """
    if q < 1:
        raise DomainError(f"poly_power requires q >= 1, got {q}")
    out = (1,)
    for _ in range(q):
        out = _conv(out, poly)
    return out


@lru_cache(maxsize=None)
def _jacobi_cached(n: int, a2: int, b2: int) -> tuple:
    a = Fraction(a2, 2)
    b = Fraction(b2, 2)
    half_minus = (Fraction(-1, 2), Fraction(1, 2))  # (x-1)/2
    half_plus = (Fraction(1, 2), Fraction(1, 2))    # (x+1)/2
    out = (Fraction(0),)
    for s in range(n + 1):
        coef = binomial_exact(n + a, n - s) * binomial_exact(n + b, s)
        if coef == 0:
            continue
        term = (coef,)
        for _ in range(s):
            term = _conv(term, half_minus)
        for _ in range(n - s):
            term = _conv(term, half_plus)
        out = _plus(out, term)
    return out


def jacobi_poly(n: int, a, b) -> tuple:
    """Classical Jacobi polynomial P_n^{(a,b)} with exact coefficients.

    Parameters a, b may be rationals on the half-integer lattice; both must
    exceed -1.
    """
    if n < 0:
        raise DomainError(f"jacobi_poly degree must be >= 0, got {n}")
    a = Fraction(a)
    b = Fraction(b)
    if a <= -1 or b <= -1:
        raise DomainError(f"jacobi parameters must exceed -1, got ({a}, {b})")
    if a.denominator not in (1, 2) or b.denominator not in (1, 2):
        raise DomainError("jacobi parameters must lie on the half-integer lattice")
    return _jacobi_cached(n, int(2 * a), int(2 * b))


def orthonormal_jacobi(n: int, a, b) -> tuple[tuple, Fraction]:
    """Jacobi polynomial and its exact squared norm for weight (1-x)^a (1+x)^b.

    norm_square = 2^{a+b+1} G(a+n+1) G(b+n+1) / (n! (a+b+2n+1) G(a+b+n+1));
    kept as an exact rational, which requires integer a and b.
    """
    a = Fraction(a)
    b = Fraction(b)
    if a.denominator != 1 or b.denominator != 1:
        raise DomainError("orthonormal_jacobi keeps the norm exact only for integer parameters")
    if a < 0 or b < 0:
        raise DomainError(f"orthonormal_jacobi requires a, b >= 0, got ({a}, {b})")
    ai, bi = int(a), int(b)
    ns = (Fraction(2 ** (ai + bi + 1)) * math.factorial(ai + n) * math.factorial(bi + n)
          / (math.factorial(n) * (ai + bi + 2 * n + 1) * math.factorial(ai + bi + n)))
    return jacobi_poly(n, ai, bi), ns


def gegenbauer_eval(n: int, lam, t):
    """Gegenbauer C_n^{(lam)}(t) by the forward three-term recurrence.

    (k + 1) C_{k+1} = 2 (k + lam) t C_k - (k + 2 lam - 1) C_{k-1}, run in
    extended precision; stable on [-1, 1].  Long-double input gives
    long-double output, anything else float.
    """
    if n < 0:
        raise DomainError(f"gegenbauer degree must be >= 0, got {n}")
    if not lam > 0:
        raise DomainError(f"gegenbauer parameter must be positive, got {lam}")
    t = np.asarray(t)
    ts = t.astype(np.longdouble)
    a = np.longdouble(lam)
    c0, c1 = np.ones_like(ts), 2 * a * ts
    for k in range(1, n):
        c0, c1 = c1, (2 * (k + a) * ts * c1 - (k + 2 * a - 1) * c0) / (k + 1)
    out = c0 if n == 0 else c1
    if t.ndim == 0:
        return float(out)
    return out if t.dtype == np.longdouble else out.astype(float)


def gegenbauer_roots(n: int, lam) -> np.ndarray:
    """Roots of C_n^{(lam)} in (-1, 1): long-double Gauss-Jacobi nodes."""
    if n == 0:
        return np.zeros(0, dtype=np.longdouble)
    # a copy: the cached rule is shared with every other caller
    return np.array(gauss_jacobi(n, float(lam) - 0.5, float(lam) - 0.5)[0])


# ---------------------------------------------------------------------------
# Laguerre family

def _laguerre_exact(n: int, a: Fraction) -> tuple:
    """L_n^{(a)} for any rational a, from its explicit finite sum."""
    return tuple(
        (-1) ** k * pochhammer(a + k + 1, n - k) / (math.factorial(n - k) * math.factorial(k))
        for k in range(n + 1))


# the half-integer lattice of laguerre_poly only: other parameters are not kept
_laguerre_cached = lru_cache(maxsize=None)(_laguerre_exact)


def laguerre_poly(n: int, alpha) -> tuple:
    """Generalised Laguerre L_n^{(alpha)} with exact coefficients (alpha > -1)."""
    a = Fraction(alpha)
    if a <= -1:
        raise DomainError(f"laguerre parameter must exceed -1, got {a}")
    if a.denominator not in (1, 2):
        raise DomainError("laguerre parameter must lie on the half-integer lattice")
    return _laguerre_cached(n, a)


def laguerre_eval(n: int, alpha: float, x):
    """L_n^{(alpha)}(x) by the classical three-term recurrence.

    The recurrence is accumulated in extended precision (80-bit significand
    on x86) so that degrees up to a few hundred keep full double accuracy.
    """
    if n < 0:
        raise DomainError(f"laguerre degree must be >= 0, got {n}")
    if not alpha > -1:
        raise DomainError(f"laguerre parameter must exceed -1, got {alpha}")
    xs = np.asarray(x, dtype=np.longdouble)
    a = np.longdouble(float(alpha))
    p0, p1 = np.ones_like(xs), a + 1 - xs
    for k in range(1, n):
        p0, p1 = p1, ((2 * k + a + 1 - xs) * p1 - (k + a) * p0) / (k + 1)
    out = p0 if n == 0 else p1
    if np.ndim(x) == 0:
        return float(out)
    return np.asarray(out, dtype=float)


def laguerre_orthonormal_weighted(n: int, alpha: float, x):
    """Orthonormal Laguerre times exp(-x/2), the bounded oscillator kernel:
    row n of laguerre_family's _rows under exp(-x/2) by panel_rows' recurrence,
    its sign (-1)^n undone.

    Returned in extended precision; the square times x**alpha integrates
    to one over (0, inf).
    """
    if n < 0:
        raise DomainError(f"laguerre degree must be >= 0, got {n}")
    if not alpha > -1:
        raise DomainError(f"laguerre parameter must exceed -1, got {alpha}")
    p = panel_rows(laguerre_family(n, alpha), None, -0.5)(np.asarray(x, dtype=np.longdouble))
    return -p if n % 2 else p


def laguerre_eval_negparam(n: int, alpha, x):
    """L_n^{(alpha)}(x) for arbitrary (possibly very negative) parameter.

    Evaluated through the explicit finite sum with exact rational
    coefficients, which stays valid below alpha = -1 where the recurrence
    normalisation breaks down. Exact when alpha and x are rational.
    """
    if n < 0:
        raise DomainError(f"laguerre degree must be >= 0, got {n}")
    acc = _horner(_laguerre_exact(n, Fraction(alpha)), Fraction(x))
    if isinstance(alpha, Fraction) or isinstance(x, Fraction):
        return acc
    return float(acc)


# ---------------------------------------------------------------------------
# Quadrature

@lru_cache(maxsize=None)
def gauss_legendre(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Cached Gauss-Legendre nodes and weights on [-1, 1]."""
    return np.polynomial.legendre.leggauss(m)


def _rows(x, diag, off, p):
    """Rows p_0 = p, p_1(x), ..., p_m(x) of an orthonormal recurrence.

    x p_k = off[k] p_{k+1} + diag[k] p_k + off[k-1] p_{k-1} for k < m =
    len(diag); off[-1] meets p_{-1} = 0.  p_0 is a common factor.
    """
    prev = 0
    # lists of long-double scalars: cheaper to step through than array indexing
    for d, b_prev, inv_b in zip(list(diag), [0, *off[:-1]], list(1 / off)):
        yield p
        prev, p = p, ((x - d) * p - b_prev * prev) * inv_b
    yield p


def _last_rows(x, diag, off, p):
    """The last two rows p_(m-1), p_m of _rows, with p_(-1) = 0 at m = 0."""
    prev = 0
    for row in islice(_rows(x, diag, off, p), 1, None):
        prev, p = p, row
    return prev, p


def _gauss_rule(diag, off, ln_mu0, ln_weight, identities) -> tuple[np.ndarray, np.ndarray]:
    """Long-double Gauss nodes and log Christoffel weights of a Family's rows.

    Here the rows start at sqrt(w / mu0): they are r_k = sqrt(w) p_k, and
    K = sum_{k<m} r_k^2, w over the Christoffel function, stays bounded for
    any weight.  By Pearson's equation (P w)' = Q w they keep both identities
    with A_m + (Q - P')/2 for A_m and P' for Q.

    Golub-Welsch eigenvalues (Math. Comp. 23, 1969) start one pass of the
    recurrence that sums K and takes one Newton step s = r_m / r_m' from the
    structure relation.  Newton's next step would be |P'/(2P)| s^2; the pass
    is done when that is a few ulp of |x| plus the Gershgorin bound, and
    another pass from the stepped nodes (up to 8) is only a fallback.  The
    weights w / K (Gautschi 2004) come back as ln w - ln K, in range where mu0
    or the weights leave it.  They are taken at the start x and moved to the
    nodes by the differentiated Christoffel-Darboux identity for w / K =
    1 / sum p_k^2, (Q + b_m (R_m - R_(m-1)) p_m p_(m-1) / sum p_k^2) / P, so
    a node's rounding next to a singular end of w does not enter.  The checks:
    only the m distinct roots increase strictly and alternate the sign of
    r_(m-1) (interlacing), and every log weight is finite.
    """
    m = len(diag)
    x = np.longdouble(eigvalsh_tridiagonal(diag.astype(float), off[:-1].astype(float)))
    eps = np.finfo(np.longdouble).eps
    scale = np.max(np.abs(diag)) + 2 * np.max(off)
    # a float fault ends in a check below: NaN never settles, and a start on
    # an end of the interval (P = 0) makes the predicted step NaN
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(8):
            rows = _rows(x, diag, off, np.exp((ln_weight(x) - ln_mu0) / 2))
            k_sum = 0
            for pm1 in islice(rows, m):
                k_sum = k_sum + pm1 * pm1
            pm = next(rows)
            (big_p, d_p, *_), (q, _), _, dr, a_m, b_ratio = identities(x)
            b_pm1 = off[-1] * pm1
            step = big_p * pm / ((a_m + (q - d_p) / 2) * pm + b_ratio * b_pm1)
            nodes = x - step
            if np.all(np.abs(d_p / (2 * big_p)) * step * step
                      <= 4 * eps * (scale + np.abs(nodes))):
                break
            x = nodes
        else:
            raise AccuracyError(f"Gauss rule of {m} nodes: Newton steps did not settle")
        sign = np.sign(pm1)
        if not (np.all(np.diff(nodes) > 0) and np.all(sign[:-1] * sign[1:] < 0)):
            raise AccuracyError(f"Gauss rule of {m} nodes: the nodes are not "
                                f"{m} distinct roots")
        # lambda(x - s) = lambda - s lambda', all at the start x
        ln_w = (ln_weight(x) - np.log(k_sum)
                - np.log1p(step * (q + dr * b_pm1 * pm / k_sum) / big_p))
    if not np.all(np.isfinite(ln_w)):
        raise AccuracyError(f"Gauss rule of {m} nodes: the log weights are not finite")
    return nodes, ln_w


_STIRLING = tuple(np.longdouble(num) / den for num, den in (
    (1, 12), (-1, 360), (1, 1260), (-1, 1680), (1, 1188), (-691, 360360)))
_HALF_LN_2PI = np.longdouble("0.9189385332046727417803297364056176")
_LN_2 = np.longdouble("0.6931471805599453094172321214581766")
_LN_PI = np.longdouble("1.1447298858494001741434273513530587")


def _lgamma(x) -> np.longdouble:
    """ln Gamma(x) for x > 0 in long double: Stirling's series (DLMF 5.11.1)
    at x shifted up to >= 24, where its first omitted term is below 1e-19."""
    x, shift = np.longdouble(x), np.longdouble(1)
    while x < 24:
        x, shift = x + 1, shift * x
    series = np.longdouble(0)
    for c in reversed(_STIRLING):
        series = c + series / (x * x)
    return (x - np.longdouble(0.5)) * np.log(x) - x + _HALF_LN_2PI + series / x \
        - np.log(shift)


class Family(NamedTuple):
    """A classical weight w = exp(ln_weight) of mass mu0 = exp(ln_mu0), the
    recurrence (diag, off) of _rows for its orthonormal p_k to degree m =
    len(diag), and identities(x), stated once for _gauss_rule and _panel_series
    (DLMF Table 18.8.1): P and Q as Taylor coefficients at x and R_m of P p_k''
    + Q p_k' + R_k p_k = 0, R_m - R_(m-1), and A_m and B_m / b_m of the structure
    relation P p_m' = A_m p_m + B_m p_(m-1), b_m = off[-1]."""

    diag: np.ndarray
    off: np.ndarray
    ln_mu0: np.longdouble
    ln_weight: Callable
    identities: Callable


def jacobi_family(m: int, a: float, b: float) -> Family:
    """(1-x)^a (1+x)^b on [-1, 1], mu0 = 2^(a+b+1) B(a+1, b+1): p_k keeps the
    identities of P_k^(a,b) (DLMF §18.9), with s = 2m + a + b in the structure
    relation (1 - x^2) p_m' = m ((a - b)/s - x) p_m + (s + 1) b_m p_(m-1)."""
    a_, b_ = np.longdouble(a), np.longdouble(b)
    k = np.arange(1, m + 1, dtype=np.longdouble)
    s = 2 * k + a_ + b_
    diag = np.append((b_ - a_) / (a_ + b_ + 2), (b_ * b_ - a_ * a_) / (s * (s + 2)))[:m]
    # at k = 1 the factor (k + a + b) / (s - 1) of off_k^2 is exactly 1
    off = np.sqrt(4 * k * (k + a_) * (k + b_) / (s * s * (s + 1))
                  * np.append(1, (k[1:] + a_ + b_) / (s[1:] - 1)))
    s = 2 * m + a_ + b_
    return Family(diag, off, (a_ + b_ + 1) * _LN_2 + _lgamma(a_ + 1) + _lgamma(b_ + 1)
                  - _lgamma(a_ + b_ + 2), lambda x: a_ * np.log1p(-x) + b_ * np.log1p(x),
                  lambda x: (((1 - x) * (1 + x), -2 * x, -1),
                             (b_ - a_ - (a_ + b_ + 2) * x, -(a_ + b_ + 2)),
                             m * (m + a_ + b_ + 1), s, m * ((a_ - b_) / s - x), s + 1))


def laguerre_family(m: int, a: float) -> Family:
    """x^a e^-x on (0, inf), mu0 = Gamma(a + 1): p_k, (-1)^k times the
    orthonormal L_k^(a), keeps the identities of L_k^(a) (DLMF §18.9),
    x p_m' = m p_m + b_m p_(m-1) and x p_k'' + (a + 1 - x) p_k' + k p_k = 0."""
    a_, k = np.longdouble(float(a)), np.arange(m, dtype=np.longdouble)
    return Family(2 * k + a_ + 1, np.sqrt((k + 1) * (k + 1 + a_)), _lgamma(float(a) + 1.0),
                  lambda x: a_ * np.log(x) - x,
                  lambda x: ((x, 1), (a_ + 1 - x, -1), m, 1, m, 1))


@lru_cache(maxsize=_RULE_CACHE)
def gauss_jacobi(m: int, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """Cached long-double Gauss-Jacobi rule for (1-x)^a (1+x)^b on [-1, 1]:
    nodes and log weights of jacobi_family, from _gauss_rule's one Newton pass."""
    return _gauss_rule(*jacobi_family(m, a, b))


@lru_cache(maxsize=_RULE_CACHE)
def gauss_laguerre(m: int, a: float) -> tuple[np.ndarray, np.ndarray]:
    """Cached long-double Gauss rule of m nodes for x^a e^-x on (0, inf):
    nodes and log weights of laguerre_family, from _gauss_rule's one Newton pass."""
    if m == 0:
        return np.zeros(0, dtype=np.longdouble), np.zeros(0, dtype=np.longdouble)
    return _gauss_rule(*laguerre_family(m, a))


def _log_moments(m: int, a, b) -> np.ndarray:
    """nu_k / sqrt(mu0 h_k), k < m, as ratios of consecutive terms (long double)."""
    k = np.arange(1, m - 1, dtype=np.longdouble)
    h_step = ((2 * k + a + b + 1) * (k + a + 1) * (k + b + 1)
              / ((2 * k + a + b + 3) * (k + a + b + 1) * (k + 1)))
    steps = -(k + 1 + a) * k / ((k + 1) * (k + a + b + 2)) / np.sqrt(h_step)
    nu0 = math.log(2.0) + digamma(float(b) + 1) - digamma(float(a + b) + 2)
    nu1 = (1 + a) / (a + b + 2) / np.sqrt((a + 1) * (b + 1) / (a + b + 3))
    return np.concatenate(([nu0], nu1 * np.cumprod(np.append(1, steps))))[:m]


@lru_cache(maxsize=_RULE_CACHE)
def gauss_jacobi_log(m: int, a: float, b: float) -> tuple[np.ndarray, ...]:
    """Gauss-Jacobi rule plus the weights of ln(1+t) and ln(1-t) on its nodes.

    Returns (t, ln_w, lp, lm) for the weight (1-t)^a (1+t)^b, with lp and lm
    per unit Christoffel weight: sum(w lp f(t)) and sum(w lm f(t)),
    w = exp(ln_w), integrate it times ln(1+t) f and ln(1-t) f, exactly for
    polynomials f of degree < m.  A product rule from modified moments
    (Gautschi 2004): lp_i = sum_k p_k(t_i) nu_k / sqrt(h_k) over the
    orthonormal p_k = P_k / sqrt(h_k), with nu_k = int weight ln(1+t) P_k:
    nu_0 = mu0 [ln 2 + psi(b+1) - psi(a+b+2)], mu0 = 2^{a+b+1} B(a+1, b+1),
    and nu_k = (-1)^{k-1} mu0 C(k+a, k) (k-1)! / (a+b+2)_k for k >= 1
    (Chu-Vandermonde differentiated in the exponent of 1+t); lm mirrors
    t -> -t.  t and ln_w are gauss_jacobi's long-double nodes and log
    Christoffel weights, which the log weights must match; lp and lm are
    long double.
    """
    t, ln_w = gauss_jacobi(m, a, b)
    a_, b_ = np.longdouble(a), np.longdouble(b)
    # sqrt(mu0) p_k(t_i) in row k < m
    p = np.array(list(_rows(t, *jacobi_family(m - 1, a, b)[:2], np.ones_like(t))))
    return (t, ln_w, _log_moments(m, a_, b_) @ p,
            (_log_moments(m, b_, a_) * (-1.0) ** np.arange(m)) @ p)


# ---------------------------------------------------------------------------
# Panel rows: a Taylor series of the family's equation about each panel centre

# From degree _TAYLOR_MIN_N on, panel_rows takes the series of _panel_series:
# one recurrence over the panel centres and a fixed cost per panel list, then
# _TAYLOR_TERMS multiply-adds a node, against an m-step recurrence per node
# below.  Warm ms per value, recurrence / series, medians of 25 alternated calls,
# by quadrature (p = 0.7, 2.5) and Shannon (p = 1), radial and angular (n = l - |m|):
#     n              10        30        40        60         100
#     p=0.7, l=0     2.2/3.6   5.4/6.2   7.5/7.2   13.8/9.7   28.3/13.3
#     p=2.5, l=0     2.2/3.2   5.4/5.2   7.5/5.0   14.4/9.3   31.1/13.6
#     p=2.5, l=3     2.7/4.1   5.7/6.5   8.0/7.7   15.1/10.7  30.8/14.9
#     p=1,   l=3     2.4/3.8   6.1/6.9   8.5/8.3   14.8/10.7  30.4/15.3
#     p=0.7, l=20    2.5/4.0   6.0/7.2   8.1/8.2   13.7/10.9  28.8/16.5
#     p=2.5, m=5     1.5/2.9   4.5/5.2   6.3/6.0   11.5/7.9   25.6/11.7
#     p=1,   m=5     1.6/3.1   4.8/5.4   6.9/6.5   12.1/8.6   27.8/13.2
_TAYLOR_MIN_N = 40
# Worst deviation of the series from the recurrence, relative to the largest
# |row| on the panel, at the 36 nodes of every root gap, cut or not: radial
# at l in {0, 1, 20, 300, 1000}, angular (no gauge) at m in {0, 5, 50}; and
# of every radial head slice and tail panel that _SERIES_CUT keeps at that
# many terms, at l in {0, 1, 3, 20, 60, 300, 1000} and p in {0.1, 0.5, 1,
# 1.3, 2.5, 8} (share kept):
#     terms         16             20             24             28
#     n = 40        1.6e-8         6.1e-12        6.1e-16        1.2e-16
#     n = 400       1.1e-8         3.3e-12        2.3e-15        2.3e-15
#     n = 1500      1.1e-8         2.6e-12        3.2e-14        3.2e-14
#     angular l=100 1.4e-9         3.2e-14        4.6e-17        4.6e-17
#          l = 1000 2.9e-8         2.2e-12        7.7e-16        7.7e-16
#          l = 3000 3.0e-8         2.3e-12        5.6e-15        5.6e-15
#     head, n = 40  3.9e-16 (92%)  8.8e-16 (98%)  2.6e-15 (99%)  1.4e-14 (99%)
#          n = 400  1.4e-15 (91%)  2.5e-15 (97%)  2.5e-15 (98%)  1.6e-14 (99%)
#     tail, n = 40  8.6e-15 (47%)  8.6e-15 (64%)  8.6e-15 (80%)  8.6e-15 (86%)
#          n = 400  4.9e-14 (61%)  4.9e-14 (80%)  4.9e-14 (88%)  4.9e-14 (91%)
# From 24 terms on it is rounding: at (n, l) = (1500, 1), on the first gap,
# against 60-digit mpmath, the series is 1.2e-14 off and the recurrence 2.0e-14.
# The tail's worst node is next to the last root, where the recurrence is the
# one further off: 6.8e-15 against the series' 2.0e-15 at (40, 1000, 8).
_TAYLOR_TERMS = 24
# A panel keeps its series while its last two coefficients are within
# _SERIES_CUT of its largest.  Share of panels kept at 24 terms, and the
# worst deviation of a kept head slice over n: radial over n in {40, 100,
# 400, 1500} and the l and p above, angular over l in {100, 300, 1000}, m in
# {0, 5, 50} and p in {0.5, 2.5, 8} (edge slices: [-1, t_1] and [t_n, 1] sliced):
#     cut           1e-18     1e-17     1e-16     1e-15     1e-14
#     head          97.3%     98.0%     98.6%     98.9%     99.1%
#     root gap      0.5%      11.0%     99.1%     99.7%     99.96%
#     tail          81.3%     83.2%     85.6%     86.8%     88.5%
#     worst head/n  1.2e-17   2.2e-17   6.6e-17   3.4e-16   5.8e-16
#     angular gap   1.6%      25.3%     98.5%     99.4%     99.75%
#     edge slice    79.4%     85.8%     86.5%     87.2%     92.9%
#     worst edge/n  3.3e-19   1.1e-18   1.1e-18   1.2e-18   5.7e-17
# The gaps' last coefficients sit at rounding, 1e-17 to 1e-15 of the largest,
# where the series is already within 4e-17 n; from 1e-15 on, head slices at
# l = 1000 keep series up to 1.6e-14 off.  Most panels the cut sends back are
# wide far-tail panels at small p, where 24 terms fall short.
_SERIES_CUT = 1e-16


def _panel_series(fam: Family, panels, tau=0.0, ln_scale=0.0, s=0):
    """Centres c, half-lengths h, gauge exponents s, (panels, 1) each, and the
    scaled Taylor coefficients v_k = w_k h^k, k < _TAYLOR_TERMS, of w = (P/P(c))^s
    y about each centre, for y = e^(tau x) p_m e^(-(ln mu0 + ln_scale)/2); s
    holds on root gaps (both ends "root"), 0 where a panel may end on a zero of P.
    With g = tau P + s P', w solves P^2 w'' + P (Q - 2g) w' + (P (R_m - g')
    + g (g + P' - Q)) w = 0, whose coefficients L, F and Z in powers of x - c
    give (Glaser, Liu and Rokhlin, SIAM J. Sci. Comput. 29, 2007, 1420)
        k (k-1) v_k = -sum_(d>=1) h^d (L_d i(i-1) + F_(d-1) i + Z_(d-2)) v_i / L_0,
    i = k - d, from w_0 = y(c) and w_1 = ((A_m + g) y + B_m y_(m-1)) / P at c:
    one _last_rows pass over the centres and the structure relation."""
    lo, hi = (np.array(col, dtype=np.longdouble)[:, None] for col in list(zip(*panels))[:2])
    c, h = (lo + hi) / 2, (hi - lo) / 2
    s = np.array([[s if lk == hk == "root" else 0] for *_, lk, hk in panels])
    prev, row = _last_rows(c, fam.diag, fam.off, np.exp(tau * c - (fam.ln_mu0 + ln_scale) / 2))
    pp, qq, r, _, a_m, b_ratio = fam.identities(c)
    dp = [j * e for j, e in enumerate(pp)][1:]
    g = _plus([tau * e for e in pp], [s * e for e in dp])
    dg = [j * e for j, e in enumerate(g)][1:]
    eq = (_conv(pp, pp), _conv(pp, _plus(qq, [-2 * e for e in g])),
          _plus(_conv(pp, _plus([r], [-e for e in dg])),
                _conv(g, _plus(g, dp, [-e for e in qq]))))
    top = len(eq[2]) + 1  # shifts d = 1 .. top: h^d / L_0 times L_d, F_(d-1) and Z_(d-2)
    h_d = np.cumprod(np.broadcast_to(h, (top, *h.shape)), axis=0) / eq[0][0]
    pad = [((0,) * j + e + (0,) * top)[1:top + 1] for j, e in enumerate(eq)]
    lead, first, zero = (h_d * np.array(np.broadcast_arrays(c, *e))[1:] for e in pad)
    k = np.arange(2, _TAYLOR_TERMS, dtype=np.longdouble)[:, None, None, None]
    i = k - np.arange(1, top + 1)[:, None, None]
    # v_k = sum_d f[k - 2, d] v_(k-d) over d <= k: (k, d, panels, 1)
    f = ((lead * (i - 1) + first) * i + zero) / (-k * (k - 1))
    v = np.zeros((_TAYLOR_TERMS, *c.shape), dtype=row.dtype)
    b_m = fam.off[-1] if len(fam.off) else 0
    v[0], v[1] = row, h * ((a_m + g[0]) * row + b_ratio * b_m * prev) / pp[0]
    for k in range(2, _TAYLOR_TERMS):
        v[k] = (f[k - 2, :k] * v[k - 1::-1][:top]).sum(axis=0)
    return c, h, s, v


def panel_rows(fam: Family, panels, tau=0.0, ln_scale=0.0, s=0) -> Callable:
    """The integrand poly(x) of power_panels on the panel list: row m =
    len(fam.diag) of _rows from r_0 = exp(tau x - (ln mu0 + ln_scale)/2), x of
    shape (len(panels), k), a row of nodes a panel.  From m = _TAYLOR_MIN_N on,
    each panel whose own last two coefficients of _panel_series are within
    _SERIES_CUT of its largest takes that series, shared by every pass; the
    other panels, and all below that m or with panels None, the recurrence."""
    def recurrence(x):
        return _last_rows(x, fam.diag, fam.off,
                          np.exp(tau * x - (fam.ln_mu0 + ln_scale) / 2))[1]

    if panels is None or len(fam.diag) < _TAYLOR_MIN_N:
        return recurrence
    c, h, s, coefs = _panel_series(fam, panels, tau, ln_scale, s)
    mag = np.abs(coefs)
    cut = _SERIES_CUT * mag.max(axis=0)
    # a cut below the normal range certifies nothing: the row at c has underflowed
    kept = ((mag[-1] + mag[-2] <= cut) & (cut >= np.finfo(cut.dtype).tiny)).ravel()
    c, h, s, coefs = c[kept], h[kept], s[kept], coefs[:, kept]
    pc = fam.identities(c)[0][0]  # P(c)

    def poly(x):
        y, xk = np.empty_like(x), x[kept]
        if not kept.all():
            y[~kept] = recurrence(x[~kept])
        acc = _horner(coefs, (xk - c) / h)
        y[kept] = acc * np.exp(-s * np.log(fam.identities(xk)[0][0] / pc)) if s.any() else acc
        return y

    return poly


def power_panels(panels, poly: Callable, q2: float, edges, m: int, log_coefs=None):
    """Panel integrals of |poly(x)|^q2 (x - a)^ea (b - x)^eb on Gauss-Jacobi panels.

    panels is a list of (lo, hi, lo_kind, hi_kind), as plan_panels returns;
    edges = ((a, ea), (b, eb)), None for an edge that does not exist.  Each
    end of each panel has a kind, which says what goes into the panel's
    cached gauss_jacobi weight:
      "root"   a root r of poly: |x - r|^q2, the distance divided out of |poly|;
      "edge"   the end is a (at lo) or b (at hi): that edge's power;
      "plain"  nothing.
    poly is called once, on every node: x of shape (len(panels), m), a row of
    long-double nodes a panel.  Every power is formed from long-double logs,
    the panel scale h^(e_lo + e_hi + 1) for the half-length h and the weight's
    end exponents included: each node adds one positive exp(ln w + ...), at
    most its panel's integral, so nothing leaves the float range while that
    integral is in range, and one past it comes back inf.  A node where |poly|
    is 0 adds 0.

    Returns each panel's integral, in long double.  With log_coefs = (ca, cb)
    it also returns each panel's integral of the integrand times 2 ln|poly| +
    ca ln(x - a) + cb ln(b - x), whose kinks at root ends and edges take
    the gauss_jacobi_log weights on the same nodes.
    """
    lo, hi, lo_kind, hi_kind = (np.array(col)[:, None] for col in zip(*panels))
    lo, hi = lo.astype(np.longdouble), hi.astype(np.longdouble)
    lo_root, hi_root = lo_kind == "root", hi_kind == "root"
    lo_edge, hi_edge = lo_kind == "edge", hi_kind == "edge"
    (a, ea), (b, eb) = edges[0] or (None, 0.0), edges[1] or (None, 0.0)
    e_lo = np.where(lo_edge, ea, np.where(lo_root, q2, 0.0))
    e_hi = np.where(hi_edge, eb, np.where(hi_root, q2, 0.0))
    # one cached rule per exponent pair; the rule's (1 - t) end is hi
    kinds = {}
    pairs = zip(e_hi.ravel().tolist(), e_lo.ravel().tolist())
    which = [kinds.setdefault(k, len(kinds)) for k in pairs]
    rule = gauss_jacobi if log_coefs is None else gauss_jacobi_log
    # the nodes, log weights and log-term weights per unit weight: long double
    t, ln_w, *logs = (np.array(col)[which] for col in zip(*(rule(m, *k) for k in kinds)))
    h = (hi - lo) / 2
    ln_h = np.log(h)
    x = lo + h * (1 + t)
    g = np.abs(poly(x)) / np.where(lo_root, x - lo, 1.0)
    g = g / np.where(hi_root, hi - x, 1.0)
    with np.errstate(divide="ignore"):  # ln 0 = -inf: the node adds exp(-inf) = 0
        ln_g = np.log(g)
    ln_a = 0.0 if a is None else np.log(x - a)
    ln_b = 0.0 if b is None else np.log(b - x)

    def off_edge(ca, cb):  # ca ln(x - a) + cb ln(b - x) where no weight holds it
        return np.where(lo_edge, 0.0, ca) * ln_a + np.where(hi_edge, 0.0, cb) * ln_b

    with np.errstate(over="ignore"):  # past the range: inf, which settled rejects
        terms = np.exp(ln_w + (e_lo + e_hi + 1) * ln_h + q2 * ln_g + off_edge(ea, eb))
        parts = np.sum(terms, axis=1)
        total = parts.sum()
    # an outer end "plain" marks a dropped piece (plan_panels): the panel there must
    # be negligible and below its neighbour, or the list ends inside a lobe
    for i, j, kind in ((0, 1, lo_kind[0, 0]), (-1, -2, hi_kind[-1, 0])):
        if kind == "plain" and not parts[i] <= min(1e-20 * total, parts[j]):
            raise AccuracyError(f"panel list ends inside a lobe: its outer panel holds "
                                f"{float(parts[i])} of {float(total)}", estimate=float(total))
    if log_coefs is None:
        return parts
    ca, cb = log_coefs
    c_lo = np.where(lo_root, 2.0, np.where(lo_edge, ca, 0.0))
    c_hi = np.where(hi_root, 2.0, np.where(hi_edge, cb, 0.0))
    s = 2 * ln_g + off_edge(ca, cb) + c_lo * (logs[0] + ln_h) + c_hi * (logs[1] + ln_h)
    # a node that adds 0 adds 0 to the log integral too, not 0 * (-inf)
    return parts, np.sum(terms * np.where(terms > 0, s, 0.0), axis=1)


# plan_panels caps each slice's log-variation and, for the Shannon rules (exact
# to degree m - 1 on m nodes, not 2m - 1), its width in units of its distance
# from the nearest root off its ends
_LOG_VARIATION_CAP = 16.0
_ROOT_REACH = 3.0
_SLICE_BUDGET = 6000


def plan_panels(ends, kinds, edges, q2: float, rate: float, what: str) -> list[tuple]:
    """Panels (lo, hi, lo_kind, hi_kind) from the first end to the last, for power_panels.

    kinds, edges and q2 are as there; an infinite last end, "plain", marks a
    tail.  f = e^(-rate x) times each edge power and |x - r|^q2 at each root
    end r is log-concave between roots and edges, so past a point e where it
    falls away from its mass it holds at most f(e) / |(ln f)'(e)|: the one
    bound, negligible below 1e-25 of the mass the slices so far hold at least.
    An "edge" panel is halved, keeping its outer end kinds, to slices within
    the cap and the reach (the log-variation of e^(-rate x), each edge power
    off its own end and |x - r|^q2 for the nearest root r off the slice's
    ends, in their precision), 48 halvings deep or 1e-12 of its scale wide,
    the half away from the edge first; where the bound at their shared end is
    negligible, the edge's half stays whole and the rest to the edge drops.
    The tail grows by slices tried at 1.5 times the one before, shrunk by a
    third until they hold, up to the first that starts at a negligible bound.
    A dropped piece leaves an outer end "plain", which power_panels checks.
    Past _SLICE_BUDGET slices: AccuracyError.
    """
    ends, kinds, out, log_mass = list(ends), list(kinds), [], -math.inf
    pts, exps = np.array([(float(r), q2) for r, kind in zip(ends, kinds) if kind == "root"]
                         + [(float(a), e) for a, e in filter(None, edges)]).T

    @lru_cache(maxsize=None)  # each tail slice's start is the end of the one before
    def log_f(x):  # ln f and (ln f)' off the roots and edges; inf or nan: no bound
        x, d = float(x), float(x) - pts
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            return np.array([exps @ np.log(np.abs(d)) - rate * x, exps @ (1 / d) - rate])

    def negligible(x, side):  # the bound past x, below (side -1) or above (1)
        lf, u = log_f(x) * (1, -side)
        return 0 < u < math.inf and lf - math.log(u) < log_mass + math.log(1e-25)

    def emit(a, b, ak, bk):
        nonlocal log_mass
        if len(out) > len(ends) + _SLICE_BUDGET:
            raise AccuracyError(f"{what} needs more than {_SLICE_BUDGET} slices")
        out.append((a, b, ak, bk))
        if ak == bk == "plain":  # f is at least its lesser end on the slice
            lf = np.minimum(log_f(a), log_f(b))[0]
            log_mass = np.logaddexp(log_mass, math.log(b - a) + lf)

    def holds(a, b, k):
        # the nearest roots off the slice's ends: panel k's ends, or those past
        near = [ends[i] for i in (k - (a == ends[k]), k + 1 + (b == ends[k + 1]))
                if 0 <= i < len(ends) and kinds[i] == "root"]
        v = rate * (b - a) + sum(e * abs(math.log((at - a) / (at - b))) for at, e
                                 in [*filter(None, edges), *((r, q2) for r in near)]
                                 if at not in (a, b))
        d = min((min(abs(r - a), abs(r - b)) for r in near), default=math.inf)
        return v <= _LOG_VARIATION_CAP and b - a <= _ROOT_REACH * d

    def cut(k, a, b, ak, bk, depth, side):  # side: the edge's, -1 at a or 1 at b
        if depth >= 48 or b - a < 1e-12 * (1.0 + abs(b)) or holds(a, b, k):
            return emit(a, b, ak, bk)
        m = (a + b) / 2  # the outer half is the one on the edge's side
        outer, inner = ((a, m, ak, "plain"), (m, b, "plain", bk))[::-side]
        if cut(k, *inner, depth + 1, side):  # the edge side ended there: drop the outer
            return True
        if negligible(m, side):  # the edge side ends with the outer half, whole
            return emit(*outer) or True
        return cut(k, *outer, depth + 1, side)

    for k, (a, b, ak, bk) in enumerate(zip(ends, ends[1:], kinds, kinds[1:])):
        if b < math.inf:
            cut(k, a, b, ak, bk, 0 if "edge" in (ak, bk) else 48, 1 if ak != "edge" else -1)
        w, done = a - ends[k - 1], b < math.inf
        while not done:
            b = a + 1.5 * w
            while b - a >= 1e-12 * (1.0 + abs(b)) and not holds(a, b, k):
                b = a + (b - a) / 1.5
            emit(a, b, ak, "plain")
            done, a, ak, w = ak == "plain" and negligible(a, 1), b, "plain", b - a
    return sorted(out, key=lambda s: s[0])


# Gauss-Jacobi nodes per panel in the first pass of settled, every engine
# alike.  Worst first-pass error against 96 nodes (radial: n <= 800, l in {0,
# 1, 2, 3, 10, 20}, p in 0.02..12; Bessel head slices and 80 inter-zero
# panels: l <= 10, p in 1.55..6, and l up to 300 at p = 8) and 108 (angular:
# l in {10, 30, 60, 100, 200}, six m each, p in {0.5, 2.5, 8}; J the p = 1 log
# integral):
#     nodes        16        20        24        32
#     radial       3.9e-8    3.3e-12   3.5e-14   6.4e-14
#     radial J               9.1e-12   4.1e-15
#     angular      1.9e-11   3.5e-16   3.9e-16   1.1e-15
#     angular J    3.5e-13   1.6e-17   3.5e-19   4.9e-19
#     Bessel head  3.5e-14   2.4e-14   1.8e-14   1.5e-14
#     inter-zero   7.1e-14   3.9e-14   3.6e-14   5.4e-14
# From 24 nodes on the radial error is panel-sum rounding at n = 800; Bessel's
# is rounding throughout.
_NODES = 24
# Even 2p up to _RULE_MAX_POWER takes one Gauss rule of n p + 1 nodes, exact for
# the polynomial power (radial._norm_gauss_laguerre, angular._lambda_gauss_jacobi
# with n = l - |m|): about (n 2p)^2 recurrence steps to build the rule and n^2 p
# on a cached one, against n^2 or less for the panels.  ms, rule/panels, medians
# of 7 alternated in-process runs, cold (rule caches cleared) and warm (again):
#                           cold                          warm
#     2p =                  4        8        10 or 12    4        8        10 or 12
#     radial l=0, n = 100   4.1/12   11/13    16/13       1.0/7.5  1.3/8.1  1.6/8.0
#                 n = 400   43/56    147/43   234/46      9.5/31   16/29    18/32
#                 n = 1500  521/254                       97/147
#     angular m=3, l = 100  6.0/13   12/10    33/15       2.1/6.7  2.3/6.4  4.3/9.2
#                  l = 300  40/32    82/27    175/28      10/23    9.7/18   14/19
#                  l = 1000 255/146  963/153  1993/157    51/91    106/97   144/85
# (2p = 10 radial, 12 angular.)  Cap 8: warm, as in one process's repeated values, the
# rule wins to 2p = 8 but at (l = 1000, 2p = 8), 10% behind; cold, the panels win
# from 2p = 8 at n = 400 and l = 100 and from 2p = 4 at n = 1500 and l = 300, up to 6.3x.
_RULE_MAX_POWER = 8


def settled(panel_pass: Callable[[int], np.ndarray], tol: float, what: str,
            density: float | None = None) -> tuple[np.floating, bool]:
    """The sum of the panel integrals panel_pass(m), certified by a second
    node count: the passes at _NODES and 1.5 _NODES must agree to tol of the
    sum, or else those at 1.5 and 2.25 _NODES must.  Each sum must be
    positive and finite.  With density = c a pass returns (parts, logs), and
    c parts.sum() must be 1 to tol in each (a node where the density
    underflows adds 0 to both, and only the norm shows it); the log sum is
    certified to tol of max(|sum|, 1).  Returns the sum at the larger count
    and whether it escalated; every AccuracyError names `what`.
    """
    floor = 0.0 if density is None else 1.0

    def value(m):
        try:
            out = panel_pass(m)
        except AccuracyError as exc:
            raise AccuracyError(f"{what}: {exc}", exc.estimate, exc.error_bound) from exc
        if density is not None:
            norm = float(density * out[0].sum())
            if not abs(norm - 1.0) <= tol:
                raise AccuracyError(f"{what}: the density integrates to {norm}, not 1")
            return out[1].sum()
        with np.errstate(over="ignore"):  # a sum past the float range is inf
            v = out.sum()
        if not 0 < v < np.inf:
            raise AccuracyError(f"{what}: panel sum {float(v)} is not positive and finite")
        return v

    v1, v2 = value(_NODES), value(_NODES * 3 // 2)
    if abs(v1 - v2) <= tol * max(abs(v2), floor):
        return v2, False
    v3 = value(_NODES * 9 // 4)
    err = float(abs(v2 - v3) / max(abs(v3), floor))
    if not err <= tol:
        raise AccuracyError(f"{what} did not settle", estimate=float(v3),
                            error_bound=err)
    return v3, True


def integrate(f: Callable[[float], float], lo: float, hi: float,
              breakpoints: Sequence[float] | None = None) -> float:
    """Adaptive quadrature of f over [lo, hi] to rel 1e-10 or abs 1e-12.

    Interior breakpoints split the interval where f loses smoothness.
    """
    rel_tol, abs_tol = 1e-10, 1e-12
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise DomainError(f"integration limits must be finite, got [{lo}, {hi}]")
    if not hi > lo:
        raise DomainError(f"integration limits must satisfy lo < hi, got [{lo}, {hi}]")
    import scipy.integrate  # only here: the import costs a third of a second

    inner = sorted(float(p) for p in (breakpoints or []) if lo < p < hi)
    try:
        val, err = scipy.integrate.quad(
            f, lo, hi, points=inner or None, epsabs=abs_tol, epsrel=rel_tol,
            limit=200)
    except Exception as exc:  # quadpack failures surface as accuracy errors
        raise AccuracyError(f"quadrature failed on [{lo}, {hi}]: {exc}") from exc
    bound = max(abs_tol, rel_tol * abs(val))
    if err > 50 * bound:
        raise AccuracyError("quadrature error estimate exceeds tolerance",
                            estimate=val, error_bound=err)
    return val
