"""Special-function kernel.

Exact rational orthogonal-polynomial coefficients, Gamma-family helpers on
the half-integer lattice, partial Bell polynomials, powers by convolution
(the Bell expansion is a test oracle), one long-double orthonormal
recurrence, _rows, behind every production polynomial value (the classical
Laguerre and Gegenbauer recurrences serve the oracle), one Gauss rule
generator (Golub-Welsch start, one Newton pass of _rows under the square root
of the weight on the family's structure relation and equation, log
Christoffel weights) behind every Gauss-Laguerre and Gauss-Jacobi rule and
the Gegenbauer roots, the log-weighted Gauss-Jacobi product rule, the one
panel function, which maps those rules onto panels, hands its integrand whole
panels and forms every power of a power integral and of its Shannon log terms
from logs, the two-node-count check and adaptive quadrature plumbing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import islice
from typing import Callable, Sequence

import numpy as np
import scipy.special
from scipy.linalg import eigvalsh_tridiagonal

from .errors import AccuracyError, DomainError

__all__ = [
    "digamma", "gamma_half_exact", "log_fraction", "pochhammer",
    "binomial_exact", "RationalPoly", "OrthonormalPoly", "bell_partial",
    "poly_power", "jacobi_poly", "orthonormal_jacobi", "gegenbauer_eval",
    "gegenbauer_roots", "laguerre_poly", "laguerre_eval",
    "laguerre_orthonormal_weighted", "laguerre_orthonormal_weighted_d1",
    "laguerre_eval_negparam", "integrate",
    "gauss_legendre", "gauss_jacobi", "gauss_laguerre", "gauss_jacobi_log",
    "plan_panels", "power_panels", "settled",
]

_POINT_CAP = 200000  # nodes per call of a power_panels integrand, whole panels


# ---------------------------------------------------------------------------
# Gamma family

def digamma(x: float) -> float:
    """Logarithmic derivative of Gamma at x > 0."""
    if not x > 0:
        raise DomainError(f"digamma requires x > 0, got {x}")
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
# Exact polynomials

@dataclass(frozen=True)
class RationalPoly:
    """Dense univariate polynomial with exact rational coefficients.

    coeffs[k] multiplies x**k; trailing zeros are trimmed so the last
    coefficient is nonzero unless the polynomial is identically zero.
    """

    coeffs: tuple[Fraction, ...]

    @staticmethod
    def from_list(cs: Sequence) -> "RationalPoly":
        cs = [Fraction(c) for c in cs]
        while len(cs) > 1 and cs[-1] == 0:
            cs.pop()
        if not cs:
            cs = [Fraction(0)]
        return RationalPoly(tuple(cs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x):
        """Horner evaluation; exact for Fraction input."""
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __add__(self, other: "RationalPoly") -> "RationalPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        cs = [Fraction(0)] * n
        for i, c in enumerate(self.coeffs):
            cs[i] += c
        for i, c in enumerate(other.coeffs):
            cs[i] += c
        return RationalPoly.from_list(cs)

    def __mul__(self, other):
        if isinstance(other, RationalPoly):
            out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                if a == 0:
                    continue
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
            return RationalPoly.from_list(out)
        s = Fraction(other)
        return RationalPoly.from_list([c * s for c in self.coeffs])

    __rmul__ = __mul__


@dataclass(frozen=True)
class OrthonormalPoly:
    """Classical polynomial together with its exact squared norm."""

    base: RationalPoly
    norm_square: Fraction


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


def poly_power(poly: RationalPoly, q: int) -> RationalPoly:
    """q-th power of an exact polynomial, q >= 1.

    Powers by convolution; the Bell expansion is a test oracle
    (``_poly_power_bell`` in ``tests/test_specfun.py``).
    """
    if q < 1:
        raise DomainError(f"poly_power requires q >= 1, got {q}")
    out = RationalPoly.from_list([1])
    for _ in range(q):
        out = out * poly
    return out


@lru_cache(maxsize=None)
def _jacobi_cached(n: int, a2: int, b2: int) -> RationalPoly:
    a = Fraction(a2, 2)
    b = Fraction(b2, 2)
    half_minus = RationalPoly.from_list([Fraction(-1, 2), Fraction(1, 2)])  # (x-1)/2
    half_plus = RationalPoly.from_list([Fraction(1, 2), Fraction(1, 2)])    # (x+1)/2
    out = RationalPoly.from_list([0])
    for s in range(n + 1):
        coef = binomial_exact(n + a, n - s) * binomial_exact(n + b, s)
        if coef == 0:
            continue
        term = RationalPoly.from_list([coef])
        for _ in range(s):
            term = term * half_minus
        for _ in range(n - s):
            term = term * half_plus
        out = out + term
    return out


def jacobi_poly(n: int, a, b) -> RationalPoly:
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


def orthonormal_jacobi(n: int, a, b) -> OrthonormalPoly:
    """Jacobi polynomial plus its exact squared norm for weight (1-x)^a (1+x)^b.

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
    base = jacobi_poly(n, ai, bi)
    ns = (Fraction(2 ** (ai + bi + 1)) * math.factorial(ai + n) * math.factorial(bi + n)
          / (math.factorial(n) * (ai + bi + 2 * n + 1) * math.factorial(ai + bi + n)))
    return OrthonormalPoly(base=base, norm_square=ns)


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

def _laguerre_exact(n: int, a: Fraction) -> RationalPoly:
    """L_n^{(a)} for any rational a, from its explicit finite sum."""
    return RationalPoly.from_list([
        (-1) ** k * pochhammer(a + k + 1, n - k) / (math.factorial(n - k) * math.factorial(k))
        for k in range(n + 1)])


# the half-integer lattice of laguerre_poly only: other parameters are not kept
_laguerre_cached = lru_cache(maxsize=None)(_laguerre_exact)


def laguerre_poly(n: int, alpha) -> RationalPoly:
    """Generalised Laguerre L_n^{(alpha)} with exact coefficients (alpha > -1)."""
    a = Fraction(alpha)
    if a <= -1:
        raise DomainError(f"laguerre parameter must exceed -1, got {a}")
    if a.denominator not in (1, 2):
        raise DomainError("laguerre parameter must lie on the half-integer lattice")
    return _laguerre_cached(n, a)


def _laguerre_coefficients(n: int, alpha) -> tuple[np.ndarray, np.ndarray]:
    """_rows coefficients for x^alpha e^-x: row k is (-1)^k times orthonormal L_k."""
    a = np.longdouble(alpha)
    k = np.arange(n, dtype=np.longdouble)
    return 2 * k + a + 1, np.sqrt((k + 1) * (k + 1 + a))


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


def _weighted_rows(n: int, alpha: float, x):
    """Long-double nodes and the last two rows r_(n-1), r_n of _rows for the
    weighted orthonormal Laguerre recurrence, from r_0 = Lhat_0 exp(-x/2)."""
    if n < 0:
        raise DomainError(f"laguerre degree must be >= 0, got {n}")
    if not alpha > -1:
        raise DomainError(f"laguerre parameter must exceed -1, got {alpha}")
    xs = np.asarray(x, dtype=np.longdouble)
    alpha = float(alpha)
    return (xs, *_last_rows(xs, *_laguerre_coefficients(n, alpha),
                            np.exp(-xs / 2 - _lgamma(alpha + 1.0) / 2)))


def laguerre_orthonormal_weighted(n: int, alpha: float, x):
    """Orthonormal Laguerre times exp(-x/2), the bounded oscillator kernel.

    Returned in extended precision; the square times x**alpha integrates
    to one over (0, inf).
    """
    p = _weighted_rows(n, alpha, x)[2]
    return -p if n % 2 else p


def laguerre_orthonormal_weighted_d1(n: int, alpha: float, x):
    """laguerre_orthonormal_weighted and its x-derivative at x > 0, in long
    double, from the structure relation x r_n' = (n - x/2) r_n + b_n r_(n-1).

    The two terms cancel as x -> 0, yet at the root-gap centres of (1500,
    0.5), from x = 0.004, the derivative is within 2.7e-14 of mpmath.
    """
    xs, prev, p = _weighted_rows(n, alpha, x)
    dp = ((n - xs / 2) * p + np.sqrt(n * (n + np.longdouble(alpha))) * prev) / xs
    return (-p, -dp) if n % 2 else (p, dp)


def laguerre_eval_negparam(n: int, alpha, x):
    """L_n^{(alpha)}(x) for arbitrary (possibly very negative) parameter.

    Evaluated through the explicit finite sum with exact rational
    coefficients, which stays valid below alpha = -1 where the recurrence
    normalisation breaks down. Exact when alpha and x are rational.
    """
    if n < 0:
        raise DomainError(f"laguerre degree must be >= 0, got {n}")
    acc = _laguerre_exact(n, Fraction(alpha))(Fraction(x))
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


def _gauss_rule(diag, off, ln_mu0, ln_weight, family) -> tuple[np.ndarray, np.ndarray]:
    """Long-double Gauss nodes and log Christoffel weights of _rows' recurrence.

    ln_mu0 is the log of the weight's mass, ln_weight(x) the log of the weight
    w.  family(x) gives the textbook identities of the rows p_k at degree
    m = len(diag), with b_m = off[-1] (DLMF Table 18.8.1): P, P', Q,
    R_m - R_(m-1), A_m and B_m / b_m of the structure relation P p_m' = A_m p_m
    + B_m p_(m-1) and the equation P p_k'' + Q p_k' + R_k p_k = 0.  Every
    family's rows start at sqrt(w / mu0): they are r_k = sqrt(w) p_k, and
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
            big_p, d_p, q, dr, a_m, b_ratio = family(x)
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


def _jacobi_recurrence(m: int, a, b) -> tuple[np.ndarray, np.ndarray]:
    """diag and off of _rows for the weight (1-t)^a (1+t)^b, in long double."""
    a, b = np.longdouble(a), np.longdouble(b)
    k = np.arange(1, m + 1, dtype=np.longdouble)
    s = 2 * k + a + b
    diag = np.append((b - a) / (a + b + 2), (b * b - a * a) / (s * (s + 2)))[:m]
    # at k = 1 the factor (k + a + b) / (s - 1) of off_k^2 is exactly 1
    off = np.sqrt(4 * k * (k + a) * (k + b) / (s * s * (s + 1))
                  * np.append(1, (k[1:] + a + b) / (s[1:] - 1)))
    return diag, off


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


def _jacobi_log_mass(a, b) -> np.longdouble:
    """ln mu0 = ln(2^(a+b+1) B(a+1, b+1)) of the weight (1-t)^a (1+t)^b."""
    return (a + b + 1) * _LN_2 + _lgamma(a + 1) + _lgamma(b + 1) - _lgamma(a + b + 2)


@lru_cache(maxsize=None)
def gauss_jacobi(m: int, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """Cached long-double Gauss-Jacobi rule for (1-x)^a (1+x)^b on [-1, 1]:
    nodes and log weights, from _gauss_rule's one Newton pass.

    The orthonormal rows p_k keep the identities of P_k^(a,b) (DLMF §18.9,
    Table 18.8.1): (1 - x^2) p_m' = m ((a - b)/s - x) p_m + (s + 1) b_m p_(m-1)
    with s = 2m + a + b, and (1 - x^2) p_k'' + (b - a - (a + b + 2) x) p_k'
    + k (k + a + b + 1) p_k = 0.
    """
    a_, b_ = np.longdouble(a), np.longdouble(b)
    s = 2 * m + a_ + b_

    def family(x):
        return ((1 - x) * (1 + x), -2 * x, b_ - a_ - (a_ + b_ + 2) * x, s,
                m * ((a_ - b_) / s - x), s + 1)

    return _gauss_rule(*_jacobi_recurrence(m, a, b), _jacobi_log_mass(a_, b_),
                       lambda x: a_ * np.log1p(-x) + b_ * np.log1p(x), family)


@lru_cache(maxsize=None)
def gauss_laguerre(m: int, a: float) -> tuple[np.ndarray, np.ndarray]:
    """Cached long-double Gauss rule of m nodes for x^a e^-x on (0, inf):
    nodes and log weights, from _gauss_rule's one Newton pass.

    The rows p_k, (-1)^k times the orthonormal L_k^(a), keep the identities
    of L_k^(a) (DLMF §18.9, Table 18.8.1): x p_m' = m p_m + b_m p_(m-1) and
    x p_k'' + (a + 1 - x) p_k' + k p_k = 0.
    """
    if m == 0:
        return np.zeros(0, dtype=np.longdouble), np.zeros(0, dtype=np.longdouble)
    a_ = np.longdouble(a)

    def family(x):
        return x, 1, a_ + 1 - x, 1, m, 1

    return _gauss_rule(*_laguerre_coefficients(m, a), _lgamma(a + 1.0),
                       lambda x: a_ * np.log(x) - x, family)


def _log_moments(m: int, a, b) -> np.ndarray:
    """nu_k / sqrt(mu0 h_k), k < m, as ratios of consecutive terms (long double)."""
    k = np.arange(1, m - 1, dtype=np.longdouble)
    h_step = ((2 * k + a + b + 1) * (k + a + 1) * (k + b + 1)
              / ((2 * k + a + b + 3) * (k + a + b + 1) * (k + 1)))
    steps = -(k + 1 + a) * k / ((k + 1) * (k + a + b + 2)) / np.sqrt(h_step)
    nu0 = (math.log(2.0) + scipy.special.digamma(float(b) + 1)
           - scipy.special.digamma(float(a + b) + 2))
    nu1 = (1 + a) / (a + b + 2) / np.sqrt((a + 1) * (b + 1) / (a + b + 3))
    return np.concatenate(([nu0], nu1 * np.cumprod(np.append(1, steps))))[:m]


@lru_cache(maxsize=None)
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
    p = np.array(list(_rows(t, *_jacobi_recurrence(m - 1, a, b), np.ones_like(t))))
    return (t, ln_w, _log_moments(m, a_, b_) @ p,
            (_log_moments(m, b_, a_) * (-1.0) ** np.arange(m)) @ p)


def power_panels(lo, hi, lo_kind, hi_kind, poly: Callable, q2: float, edges, m: int,
                 log_coefs=None):
    """Panel integrals of |poly(x)|^q2 (x - a)^ea (b - x)^eb on Gauss-Jacobi panels.

    edges = ((a, ea), (b, eb)), None for an edge that does not exist.  Each
    end of each panel has a kind, which says what goes into the panel's
    cached gauss_jacobi weight:
      "root"   a root r of poly: |x - r|^q2, the distance divided out of |poly|;
      "edge"   the end is a (at lo) or b (at hi): that edge's power;
      "plain"  nothing.
    The nodes and poly run in the wider of float and the dtype of lo and hi,
    and the results come back in it.  poly(x, rows) gets the nodes x, of
    shape (k, m), of the panels rows, a slice of the panel list, and returns
    its values there; each call takes whole panels, at most _POINT_CAP
    nodes unless one panel holds more, which bounds the memory of a pass.
    Every power is formed from long-double logs, the panel scale
    h^(e_lo + e_hi + 1) for the half-length h and the weight's end exponents
    included: each node adds one positive exp(ln w + ...), at most its panel's
    integral, so nothing leaves the float range while that integral is in
    range, and one past it comes back inf.  A node where |poly| is 0 adds 0.

    Returns each panel's integral.  With log_coefs = (ca, cb) it also
    returns each panel's integral of the integrand times 2 ln|poly| +
    ca ln(x - a) + cb ln(b - x), whose kinks at root ends and edges take
    the gauss_jacobi_log weights on the same nodes.
    """
    dtype = np.result_type(np.asarray(lo), np.asarray(hi), np.float64)
    lo = np.asarray(lo, dtype=dtype).reshape(-1, 1)
    hi = np.asarray(hi, dtype=dtype).reshape(-1, 1)
    lo_kind = np.asarray(lo_kind).reshape(-1, 1)
    hi_kind = np.asarray(hi_kind).reshape(-1, 1)
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
    # the log weights, and the log-term weights per unit weight, stay in the
    # rules' long double
    t, ln_w, *logs = (np.array(col)[which] for col in zip(*(rule(m, *k) for k in kinds)))
    t = t.astype(dtype)
    h = (hi - lo) / 2
    ln_h = np.log(h, dtype=np.longdouble)
    x = lo + h * (1 + t)
    step = max(1, _POINT_CAP // m)
    y = np.concatenate([poly(x[i:i + step], slice(i, i + step))
                        for i in range(0, len(x), step)])
    g = np.abs(y) / np.where(lo_root, x - lo, 1.0)
    g = g / np.where(hi_root, hi - x, 1.0)
    with np.errstate(divide="ignore"):  # ln 0 = -inf: the node adds exp(-inf) = 0
        ln_g = np.log(g, dtype=np.longdouble)
    ln_a = 0.0 if a is None else np.log(x - a, dtype=np.longdouble)
    ln_b = 0.0 if b is None else np.log(b - x, dtype=np.longdouble)

    def off_edge(ca, cb):  # ca ln(x - a) + cb ln(b - x) where no weight holds it
        return np.where(lo_edge, 0.0, ca) * ln_a + np.where(hi_edge, 0.0, cb) * ln_b

    with np.errstate(over="ignore"):  # past the range: inf, which settled rejects
        terms = np.exp(ln_w + (e_lo + e_hi + 1) * ln_h + q2 * ln_g + off_edge(ea, eb))
        parts = np.sum(terms, axis=1).astype(dtype)
    if log_coefs is None:
        return parts
    ca, cb = log_coefs
    c_lo = np.where(lo_root, 2.0, np.where(lo_edge, ca, 0.0))
    c_hi = np.where(hi_root, 2.0, np.where(hi_edge, cb, 0.0))
    s = 2 * ln_g + off_edge(ca, cb) + c_lo * (logs[0] + ln_h) + c_hi * (logs[1] + ln_h)
    # a node that adds 0 adds 0 to the log integral too, not 0 * (-inf)
    return parts, np.sum(terms * np.where(terms > 0, s, 0.0), axis=1).astype(dtype)


# plan_panels caps each slice's log-variation and, for the Shannon rules (exact
# to degree m - 1 on m nodes, not 2m - 1), its width in units of its distance
# from the nearest root off its ends
_LOG_VARIATION_CAP = 16.0
_ROOT_REACH = 3.0
_SLICE_BUDGET = 6000


def plan_panels(ends, kinds, edges, q2: float, rate: float, what: str) -> list[tuple]:
    """Panels (lo, hi, lo_kind, hi_kind) between consecutive ends, for power_panels.

    kinds, edges and q2 are as there; e^(-rate x) is the integrand's decay.
    Panels with an "edge" end are halved, keeping their outer end kinds, to
    slices within the cap and the reach, 48 halvings deep or 1e-12 of their
    scale wide; more than _SLICE_BUDGET slices raise AccuracyError.  The
    log-variation counts e^(-rate x), each edge power off its own end and
    |x - r|^q2 for the nearest "root" end r on either side but the slice's
    own, compared in the ends' precision.
    """
    ends, kinds, out = list(ends), list(kinds), []

    def holds(a, b, k):
        # the nearest roots off the slice's ends: panel k's ends, or those past
        near = [ends[i] for i in (k - (a == ends[k]), k + 1 + (b == ends[k + 1]))
                if 0 <= i < len(ends) and kinds[i] == "root"]
        v = rate * (b - a) + sum(e * abs(math.log((at - a) / (at - b))) for at, e
                                 in [*filter(None, edges), *((r, q2) for r in near)]
                                 if at not in (a, b))
        d = min((min(abs(r - a), abs(r - b)) for r in near), default=math.inf)
        return v <= _LOG_VARIATION_CAP and b - a <= _ROOT_REACH * d

    def cut(k, a, b, ak, bk, depth):
        if len(out) > len(ends) + _SLICE_BUDGET:
            raise AccuracyError(f"{what} needs more than {_SLICE_BUDGET} slices")
        if depth < 48 and b - a >= 1e-12 * (1.0 + abs(b)) and not holds(a, b, k):
            cut(k, a, (a + b) / 2, ak, "plain", depth + 1)
            cut(k, (a + b) / 2, b, "plain", bk, depth + 1)
        else:
            out.append((a, b, ak, bk))

    for k, (a, b, ak, bk) in enumerate(zip(ends, ends[1:], kinds, kinds[1:])):
        cut(k, a, b, ak, bk, 0 if "edge" in (ak, bk) else 48)
    return out


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
# with n = l - |m|), at about (n 2p)^2 recurrence steps against n^2 or less for
# the panels.  Cold ms, rule / panels, one x86-64 core, rule caches cleared:
#     2p =                     4            8            10 radial, 12 angular
#     radial l = 0, n = 100    4.7 / 16     11 / 16      16 / 16
#                   n = 400    43 / 61      137 / 64     212 / 68
#                   n = 1500   560 / 380
#     angular m = 3, l = 100   4.5 / 19     11 / 19      25 / 27
#                    l = 300   29 / 163     109 / 122    190 / 152
#                    l = 1000  331 / 2370   1170 / 1950  2300 / 2030
# Cap 8: the rule wins angularly and radially at n <= 100, and costs at most 2.2x at n = 400.
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
    and whether it escalated; AccuracyError names `what`.
    """
    floor = 0.0 if density is None else 1.0

    def value(m):
        out = panel_pass(m)
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
