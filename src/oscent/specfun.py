"""Special-function kernel.

Exact rational orthogonal-polynomial coefficients (Jacobi P_n^(m,m) and
Laguerre, each by its explicit-sum ratios), Gamma-family helpers on the
half-integer lattice, one exact engine behind every exact route (powers by
Kronecker substitution in integers, _int_power, and their moment sums,
_power_moments, under one guard on 2p, _exact_two_p), partial Bell
polynomials (a test oracle), every polynomial a coefficient tuple under one
arithmetic, _conv, _plus and _horner, shared by the exact references and the
Taylor-series engine, one long-double orthonormal recurrence, _rows, behind
every production polynomial value (the classical Laguerre and Gegenbauer
recurrences serve the oracle), each family's equation and structure
relation stated once (laguerre_family, jacobi_family), one Gauss rule
generator (numpy's Golub-Welsch start up to 64 nodes, above that the
Liouville-Green phase start with one float64 Newton pass on a local Taylor
series, _start; then one Newton pass of _rows under the square root of the
weight on those identities, log Christoffel weights, several rules side by
side in one pass, _gauss_rules) behind every Gauss-Laguerre
and Gauss-Jacobi rule and the Gegenbauer roots, one bounded store of the
Jacobi rules with their log-weighted product rules (_jacobi_rules: the
rules a caller lacks built in one pass), one panel Taylor-series engine for
both families (panel_rows: from degree 40 on, every panel in equal pieces,
each on a series of the family's equation about its centre, one with an end
where P vanishes cut on its series about that end and then re-expanded;
every series panel evaluated one way, by products with its rule's node
powers, and the recurrence only where the pieces that certify a series
would outnumber the nodes), the panel planner with its one mass bound, the
one panel function, which maps the store's rules onto panels in long
double, calls its integrand once on all their nodes with their rules,
forms every power from logs and checks the pieces dropped and the rows that
underflow, the two-node-count check, the one choice between an even-2p rule
and the panels by cold cost (_rule_wins), and the one panel pass and one
even-2p rule sum of both parts (_panel_pass, _rule_sum).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache, partial
from itertools import accumulate, islice, zip_longest
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import AccuracyError, DomainError

__all__ = [
    "digamma", "gamma_half_exact", "log_fraction", "bell_partial", "poly_power",
    "gegenbauer_eval", "gegenbauer_roots",
    "laguerre_poly", "laguerre_eval", "laguerre_orthonormal_weighted",
    "laguerre_eval_negparam", "integrate",
    "Family", "jacobi_family", "laguerre_family", "gauss_legendre", "gauss_jacobi",
    "gauss_laguerre", "panel_rows", "plan_panels", "power_panels",
    "settled",
]

# entries kept by each cache of Gauss rules, Bessel zeros and constants, above the
# 270 a whole benchmark pool fills (the one store of Jacobi rules on grid, 140 on
# ladder and 102 on certify); new orders evict the oldest
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

# B_2k / 2k of DLMF 5.11.2, k = 1..6
_DIGAMMA_SERIES = tuple(np.longdouble(num) / den for num, den in (
    (1, 12), (-1, 120), (1, 252), (-1, 240), (1, 132), (-691, 32760)))


def digamma(x: float) -> float:
    """Logarithmic derivative of Gamma at x > 0, rounded from long double:
    psi(x) = psi(x + 1) - 1/x (DLMF 5.5.2) shifts x up to >= 24, where the
    asymptotic series (DLMF 5.11.2) leaves out a term below 1e-20."""
    if not x > 0:
        raise DomainError(f"digamma requires x > 0, got {x}")
    x, shift = np.longdouble(x), np.longdouble(0)
    while x < 24:
        x, shift = x + 1, shift + 1 / x
    series = np.longdouble(0)
    for c in reversed(_DIGAMMA_SERIES):
        series = c + series / (x * x)
    return float(np.log(x) - 1 / (2 * x) - series / (x * x) - shift)


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


def _int_power(poly, q: int) -> tuple[tuple[int, ...], int]:
    """poly^q over the rationals as integers cs over d^q, d poly's common denominator,
    by Kronecker substitution: d poly's coefficients, digits at 2^B with B bits above
    q times their l1 norm's (a bound on every coefficient of the power), each shifted
    by 2^(B-1) so that none borrows, make one integer; its power, unpacked, gives cs."""
    d = math.lcm(*(c.denominator for c in poly))
    ints = [c.numerator * (d // c.denominator) for c in poly]
    width = (q * sum(map(abs, ints)).bit_length() + 8) // 8  # bytes a digit
    bias, count = 1 << (8 * width - 1), (len(ints) - 1) * q + 1
    biased = bytes(width - 1) + b"\x80"  # one digit holding the bias, little-endian
    packed = int.from_bytes(b"".join((c + bias).to_bytes(width, "little") for c in ints),
                            "little") - int.from_bytes(biased * len(ints), "little")
    raw = (packed ** q + int.from_bytes(biased * count, "little")).to_bytes(
        count * width, "little")
    return tuple(int.from_bytes(raw[i:i + width], "little") - bias
                 for i in range(0, len(raw), width)), d ** q


def poly_power(poly: tuple, q: int) -> tuple:
    """q-th power of an exact polynomial, q >= 1, in Fractions (_int_power); the Bell
    expansion is a test oracle (``_poly_power_bell`` in ``tests/test_specfun.py``)."""
    if q < 1:
        raise DomainError(f"poly_power requires q >= 1, got {q}")
    cs, d = _int_power(poly, q)
    return tuple(Fraction(c, d) for c in cs)


def _power_moments(poly, q: int, ratio: Callable, step: int = 1) -> Fraction:
    """sum_k [x^k] poly^q mu_k over k = 0, step, 2 step, ... as one Fraction, mu_0 = 1
    and mu_(k + step) = ratio(k) mu_k: the power by _int_power, the moments' running
    products nested from the top (Horner's rule), in integers."""
    cs, d = _int_power(poly, q)
    num, den = 0, 1
    for k in reversed(range(0, len(cs), step)):
        r = Fraction(ratio(k))
        num, den = cs[k] * den * r.denominator + r.numerator * num, den * r.denominator
    return Fraction(num, den * d)


# every exact route's cap on the degree n 2p of its power (2p alone at n = 0, l = |m|),
# where symbolic (125, 0, 8) takes about 1 s, and the radial routes' cap on l 2p, which
# sizes their exact Gamma factors gamma_half_exact(l 2p + 3): 0.7-2.6 s at 50,000 and
# 3.8-8.3 s at 100,000.  The angular routes hold no factorial of m p
_EXACT_MAX_DEGREE = 1000
_EXACT_MAX_L_TWO_P = 50_000


def _exact_two_p(order, n: int, route: str, got: str, l: int = 0) -> int:
    """2p of an exact route's power of a degree-n factor, or DomainError: the routes
    expand that power without an absolute value, so 2p must be an integer, even
    where the factor changes sign (n >= 1), within the caps on n 2p and l 2p."""
    q = order.two_p
    if q is None:
        raise DomainError(f"{route} route needs 2p integer, got {got}")
    if q % 2 == 1 and n >= 1:
        raise DomainError(f"{route} route is sign-ambiguous for odd 2p, where its factor "
                          f"of degree n >= 1 changes sign, got {got}")
    if max(n, 1) * q > _EXACT_MAX_DEGREE:
        raise DomainError(f"{route} route expands a power of degree n 2p > "
                          f"{_EXACT_MAX_DEGREE} in rationals, got {got}")
    if l * q > _EXACT_MAX_L_TWO_P:
        raise DomainError(f"{route} route takes exact Gamma factors of l 2p > "
                          f"{_EXACT_MAX_L_TWO_P}, got {got}")
    return q


def _jacobi_exact(n: int, m: int) -> tuple:
    """P_n^(m,m) from its explicit sum, a multiple of the Gegenbauer C_n^(m+1/2)
    (DLMF 18.7.1, 18.5.10): c_n = (2n+2m)!/(2^n n! (n+2m)!) and c_(j-2) = -j (j-1) c_j
    / ((n-j+2)(n+j+2m-1)) down to j = 2; the coefficients of the other parity are 0."""
    cs = [Fraction(0)] * (n + 1)
    cs[n] = Fraction(math.factorial(2 * n + 2 * m),
                     2 ** n * math.factorial(n) * math.factorial(n + 2 * m))
    for j in range(n, 1, -2):
        cs[j - 2] = cs[j] * Fraction(-j * (j - 1), (n - j + 2) * (n + j + 2 * m - 1))
    return tuple(cs)


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
    """L_n^{(a)} for any rational a, from its explicit finite sum: c_n = (-1)^n / n!
    and c_(k-1) = -k (k + a) c_k / (n - k + 1) down to k = 1."""
    return tuple(accumulate(range(n, 0, -1), lambda c, k: c * (-k * (k + a) / (n - k + 1)),
                            initial=Fraction((-1) ** n, math.factorial(n))))[::-1]


# the half-integer lattice of laguerre_poly only: other parameters are not kept
_laguerre_cached = lru_cache(maxsize=_RULE_CACHE)(_laguerre_exact)


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
    Long-double input gives long-double output, anything else float.
    """
    if n < 0:
        raise DomainError(f"laguerre degree must be >= 0, got {n}")
    if not alpha > -1:
        raise DomainError(f"laguerre parameter must exceed -1, got {alpha}")
    x = np.asarray(x)
    xs = x.astype(np.longdouble)
    a = np.longdouble(float(alpha))
    p0, p1 = np.ones_like(xs), a + 1 - xs
    for k in range(1, n):
        p0, p1 = p1, ((2 * k + a + 1 - xs) * p1 - (k + a) * p0) / (k + 1)
    out = p0 if n == 0 else p1
    if x.ndim == 0:
        return float(out)
    return out if x.dtype == np.longdouble else out.astype(float)


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


# the most nodes whose start comes from numpy's dense solver: 0.14 ms at 64 nodes,
# and with OpenBLAS threads on 2 CPUs 0.6-16 ms at 100 and 36-40 ms at 200; above
# it the phase start and one float64 pass of _newton_starts
_DENSE_START_MAX = 64
# terms of the local Taylor series of p_m that _newton_starts' step solves, and the
# share of its gap a step may take and still leave the node settled: the truncation
# is then about (pi/10)^10 / 10!, below 1e-11 of the gap
_START_TERMS = 10
_START_SETTLED = 0.1


def _phase_arc(t, lo, hi):
    """int_lo^t sqrt((s - lo)(hi - s)) / s ds for 0 <= lo <= t <= hi, in closed form:
    root + (lo + hi)/2 (asin u + pi/2) - sqrt(lo hi) (asin v + pi/2), u = (2t - lo - hi)
    / (hi - lo) and v = ((lo + hi) t - 2 lo hi) / (t (hi - lo)), both -1 at t = lo."""
    t = np.maximum(t, np.finfo(float).tiny)
    span = hi - lo
    u = np.clip((2 * t - lo - hi) / span, -1, 1)
    v = np.clip(((lo + hi) * t - 2 * lo * hi) / (t * span), -1, 1)
    return (np.sqrt(np.maximum((t - lo) * (hi - t), 0))
            + (lo + hi) / 2 * (np.arcsin(u) + np.pi / 2)
            - np.sqrt(lo * hi) * (np.arcsin(v) + np.pi / 2))


def _phase_roots(fam) -> np.ndarray:
    """Float64 starts for the m roots of p_m, O(m): where the Liouville-Green phase of
    fam.phase, under Langer's change at the singular ends, meets first + (k - 1) pi
    for k = 1..m, first = 3 pi / 4 for a weight exponent e >= 0 at the lower end.
    Sampled at 2m + 1 points x = c - w cos psi (c and w the centre and half-width of
    [lo, hi]), in which it is smooth through the turning points, interpolated in psi
    and taken two Newton steps on.  Within 4% of the gap on each root (Laguerre:
    m from 65 to 3000, a from 0.5 to 2000.5; Jacobi: m up to 2530, exponents up to
    5880), 1e-5 to 1e-3 in the bulk."""
    lo, hi, phase, first = fam.phase()
    m = len(fam.diag)
    k, psi = np.arange(m), np.linspace(0, np.pi, 2 * m + 1)
    c, w = (lo + hi) / 2, (hi - lo) / 2
    if np.ndim(lo):  # one column a rule
        k, psi = k[:, None], psi[:, None]
    want = first + k * np.pi
    # the slope is 0 / 0 at an end of [-1, 1] and the Newton step there 0 / 0
    with np.errstate(divide="ignore", invalid="ignore"):
        sample = phase(c - w * np.cos(psi))[0]
        at = np.stack([np.interp(*cols, psi[:, 0]) for cols in zip(want.T, sample.T)],
                      axis=-1) if np.ndim(lo) else np.interp(want, sample, psi)
        for _ in range(2):
            f, slope = phase(c - w * np.cos(at))
            step = (f - want) / (slope * w * np.sin(at))
            at = np.clip(at - np.where(np.isfinite(step), step, 0), 0, np.pi)
    return c - w * np.cos(at)


def _newton_starts(fam, x) -> np.ndarray:
    """The roots of p_m from starts x, in float64: each pass runs the ratio recurrence
    g_(k+1) = b_k p_(k+1) / p_k = (x - d_k) - b_(k-1)^2 / g_k to g_m, which neither
    overflows nor underflows, takes p_m'/p_m from the structure relation and the
    higher derivatives from the family's equation, _START_TERMS Taylor terms about
    x, and steps to the root of that series.  Passes go on, up to 6, while a step
    takes more than _START_SETTLED of its node's gap; one settles the phase starts."""
    diag, sq, b2 = fam.diag.astype(float), fam.off[:-1].astype(float) ** 2, \
        fam.off[-1].astype(float) ** 2
    x = np.array(x, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(6):
            g, t = x - diag[0], np.empty_like(x)
            for d, e in zip(diag[1:], sq):  # in place: a sixth off the pass at 200 nodes
                np.subtract(x, d, out=t)
                np.divide(e, g, out=g)
                np.subtract(t, g, out=g)
            pp, qq, r, _, a_m, b_ratio = fam.identities(np.longdouble(x))
            pp, qq = ([np.asarray(e, dtype=float) for e in v] for v in (pp, qq))
            r, a_m, b_ratio = (np.asarray(v, dtype=float) for v in (r, a_m, b_ratio))
            # the series sum_k c_k h^k of p_m(x + h) / p_m'(x): c_1 = 1, and P p'' +
            # Q p' + R p = 0 in powers of h gives each c_(k+2) from those below
            c = [pp[0] * g / (a_m * g + b_ratio * b2), np.ones_like(x)]
            for k in range(_START_TERMS - 2):
                acc = r * c[k] + sum(e * (k - j + 1) * c[k - j + 1] for j, e in enumerate(qq))
                acc = acc + sum(e * (k - j + 2) * (k - j + 1) * c[k - j + 2]
                                for j, e in enumerate(pp[1:], 1))
                c.append(-acc / (pp[0] * (k + 2) * (k + 1)))
            h = -c[0]
            for _ in range(3):  # Newton on the series, from the plain Newton step
                f, df = c[-1], 0
                for ck in c[-2::-1]:
                    df, f = df * h + f, f * h + ck
                h = h - f / df
            x = x + h
            gap = np.minimum(np.diff(x, axis=0, prepend=-np.inf),
                             np.diff(x, axis=0, append=np.inf))
            if (np.abs(h) <= _START_SETTLED * gap).all():
                break
    return x


def _start(fam) -> np.ndarray:
    """Float64 starts for the roots of p_m, ascending, for _gauss_rules' Newton pass:
    up to _DENSE_START_MAX nodes the eigenvalues of the dense m x m Jacobi matrix of
    (diag, off[:-1]) (eigvalsh reads its lower triangle; columns (m, R) of several
    rules from one stacked call), above that _newton_starts from _phase_roots, numpy
    alone and O(m) before the passes.  AccuracyError where the start row sqrt(w / mu0)
    underflows long double at a start (Laguerre past x of about 22,700, from about
    m = 5,700 at a = 1/2): there the Newton steps cannot settle."""
    if len(fam.diag) > _DENSE_START_MAX:
        x = _phase_roots(fam)
    else:
        d, e = fam.diag.astype(float), fam.off[:-1].astype(float)
        i = np.arange(len(d))
        mats = np.zeros(d.shape[1:] + (len(d), len(d)))
        mats[..., i, i], mats[..., i[1:], i[:-1]] = d.T, e.T
        x = np.linalg.eigvalsh(mats).T
    with np.errstate(divide="ignore", invalid="ignore"):
        ln_row = (fam.ln_weight(np.longdouble(x)) - fam.ln_mu0) / 2
    under = ln_row < np.log(np.finfo(np.longdouble).tiny)
    if under.any():
        raise AccuracyError(f"Gauss rule of {len(fam.diag)} nodes: the start row sqrt(w / mu0) "
                            f"underflows long double at x = {float(x[under].max()):.6g}")
    if len(fam.diag) <= _DENSE_START_MAX:
        return x
    # on the grid of the largest |diag|'s long-double ulp, where x - diag[k] is exact
    grid = np.ldexp(1.0, np.frexp(float(np.abs(fam.diag).max()))[1] - 64)
    return np.round(_newton_starts(fam, x) / grid) * grid


def _gauss_rules(fams) -> list[tuple[np.ndarray, np.ndarray]]:
    """Long-double Gauss nodes and log Christoffel weights of each Family's rows.

    Here the rows start at sqrt(w / mu0): they are r_k = sqrt(w) p_k, and
    K = sum_{k<m} r_k^2, w over the Christoffel function, stays bounded for
    any weight.  By Pearson's equation (P w)' = Q w they keep both identities
    with A_m + (Q - P')/2 for A_m and P' for Q.

    Float64 starts (_start: Golub-Welsch eigenvalues, Math. Comp. 23, 1969, from
    numpy's dense solver up to 64 nodes, and above that the phase start and a
    float64 Newton pass, on the grid where x - diag[k] is exact) start one pass
    of the recurrence that sums K and takes one Newton step s = r_m / r_m'
    from the structure relation; the step leaves the float64 start's rounding
    far below a long-double ulp, and two starts a few float ulps apart give
    nodes at most an ulp or two apart.  Newton's next step would be
    |P'/(2P)| s^2; the pass is done when that is a few ulp of |x| plus the
    Gershgorin bound, and another pass from the stepped nodes (up to 8) is
    only a fallback.  The weights w / K (Gautschi 2004) come back as
    ln w - ln K, in range where mu0 or the weights leave it.  They are taken
    at the start x and moved to the nodes by the differentiated
    Christoffel-Darboux identity for w / K = 1 / sum p_k^2, (Q + b_m (R_m -
    R_(m-1)) p_m p_(m-1) / sum p_k^2) / P, so a node's rounding next to a
    singular end of w does not enter.  The checks:
    only the m distinct roots increase strictly and alternate the sign of
    r_(m-1) (interlacing), and every log weight is finite.

    One pass serves several rules, each bitwise the one it gives alone:
    columns of several weights (jacobi_family of exponent arrays), and
    families of increasing size m over one weight, whose recurrences agree
    where they overlap (jacobi_family(m, a, b) for several m), their nodes
    side by side along the largest's rows, each family's rows, Christoffel
    sum and Newton step taken at its own m.
    """
    big, sizes = fams[-1], [len(f.diag) for f in fams]
    x = np.concatenate([np.longdouble(_start(f)) for f in fams])
    ends = list(accumulate(sizes, initial=0))
    at = [slice(a, b) for a, b in zip(ends, ends[1:])]
    eps = np.finfo(np.longdouble).eps
    scales = [np.abs(f.diag).max(axis=0) + 2 * f.off.max(axis=0) for f in fams]
    # each rule's nodes and log weights from the pass that settles it
    done = [np.zeros(x.shape[1:], dtype=bool) for _ in fams]
    out, ln_w = [np.empty_like(x[i]) for i in at], [np.empty_like(x[i]) for i in at]
    # a float fault ends in a check below: NaN never settles, and a start on
    # an end of the interval (P = 0) makes the predicted step NaN
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(8):
            rows = _rows(x, big.diag, big.off, np.exp((big.ln_weight(x) - big.ln_mu0) / 2))
            k_sum, pm1, sums = 0, None, {}
            for k, row in enumerate(rows):
                if k in sizes:  # the sum over rows < k, row k - 1 and row k
                    sums[k] = k_sum, pm1, row
                    if k == sizes[-1]:
                        break
                k_sum, pm1 = k_sum + row * row, row
            for f, i, m, n, scale in zip(fams, at, sizes, range(len(fams)), scales):
                if done[n].all():
                    continue
                k_sum, pm1, pm, xi = *(a[i] for a in sums[m]), x[i]
                (big_p, d_p, *_), (q, _), _, dr, a_m, b_ratio = f.identities(xi)
                b_pm1 = f.off[-1] * pm1
                step = big_p * pm / ((a_m + (q - d_p) / 2) * pm + b_ratio * b_pm1)
                nodes = xi - step
                now = ~done[n] & (np.abs(d_p / (2 * big_p)) * step * step
                                  <= 4 * eps * (scale + np.abs(nodes))).all(axis=0)
                if now.any():
                    sign = np.sign(pm1)
                    if not (((nodes[1:] > nodes[:-1]).all(axis=0)
                             & (sign[:-1] * sign[1:] < 0).all(axis=0))[now].all()):
                        raise AccuracyError(f"Gauss rule of {m} nodes: the nodes are not "
                                            f"{m} distinct roots")
                    # lambda(x - s) = lambda - s lambda', all at the start x
                    out[n] = np.where(now, nodes, out[n])
                    ln_w[n] = np.where(now, f.ln_weight(xi) - np.log(k_sum) - np.log1p(
                        step * (q + dr * b_pm1 * pm / k_sum) / big_p), ln_w[n])
                    done[n] = done[n] | now
                x[i] = nodes
            if all(dn.all() for dn in done):
                break
        else:
            raise AccuracyError(f"Gauss rule of {sizes[-1]} nodes: Newton steps did not settle")
    for m, w in zip(sizes, ln_w):
        if not np.isfinite(w).all():
            raise AccuracyError(f"Gauss rule of {m} nodes: the log weights are not finite")
    return list(zip(out, ln_w))


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
    len(diag), and identities(x), stated once for _gauss_rules and _series
    (DLMF Table 18.8.1): P and Q as Taylor coefficients at x and R_m of P p_k''
    + Q p_k' + R_k p_k = 0, R_m - R_(m-1), and A_m and B_m / b_m of the structure
    relation P p_m' = A_m p_m + B_m p_(m-1), b_m = off[-1]; and phase(), the turning
    points lo and hi of p_m, its Liouville-Green phase x -> (phase, d phase/dx) from
    lo, float64, and the phase at its first root, which _phase_roots inverts: with
    the weight's exponent e at the lower end, the Bessel zeros j_(e,k) ~ (k + e/2 -
    1/4) pi (McMahon) where Langer's phase reads z - |e| pi/2, so (3/4 + (e - |e|)/2)
    pi."""

    diag: np.ndarray
    off: np.ndarray
    ln_mu0: np.longdouble
    ln_weight: Callable
    identities: Callable
    phase: Callable


@lru_cache(maxsize=_RULE_CACHE)
def _jacobi_ln_mu0(a: float, b: float) -> np.longdouble:
    """ln mu0 = ln(2^(a+b+1) B(a+1, b+1)) in long double, once for every rule size."""
    a_, b_ = np.longdouble(a), np.longdouble(b)
    return (a_ + b_ + 1) * _LN_2 + _lgamma(a_ + 1) + _lgamma(b_ + 1) - _lgamma(a_ + b_ + 2)


def jacobi_family(m: int, a, b) -> Family:
    """(1-x)^a (1+x)^b on [-1, 1], mu0 = 2^(a+b+1) B(a+1, b+1): p_k keeps the
    identities of P_k^(a,b) (DLMF §18.9), with s = 2m + a + b in the structure
    relation (1 - x^2) p_m' = m ((a - b)/s - x) p_m + (s + 1) b_m p_(m-1).
    With a and b arrays (R,), diag and off hold one column a family, (m, R),
    each bitwise its family's alone, for _gauss_rules to build R rules at once."""
    a_, b_ = (np.asarray(v, dtype=np.longdouble)[()] for v in (a, b))
    k = np.arange(1, m + 1, dtype=np.longdouble)
    if np.ndim(a_):
        k = k[:, None]
    s = 2 * k + a_ + b_
    diag = np.concatenate((np.asarray((b_ - a_) / (a_ + b_ + 2))[None],
                           (b_ * b_ - a_ * a_) / (s * (s + 2))))[:m]
    # at k = 1 the factor (k + a + b) / (s - 1) of off_k^2 is exactly 1
    off = np.sqrt(4 * k * (k + a_) * (k + b_) / (s * s * (s + 1))
                  * np.concatenate((np.ones_like(s[:1]), (k[1:] + a_ + b_) / (s[1:] - 1))))
    ln_mu0 = np.array([_jacobi_ln_mu0(*ab) for ab in zip(np.ravel(a_).tolist(),
                                                         np.ravel(b_).tolist())])
    ln_mu0 = ln_mu0 if np.ndim(a_) else ln_mu0[0]
    s = 2 * m + a_ + b_
    return Family(diag, off, ln_mu0, lambda x: a_ * np.log1p(-x) + b_ * np.log1p(x),
                  lambda x: (((1 - x) * (1 + x), -2 * x, -1),
                             (b_ - a_ - (a_ + b_ + 2) * x, -(a_ + b_ + 2)),
                             m * (m + a_ + b_ + 1), s, m * ((a_ - b_) / s - x), s + 1),
                  partial(_jacobi_phase, m, *(np.asarray(v, dtype=float) for v in (a, b))))


def _jacobi_phase(m: int, a, b):
    """Family.phase of P_m^(a,b): in x = cos theta, u = sin^(a+1/2)(theta/2)
    cos^(b+1/2)(theta/2) P_m solves u'' + (N^2 + (1/4 - a^2) / (4 sin^2(theta/2)) +
    (1/4 - b^2) / (4 cos^2(theta/2))) u = 0, N = m + (a + b + 1)/2 (Szego 4.24.2), and
    Langer's change takes 1/4 - a^2 and 1/4 - b^2 to -a^2 and -b^2.  Its phase,
    int sqrt(q(x)) / (1 - x^2) dx with q = N^2 (1 - x^2) - a^2 (1 + x)/2 - b^2 (1 - x)/2
    = N^2 (x - lo)(hi - x), splits over 1/(1 - x) and 1/(1 + x) into two _phase_arc."""
    n2, lin = (m + (a + b + 1) / 2) ** 2, (a * a - b * b) / 2
    root = np.sqrt(lin * lin + 4 * n2 * (n2 - (a * a + b * b) / 2))
    lo, hi = np.maximum((-lin - root) / (2 * n2), -1.0), np.minimum((-lin + root) / (2 * n2), 1.0)
    top = _phase_arc(1 - lo, 1 - hi, 1 - lo)

    def phase(x):
        return (np.sqrt(n2) / 2 * (_phase_arc(1 + x, 1 + lo, 1 + hi) + top
                                   - _phase_arc(1 - x, 1 - hi, 1 - lo)),
                np.sqrt(n2 * np.maximum((x - lo) * (hi - x), 0)) / ((1 - x) * (1 + x)))

    return lo, hi, phase, (0.75 + (b - abs(b)) / 2) * np.pi


def laguerre_family(m: int, a: float) -> Family:
    """x^a e^-x on (0, inf), mu0 = Gamma(a + 1): p_k, (-1)^k times the
    orthonormal L_k^(a), keeps the identities of L_k^(a) (DLMF §18.9),
    x p_m' = m p_m + b_m p_(m-1) and x p_k'' + (a + 1 - x) p_k' + k p_k = 0."""
    a_, k = np.longdouble(float(a)), np.arange(m, dtype=np.longdouble)
    return Family(2 * k + a_ + 1, np.sqrt((k + 1) * (k + 1 + a_)), _lgamma(float(a) + 1.0),
                  lambda x: a_ * np.log(x) - x,
                  lambda x: ((x, 1), (a_ + 1 - x, -1), m, 1, m, 1),
                  partial(_laguerre_phase, m, float(a)))


def _laguerre_phase(m: int, a: float):
    """Family.phase of L_m^(a): u = x^((a+1)/2) e^(-x/2) L_m^(a) solves u'' + (kappa / (2x)
    + (1 - a^2) / (4 x^2) - 1/4) u = 0, kappa = 2m + a + 1, and Langer's change takes
    1 - a^2 to -a^2: the phase is int sqrt((x - lo)(hi - x)) / (2x) dx, lo and hi =
    kappa -+ sqrt(kappa^2 - a^2), one _phase_arc."""
    kappa = 2 * m + a + 1
    root = math.sqrt(kappa * kappa - a * a)
    lo, hi = a * a / (kappa + root), kappa + root
    return lo, hi, lambda x: (_phase_arc(x, lo, hi) / 2, np.sqrt(
        np.maximum((x - lo) * (hi - x), 0)) / (2 * x)), (0.75 + (a - abs(a)) / 2) * np.pi


def gauss_jacobi(m: int, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """Cached long-double Gauss-Jacobi rule for (1-x)^a (1+x)^b on [-1, 1]:
    nodes and log weights of jacobi_family, from _gauss_rules' one Newton pass,
    kept with every other Jacobi rule (_jacobi_rules), started from numpy alone
    (_start)."""
    return tuple(_jacobi_rules([(a, b)], (m,))[0][:2])


@lru_cache(maxsize=_RULE_CACHE)
def gauss_laguerre(m: int, a: float) -> tuple[np.ndarray, np.ndarray]:
    """Cached long-double Gauss rule of m nodes for x^a e^-x on (0, inf):
    nodes and log weights of laguerre_family, from _gauss_rules' one Newton pass,
    started from numpy alone (_start).  Past x of about 22,700, from about m =
    5,700 at a = 1/2, its start rows underflow: AccuracyError, before any O(m^2)
    work."""
    if m == 0:
        return np.zeros(0, dtype=np.longdouble), np.zeros(0, dtype=np.longdouble)
    return _gauss_rules([laguerre_family(m, a)])[0]


def _log_moments(m: int, a, b) -> np.ndarray:
    """nu_k / sqrt(mu0 h_k), k < m, as ratios of consecutive terms (long double)."""
    k = np.arange(1, m - 1, dtype=np.longdouble)
    h_step = ((2 * k + a + b + 1) * (k + a + 1) * (k + b + 1)
              / ((2 * k + a + b + 3) * (k + a + b + 1) * (k + 1)))
    steps = -(k + 1 + a) * k / ((k + 1) * (k + a + b + 2)) / np.sqrt(h_step)
    nu0 = math.log(2.0) + digamma(float(b) + 1) - digamma(float(a + b) + 2)
    nu1 = (1 + a) / (a + b + 2) / np.sqrt((a + 1) * (b + 1) / (a + b + 3))
    return np.concatenate(([nu0], nu1 * np.cumprod(np.append(1, steps))))[:m]


def _log_weights(ms, a, b, t) -> list[tuple[np.ndarray, np.ndarray]]:
    """The weights lp and lm of ln(1+t) and ln(1-t) on the nodes of Gauss-Jacobi rules
    of exponents a and b, (R,), at the node counts ms, their nodes side by side in t,
    (sum ms, R).

    Per unit Christoffel weight: with w the rule's weights, sum(w lp f(t)) and
    sum(w lm f(t)) integrate (1-t)^a (1+t)^b times ln(1+t) f and ln(1-t) f, exactly
    for polynomials f of degree < m.  A product rule from modified moments (Gautschi
    2004): lp_i = sum_k p_k(t_i) nu_k / sqrt(h_k) over the orthonormal p_k = P_k /
    sqrt(h_k), with nu_k = int weight ln(1+t) P_k: nu_0 = mu0 [ln 2 + psi(b+1) -
    psi(a+b+2)], mu0 = 2^{a+b+1} B(a+1, b+1), and nu_k = (-1)^{k-1} mu0 C(k+a, k)
    (k-1)! / (a+b+2)_k for k >= 1 (Chu-Vandermonde differentiated in the exponent of
    1+t); lm mirrors t -> -t.  The nodes must be the rules' own long-double ones
    (_jacobi_rules keeps lp and lm with them).  One pass of _rows for all,
    sqrt(mu0) p_k(t_i) in row k < m, against each rule's moments (the first m of the
    largest count's, _log_moments)."""
    top = max(ms)
    p = np.array(list(_rows(t, *jacobi_family(top - 1, a, b)[:2], np.ones_like(t))))
    sign = (-1.0) ** np.arange(top)
    moments = [(_log_moments(top, a_, b_), _log_moments(top, b_, a_) * sign)
               for a_, b_ in zip(np.longdouble(a), np.longdouble(b))]
    out, start = [], 0
    for m in ms:
        block, start = p[:m, start:start + m], start + m
        out.append(tuple(np.stack([mom[j][:m] @ block[..., r] for r, mom in enumerate(moments)],
                                  axis=-1) for j in (0, 1)))
    return out


# the Gauss-Jacobi rules by (m, a, b), at most _RULE_CACHE of them, the least
# recently used out first: [nodes, log weights, lp, lm, node powers], the last three
# filled once power_panels asks for them (_log_weights, _node_powers)
_JACOBI_RULES: dict = {}


def _jacobi_rules(pairs, sizes, logs: bool = False) -> list[list]:
    """The rule of sizes[0] nodes for each exponent pair (a, b), from _JACOBI_RULES:
    the pairs it lacks at any of sizes built in one pass of _gauss_rules over their
    families' columns, and with logs the log-term weights they lack in one
    _log_weights pass, each bitwise its rule built alone (_gauss_rules of its one
    family, and _log_weights on its one column)."""
    keys = [(sizes[0], a, b) for a, b in pairs]
    new = [k[1:] for k in keys if any((n, *k[1:]) not in _JACOBI_RULES for n in sizes)]
    if new:
        a, b = np.array(new).T if len(new) > 1 else new[0]  # one pair: scalar, cheaper
        for n, (t, ln_w) in zip(sizes, _gauss_rules([jacobi_family(n, a, b) for n in sizes])):
            for ab, col_t, col_w in zip(new, t.reshape(n, -1).T, ln_w.reshape(n, -1).T):
                _JACOBI_RULES.setdefault((n, *ab), [np.ascontiguousarray(col_t),
                                                    np.ascontiguousarray(col_w), None, None, {}])
    new = [k[1:] for k in keys if logs and _JACOBI_RULES[k][2] is None]
    if new:
        a, b = np.array(new).T
        entries = [[_JACOBI_RULES[(n, *ab)] for ab in new] for n in sizes]
        t = np.concatenate([np.stack([rule[0] for rule in group], axis=-1) for group in entries])
        for group, (lp, lm) in zip(entries, _log_weights(sizes, a, b, t)):
            for rule, col_p, col_m in zip(group, lp.T, lm.T):
                rule[2:4] = np.ascontiguousarray(col_p), np.ascontiguousarray(col_m)
    rules = [_JACOBI_RULES.pop(k) for k in keys]
    _JACOBI_RULES.update(zip(keys, rules))  # the most recently used last
    for k in list(islice(_JACOBI_RULES, max(0, len(_JACOBI_RULES) - _RULE_CACHE))):
        del _JACOBI_RULES[k]
    return rules


# ---------------------------------------------------------------------------
# Panel rows: a Taylor series of the family's equation on each panel's pieces

# From degree _TAYLOR_MIN_N on, panel_rows takes the series of _series:
# one recurrence over the pieces' centres and a fixed cost per panel list, then
# _TAYLOR_TERMS multiply-adds a node, against an m-step recurrence per node
# below.  Warm ms per value, recurrence / series, medians of 25 alternated calls,
# by quadrature (p = 0.7, 2.5) and Shannon (p = 1), radial and angular (n = l - |m|),
# measured while panels the cut missed took the recurrence and the series ran
# Horner's rule at each node; the series columns are lower since:
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
# l = 1000 keep series up to 1.6e-14 off.  The shares are of whole panels about
# their centres, measured before a panel the cut misses was cut into pieces
# (panel_rows): most misses were wide far-tail panels at small p, where 24 terms
# fall short, and the slice at x = 0, which now takes its series about x = 0.
_SERIES_CUT = 1e-16


def _factors(shifts, h_d, ks) -> np.ndarray:
    """f[k, d - 1] = h_d[d - 1] (L_d i (i - 1) + F_d i + Z_d) at i = k - d, for k in ks
    and the shifts d = 1, 2, ... given as (L_d, F_d, Z_d), shape (ks, shifts, panels, 1):
    per shift one product of the weights i (i - 1), i and 1 with its coefficients, the
    terms that are 0 by degree left out."""
    i = ks[:, None] - np.arange(1, len(shifts) + 1)
    f = np.zeros((len(ks), len(shifts), *h_d.shape[1:]), dtype=h_d.dtype)
    for d, coefs in enumerate(shifts):
        terms = [(w, np.broadcast_to(h_d[d] * e, h_d.shape[1:])[:, 0])
                 for w, e in zip(((i[:, d] - 1) * i[:, d], i[:, d], np.ones_like(ks)), coefs)
                 if not (type(e) is int and e == 0)]
        if terms:
            f[:, d, :, 0] = np.dot(np.stack([w for w, _ in terms], axis=1),
                                   np.stack([e for _, e in terms]))
    return f


def _series(fam: Family, lo, hi, s, tau=0.0, ln_scale=0.0):
    """Expansion points c, (panels, 1), and the scaled Taylor coefficients v_k = w_k h^k,
    k < _TAYLOR_TERMS, of w = (P/P(c))^s y about c, for y = e^(tau x) p_m
    e^(-(ln mu0 + ln_scale)/2) on the panels [lo, hi], s the gauge exponents: about the
    centre, h the half-length, or, on a panel with an end where P is 0, about that
    end, h the length and s = 0 (_pieces re-expands it about the centre, after the
    cut).  With g = tau P + s P', w solves
    P^2 w'' + P (Q - 2g) w' + (P (R_m - g') + g (g + P' - Q)) w = 0, whose
    coefficients L, F and Z in powers of x - c give (Glaser, Liu and Rokhlin, SIAM J.
    Sci. Comput. 29, 2007, 1420)
        k (k-1) v_k = -sum_(d>=1) h^d (L_d i(i-1) + F_(d-1) i + Z_(d-2)) v_i / L_0,
    i = k - d, from w_0 = y(c) and w_1 = ((A_m + g) y + B_m y_(m-1)) / P at c: one
    _last_rows pass over the points c and the structure relation.  At an end where
    P is 0, a regular singular point, y is the solution regular there: L_0, L_1, F_0
    and Z_0 vanish, and the equation two powers up gives
        (L_2 k(k-1) + F_1 k) v_k = -sum_(d>=1) h^d (L_(d+2) i(i-1) + F_(d+1) i + Z_d) v_i
    from w_0 = y(c) alone (for x^a e^-x at 0, k (k + a) times the scale)."""
    p_lo, p_hi = fam.identities(lo)[0][0], fam.identities(hi)[0][0]
    end = (p_lo == 0) | (p_hi == 0)
    c = np.where(p_lo == 0, lo, np.where(p_hi == 0, hi, (lo + hi) / 2))
    h = np.where(end, hi - lo, (hi - lo) / 2)
    s = np.where(end, 0, s)
    prev, row = _last_rows(c, fam.diag, fam.off, np.exp(tau * c - (fam.ln_mu0 + ln_scale) / 2))
    pp, qq, r, _, a_m, b_ratio = fam.identities(c)
    dp = [j * e for j, e in enumerate(pp)][1:]
    g = _plus([tau * e for e in pp], [s * e for e in dp])
    dg = [j * e for j, e in enumerate(g)][1:]
    eq = (_conv(pp, pp), _conv(pp, _plus(qq, [-2 * e for e in g])),
          _plus(_conv(pp, _plus([r], [-e for e in dg])),
                _conv(g, _plus(g, dp, [-e for e in qq]))))
    top = len(eq[2]) + 1  # shifts d = 1 .. top: L_d, F_(d-1) and Z_(d-2)
    pad = list(zip(*(((0,) * j + tuple(e) + (0,) * top)[:top + 1] for j, e in enumerate(eq))))
    k = np.arange(2, _TAYLOR_TERMS, dtype=np.longdouble)
    # about the centres: h^d / L_0, L_0 = P(c)^2 taken as 1 at the ends
    h_d = np.cumprod(np.broadcast_to(h, (top, *h.shape)), axis=0) / np.where(end, 1, eq[0][0])
    f = _factors(pad[1:], h_d, k) / (-k * (k - 1))[:, None, None, None]  # (k - 2, d - 1, ...)
    v = np.zeros((_TAYLOR_TERMS, *c.shape), dtype=row.dtype)
    b_m = fam.off[-1] if len(fam.off) else 0
    v[0], v[1] = row, h * ((a_m + g[0]) * row + b_ratio * b_m * prev) / np.where(end, 1, pp[0])
    if end.any():
        at = end.ravel()

        def sub(e):
            return e[at] if np.ndim(e) else e

        ends = [tuple(map(sub, t)) for t in pad]
        k1 = np.arange(1, _TAYLOR_TERMS, dtype=np.longdouble)
        (l2, f1, z0), h_e = ends[2], np.cumprod(np.broadcast_to(h[at], (top - 2, *h[at].shape)),
                                                axis=0)
        k1_ = k1[:, None, None]
        f_end = _factors(ends[3:], h_e, k1) / -((l2 * (k1_ - 1) + f1) * k1_ + z0)[:, None]
        v[1][at] = f_end[0, 0] * v[0][at]
        f[:, :, at] = 0
        f[:, :top - 2, at] = f_end[1:]
    for k in range(2, _TAYLOR_TERMS):
        v[k] = np.einsum("d...,d...->...", f[k - 2, :k], v[k - 1::-1][:top])
    return c, v


def _node_powers(rule, d: int) -> tuple[np.ndarray, np.ndarray]:
    """The piece j of each node t of a rule among 2^d equal pieces of [-1, 1], and u^k,
    (k, nodes) for k < _TAYLOR_TERMS, at u = 2^d t + 2^d - 1 - 2j, the node on its
    piece mapped to [-1, 1] (u = t at d = 0): kept in the rule's entry."""
    key = (d, _TAYLOR_TERMS)
    if key not in rule[4]:
        t = rule[0]
        j = np.minimum(((t + 1) * 2.0 ** (d - 1)).astype(int), 2 ** d - 1)  # t + 1 >= 0
        u = t * 2 ** d + (2 ** d - 1 - 2 * j) if d else t
        rule[4][key] = j, np.ascontiguousarray(np.vander(u, _TAYLOR_TERMS, increasing=True).T)
    return rule[4][key]


@lru_cache(maxsize=None)
def _reach(terms: int, cut: float) -> float:
    """The largest u at which e^(u t), t in [-1, 1], keeps its series within the cut:
    its last two scaled coefficients u^k / k! within cut of its largest, by bisection."""
    if cut == math.inf:
        return math.inf

    def within(u):
        ln_v = [k * math.log(u) - math.lgamma(k + 1) for k in range(terms)]
        return np.logaddexp(ln_v[-1], ln_v[-2]) <= math.log(cut) + max(ln_v)

    lo, hi = 0.0, 1.0
    while within(hi):
        lo, hi = hi, 2 * hi
    for _ in range(60):
        lo, hi = ((lo + hi) / 2, hi) if within((lo + hi) / 2) else (lo, (lo + hi) / 2)
    return lo


def _depths(tau: float, half) -> np.ndarray:
    """The halvings d that bring the series of e^(tau x), a factor of every row, within
    _SERIES_CUT on each of 2^d pieces of a panel of half-length half: its scaled
    coefficients are (tau h)^k / k! on a piece of half-length h (_reach)."""
    over = abs(tau) * half / _reach(_TAYLOR_TERMS, _SERIES_CUT)
    return np.ceil(np.log2(np.maximum(over, 1.0))).astype(int)


@lru_cache(maxsize=None)
def _end_to_centre(terms: int) -> np.ndarray:
    """M[j, k] = C(k, j) 2^-k, k >= j, exact in long double: a series sum_k v_k u^k
    about the end lo of a piece, u = (x - lo) / (hi - lo), is sum_j (M v)_j t^j about
    its centre, t = (x - c) / ((hi - lo) / 2), as u = (t + 1) / 2.  About the end hi,
    u = (t - 1) / 2, the same map takes v_k (-1)^k to w_j (-1)^j."""
    return np.array([[math.comb(k, j) / 2 ** k for k in range(terms)] for j in range(terms)],
                    dtype=np.longdouble)


def _pieces(fam: Family, lo_p, hi_p, s, tau, ln_scale):
    """The panels [lo_p, hi_p] cut into 2^d equal pieces, each with its series of
    _series under the gauge exponent s: d starts where e^(tau x) alone meets
    _SERIES_CUT (_depths), and a panel where a piece misses the cut takes the fewest
    halvings that bring it within the cut as its coefficients scale by h^k, again
    while one misses.  A panel is lost to the recurrence where its pieces would
    outnumber the nodes of settled's first two passes, each of which costs the
    recurrence what a piece costs, or where a cut falls below the normal range (the
    row at c has underflowed).  The cut decides on a piece's series as _series gives
    it; a kept piece about an end is then re-expanded about its centre
    (_end_to_centre), so every piece's series is in t = (x - c) / h, c its centre and
    h its half-length.  Returns d, lost and the pieces' panels, c and v, (pieces,
    terms, 1), panel by panel in order along each."""
    width = hi_p - lo_p
    d = _depths(tau, width.astype(float) / 2)
    most = _NODES + _NODES * 3 // 2
    lost = 2.0 ** d > most
    none = np.zeros((0, _TAYLOR_TERMS, 1), dtype=np.longdouble)  # a part with no pieces
    parts, todo = [(np.zeros(0, dtype=int), none[:, 0], none[:, 0], none)], np.flatnonzero(~lost)
    while len(todo):  # d grows each pass: at most log2(most) passes
        owner = np.repeat(todo, 2 ** d[todo])
        j = np.arange(len(owner)) - np.repeat(np.cumsum(2 ** d[todo]) - 2 ** d[todo],
                                              2 ** d[todo])  # each piece's place on its panel
        lo, hi = ((lo_p[owner] + width[owner] * (j + e) / 2.0 ** d[owner])[:, None]
                  for e in (0, 1))
        c, v = _series(fam, lo, hi, s[owner, None] if np.ndim(s) else s, tau, ln_scale)
        mag = np.abs(v)[..., 0]
        top, tail = mag.max(axis=0), mag[-1] + mag[-2]
        need = np.where(tail <= _SERIES_CUT * top, 0.0, np.inf)
        miss = need > 0
        # a halving scales v_k by about 2^-k: the last two meet the cut against v_k
        # after log2(tail / (cut v_k)) / (terms - 2 - k) halvings, the fewest over k
        with np.errstate(divide="ignore", invalid="ignore"):
            need[miss] = np.ceil(np.min(np.log2(tail[miss] / (_SERIES_CUT * mag[:-2, miss]))
                                        / np.arange(_TAYLOR_TERMS - 2, 0, -1)[:, None], axis=0))
        need[~(_SERIES_CUT * top >= np.finfo(top.dtype).tiny) | ~(need >= 0)] = np.inf
        need = np.maximum.reduceat(need, np.flatnonzero(np.diff(owner, prepend=-1)))
        need[2.0 ** (d[todo] + need) > most] = np.inf
        lost[todo[need == np.inf]] = True
        keep = (need == 0)[np.searchsorted(todo, owner)]
        parts.append((owner[keep], c[keep], ((lo + hi) / 2)[keep], v[:, keep].swapaxes(0, 1)))
        d[todo] += np.where(need < np.inf, need, 0).astype(int)
        todo = todo[(need > 0) & (need < np.inf)]
    owner, c, mid, v = map(np.concatenate, zip(*parts))
    # the pieces about an end, the only ones whose c is not their centre (bit for bit)
    end = (c != mid).ravel()
    sign = np.where(c[end] < mid[end], 1.0, -1.0) ** np.arange(_TAYLOR_TERMS)
    v[end, :, 0] = sign * ((sign * v[end, :, 0]) @ _end_to_centre(_TAYLOR_TERMS).T)
    order = np.argsort(owner, kind="stable")
    return d, lost, owner[order], mid[order], v[order]


def panel_rows(fam: Family, panels, tau=0.0, ln_scale=0.0, s=0) -> Callable:
    """The integrand poly(x, which, rules) of power_panels on the panel list: row m =
    len(fam.diag) of _rows from r_0 = exp(tau x - (ln mu0 + ln_scale)/2), x of shape
    (len(panels), k), panel i's row the nodes of rules[which[i]] mapped onto it.
    Below m = _TAYLOR_MIN_N, or with panels None, the recurrence, which reads x alone
    and takes any points.  From there on, each panel in 2^d equal pieces, each with
    its own series about its centre (_pieces), shared by every pass; the root gaps
    (both ends "root") under (P/P(c))^s.  A panel _pieces loses takes the recurrence,
    and every other its pieces' coefficients against the powers of its rule's nodes
    on them (_node_powers): one product a rule and depth."""
    def recurrence(x, *_):
        return _last_rows(x, fam.diag, fam.off,
                          np.exp(tau * x - (fam.ln_mu0 + ln_scale) / 2))[1]

    if panels is None or len(fam.diag) < _TAYLOR_MIN_N:
        return recurrence
    lo_p, hi_p = (np.array(col, dtype=np.longdouble) for col in list(zip(*panels))[:2])
    gauge = np.where([lk == hk == "root" for *_, lk, hk in panels], s, 0)
    d, lost, owner, c, v = _pieces(fam, lo_p, hi_p, gauge, tau, ln_scale)
    v, pc = v.swapaxes(0, 1), fam.identities(c)[0][0]  # P(c), for the gauge
    first = np.searchsorted(owner, np.arange(len(panels)))
    rows, top, gauged = np.flatnonzero(~lost), d.max() + 1, (gauge != 0) & ~lost

    def poly(x, which, rules):
        y, at = np.empty_like(x), np.empty(x.shape, dtype=int)  # at: each node's piece
        if lost.any():
            y[lost] = recurrence(x[lost])
        codes, group = np.unique(np.asarray(which)[rows] * top + d[rows], return_inverse=True)
        for code, sel in zip(codes.tolist(), (rows[group == i] for i in range(len(codes)))):
            j, tk = _node_powers(rules[code // top], code % top)
            piece = at[sel] = first[sel][:, None] + j
            y[sel] = (np.einsum("kpn,kn->pn", v[:, piece, 0], tk) if j[-1] else
                      np.dot(v[:, first[sel], 0].T, tk))
        if gauged.any():  # long double ** 1 takes powl, 60 us a pass at n = 100
            ratio = pc[at[gauged], 0] / fam.identities(x[gauged])[0][0]
            y[gauged] *= ratio if s == 1 else ratio ** s
        return y

    return poly


def _check_underflow(ln_held, ln_sum, prefix="") -> None:
    """AccuracyError unless the nodes whose row is below the smallest normal value, each
    bounded by its term there, hold at most a float ulp of the sum: past that, every node
    count loses the mass alike (the start row e^(-x/2) from x = 22,710 at p = 1e-3)."""
    if ln_held - ln_sum > math.log(np.finfo(float).eps):
        share = math.exp(min(float(ln_held - ln_sum), 709.0))
        raise AccuracyError(f"{prefix}rows underflow where the integrand may hold {share:.2g} "
                            f"of the sum", error_bound=share)


def power_panels(panels, poly: Callable, q2: float, edges, m: int, log_coefs=None):
    """Panel integrals of |poly(x)|^q2 (x - a)^ea (b - x)^eb on Gauss-Jacobi panels.

    panels is a list of (lo, hi, lo_kind, hi_kind), as plan_panels returns;
    edges = ((a, ea), (b, eb)), None for an edge that does not exist.  Each
    end of each panel has a kind, which says what goes into the panel's
    cached gauss_jacobi weight:
      "root"   a root r of poly: |x - r|^q2, the distance divided out of |poly|;
      "edge"   the end is a (at lo) or b (at hi): that edge's power;
      "plain"  nothing.
    poly is called once, on every node, as poly(x, which, rules): x of shape
    (len(panels), m), a row of long-double nodes a panel, rules the store entries
    of _jacobi_rules and which[i] the index of panel i's rule among them, whose
    node powers panel_rows' integrand reads (_node_powers); an integrand that
    needs only x ignores the rest.  Every power is formed from long-double logs,
    the panel scale h^(e_lo + e_hi + 1) for the half-length h and the weight's
    end exponents included: each node adds one positive exp(ln w + ...), at
    most its panel's integral, so nothing leaves the float range while that
    integral is in range, and one past it comes back inf.  A node where |poly|
    is 0 adds 0; where it underflows, _check_underflow bounds what it misses.

    Returns each panel's integral, in long double.  With log_coefs = (ca, cb)
    it also returns each panel's integral of the integrand times 2 ln|poly| +
    ca ln(x - a) + cb ln(b - x), whose kinks at root ends and edges take
    the log-term weights of _log_weights on the same nodes.
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
    # at _NODES with the 1.5 _NODES of settled's second pass, in one build
    rules = _jacobi_rules(kinds, (m, m * 3 // 2) if m == _NODES else (m,),
                          log_coefs is not None)
    # the nodes, log weights and log-term weights per unit weight: long double
    t, ln_w, *logs = (np.array(col)[which] for col in
                      zip(*(rule[:2 if log_coefs is None else 4] for rule in rules)))
    h = (hi - lo) / 2
    ln_h = np.log(h)
    x = lo + h * (1 + t)
    row = np.abs(poly(x, which, rules))
    g = row / np.where(lo_root, x - lo, 1.0)
    g = g / np.where(hi_root, hi - x, 1.0)
    with np.errstate(divide="ignore"):  # ln 0 = -inf: the node adds exp(-inf) = 0
        ln_g = np.log(g)
    ln_a = 0.0 if a is None else np.log(x - a)
    ln_b = 0.0 if b is None else np.log(b - x)

    def off_edge(ca, cb):  # ca ln(x - a) + cb ln(b - x) where no weight holds it
        return np.where(lo_edge, 0.0, ca) * ln_a + np.where(hi_edge, 0.0, cb) * ln_b

    def terms_at(ln_g):
        return np.exp(ln_w + (e_lo + e_hi + 1) * ln_h + q2 * ln_g + off_edge(ea, eb))

    with np.errstate(over="ignore"):  # past the range: inf, which settled rejects
        terms = terms_at(ln_g)
        parts = np.sum(terms, axis=1)
        total = parts.sum()
        under = row < np.finfo(row.dtype).tiny
        if under.any() and 0 < total < np.inf:  # bounded by their terms at |row| = tiny
            held = terms_at(np.log(np.finfo(row.dtype).tiny / np.where(lo_root, x - lo, 1.0)
                                   / np.where(hi_root, hi - x, 1.0)))[under].sum()
            with np.errstate(divide="ignore"):  # held 0: ln 0 = -inf passes
                _check_underflow(np.log(held), np.log(total))
    # an outer end "plain" marks a dropped piece (plan_panels): the panel there must
    # be negligible and below its neighbour, or the list ends inside a lobe
    for i, j, kind in ((0, 1, lo_kind[0, 0]), (-1, -2, hi_kind[-1, 0])):
        if kind == "plain" and not parts[i] <= min(1e-20 * total, parts[j]):
            # in logs: the sums may pass the float range (e^-1115 at (40, 100, 200))
            ln_part, ln_total = float(np.log(parts[i])), float(np.log(total))
            raise AccuracyError(f"panel list ends inside a lobe: its outer panel holds "
                                f"e^{ln_part:.6g} of e^{ln_total:.6g}", estimate=float(total))
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
    Past _SLICE_BUDGET slices, or a tail slice ending past the largest float:
    AccuracyError.
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
            if not b < math.inf:  # e^(-rate x) at rate near 1e-307 outlasts the floats
                raise AccuracyError(f"{what}: the tail passes the float range at {a:.3g}")
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
# An even-2p value takes one Gauss rule of n p + 1 nodes, exact for the polynomial
# power and summed by _rule_sum (radial: Gauss-Laguerre; angular: Gauss-Jacobi,
# n = l - |m|), while _rule_wins says so, else the panels of _panel_pass: about
# (n 2p)^2 / 4 recurrence steps to build the rule against n^2 for the roots the panels
# sit on.  A component is computed once per session, so the cold cost decides.  Cold
# ms, rule/panels, medians of 5 alternated in-process runs with every rule cache
# cleared, at l = 0 and |m| = 3, by rule nodes:
#     nodes            101       201       301       401       601        801
#     radial  2p = 4   1.8/5.3   3.7/7.4   6.3/9.7   9.4/12.5  18.5/19.6  29/25
#             2p = 8   1.7/4.3   3.4/5.4             8.3/8.2   16.2/10.1  26/12
#             2p = 12                      5.6/5.6             15.8/9.4
#     angular 2p = 4   2.0/4.4   4.0/6.8   6.4/9.0   9.6/11.2  18.0/16.4  30/23
#             2p = 8   1.9/3.1   3.6/4.4             8.6/6.8   16.3/9.2   26/12
#             2p = 12                      5.6/4.4             15.6/7.0
# and at 2001 nodes (2p = 4) 153/87 radial and 155/84 angular.  The panels' roots cost
# what a rule of n nodes costs, so the rule's lead shrinks with 2p; by node count alone
# it takes the rule to 400 nodes radial and 300 angular, at most 1.3x off the faster.
_RULE_NODES = {"laguerre": 400, "jacobi": 300}


def _rule_wins(family: str, nodes: int) -> bool:
    """Whether an even-2p value of the family ("laguerre" or "jacobi") takes its Gauss
    rule of nodes nodes rather than the panels, the one that is cheaper cold."""
    return nodes <= _RULE_NODES[family]


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


def _panel_pass(fam: Family, ends, kinds, edges, rate: float, q2: float, what: str,
                log_coefs=None, tau=0.0, ln_scale=0.0, s=0) -> Callable:
    """The pass m -> power_panels of |row m of fam|^q2 under edges on the panels that
    plan_panels lays from ends, kinds, edges and rate, the row by panel_rows under the
    gauge tau, ln_scale and s: a partial, whose args[0] is the panel list."""
    panels = plan_panels(ends, kinds, edges, q2, rate, what)
    return partial(power_panels, panels, panel_rows(fam, panels, tau, ln_scale, s), q2,
                   edges, log_coefs=log_coefs)


def _rule_sum(rows: Callable, x, ln_w, q: int, what: str):
    """ln sum_j exp(ln_w_j + q ln|rows(x_j)|) over an even-2p Gauss rule's nodes mapped
    to x, ln_w its log weights plus what undoes them, rows a part's row by its plain
    recurrence (panel_rows with panels None); in logs, as |row|^q turns subnormal where
    w_j grows (2p = 6, l = 600).  Not finite where no term is positive; rows that
    underflow raise as in power_panels, named by what."""
    row = np.abs(rows(x))
    with np.errstate(divide="ignore"):
        t = ln_w + q * np.log(row)
    top = np.max(t)
    if not np.isfinite(top):
        return top
    ln_sum = top + np.log(np.sum(np.exp(t - top)))
    under = row < np.finfo(row.dtype).tiny
    if under.any():
        _check_underflow(np.logaddexp.reduce(ln_w[under] + q * np.log(np.finfo(row.dtype).tiny)),
                         ln_sum, f"{what}: ")
    return ln_sum


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
