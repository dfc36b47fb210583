"""Unit checks for the exact-arithmetic special function layer."""

import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.special as sp
from hypothesis import example, given, settings, strategies as hst

from conftest import rows_at_rule_nodes
from oscent import angular, radial, rydberg, specfun
from oscent.errors import AccuracyError, DomainError


def test_digamma_matches_scipy():
    for x in (0.5, 1.0, 3.25, 19.0, 250.5):
        assert specfun.digamma(x) == pytest.approx(sp.digamma(x), rel=1e-13)


DIGAMMA_ARGS = ([round(1 + 0.1 * i, 1) for i in range(200)] + list(range(21, 200))
                + [1e-300, 1e-5, 0.25, 0.5, 1.4616321449683622, 250.5, 1e5, 1e300])


def test_digamma_matches_mpmath():
    # rounded from long double: within half a float ulp of the 40-digit
    # value, plus a few long-double ulps where psi at the shifted argument
    # and the shift cancel next to the zero at 1.4616 (3.9e-20 there)
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        for x in DIGAMMA_ARGS:
            want = mpmath.digamma(x)
            got = specfun.digamma(x)
            assert abs(got - want) <= math.ulp(float(want)) / 2 + 2e-19 * max(1.0, abs(got)), x


@given(hst.floats(min_value=0.25, max_value=60.0))
@settings(max_examples=60, deadline=None)
def test_digamma_recurrence(x):
    # psi(x + 1) = psi(x) + 1/x
    lhs = specfun.digamma(x + 1.0)
    rhs = specfun.digamma(x) + 1.0 / x
    assert lhs == pytest.approx(rhs, rel=1e-11, abs=1e-11)


def test_kernel_refuses_a_float64_long_double():
    specfun._require_long_double(np.finfo(np.longdouble))
    with pytest.raises(ImportError, match="80-bit"):
        specfun._require_long_double(np.finfo(np.float64))


def test_gamma_half_exact_matches_float_gamma():
    for two_x in range(1, 16):
        fr, pw = specfun.gamma_half_exact(two_x)
        value = float(fr) * math.pi ** (0.5 * pw)
        assert value == pytest.approx(math.gamma(two_x / 2.0), rel=1e-14)


def test_rational_poly_arithmetic():
    p = (Fraction(1), Fraction(1))
    q = specfun._conv(p, p)
    assert q == (Fraction(1), Fraction(2), Fraction(1))
    assert specfun._plus(p, q) == (Fraction(2), Fraction(3), Fraction(1))
    assert specfun._horner(q, Fraction(1, 2)) == Fraction(9, 4)


def test_bell_partial_textbook_rows():
    # B_{n,1} picks the last slot, B_{n,n} the pure power of the first.
    xs = [Fraction(k) for k in (2, 3, 5, 7)]
    assert specfun.bell_partial(4, 1, xs) == 7
    assert specfun.bell_partial(4, 4, xs) == 2 ** 4
    # B_{4,2}(x1,x2,x3) = 3 x2^2 + 4 x1 x3
    assert specfun.bell_partial(4, 2, xs) == 3 * 3 ** 2 + 4 * 2 * 5


def test_poly_power_cube_of_binomial():
    cube = specfun.poly_power((Fraction(1), Fraction(1)), 3)
    assert cube == tuple(Fraction(c) for c in (1, 3, 3, 1))


def _poly_power_bell(poly, q):
    """Oracle: [sum_k c_k x^k]^q by partial Bell polynomials.

    [z^k] = q!/(k+q)! B_{k+q,q}(1! c_0, 2! c_1, ...), an expansion that
    shares no arithmetic with the Kronecker substitution in ``specfun.poly_power``.
    """
    deg = len(poly) - 1
    cs = list(poly)
    top = deg * q
    args = [math.factorial(i + 1) * (cs[i] if i <= deg else Fraction(0))
            for i in range(top + 1)]
    qfact = math.factorial(q)
    return tuple(Fraction(qfact, math.factorial(k + q))
                 * specfun.bell_partial(k + q, q, args[:k + 1])
                 for k in range(top + 1))


@pytest.mark.parametrize("q", [2, 4, 6])
@pytest.mark.parametrize("l", [0, 3])
@pytest.mark.parametrize("n", [1, 3, 7, 10])
def test_poly_power_matches_bell_oracle_on_laguerre(n, l, q):
    lpoly = specfun.laguerre_poly(n, Fraction(2 * l + 1, 2))
    assert specfun.poly_power(lpoly, q) == _poly_power_bell(lpoly, q)


def test_poly_power_matches_bell_oracle_on_angular_generator(monkeypatch):
    # the generating polynomial _ctilde0 raises to 2p, at degree 8 and 2p = 8: fixed,
    # not the exact routes' cap, as the Bell oracle takes 25 s at degree 40
    seen = []
    moments = specfun._power_moments

    def spy(poly, q, *args):
        seen.append((poly, q))
        return moments(poly, q, *args)

    monkeypatch.setattr(specfun, "_power_moments", spy)
    m = 1
    angular._ctilde0(8 + m, m, 8)
    [(upoly, q)] = seen
    assert (len(upoly) - 1, q) == (8, 8)
    assert specfun.poly_power(upoly, q) == _poly_power_bell(upoly, q)


@example([Fraction(-3)], 5)
@example([0, Fraction(-3)], 4)
@example([Fraction(-1, 3), 0, Fraction(5, 7), Fraction(-2)], 5)
@example([Fraction(10 ** 30, 7), Fraction(-1, 10 ** 12), Fraction(-10 ** 30, 11)], 3)
@given(hst.lists(hst.fractions(min_value=-4, max_value=4, max_denominator=12), min_size=1,
                 max_size=5),
       hst.integers(min_value=1, max_value=5))
@settings(max_examples=60, deadline=None)
def test_poly_power_matches_bell_oracle_on_rationals(coeffs, q):
    # mixed denominators, zero coefficients and negative or zero leading terms, and
    # a monomial, whose power reaches the l1 bound the digit width rests on: where
    # a digit packed too narrow or with the wrong sign would show
    assert specfun.poly_power(tuple(coeffs), q) == _poly_power_bell(tuple(coeffs), q)


@given(hst.lists(hst.integers(min_value=-4, max_value=4), min_size=1,
                 max_size=4),
       hst.integers(min_value=1, max_value=4))
@settings(max_examples=40, deadline=None)
def test_poly_power_matches_numpy(coeffs, q):
    if not any(coeffs):
        coeffs = coeffs + [1]
    while coeffs[-1] == 0:  # the last coefficient sets the degree
        coeffs = coeffs[:-1]
    got = specfun.poly_power(tuple(Fraction(c) for c in coeffs), q)
    want = np.polynomial.polynomial.polypow(np.array(coeffs, dtype=float), q)
    want = np.trim_zeros(want, "b")
    if want.size == 0:
        want = np.zeros(1)
    assert len(got) == want.size
    for c, w in zip(got, want):
        assert float(c) == pytest.approx(w, rel=1e-12, abs=1e-12)


def _jacobi_by_recurrence(n_max, a, b):
    """P_0^(a,b) .. P_n_max^(a,b) in Fractions by the three-term recurrence (DLMF
    18.9.1) from P_0 = 1 and P_1 = ((a - b) + (a + b + 2) x)/2: the oracle of
    specfun._jacobi_exact, which takes the explicit sum."""
    a, b = Fraction(a), Fraction(b)
    prev, out = (Fraction(1),), ((a - b) / 2, (a + b + 2) / 2)
    yield prev
    for k in range(1, n_max + 1):
        yield out
        s = 2 * k + a + b
        den = 2 * (k + 1) * (k + a + b + 1) * s
        lin = ((s + 1) * (a * a - b * b) / den, (s + 1) * (s + 2) * s / den)
        back = 2 * (k + a) * (k + b) * (s + 2) / den
        prev, out = out, specfun._plus(specfun._conv(out, lin), [-back * c for c in prev])


@pytest.mark.parametrize("m", [0, 1, 3, 7, 20])
def test_jacobi_exact_matches_the_recurrence(m):
    # the same Fractions, coefficient for coefficient, at every degree n <= 60
    for n, want in enumerate(_jacobi_by_recurrence(60, m, m)):
        assert specfun._jacobi_exact(n, m) == want, n


@pytest.mark.parametrize("m", [0, 1, 3, 7, 20])
@pytest.mark.parametrize("n", [0, 1, 2, 5, 20, 60])
def test_jacobi_exact_matches_scipy(n, m):
    # summed exactly at each rational t, then rounded: 1.2e-15 at worst, (5, 0), of
    # the largest |P_n^(m,m)| on the grid, which reaches 3.5e18 at (60, 20)
    cs = specfun._jacobi_exact(n, m)
    ts = (-0.95, -0.6, -0.1, 0.0, 0.3, 0.77, 1.0)
    got = [float(specfun._horner(cs, Fraction(t))) for t in ts]
    want = sp.eval_jacobi(n, m, m, np.array(ts))
    assert np.allclose(got, want, rtol=0, atol=4e-15 * np.abs(want).max())


@pytest.mark.parametrize("n,lam", [(1, 0.5), (3, 1.5), (5, 2.5), (6, 0.5)])
def test_gegenbauer_eval_matches_scipy(n, lam):
    for t in (-0.7, 0.1, 0.6):
        assert specfun.gegenbauer_eval(n, lam, t) == \
            pytest.approx(sp.eval_gegenbauer(n, lam, t), rel=1e-12)


def test_gegenbauer_roots_are_roots():
    roots = specfun.gegenbauer_roots(5, 1.5)
    assert len(roots) == 5
    assert np.all(np.diff(roots) > 0)
    for t in roots:
        assert abs(sp.eval_gegenbauer(5, 1.5, float(t))) < 1e-12


@pytest.mark.parametrize("n,lam", [(60, 0.5), (200, 3.5)])
def test_high_degree_gegenbauer_roots_match_scipy(n, lam):
    roots = specfun.gegenbauer_roots(n, lam)
    want = sp.roots_jacobi(n, lam - 0.5, lam - 0.5)[0]
    assert np.allclose(roots, want, rtol=0, atol=1e-14)


@pytest.mark.parametrize("n,lam", [(20, 0.5), (60, 3.5), (100, 5.5)])
def test_gegenbauer_recurrence_high_degree(n, lam):
    t = np.linspace(-0.99, 0.99, 41)
    got = specfun.gegenbauer_eval(n, lam, t)
    want = sp.eval_gegenbauer(n, lam, t)
    assert np.allclose(got, want, rtol=0, atol=1e-12 * np.max(np.abs(want)))


@pytest.mark.parametrize("n,alpha", [(0, 0.5), (2, 1.5), (5, 2.5), (9, 0.5)])
def test_laguerre_eval_matches_scipy(n, alpha):
    for x in (0.0, 0.3, 2.0, 11.0):
        assert specfun.laguerre_eval(n, alpha, x) == \
            pytest.approx(sp.eval_genlaguerre(n, alpha, x), rel=1e-12)


def test_laguerre_poly_exact_coefficients():
    # L_2^{(1/2)}(x) = 15/8 - 5x/2 + x^2/2
    poly = specfun.laguerre_poly(2, Fraction(1, 2))
    assert poly == (Fraction(15, 8), Fraction(-5, 2), Fraction(1, 2))


def test_laguerre_orthonormal_normalization():
    # quad against the weight x^alpha e^{-x} on a generous panel set
    alpha = 1.5
    for n in (0, 2, 6):
        def f(x):
            return float(specfun.laguerre_orthonormal_weighted(n, alpha, x)) ** 2 \
                * x ** alpha
        total = specfun.integrate(f, 0.0, 60.0 + 8.0 * n)
        assert total == pytest.approx(1.0, abs=1e-10)


def test_laguerre_orthonormal_weighted_high_degree_is_finite():
    vals = specfun.laguerre_orthonormal_weighted(
        500, 0.5, np.linspace(1.0, 2000.0, 64))
    assert np.all(np.isfinite(vals))
    assert np.max(np.abs(vals)) < 10.0


@pytest.mark.parametrize("n,alpha", [(0, 0.5), (1, 2.5), (7, 0.5), (60, 20.5)])
def test_laguerre_weighted_derivative_matches_mpmath(n, alpha):
    # the series start values of _series at the panel centres x, h = 1: the
    # last row under e^(-x/2), (-1)^n psi, and its derivative from the last
    # two rows and the structure relation; and the rows panel_rows gives at a
    # rule's nodes on those panels, as power_panels evaluates them (the
    # recurrence below n = 40, the series from there on), 3.1e-17 off at most
    mpmath = pytest.importorskip("mpmath")
    x = [0.25, 2.0, 15.0, 90.0]
    panels = [(xi - 1, xi + 1, "plain", "plain") for xi in x]
    fam = specfun.laguerre_family(n, alpha)
    lo, hi = (np.array(col, dtype=np.longdouble)[:, None] for col in list(zip(*panels))[:2])
    v = specfun._series(fam, lo, hi, 0, -0.5)[1]
    psi, dpsi = (-1) ** n * v[0, :, 0], (-1) ** n * v[1, :, 0]
    nodes, rows = rows_at_rule_nodes(specfun.panel_rows(fam, panels, -0.5), panels)
    with mpmath.workdps(40):
        norm = mpmath.sqrt(mpmath.gamma(n + alpha + 1) / mpmath.factorial(n))

        def f(t):
            return mpmath.laguerre(n, alpha, t) * mpmath.exp(-t / 2) / norm

        for xi, got, dgot in zip(x, psi, dpsi):
            want, dwant = f(xi), mpmath.diff(f, xi)
            scale = max(abs(want), abs(dwant))
            assert abs(float(got) - want) <= 1e-15 * scale
            assert abs(float(dgot) - dwant) <= 1e-15 * scale
        for t, row in zip(nodes, rows):
            want = [f(_mpf(mpmath, ti)) for ti in t]
            err = max(abs(_mpf(mpmath, (-1) ** n * r) - w) for r, w in zip(row, want))
            assert err <= 1e-16 * max(map(abs, want))


def test_log_weighted_panels_skip_nodes_where_the_power_underflows():
    # nodes where |poly| is 0 add 0 to both integrals, with no 0 * (-inf)
    # warning (the suite turns warnings into errors).  The ends are "edge"
    # ends of no edge, weight 1: an outer "plain" end marks a dropped piece
    parts, logs = specfun.power_panels(
        [(0.0, 1.0, "edge", "edge")], lambda x, *_: np.where(x > 0.5, x, 0.0),
        2.0, (None, None), 24, (0.0, 0.0))
    t, ln_w = specfun.gauss_jacobi(24, 0.0, 0.0)
    x = (1 + t.astype(float)) / 2
    w = np.where(x > 0.5, np.exp(ln_w.astype(float)) / 2, 0.0)
    assert parts[0] == pytest.approx(np.sum(w * x ** 2), rel=1e-14)
    assert logs[0] == pytest.approx(np.sum(w * x ** 2 * 2 * np.log(x)), rel=1e-14)


@pytest.mark.parametrize("n,alpha", [(2, -4.5), (3, -7.25), (5, -13.5)])
def test_laguerre_negative_parameter_matches_mpmath(n, alpha):
    mpmath = pytest.importorskip("mpmath")
    for x in (0.5, 2.0, 9.0):
        want = float(mpmath.laguerre(n, alpha, x))
        assert specfun.laguerre_eval_negparam(n, alpha, x) == \
            pytest.approx(want, rel=1e-10)


def test_gauss_rules_integrate_polynomials_exactly():
    nodes, weights = specfun.gauss_legendre(6)
    assert weights @ nodes ** 8 == pytest.approx(2.0 / 9.0, rel=1e-13)
    nodes, ln_w = specfun.gauss_jacobi(6, 0.0, -0.5)
    weights = np.exp(ln_w)
    # int_{-1}^1 t^2 (1+t)^{-1/2} dt = 2^{5/2}*2/15 + 2^{1/2}*2/3 - 2^{3/2}*2/3... use quad
    import scipy.integrate as si
    want, _ = si.quad(lambda t: t ** 2 * (1.0 + t) ** -0.5, -1.0, 1.0)
    assert weights @ nodes ** 2 == pytest.approx(want, rel=1e-12)


def test_integrate_rejects_non_finite_limits():
    for lo, hi in ((0.0, math.inf), (-math.inf, 0.0), (0.0, math.nan)):
        with pytest.raises(DomainError, match="finite"):
            specfun.integrate(lambda x: math.exp(-x), lo, hi)


def test_power_panels_map_the_rule_to_beta_closed_forms():
    # integral_lo^hi (x-lo)^a (hi-x)^b (x-lo)^j dx = H^(a+b+j+1) B(a+j+1, b+1),
    # one panel a call: its ends are the edges, poly = (x-lo)^j and q2 = 1
    lo = np.array([0.0, 1.0, -1.0, -1.0, 0.3, 2.0])
    hi = np.array([2.0, 4.0, 0.5, -0.2, 0.9, 2.5])
    lo_exp = np.array([0.5, 2.5, 4.4, 0.0, 6.6, 3.0])
    hi_exp = np.array([1.5, 0.0, 4.4, 6.6, 0.0, 3.0])
    j = np.array([0, 3, 1, 2, 4, 0])
    got = [specfun.power_panels([(a, b, "edge", "edge")],
                                lambda x, *_, a=a, k=k: (x - a) ** k, 1.0,
                                ((a, ea), (b, eb)), 12)[0]
           for a, b, ea, eb, k in zip(lo, hi, lo_exp, hi_exp, j)]
    span = hi - lo
    want = span ** (lo_exp + hi_exp + j + 1) * sp.beta(lo_exp + j + 1, hi_exp + 1)
    assert np.allclose(got, want, rtol=1e-13, atol=0)
    # float ends give long-double nodes and integrals
    seen = []

    def one(x, *_):
        seen.append(x.dtype)
        return np.ones_like(x)

    parts = specfun.power_panels(list(zip(lo, hi, ["edge"] + ["plain"] * 5,
                                          ["plain"] * 5 + ["edge"])), one, 1.0, (None, None), 4)
    assert seen == [parts.dtype] == [np.longdouble]
    assert np.allclose(parts.astype(float), span, rtol=1e-15)


def test_power_panels_call_the_integrand_once_a_pass():
    # 4000 panels of 54 nodes, 216,000 nodes in all: one call on every node,
    # mapped in long double from float ends, with each panel's rule
    seen = []

    def one(x, which, rules):
        seen.append((x.shape, x.dtype, list(which), [rule[0] for rule in rules]))
        return np.ones_like(x)

    ends = np.linspace(0.0, 1.0, 4001)
    parts = specfun.power_panels([(a, b, "edge", "edge") for a, b in zip(ends, ends[1:])],
                                 one, 1.0, (None, None), 54)
    (shape, dtype, which, nodes), = seen
    assert (shape, dtype, which) == ((4000, 54), np.longdouble, [0] * 4000)
    assert len(nodes) == 1 and np.array_equal(nodes[0], specfun.gauss_jacobi(54, 0.0, 0.0)[0])
    assert float(parts.sum()) == pytest.approx(1.0, rel=1e-15)


def _jacobi_moment(a, b, j, log):
    """int_{-1}^1 (1-t)^a (1+t)^b t^j [ln(1+t)] dt, from t^j = ((1+t) - 1)^j.

    Each term is 2^{a+s+1} B(a+1, s+1) at s = b + i, or with `log` its
    derivative in s; the digits the alternating sum cancels are carried by
    the working precision.
    """
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40 + 2 * j):
        a, b = mpmath.mpf(a), mpmath.mpf(b)
        return float(sum(
            mpmath.binomial(j, i) * (-1) ** (j - i) * 2 ** (a + b + i + 1)
            * mpmath.beta(a + 1, b + i + 1)
            * ((mpmath.log(2) + mpmath.digamma(b + i + 1)
                - mpmath.digamma(a + b + i + 2)) if log else 1)
            for i in range(j + 1)))


# end exponents of the Shannon panels: 2 at roots, l + 1/2 at the radial
# origin, m at the angular ends +-1, 0 at plain ends
@pytest.mark.parametrize("a,b", [(0.0, 0.0), (2.0, 0.0), (0.0, 2.5), (2.0, 2.0),
                                 (2.0, 1.5), (7.0, 2.0), (2.0, 59.0)])
def test_log_weights_integrate_log_moments_exactly(a, b):
    m = 20
    t, ln_w, lp, lm = specfun._jacobi_rules([(a, b)], (m,), True)[0][:4]
    w = np.exp(ln_w)
    lp, lm = w * lp, w * lm
    for j in range(m):
        want_p = _jacobi_moment(a, b, j, log=True)
        want_m = (-1) ** j * _jacobi_moment(b, a, j, log=True)  # t -> -t
        assert float(lp @ t ** j) == pytest.approx(want_p, rel=1e-13, abs=1e-14)
        assert float(lm @ t ** j) == pytest.approx(want_m, rel=1e-13, abs=1e-14)
    # the Christoffel weights keep the Gauss rule's degree 2m - 1
    for j in range(2 * m):
        assert float(w @ t ** j) == pytest.approx(
            _jacobi_moment(a, b, j, log=False), rel=1e-13, abs=1e-14)


@pytest.mark.parametrize("m,a,b", [(20, 2.0, 0.5), (48, 0.0, 0.0), (48, 2.0, 0.5),
                                   (48, 4.4, 1.3), (72, 2.0, 2.0), (108, 2.0, 0.5)])
def test_gauss_jacobi_integrates_moments_to_rounding(m, a, b):
    # (a+b+2+j) M_{j+1} = (b-a) M_j + j M_{j-1} for M_j = int weight t^j,
    # from integrating d/dt [(1-t)^(a+1) (1+t)^(b+1) t^j] over [-1, 1];
    # _jacobi_moment's binomial sums would take seconds at j near 200
    mpmath = pytest.importorskip("mpmath")
    t, ln_w = specfun.gauss_jacobi(m, a, b)
    w = np.exp(ln_w)
    with mpmath.workdps(40):
        a_, b_ = mpmath.mpf(a), mpmath.mpf(b)
        moments = [2 ** (a_ + b_ + 1) * mpmath.beta(a_ + 1, b_ + 1)]
        moments.append((b_ - a_) / (a_ + b_ + 2) * moments[0])
        for j in range(1, 2 * m - 1):
            moments.append(((b_ - a_) * moments[j] + j * moments[j - 1])
                           / (a_ + b_ + 2 + j))
    for j, want in enumerate(moments):
        assert float(w @ t ** j) == pytest.approx(
            float(want), rel=1e-15, abs=1e-15 * float(moments[0]))


@pytest.mark.parametrize("a,b", [(-0.5, -0.5), (0.3, 2.7), (100.0, 100.0),
                                 (250.0, 250.0), (600.0, 600.0), (700.0, 400.0)])
def test_gauss_jacobi_mass_matches_mpmath(a, b):
    # the radial origin weight p l + 1/2 and the angular m p reach these
    # exponents at large l, where a float Beta function was 1e-13 to 1e-12
    # off; at a + b = 1100, 2^(a+b+1) overflows a float and B underflows it
    mpmath = pytest.importorskip("mpmath")
    t, ln_w = specfun.gauss_jacobi(20, a, b)
    num, den = np.sum(np.exp(ln_w)).as_integer_ratio()
    with mpmath.workdps(40):
        a_, b_ = mpmath.mpf(a), mpmath.mpf(b)
        want = 2 ** (a_ + b_ + 1) * mpmath.beta(a_ + 1, b_ + 1)
        assert abs(float(mpmath.mpf(num) / den / want) - 1.0) <= 1e-15
    assert np.all(np.diff(t) > 0)


@pytest.mark.parametrize("m,a,b", [(8, 0.0, 17000.0), (32, 16.0, 48002.0)])
def test_gauss_jacobi_log_mass_past_the_long_double_range(m, a, b):
    # the masses are e^11774 and e^33132: the rule keeps them as logs
    mpmath = pytest.importorskip("mpmath")
    t, ln_w = specfun.gauss_jacobi(m, a, b)
    top = np.max(ln_w)
    got = float(top + np.log(np.sum(np.exp(ln_w - top))))
    with mpmath.workdps(40):
        want = float((a + b + 1) * mpmath.log(2) + mpmath.loggamma(a + 1)
                     + mpmath.loggamma(b + 1) - mpmath.loggamma(a + b + 2))
    assert abs(got / want - 1.0) <= 1e-14


@pytest.mark.parametrize("a", [2000.5, 12000.5, 24000.5])
def test_gauss_laguerre_log_weights_past_the_long_double_range(a):
    # at a = 2000.5 the weights reach e^13209 and their mass Gamma(a + 1) is
    # e^13210; the log weights integrate 1 and x to ln Gamma(a + 1) and
    # ln Gamma(a + 2).  Rows started at exp(-x/2) would leave the long-double
    # range near a = 11,000; under sqrt(w / mu0) they stay in it
    mpmath = pytest.importorskip("mpmath")
    x, ln_w = specfun.gauss_laguerre(40, a)
    assert np.all(np.isfinite(ln_w))
    for k in (0, 1):
        t = ln_w + k * np.log(x)
        top = np.max(t)
        got = float(top + np.log(np.sum(np.exp(t - top))))
        with mpmath.workdps(40):
            want = float(mpmath.loggamma(a + 1 + k))
        assert got == pytest.approx(want, rel=1e-14)


def test_gauss_chebyshev_log_weights_hold_next_to_the_singular_ends():
    # (1 - x^2)^(-1/2) has the closed rule x_j = cos((2j - 1) pi / 2m), w_j =
    # pi / m.  The outermost nodes sit 3e-7 from the ends, where ln w moves by
    # 1/(2 delta) per unit of x.  The log weights are taken at the starts the
    # rows ran on; at the rounded stepped nodes they were 6e-15 off here
    m = 2001
    x, ln_w = specfun.gauss_jacobi(m, -0.5, -0.5)
    pi = np.longdouble("3.14159265358979323846264338327950288")
    j = np.arange(m, 0, -1, dtype=np.longdouble)
    assert np.max(np.abs(x - np.cos((2 * j - 1) * pi / (2 * m)))) <= 1e-18
    assert np.max(np.abs(ln_w - np.log(pi / m))) <= 1e-15


def test_gauss_rule_rejects_starts_that_miss_a_root(monkeypatch):
    real = specfun._start

    def repeated(fam):
        x = real(fam)
        x[3] = x[2] * (1 + 1e-12)  # two starts drawn to one root
        return x

    monkeypatch.setattr(specfun, "_start", repeated)
    for m in (20, 100):  # the dense start and the phase start
        with pytest.raises(AccuracyError, match=f"not {m} distinct roots"):
            specfun._gauss_rules([specfun.jacobi_family(m, 2.0, 0.5)])
    # the roots of p_{m-1} repel the steps: starts there drift, never settle
    monkeypatch.setattr(specfun, "_start", lambda fam: np.append(
        real(fam._replace(diag=fam.diag[:-1], off=fam.off[:-1])), 1.0))
    with pytest.raises(AccuracyError, match="did not settle"):
        specfun._gauss_rules([specfun.jacobi_family(20, 2.0, 0.5)])


def _tridiagonal_start(fam):
    """The float64 eigenvalues of scipy's tridiagonal solver: the reference start."""
    from scipy.linalg import eigvalsh_tridiagonal
    return eigvalsh_tridiagonal(fam.diag.astype(float), fam.off[:-1].astype(float))


def _same_node(x, want):
    """Nodes bitwise, or within 1.5e-15 relative (a long-double eps next to 0)."""
    return np.abs(x - want) <= 1.5e-15 * np.abs(want) + np.finfo(np.longdouble).eps


@pytest.mark.parametrize("family,args", [
    *((specfun.laguerre_family, (a,)) for a in (0.5, 3.5, 20.5, 300.5, 2000.5)),
    *((specfun.jacobi_family, ab) for ab in ((0.0, 0.0), (-0.5, -0.5), (2.5, 0.0), (0.0, 2.5),
                                             (8.0, 8.0), (45.0, 70.0), (59.0, 59.0),
                                             (700.0, 400.0)))])
def test_dense_and_tridiagonal_starts_give_the_same_rules(monkeypatch, family, args):
    # the Newton pass leaves the float64 start's rounding below a long-double
    # ulp, so numpy's dense start and scipy's tridiagonal one agree bit for
    # bit; the phase start, which takes the tridiagonal solver's place above 64
    # nodes, gives every node within 1.5e-15 (most bitwise, the rest an ulp or
    # two off) and every log weight within 2e-15 down to 2 nodes
    dense = [specfun._gauss_rules([family(m, *args)])[0]
             for m in range(2, specfun._DENSE_START_MAX + 1)]
    monkeypatch.setattr(specfun, "_DENSE_START_MAX", 1)
    real = specfun._start
    for m, (x, ln_w) in enumerate(dense, start=2):
        x_phase, ln_w_phase = specfun._gauss_rules([family(m, *args)])[0]
        assert _same_node(x_phase, x).all() and np.abs(ln_w_phase - ln_w).max() <= 2e-15, m
        monkeypatch.setattr(specfun, "_start", _tridiagonal_start)
        x_tri, ln_w_tri = specfun._gauss_rules([family(m, *args)])[0]
        monkeypatch.setattr(specfun, "_start", real)
        assert np.array_equal(x, x_tri) and np.array_equal(ln_w, ln_w_tri), m


def _laguerre_root(mpmath, m, a, x):
    """The root of L_m^(a) next to the long double x, by 40-digit Newton steps."""
    def laguerre(n, alpha, t):  # L_n^(alpha)(t) by its three-term recurrence
        p0, p1 = mpmath.mpf(1), alpha + 1 - t
        for k in range(1, n):
            p0, p1 = p1, ((2 * k + alpha + 1 - t) * p1 - (k + alpha) * p0) / (k + 1)
        return p1

    with mpmath.workdps(40):
        t, a_ = _mpf(mpmath, x), mpmath.mpf(a)
        for _ in range(2):
            t -= laguerre(m, a_, t) / -laguerre(m - 1, a_ + 1, t)
        return t


@pytest.mark.parametrize("m", [65, 801, 3000])
@pytest.mark.parametrize("a", [0.5, 20.5, 300.5, 2000.5])
def test_phase_started_laguerre_rules_meet_the_tridiagonal_ones(monkeypatch, m, a):
    # every node against the rule from scipy's tridiagonal start: within
    # 1.5e-15, or else, among the smallest and largest ten, the phase-started
    # node is the nearer to the root (40 digits), and within 2.5e-15 of it.  The
    # tridiagonal start holds its eigenvalues to a float ulp of the largest,
    # 1e-11 relative at x = 8e-4, and leaves the rule's smallest node 4.3e-14
    # off at (3000, 0.5); the phase start, on the grid where x - diag[k] is
    # exact, 2.0e-15, the rounding of the long-double pass there
    mpmath = pytest.importorskip("mpmath")
    x, ln_w = specfun.gauss_laguerre.__wrapped__(m, a)
    monkeypatch.setattr(specfun, "_start", _tridiagonal_start)
    x_tri, ln_w_tri = specfun.gauss_laguerre.__wrapped__(m, a)
    off = np.flatnonzero(~_same_node(x, x_tri))
    assert np.isin(off, np.r_[:10, m - 10:m]).all(), off
    for j in off:
        root = _laguerre_root(mpmath, m, a, x[j])
        with mpmath.workdps(40):
            assert abs(_mpf(mpmath, x[j]) / root - 1) <= 2.5e-15, j
            assert abs(_mpf(mpmath, x[j]) - root) < abs(_mpf(mpmath, x_tri[j]) - root), j
    assert np.abs(ln_w - ln_w_tri).max() <= 6e-14


@pytest.mark.parametrize("m,a,b", [
    *((m, a, b) for m in (72, 108) for a, b in ((0.0, 0.0), (-0.5, -0.5), (2.5, 0.0),
                                                (0.0, 2.5), (8.0, 8.0), (2.0, 322.0),
                                                (45.0, 70.0), (8.0, 8000.5), (3000.5, 0.5))),
    (2530, 1470.0, 1470.0), (2900, 100.0, 100.0), (1201, 5880.0, 5880.0),
    (2001, 400.0, 400.0)])
def test_phase_started_jacobi_rules_meet_the_tridiagonal_ones(monkeypatch, m, a, b):
    # the sweep's pairs at 72 and 108 nodes, and the angular routes' exponents:
    # (m, m) for the Gegenbauer roots at (l, m) = (4000, 1470) and (3000, 100),
    # and (m p, m p) of an even-2p rule, up to m = 1470 at p = 4
    x, ln_w = specfun._gauss_rules([specfun.jacobi_family(m, a, b)])[0]
    monkeypatch.setattr(specfun, "_start", _tridiagonal_start)
    x_tri, ln_w_tri = specfun._gauss_rules([specfun.jacobi_family(m, a, b)])[0]
    assert _same_node(x, x_tri).all()
    assert np.abs(ln_w - ln_w_tri).max() <= 1e-15


# rules of the kinds the radial, angular and Bessel routes build: Laguerre up
# to m = 3000 and a = 2000.5, Jacobi up to m = 108 and exponents of 8000.5
SWEEP_LAGUERRE = ([(m, a) for m in (1, 2, 5, 24, 101, 401, 801)
                   for a in (0.5, 3.5, 20.5, 80.5)]
                  + [(13, 2000.5), (40, 2000.5), (1601, 12.5), (3000, 0.5)])
SWEEP_JACOBI = [(m, a, b) for m in (1, 2, 24, 36, 48, 54, 72, 108)
                for a, b in ((0.0, 0.0), (-0.5, -0.5), (2.5, 0.0), (0.0, 2.5),
                             (8.0, 8.0), (2.0, 322.0), (45.0, 70.0), (8.0, 8000.5),
                             (3000.5, 0.5))]


def test_every_sweep_rule_builds_in_one_pass(monkeypatch):
    # the float64 starts (eigenvalues up to 64 nodes, the phase start above)
    # are close enough that one Newton step settles
    # every node: one pass of the recurrence per rule
    passes = []
    real = specfun._rows

    def counting(*args):
        passes[-1] += 1
        return real(*args)

    monkeypatch.setattr(specfun, "_rows", counting)
    for m, a in SWEEP_LAGUERRE:
        passes.append(0)
        specfun.gauss_laguerre.__wrapped__(m, a)
    for m, a, b in SWEEP_JACOBI:
        passes.append(0)
        specfun._gauss_rules([specfun.jacobi_family(m, a, b)])
    assert passes == [1] * (len(SWEEP_LAGUERRE) + len(SWEEP_JACOBI))


def test_gauss_rule_takes_a_second_pass_from_a_start_off_the_root(monkeypatch):
    # 6e-9 off the smallest root x_0 = 0.0245 of (100, 0.5): the step s is
    # within the tolerance's square root, but Newton's next step
    # |P'/(2P)| s^2 = s^2 / (2 x_0) is not, so a second pass follows
    want_x, want_w = specfun.gauss_laguerre(100, 0.5)
    real_start, real_rows = specfun._start, specfun._rows
    passes = []

    def counting(*args):
        passes.append(1)
        return real_rows(*args)

    monkeypatch.setattr(specfun, "_start", lambda fam: real_start(fam) + np.append(
        6e-9, np.zeros(len(fam.diag) - 1)))
    monkeypatch.setattr(specfun, "_rows", counting)
    x, ln_w = specfun.gauss_laguerre.__wrapped__(100, 0.5)
    # one pass would leave x_0 3e-14 and ln w_0 7e-14 off
    assert len(passes) == 2
    assert np.max(np.abs(x / want_x - 1)) <= 1e-15
    assert np.max(np.abs(ln_w - want_w)) <= 1e-15


def _mpf(mpmath, v):
    """A long double as an exact mpmath number."""
    num, den = v.as_integer_ratio()
    return mpmath.mpf(num) / den


@pytest.mark.parametrize("m,a", [(801, 0.5), (801, 2.5)])
def test_gauss_laguerre_matches_mpmath(m, a):
    # the 12 smallest nodes, where the weights' K correction is largest, and
    # every 32nd.  Reference: roots of L_m^(a) by one 30-digit Newton step
    # from the rule's node, w = Gamma(m + a + 1) / (m! x L_m'(x)^2).  From
    # starts on the grid where x - diag[k] is exact the nodes reach 2.1e-16
    # and ln w 2.7e-16; from scipy's tridiagonal eigenvalues they reached
    # 1.1e-15 and 1.8e-15
    mpmath = pytest.importorskip("mpmath")
    x, ln_w = specfun.gauss_laguerre(m, a)

    def laguerre(n, alpha, t):  # L_n^(alpha)(t) by its three-term recurrence
        p0, p1 = mpmath.mpf(1), alpha + 1 - t
        for k in range(1, n):
            p0, p1 = p1, ((2 * k + alpha + 1 - t) * p1 - (k + alpha) * p0) / (k + 1)
        return p1

    with mpmath.workdps(30):
        a_ = mpmath.mpf(a)
        ln_c = mpmath.loggamma(m + a_ + 1) - mpmath.loggamma(m + 1)
        for j in sorted(set(range(12)) | set(range(0, m, 32))):
            t = _mpf(mpmath, x[j])
            t -= laguerre(m, a_, t) / -laguerre(m - 1, a_ + 1, t)
            want = ln_c - mpmath.log(t) - 2 * mpmath.log(abs(laguerre(m - 1, a_ + 1, t)))
            assert abs(_mpf(mpmath, x[j]) / t - 1) <= 5e-16
            assert abs(_mpf(mpmath, ln_w[j]) - want) <= 5e-16


@pytest.mark.parametrize("m,a,b", [(1, 0.0, 2.5), (24, 0.0, 2.5), (72, 0.5, 8.0),
                                   (108, 7.3, 300.5)])
def test_gauss_jacobi_matches_mpmath(m, a, b):
    # every node and log weight; the one-node rule is the only one whose
    # Newton step rests on B_1 of the structure relation.  Reference: roots
    # of P_m^(a,b) by 40-digit Newton steps from the rule's node and
    # w = 2^(a+b+1) Gamma(m+a+1) Gamma(m+b+1) / (Gamma(m+a+b+1) m!
    # (1 - x^2) P_m'(x)^2), P_m' = (m + a + b + 1)/2 P_(m-1)^(a+1,b+1)
    mpmath = pytest.importorskip("mpmath")
    t, ln_w = specfun.gauss_jacobi(m, a, b)
    with mpmath.workdps(40):
        a_, b_ = mpmath.mpf(a), mpmath.mpf(b)
        ln_c = ((a_ + b_ + 1) * mpmath.log(2) + mpmath.loggamma(m + a_ + 1)
                + mpmath.loggamma(m + b_ + 1) - mpmath.loggamma(m + a_ + b_ + 1)
                - mpmath.loggamma(m + 1))

        def deriv(x):
            return (m + a_ + b_ + 1) / 2 * mpmath.jacobi(m - 1, a_ + 1, b_ + 1, x)

        for j in range(m):
            x = _mpf(mpmath, t[j])
            for _ in range(2):
                x -= mpmath.jacobi(m, a_, b_, x) / deriv(x)
            want = ln_c - mpmath.log(1 - x * x) - 2 * mpmath.log(abs(deriv(x)))
            assert abs(_mpf(mpmath, t[j]) - x) <= 1e-19
            assert abs(_mpf(mpmath, ln_w[j]) - want) <= 3e-16


def test_power_panels_map_the_log_rule_to_digamma_closed_forms():
    # integral_lo^hi (x-lo)^(a+j) (hi-x)^b ln(x-lo) dx
    #   = H^(a+b+j+1) B(a+j+1, b+1) [ln H + psi(a+j+1) - psi(a+b+j+2)],
    # and psi(b+1) in place of psi(a+j+1) for ln(hi-x); j goes into the
    # edge exponent, because a pointwise 2 ln|poly| would not be exact
    lo = np.array([0.0, 1.0, -1.0, -1.0, 0.3, 2.0], dtype=np.longdouble)
    hi = np.array([2.0, 4.0, 0.5, -0.2, 0.9, 2.5])
    lo_exp = np.array([0.5, 2.0, 4.0, 0.0, 6.0, 2.0])
    hi_exp = np.array([2.0, 0.0, 4.0, 6.0, 0.0, 2.0])
    j = np.array([0, 3, 1, 2, 4, 0])

    def panels(log_coefs):  # (integrals, log-weighted integrals) per panel
        out = [specfun.power_panels([(a, b, "edge", "edge")],
                                    lambda x, *_: np.ones_like(x), 1.0,
                                    ((a, ea + k), (b, eb)), 12, log_coefs)
               for a, b, ea, eb, k in zip(lo, hi, lo_exp, hi_exp, j)]
        assert all(v.dtype == np.longdouble for pair in out for v in pair)
        return np.array(out, dtype=float)[:, :, 0].T

    parts, logs_lo = panels((1.0, 0.0))
    logs_hi = panels((0.0, 1.0))[1]
    span = hi - lo.astype(float)
    beta = span ** (lo_exp + hi_exp + j + 1) * sp.beta(lo_exp + j + 1, hi_exp + 1)
    tail = sp.digamma(lo_exp + hi_exp + j + 2)
    assert np.allclose(parts, beta, rtol=1e-14)
    want_lo = beta * (np.log(span) + sp.digamma(lo_exp + j + 1) - tail)
    want_hi = beta * (np.log(span) + sp.digamma(hi_exp + 1) - tail)
    assert np.allclose(logs_lo, want_lo, rtol=1e-13, atol=1e-15)
    assert np.allclose(logs_hi, want_hi, rtol=1e-13, atol=1e-15)


@pytest.mark.parametrize("q2,a", [(1.3, 0.5), (4.4, 3.3), (2.0, 0.0), (2.0, 1.7)])
def test_power_panels_match_beta_closed_forms(q2, a):
    # poly = x on [-1, 1] with its root at 0 and a plain split at 0.5, so
    # that every end kind appears: int |x|^q2 (1-x^2)^a = B((q2+1)/2, a+1),
    # half of it on each side of the root
    lo = np.array([-1.0, 0.0, 0.5], dtype=np.longdouble)
    hi = np.array([0.0, 0.5, 1.0], dtype=np.longdouble)
    args = (list(zip(lo, hi, ["edge", "root", "plain"], ["root", "plain", "edge"])),
            lambda x, *_: x, q2, ((-1.0, a), (1.0, a)), 48)
    parts = specfun.power_panels(*args)
    assert parts.dtype == np.longdouble and parts.shape == (3,)
    want = sp.beta((q2 + 1) / 2, a + 1)
    assert float(parts[0]) == pytest.approx(want / 2, rel=1e-15)
    assert float(parts[1] + parts[2]) == pytest.approx(want / 2, rel=1e-15)
    if q2 == 2.0:
        # times 2 ln|x| + a ln(1+x) + a ln(1-x)
        parts, logs = specfun.power_panels(*args, log_coefs=(a, a))
        assert logs.dtype == np.longdouble and logs.shape == (3,)
        want = sp.beta(1.5, a + 1) * (sp.digamma(1.5) + a * sp.digamma(a + 1)
                                      - (1 + a) * sp.digamma(a + 2.5))
        assert float(logs[0]) == pytest.approx(want / 2, rel=1e-15)
        assert float(logs[1] + logs[2]) == pytest.approx(want / 2, rel=1e-15)


def test_rows_that_underflow_on_the_mass_raise_in_both_sums():
    # a row that is 0 past x = 1/2: at q2 = 2 a node there would hold at most
    # tiny^2 of its weight, and the sum is the half the other nodes hold; at
    # q2 = 1e-3 the bound tiny^q2 = 1.2e-5 of a weight is far above a float
    # ulp of the sum, and the mass there is lost to every node count alike
    panels, edges = [(0.0, 1.0, "edge", "edge")], ((0.0, 0.0), (1.0, 0.0))
    step = lambda x, *_: np.where(x < 0.5, 1.0, 0.0).astype(np.longdouble)  # noqa: E731
    assert float(specfun.power_panels(panels, step, 2.0, edges, 24).sum()) == \
        pytest.approx(0.5, rel=1e-15)
    with pytest.raises(AccuracyError, match="rows underflow where the integrand"):
        specfun.power_panels(panels, step, 1e-3, edges, 24)
    # a sum that is 0 stays for settled to reject as not positive
    zero = specfun.power_panels(panels, lambda x, *_: 0 * x, 1e-3, edges, 24)
    assert not zero.any()
    # the rule sum: e^(-x/2) underflows long double at x = 30000, harmless
    # against a weight of 1 and not against one of e^30000
    rows, x = specfun.panel_rows(specfun.laguerre_family(1, 0.5), None, -0.5), \
        np.longdouble([1.0, 30000.0])
    assert specfun._rule_sum(rows, x, np.longdouble([0.0, 0.0]), 2, "x") == \
        2 * np.log(np.abs(rows(x[:1])[0]))
    with pytest.raises(AccuracyError, match="x: rows underflow where the integrand"):
        specfun._rule_sum(rows, x, np.longdouble([0.0, 30000.0]), 2, "x")


def test_settled_escalates_once_then_raises():
    calls = []

    def converging(m):  # panel integrals 1 and 10^(-m/6): 1e-4, 1e-6, 1e-9
        calls.append(m)
        return np.array([1.0, 10.0 ** (-m / 6)])

    assert specfun.settled(converging, 1e-5, "x") == (1.0 + 1e-9, True)
    assert calls == [24, 36, 54]
    assert specfun.settled(converging, 1e-3, "x") == (1.0 + 1e-6, False)
    with pytest.raises(AccuracyError, match="wandering did not settle"):
        specfun.settled(lambda m: np.array([float(m)]), 1e-12, "wandering")
    # a NaN never counts as settled
    with pytest.raises(AccuracyError):
        specfun.settled(lambda m: np.array([math.nan]), 1e-12, "nan")
    # a Renyi sum that agrees with itself must still be positive and finite
    for bad in (0.0, -1.0, math.inf):
        with pytest.raises(AccuracyError, match="zero: panel sum .* not positive"):
            specfun.settled(lambda m: np.array([bad, 0.0]), 1e-12, "zero")
    # a density that integrates to 1 + 5e-10 raises, whatever its log sum does
    with pytest.raises(AccuracyError, match="lost: the density integrates to"):
        specfun.settled(lambda m: (np.array([0.25, 0.25 + 2.5e-10]), np.array([3.0])),
                        1e-11, "lost", density=2.0)
    assert specfun.settled(lambda m: (np.array([0.25, 0.25]), np.array([3.0, -4.0])),
                           1e-11, "kept", density=2.0) == (-1.0, False)


# ---------------------------------------------------------------------------
# the panel planner shared by the radial head and the angular edges


def radial_head_plan(n, l, p):
    """plan_panels on the ends radial._radial_pass gives it (n >= 1)."""
    rts = [float(r) for r in specfun.gauss_laguerre(n, l + 0.5)[0]]
    return ([0.0] + rts, ["edge"] + ["root"] * n, ((0.0, p * l + 0.5), None),
            2.0 * p, p)


def angular_plan(l, m, p):
    """plan_panels on the ends angular._angular_pass gives it."""
    ends = np.concatenate(([-1.0], specfun.gegenbauer_roots(l - m, m + 0.5), [1.0]))
    return (ends, ["edge"] + ["root"] * (l - m) + ["edge"],
            ((-1.0, m * p), (1.0, m * p)), 2.0 * p, 0.0)


PLANS = [radial_head_plan(100, 20, 12.0), radial_head_plan(400, 100, 1.0),
         radial_head_plan(5, 0, 0.02), angular_plan(100, 50, 8.0),
         angular_plan(600, 300, 1.0), angular_plan(30, 0, 2.5),
         angular_plan(5, 5, 2.0)]


def kept_ends(out, ends, kinds):
    """The ends and kinds of the panels the slices cover: the first and last
    end, or the start and end of the kept piece of an edge panel past a
    dropped one, whose outer end is "plain"."""
    ends, kinds = list(ends), list(kinds)
    for i, j, s in ((0, 1, out[0][:3:2]), (-1, -2, out[-1][1::2])):
        if s[1] == "plain" and kinds[i] == "edge":
            assert min(ends[i], ends[j]) < s[0] < max(ends[i], ends[j])
            ends[i], kinds[i] = s
    return ends, kinds


@pytest.mark.parametrize("plan", PLANS)
def test_planned_slices_cover_each_panel_with_its_end_kinds(plan):
    out = specfun.plan_panels(*plan, "test")
    ends, kinds = kept_ends(out, *plan[:2])
    # the first slice starts at the head start, the last ends at the last end
    assert out[0][0] == ends[0] and out[-1][1] == ends[-1]
    assert all(prev[1] == nxt[0] for prev, nxt in zip(out, out[1:]))
    for a, b, ak, bk, edged in zip(ends[:-1], ends[1:], kinds[:-1], kinds[1:],
                                   ["edge" in pair for pair in zip(plan[1], plan[1][1:])]):
        cut = [s for s in out if a <= s[0] and s[1] <= b]
        assert cut[0][0] == a and cut[-1][1] == b
        assert cut[0][2] == ak and cut[-1][3] == bk
        assert all(s[3] == "plain" for s in cut[:-1])
        assert all(s[2] == "plain" for s in cut[1:])
        if not edged:
            assert cut == [(a, b, ak, bk)]  # root gaps stay whole
    # the slices keep the precision of the ends
    assert all(np.asarray(s[0]).dtype == np.asarray(ends).dtype for s in out)


def slice_spread(a, b, plan):
    """The log-variation of the factors no end weight of [a, b] holds, and
    its distance from the nearest root off its ends, written out apart from
    plan_panels."""
    ends, kinds, edges, q2, rate = plan
    roots = [r for r, k in zip(ends, kinds) if k == "root"]
    left = [r for r in roots if r < a][-1:]
    right = [r for r in roots if r > b][:1]
    v = rate * (b - a)
    if edges[0] is not None and a != edges[0][0]:
        v += edges[0][1] * math.log((b - edges[0][0]) / (a - edges[0][0]))
    if edges[1] is not None and b != edges[1][0]:
        v += edges[1][1] * math.log((edges[1][0] - a) / (edges[1][0] - b))
    v += sum(q2 * math.log((b - r) / (a - r)) for r in left)
    v += sum(q2 * math.log((r - a) / (r - b)) for r in right)
    return v, min([a - r for r in left] + [r - b for r in right], default=math.inf)


def log_f(x, plan):
    """ln f and (ln f)' of the planner's integrand, e^(-rate x) times each
    edge power and |x - r|^q2 at every root, written out apart from plan_panels."""
    ends, kinds, edges, q2, rate = plan
    at = [(float(r), q2) for r, k in zip(ends, kinds) if k == "root"]
    at += [(float(a), e) for a, e in filter(None, edges)]
    x = float(x)
    return (sum(e * math.log(abs(x - a)) for a, e in at) - rate * x,
            sum(e / (x - a) for a, e in at) - rate)


@pytest.mark.parametrize("plan", PLANS)
def test_every_slice_is_within_the_cap_or_at_a_floor(plan):
    # but the outer slice of an edge panel that the planner closed unsliced:
    # its inner end bounds the mass on its edge side, f / |(ln f)'|, below
    # 1e-25 of the least mass the plain-ended slices hold
    out = specfun.plan_panels(*plan, "test")
    ends, kinds = plan[:2]
    log_mass = np.logaddexp.reduce([math.log(b - a) + min(log_f(a, plan)[0], log_f(b, plan)[0])
                                    for a, b, ak, bk in out if ak == bk == "plain"])
    for lo, hi, lk, hk in zip(ends[:-1], ends[1:], kinds[:-1], kinds[1:]):
        if "edge" not in (lk, hk):
            continue
        cut = [s for s in out if lo <= s[0] and s[1] <= hi]
        for a, b, _, _ in cut:
            v, d = slice_spread(a, b, plan)
            if ((v <= specfun._LOG_VARIATION_CAP and b - a <= specfun._ROOT_REACH * d)
                    or b - a < 1e-12 * (1.0 + abs(b)) or b - a <= (hi - lo) * 2.0 ** -48):
                continue
            inner = b if (a, b) == cut[0][:2] and lk == "edge" else a
            assert (a, b) in (cut[0][:2], cut[-1][:2]) and inner not in (lo, hi)
            lf, slope = log_f(inner, plan)
            assert lf - math.log(abs(slope)) < log_mass + math.log(1e-25)


def test_slice_budget_raises_with_the_name_it_is_given(monkeypatch):
    monkeypatch.setattr(specfun, "_SLICE_BUDGET", 3)
    with pytest.raises(AccuracyError, match="the head of x needs more than 3 slices"):
        specfun.plan_panels(*radial_head_plan(100, 20, 12.0), "the head of x")


def test_panel_ends_are_not_their_own_nearest_roots():
    # the ends are long double; a root compared in float sits a rounding
    # away from its own end, counted as the nearest root of its own panel,
    # and cut (4, 0, 2.5) into 79 panels where 5 hold
    assert len(specfun.plan_panels(*angular_plan(4, 0, 2.5), "test")) == 5
    assert len(angular._angular_pass(angular.AngularState(4, 0), 2.5, "test")(24)) == 5


# float.hex of each part's even-2p rule, panel and Shannon routes, taken before
# both parts shared specfun._panel_pass and specfun._rule_sum: a refactor of
# that core, or of the routes over it, shows here as drift in any bit
PINNED_NORMS = [((50, 1, 2.0), "gauss_laguerre", "-0x1.eead431b13f28p+1"),
                ((10, 0, 4.0), "gauss_laguerre", "-0x1.24c4d018345a0p-1"),
                ((40, 20, 1.3), "quadrature", "-0x1.02bddfbc2cb83p+1"),
                ((100, 0, 0.5), "quadrature", "0x1.0a5746d17c9f0p+2"),
                ((10, 0, 5.0), "gauss_laguerre", "0x1.1533648911f0cp-1")]
PINNED_ANGULAR = [((8, 1, 2.0), "gauss_jacobi", "0x1.c8351857dc75dp+0"),
                  ((60, 5, 4.0), "gauss_jacobi", "0x1.73a5e49c99e19p-1"),
                  ((60, 5, 2.5), "quadrature", "0x1.4b5d77cd12a10p+0"),
                  ((20, 3, 0.7), "quadrature", "0x1.15c15ee73a1f3p+1")]
PINNED_SHANNON = [(radial, (10, 3), "0x1.10cf9113b953ep+2"),
                  (radial, (50, 0), "0x1.8ced876826a56p+2"),
                  (angular, (60, 5), "0x1.02eb96bd4ca5bp+1"),
                  (angular, (8, 1), "0x1.0996bc4c597c3p+1")]


def test_both_parts_keep_their_values_bitwise():
    for (n, l, p), path, want in PINNED_NORMS:
        got = radial.laguerre_norm(n, l, p)
        assert (got.path, got.log_value.hex()) == (path, want), (n, l, p)
    for (l, m, p), method, want in PINNED_ANGULAR:
        got = angular.renyi_angular(angular.AngularState(l, m), p)
        assert (got.method, got.renyi.hex()) == (method, want), (l, m, p)
    for part, (a, b), want in PINNED_SHANNON:
        got = (radial.shannon_radial_exact(radial.QuantumState(a, b)) if part is radial
               else angular.shannon_angular(angular.AngularState(a, b)))
        assert got.hex() == want, (part.__name__, a, b)


def test_rule_caches_stay_within_their_bound(monkeypatch):
    # distinct orders past the bound evict the oldest entries instead of
    # growing memory, and a rule built again after its eviction is bitwise
    # the cold one; the Gauss-Jacobi rules live in one store (_JACOBI_RULES)
    caches = [specfun.gauss_laguerre, specfun._laguerre_cached,
              rydberg.bessel_zeros, rydberg.bessel_constant, radial._laguerre_norm,
              radial._shannon_log_integral, angular._renyi_angular, angular._shannon_angular]
    assert all(f.cache_parameters()["maxsize"] == specfun._RULE_CACHE for f in caches)
    monkeypatch.setattr(specfun, "_JACOBI_RULES", {})
    cold = specfun.gauss_jacobi(6, 0.25, 1.5)
    for k in range(specfun._RULE_CACHE + 100):
        specfun.gauss_jacobi(6, 0.25, 2.0 + k / 8)
    assert len(specfun._JACOBI_RULES) == specfun._RULE_CACHE
    again = specfun.gauss_jacobi(6, 0.25, 1.5)
    assert again[0] is not cold[0]
    for a, b in zip(cold, again):
        assert a.dtype == b.dtype and np.array_equal(a, b)


# the panel engine's rule store, batched builds and series contraction

BATCH_PAIRS = [(0.0, 0.0), (4.4, 4.4), (4.4, 0.0), (0.0, 4.4), (0.0, 2.7),
               (0.0, 12.5), (12.5, 0.0), (5.0, 12.5), (12.5, 5.0)]


@pytest.mark.parametrize("m", [24, 36, 54])
def test_batched_rules_are_bitwise_their_single_builds(monkeypatch, m):
    # the pairs power_panels meets at 2p = 4.4 and pl + 1/2 = 2.7 (radial)
    # and at mp = 12.5, 2p = 5 (angular edges), built in one batch, with the
    # log-term weights, at m nodes with 1.5 m as power_panels builds them:
    # each rule in the store bit for bit its family's built alone, and its log
    # weights those of _log_weights on its nodes alone
    monkeypatch.setattr(specfun, "_JACOBI_RULES", {})
    sizes = (m, m * 3 // 2)
    specfun._jacobi_rules(BATCH_PAIRS, sizes, True)
    for n in sizes:
        for a, b in BATCH_PAIRS:
            (t, ln_w), = specfun._gauss_rules([specfun.jacobi_family(n, a, b)])
            (lp, lm), = specfun._log_weights((n,), np.array([a]), np.array([b]), t[:, None])
            rule = specfun._JACOBI_RULES[(n, a, b)][:4]
            assert all(x.dtype == y.dtype and np.array_equal(x, y)
                       for x, y in zip(rule, (t, ln_w, lp[:, 0], lm[:, 0])))
    assert len(specfun._JACOBI_RULES) == len(sizes) * len(BATCH_PAIRS)


def test_jacobi_rule_store_stays_within_its_bound(monkeypatch):
    monkeypatch.setattr(specfun, "_JACOBI_RULES", {})
    monkeypatch.setattr(specfun, "_RULE_CACHE", 8)
    for k in range(6):
        specfun._jacobi_rules([(2.0 + k / 8, 0.0), (0.0, 2.0 + k / 8)], (24, 36))
    # each call builds its pairs at 24 and 36 nodes; the oldest went first
    assert len(specfun._JACOBI_RULES) == 8
    assert (36, 0.0, 2.625) in specfun._JACOBI_RULES
    assert (24, 2.0, 0.0) not in specfun._JACOBI_RULES


def series_pass(part, a, b, p):
    """The family, the panel list and the gauge (tau, ln_scale, s) of a part's
    pass: radial (n, l) = (a, b), angular (l, m) = (a, b)."""
    if part == "radial":
        return (specfun.laguerre_family(a, b + 0.5), radial._radial_pass(a, b, p).args[0],
                -0.5, 0.0, (2 * b + 3) // 4)
    return (specfun.jacobi_family(a - b, b, b),
            angular._angular_pass(angular.AngularState(a, b), p, "test").args[0],
            0.0, angular._LN_2PI, 0)


def series_pieces(fam, panels, tau, ln_scale, s):
    """_pieces on the panel list as panel_rows takes it: d, lost, the first piece
    of each panel, the pieces' centres c and their coefficients v, (pieces, terms)."""
    lo, hi = (np.array(col, dtype=np.longdouble) for col in list(zip(*panels))[:2])
    gauge = np.where([lk == hk == "root" for *_, lk, hk in panels], s, 0)
    d, lost, owner, c, v = specfun._pieces(fam, lo, hi, gauge, tau, ln_scale)
    return d, lost, np.searchsorted(owner, np.arange(len(panels))), c[:, 0], v[..., 0]


def touches_an_end(panels):
    """Whether each panel has an end where P is 0, an "edge" end: x = 0, t = -1 or 1."""
    return np.array(["edge" in pan[2:] for pan in panels])


# whole lists: every root gap, the head or edge slices and the tail; the radial
# slice at x = 0 whole and in two pieces, (400, 20, 8), and lost to the
# recurrence from l = 60 on, (100, 300, 0.7); the angular edge slices at -1 and
# 1, and none left at (1000, 900, 0.7), where the planner drops both edges.
# The radial ids name (n, l)
CONTRACTION_CASES = [
    *(pytest.param(("radial", n, l, p), id=f"{n}-{l}")
      for n, l, p in ((40, 0, 0.7), (100, 1, 2.5), (400, 0, 1.3), (1500, 1, 0.7),
                      (100, 300, 0.7))),
    pytest.param(("radial", 400, 20, 8.0), id="400-20-p8"),
    *(pytest.param(("angular", l, m, p), id=f"angular-{l}-{m}")
      for l, m, p in ((100, 0, 0.7), (100, 3, 0.7), (300, 0, 2.5), (1000, 900, 0.7)))]


@pytest.mark.parametrize("case", CONTRACTION_CASES)
@pytest.mark.parametrize("m", [24, 36])
def test_series_contraction_matches_horner(case, m):
    # power_panels' integrand at its rules' nodes: each piece's series by one
    # product with the rule's node powers, against Horner's rule on the same
    # coefficients at the node's place on its piece, u = 2^d (1 + t) - 2j - 1
    # for the rule's node t on piece j of 2^d, times the gauge; the end slices'
    # series re-expanded about their centres among them.  Measured within
    # 7.2e-19 of each panel's largest |row|
    fam, panels, tau, ln_scale, s = series_pass(*case)
    d, lost, first, c, v = series_pieces(fam, panels, tau, ln_scale, s)
    ends = touches_an_end(panels)
    assert lost[ends].all() if case[2] >= 60 and case[0] == "radial" else not lost.any()
    assert ends.any() == (case[2:] != (900, 0.7))
    x, got = rows_at_rule_nodes(specfun.panel_rows(fam, panels, tau, ln_scale, s), panels, m)
    scale = 2.0 ** d[:, None]
    t = specfun.gauss_jacobi(m, 2.0, 2.0)[0]
    j = np.clip(np.floor((1 + t) * scale / 2), 0, scale - 1)
    at = first[:, None] + j.astype(int)
    want = specfun._horner(np.moveaxis(v[at], -1, 0), (1 + t) * scale - 2 * j - 1)
    gauge = np.array([lk == hk == "root" for *_, lk, hk in panels])[:, None]
    want = np.where(gauge, want * (fam.identities(c[at])[0][0] / fam.identities(x)[0][0]) ** s,
                    want)
    on = ~lost
    assert np.max(np.abs(got - want)[on] / np.max(np.abs(want[on]), axis=1, keepdims=True)) <= 1e-18


@pytest.mark.parametrize("case", [*(("radial", n, l, p) for n in (40, 100, 400)
                                    for l in (0, 1, 20, 60, 300) for p in (0.5, 1.3, 8.0)),
                                  *(("angular", l, m, p) for l, m in ((100, 0), (100, 5),
                                                                      (300, 0), (1000, 3))
                                    for p in (0.5, 2.5, 8.0))])
def test_end_pieces_keep_their_end_series_about_their_centres(case):
    # the series of a piece with an end where P is 0, as _series takes it
    # about that end, against the same piece in _pieces, re-expanded about its
    # centre after the cut (_end_to_centre), at 201 points across the piece,
    # u = (x - lo) / (hi - lo): measured within 1.9e-19 of the piece's largest
    # |row|.  The head slice at x = 0 is dropped at large p l, and lost to the
    # recurrence from l = 60 on; the angular edge slices all keep their series
    fam, panels, tau, ln_scale, s = series_pass(*case)
    panels = [pan for pan, end in zip(panels, touches_an_end(panels)) if end]
    if not panels:
        assert case[0] == "radial" and case[2] * case[3] >= 20
        return
    d, lost, first, c, w = series_pieces(fam, panels, tau, ln_scale, s)
    assert not lost.any() or case[0] == "radial" and case[2] >= 60
    for (lo_p, hi_p, lk, _), d_i, lost_i, k in zip(panels, d, lost, first):
        if lost_i:
            continue
        width = np.longdouble(hi_p) - np.longdouble(lo_p)
        at_lo = lk == "edge"
        j = 0 if at_lo else 2 ** d_i - 1
        lo, hi = (np.longdouble(lo_p) + width * (j + e) / 2.0 ** d_i for e in (0, 1))
        end, v = specfun._series(fam, np.array([[lo]]), np.array([[hi]]), 0, tau, ln_scale)
        assert end[0, 0] == (lo if at_lo else hi) and c[k + j] == (lo + hi) / 2
        u = np.linspace(0, 1, 201, dtype=np.longdouble)
        want = specfun._horner(v[:, 0, 0], u if at_lo else u - 1)
        got = specfun._horner(w[k + j], 2 * u - 1)
        assert np.max(np.abs(got - want)) <= 1e-18 * np.max(np.abs(want))
