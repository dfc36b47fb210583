"""Unit checks for the exact-arithmetic special function layer."""

import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.special as sp
from hypothesis import given, settings, strategies as hst

from oscent import angular, radial, rydberg, specfun
from oscent.errors import AccuracyError, DomainError


def test_digamma_matches_scipy():
    for x in (0.5, 1.0, 3.25, 19.0, 250.5):
        assert specfun.digamma(x) == pytest.approx(sp.digamma(x), rel=1e-13)


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


def test_pochhammer_and_binomial():
    assert specfun.pochhammer(Fraction(1, 2), 3) == Fraction(15, 8)
    assert specfun.pochhammer(5, 0) == 1
    assert specfun.binomial_exact(Fraction(7, 2), 2) == Fraction(35, 8)
    assert specfun.binomial_exact(6, 3) == 20


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
    shares no arithmetic with the convolution in ``specfun.poly_power``.
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
    # the generating polynomial _ctilde0 raises to 2p, at the exact routes' limits
    seen = []
    conv = specfun.poly_power

    def spy(poly, q):
        seen.append((poly, q))
        return conv(poly, q)

    monkeypatch.setattr(specfun, "poly_power", spy)
    m = 1
    angular._ctilde0.__wrapped__(angular.MAX_DEGREE + m, m, angular.MAX_TWO_P)
    [(upoly, q)] = seen
    assert (len(upoly) - 1, q) == (angular.MAX_DEGREE, angular.MAX_TWO_P)
    assert conv(upoly, q) == _poly_power_bell(upoly, q)


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


@pytest.mark.parametrize("n,a,b", [(0, 0.5, 0.5), (2, 1.5, 0.5),
                                   (4, 2.5, 2.5), (5, 3.5, 1.5)])
def test_jacobi_poly_matches_scipy(n, a, b):
    poly = specfun.jacobi_poly(n, Fraction(a), Fraction(b))
    for t in (-0.9, -0.3, 0.0, 0.4, 0.85):
        assert float(specfun._horner(poly, Fraction(t).limit_denominator(10 ** 9))) == \
            pytest.approx(sp.eval_jacobi(n, a, b, t), rel=1e-12, abs=1e-12)


def test_orthonormal_jacobi_norm_square():
    nodes, ln_w = specfun.gauss_jacobi(40, 2.0, 2.0)
    weights = np.exp(ln_w)
    for n in (0, 1, 3, 5):
        base, norm_square = specfun.orthonormal_jacobi(n, 2, 2)
        vals = np.array([float(specfun._horner(
            base, Fraction(float(t)).limit_denominator(10 ** 12))) for t in nodes])
        assert weights @ vals ** 2 == \
            pytest.approx(float(norm_square), rel=1e-12)


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
    # the series start values of _panel_series at the panel centres x, h = 1:
    # the last row under e^(-x/2), (-1)^n psi, and its derivative from the
    # last two rows and the structure relation
    mpmath = pytest.importorskip("mpmath")
    x = [0.25, 2.0, 15.0, 90.0]
    panels = [(xi - 1, xi + 1, "plain", "plain") for xi in x]
    v = specfun._panel_series(specfun.laguerre_family(n, alpha), panels, -0.5)[3]
    psi, dpsi = (-1) ** n * v[0, :, 0], (-1) ** n * v[1, :, 0]
    with mpmath.workdps(40):
        norm = mpmath.sqrt(mpmath.gamma(n + alpha + 1) / mpmath.factorial(n))

        def f(t):
            return mpmath.laguerre(n, alpha, t) * mpmath.exp(-t / 2) / norm

        for xi, got, dgot in zip(x, psi, dpsi):
            want, dwant = f(xi), mpmath.diff(f, xi)
            scale = max(abs(want), abs(dwant))
            assert abs(float(got) - want) <= 1e-15 * scale
            assert abs(float(dgot) - dwant) <= 1e-15 * scale


def test_log_weighted_panels_skip_nodes_where_the_power_underflows():
    # nodes where |poly| is 0 add 0 to both integrals, with no 0 * (-inf)
    # warning (the suite turns warnings into errors).  The ends are "edge"
    # ends of no edge, weight 1: an outer "plain" end marks a dropped piece
    parts, logs = specfun.power_panels(
        [(0.0, 1.0, "edge", "edge")], lambda x: np.where(x > 0.5, x, 0.0),
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
                                lambda x, a=a, k=k: (x - a) ** k, 1.0,
                                ((a, ea), (b, eb)), 12)[0]
           for a, b, ea, eb, k in zip(lo, hi, lo_exp, hi_exp, j)]
    span = hi - lo
    want = span ** (lo_exp + hi_exp + j + 1) * sp.beta(lo_exp + j + 1, hi_exp + 1)
    assert np.allclose(got, want, rtol=1e-13, atol=0)
    # float ends give long-double nodes and integrals
    seen = []

    def one(x):
        seen.append(x.dtype)
        return np.ones_like(x)

    parts = specfun.power_panels(list(zip(lo, hi, ["edge"] + ["plain"] * 5,
                                          ["plain"] * 5 + ["edge"])), one, 1.0, (None, None), 4)
    assert seen == [parts.dtype] == [np.longdouble]
    assert np.allclose(parts.astype(float), span, rtol=1e-15)


def test_power_panels_call_the_integrand_once_a_pass():
    # 4000 panels of 54 nodes, 216,000 nodes in all: one call on every node,
    # mapped in long double from float ends
    seen = []

    def one(x):
        seen.append((x.shape, x.dtype))
        return np.ones_like(x)

    ends = np.linspace(0.0, 1.0, 4001)
    parts = specfun.power_panels([(a, b, "edge", "edge") for a, b in zip(ends, ends[1:])],
                                 one, 1.0, (None, None), 54)
    assert seen == [((4000, 54), np.longdouble)]
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
    t, ln_w, lp, lm = specfun.gauss_jacobi_log(m, a, b)
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
    real = specfun.eigvalsh_tridiagonal

    def repeated(d, e):
        x = real(d, e)
        x[3] = x[2] * (1 + 1e-12)  # two starts drawn to one root
        return x

    monkeypatch.setattr(specfun, "eigvalsh_tridiagonal", repeated)
    with pytest.raises(AccuracyError, match="not 20 distinct roots"):
        specfun.gauss_jacobi.__wrapped__(20, 2.0, 0.5)
    # the roots of p_{m-1} repel the steps: starts there drift, never settle
    monkeypatch.setattr(specfun, "eigvalsh_tridiagonal",
                        lambda d, e: np.append(real(d[:-1], e[:-1]), 1.0))
    with pytest.raises(AccuracyError, match="did not settle"):
        specfun.gauss_jacobi.__wrapped__(20, 2.0, 0.5)


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
    # the float64 eigenvalues are close enough that one Newton step settles
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
        specfun.gauss_jacobi.__wrapped__(m, a, b)
    assert passes == [1] * (len(SWEEP_LAGUERRE) + len(SWEEP_JACOBI))


def test_gauss_rule_takes_a_second_pass_from_a_start_off_the_root(monkeypatch):
    # 6e-9 off the smallest root x_0 = 0.0245 of (100, 0.5): the step s is
    # within the tolerance's square root, but Newton's next step
    # |P'/(2P)| s^2 = s^2 / (2 x_0) is not, so a second pass follows
    want_x, want_w = specfun.gauss_laguerre(100, 0.5)
    real_eig, real_rows = specfun.eigvalsh_tridiagonal, specfun._rows
    passes = []

    def counting(*args):
        passes.append(1)
        return real_rows(*args)

    monkeypatch.setattr(specfun, "eigvalsh_tridiagonal",
                        lambda d, e: real_eig(d, e) + np.append(6e-9, np.zeros(len(d) - 1)))
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
    # from the rule's node, w = Gamma(m + a + 1) / (m! x L_m'(x)^2)
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
            assert abs(_mpf(mpmath, x[j]) / t - 1) <= 1.5e-15
            assert abs(_mpf(mpmath, ln_w[j]) - want) <= 2.5e-15


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
                                    lambda x: np.ones_like(x), 1.0,
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
            lambda x: x, q2, ((-1.0, a), (1.0, a)), 48)
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
    """plan_panels on the ends radial._norm_panels gives it (n >= 1)."""
    rts = [float(r) for r in specfun.gauss_laguerre(n, l + 0.5)[0]]
    return ([0.0] + rts, ["edge"] + ["root"] * n, ((0.0, p * l + 0.5), None),
            2.0 * p, p)


def angular_plan(l, m, p):
    """plan_panels on the ends angular._angular_panels gives it."""
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
    assert len(angular._angular_panels(angular.AngularState(4, 0), 2.5, "test")(24)) == 5


def test_rule_caches_stay_within_their_bound():
    # distinct orders past the bound evict the oldest entries instead of
    # growing memory, and a rule built again after its eviction is bitwise
    # the cold one
    caches = [specfun.gauss_jacobi, specfun.gauss_jacobi_log, specfun.gauss_laguerre,
              rydberg.bessel_zeros, rydberg.bessel_constant, radial._laguerre_norm,
              radial._shannon_log_integral, angular._renyi_angular, angular._shannon_angular]
    assert all(f.cache_parameters()["maxsize"] == specfun._RULE_CACHE for f in caches)
    specfun.gauss_jacobi.cache_clear()
    cold = specfun.gauss_jacobi(6, 0.25, 1.5)
    for k in range(specfun._RULE_CACHE + 100):
        specfun.gauss_jacobi(6, 0.25, 2.0 + k / 8)
    assert specfun.gauss_jacobi.cache_info().currsize == specfun._RULE_CACHE
    again = specfun.gauss_jacobi(6, 0.25, 1.5)
    assert again is not cold
    for a, b in zip(cold, again):
        assert a.dtype == b.dtype and np.array_equal(a, b)
