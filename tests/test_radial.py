"""Checks for radial norm integrals and radial entropies."""

import math
import re
import time
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import scipy.integrate as si
from hypothesis import given, settings, strategies as hst
from scipy.special import roots_genlaguerre

from conftest import rows_at_rule_nodes
from oscent import radial, specfun
from oscent.errors import AccuracyError, DomainError
from oscent.order import as_order
from oscent.radial import (OscillatorParams, QuantumState, closed_n1l, energy,
                           laguerre_norm, radial_density, renyi_radial_exact,
                           shannon_radial_exact)

# independently frozen dual-route value of the n=1, l=0 norm at p=2
N10_P2 = 0.255572398382168


def test_state_validation():
    with pytest.raises(DomainError):
        QuantumState(-1, 0, 0)
    with pytest.raises(DomainError):
        QuantumState(0, 1, 2)
    with pytest.raises(DomainError):
        OscillatorParams(lam=0.0)


def test_energy_ladder():
    assert energy(QuantumState(0, 0, 0)) == pytest.approx(1.5)
    assert energy(QuantumState(2, 1, 0)) == pytest.approx(6.5)
    assert energy(QuantumState(1, 3, 0), OscillatorParams(lam=2.0)) == \
        pytest.approx(13.0)


@pytest.mark.parametrize("n,l", [(0, 0), (1, 2), (3, 1), (7, 2)])
def test_unit_norm_at_order_one(n, l):
    res = laguerre_norm(n, l, 1.0)
    assert res.value == pytest.approx(1.0, abs=1e-10)


def test_frozen_norm_anchor():
    res = laguerre_norm(1, 0, 2.0)
    assert res.path == "gauss_laguerre"
    assert res.value == pytest.approx(N10_P2, rel=1e-12)
    sym = laguerre_norm(1, 0, 2.0, path="symbolic")
    assert sym.value == pytest.approx(N10_P2, rel=1e-12)


@pytest.mark.parametrize("n,l,q", [(1, 0, 2), (2, 1, 4), (4, 2, 2),
                                   (6, 0, 6), (3, 3, 4)])
def test_symbolic_vs_quadrature(n, l, q):
    sym = laguerre_norm(n, l, q / 2.0, path="symbolic")
    quad = laguerre_norm(n, l, q / 2.0, path="quadrature")
    assert quad.value == pytest.approx(sym.value, rel=1e-11)


@pytest.mark.parametrize("l", [0, 3])
def test_symbolic_at_grid_top_order_matches_quadrature(l):
    # n = 10, 2p = 6: the costliest exact power the low-lying table computes
    sym = laguerre_norm(10, l, 3.0, path="symbolic")
    quad = laguerre_norm(10, l, 3.0, path="quadrature")
    assert sym.value == pytest.approx(quad.value, rel=1e-12)


def test_even_power_inside_the_rule_cap_takes_the_rule():
    # 2p <= 8 and n p + 1 <= 3000: the rule, at any degree n 2p
    auto = laguerre_norm(31, 0, 2.0)
    assert auto.path == "gauss_laguerre"
    assert not auto.warnings
    sym = laguerre_norm(31, 0, 2.0, path="symbolic")
    assert auto.value == pytest.approx(sym.value, rel=1e-10)


def test_ground_norm_closed_form():
    # n = 0: N_{0,l}(p) = Gamma(lp + 3/2) / (p^{lp+3/2} Gamma(l+3/2)^p)
    for l in (0, 1, 2):
        for p in (0.6, 1.7, 2.0, 3.0):
            want = math.exp(math.lgamma(l * p + 1.5)
                            - (l * p + 1.5) * math.log(p)
                            - p * math.lgamma(l + 1.5))
            res = laguerre_norm(0, l, p)
            assert res.value == pytest.approx(want, rel=1e-12)
            quad = laguerre_norm(0, l, p, path="quadrature")
            assert quad.value == pytest.approx(want, rel=1e-10)


@pytest.mark.parametrize("l", [0, 1])
@pytest.mark.parametrize("q", [2, 4, 6])
def test_closed_n1_even_powers(l, q):
    closed = closed_n1l(l, q / 2.0)
    quad = laguerre_norm(1, l, q / 2.0, path="quadrature")
    assert closed.value == pytest.approx(quad.value, rel=1e-10)
    assert closed.warnings == ()


@pytest.mark.parametrize("l", [0, 1])
@pytest.mark.parametrize("q", [1, 3, 5])
def test_closed_n1_odd_powers_report_absolute_value(l, q):
    # the closed form would raise the sign-changing L_1 to an odd power;
    # it refuses, and auto reports the absolute-power integral
    with pytest.raises(DomainError, match="sign-ambiguous"):
        closed_n1l(l, q / 2.0)
    with pytest.raises(DomainError, match="sign-ambiguous"):
        laguerre_norm(1, l, q / 2.0, path="closed_n1")
    auto = laguerre_norm(1, l, q / 2.0)
    assert auto.path == "quadrature"
    assert auto.value == pytest.approx(mpmath_norm(1, l, q / 2.0), rel=1e-10)


def test_closed_n1_signed_anchor():
    # signed integrals frozen from the independent integral-representation
    # route: the identity's odd-2p values, which are not the norm
    for l, p, signed in ((0, 0.5, -3.2610923178), (1, 1.5, 0.0339624818)):
        with pytest.raises(DomainError):
            closed_n1l(l, p)
        assert laguerre_norm(1, l, p).value > abs(signed) + 1e-3


def test_closed_n1_rejects_offlattice_order():
    with pytest.raises(DomainError):
        closed_n1l(0, 1.25)


@pytest.mark.parametrize("n,p,path", [(1, 501.0, "closed_n1"), (1, 1e300, "closed_n1"),
                                      (126, 4.0, "symbolic"), (5, 1e300, "symbolic")])
def test_exact_routes_refuse_degrees_past_1000(n, p, path):
    # degree n 2p: 1002, 2e300, 1008 and 1e301; the rational powers take 2p steps
    with pytest.raises(DomainError, match="--path auto"):
        laguerre_norm(n, 3, p, path=path)


@pytest.mark.parametrize("route", [lambda: closed_n1l(300, 500.0),
                                   lambda: laguerre_norm(1, 1000, 500.0, path="symbolic")])
def test_exact_routes_refuse_gamma_factors_past_l_2p_50000(route):
    # degree n 2p = 1000, but l 2p = 300,000 and 1,000,000: gamma_half_exact(l 2p + 3)
    # ran past 60 s.  The refusal comes before any exact arithmetic
    start = time.perf_counter()
    with pytest.raises(DomainError, match="l 2p > 50000.*--path auto"):
        route()
    assert time.perf_counter() - start < 0.1


def test_symbolic_route_at_l_2p_50000():
    # at the bound, about 1.1 s: N_{n,l}(1) = 1, whose log the exact sum gives as 0.0
    assert laguerre_norm(1, 25000, 1.0, path="symbolic").log_value == 0.0


@pytest.mark.parametrize("n,l,q,panels,tol", [(125, 0, 8, False, 2e-15),
                                               (50, 0, 20, True, 8e-15),
                                               (10, 0, 100, True, 3e-14),
                                               (10, 1000, 12, True, 1.5e-14)])
def test_symbolic_route_at_degree_1000(n, l, q, panels, tol):
    # degree n 2p = 1000 (120 at l = 1000), each within a second on integer powers.
    # In ln N the exact sum is 0.0 off the Gauss-Laguerre rule at (125, 0, 8) and
    # 3.6e-15, 1.4e-14 and 7.1e-15 off the panels at the other three
    want = (laguerre_norm(n, l, q / 2, path="quadrature") if panels
            else radial._norm_gauss_laguerre(n, l, q, q / 2))
    assert abs(laguerre_norm(n, l, q / 2, path="symbolic").log_value - want.log_value) <= tol


def test_path_dispatch_errors():
    with pytest.raises(DomainError):
        laguerre_norm(2, 0, 1.3, path="symbolic")
    with pytest.raises(DomainError):
        laguerre_norm(2, 0, 0.5, path="symbolic")
    with pytest.raises(DomainError):
        laguerre_norm(2, 0, 2.0, path="closed_n1")
    with pytest.raises(DomainError):
        laguerre_norm(2, 0, 2.0, path="no_such_route")
    with pytest.raises(DomainError):
        laguerre_norm(-1, 0, 2.0)


def test_radial_density_normalized():
    for n, l in ((0, 0), (2, 1), (4, 3)):
        rho = radial_density(QuantumState(n, l, 0))
        total, _ = si.quad(lambda r: rho(r) * r * r, 0.0, 14.0, limit=200)
        assert total == pytest.approx(1.0, abs=1e-9)


def test_renyi_matches_direct_density_integral():
    state = QuantumState(2, 1, 0)
    rho = radial_density(state)
    power, _ = si.quad(lambda r: rho(r) ** 2 * r * r, 0.0, 14.0, limit=200)
    want = math.log(power) / (1.0 - 2.0)
    got = renyi_radial_exact(state, p=2.0)
    assert got == pytest.approx(want, rel=1e-9)


def test_ground_shannon_closed_value():
    # S = 3/2 + (1/2) ln pi - 2 ln 2 at lam = 1
    want = 1.5 + 0.5 * math.log(math.pi) - 2.0 * math.log(2.0)
    got = shannon_radial_exact(QuantumState(0, 0, 0))
    assert got == pytest.approx(want, abs=1e-10)


def test_shannon_matches_direct_density_integral():
    state = QuantumState(1, 1, 0)
    rho = radial_density(state)

    def f(r):
        d = rho(r)
        return -d * math.log(d) * r * r if d > 0 else 0.0

    want, _ = si.quad(f, 0.0, 12.0, limit=200)
    got = shannon_radial_exact(state)
    assert got == pytest.approx(want, abs=1e-8)


@given(hst.floats(min_value=0.2, max_value=5.0),
       hst.sampled_from([(0, 0), (1, 1), (3, 0)]),
       hst.sampled_from([0.5, 2.0, 3.0]))
@settings(max_examples=25, deadline=None)
def test_strength_rescaling_shifts_entropy(lam, nl, p):
    # rho_lam is a dilation of rho_1, so R_p drops by (3/2) ln lam
    state = QuantumState(nl[0], nl[1], 0)
    base = renyi_radial_exact(state, p=p)
    scaled = renyi_radial_exact(state, OscillatorParams(lam=lam), p=p)
    assert scaled == pytest.approx(base - 1.5 * math.log(lam), abs=1e-9)


def test_strength_rescaling_shannon():
    state = QuantumState(2, 1, 0)
    base = shannon_radial_exact(state)
    scaled = shannon_radial_exact(state, OscillatorParams(lam=3.0))
    assert scaled == pytest.approx(base - 1.5 * math.log(3.0), abs=1e-9)


def test_renyi_rejects_unit_order():
    with pytest.raises(DomainError):
        renyi_radial_exact(QuantumState(1, 0, 0), p=1.0)


def test_norm_passthrough_reuses_value():
    state = QuantumState(1, 0, 0)
    norm = laguerre_norm(1, 0, 2.0)
    direct = renyi_radial_exact(state, p=2.0)
    reused = renyi_radial_exact(state, p=2.0, norm=norm)
    assert reused == direct


# ---------------------------------------------------------------------------
# references independent of the panel engine


def exact_norm(n, l, p, dps=None):
    """N_{n,l}(p) for integer p as an exact rational sum over L^{2p}.

    With D = 2^n n!, D L_n^(l+1/2) has integer coefficients
    (-2)^k C(n, k) prod_{j=1}^{n-k} (2k + 2l + 1 + 2j); its 2p-th power is
    built by convolution and integrated termwise with half-integer Gammas.
    With dps the rational and its power of pi meet in mpmath at dps digits.
    """
    def odd_double_fact(j):  # (2j + 1)!! = Gamma(j + 3/2) 2^(j+1) / sqrt(pi)
        return math.prod(range(1, 2 * j + 2, 2))

    coeffs = [(-2) ** k * math.comb(n, k)
              * math.prod(2 * k + 2 * l + 1 + 2 * j for j in range(1, n - k + 1))
              for k in range(n + 1)]
    power = [1]
    for _ in range(2 * p):
        power = [sum(power[i] * coeffs[k - i]
                     for i in range(max(0, k - n), min(k, len(power) - 1) + 1))
                 for k in range(len(power) + n)]
    m = p * l
    s = sum(Fraction(b * odd_double_fact(k + m), 2 ** (k + m + 1) * p ** (k + m))
            for k, b in enumerate(power))
    d = 2 ** n * math.factorial(n)
    h = Fraction(odd_double_fact(n + l), 2 ** (n + l + 1) * math.factorial(n))
    ratio = s / (d ** (2 * p) * h ** p)
    if dps:
        with mpmath.workdps(dps):
            return (mpmath.mpf(ratio.numerator) / ratio.denominator
                    * mpmath.pi ** ((1 - mpmath.mpf(p)) / 2) * mpmath.mpf(p) ** -1.5)
    return float(ratio) * math.pi ** (0.5 * (1 - p)) * p ** -1.5


@pytest.mark.parametrize("n,l,p", [(30, 0, 2), (60, 1, 2), (100, 0, 2), (10, 4, 3)])
def test_symbolic_route_keeps_the_digits_of_its_rational(n, l, p):
    # the logs of the sum and of the norm power, each near 1e2 to 1e3,
    # used to cancel to a 1e-13 error
    want = exact_norm(n, l, p, dps=60)
    got = laguerre_norm(n, l, p, path="symbolic").value
    assert float(abs(got - want) / want) <= 1e-15


@pytest.mark.parametrize("l", [0, 3, 7])
@pytest.mark.parametrize("p", [2, 3, 4])
def test_closed_n1_keeps_the_digits_of_its_rational(l, p):
    want = exact_norm(1, l, p, dps=60)
    assert float(abs(closed_n1l(l, p).value - want) / want) <= 2e-15


def mpmath_norm(n, l, p):
    """N_{n,l}(p) by tanh-sinh quadrature split at the Laguerre roots."""
    with mpmath.workdps(30):
        a = mpmath.mpf(2 * l + 1) / 2
        p = mpmath.mpf(p)
        h = mpmath.gamma(n + a + 1) / mpmath.factorial(n)
        pts = [0] + [mpmath.mpf(r) for r in roots_genlaguerre(n, float(a))[0]]

        def f(x):
            return (abs(mpmath.laguerre(n, a, x)) ** (2 * p)
                    * mpmath.exp(-p * x) * x ** (p * l + mpmath.mpf(1) / 2))

        return float(mpmath.quad(f, pts + [mpmath.inf]) / h ** p)


def norm_panels(n, l, p):
    """The panel list radial's pass integrates: the first argument it gives power_panels."""
    return radial._radial_pass(n, l, p).args[0]


def per_slice_value(n, l, p, m_nodes):
    """The panel sum evaluated one panel at a time, as a reference."""
    alpha = Fraction(2 * l + 1, 2)
    gma, q2 = p * l + 0.5, 2.0 * p
    total = np.longdouble(0.0)
    for lo, hi, bk, ak in norm_panels(n, l, p):
        A = q2 if ak == "root" else 0.0
        B = gma if bk == "edge" else (q2 if bk == "root" else 0.0)
        t, ln_w = specfun.gauss_jacobi(m_nodes, A, B)
        w = np.exp(ln_w)
        h = (np.longdouble(hi) - np.longdouble(lo)) / 2
        x = np.longdouble(lo) + h * (1.0 + t.astype(np.longdouble))
        g = np.abs(specfun.laguerre_orthonormal_weighted(n, alpha, x))
        if bk == "root":
            g = g / (x - np.longdouble(lo))
        if ak == "root":
            g = g / (np.longdouble(hi) - x)
        g = g ** np.longdouble(q2)
        if bk != "edge":
            g = g * x ** np.longdouble(gma)
        total += h ** np.longdouble(A + B + 1) * np.dot(w.astype(np.longdouble), g)
    return float(total)


def test_exact_reference_matches_symbolic_route():
    assert exact_norm(3, 1, 2) == pytest.approx(
        laguerre_norm(3, 1, 2.0, path="symbolic").value, rel=1e-13)


# ---------------------------------------------------------------------------
# the Gauss-Laguerre route: n p + 1 nodes integrate the even power exactly


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 10, 15, 20, 30])
def test_rule_matches_symbolic(n):
    for l in (0, 1, 3, 7):
        for q in (2, 4, 6, 8):
            got = laguerre_norm(n, l, q / 2)
            assert got.path == "gauss_laguerre"
            want = laguerre_norm(n, l, q / 2, path="symbolic")
            assert abs(got.log_value - want.log_value) <= 1e-14


@pytest.mark.parametrize("n,l,p", [(400, 0, 2.0), (400, 2, 2.0), (740, 0, 4.0)])
def test_rule_matches_quadrature_at_large_degree(n, l, p):
    # at (740, 0, 4) the rule has 2961 nodes, the last past x = 11,000,
    # where w_j underflows and w_j e^(x_j) does not.  Past 400 nodes auto
    # takes the panels (specfun._rule_wins), so the rule is called directly
    got = radial._norm_gauss_laguerre(n, l, round(2 * p), p)
    assert got.path == "gauss_laguerre"
    want = laguerre_norm(n, l, p, path="quadrature")
    assert got.value == pytest.approx(want.value, rel=1e-13)


@pytest.mark.parametrize("l,p", [(0, 3.0), (1, 3.0), (0, 4.0), (3, 4.0)])
def test_rule_log_matches_quadrature_at_n_400(l, p):
    # the 1201- and 1601-node rules against the panels, in ln N: the rule's
    # weights carry the rounding of its Christoffel sums (auto takes the panels)
    got = radial._norm_gauss_laguerre(400, l, round(2 * p), p)
    assert got.path == "gauss_laguerre"
    want = laguerre_norm(400, l, p, path="quadrature")
    assert abs(got.log_value - want.log_value) <= 1.5e-14


def test_rule_sums_its_terms_in_logs_at_large_l():
    # W_j psi_j^2p turns subnormal near l = 600 at 2p = 6, and a plain sum
    # was 0.79 off in ln N there; a double-precision lgamma normalising
    # laguerre_orthonormal_weighted put 5e-13 to 2e-12 on these states
    for n, l, p in ((4, 600, 3.0), (6, 1000, 2.0), (3, 2000, 4.0)):
        got = laguerre_norm(n, l, p)
        assert got.path == "gauss_laguerre"
        want = laguerre_norm(n, l, p, path="symbolic")
        assert abs(got.log_value - want.log_value) <= 1e-14
    # the rules themselves return here (a = 12000.5 and 3500.5), but the
    # integrand rows start at exp(-x/2 - ln Gamma(l + 3/2)/2), below e^-11400,
    # and underflow to 0 even in long double: every term is 0 and the sum
    # raises, with no float warning on the way (warnings are errors here)
    for n, l, p in ((3, 3000, 4.0), (1, 3500, 1.0)):
        with pytest.raises(AccuracyError):
            laguerre_norm(n, l, p)


@pytest.mark.parametrize("n,l,p", [(4, 600, 3.0), (6, 1000, 2.0), (3, 2000, 4.0),
                                   (10, 1000, 8.0)])
def test_panels_form_their_powers_in_logs_at_large_l(n, l, p):
    # x^(pl + 1/2) and the head panel's scale leave the float range here as
    # plain powers.  The reference is the Gauss-Laguerre rule, exact for any
    # even 2p and checked against path="symbolic" above; at (10, 1000, 8)
    # the two agree to the last bit, and the rational sum takes 13 s
    got = laguerre_norm(n, l, p, path="quadrature")
    want = radial._norm_gauss_laguerre(n, l, round(2 * p), p)
    assert abs(got.log_value - want.log_value) <= 1e-13


@pytest.mark.parametrize("n,l,p,route", [
    (10, 0, 4.0, "gauss_laguerre"), (10, 0, 5.0, "gauss_laguerre"),
    (750, 0, 4.0, "quadrature"), (0, 2, 2.0, "symbolic"),
    (5, 1, 1.5, "quadrature"), (133, 0, 3.0, "gauss_laguerre"),
    (100, 0, 4.0, "quadrature"), (39, 0, 10.0, "gauss_laguerre"),
    (40, 0, 10.0, "quadrature"), (400, 0, 2.0, "quadrature")])
def test_auto_dispatch(n, l, p, route):
    # the rule while its n p + 1 nodes are at most 400, whatever the even 2p:
    # 400 at (133, 0, 3), 391 at (39, 0, 10), 401 at (100, 0, 4) and (40, 0,
    # 10), 801 at (400, 0, 2); 2p = 3 is odd
    assert laguerre_norm(n, l, p).path == route


def test_rule_one_node_short_misses_the_symbolic_value(monkeypatch):
    # the sweep above would see an off-by-one in the node count
    cases = ((10, 0, 2.0), (3, 1, 1.0))
    want = [laguerre_norm(*c, path="symbolic").log_value for c in cases]
    rule = specfun.gauss_laguerre
    monkeypatch.setattr(specfun, "gauss_laguerre", lambda m, a: rule(m - 1, a))
    for c, w in zip(cases, want):
        assert abs(laguerre_norm(*c).log_value - w) > 1e-11


# ---------------------------------------------------------------------------
# radial tail: the outer lobe beyond the last root


def test_outer_lobe_kept_at_third_order():
    want = exact_norm(30, 0, 3)
    assert want == pytest.approx(0.2026697484, abs=1e-10)
    got = laguerre_norm(30, 0, 3.0, path="quadrature")
    assert got.path == "quadrature"
    assert got.value == pytest.approx(want, rel=1e-10)
    assert laguerre_norm(30, 0, 3.0).value == pytest.approx(want, rel=1e-10)


def test_outer_lobe_kept_at_non_lattice_order():
    got = laguerre_norm(10, 0, 3.3)
    assert got.value == pytest.approx(mpmath_norm(10, 0, 3.3), rel=1e-10)


@pytest.mark.parametrize("n,l,p", [(15, 0, 4)] + [
    (n, l, p) for n in (10, 20, 30, 40) for l in (0, 1) for p in (3, 4)])
def test_high_order_quadrature_matches_exact(n, l, p):
    got = laguerre_norm(n, l, float(p), path="quadrature")
    assert got.value == pytest.approx(exact_norm(n, l, p), rel=1e-10)


@pytest.mark.parametrize("n", [10, 40])
@pytest.mark.parametrize("l", [0, 1])
def test_odd_two_p_quadrature_matches_mpmath(n, l):
    # 2p = 5: the auto route is quadrature of the absolute power
    got = laguerre_norm(n, l, 2.5)
    assert got.path == "quadrature"
    assert got.value == pytest.approx(mpmath_norm(n, l, 2.5), rel=1e-10)


def test_tail_self_check_sees_a_missing_lobe(monkeypatch):
    full = specfun.plan_panels

    def cut(keep_tail):
        def panels(*plan):
            out = full(*plan)
            first_tail = 1 + max(i for i, s in enumerate(out) if s[3] == "root")
            return out[:first_tail + keep_tail]
        return panels

    # two panels past the last root, far too small to matter, then a stop:
    # the outer lobe is lost and node doubling agrees with itself
    # settled names the state in front of the pass's own message
    named = r"radial quadrature for n=10, l=0, p=3.0: panel list ends inside a lobe"
    monkeypatch.setattr(specfun, "plan_panels", cut(2))
    with pytest.raises(AccuracyError, match=named):
        laguerre_norm(10, 0, 3.0, path="quadrature")
    # a list cut inside the lobe
    monkeypatch.setattr(specfun, "plan_panels", cut(5))
    with pytest.raises(AccuracyError, match=named) as err:
        laguerre_norm(10, 0, 3.0, path="quadrature")
    assert err.value.estimate > 0


def test_lobe_check_names_its_sums_in_logs():
    # at (40, 100, 200) both sums are near e^-1115, which float() printed as 0.0
    with pytest.raises(AccuracyError, match="panel list ends inside a lobe") as err:
        laguerre_norm(40, 100, 200.0)
    logs = re.search(r"holds e\^(\S+) of e\^(\S+)$", str(err.value)).groups()
    assert all(math.isfinite(float(v)) for v in logs), logs


def test_head_self_check_sees_a_missing_lobe(monkeypatch, fresh_components):
    # the head twin: at n = 0 the plan ends its head at the integrand's peak,
    # the mode (pl + 1/2)/p of x^(pl + 1/2) e^(-px).  The whole plan, whose
    # head starts at x = 5.0 past a dropped piece, returns the closed form; one
    # whose head starts at the peak has dropped half the lobe, and node
    # doubling agrees with itself.  A planner that starts its heads where f
    # rises, or a check that sees only tails, fails here
    l, p = 20, 8.0
    assert laguerre_norm(0, l, p, path="quadrature").log_value == pytest.approx(
        laguerre_norm(0, l, p).log_value, rel=0, abs=1e-13)
    full, mode = specfun.plan_panels, l + 0.5 / p

    def from_peak(*plan):
        return [(lo, hi, "plain" if lo == mode else lk, hk)
                for lo, hi, lk, hk in full(*plan) if lo >= mode]

    monkeypatch.setattr(specfun, "plan_panels", from_peak)
    fresh_components()
    with pytest.raises(AccuracyError, match=r"radial quadrature for n=0, l=20, p=8.0: "
                                            r"panel list ends inside a lobe"):
        laguerre_norm(0, l, p, path="quadrature")


# ---------------------------------------------------------------------------
# batched panel engine and polished roots


@pytest.mark.parametrize("n", [0, 1, 5, 50])
@pytest.mark.parametrize("l", [0, 2])
@pytest.mark.parametrize("p", [0.5, 1.5, 2.0, 1.3])
def test_batched_engine_matches_per_slice_reference(n, l, p):
    got = laguerre_norm(n, l, p, path="quadrature")
    m = specfun._NODES
    m_nodes = 2 * m + m // 4 if got.warnings else m + m // 2
    assert got.value == pytest.approx(per_slice_value(n, l, p, m_nodes),
                                      rel=1e-13)


# ---------------------------------------------------------------------------
# the margin of the radial node count: each value is checked against a
# 96-node pass on its own panels, far above the 24/36 nodes it is taken at


def panel_pass(n, l, p, panels, m_nodes):
    """radial's pass at m_nodes on the given panels: its q2 and edges, psi_rows there."""
    q2, edges = radial._radial_pass(n, l, p).args[2:]
    return specfun.power_panels(panels, psi_rows(n, l, panels), q2, edges, m_nodes)


@pytest.mark.parametrize("n", [1, 10, 50, 150])
@pytest.mark.parametrize("l", [0, 20])
@pytest.mark.parametrize("p", [0.3, 0.5, 2.8, 8.0])
def test_radial_node_count_settles_without_escalation(n, l, p):
    got = laguerre_norm(n, l, p, path="quadrature")
    assert not got.warnings
    ref = radial._radial_pass(n, l, p)(96).sum()
    assert float(abs(got.value - ref) / ref) <= 2e-14


@pytest.mark.parametrize("p", [0.02, 0.1])
def test_small_order_tail_stays_within_the_node_count(p):
    # at small p the log-variation of (x - r_n)^{2p} let a tail panel grow
    # to 16 / 2p times its distance from the last root, where the 24/36/54
    # node check did not settle at p = 0.02; the graded tail settles at 24
    got = laguerre_norm(3, 0, p, path="quadrature")
    assert not got.warnings
    assert got.value == pytest.approx(mpmath_norm(3, 0, p), rel=1e-12)


@pytest.mark.parametrize("n,l", [(3, 0), (10, 20)])
@pytest.mark.parametrize("p", [0.02, 0.1, 0.3])
def test_tail_panels_grow_at_most_the_cap_past_the_last_root(n, l, p):
    last = float(specfun.gauss_laguerre(n, l + 0.5)[0][-1])
    tail = [s for s in norm_panels(n, l, p) if s[0] > last]
    assert len(tail) > 2
    for lo, hi, _, _ in tail:
        assert hi - lo <= specfun._LOG_VARIATION_CAP * (lo - last) * (1 + 1e-12)


@pytest.mark.parametrize("n,l", [(10, 20), (50, 0)])
def test_radial_shannon_node_count_margin(n, l):
    j = radial._radial_pass(n, l, 1.0, (l, 0))(96)[1].sum()
    assert shannon_radial_exact(QuantumState(n, l, 0)) == pytest.approx(
        -math.log(2.0) - float(j), rel=0, abs=1e-14)


@pytest.mark.parametrize("n", [1, 2, 5, 10, 30, 60, 100])
@pytest.mark.parametrize("l", [0, 3])
def test_polished_roots_match_scipy(n, l):
    roots = specfun.gauss_laguerre(n, l + 0.5)[0].astype(float)
    want = roots_genlaguerre(n, l + 0.5)[0]
    assert np.allclose(roots, want, rtol=1e-14, atol=0)


@pytest.mark.parametrize("n", [1, 2, 10, 400, 1000])
def test_polished_roots_bracketed_by_sign_changes(n):
    alpha = Fraction(1, 2)
    x = specfun.gauss_laguerre(n, float(alpha))[0]
    # a few ulp of the scale at which x enters the recurrence
    d = 8 * np.finfo(np.longdouble).eps * (2 * n + 1.5 + x)
    below = np.sign(specfun.laguerre_orthonormal_weighted(n, alpha, x - d))
    above = np.sign(specfun.laguerre_orthonormal_weighted(n, alpha, x + d))
    assert np.all(below * above < 0)
    assert np.all(np.diff(x) > 2 * d[1:])


# ---------------------------------------------------------------------------
# the panel list: a split head [0, r_1], one panel per root gap, a graded tail


def test_each_root_gap_is_one_panel():
    n, l, p = 100, 0, 3.0
    rts = [float(r) for r in specfun.gauss_laguerre(n, l + 0.5)[0]]
    gaps = [s for s in norm_panels(n, l, p) if rts[0] <= s[0] < rts[-1]]
    assert gaps == [(a, b, "root", "root") for a, b in zip(rts, rts[1:])]


def test_split_head_matches_a_finer_panel_list():
    # the reference cuts every panel into four and takes 96 nodes, so it
    # does not rest on the choice of panels the way the margin tests do
    n, l, p = 100, 20, 12.0
    panels = norm_panels(n, l, p)
    r1 = float(specfun.gauss_laguerre(n, l + 0.5)[0][0])
    assert sum(1 for s in panels if s[1] <= r1) > 1
    fine = []
    for lo, hi, bk, ak in panels:
        c = [lo + (hi - lo) * k / 4 for k in range(5)]
        fine += [(c[0], c[1], bk, "plain"), (c[1], c[2], "plain", "plain"),
                 (c[2], c[3], "plain", "plain"), (c[3], c[4], "plain", ak)]
    ref = panel_pass(n, l, p, fine, 96).sum()
    # an unsplit head is 9.6e-7 off at 24 nodes and escalates
    got = laguerre_norm(n, l, p, path="quadrature")
    assert not got.warnings
    assert float(abs(got.value - ref) / ref) <= 1e-13


@pytest.mark.parametrize("n,l,p", [(800, 0, 8.0), (400, 20, 12.0)])
def test_large_degree_high_order_settles(n, l, p):
    # the returned 36-node pass must agree with a 54-node one
    got = laguerre_norm(n, l, p, path="quadrature")
    assert not got.warnings
    ref = radial._radial_pass(n, l, p)(specfun._NODES * 2 + specfun._NODES // 4).sum()
    assert float(abs(got.value - ref) / ref) <= 1e-13


def test_slice_budget_names_the_head_and_the_state(monkeypatch):
    # the budget covers the whole list: the head, the root gaps and the tail
    monkeypatch.setattr(specfun, "_SLICE_BUDGET", 3)
    with pytest.raises(AccuracyError,
                       match=r"radial panels for n=10, l=1000, p=12.0 needs more than 3"):
        laguerre_norm(10, 1000, 12.0, path="quadrature")


def test_head_that_starts_where_the_mass_is_matches_the_exact_rule():
    # sliced from x = 0 against its edge power x^12000.5, the head [0, r_1]
    # at (10, 1000, 12) needs more than 6000 slices; started where its mass
    # bound is negligible it takes 186.  The reference is the Gauss-Laguerre
    # rule of 121 nodes, exact at 2p = 24 and 1.3e-14 off here; the symbolic
    # route agrees to 1e-10 but takes 44 s, on Gamma values of 44,000 digits
    got = laguerre_norm(10, 1000, 12.0, path="quadrature")
    assert got.value == pytest.approx(
        radial._norm_gauss_laguerre(10, 1000, 24, 12.0).value, rel=1e-12, abs=0)


# ---------------------------------------------------------------------------
# panels from n = specfun._TAYLOR_MIN_N on: specfun.panel_rows' Taylor series of
# the Laguerre equation about each piece's centre, at a rule's nodes as
# power_panels evaluates it (rows_at_rule_nodes), against the recurrence it
# stands in for


def psi_rows(n, l, panels):
    """The integrand of radial._radial_pass on the panels: (-1)^n psi, row n of
    the Laguerre family under e^(-x/2), with (x/c)^s on the root gaps."""
    return specfun.panel_rows(specfun.laguerre_family(n, l + 0.5), panels, -0.5,
                              s=(2 * l + 3) // 4)


def recurrence_psi(n, l, x):
    """(-1)^n psi by the recurrence, the sign of the rows."""
    return (-1) ** n * specfun.laguerre_orthonormal_weighted(n, l + 0.5, x)


def root_gaps(n, l):
    """The panels between consecutive roots."""
    rts = specfun.gauss_laguerre(n, l + 0.5)[0].astype(float)
    return [(a, b, "root", "root") for a, b in zip(rts, rts[1:])]


def series_deviation(n, l):
    """The largest |series - recurrence| over the nodes of every root gap,
    relative to the largest |psi| on the node's panel."""
    gaps = root_gaps(n, l)
    x, got = rows_at_rule_nodes(psi_rows(n, l, gaps), gaps)
    ref = recurrence_psi(n, l, x)
    return float(np.max(np.abs(got - ref) / np.max(np.abs(ref), axis=1, keepdims=True)))


def series_bound(n):
    # the rounding of the recurrence grows with n: the worst deviation over
    # the l of the sweep was 6.1e-16 at n = 40, 6.5e-16 at 100, 2.3e-15 at
    # 400 and 3.2e-14 at 1500, where the recurrence is the one further off
    return 4e-17 * n


@pytest.mark.parametrize("n", [40, 100, 400, 1500])
@pytest.mark.parametrize("l", [0, 1, 20, 300, 1000])
def test_gap_series_matches_the_recurrence(n, l):
    assert series_deviation(n, l) <= series_bound(n)


@pytest.mark.parametrize("n,l", [(40, 1000), (400, 0)])
def test_gap_series_cut_to_16_terms_misses_the_recurrence(monkeypatch, n, l):
    # 16 terms are about 1e-8 off: their own last coefficients reject every
    # whole gap, panel_rows halves each as often as the h^k scaling of those
    # coefficients asks, and the halves come within the bound (1.2e-16 at
    # (40, 1000), 2.0e-15 at (400, 0)); forced past that check the sweep above
    # sees the truncation
    monkeypatch.setattr(specfun, "_TAYLOR_TERMS", 16)
    assert series_misses(n, l, root_gaps(n, l)).all()
    assert 0.0 < series_deviation(n, l) <= series_bound(n)
    monkeypatch.setattr(specfun, "_SERIES_CUT", math.inf)
    assert series_deviation(n, l) > series_bound(n)


def ld_to_mpf(v):
    m, e = np.frexp(np.longdouble(v))
    return mpmath.ldexp(int(np.ldexp(m, 64)), int(e) - 64)


def test_gap_series_matches_mpmath_on_its_worst_gap():
    # the sweep's worst node is next to r_1 on the first gap at (1500, 1);
    # there the series is 1.2e-14 off, the recurrence 2.0e-14
    n, l = 1500, 1
    gaps = root_gaps(n, l)[:1]
    x, got = rows_at_rule_nodes(psi_rows(n, l, gaps), gaps)
    got = (-1) ** n * got[0]
    with mpmath.workdps(60):
        a = mpmath.mpf(2 * l + 1) / 2
        norm = mpmath.sqrt(mpmath.gamma(n + a + 1) / mpmath.factorial(n))
        want = [mpmath.laguerre(n, a, xm) * mpmath.exp(-xm / 2) / norm
                for xm in map(ld_to_mpf, x[0])]
        err = max(abs(ld_to_mpf(g) - w) for g, w in zip(got, want))
        assert err <= 2e-14 * max(abs(w) for w in want)


@pytest.mark.parametrize("n,l,p", [(100, 0, 0.7), (400, 3, 0.6), (800, 0, 3.3),
                                   (100, 300, 0.3), (40, 1000, 8.0)])
def test_gap_series_keeps_the_norms_of_the_recurrence(monkeypatch, fresh_components, n, l, p):
    got = laguerre_norm(n, l, p, path="quadrature").log_value
    monkeypatch.setattr(specfun, "_TAYLOR_MIN_N", 10 ** 9)
    fresh_components()
    assert abs(got - laguerre_norm(n, l, p, path="quadrature").log_value) <= 1e-14


@pytest.mark.parametrize("n,l", [(400, 0), (800, 1)])
def test_gap_series_keeps_the_shannon_values_of_the_recurrence(monkeypatch, fresh_components,
                                                              n, l):
    got = shannon_radial_exact(QuantumState(n, l, 0))
    monkeypatch.setattr(specfun, "_TAYLOR_MIN_N", 10 ** 9)
    fresh_components()
    assert abs(got - shannon_radial_exact(QuantumState(n, l, 0))) <= 1e-14


def test_small_order_above_the_threshold_still_fails_loudly():
    # from about x = 22,700 the start row exp(-x/2) leaves the long-double
    # range, and at p = 1e-3 the integrand still holds mass there.  A series
    # whose centre value underflowed would give that panel 0 and settle 3.1e-9
    # below 30-digit mpmath (40608.0239992205); the nodes whose rows underflow,
    # bounded by their terms at the smallest normal row, must raise instead
    with pytest.raises(AccuracyError, match="rows underflow where the integrand"):
        laguerre_norm(45, 3, 1e-3)


def test_small_order_raises_again_on_every_call():
    # an error is not cached: the second call runs the quadrature again
    for _ in range(2):
        with pytest.raises(AccuracyError, match="rows underflow where the integrand"):
            laguerre_norm(45, 3, 1e-3)
    assert radial._laguerre_norm.cache_info().currsize == 0


@pytest.mark.parametrize("n,l,path", [(1, 0, "auto"), (0, 20, "quadrature")])
def test_small_order_that_settles_on_lost_mass_raises(n, l, path):
    # both node counts lose the mass past x = 22,700 alike, so settled
    # certified (1, 0) at 28408.690711210736, 6.9e-10 below 40-digit mpmath
    # (28408.69073087781), against _RENYI_TOL = 1e-11
    with pytest.raises(AccuracyError, match=f"radial quadrature for n={n}, l={l}, p=0.001: "
                                            "rows underflow where the integrand"):
        laguerre_norm(n, l, 1e-3, path=path)


@pytest.mark.parametrize("n,l,p", [(3, 0, 2e-3), (45, 3, 2e-3), (1000, 2000, 0.5)])
def test_rows_that_underflow_where_no_mass_is_still_return(n, l, p):
    # at p = 2e-3 the far tail's rows underflow too, but their bound at the
    # smallest normal row, about 2e-20 of a node's weight, stays below a float
    # ulp of N; (1000, 2000, 0.5) is the large-l state that returns
    assert laguerre_norm(n, l, p).path == "quadrature"


@pytest.mark.parametrize("p", [1e-307, 2.2250738585072014e-308, 1e-320, 5e-324])
def test_tail_past_the_float_range_raises(p):
    # e^(-p x) is still near 1 where the tail's slices reach 1e308
    with pytest.raises(AccuracyError, match="passes the float range"):
        laguerre_norm(3, 2, p)


# ---------------------------------------------------------------------------
# component caches


def counting_rows(monkeypatch):
    """The shapes of every specfun._last_rows call from here on."""
    seen, rows = [], specfun._last_rows

    def counting(x, *args):
        seen.append(np.shape(x))
        return rows(x, *args)

    monkeypatch.setattr(specfun, "_last_rows", counting)
    return seen


@pytest.mark.parametrize("n,l,p,path", [(100, 2, 0.7, "quadrature"), (5, 1, 2.0, "auto")])
def test_repeated_norm_is_the_cached_object(monkeypatch, n, l, p, path):
    seen = counting_rows(monkeypatch)
    first = laguerre_norm(n, l, p, path=path)
    assert seen
    seen.clear()
    # the key is taken after as_order, so an EntropyOrder of p is the same key
    assert laguerre_norm(n, l, p, path=path) is first
    assert laguerre_norm(n, l, as_order(p), path=path) is first
    assert not seen
    info = radial._laguerre_norm.cache_info()
    assert (info.misses, info.hits) == (1, 2)


def test_radial_shannon_shares_its_log_integral_across_lam(monkeypatch):
    seen = counting_rows(monkeypatch)
    state = QuantumState(40, 1, 1)
    one = shannon_radial_exact(state)
    seen.clear()
    scaled = shannon_radial_exact(QuantumState(40, 1, -1), OscillatorParams(2.0))
    assert not seen
    assert one - scaled == pytest.approx(1.5 * math.log(2.0), rel=1e-15)
    info = radial._shannon_log_integral.cache_info()
    assert (info.misses, info.hits) == (1, 1)


@pytest.mark.parametrize("n", [40, 50, 100, 200, 400])
@pytest.mark.parametrize("l", [0, 1, 2, 20])
def test_no_radial_panel_leaves_its_series(monkeypatch, n, l):
    # from n = 40 on every panel of every pass is on its series, the wide tail
    # panels at small p and the slice at x = 0 among them: the recurrence sees
    # only the points the series start at, shape (pieces, 1), never a row of nodes
    seen = counting_rows(monkeypatch)
    for p in (0.5, 0.7, 1.0, 1.3, 2.2, 2.5, 8.0):
        if p == 1.0:
            shannon_radial_exact(QuantumState(n, l, 0))
        else:
            laguerre_norm(n, l, p, path="quadrature")
    assert seen and all(shape[-1] == 1 for shape in seen)


def series_misses(n, l, gaps):
    """Root gaps whose whole series has its last two coefficients above
    _SERIES_CUT of its largest, or a cut that underflows: those panel_rows
    cuts into pieces, or hands to the recurrence."""
    lo, hi = (np.array(col, dtype=np.longdouble)[:, None] for col in list(zip(*gaps))[:2])
    mag = np.abs(specfun._series(specfun.laguerre_family(n, l + 0.5), lo, hi,
                                 (2 * l + 3) // 4, -0.5)[1])
    cut = specfun._SERIES_CUT * mag.max(axis=0)
    return ((mag[-1] + mag[-2] > cut) | (cut < np.finfo(cut.dtype).tiny)).ravel()


def panel_kinds(n, l, panels):
    """Each panel's kind: head slice, root gap or tail panel."""
    rts = specfun.gauss_laguerre(n, l + 0.5)[0].astype(float)
    return np.array(["head" if hi <= rts[0] else "gap" if lk == hk == "root"
                     else "tail" for _, hi, lk, hk in panels])


@pytest.mark.parametrize("n", [10, 400])
@pytest.mark.parametrize("p", [0.7, 1.0])
def test_nodes_reach_the_recurrence_only_where_the_series_misses(monkeypatch, n, p):
    # values agree either way, so only the nodes the recurrence sees show
    # whether a pass fell back to it.  Below _TAYLOR_MIN_N every node of the
    # 24- and 36-node passes does; from there on no panel misses: each takes
    # a series on its pieces (the slice [0, r_1] about x = 0), and the
    # recurrence sees only the points the series start at, shape (pieces, 1)
    panels = norm_panels(n, 0, p)
    seen = counting_rows(monkeypatch)
    if p == 1.0:
        shannon_radial_exact(QuantumState(n, 0, 0))
    else:
        assert not laguerre_norm(n, 0, p, path="quadrature").warnings
    size = sum(math.prod(shape) for shape in seen if shape[-1] > 1)
    if n < specfun._TAYLOR_MIN_N:
        nodes = 2 * specfun._NODES + specfun._NODES // 2
        assert all(shape[-1] > 1 for shape in seen) and size == len(panels) * nodes
        return
    assert seen and size == 0


@pytest.mark.parametrize("n", [40, 400])
@pytest.mark.parametrize("l", [0, 1, 3, 20, 60, 300])
@pytest.mark.parametrize("p", [0.5, 1.3, 8.0])
def test_head_and_tail_series_match_the_recurrence(monkeypatch, n, l, p):
    # every head slice and tail panel at the 36 nodes of a pass.  The worst
    # node (1.5e-16 n at (40, 60, 8)) is on the tail panel next to the last
    # root, where the recurrence is the one further off: by 50-digit mpmath
    # at (40, 60, 8) the series is 3.4e-16 off there and the recurrence 5.7e-15
    check_head_and_tail(monkeypatch, n, l, p)


@pytest.mark.parametrize("l", [100, 150, 200])
@pytest.mark.parametrize("p", [0.5, 1.3, 8.0])
def test_head_pieces_match_the_recurrence_at_large_l(monkeypatch, l, p):
    # at n = 400 the largest scaled coefficient of the head slices moves
    # through k = 12..23 as l grows, where one estimate of the halvings from
    # it asked for 2^18 pieces at l = 150: each panel stays within the nodes
    # of two passes, and only the slice at x = 0 falls back
    nodes = specfun._NODES + specfun._NODES * 3 // 2
    assert check_head_and_tail(monkeypatch, 400, l, p) <= nodes


def check_head_and_tail(monkeypatch, n, l, p):
    """The head slices and tail panels of (n, l, p) by panel_rows at the 36 nodes
    of a pass against the recurrence, and the nodes that reach it; returns the
    most series centres one pass of _pieces took, per panel."""
    panels = norm_panels(n, l, p)
    kinds = panel_kinds(n, l, panels)
    ends = [pan for pan, kind in zip(panels, kinds) if kind != "gap"]
    # the series serves them: no node reaches the recurrence up to l = 20, not
    # at (n, p) = (40, 0.5), where every tail panel spans 17 to 26 and 24 terms
    # of e^(-x/2) fall short of one piece, nor on the slice at x = 0, whose
    # series is cut about x = 0 and then re-expanded about its centre.  From
    # l = 60 on that slice may still take it:
    # pieces next to x = 0 carry the solution x^(-a) of their rounding at
    # h/c = 2/3 however far halved
    seen = counting_rows(monkeypatch)
    x, got = rows_at_rule_nodes(psi_rows(n, l, ends), ends)
    assert seen and sum(math.prod(shape) for shape in seen
                        if shape[-1] > 1) <= (0 if l <= 20 else x.shape[1])
    centres = max(shape[0] for shape in seen if shape[-1] == 1)
    ref = recurrence_psi(n, l, x)
    dev = np.max(np.abs(got - ref), axis=1) / np.max(np.abs(ref), axis=1)
    assert float(np.max(dev)) <= 2e-16 * n
    return centres / len(ends)


@pytest.mark.parametrize("n,l,p", [(100, 20, 1.3), (100, 0, 0.1)])
def test_panels_the_series_misses_keep_the_norms_of_the_recurrence(monkeypatch,
                                                                   fresh_components, n, l, p):
    # taken on every panel, the series is 9.7e-9 off at (100, 20, 1.3), on
    # its head, and does not settle at (100, 0, 0.1), on its wide tail panels
    got = laguerre_norm(n, l, p, path="quadrature").log_value
    monkeypatch.setattr(specfun, "_TAYLOR_MIN_N", 10 ** 9)
    fresh_components()
    assert abs(got - laguerre_norm(n, l, p, path="quadrature").log_value) <= 1e-14


# ---------------------------------------------------------------------------
# radial Shannon: log-weighted end rules against graded Gauss-Legendre panels


def graded_shannon(n, l, m_nodes=30):
    """J = integral psi^2 x^{l+1/2} (ln psi^2 + l ln x) dx on graded panels.

    The p = 1 norm panels, each refined geometrically toward its origin
    (44 levels) and root ends (24 levels) so that plain Gauss-Legendre sees
    the logarithmic kinks only on tiny segments; returns the Shannon entropy
    -ln 2 - J at lam = 1.
    """
    def graded(lo, hi, toward_lo, levels):
        w = hi - lo
        if toward_lo:
            return [lo] + [lo + w * 2.0 ** -j for j in range(levels, -1, -1)]
        return [lo] + [hi - w * 2.0 ** -j for j in range(1, levels + 1)] + [hi]

    edges = []
    for lo, hi, bk, ak in norm_panels(n, l, 1.0):
        lev_lo = 44 if bk == "edge" else 24
        if bk != "plain" and ak == "root":
            mid = 0.5 * (lo + hi)
            pts = graded(lo, mid, True, lev_lo) + graded(mid, hi, False, 24)[1:]
        elif bk != "plain":
            pts = graded(lo, hi, True, lev_lo)
        elif ak == "root":
            pts = graded(lo, hi, False, 24)
        else:
            pts = [lo, hi]
        edges.extend(zip(pts[:-1], pts[1:]))
    lo, hi = np.array(edges, dtype=np.longdouble).T
    t, ln_w = specfun.gauss_jacobi(m_nodes, 0.0, 0.0)  # plain Legendre
    w = np.exp(ln_w)
    h = (hi - lo)[:, None] / 2
    x, w = lo[:, None] + h * (1 + t), w * h
    t2 = specfun.laguerre_orthonormal_weighted(n, Fraction(2 * l + 1, 2), x) ** 2
    j = np.sum(w * t2 * x ** np.longdouble(l + 0.5) * (np.log(t2) + l * np.log(x)))
    return -math.log(2.0) - float(j)


@pytest.mark.parametrize("n", [0, 1, 5, 20, 50, 100])
@pytest.mark.parametrize("l", [0, 1, 2])
def test_shannon_log_weighted_rule_matches_graded_panels(n, l):
    got = shannon_radial_exact(QuantumState(n, l, 0))
    assert got == pytest.approx(graded_shannon(n, l), rel=1e-12)
