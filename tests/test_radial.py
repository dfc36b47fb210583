"""Checks for radial norm integrals and radial entropies."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import scipy.integrate as si
from hypothesis import given, settings, strategies as hst
from scipy.special import roots_genlaguerre

from oscent import radial, specfun
from oscent.errors import AccuracyError, DomainError
from oscent.radial import (OscillatorParams, QuantumState, closed_n1l, energy,
                           laguerre_norm, negparam_laguerre_integral,
                           radial_density, renyi_radial_exact,
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
    assert res.path == "symbolic"
    assert res.value == pytest.approx(N10_P2, rel=1e-12)


@pytest.mark.parametrize("n,l,q", [(1, 0, 2), (2, 1, 4), (4, 2, 2),
                                   (6, 0, 6), (3, 3, 4)])
def test_symbolic_vs_quadrature(n, l, q):
    sym = laguerre_norm(n, l, q / 2.0, path="symbolic")
    quad = laguerre_norm(n, l, q / 2.0, path="quadrature")
    assert quad.value == pytest.approx(sym.value, rel=1e-11)


def test_degree_cap_falls_back_to_quadrature():
    auto = laguerre_norm(31, 0, 2.0)
    assert auto.path == "quadrature"
    assert any("cap" in w for w in auto.warnings)
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
    closed = closed_n1l(l, q / 2.0)
    quad = laguerre_norm(1, l, q / 2.0, path="quadrature")
    assert closed.value == pytest.approx(quad.value, rel=1e-10)
    assert any("sign" in w for w in closed.warnings)
    assert closed.signed_power_value is not None
    # |signed integral| can never exceed the absolute-power integral
    assert abs(closed.signed_power_value) <= closed.value * (1 + 1e-12)


def test_closed_n1_signed_anchor():
    # frozen from the independent integral-representation route
    closed = closed_n1l(0, 0.5)
    assert closed.signed_power_value == pytest.approx(-3.2610923178, abs=1e-9)
    closed = closed_n1l(1, 1.5)
    assert closed.signed_power_value == pytest.approx(0.0339624818, abs=1e-9)


def test_closed_n1_rejects_offlattice_order():
    with pytest.raises(DomainError):
        closed_n1l(0, 1.25)


@pytest.mark.parametrize("n,nu,x", [(1, 1.5, 0.75), (3, 2.5, 2.0),
                                    (5, 1.5, 0.3), (2, 4.0, 6.0)])
def test_negparam_integral_matches_series(n, nu, x):
    via_integral = negparam_laguerre_integral(n, nu, x)
    via_series = specfun.laguerre_eval_negparam(n, -n - nu, x)
    assert via_integral == pytest.approx(via_series, rel=1e-9)


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


def exact_norm(n, l, p):
    """N_{n,l}(p) for integer p as an exact rational sum over L^{2p}.

    With D = 2^n n!, D L_n^(l+1/2) has integer coefficients
    (-2)^k C(n, k) prod_{j=1}^{n-k} (2k + 2l + 1 + 2j); its 2p-th power is
    built by convolution and integrated termwise with half-integer Gammas.
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
    return (float(s / (d ** (2 * p) * h ** p))
            * math.pi ** (0.5 * (1 - p)) * p ** -1.5)


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


def per_slice_value(n, l, p, m_nodes):
    """The panel sum evaluated one panel at a time, as a reference."""
    alpha = Fraction(2 * l + 1, 2)
    gma, q2 = p * l + 0.5, 2.0 * p
    total = np.longdouble(0.0)
    for lo, hi, bk, ak in radial._norm_panels(n, l, p):
        A = q2 if ak == "root" else 0.0
        B = gma if bk == "zero" else (q2 if bk == "root" else 0.0)
        t, w = specfun.gauss_jacobi(m_nodes, A, B)
        h = (np.longdouble(hi) - np.longdouble(lo)) / 2
        x = np.longdouble(lo) + h * (1.0 + t.astype(np.longdouble))
        g = np.abs(specfun.laguerre_orthonormal_weighted(n, alpha, x))
        if bk == "root":
            g = g / (x - np.longdouble(lo))
        if ak == "root":
            g = g / (np.longdouble(hi) - x)
        g = g ** np.longdouble(q2)
        if bk != "zero":
            g = g * x ** np.longdouble(gma)
        total += h ** np.longdouble(A + B + 1) * np.dot(w.astype(np.longdouble), g)
    return float(total)


def test_exact_reference_matches_symbolic_route():
    assert exact_norm(3, 1, 2) == pytest.approx(
        laguerre_norm(3, 1, 2.0, path="symbolic").value, rel=1e-13)


# ---------------------------------------------------------------------------
# radial tail: the outer lobe beyond the last root


def test_outer_lobe_kept_at_third_order():
    # auto dispatch goes to quadrature here (degree 180 exceeds the cap)
    want = exact_norm(30, 0, 3)
    assert want == pytest.approx(0.2026697484, abs=1e-10)
    got = laguerre_norm(30, 0, 3.0)
    assert got.path == "quadrature"
    assert got.value == pytest.approx(want, rel=1e-10)


def test_outer_lobe_kept_at_non_lattice_order():
    got = laguerre_norm(10, 0, 3.3)
    assert got.value == pytest.approx(mpmath_norm(10, 0, 3.3), rel=1e-10)


@pytest.mark.parametrize("n,l,p", [(15, 0, 4)] + [
    (n, l, p) for n in (10, 20, 30) for l in (0, 1) for p in (3, 4)])
def test_high_order_quadrature_matches_exact(n, l, p):
    got = laguerre_norm(n, l, float(p), path="quadrature")
    assert got.value == pytest.approx(exact_norm(n, l, p), rel=1e-10)


def test_tail_self_check_sees_a_missing_lobe(monkeypatch):
    full = radial._norm_panels

    def cut(keep_tail):
        def panels(n, l, p):
            out = full(n, l, p)
            first_tail = 1 + max(i for i, s in enumerate(out) if s[3] == "root")
            return out[:first_tail + keep_tail]
        return panels

    # two panels past the last root, far too small to matter, then a stop:
    # the outer lobe is lost and node doubling agrees with itself
    monkeypatch.setattr(radial, "_norm_panels", cut(2))
    with pytest.raises(AccuracyError, match="lobe"):
        laguerre_norm(10, 0, 3.0, path="quadrature")
    # a list cut inside the lobe
    monkeypatch.setattr(radial, "_norm_panels", cut(5))
    with pytest.raises(AccuracyError, match="lobe"):
        laguerre_norm(10, 0, 3.0, path="quadrature")


# ---------------------------------------------------------------------------
# batched panel engine and polished roots


@pytest.mark.parametrize("n", [0, 1, 5, 50])
@pytest.mark.parametrize("l", [0, 2])
@pytest.mark.parametrize("p", [0.5, 1.5, 2.0, 1.3])
def test_batched_engine_matches_per_slice_reference(n, l, p):
    got = laguerre_norm(n, l, p, path="quadrature")
    m_nodes = 108 if got.warnings else 72
    assert got.value == pytest.approx(per_slice_value(n, l, p, m_nodes),
                                      rel=1e-13)


@pytest.mark.parametrize("n", [1, 2, 5, 10, 30, 60, 100])
@pytest.mark.parametrize("l", [0, 3])
def test_polished_roots_match_scipy(n, l):
    roots = radial._refined_roots(n, Fraction(2 * l + 1, 2)).astype(float)
    want = roots_genlaguerre(n, l + 0.5)[0]
    assert np.allclose(roots, want, rtol=1e-14, atol=0)


@pytest.mark.parametrize("n", [1, 2, 10, 400])
def test_polished_roots_bracketed_by_sign_changes(n):
    alpha = Fraction(1, 2)
    x = radial._refined_roots(n, alpha)
    # a few ulp of the scale at which x enters the recurrence
    d = 8 * np.finfo(np.longdouble).eps * (2 * n + 1.5 + x)
    below = np.sign(specfun.laguerre_orthonormal_weighted(n, alpha, x - d))
    above = np.sign(specfun.laguerre_orthonormal_weighted(n, alpha, x + d))
    assert np.all(below * above < 0)
    assert np.all(np.diff(x) > 2 * d[1:])
