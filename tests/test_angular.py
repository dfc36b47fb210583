"""Checks for the spherical harmonic entropy routes."""

import dataclasses
import importlib.util
import math
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hst
from scipy.special import lpmv, roots_jacobi, roots_legendre

from conftest import rows_at_rule_nodes
from oscent import angular, specfun
from oscent.angular import (AngularState, lambda_bell, lambda_closed,
                            lambda_linearization, lambda_quadrature,
                            renyi_angular, shannon_angular)
from oscent.errors import DomainError
from oscent.order import as_order

FOUR_PI = 4.0 * math.pi


def test_state_validation():
    with pytest.raises(DomainError):
        AngularState(-1, 0)
    with pytest.raises(DomainError):
        AngularState(2, 3)


@pytest.mark.parametrize("l,m", [(0, 0), (3, 1), (1000, 500), (2000, 1000)])
def test_quadrature_density_is_normalised(l, m):
    # Lambda(1) = 1; at (1000, 500) A^2 = e^-949.6 underflows a float, so the
    # normalisation must stay in the recurrence's long-double start row
    assert lambda_quadrature(AngularState(l, m), 1.0).lambda_value == \
        pytest.approx(1.0, rel=0, abs=1e-12)


@pytest.mark.parametrize("p", [0.5, 1.5, 2.0, 3.0])
def test_uniform_harmonic_has_max_entropy(p):
    # |Y_00|^2 is constant, so every order gives ln(4 pi)
    res = renyi_angular(AngularState(0, 0), p)
    assert res.renyi == pytest.approx(math.log(FOUR_PI), abs=1e-12)


def test_order_one_routes_to_shannon():
    with pytest.raises(DomainError):
        renyi_angular(AngularState(3, 2), 1.0)


def test_power_integral_near_unit_order_is_normalization():
    # lambda(p) -> 1 as p -> 1 because the density is normalized
    for p in (0.999, 1.001):
        res = renyi_angular(AngularState(3, 2), p)
        assert res.lambda_value == pytest.approx(1.0, abs=5e-3)


def test_l1_m0_second_order_values():
    # lambda = 9/(20 pi) for the polar p-orbital at p = 2
    res = renyi_angular(AngularState(1, 0), 2.0)
    assert res.lambda_value == pytest.approx(9.0 / (20.0 * math.pi), rel=1e-13)
    assert res.renyi == pytest.approx(math.log(20.0 * math.pi / 9.0), rel=1e-13)
    assert res.method == "closed_form"


def test_shannon_low_harmonics():
    assert shannon_angular(AngularState(0, 0)) == \
        pytest.approx(math.log(FOUR_PI), abs=1e-10)
    assert shannon_angular(AngularState(1, 1)) == \
        pytest.approx(math.log(2.0 * math.pi / 3.0) + 5.0 / 3.0, abs=1e-10)
    assert shannon_angular(AngularState(1, 0)) == \
        pytest.approx(2.0 / 3.0 + math.log(FOUR_PI / 3.0), abs=1e-10)


def test_shannon_quadrature_matches_closed():
    for l in (1, 2, 3, 5, 8, 12, 20):
        for m in (l, l - 1):
            closed = angular._shannon_closed(AngularState(l, m))
            quad = angular._shannon_quadrature(AngularState(l, m))
            assert quad == pytest.approx(closed, abs=1e-13)


def mpmath_shannon_closed(l, m):
    """The digamma closed forms of the (l, l) and (l, l-1) families, 40 digits."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        l_ = mpmath.mpf(l)
        psi, lg, ln = mpmath.digamma, mpmath.loggamma, mpmath.log
        if m == l:
            return (-l_ * (psi(l_ + 1) - psi(l_ + 1.5) + 2 * ln(2))
                    + ln(4 * mpmath.pi ** 2 / (2 * l_ + 1))
                    + lg(2 * l_ + 1) - 2 * lg(l_ + 0.5))
        log_k = (ln(l_ + 0.5) + 2 * ln(2 * l_ - 1) + 2 * lg(l_ - 0.5)
                 - (3 - 2 * l_) * ln(2) - lg(2 * l_) - 2 * ln(mpmath.pi))
        return -log_k - psi(mpmath.mpf(1.5)) - (l_ - 1) * psi(l_) + l_ * psi(l_ + 1.5)


@pytest.mark.parametrize("offset", [0, 1])
def test_shannon_closed_forms_match_mpmath(offset):
    # lgamma and digamma terms of size 100-500 used to cancel to 1e-13
    for l in range(offset, 101):
        want = mpmath_shannon_closed(l, l - offset)
        got = angular._shannon_closed(AngularState(l, l - offset))
        assert float(abs(got - want) / abs(want)) <= (2e-14 if l <= 30 else 6e-14), l


@pytest.mark.parametrize("l,m,p", [(2, 1, 2.0), (3, 1, 2.0), (4, 2, 3.0),
                                   (5, 0, 2.0), (6, 6, 1.5), (3, 3, 3.5)])
def test_exact_routes_agree(l, m, p):
    state = AngularState(l, m)
    lin = lambda_linearization(state, p)
    bell = lambda_bell(state, p)
    quad = lambda_quadrature(state, p)
    assert lin.lambda_value == pytest.approx(bell.lambda_value, rel=1e-11)
    assert lin.lambda_value == pytest.approx(quad.lambda_value, rel=1e-8)


@pytest.mark.parametrize("n,m,q", [(n, m, q) for n in (20, 60) for m in (0, 5)
                                   for q in (4, 8)])
def test_exact_routes_match_the_rule_past_the_old_lattice(n, m, q):
    # l - |m| up to 60 and 2p = 8, once refused as past l - |m| <= 8: 1.8e-15 at
    # worst in ln Lambda against the Gauss-Jacobi rule, (25, 5, 8)
    state = AngularState(n + m, m)
    want = _ln_rule(n + m, m, q / 2)
    for route in (lambda_linearization, lambda_bell):
        assert abs(math.log(route(state, q / 2).lambda_value) - want) <= 4e-15, route


@pytest.mark.parametrize("l", [3, 10, 40])
@pytest.mark.parametrize("q", [9, 11, 15])
def test_exact_routes_match_the_closed_form_at_odd_powers(l, q):
    # l = |m|: the factor is constant, so odd 2p past the old 2p <= 8 is exact too.
    # In ln Lambda, both come within 1.8e-15 of lambda_closed, at (40, 40, 15) for Bell,
    # whose Gamma factors of m p, with logs near 1400 there, are long double
    state = AngularState(l, l)
    want = math.log(lambda_closed(state, q / 2).lambda_value)
    for route in (lambda_linearization, lambda_bell):
        assert abs(math.log(route(state, q / 2).lambda_value) - want) <= 4e-15, route


@pytest.mark.parametrize("l,m,q,tol", [(300, 300, 1000, 2e-12), (2000, 2000, 1000, 1e-11),
                                       (505, 5, 2, 4e-16)])
def test_bell_at_the_degree_cap(l, m, q, tol):
    # degree (l - |m|) 2p = 1000, each within a tenth of a second.  In ln Lambda, of
    # sizes 218 and 691, Bell is 4.8e-13 and 3.3e-12 off lambda_closed; at (505, 5)
    # 1.1e-16 off the Gauss-Jacobi rule
    state = AngularState(l, m)
    want = (math.log(lambda_closed(state, q / 2).lambda_value) if state.closed_family
            else _ln_rule(l, m, q / 2))
    assert abs(math.log(lambda_bell(state, q / 2).lambda_value) - want) <= tol


@pytest.mark.parametrize("l,m,p", [(501, 0, 1.0), (131, 5, 4.0), (3, 3, 500.5)])
def test_exact_routes_refuse_degrees_past_1000(l, m, p):
    # degree (l - |m|) 2p: 1002, 1008, and 2p = 1001 alone at l = |m|
    for route in (lambda_linearization, lambda_bell):
        with pytest.raises(DomainError, match="power of degree n 2p > 1000"):
            route(AngularState(l, m), p)


@pytest.mark.parametrize("l", [1, 2, 4, 6])
@pytest.mark.parametrize("p", [0.7, 2.0, 3.5])
def test_closed_family_sectoral_and_next(l, p):
    for m in (l, l - 1):
        state = AngularState(l, m)
        closed = lambda_closed(state, p)
        assert closed is not None
        quad = lambda_quadrature(state, p)
        assert closed.lambda_value == pytest.approx(quad.lambda_value,
                                                    rel=1e-9)


def lpmv_density(l, m, nodes):
    """|Y_{l,m}|^2 from lpmv values on Gauss-Legendre panels between its roots.

    Returns the density y and the mapped weights h w on every node.
    """
    roots = roots_jacobi(l - m, m, m)[0] if l > m else np.array([])
    edges = np.concatenate(([-1.0], roots, [1.0]))
    t0, w0 = roots_legendre(nodes)
    h = np.diff(edges)[:, None] / 2
    t = edges[:-1, None] + h * (1 + t0)
    log_norm = (math.log((2 * l + 1) / (4 * math.pi))
                + math.lgamma(l - m + 1) - math.lgamma(l + m + 1))
    return math.exp(log_norm) * lpmv(m, l, t) ** 2, h * w0


def lpmv_lambda(l, m, p, nodes=64):
    """Power integral of |Y_{l,m}|^2 by Gauss-Legendre panels on lpmv values.

    The panels end at the roots of P_l^m, so each one sees |.|^{2p} only
    through a power of the distance to its ends.
    """
    y, w = lpmv_density(l, m, nodes)
    return 2 * math.pi * float(np.sum(w * y ** p))


def lpmv_shannon(l, m, nodes=400):
    """-2 pi integral y ln y dt by Gauss-Legendre panels on lpmv values.

    y ln y keeps a (t - r)^2 ln|t - r| kink at each root end, and for m > 0
    a (1 -+ t)^m ln(1 -+ t) one at +-1; plain Gauss-Legendre resolves them
    to about nodes^-6 and nodes^-(2m+2).
    """
    y, w = lpmv_density(l, m, nodes)
    return -2 * math.pi * float(np.sum(w * y * np.log(y)))


@pytest.mark.parametrize("l,m,p", [(30, 0, 2.0), (30, 0, 2.2), (60, 0, 2.0),
                                   (100, 5, 3.3), (8, 2, 2.5), (5, 2, 3.3)])
def test_quadrature_matches_lpmv_reference(l, m, p):
    # at m = 2 the end weight (1 + t)^{mp} and the root weight |t - r|^{2p}
    # share one exponent; each panel must still divide out the right factor
    got = lambda_quadrature(AngularState(l, m), p).lambda_value
    assert got == pytest.approx(lpmv_lambda(l, m, p), rel=1e-10)


@pytest.mark.parametrize("l,m", [(30, 0), (30, 7), (60, 0), (60, 13)])
def test_shannon_quadrature_matches_lpmv_reference(l, m):
    got = angular._shannon_quadrature(AngularState(l, m))
    assert got == pytest.approx(lpmv_shannon(l, m), rel=1e-12)


def test_closed_family_absent_elsewhere():
    assert lambda_closed(AngularState(4, 1), 2.0) is None


def test_closed_family_routes():
    assert angular.shannon_route(AngularState(3, 3)) == "closed_form"
    assert angular.shannon_route(AngularState(3, -2)) == "closed_form"
    assert angular.shannon_route(AngularState(3, 1)) == "quadrature"


@pytest.mark.parametrize("p", [0.0, -1.0, math.nan])
def test_lambda_closed_rejects_invalid_order_outside_the_families(p):
    with pytest.raises(DomainError):
        lambda_closed(AngularState(4, 1), p)


def test_sign_ambiguous_odd_power_reports_quadrature():
    # (l, m) = (2, 0) at 2p = 1: the polynomial factor changes sign and the
    # signed power integral vanishes by orthogonality, so the exact routes
    # refuse and the dispatch takes quadrature of the absolute power.
    for route in (lambda_linearization, lambda_bell):
        with pytest.raises(DomainError, match="sign-ambiguous"):
            route(AngularState(2, 0), 0.5)
    res = renyi_angular(AngularState(2, 0), 0.5)
    assert res.method == "quadrature"
    assert res.lambda_value == lambda_quadrature(AngularState(2, 0), 0.5).lambda_value


@pytest.mark.parametrize("l,m,p", [(6, 4, 1.5), (3, 2, 0.5), (8, 1, 3.5),
                                   (1, 0, 1.5)])
def test_exact_routes_refuse_sign_changing_odd_powers(l, m, p):
    # l > |m|: C_{l-|m|} has roots in (-1, 1), (l, l-1) included
    for route in (lambda_linearization, lambda_bell):
        with pytest.raises(DomainError, match="sign-ambiguous"):
            route(AngularState(l, m), p)


@pytest.mark.parametrize("l,m", [(2, 0), (4, 1), (5, 3), (8, 0)])
@pytest.mark.parametrize("p", [0.5, 1.5, 2.5, 3.5])
def test_dispatch_sends_odd_powers_to_quadrature(l, m, p):
    res = renyi_angular(AngularState(l, m), p)
    assert res.method == "quadrature"
    assert res.lambda_value == lambda_quadrature(AngularState(l, m), p).lambda_value


# ---------------------------------------------------------------------------
# the production route at even 2p: one Gauss-Jacobi rule of n p + 1 nodes


def _ln_rule(l, m, p):
    return math.log(angular._lambda_gauss_jacobi(AngularState(l, m), as_order(p)).lambda_value)


@pytest.mark.parametrize("l,m,q", [(l, m, q) for l in (30, 60, 100)
                                   for m in sorted({0, 5, l // 2, l - 2})
                                   for q in (4, 8)] + [(300, 3, 8), (1000, 300, 8)])
def test_rule_matches_quadrature(l, m, q):
    want = math.log(lambda_quadrature(AngularState(l, m), q / 2).lambda_value)
    assert abs(_ln_rule(l, m, q / 2) - want) <= 1e-13


@pytest.mark.parametrize("l,m,p", [(8, 0, 4.0), (20, 3, 2.0)])
def test_rule_node_count_is_the_exact_one(monkeypatch, l, m, p):
    # n p + 1 nodes are exact for the degree-2np polynomial: one node fewer
    # misses by far more than rounding, five more change nothing
    want = _ln_rule(l, m, p)
    rule = specfun.gauss_jacobi
    for extra, near in ((-1, False), (5, True)):
        monkeypatch.setattr(specfun, "gauss_jacobi",
                            lambda k, a, b, extra=extra: rule(k + extra, a, b))
        err = abs(_ln_rule(l, m, p) - want)
        assert err <= 1e-15 if near else err > 1e-4, (extra, err)


@pytest.mark.parametrize("p,route", [(2.0, "gauss_jacobi"), (4.0, "gauss_jacobi"),
                                     (5.0, "quadrature"), (0.7, "quadrature"),
                                     (2.3, "quadrature")])
def test_dispatch_takes_the_rule_at_even_2p_up_to_the_cap(p, route):
    # at n = l - |m| = 70, 2p = 8 takes a rule of 281 nodes and 2p = 10 one of
    # 351, past the 300 of specfun._rule_wins; non-lattice orders, like odd
    # ones (above), have no polynomial integrand
    state = AngularState(73, 3)
    res = renyi_angular(state, p)
    assert res.method == route
    want = lambda_quadrature(state, p).renyi
    assert abs(res.renyi - want) <= 1e-13 * abs(want)


@pytest.mark.parametrize("l,m", [(3000, 1000), (3000, 0), (4000, 1470)])
def test_dispatch_takes_the_panels_at_large_l(monkeypatch, l, m):
    # rules of 8001 to 12001 nodes: cold, the panels are the faster, 0.7 s
    # against 5.3 s at (4000, 1470, p=4) in a fresh process.  The routes are
    # stubbed, as each takes seconds here
    for name in ("_lambda_gauss_jacobi", "lambda_quadrature"):
        monkeypatch.setattr(angular, name, lambda state, order, name=name: name)
    assert renyi_angular(AngularState(l, m), 4.0) == "lambda_quadrature"


@pytest.mark.parametrize("l,m,p", [(60, 5, 0.7), (20, 3, 2.0), (6, 5, 2.5)])
def test_repeated_angular_value_is_the_cached_object(monkeypatch, l, m, p):
    # quadrature, the Gauss-Jacobi rule and a closed form: the second call,
    # at m or -m, reaches no recurrence and returns the first call's result
    seen, rows = [], specfun._last_rows

    def counting(x, *args):
        seen.append(np.shape(x))
        return rows(x, *args)

    monkeypatch.setattr(specfun, "_last_rows", counting)
    first = renyi_angular(AngularState(l, m), p)
    assert bool(seen) == (first.method != "closed_form")
    seen.clear()
    assert renyi_angular(AngularState(l, m), p) is first
    assert renyi_angular(AngularState(l, -m), as_order(p)) is first
    assert not seen
    info = angular._renyi_angular.cache_info()
    assert (info.misses, info.hits) == (1, 2)


@pytest.mark.parametrize("l,m", [(30, 4), (5, 4)])
def test_angular_shannon_at_m_and_minus_m_share_one_entry(l, m):
    assert shannon_angular(AngularState(l, -m)) == shannon_angular(AngularState(l, m))
    info = angular._shannon_angular.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 1, 1)


def test_invalid_order_rejected():
    with pytest.raises(DomainError):
        renyi_angular(AngularState(1, 0), 0.0)
    with pytest.raises(DomainError):
        renyi_angular(AngularState(1, 0), -2.0)


@given(hst.integers(min_value=0, max_value=6),
       hst.integers(min_value=0, max_value=6),
       hst.sampled_from([0.5, 1.5, 2.0, 3.0]))
@settings(max_examples=30, deadline=None)
def test_magnetic_sign_symmetry(l, m, p):
    m = min(m, l)
    plus = renyi_angular(AngularState(l, m), p)
    minus = renyi_angular(AngularState(l, -m), p)
    assert plus.lambda_value == minus.lambda_value
    assert plus.renyi == minus.renyi


@given(hst.integers(min_value=0, max_value=5),
       hst.integers(min_value=0, max_value=5))
@settings(max_examples=25, deadline=None)
def test_renyi_nonincreasing_in_order(l, m):
    m = min(m, l)
    state = AngularState(l, m)
    grid = [0.5, 1.5, 2.0, 3.0, 4.0]
    values = [renyi_angular(state, p).renyi for p in grid]
    for lo, hi in zip(values[1:], values[:-1]):
        assert lo <= hi + 1e-10


@given(hst.integers(min_value=0, max_value=7))
@settings(max_examples=20, deadline=None)
def test_renyi_bounded_by_uniform(l):
    # ln(4 pi) is the maximum over states at any order
    res = renyi_angular(AngularState(l, 0), 2.0)
    assert res.renyi <= math.log(FOUR_PI) + 1e-12


def test_angular_table_check_gates_the_quadrature_gap(monkeypatch, capsys):
    path = pathlib.Path(__file__).parents[1] / "scripts" / "angular_table.py"
    spec = importlib.util.spec_from_file_location("angular_table", path)
    table = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(table)
    argv = ["--lmax", "4", "--orders", "0.5,1,2,3", "--check"]
    assert table.main(argv) == 0
    exact = table.lambda_quadrature

    def off(state, p):
        res = exact(state, p)
        return dataclasses.replace(res, lambda_value=res.lambda_value * (1 + 1e-8))

    monkeypatch.setattr(table, "lambda_quadrature", off)
    assert table.main(argv) == 1
    capsys.readouterr()


# ---------------------------------------------------------------------------
# the margin of the angular node count: the first 24-node pass against a
# 108-node pass on its own panels


@pytest.mark.parametrize("l,m", [(600, 300), (1000, 500)])
def test_large_m_shannon_matches_a_108_node_pass(l, m):
    # each unsliced edge panel [-1, t_1], [t_n, 1] holds (1 -+ t)^(mp)
    # varying by about e^23 at (600, 300), and did not settle there
    ref = -2 * math.pi * float(angular._angular_pass(
        AngularState(l, m), 1.0, "test", (m, m))(108)[1].sum())
    assert abs(shannon_angular(AngularState(l, m)) - ref) <= 1e-12


@pytest.mark.parametrize("l", [10, 30, 60, 100, 200])
def test_angular_first_pass_error_is_pinned(l):
    # the worst over this set is 3.9e-16 for Lambda at (200, 1, 8) and
    # 3.5e-19 for the Shannon log integral J, relative to max(|J|, 1); with
    # edge slices not bound by _ROOT_REACH, J is 1.1e-5 off at (200, 100)
    for m in sorted({0, 1, l // 4, l // 2, 3 * l // 4, l - 2}):
        for p in (0.5, 1.0, 2.5, 8.0):
            passes = angular._angular_pass(AngularState(l, m), p, "test",
                                           (m, m) if p == 1.0 else None)
            if p == 1.0:
                got, ref = (passes(k)[1].sum() for k in (specfun._NODES, 108))
                err = abs(got - ref) / max(abs(ref), 1)
            else:
                got, ref = (passes(k).sum() for k in (specfun._NODES, 108))
                err = abs(got - ref) / ref
            assert err <= 1e-15, (l, m, p)


@pytest.mark.parametrize("l,m,want", [(30, 28, 1.5791416670756884601),
                                      (60, 58, 1.2609668226245452556),
                                      (100, 97, 1.1236939063915294623)])
def test_shannon_quadrature_matches_30_digit_references(l, m, want):
    # -2 pi integral y ln y from 30-digit mpmath quad over the root gaps of
    # (1 - t^2)^m C(t)^2, normalised there; unsliced edge panels were 8e-15,
    # 2.2e-14 and 3.7e-14 off
    assert abs(shannon_angular(AngularState(l, m)) - want) <= 2e-15


# ---------------------------------------------------------------------------
# panels from l - |m| = specfun._TAYLOR_MIN_N on: specfun.panel_rows' Taylor
# series of the Jacobi equation about each piece's centre, at a rule's nodes
# as power_panels evaluates it (rows_at_rule_nodes), against the recurrence it
# stands in for


def jacobi_gaps(l, m):
    """The row of angular's pass (panel_rows under ln_scale = ln 2 pi) on every root
    gap at its nodes x, shape (gaps, 36), with the same row by the n-step
    recurrence from 1 / sqrt(2 pi mu0)."""
    n = l - m
    rts = specfun.gegenbauer_roots(n, m + 0.5)
    gaps = [(a, b, "root", "root") for a, b in zip(rts, rts[1:])]
    fam = specfun.jacobi_family(n, m, m)
    x, got = rows_at_rule_nodes(specfun.panel_rows(fam, gaps, ln_scale=angular._LN_2PI), gaps)
    start = np.exp(-(fam.ln_mu0 + angular._LN_2PI) / 2)
    return gaps, got, specfun._last_rows(x, fam.diag, fam.off, np.full_like(x, start))[1]


def jacobi_kept(l, m, gaps):
    """Whether each gap keeps its whole series: its last two coefficients within
    _SERIES_CUT of its largest, as panel_rows decides."""
    lo, hi = (np.array(col, dtype=np.longdouble)[:, None] for col in list(zip(*gaps))[:2])
    mag = np.abs(specfun._series(specfun.jacobi_family(l - m, m, m), lo, hi, 0,
                                 ln_scale=angular._LN_2PI)[1])
    return (mag[-1] + mag[-2] <= specfun._SERIES_CUT * mag.max(axis=0)).ravel()


def jacobi_deviation(got, ref):
    """The largest |series - recurrence| over the nodes of every gap, relative
    to the largest |row| on the node's gap."""
    return float(np.max(np.abs(got - ref) / np.max(np.abs(ref), axis=1, keepdims=True)))


@pytest.mark.parametrize("l", [100, 1000])
@pytest.mark.parametrize("m", [0, 5, 50])
def test_jacobi_gap_series_matches_the_recurrence(l, m):
    # no gauge: the worst over l in {100, 300, 1000, 3000} was 4.6e-17 at
    # l = 100 and 5.6e-15 at 3000, below the radial 4e-17 n.  The series
    # serves: every gap keeps it at m <= 5, and 89% to 99% at m = 50, where
    # the gaps next to the turning points reach towards t = +-1
    gaps, got, ref = jacobi_gaps(l, m)
    assert jacobi_deviation(got, ref) <= 4e-17 * (l - m)
    assert np.mean(jacobi_kept(l, m, gaps)) >= (0.85 if m == 50 else 1.0)


@pytest.mark.parametrize("l,m", [(100, 0), (300, 50)])
def test_jacobi_gap_series_cut_to_16_terms_misses_the_recurrence(monkeypatch, l, m):
    # 16 terms are 6e-11 to 3e-8 off: their own last coefficients reject every
    # whole gap, panel_rows halves each as often as the h^k scaling of those
    # coefficients asks, and the halves come within the bound (2.6e-17 at
    # (100, 0), 3.9e-17 at (300, 50)); forced past that check the sweep above
    # sees the truncation
    monkeypatch.setattr(specfun, "_TAYLOR_TERMS", 16)
    gaps, got, ref = jacobi_gaps(l, m)
    assert not jacobi_kept(l, m, gaps).any()
    assert 0.0 < jacobi_deviation(got, ref) <= 4e-17 * (l - m)
    monkeypatch.setattr(specfun, "_SERIES_CUT", math.inf)
    assert jacobi_deviation(*jacobi_gaps(l, m)[1:]) > 4e-17 * (l - m)


@pytest.mark.parametrize("l,m,p", [(100, 0, 0.5), (100, 50, 2.5), (300, 5, 8.0), (300, 5, 1.0),
                                   (1000, 900, 0.7), (300, 100, 1.0)])
def test_jacobi_series_keeps_the_values_of_the_recurrence(monkeypatch, fresh_components,
                                                          l, m, p):
    def value():
        state = AngularState(l, m)
        return shannon_angular(state) if p == 1.0 else renyi_angular(state, p).renyi

    got = value()
    monkeypatch.setattr(specfun, "_TAYLOR_MIN_N", 10 ** 9)
    fresh_components()
    assert abs(got - value()) <= 1e-14


@pytest.mark.parametrize("p,want", [(0.5, 2.2311045362825417), (2.5, 0.3053969806883779),
                                    (1.0, 1.9852251407014307)])
def test_large_l_values_keep_the_recurrence_values(p, want):
    # the values of the n-step recurrence at every node, which took 2.3 s
    # (p = 0.5) and 2.1 s (Shannon); Lambda within 2e-12, Shannon within 2e-11
    state = AngularState(1000, 5)
    if p == 1.0:
        assert abs(shannon_angular(state) - want) <= 2e-11
    else:
        assert abs(renyi_angular(state, p).renyi - want) <= 2e-12 / abs(1 - p)
