"""Acceptance gates: exact anchors, cross-method agreement, asymptotic
convergence ladders and the independent full-space integrator.

Each test states its own tolerance and a wall-clock budget; the budgets are
generous on purpose and only guard against quadratic blow-ups.
"""

import math
import time

import numpy as np
import pytest

from oscent.angular import (AngularState, lambda_bell, lambda_closed,
                            lambda_linearization, lambda_quadrature,
                            renyi_angular, shannon_angular)
from oscent.entropy import (SHANNON_SUM_BOUND, disequilibrium, renyi_total,
                            shannon_total, uncertainty_sum)
from oscent.oracle import renyi_full, shannon_full
from oscent.radial import (QuantumState, closed_n1l, laguerre_norm,
                           renyi_radial_exact, shannon_radial_exact)
from oscent.rydberg import (bessel_constant, renyi_radial_asymptotic,
                            shannon_radial_asymptotic)

FOUR_PI = 4.0 * math.pi
LADDER = (50, 100, 200, 400)


# -- 1: reference values for the lowest harmonics ---------------------------

def test_low_harmonic_shannon_reference_values():
    cases = {
        (0, 0): math.log(FOUR_PI),
        (1, 1): math.log(2.0 * math.pi / 3.0) + 5.0 / 3.0,
        (1, 0): 2.0 / 3.0 + math.log(FOUR_PI / 3.0),
    }
    for (l, m), want in cases.items():
        got = shannon_angular(AngularState(l, m), method="quadrature")
        assert got == pytest.approx(want, abs=1e-6)


def test_uniform_harmonic_renyi_all_orders():
    for p in (0.5, 2.0, 3.0):
        got = renyi_angular(AngularState(0, 0), p).renyi
        assert got == pytest.approx(math.log(FOUR_PI), abs=1e-9)


# -- 2: the two exact angular routes against quadrature ---------------------

def test_angular_cross_method_suite():
    start = time.monotonic()
    for l in range(7):
        for m in range(l + 1):
            state = AngularState(l, m)
            sign_definite = (m == l)  # polynomial factor has no roots
            for q in range(1, 9):
                p = q / 2.0
                lin = lambda_linearization(state, p)
                bell = lambda_bell(state, p)
                assert lin.lambda_value == pytest.approx(
                    bell.lambda_value, rel=1e-9), (l, m, q)
                if q % 2 == 0 or sign_definite:
                    quad = lambda_quadrature(state, p)
                    assert lin.lambda_value == pytest.approx(
                        quad.lambda_value, rel=1e-7), (l, m, q)
                    assert not lin.warnings
                else:
                    # ambiguous sign: the routes report the absolute-power
                    # quadrature value and flag it
                    assert lin.warnings and bell.warnings, (l, m, q)
                    assert lin.signed_power_value == pytest.approx(
                        bell.signed_power_value, rel=1e-9, abs=1e-12)
    assert time.monotonic() - start < 120.0


# -- 3: closed forms for the top two magnetic sublevels ----------------------

def test_closed_family_against_quadrature_real_orders():
    for l in range(7):
        for m in ([l] if l == 0 else [l, l - 1]):
            state = AngularState(l, m)
            for p in (0.7, 1.3, 2.0, 3.5):
                closed = lambda_closed(state, p)
                assert closed is not None, (l, m)
                quad = lambda_quadrature(state, p)
                assert closed.lambda_value == pytest.approx(
                    quad.lambda_value, rel=1e-9), (l, m, p)


def test_closed_family_against_exact_routes_lattice_orders():
    for l in range(7):
        for m in ([l] if l == 0 else [l, l - 1]):
            state = AngularState(l, m)
            for p in (2.0, 3.0, 4.0):
                closed = lambda_closed(state, p)
                lin = lambda_linearization(state, p)
                bell = lambda_bell(state, p)
                assert closed.lambda_value == pytest.approx(
                    lin.lambda_value, rel=1e-9), (l, m, p)
                assert closed.lambda_value == pytest.approx(
                    bell.lambda_value, rel=1e-9), (l, m, p)


# -- 4: first excited radial norm in closed form -----------------------------

def test_first_excited_norm_closed_form():
    for l in (0, 1):
        for q in range(1, 7):
            p = q / 2.0
            closed = closed_n1l(l, p)
            quad = laguerre_norm(1, l, p, path="quadrature")
            assert closed.value == pytest.approx(quad.value,
                                                 rel=1e-9), (l, q)


def test_first_excited_norm_is_one_at_unit_order():
    for l in range(4):
        res = laguerre_norm(1, l, 1.0)
        assert res.value == pytest.approx(1.0, abs=1e-10), l


# -- 5: Gaussian ground state closed values ----------------------------------

def test_ground_state_exact_anchors():
    ground = QuantumState(0, 0, 0)
    r2 = renyi_total(ground, p=2.0).total
    assert r2 == pytest.approx(1.5 * math.log(2.0 * math.pi), abs=1e-9)
    assert disequilibrium(ground) == pytest.approx(
        (2.0 * math.pi) ** -1.5, abs=1e-9)
    sh = shannon_total(ground).total
    assert sh == pytest.approx(1.5 * (1.0 + math.log(math.pi)), abs=1e-9)
    # independent full-space integration
    assert renyi_full(ground, p=2.0) == pytest.approx(r2, abs=1e-8)
    assert shannon_full(ground) == pytest.approx(sh, abs=1e-8)


# -- 6: entropic uncertainty sums --------------------------------------------

PAIRS = ((2.0, 2.0 / 3.0), (3.0, 0.6), (1.5, 3.0))


def test_ground_state_saturates_uncertainty_bounds():
    ground = QuantumState(0, 0, 0)
    for pair in PAIRS:
        rec = uncertainty_sum(ground, pair=pair, allow_nonconjugate=True)
        assert rec.sum == pytest.approx(rec.bound, abs=1e-9), pair
    rec = uncertainty_sum(ground, entropy_kind="shannon")
    assert rec.sum == pytest.approx(SHANNON_SUM_BOUND, abs=1e-9)


def test_all_low_states_respect_uncertainty_bounds():
    start = time.monotonic()
    for n in range(6):
        for l in range(4):
            state = QuantumState(n, l, 0)
            for pair in PAIRS:
                rec = uncertainty_sum(state, pair=pair,
                                      allow_nonconjugate=True)
                assert rec.sum >= rec.bound - 1e-9, (n, l, pair)
            rec = uncertainty_sum(state, entropy_kind="shannon")
            assert rec.sum >= rec.bound - 1e-9, (n, l, "shannon")
    assert time.monotonic() - start < 300.0


# -- 7: convergence toward the high-excitation asymptotics -------------------

def _exact_norms(p):
    return [laguerre_norm(n, 0, p).value for n in LADDER]


def test_second_order_norm_converges_to_origin_constant():
    start = time.monotonic()
    const = bessel_constant(0.5, -0.5, 2.0).value
    # closed sine-integral value: (4/pi^2) int_0^inf sin^4 u / u^2 du = 1/pi
    assert const == pytest.approx(1.0 / math.pi, abs=1e-6)
    gaps = [abs(nv * math.sqrt(n) / const - 1.0)
            for nv, n in zip(_exact_norms(2.0), LADDER)]
    assert all(b < a for a, b in zip(gaps, gaps[1:])), gaps
    assert gaps[-1] < 0.15
    assert time.monotonic() - start < 900.0


def test_third_order_norm_settles_to_a_constant():
    n200 = laguerre_norm(200, 0, 3.0).value
    n400 = laguerre_norm(400, 0, 3.0).value
    assert abs(n400 / n200 - 1.0) < 0.05


def test_half_order_entropy_gap_decreases():
    gaps = []
    for n in LADDER:
        exact = renyi_radial_exact(QuantumState(n, 0, 0), p=0.5)
        asym = renyi_radial_asymptotic(n, 0, p=0.5).value
        gaps.append(abs(exact - asym))
    assert all(b < a for a, b in zip(gaps, gaps[1:])), gaps


def test_shannon_gap_decreases():
    gaps = []
    for n in LADDER:
        exact = shannon_radial_exact(QuantumState(n, 0, 0))
        asym = shannon_radial_asymptotic(n)
        gaps.append(abs(exact - asym))
    assert all(b < a for a, b in zip(gaps, gaps[1:])), gaps


def test_transition_order_growth_rate():
    # at p = 3/2 the entropy grows like (3/2) ln n; accept a 25% band on the
    # fitted slope since the correction terms decay only logarithmically
    values = [renyi_radial_exact(QuantumState(n, 0, 0), p=1.5)
              for n in LADDER]
    slope = np.polyfit(np.log(LADDER), values, 1)[0]
    assert 1.5 * 0.75 <= slope <= 1.5 * 1.25, slope


# -- 8: independent integrator over the full low-lying grid ------------------

def test_full_space_integrator_agrees_with_decomposition():
    start = time.monotonic()
    worst = 0.0
    for n in range(4):
        for l in range(3):
            for m in range(-l, l + 1):
                state = QuantumState(n, l, m)
                for p in (0.5, 2.0, 3.0):
                    want = renyi_total(state, p=p).total
                    got = renyi_full(state, p=p)
                    worst = max(worst, abs(got - want))
                    assert got == pytest.approx(want, abs=1e-9), (n, l, m, p)
                want = shannon_total(state).total
                got = shannon_full(state)
                worst = max(worst, abs(got - want))
                assert got == pytest.approx(want, abs=1e-9), (n, l, m, "sh")
    assert worst < 1e-9
    assert time.monotonic() - start < 30.0
