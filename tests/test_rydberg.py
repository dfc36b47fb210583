"""Checks for the high-excitation asymptotic regime machinery."""

import math

import numpy as np
import pytest
import scipy.special as sp

from oscent import rydberg
from oscent.errors import AccuracyError, DomainError
from oscent.radial import OscillatorParams, QuantumState, renyi_radial_exact
from oscent.rydberg import (bessel_constant, bessel_zeros, cosine_constant,
                            renyi_radial_asymptotic, shannon_radial_asymptotic)


def test_half_order_zeros_are_multiples_of_pi():
    # J_{1/2}(x) is proportional to sin(x)/sqrt(x); 161 zeros, as many as the
    # Bessel constant's last estimate uses
    zeros = np.array(bessel_zeros(0.5, 161))
    k = np.arange(1, 162)
    assert np.allclose(zeros, k * math.pi, rtol=1e-14, atol=0)


def test_integer_order_zeros_match_scipy_tables():
    for order in (0, 1, 2, 5, 10):
        zeros = np.array(bessel_zeros(float(order), 161))
        assert np.allclose(zeros, sp.jn_zeros(order, 161), rtol=1e-14, atol=0)


def test_bessel_zeros_raise_when_newton_leaves_its_bracket(monkeypatch):
    # a derivative of the wrong sign walks every start away from its zero
    monkeypatch.setattr(rydberg, "jvp", lambda a, z: -sp.jvp(a, z))
    with pytest.raises(AccuracyError, match="bracket"):
        bessel_zeros.__wrapped__(1.5, 10)


@pytest.mark.parametrize("alpha,p,want", [
    # frozen from the sign-scan plus brentq zeros this Newton polish replaced
    (0.5, 2.1, 0.2917768411037955), (1.5, 2.5, 0.05386577348677989),
    (2.5, 3.0, 0.007451408846127177), (3.5, 3.3, 0.001482579140121915)])
def test_bessel_constant_unchanged_by_newton_zeros(alpha, p, want):
    got = bessel_constant(alpha, p).value
    assert got == pytest.approx(want, rel=0, abs=1e-14)


def test_bessel_zeros_rejects_negative_order():
    with pytest.raises(DomainError):
        bessel_zeros(-0.5, 3)


def test_cosine_constant_pole_structure():
    assert cosine_constant(0.5).value > 0
    assert cosine_constant(1.5).divergent
    assert cosine_constant(1.5).value == math.inf
    # denominator pole at p = 5/3 sends the constant to zero
    assert cosine_constant(5.0 / 3.0).value == 0.0


def test_bessel_constant_closed_sine_value():
    # alpha=1/2, beta=-1/2, p=2 collapses to (4/pi^2) int sin^4 u / u^2 du
    # = (4/pi^2)(pi/4) = 1/pi
    const = bessel_constant(0.5, 2.0)
    assert const.value == pytest.approx(1.0 / math.pi, rel=1e-6)


def test_bessel_constant_against_mpmath_quadosc():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 12

    def f(t):
        return 2 * abs(mpmath.besselj(0.5, 2 * t)) ** 4

    want = float(mpmath.quadosc(f, [0, mpmath.inf], period=mpmath.pi / 2))
    got = bessel_constant(0.5, 2.0).value
    # quadosc itself carries ~1e-4 error on this slowly decaying tail
    assert got == pytest.approx(want, rel=5e-4)


def test_bessel_constant_high_order_power_stays_finite():
    # alpha p = 84: past the first zero, |J_alpha(2t) / t^alpha|^{2p} would
    # underflow while t^{2 beta + 1 + 2p alpha} overflows.  At alpha = 20.5
    # the head panel's t^322 and its scale h^339 leave the float range
    # unless formed in logs; that value is a period-by-period mpmath
    # integral over 120 zeros
    for alpha, want in ((10.5, 9.108728279600462e-14), (20.5, 9.146443599781321e-17)):
        got = bessel_constant(alpha, 8.0).value
        assert got == pytest.approx(want, rel=1e-12)


# period-by-period mpmath integrals of C_B at p = 8 over 300 zeros: each period
# in 4 pieces, the head [0, z_1] in 32, each piece by mpmath's Gauss-Legendre
# nodes at 30 digits; the 24- and 48-node totals agree to all digits shown.
# At 1000.5 each period takes 2 pieces and the head [0.8 z_1, z_1] 64 (below
# 0.8 z_1 the integrand is under e^-1300 of its peak); the periods past the
# 300th hold 2e-11 of the total
BESSEL_P8_REFS = {100.5: 4.0766828200954129e-24, 200.5: 2.2941225821438686e-27,
                  300.5: 2.8050720246525842e-29, 1000.5: 5.4766456403074688e-35}


def test_bessel_head_at_high_order_matches_mpmath():
    # at alpha = 100.5 one unsliced 24-node head panel is 5.6e-3 off; the
    # planned and settled head holds a 25-digit Gauss-Legendre value over 80
    # sub-panels of [0, z_1], and C_B its period-by-period reference
    terms = rydberg._bessel_partial_terms(100.5, -3.5, 8.0, 40)
    assert terms[0] == pytest.approx(2.0258143902684920e-24, rel=1e-10, abs=0)
    assert bessel_constant(100.5, 8.0).value == \
        pytest.approx(BESSEL_P8_REFS[100.5], rel=1e-12, abs=0)


@pytest.mark.parametrize("alpha", [200.5, 300.5, 1000.5, 3000.5])
def test_bessel_head_past_its_nodes_raises(alpha):
    # one unsliced head panel does not settle at 200.5 and 300.5 (36 and 54
    # nodes differ by 4.9e-4 and 1.1e-2); sliced by specfun.plan_panels, the
    # head settles there at 24 and 36 nodes.  At 1000.5 its slices start
    # where the mass bound is negligible, and 400 of them hold it; slices
    # from t = 0 would pass the budget.  At 3000.5 the ratio
    # J_alpha(2t) / t^alpha, about e^-21960 on the head nodes, underflows
    # even in long double: every node adds 0 and settled rejects the sum
    if alpha in BESSEL_P8_REFS:
        assert bessel_constant.__wrapped__(alpha, 8.0).value == \
            pytest.approx(BESSEL_P8_REFS[alpha], rel=1e-9, abs=0)
        return
    with pytest.raises(AccuracyError, match="Bessel head panel"):
        bessel_constant.__wrapped__(alpha, 8.0)


def test_bessel_constant_past_the_float_range_carries_its_log():
    # J_(1/2)(2t) = sin(2t) / sqrt(pi t), so C_B(1/2, p) = pi^-p 4^(p-1)
    # int u^(2-2p) sin(u)^2p du; at p = 3000 that is e^712.13, past the
    # float range.  The reference takes the integral over [0, pi] by mpmath
    # at 30 digits (the rest is below pi^-6000)
    const = bessel_constant(0.5, 3000.0)
    assert const.value is None
    assert const.log_value == pytest.approx(712.1314441109057, rel=0, abs=1e-10)


def test_bessel_head_that_underflows_is_rejected_by_settled():
    # at (3000.5, 1.6) the planner stays inside its budget and every head
    # node underflows: settled rejects the sum 0.0 before the lobe check
    with pytest.raises(AccuracyError, match="Bessel head panel .* not positive"):
        bessel_constant.__wrapped__(3000.5, 1.6)


def test_bessel_constant_nan_estimate_raises(monkeypatch):
    monkeypatch.setattr(rydberg, "_bessel_partial_terms",
                        lambda alpha, beta, p, kzeros: np.full(kzeros + 1, np.nan))
    with pytest.raises(AccuracyError, match="did not converge"):
        bessel_constant.__wrapped__(0.5, 2.0)


def test_bessel_constant_domain_checks():
    with pytest.raises(DomainError):
        bessel_constant(0.5, 1.2)  # needs p > 3/2
    with pytest.raises(DomainError):
        bessel_constant(0.0, 4.0)  # origin exponent 2 - p <= -1


@pytest.mark.parametrize("p,regime,exponent", [
    (0.5, "cosine", 1.5),
    (1.5, "transition", 1.5),
    (2.0, "bessel", 0.5),
    (3.0, "bessel", 0.0),
])
def test_regime_dispatch(p, regime, exponent):
    av = renyi_radial_asymptotic(150, 0, p=p)
    assert av.regime == regime
    assert av.leading_exponent == pytest.approx(exponent, abs=1e-12)


def test_transition_order_carries_caveat():
    assert renyi_radial_asymptotic(150, 0, p=1.5).caveat
    assert not renyi_radial_asymptotic(150, 0, p=2.0).caveat
    assert not renyi_radial_asymptotic(150, 0, p=0.5).caveat


def test_asymptotic_tracks_exact_at_second_order():
    exact = renyi_radial_exact(QuantumState(100, 0, 0), p=2.0)
    asym = renyi_radial_asymptotic(100, 0, p=2.0)
    assert asym.value == pytest.approx(exact, abs=5e-3)


@pytest.mark.parametrize("l,bound", [(0, 1e-8), (3, 2e-7)])
def test_bessel_branch_gap_falls_as_n_to_the_minus_2(l, bound):
    # exact minus asymptotic radial Renyi entropy at p = 3 reads -6.95e-9 (l = 0)
    # and -1.31e-7 (l = 3) at n = 3000, with log-log slopes -2.0002 and -2.0006
    # from n = 1600; C_B scaled by 1 + 1e-6 moves every gap by ln(1 + 1e-6) / 2 = 5e-7
    gap = {n: renyi_radial_exact(QuantumState(n, l, 0), p=3.0)
           - renyi_radial_asymptotic(n, l, p=3.0).value for n in (1600, 3000)}
    assert abs(gap[3000]) < bound
    assert math.log(gap[3000] / gap[1600]) / math.log(3000 / 1600) == pytest.approx(-2, abs=0.05)


def test_shannon_asymptote_formula():
    # (3/2) ln n - (3/2) ln lam + ln pi - 1
    for n in (50, 300):
        want = 1.5 * math.log(n) + math.log(math.pi) - 1.0
        assert shannon_radial_asymptotic(n) == pytest.approx(want, rel=1e-13)
    shifted = shannon_radial_asymptotic(50, OscillatorParams(lam=4.0))
    assert shifted == pytest.approx(
        shannon_radial_asymptotic(50) - 1.5 * math.log(4.0), rel=1e-13)


def test_asymptotic_rejects_bad_arguments():
    with pytest.raises(DomainError):
        renyi_radial_asymptotic(100, 0, p=0.0)
    with pytest.raises(DomainError):
        renyi_radial_asymptotic(0, 0, p=2.0)
