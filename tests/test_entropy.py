"""Checks for total entropies, conjugate pairs and uncertainty sums."""

import math

import pytest
from hypothesis import given, settings, strategies as hst

from oscent import entropy
from oscent.entropy import (SHANNON_SUM_BOUND, ConjugatePair, disequilibrium,
                            momentum_renyi, renyi_sum_bound, renyi_total,
                            shannon_total, tsallis_from_renyi,
                            uncertainty_sum)
from oscent.errors import DomainError
from oscent.radial import OscillatorParams, QuantumState

GROUND = QuantumState(0, 0, 0)


def test_ground_second_order_total():
    # Gaussian ground state: R_2 = (3/2) ln(2 pi) at lam = 1
    dec = renyi_total(GROUND, p=2.0)
    assert dec.total == pytest.approx(1.5 * math.log(2.0 * math.pi),
                                      abs=1e-12)
    assert dec.total == pytest.approx(dec.radial + dec.angular, abs=1e-15)
    assert dec.space == "position" and dec.mode == "exact"


def test_ground_disequilibrium():
    want = (2.0 * math.pi) ** -1.5
    assert disequilibrium(GROUND) == pytest.approx(want, rel=1e-12)


def test_ground_shannon_total():
    want = 1.5 * (1.0 + math.log(math.pi))
    assert shannon_total(GROUND).total == pytest.approx(want, abs=1e-12)


def test_tsallis_limits_and_values():
    assert tsallis_from_renyi(2.5, 1.0) == 2.5
    r = renyi_total(GROUND, p=2.0).total
    want = -math.expm1(-r)  # p = 2: T = 1 - e^{-R}
    assert tsallis_from_renyi(r, 2.0) == pytest.approx(want, rel=1e-14)
    # tiny (1-p) stays smooth thanks to expm1
    near = tsallis_from_renyi(2.5, 1.0 + 1e-9)
    assert near == pytest.approx(2.5, rel=1e-6)
    with pytest.raises(DomainError):
        tsallis_from_renyi(2.5, 0.0)


def test_tsallis_past_the_float_range_is_none():
    # e^800 and e^712 / 2 leave the float range; e^710.4 / 2 = e^709.7 does not
    assert tsallis_from_renyi(-800.0, 2.0) is None
    assert tsallis_from_renyi(-356.0, 3.0) is None
    assert tsallis_from_renyi(-355.2, 3.0) == pytest.approx(
        -math.exp(710.4 - math.log(2.0)), rel=1e-12)
    assert tsallis_from_renyi(-700.0, 2.0) == -math.expm1(700.0)


def test_momentum_shift_is_order_independent():
    params = OscillatorParams(lam=2.5)
    shift = 3.0 * math.log(2.5)
    assert momentum_renyi(1.0, params) == pytest.approx(1.0 + shift)


def test_momentum_space_total():
    params = OscillatorParams(lam=3.0)
    pos = renyi_total(QuantumState(1, 1, 0), params, 2.0)
    mom = renyi_total(QuantumState(1, 1, 0), params, 2.0, space="momentum")
    assert mom.total == pytest.approx(pos.total + 3.0 * math.log(3.0),
                                      abs=1e-12)


def test_conjugate_pair_construction():
    pair = ConjugatePair.of(2.0)
    assert pair.q == pytest.approx(2.0 / 3.0)
    assert ConjugatePair.of(1.0).q == pytest.approx(1.0)
    with pytest.raises(DomainError):
        ConjugatePair.of(0.5)
    with pytest.raises(DomainError):
        ConjugatePair(2.0, 0.75)  # not conjugate
    with pytest.raises(DomainError):
        ConjugatePair(0.4, 4.0)  # below 1/2


def test_sum_bound_shannon_limit():
    assert renyi_sum_bound(1.0, 1.0) == pytest.approx(SHANNON_SUM_BOUND,
                                                      abs=1e-14)
    assert SHANNON_SUM_BOUND == pytest.approx(
        3.0 * (1.0 + math.log(math.pi)), abs=1e-15)
    # formula is symmetric in its arguments
    assert renyi_sum_bound(2.0, 2.0 / 3.0) == \
        pytest.approx(renyi_sum_bound(2.0 / 3.0, 2.0), abs=1e-14)


def test_ground_saturates_conjugate_bounds():
    for p in (2.0, 3.0, 1.5):
        rec = uncertainty_sum(GROUND, pair=ConjugatePair.of(p))
        assert rec.saturated
        assert rec.sum == pytest.approx(rec.bound, abs=1e-9)


def test_ground_shannon_sum():
    rec = uncertainty_sum(GROUND, entropy_kind="shannon")
    assert rec.sum == pytest.approx(SHANNON_SUM_BOUND, abs=1e-9)
    assert rec.saturated
    assert rec.p == rec.q == 1.0


def test_shannon_sum_computes_position_total_once(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return shannon_total(*args, **kwargs)

    monkeypatch.setattr(entropy, "shannon_total", counted)
    uncertainty_sum(QuantumState(1, 1, 0), entropy_kind="shannon")
    assert len(calls) == 1


def test_excited_states_exceed_bound():
    for state in (QuantumState(1, 0, 0), QuantumState(0, 2, 1),
                  QuantumState(2, 1, 0)):
        rec = uncertainty_sum(state, pair=ConjugatePair.of(2.0))
        assert rec.sum > rec.bound + 1e-6
        assert not rec.saturated


def test_nonconjugate_pair_gatekeeping():
    with pytest.raises(DomainError):
        uncertainty_sum(GROUND, pair=(1.5, 3.0))
    rec = uncertainty_sum(GROUND, pair=(1.5, 3.0), allow_nonconjugate=True)
    assert rec.warnings
    assert rec.sum == pytest.approx(rec.bound, abs=1e-9)  # still a Gaussian
    with pytest.raises(DomainError):
        uncertainty_sum(GROUND, pair=(0.4, 3.0), allow_nonconjugate=True)


def test_renyi_kind_requires_pair():
    with pytest.raises(DomainError):
        uncertainty_sum(GROUND)
    with pytest.raises(DomainError):
        uncertainty_sum(GROUND, entropy_kind="no_such_kind", pair=(2.0, 2.0 / 3.0))


@given(hst.floats(min_value=0.3, max_value=4.0))
@settings(max_examples=20, deadline=None)
def test_uncertainty_sum_is_scale_free(lam):
    # position loses (3/2) ln lam, momentum gains it back
    base = uncertainty_sum(QuantumState(1, 1, 1),
                           pair=ConjugatePair.of(2.0)).sum
    scaled = uncertainty_sum(QuantumState(1, 1, 1), OscillatorParams(lam),
                             pair=ConjugatePair.of(2.0)).sum
    assert scaled == pytest.approx(base, abs=1e-8)


def test_asymptotic_mode_tracks_exact():
    dec = renyi_total(QuantumState(80, 0, 0), p=2.0, mode="asymptotic")
    assert dec.mode == "asymptotic"
    assert dec.warnings == ()
    exact = renyi_total(QuantumState(80, 0, 0), p=2.0)
    assert dec.total == pytest.approx(exact.total, abs=5e-3)


def test_odd_order_total_carries_no_sign_warning():
    # (l, m) = (2, 0) at 2p = 5 is a quadrature value, not a flagged one
    dec = renyi_total(QuantumState(1, 2, 0), p=2.5)
    assert dec.warnings == ()


def test_transition_order_caveat_becomes_warning():
    dec = renyi_total(QuantumState(80, 0, 0), p=1.5, mode="asymptotic")
    assert any("remainder" in w for w in dec.warnings)


def test_shannon_asymptotic_mode():
    dec = shannon_total(QuantumState(120, 0, 0), mode="asymptotic")
    exact = shannon_total(QuantumState(120, 0, 0))
    assert dec.total == pytest.approx(exact.total, abs=0.2)


def test_total_rejects_unknown_labels():
    with pytest.raises(DomainError):
        renyi_total(GROUND, p=2.0, mode="no_such_mode")
    with pytest.raises(DomainError):
        renyi_total(GROUND, p=2.0, space="no_such_space")
