"""Checks for the independent full-space reference integrator."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from oscent import oracle
from oscent.entropy import renyi_total, shannon_total
from oscent.errors import AccuracyError
from oscent.oracle import full_density, normalization, renyi_full, shannon_full
from oscent.radial import OscillatorParams, QuantumState

GROUND = QuantumState(0, 0, 0)


def test_ground_density_is_gaussian():
    lam = 1.7
    params = OscillatorParams(lam=lam)
    for r in (0.0, 0.4, 1.3):
        want = (lam / math.pi) ** 1.5 * math.exp(-lam * r * r)
        got = full_density(GROUND, params, r=r, theta=0.8, phi=2.0)
        assert got == pytest.approx(want, rel=1e-12)


def test_density_broadcasts_and_ignores_phi_phase():
    state = QuantumState(1, 2, 1)
    r = np.linspace(0.1, 3.0, 7)
    a = full_density(state, r=r, theta=1.1, phi=0.3)
    b = full_density(state, r=r, theta=1.1, phi=2.9)
    assert a.shape == (7,)
    assert np.all(a >= 0)
    np.testing.assert_allclose(a, b, rtol=1e-13)


@pytest.mark.parametrize("state", [GROUND, QuantumState(2, 1, -1),
                                   QuantumState(1, 3, 2)])
def test_normalization(state):
    assert normalization(state) == pytest.approx(1.0, abs=1e-9)


def test_full_renyi_matches_decomposition_lattice_order():
    state = QuantumState(1, 1, 0)
    want = renyi_total(state, p=2.0).total
    got = renyi_full(state, p=2.0)
    assert got == pytest.approx(want, abs=1e-9)


def test_full_renyi_matches_decomposition_fractional_order():
    # 2p odd: integrand powers are non-polynomial, edges must be graded
    state = QuantumState(1, 1, 1)
    want = renyi_total(state, p=0.5).total
    got = renyi_full(state, p=0.5)
    assert got == pytest.approx(want, abs=1e-8)


@pytest.mark.parametrize("state", [QuantumState(10, 4, 1), QuantumState(7, 4, 4),
                                   QuantumState(0, 4, 0)])
@pytest.mark.parametrize("p", [0.7, 2.8, 1.0])
def test_full_space_matches_decomposition_at_fractional_2p(state, p):
    # 2p and m p off the integers, or Shannon's logarithm: the integrand is
    # singular at every panel end
    if p == 1.0:
        want, got = shannon_total(state).total, shannon_full(state)
    else:
        want, got = renyi_total(state, p=p).total, renyi_full(state, p=p)
    assert got == pytest.approx(want, abs=1e-9)


@pytest.mark.parametrize("n", [200, 400])
def test_radial_profile_stays_in_range_at_large_n(n):
    # L_n alone passes the float range on the ghost panel from n = 120: cast to
    # float it overflowed (NaN ghost sum at n = 400); the profile forms e^(-x/2) L_n
    # in long double.  6.0e-12 and 6.8e-11 off the decomposition, against the
    # oracle's certification limit of 1e-7 (ORACLE_ABS_TOL in bench/workloads.py)
    state = QuantumState(n, 0, 0)
    assert renyi_full(state, p=2.2) == pytest.approx(renyi_total(state, p=2.2).total,
                                                     abs=1e-7)


def test_full_shannon_matches_decomposition():
    for state in (GROUND, QuantumState(1, 1, 0)):
        want = shannon_total(state).total
        got = shannon_full(state)
        assert got == pytest.approx(want, abs=1e-8)


def test_strength_parameter_respected():
    params = OscillatorParams(lam=2.0)
    want = renyi_total(QuantumState(1, 0, 0), params, 2.0).total
    got = renyi_full(QuantumState(1, 0, 0), params, p=2.0)
    assert got == pytest.approx(want, abs=1e-9)


@pytest.mark.parametrize("p", [2.0, 0.7, 2.8, 1.0])
def test_grid_doubling_is_stable(monkeypatch, p):
    def value(state):
        return shannon_full(state) if p == 1.0 else renyi_full(state, p=p)

    states = (QuantumState(2, 2, 1), QuantumState(7, 4, 4),
              QuantumState(10, 4, 1))
    base = [value(s) for s in states]
    monkeypatch.setattr(oracle, "_NODES", 96)
    fine = [value(s) for s in states]
    assert fine == pytest.approx(base, abs=1e-13)


@pytest.mark.parametrize("state", [QuantumState(10, 4, 1), QuantumState(7, 4, 4)])
def test_block_size_moves_values_by_rounding_only(monkeypatch, state):
    def values():
        return [renyi_full(state, p=0.7), renyi_full(state, p=2.8),
                shannon_full(state)]

    base = values()
    monkeypatch.setattr(oracle, "_BLOCK_BYTES", 1)  # one radial row per block
    assert values() == pytest.approx(base, rel=0, abs=1e-14)


def test_sweep_memory_stays_flat_at_a_large_state():
    # the full grid holds 4753 x 2037 doubles, 77 MB; the sweep holds blocks
    state = QuantumState(40, 20, 0)
    tracemalloc.start()
    try:
        shannon_full(state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6


@pytest.mark.parametrize("state", [QuantumState(3, 3, 3), QuantumState(10, 4, 0)])
def test_shannon_zero_density_raises_no_warning(state):
    # (1 - t^2)^3 rounds to 0 at the polar ends, exp(-lam r^2) in the far tail
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert math.isfinite(shannon_full(state))


@pytest.mark.parametrize("state", [GROUND, QuantumState(3, 1, 0), QuantumState(3, 3, 3),
                                   QuantumState(7, 4, 4), QuantumState(10, 4, 0),
                                   QuantumState(10, 4, 1), QuantumState(40, 20, 0)])
def test_renyi_skips_pow_only_where_it_adds_nothing(state):
    # points at or below tiny^(1/p) are set to 0 unraised: bitwise the plain sweep
    params = OscillatorParams()
    for p in (0.5, 0.7, 1.3, 2.2, 2.8, 4.0, 12.0):
        plain = oracle._tensor_value(state, params, p,
                                     lambda d, s: np.power(d, p, out=d))
        assert renyi_full(state, p=p).hex() == (math.log(plain) / (1.0 - p)).hex()


@pytest.mark.parametrize("state", [QuantumState(3, 3, 3), QuantumState(10, 4, 0)])
@pytest.mark.parametrize("p", [0.7, 2.8])
def test_renyi_zero_density_raises_no_warning(state, p):
    # the skipped points: exact zeros at every order, underflowing powers above 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert math.isfinite(renyi_full(state, p=p))


def test_ground_state_below_unit_order():
    # rho^p decays like exp(-p lam r^2): the radial reach must grow as 1/sqrt(p)
    want = 1.5 * math.log(math.pi) + 3.0 * math.log(2.0)
    assert renyi_full(GROUND, p=0.5) == pytest.approx(want, abs=1e-13)


def test_short_cutoff_triggers_tail_certificate(monkeypatch):
    # at p = 1/2 a multiplier 2 sqrt(1/2) reaches 2 sqrt((2n + l + 3/2)/lam),
    # short of the tail
    monkeypatch.setattr(oracle, "_CUTOFF", 2.0 * math.sqrt(0.5))
    with pytest.raises(AccuracyError):
        renyi_full(QuantumState(3, 2, 0), p=0.5)
