"""Checks for the independent full-space reference integrator."""

import math

import numpy as np
import pytest

from oscent.entropy import renyi_total, shannon_total
from oscent.errors import AccuracyError, DomainError
from oscent.oracle import (GridSpec, full_density, normalization, renyi_full,
                           shannon_full)
from oscent.radial import OscillatorParams, QuantumState

GROUND = QuantumState(0, 0, 0)


def test_grid_validation():
    with pytest.raises(DomainError):
        GridSpec(radial_nodes=8)
    with pytest.raises(DomainError):
        GridSpec(cutoff=1.2)


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


def test_grid_doubling_is_stable():
    state = QuantumState(2, 2, 1)
    base = renyi_full(state, p=2.0)
    fine = renyi_full(state, p=2.0,
                      grid=GridSpec(radial_nodes=96, polar_nodes=96))
    assert fine == pytest.approx(base, abs=1e-8)


def test_short_cutoff_triggers_tail_certificate():
    with pytest.raises(AccuracyError):
        renyi_full(QuantumState(3, 2, 0), p=0.5, grid=GridSpec(cutoff=2.0))
