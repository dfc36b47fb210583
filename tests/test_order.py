"""Checks for the entropic order: the Shannon point and the near-1 band."""

import pytest

from oscent.entropy import renyi_total, shannon_total
from oscent.errors import DomainError
from oscent.order import EntropyOrder, as_order
from oscent.radial import QuantumState

EDGE = 1.01e-5  # just outside the band


@pytest.mark.parametrize("p", [1.0, 1.0 + 1e-13, 1.0 - 1e-12, 1.0 + 9e-13])
def test_shannon_point_snaps(p):
    assert as_order(p).is_unity


@pytest.mark.parametrize("d", [2e-12, 1e-11, 1e-8, 1e-7, 1e-6, 9.9e-6])
@pytest.mark.parametrize("sign", [1, -1])
def test_near_unity_band_is_rejected(d, sign):
    with pytest.raises(DomainError, match="near-1 band"):
        EntropyOrder(1.0 + sign * d)


def test_renyi_near_unity_raises_instead_of_returning_garbage():
    # ln N / (1 - p) at |p - 1| = 1e-11 returned -0.693 where S = 5.054
    with pytest.raises(DomainError, match="near-1 band"):
        renyi_total(QuantumState(3, 2, 0), p=1 + 1e-11)
    with pytest.raises(DomainError, match="Shannon limit"):
        renyi_total(QuantumState(3, 2, 0), p=1 + 1e-13)


@pytest.mark.parametrize("n,l,m", [(0, 0, 0), (3, 2, 0), (10, 4, 1), (0, 4, 3),
                                   (10, 3, 3)])
def test_values_just_outside_the_band(n, l, m):
    # reference S + d R'(1) + d^2 R''(1) / 2 from differences at h = 1e-3;
    # at d = 1e-5 its own error is some 1e-11, far inside the 1e-9 asked
    state, h = QuantumState(n, l, m), 1e-3
    s = shannon_total(state).total
    up, dn = (renyi_total(state, p=1 + h).total, renyi_total(state, p=1 - h).total)
    d1, d2 = (up - dn) / (2 * h), (up - 2 * s + dn) / h ** 2
    for p in (1 + EDGE, 1 - EDGE):
        d = p - 1
        want = s + d * d1 + 0.5 * d * d * d2
        assert abs(renyi_total(state, p=p).total - want) <= 1e-9, p
