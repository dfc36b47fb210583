"""Shared fixtures: every test starts and ends with empty component caches; and
the one way the series tests evaluate a panel integrand, as power_panels does."""

import numpy as np
import pytest

from oscent import angular, radial, specfun

COMPONENT_CACHES = (radial._laguerre_norm, radial._shannon_log_integral,
                    angular._renyi_angular, angular._shannon_angular)


def clear_component_caches():
    for cache in COMPONENT_CACHES:
        cache.cache_clear()


@pytest.fixture(autouse=True)
def fresh_components():
    """Clear the radial and angular component caches around each test, so no
    test sees a value, or a stub's return, that another test left; a test
    that patches an internal and takes a value again calls the fixture's
    value to take it uncached."""
    clear_component_caches()
    yield clear_component_caches
    clear_component_caches()


def rows_at_rule_nodes(poly, panels, m=36):
    """The integrand poly of power_panels (panel_rows) at the nodes x of the
    gauss_jacobi(m, 2, 2) rule mapped onto each panel, called as power_panels
    calls it, with that rule from the store: returns x, (panels, m), and poly there."""
    rule = specfun._jacobi_rules([(2.0, 2.0)], (m,))[0]
    lo, hi = (np.array(col, dtype=np.longdouble)[:, None] for col in list(zip(*panels))[:2])
    x = lo + (hi - lo) / 2 * (1 + rule[0])
    return x, poly(x, [0] * len(panels), [rule])
