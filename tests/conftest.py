"""Shared fixtures: every test starts and ends with empty component caches."""

import pytest

from oscent import angular, radial

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
