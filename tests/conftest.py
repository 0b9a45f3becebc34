import pytest

from ktgeo.catalog import catalog_names, get_manifold
from ktgeo.connections import lee_form_values


@pytest.fixture(scope="session")
def manifolds():
    return {name: get_manifold(name) for name in catalog_names()}


def sample(name, n=8, seed=0):
    return get_manifold(name).sample_points(n, seed)


def lee_fn(m):
    """The Lee form of ``m`` as a batched field."""
    return lambda p: lee_form_values(m, p, check=False)


@pytest.fixture(scope="session")
def hopf():
    return get_manifold("hopf_standard")


@pytest.fixture(scope="session")
def su2():
    return get_manifold("su2xu1")


@pytest.fixture(scope="session")
def flat4():
    return get_manifold("flat_torus_4")


@pytest.fixture(scope="session")
def conf4():
    return get_manifold("conf_torus_4")
