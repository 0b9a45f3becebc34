import math
from itertools import permutations

import numpy as np
import pytest

from ktgeo.catalog import (
    BoxChart, HermitianManifold, catalog_names, get_manifold, _block_j, _const_field,
)
from ktgeo.identities import Evaluation, run_identity_suite
from ktgeo.tensor_core import kahler_form_values


@pytest.fixture(scope="session")
def manifolds():
    return {name: get_manifold(name) for name in catalog_names()}


def sample(name, n=8, seed=0):
    return get_manifold(name).sample_points(n, seed)


def lee_fn(m):
    """The Lee form of ``m`` as a batched field."""
    return lambda p: Evaluation(m, p).theta


def kahler_form(m):
    """The Kaehler form omega(X,Y) = g(X, JY) of ``m`` as a batched field."""
    return lambda p: kahler_form_values(m.metric(p), m.complex_structure(p))


def alt(t, valence):
    """Reference projector: the mean of the signed permutations of the
    trailing ``valence`` axes."""
    lead = tuple(range(t.ndim - valence))
    out = sum(np.linalg.det(np.eye(valence)[list(p)])
              * np.transpose(t, lead + tuple(len(lead) + i for i in p))
              for p in permutations(range(valence)))
    return out / math.factorial(valence)


def richardson_ratios(m, pts, h=4e-3):
    """Each identity residual at step ``h`` over the one at ``h / 2``: near 4
    where second-order truncation dominates, inf where both are at roundoff."""
    coarse, fine = ({e.name: e.max_residual for e in run_identity_suite(m, pts, step)}
                    for step in (h, h / 2))
    return {name: float("inf") if max(coarse[name], fine[name]) < 1e-13
            else coarse[name] / max(fine[name], 1e-300) for name in coarse}


def _block_conformal_metric(p):
    x = np.asarray(p, dtype=float)
    f = (0.2 * np.sin(x[..., 2]) * np.cos(x[..., 4]),
         0.3 * np.cos(x[..., 0] + x[..., 5]),
         0.25 * np.sin(x[..., 1] - x[..., 3]))
    g = np.zeros(x.shape[:-1] + (6, 6))
    for k, fk in enumerate(f):
        g[..., 2 * k, 2 * k] = g[..., 2 * k + 1, 2 * k + 1] = np.exp(2.0 * fk)
    return g


def block_conformal_torus_6():
    """A Hermitian 6-torus that is not locally conformally Kaehler: each
    complex line is rescaled by its own factor."""
    return HermitianManifold(
        name="block_conformal_torus_6", dim=6,
        chart=BoxChart(lows=(0.0,) * 6, highs=(2 * np.pi,) * 6),
        metric=_block_conformal_metric, complex_structure=_const_field(_block_j(6)),
        lck=False)


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
