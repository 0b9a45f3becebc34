import importlib.util
import math
import os
import sys
from itertools import permutations

import numpy as np
import pytest

from ktgeo.catalog import (
    BoxChart, HermitianManifold, catalog_names, get_manifold, _block_j, _const_field,
)
from ktgeo.identities import Evaluation, run_identity_suite
from ktgeo.tensor_core import (
    codifferential_of, covariant_derivative_of, fd_partial, hodge_star_values,
    kahler_form_values,
)


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


def hodge_star(alpha, g, valence):
    """Reference Hodge star over metric values ``g``: g is factored as
    L L^T, its inverse and sqrt(det g) = prod diag(L) read off L, and the
    kernel's star applied; the engine's reads the held inverse and
    sqrt(det g) of an evaluation."""
    chol = np.linalg.cholesky(g)
    inv = np.linalg.inv(chol)
    return hodge_star_values(alpha, inv.swapaxes(-1, -2) @ inv,
                             np.prod(np.diagonal(chol, axis1=-2, axis2=-1), axis=-1), valence)


def codiff_of_field(ev, fn, valence):
    """Reference codifferential of a ``valence``-form field ``fn`` at the
    points of the evaluation ``ev``, composed from the kernel's stencil,
    Levi-Civita derivative and trace; the engine's own reads held primitives."""
    nab = covariant_derivative_of(fd_partial(fn, ev.pts, ev.step), fn(ev.pts),
                                  ev.gamma("levi_civita"), valence)
    return codifferential_of(nab, ev.ginv, valence)


def slot_by_slot(t, mat, valence, slots):
    """Reference transport ``t(M., .., M.)`` in ``slots``: one product per
    slot, each result reshaped back to a tensor before the next slot, every
    slot but the last with ``M^T`` broadcast over a prefix axis; the engine's
    ``slotwise`` keeps one running product instead."""
    d = mat.shape[-1]
    batch_ndim = max(t.ndim - valence, mat.ndim - 2)
    out = t
    for s in slots:
        lead = out.shape[:out.ndim - valence]
        if s == valence - 1:
            flat = out.reshape(lead + (-1, d)) @ mat
        else:
            flat = mat.swapaxes(-1, -2)[..., None, :, :] @ out.reshape(lead + (d ** s, d, -1))
        out = flat.reshape(flat.shape[:batch_ndim] + (d,) * valence)
    return out


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
    coarse, fine = ({e.name: e.residual for e in run_identity_suite(Evaluation(m, pts, step))}
                    for step in (h, h / 2))
    return {name: float("inf") if max(coarse[name], fine[name]) < 1e-13
            else coarse[name] / max(fine[name], 1e-300) for name in coarse}


def _block_conformal_metric(factors):
    """diag(exp(2 f_k) I_2): the k-th complex line rescaled by its own factor
    ``f_k(x)``."""
    def metric(p):
        x = np.asarray(p, dtype=float)
        g = np.zeros(x.shape[:-1] + (2 * len(factors),) * 2)
        for k, fk in enumerate(factors):
            g[..., 2 * k, 2 * k] = g[..., 2 * k + 1, 2 * k + 1] = np.exp(2.0 * fk(x))
        return g
    return metric


def _block_conformal_torus(name, factors):
    dim = 2 * len(factors)
    return HermitianManifold(
        name=name, chart=BoxChart(lows=(0.0,) * dim, highs=(2 * np.pi,) * dim),
        metric=_block_conformal_metric(factors),
        complex_structure=_const_field(_block_j(dim)))


def block_conformal_torus_6():
    """A Hermitian 6-torus that is not locally conformally Kaehler: each
    complex line is rescaled by its own factor, so T does not have the LCK
    shape."""
    return _block_conformal_torus("block_conformal_torus_6", (
        lambda x: 0.2 * np.sin(x[..., 2]) * np.cos(x[..., 4]),
        lambda x: 0.3 * np.cos(x[..., 0] + x[..., 5]),
        lambda x: 0.25 * np.sin(x[..., 1] - x[..., 3])))


def block_conformal_torus_4():
    """A Hermitian 4-torus that is not locally conformally Kaehler: T has the
    LCK shape, as on every Hermitian surface, but the Lee form is not
    closed."""
    return _block_conformal_torus("block_conformal_torus_4", (
        lambda x: 0.3 * np.sin(x[..., 0] + x[..., 2]) + 0.2 * np.cos(x[..., 3]),
        lambda x: 0.25 * np.cos(x[..., 1] - x[..., 3]) + 0.2 * np.sin(x[..., 0])))


def benchmark_module(stem):
    """The benchmark's module ``ktbench/<stem>.py`` of this checkout,
    loaded once as ``bench_<stem>``."""
    name = f"bench_{stem}"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, os.path.join(
            os.path.dirname(__file__), os.pardir, "ktbench", f"{stem}.py"))
        module = sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)  # its dataclasses look their module up
    return sys.modules[name]


def pulled_charts():
    """The names of the benchmark's three pulled-back charts, registered:
    d = 4 charts, each with a conformal parent."""
    workloads = benchmark_module("workloads")
    workloads.install_pulled_charts()
    return list(workloads.PULLED_CHARTS)


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
