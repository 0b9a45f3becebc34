from dataclasses import replace

import numpy as np
import pytest

from ktgeo import identities
from ktgeo.catalog import (
    catalog_names, conformal_rescale, get_manifold, hermitian_residuals, nijenhuis_values,
    quaternion_residual,
)
from ktgeo.connections import lee_form_values
from ktgeo.errors import UnknownManifoldError
from ktgeo.identities import Evaluation
from ktgeo.tensor_core import metric_inverse, norm_sq_values, slotwise

from conftest import block_conformal_torus_4, block_conformal_torus_6, pulled_charts

_BLOCK_TORI = {m.name: m for m in (block_conformal_torus_4(), block_conformal_torus_6())}
_PULLED = ("pulled_conf_torus_4", "pulled_hopf_standard", "pulled_hopf_hkt")


def test_catalog_listing():
    assert catalog_names() == ["flat_torus_4", "flat_torus_6", "hopf_standard",
                               "su2xu1", "hopf_hkt", "conf_torus_4", "conf_torus_6"]


def test_unknown_name_mentions_catalog():
    with pytest.raises(UnknownManifoldError, match="hopf_standard"):
        get_manifold("no_such_geometry")


@pytest.mark.parametrize("name", catalog_names())
def test_structure_invariants_on_64_points(name):
    m = get_manifold(name)
    pts = m.sample_points(64, seed=11)
    res = hermitian_residuals(m, pts)
    assert res["metric_min_eigenvalue"] > 0
    assert res["j_square_residual"] < 1e-10
    assert res["compatibility_residual"] < 1e-10
    assert res["nijenhuis_residual"] < 1e-6
    if m.hypercomplex is not None:
        assert res["quaternion_residual"] < 1e-8


def _chart(name):
    """A catalog chart, a benchmark's pulled chart or a block torus."""
    if name in _PULLED:
        pulled_charts()
    return _BLOCK_TORI.get(name) or get_manifold(name)


def _triple(m):
    """``m`` and, where it has a hypercomplex triple, its other structures."""
    return [m] + [replace(m, complex_structure=j, hypercomplex=None)
                  for j in m.hypercomplex or ()]


def _residuals_structure_by_structure(m, pts):
    """The residuals of ``hermitian_residuals``, each structure of the
    triple read off its own evaluation, which takes a pass of J of its own."""
    evs = [Evaluation(s, pts) for s in _triple(m)]
    g, eye = evs[0].g, np.eye(m.dim)
    out = {
        "metric_min_eigenvalue": float(np.linalg.eigvalsh(g).min()),
        "j_square_residual": max(float(np.abs(np.einsum("...ik,...kj->...ij", e.J, e.J)
                                              + eye).max()) for e in evs),
        "compatibility_residual": max(float(np.abs(slotwise(g, e.J, 2) - g).max())
                                      for e in evs),
        "nijenhuis_residual": max(float(np.abs(nijenhuis_values(e.J, e.partial("J"))).max())
                                  for e in evs),
    }
    if m.hypercomplex is not None:
        out["quaternion_residual"] = quaternion_residual([e.J for e in evs])
    return out


@pytest.mark.parametrize("points", [8, 16])
@pytest.mark.parametrize("name", catalog_names() + list(_PULLED) + list(_BLOCK_TORI))
def test_hermitian_residuals_are_each_structures_own(name, points):
    # the triple's structures join one evaluation, and each reads bit for
    # bit what its own evaluation reads
    m = _chart(name)
    pts = m.sample_points(points, seed=0)
    assert hermitian_residuals(m, pts) == _residuals_structure_by_structure(m, pts)


@pytest.mark.parametrize("points, blocks", [(8, [24]), (16, [32, 16])])
@pytest.mark.parametrize("name", ["hopf_hkt", "pulled_hopf_hkt"])
def test_hermitian_residuals_take_one_stencil_pass(monkeypatch, name, points, blocks):
    # the chart and its two structures are the members of one evaluation,
    # whose one pass of J takes every structure's derivative: in one block
    # of 24 points at 8 points each, in two that end where a member does at 16
    m = _chart(name)
    calls, real = [], identities.fd_partial

    def fd_partial(fn, p, step):
        calls.append(len(p))
        return real(fn, p, step)

    monkeypatch.setattr(identities, "fd_partial", fd_partial)
    hermitian_residuals(m, m.sample_points(points, seed=0))
    assert calls == blocks


def test_flat_torus_is_kahler():
    m = get_manifold("flat_torus_4")
    ev = Evaluation(m, m.sample_points(8, seed=0))
    assert np.max(np.abs(ev.T)) < 1e-12
    assert np.max(np.abs(ev.theta)) < 1e-12


def test_hopf_parallel_lee_and_flat_ricci_form():
    m = get_manifold("hopf_standard")
    pts = m.sample_points(8, seed=0)
    ev = Evaluation(m, pts)
    assert np.max(np.abs(ev.rho)) < 1e-5
    assert np.max(np.abs(ev.ric)) < 1e-5
    assert np.max(np.abs(ev.nabla("theta", "levi_civita"))) < 1e-5


def test_su2xu1_flat_parallel_torsion():
    m = get_manifold("su2xu1")
    ev = Evaluation(m, m.sample_points(8, seed=0))
    assert np.max(np.abs(ev.riemann("bismut"))) < 1e-6
    assert np.max(np.abs(ev.nabla("T", "bismut"))) < 1e-6
    assert np.max(np.abs(ev.dT)) < 1e-6
    assert np.max(np.abs(ev.codiff("T"))) < 1e-6


def test_hopf_and_su2xu1_share_scalar_invariants():
    vals = {}
    for name in ("hopf_standard", "su2xu1"):
        m = get_manifold(name)
        pts = m.sample_points(12, seed=1)
        ev = Evaluation(m, pts)
        theta2 = norm_sq_values(ev.theta, ev.ginv, 1)
        torsion2 = norm_sq_values(ev.T, ev.ginv, 3)
        vals[name] = (theta2, torsion2, ev.scal)
    for a, b in zip(vals["hopf_standard"], vals["su2xu1"]):
        assert np.max(np.abs(a[:, None] - b[None, :])) < 1e-4


def test_hkt_kahler_forms_share_one_torsion():
    m = get_manifold("hopf_hkt")
    pts = m.sample_points(8, seed=0)
    from dataclasses import replace
    variants = [m] + [replace(m, complex_structure=j, hypercomplex=None)
                      for j in m.hypercomplex]
    evs = [Evaluation(v, pts) for v in variants]
    torsions = [ev.T for ev in evs]
    lees = [lee_form_values(ev) for ev in evs]
    for i in range(3):
        for j in range(i + 1, 3):
            assert np.max(np.abs(torsions[i] - torsions[j])) < 1e-6
            assert np.max(np.abs(lees[i] - lees[j])) < 1e-6


def test_conformal_rescale_identity_and_consistency():
    flat = get_manifold("flat_torus_4")
    same = conformal_rescale(flat, lambda p: np.zeros(np.asarray(p).shape[:-1]))
    pts = flat.sample_points(8, seed=0)
    assert np.max(np.abs(same.metric(pts) - flat.metric(pts))) == 0.0

    f = lambda p: 0.3 * np.sin(np.asarray(p)[..., 0]) * np.cos(np.asarray(p)[..., 2])
    rebuilt = conformal_rescale(flat, f)
    conf = get_manifold("conf_torus_4")
    assert np.max(np.abs(rebuilt.metric(pts) - conf.metric(pts))) < 1e-15
    assert rebuilt.conformal_parent.parent.name == "flat_torus_4"


def test_hopf_is_rescaled_flat_chart_with_conformal_lee_law():
    m = get_manifold("hopf_standard")
    assert m.conformal_parent is not None
    pts = m.sample_points(8, seed=0)
    r2 = np.sum(pts * pts, axis=-1)
    # dim-4 conformal change law from a Kaehler parent: theta = 2 df = -2 dln r
    oracle = -2.0 * pts / r2[:, None]
    theta = Evaluation(m, pts).theta
    assert np.max(np.abs(theta - oracle)) < 1e-5
    theta2 = norm_sq_values(theta, metric_inverse(m.metric(pts)), 1)
    assert np.max(np.abs(theta2 - 4.0)) < 1e-5


def test_sampling_is_deterministic_and_in_domain():
    for name in catalog_names():
        m = get_manifold(name)
        a = m.sample_points(16, seed=3)
        b = m.sample_points(16, seed=3)
        assert np.array_equal(a, b)
        c = m.sample_points(16, seed=4)
        assert not np.array_equal(a, c)
        assert np.all(m.chart.interior_mask(a, 0.04))


# sample_points(2, seed) of a box with a tight axis and of an annulus.  The
# points are drawn from random.random() alone, whose sequence for an int seed
# Python keeps the same on every version, so a seed names these points on
# every supported Python and NumPy
PINNED_POINTS = {
    ("su2xu1", 0): [[1.140394817007219, 5.5341238896378, 1.894693933042128,
                     -0.14772649609143995],
                    [0.7095229159791382, 2.3710119869850907, 3.475656971773518,
                     -0.5795099044236673]],
    ("su2xu1", 1): [[0.2760499212265322, 2.2222136421593306, 3.7090986526002196,
                     0.7617017724837771],
                    [1.9632374877835304, 4.540915950909482, 1.2151016608986103,
                     0.16153114669826407]],
    ("hopf_standard", 0): [[0.01733027340178583, -0.1155427064193976, 0.5860868375176794,
                            0.7867561176949176],
                           [0.27475226384565155, 0.11914069580073447, 0.04908627924275359,
                            -1.1776716852433218]],
    ("hopf_standard", 1): [[0.7539384220075184, -0.7935976261504372, -1.3372731787165995,
                            0.027771741349943122],
                           [-0.3209159823151481, -0.832400026800046, -0.49831177205144583,
                            0.8505751716750436]],
}


@pytest.mark.parametrize("name, seed", sorted(PINNED_POINTS))
def test_a_seed_names_the_same_points_on_every_python(name, seed):
    assert get_manifold(name).sample_points(2, seed).tolist() == PINNED_POINTS[name, seed]
