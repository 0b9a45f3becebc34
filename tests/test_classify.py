import types
from dataclasses import replace

import numpy as np
import pytest

from ktgeo.catalog import catalog_names, get_manifold
from ktgeo.classify import check_hkt, classify, vanishing_hypotheses
from ktgeo.errors import PreconditionError
from ktgeo.identities import Evaluation, run_identity_suite, verify_dim4
from ktgeo.string_eqs import run_string_suite

EXPECTED_FLAGS = {
    #            kahler strong almost balanced lck   su
    "flat_torus_4": (True, True, True, True, True, True),
    "flat_torus_6": (True, True, True, True, True, True),
    "hopf_standard": (False, True, True, False, True, True),
    "su2xu1": (False, True, True, False, True, True),
    "hopf_hkt": (False, True, True, False, True, True),
    "conf_torus_4": (False, False, False, False, True, True),
    "conf_torus_6": (False, False, False, False, True, False),
}


@pytest.mark.parametrize("name", catalog_names())
def test_expected_flags(name):
    m = get_manifold(name)
    flags = classify(m, m.sample_points(8, seed=0))
    got = (flags.kahler, flags.strong_kt, flags.almost_strong_kt,
           flags.balanced, flags.lck, flags.su_holonomy_indicator)
    assert got == EXPECTED_FLAGS[name], flags.residuals


@pytest.mark.parametrize("name", catalog_names())
def test_taxonomy_implications(name):
    m = get_manifold(name)
    flags = classify(m, m.sample_points(8, seed=1))
    if flags.kahler:
        assert flags.strong_kt
    if flags.strong_kt:
        assert flags.almost_strong_kt


def test_dim4_almost_strong_equals_strong():
    for name in ("flat_torus_4", "hopf_standard", "su2xu1", "conf_torus_4", "hopf_hkt"):
        m = get_manifold(name)
        flags = classify(m, m.sample_points(8, seed=2))
        assert flags.almost_strong_kt == flags.strong_kt, name


def test_su_indicator_monotone_in_tolerance():
    for name in ("hopf_standard", "conf_torus_4"):
        m = get_manifold(name)
        pts = m.sample_points(6, seed=0)
        tight = classify(m, pts, tol=1e-6)
        loose = classify(m, pts, tol=1e-3)
        if tight.su_holonomy_indicator:
            assert loose.su_holonomy_indicator


@pytest.mark.parametrize("entry", [classify, run_identity_suite, verify_dim4,
                                   run_string_suite, vanishing_hypotheses],
                         ids=lambda f: f.__name__)
def test_empty_point_set_rejected(flat4, entry):
    with pytest.raises(PreconditionError, match="non-empty point set"):
        entry(flat4, np.empty((0, 4)))


def test_check_hkt_hopf_triple():
    m = get_manifold("hopf_hkt")
    flags = check_hkt(m, m.sample_points(8, seed=0))
    assert flags.quaternion_residual < 1e-8
    assert flags.torsion_match_residual < 1e-5
    assert flags.lee_match_residual < 1e-5
    assert flags.hkt


def test_check_hkt_flat_quaternionic_torus(flat4):
    # constant quaternionic triple on the flat torus: the hyper-Kaehler case
    hkt_src = get_manifold("hopf_hkt")
    m = replace(flat4, name="flat_hkt", hypercomplex=hkt_src.hypercomplex)
    flags = check_hkt(m, m.sample_points(8, seed=0))
    assert flags.hkt


def test_check_hkt_requires_triple(hopf):
    with pytest.raises(PreconditionError):
        check_hkt(hopf, hopf.sample_points(2, seed=0))


def test_vanishing_hypotheses_flat(flat4):
    out = vanishing_hypotheses(flat4, flat4.sample_points(6, seed=0))
    assert abs(out["plurigenera_margin"]) < 1e-10
    assert abs(out["quad_form_min_eig"]) < 1e-10


def test_vanishing_hypotheses_hopf(hopf):
    # b = 0 and h = 0 there, so the margin is min |C|^2 = 8 and the quadratic
    # form is <i_X C, i_Y C> with smallest eigenvalue 2
    out = vanishing_hypotheses(hopf, hopf.sample_points(8, seed=0))
    assert out["plurigenera_margin"] > 0
    assert abs(out["plurigenera_margin"] - 8.0) < 1e-4
    assert out["quad_form_min_eig"] > -1e-6
    assert abs(out["quad_form_min_eig"] - 2.0) < 1e-4


def test_vanishing_hypotheses_su2_cross_checked_against_u_trace(su2):
    # the margin b + |C|^2 - h/2 equals 2u by the trace of the
    # mean-curvature identity; compare against the Chern trace route
    pts = su2.sample_points(8, seed=0)
    out = vanishing_hypotheses(su2, pts)
    two_u = 2.0 * Evaluation(su2, pts).u
    assert abs(out["plurigenera_margin"] - float(np.min(two_u))) < 1e-4


def _plaquette_holonomy_check(m, pts, side=1e-2, substeps=8):
    """Transport a frame around small coordinate plaquettes with the Bismut
    connection and compare (Id - holonomy) / side^2 with the differentiated
    curvature endomorphism; the worst deviation relative to its size."""
    ev = Evaluation(m, pts)
    r_endo = np.einsum("...km,...ijlm->...ijkl", ev.ginv, ev.riemann("bismut"))
    scale = max(float(np.max(np.abs(r_endo))), 1e-12)
    dx = side / substeps
    worst = 0.0
    for b, p in enumerate(ev.pts):
        for i, j in ((0, 1), (2, 3)):
            u, x = np.eye(m.dim), p.copy()
            for axis, sgn in ((i, 1), (j, 1), (i, -1), (j, -1)):
                for _ in range(substeps):
                    mid = x.copy()
                    mid[axis] += sgn * dx / 2
                    a = -sgn * dx * Evaluation(m, mid).gamma("bismut")[0, :, axis, :]
                    u = u + a @ u + 0.5 * a @ (a @ u)  # second order in the step
                    x[axis] += sgn * dx
            k_est = (np.eye(m.dim) - u) / side ** 2
            worst = max(worst, float(np.max(np.abs(k_est - r_endo[b, i, j]))) / scale)
    return worst


def test_plaquette_transport_matches_curvature_endomorphism(conf4):
    pts = conf4.sample_points(2, seed=5)
    assert _plaquette_holonomy_check(conf4, pts, side=1e-2) < 0.05


def test_package_exposes_the_classify_module():
    import ktgeo.classify as classify_module
    assert isinstance(classify_module, types.ModuleType)
    assert classify_module.classify is classify
