from dataclasses import replace

import numpy as np
import pytest

from ktgeo.catalog import catalog_names, get_manifold
from ktgeo.classify import DEFAULT_CLASSIFY_TOL, classify
from ktgeo.identities import Evaluation
from ktgeo.string_eqs import __all__ as string_api, run_string_suite

from conftest import block_conformal_torus_6, sample

TOL = 1e-4


def _residuals(rep) -> dict:
    return {e.name: e.residual for e in rep.entries}


def test_flat_torus_solves_with_constant_dilaton(flat4):
    pts = sample("flat_torus_4", 6)
    rep = run_string_suite(flat4, pts)["constant_dilaton"]
    assert rep.einstein_residual < 1e-10
    assert rep.flux_residual < 1e-10


@pytest.mark.parametrize("name", ["hopf_standard", "su2xu1"])
def test_homogeneous_solutions_with_constant_dilaton(name):
    m = get_manifold(name)
    pts = m.sample_points(8, seed=0)
    rep = run_string_suite(m, pts)["constant_dilaton"]
    assert rep.einstein_residual < TOL
    assert rep.flux_residual < TOL
    res = _residuals(rep)
    assert res["constant_dilaton_ricci"] < TOL
    assert res["constant_dilaton_lee_equation"] < TOL
    # with a constant dilaton eta is the Lee form: nabla theta = 0
    assert rep.eta_parallel_residual < TOL
    assert classify(m, pts).residuals["ricci_form"] <= DEFAULT_CLASSIFY_TOL


def test_conf_torus_4_is_not_a_solution(conf4):
    pts = sample("conf_torus_4", 8)
    rep = run_string_suite(conf4, pts)["constant_dilaton"]
    assert _residuals(rep)["constant_dilaton_ricci"] > 10 * TOL  # negative control
    assert not rep.hypothesis_ok
    by_name = {e.name: e for e in rep.entries}
    assert by_name["einstein_equation"].status == "hypothesis_failed"
    assert by_name["einstein_equation"].passed is None
    # the identity-style entry stays asserted even here
    assert by_name["flux_divergence_agreement"].status == "asserted"
    assert by_name["flux_divergence_agreement"].passed


def test_hopf_gradient_dilaton_is_supersymmetric_solution(hopf):
    # phi = -ln r gives 2 d phi = theta, so eta = 0 and the eta-form
    # equations hold with zero left side
    pts = sample("hopf_standard", 8)
    rep = run_string_suite(hopf, pts)["gradient_dilaton"]
    res = _residuals(rep)
    assert rep.susy_theta_residual < 1e-5
    assert res["eta_equation"] < TOL
    assert res["eta_skew_equation"] < TOL
    assert np.max(np.abs(rep.eta)) < 1e-5
    assert rep.flux_residual < TOL


def test_hopf_constant_dilaton_eta_is_parallel_lee_form(hopf):
    pts = sample("hopf_standard", 8)
    rep = run_string_suite(hopf, pts)["constant_dilaton"]
    assert np.max(np.abs(rep.eta - Evaluation(hopf, pts).theta)) < 1e-10
    assert rep.eta_parallel_residual < TOL
    assert _residuals(rep)["conformal_killing_equation"] < TOL


def test_conformal_killing_form_in_dim4(conf4):
    # nabla eta = codiff(theta)/2 g fails on a non-solution; the residual is
    # reported, never asserted there
    pts = sample("conf_torus_4", 6)
    rep = run_string_suite(conf4, pts)["constant_dilaton"]
    res = _residuals(rep)
    assert "conformal_killing_equation" in res
    assert res["conformal_killing_equation"] > TOL


@pytest.mark.parametrize("name", ["hopf_standard", "su2xu1"])
def test_coclosed_torsion_lee_relation(name):
    m = get_manifold(name)
    rep = run_string_suite(m, m.sample_points(8, seed=0))["constant_dilaton"]
    assert _residuals(rep)["coclosed_vs_lee"] < TOL


def test_lee_dual_is_killing_on_hopf(hopf):
    pts = sample("hopf_standard", 8)
    rep = run_string_suite(hopf, pts)["constant_dilaton"]
    assert _residuals(rep)["lee_killing_field"] < TOL
    # the non-Kaehler strong solution has a nowhere-small Lee form
    from ktgeo.tensor_core import metric_inverse, norm_sq_values
    t2 = norm_sq_values(Evaluation(hopf, pts).theta, metric_inverse(hopf.metric(pts)), 1)
    assert np.all(np.sqrt(t2) > 0.1)


def test_flux_divergence_agreement_everywhere():
    for name in catalog_names():
        m = get_manifold(name)
        reps = run_string_suite(m, m.sample_points(6, seed=1))
        assert _residuals(reps["constant_dilaton"])["flux_divergence_agreement"] < TOL
    # and with a genuinely varying dilaton weight
    phi = lambda p: 0.2 * np.sin(np.asarray(p)[..., 1])
    conf = replace(get_manifold("conf_torus_4"), dilaton=phi)
    rep = run_string_suite(conf, conf.sample_points(6, seed=2))["gradient_dilaton"]
    assert _residuals(rep)["flux_divergence_agreement"] < TOL
    # and where codiff T is far from zero, so a sign error on either side shows
    torus = block_conformal_torus_6()
    rep = run_string_suite(torus, torus.sample_points(4, seed=0))["constant_dilaton"]
    assert rep.flux_residual > 0.1
    assert _residuals(rep)["flux_divergence_agreement"] < 1e-8


def _th1(m) -> dict:
    return run_string_suite(m, m.sample_points(8, seed=0))["constant_dilaton"].th1_consistency


def test_th1_equivalence_on_solutions_and_label_on_failure():
    for name in ("flat_torus_4", "hopf_standard", "su2xu1"):
        out = _th1(get_manifold(name))
        assert out["hypothesis_ok"]
        assert out["label"] == "asserted"
        assert out["scal_zero"] and out["ric_zero"]
        assert out["agree"] is True
    out = _th1(get_manifold("conf_torus_4"))
    assert not out["hypothesis_ok"]
    assert out["label"] == "hypothesis_failed"
    assert out["agree"] is None
    # the failed hypothesis is the torsion closure, not the Ricci form
    assert not out["hypotheses"]["strong_kt"]
    assert out["hypotheses"]["su_indicator"]


def test_string_report_shape(hopf):
    pts = sample("hopf_standard", 4)
    reps = run_string_suite(hopf, pts)
    assert list(reps) == ["constant_dilaton", "gradient_dilaton"]
    rep = reps["gradient_dilaton"]
    assert rep.constant_dilaton is False
    by_name = {e.name: e for e in rep.entries}
    assert by_name["supersymmetric_lee"].status == "asserted"
    assert by_name["supersymmetric_lee"].passed
    constant = {e.name: e for e in reps["constant_dilaton"].entries}
    assert constant["supersymmetric_lee"].status == "info"
    d = rep.as_dict()
    assert d["manifold"] == "hopf_standard"
    assert len(d["eta"]) == 4
    # no gradient-dilaton report without a dilaton
    su2 = get_manifold("su2xu1")
    assert list(run_string_suite(su2, su2.sample_points(2, seed=0))) == ["constant_dilaton"]
    assert sorted(string_api) == ["StringEntry", "StringReport", "TOL_STRING",
                                  "run_string_suite"]


A, I, F = "asserted", "info", "hypothesis_failed"


def _rows(rep) -> list:
    return [(e.name, e.status) for e in rep.entries]


def test_hopf_entries_in_report_order_with_their_status(hopf):
    reps = run_string_suite(hopf, sample("hopf_standard", 4))
    assert _rows(reps["constant_dilaton"]) == [
        ("einstein_equation", A), ("flux_equation", A), ("constant_dilaton_ricci", A),
        ("constant_dilaton_lee_equation", A), ("eta_equation", A), ("eta_skew_equation", A),
        ("eta_symmetric_equation", A), ("eta_parallel", A), ("supersymmetric_lee", I),
        ("flux_divergence_agreement", A), ("coclosed_vs_lee", A), ("lee_killing_field", A),
        ("conformal_killing_equation", A),
    ]
    assert _rows(reps["gradient_dilaton"]) == [
        ("einstein_equation", A), ("flux_equation", A), ("eta_equation", A),
        ("eta_skew_equation", A), ("eta_symmetric_equation", A), ("eta_parallel", A),
        ("supersymmetric_lee", A), ("flux_divergence_agreement", A), ("coclosed_vs_lee", A),
        ("lee_killing_field", I), ("conformal_killing_equation", A),
    ]


def test_conf_torus_6_entries_fail_the_hypotheses_and_omit_the_dim4_row():
    m = get_manifold("conf_torus_6")
    reps = run_string_suite(m, m.sample_points(4, seed=0))
    assert list(reps) == ["constant_dilaton"]
    assert _rows(reps["constant_dilaton"]) == [
        ("einstein_equation", F), ("flux_equation", F), ("constant_dilaton_ricci", F),
        ("constant_dilaton_lee_equation", F), ("eta_equation", F), ("eta_skew_equation", F),
        ("eta_symmetric_equation", F), ("eta_parallel", F), ("supersymmetric_lee", I),
        ("flux_divergence_agreement", A), ("coclosed_vs_lee", F), ("lee_killing_field", F),
    ]
