"""Tests of the benchmark's own parts: the pulled-back charts, the report
checks and the tracer.  Run with ``python3 -m pytest ktbench``."""

import json

import numpy as np
import pytest

from checks import check_report, load_fingerprints
from tracing import SPANS, Tracer
from workloads import PULLED_CHARTS, install_pulled_charts

import ktgeo.identities
from ktgeo import cli
from ktgeo.catalog import get_manifold, hermitian_residuals
from ktgeo.classify import classify
from ktgeo.connections import torsion_bismut_values

PULLED = sorted(PULLED_CHARTS)


@pytest.fixture(scope="module", autouse=True)
def pulled_charts():
    install_pulled_charts()


def _flag_bits(m, n=3):
    flags = classify(m, m.sample_points(n, 0)).as_dict()
    bits = {k: v for k, v in flags.items() if isinstance(v, bool)}
    bits["hkt"] = None if flags["hkt"] is None else flags["hkt"]["hkt"]
    return bits


@pytest.mark.parametrize("name", PULLED)
def test_pulled_structure_is_hermitian_to_roundoff(name):
    m = get_manifold(name)
    res = hermitian_residuals(m, m.sample_points(8, 0))
    assert res["j_square_residual"] <= 1e-15
    assert res["compatibility_residual"] <= 4e-15
    assert res["nijenhuis_residual"] <= 1e-9  # finite differences of an integrable J
    if m.hypercomplex is not None:
        assert res["quaternion_residual"] <= 1e-15


@pytest.mark.parametrize("name", PULLED)
def test_pulled_complex_structure_is_not_constant(name):
    m = get_manifold(name)
    J = m.complex_structure(m.sample_points(8, 0))
    assert np.max(np.abs(J - J[0])) > 1e-2


@pytest.mark.parametrize("name", PULLED)
def test_pulled_flags_equal_base_flags(name):
    assert _flag_bits(get_manifold(name)) == _flag_bits(get_manifold(PULLED_CHARTS[name]))


def _report(tmp_path, name):
    out = tmp_path / "report.json"
    assert cli.main(["report", "--manifold", name, "--points", "1", "--out", str(out)]) == 0
    return out.read_bytes()


def test_check_report_catches_a_changed_label_and_pulled_flags(tmp_path):
    expected = load_fingerprints()
    doc = json.loads(_report(tmp_path, "pulled_conf_torus_4"))
    assert check_report(doc, expected) == []

    relabelled = json.loads(json.dumps(doc))
    entry = relabelled["manifolds"][0]["string"]["constant_dilaton"]["entries"][0]
    assert entry["status"] == "hypothesis_failed"  # the conformal torus negative control
    entry["status"] = "asserted"
    assert check_report(relabelled, expected)

    reflagged = json.loads(json.dumps(doc))
    reflagged["manifolds"][0]["flags"]["balanced"] = True
    assert any("flags differ" in p for p in check_report(reflagged, expected))


def test_tracer_reaches_importers_changes_no_bytes_and_restores(tmp_path):
    plain = _report(tmp_path, "hopf_hkt")
    tracer = Tracer()
    tracer.install(["hopf_hkt"])
    try:
        assert ktgeo.identities.torsion_bismut_values is not torsion_bismut_values
        tracer.begin([])
        traced = _report(tmp_path, "hopf_hkt")
        tracer.end()
    finally:
        tracer.uninstall()
    assert traced == plain
    assert ktgeo.identities.torsion_bismut_values is torsion_bismut_values
    report = tracer.reports[0]
    assert set(SPANS) <= set(report.spans)
    assert report.field_points["metric"] > 0 and report.field_points["j"] > 0
    assert 0 < report.distinct_points < report.field_points["metric"] + report.field_points["j"]
    assert report.flop > 0 and report.bytes > 0
