import gc
import json
import subprocess
import sys
import weakref
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

import ktgeo.cli
import ktgeo.identities
import ktgeo.tensor_core
from ktgeo.catalog import (
    BoxChart, HermitianManifold, catalog_names, get_manifold, register_manifold,
    _block_j, _const_field,
)
from ktgeo.cli import main, render_report
from ktgeo.identities import Evaluation

from conftest import block_conformal_torus_6


def run_cli(*args):
    proc = subprocess.run([sys.executable, "-m", "ktgeo.cli", *args],
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def test_list_prints_catalog():
    code, out, _ = run_cli("list")
    assert code == 0
    assert out.split() == catalog_names()


def test_report_flat_torus_all_residuals_at_noise_floor(tmp_path):
    out_file = tmp_path / "flat.json"
    code = main(["report", "--manifold", "flat_torus_4", "--points", "8", "--out", str(out_file)])
    assert code == 0
    rep = json.loads(out_file.read_text())
    assert rep["overall_pass"]
    section = rep["manifolds"][0]
    for e in section["identities"]:
        assert e["max_residual"] < 1e-8
    for e in section["dim4"]:
        assert e["max_residual"] < 1e-8
    assert "dim4_skipped" not in section  # present only when an entry is skipped


def test_report_hopf_flags(tmp_path):
    out_file = tmp_path / "hopf.json"
    code = main(["report", "--manifold", "hopf_standard", "--points", "16", "--seed", "1",
                 "--out", str(out_file)])
    assert code == 0
    rep = json.loads(out_file.read_text())
    flags = rep["manifolds"][0]["flags"]
    assert flags["strong_kt"] and flags["lck"] and flags["su_holonomy_indicator"]
    assert not flags["kahler"]
    # conventions header is mandatory
    assert "j_trace_orientation" in rep["conventions"]
    # gradient-dilaton string section present (catalog dilaton)
    assert "gradient_dilaton" in rep["manifolds"][0]["string"]


def test_report_negative_example_passes_with_labels(tmp_path):
    out_file = tmp_path / "conf.json"
    code = main(["report", "--manifold", "conf_torus_4", "--points", "8", "--out", str(out_file)])
    assert code == 0
    rep = json.loads(out_file.read_text())
    section = rep["manifolds"][0]
    assert section["pass"]
    labels = {e["name"]: e["status"] for e in section["string"]["constant_dilaton"]["entries"]}
    assert labels["einstein_equation"] == "hypothesis_failed"
    assert labels["constant_dilaton_ricci"] == "hypothesis_failed"
    assert all(e["passed"] for e in section["identities"])


def test_reports_are_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for f in (a, b):
        code, _, _ = run_cli("report", "--manifold", "su2xu1", "--points", "6",
                             "--seed", "3", "--out", str(f))
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_unknown_manifold_exits_2(capsys):
    code = main(["report", "--manifold", "k3_surface"])
    assert code == 2
    assert "hopf_standard" in capsys.readouterr().err  # catalog listed


def _section_names(tmp_path, *manifolds):
    argv = ["report", "--points", "1", "--suite", "classify", "--out", str(tmp_path / "r.json")]
    for name in manifolds:
        argv += ["--manifold", name]
    assert main(argv) == 0
    return [s["name"] for s in json.loads((tmp_path / "r.json").read_text())["manifolds"]]


def test_all_stands_for_the_catalog_wherever_it_appears(tmp_path):
    names = catalog_names()
    assert _section_names(tmp_path, "all", "hopf_standard") == names
    assert _section_names(tmp_path, "su2xu1", "all") == (
        ["su2xu1"] + [n for n in names if n != "su2xu1"])


def test_a_repeated_manifold_is_reported_once(tmp_path):
    assert _section_names(tmp_path, "hopf_standard", "flat_torus_4", "hopf_standard") == [
        "hopf_standard", "flat_torus_4"]


def test_residual_failure_exits_1(tmp_path):
    # su2xu1 residuals sit around 1e-6; a 1e-9 tolerance must fail
    code = main(["report", "--manifold", "su2xu1", "--points", "4",
                 "--tol-identity", "1e-9", "--out", str(tmp_path / "x.json")])
    assert code == 1


def test_negative_seed_exits_2_naming_the_seed(tmp_path, capsys):
    out = tmp_path / "r.json"
    code = main(["report", "--manifold", "hopf_standard", "--seed", "-1", "--out", str(out)])
    assert code == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("error: invalid configuration:") and "seed" in line
    assert not out.exists()


def test_invalid_step_exits_2(tmp_path, capsys):
    code = main(["report", "--manifold", "flat_torus_4", "--h", "0.5",
                 "--out", str(tmp_path / "x.json")])
    assert code == 2
    assert "configuration" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--tol-identity", "--tol-classify"])
@pytest.mark.parametrize("value", ["nan", "inf", "-1", "0"])
def test_invalid_tolerance_exits_2(flag, value, tmp_path, capsys):
    out = tmp_path / "r.json"
    code = main(["report", "--manifold", "hopf_standard", "--points", "2",
                 flag, value, "--out", str(out)])
    assert code == 2
    assert "invalid configuration" in capsys.readouterr().err
    assert not out.exists()


def test_unwritable_out_exits_2(tmp_path, capsys):
    code = main(["report", "--manifold", "flat_torus_4", "--points", "1", "--suite", "classify",
                 "--out", str(tmp_path / "missing" / "r.json")])
    assert code == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("error:")


def test_numeric_failure_exits_3():
    # a metric that degenerates inside the sampling window
    def bad_metric(p):
        pts = np.asarray(p, dtype=float)
        g = np.zeros(pts.shape[:-1] + (4, 4))
        scale = np.cos(pts[..., 0])  # vanishes along the chart
        for k in range(4):
            g[..., k, k] = scale
        return g

    register_manifold(HermitianManifold(
        name="degenerate_test_manifold", dim=4,
        chart=BoxChart(lows=(0.0,) * 4, highs=(2 * np.pi,) * 4),
        metric=bad_metric, complex_structure=_const_field(_block_j(4)), lck=True))
    code = main(["report", "--manifold", "degenerate_test_manifold",
                 "--points", "8", "--out", "/dev/null"])
    assert code == 3


@pytest.mark.parametrize("base, field, wrong, given", [
    ("flat_torus_4", "metric", dict(metric=_const_field(np.eye(3))), "3, 3"),
    ("flat_torus_4", "complex_structure",
     dict(complex_structure=_const_field(np.eye(2))), "2, 2"),
    ("hopf_standard", "dilaton", dict(dilaton=_const_field(np.zeros(2))), "2"),
])
def test_wrong_field_shape_exits_3(base, field, wrong, given, capsys):
    # a field of the wrong shape breaks the chart's contract; the
    # configuration is valid
    register_manifold(replace(get_manifold(base), name="wrong_shape_test_manifold", **wrong))
    code = main(["report", "--manifold", "wrong_shape_test_manifold", "--points", "1",
                 "--out", "/dev/null"])
    assert code == 3
    [line] = capsys.readouterr().err.splitlines()
    assert "invalid configuration" not in line
    assert "numeric failure" not in line
    assert line.startswith("error: contract violation on 'wrong_shape_test_manifold' during ")
    assert f"wrong_shape_test_manifold: field {field!r} has shape (" in line
    assert f"{given}), expected (" in line


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("dim, j", [(2, _block_j(2)), (5, np.eye(5))])
def test_chart_of_unsupported_dimension_exits_3_naming_the_manifold(dim, j, capsys):
    # a flat 2-torus divided by n - 1 = 0 in the LCK torsion, and a
    # 5-dimensional chart with J = identity passed every check
    register_manifold(HermitianManifold(
        name="unsupported_dim_test_manifold", dim=dim,
        chart=BoxChart(lows=(0.0,) * dim, highs=(2 * np.pi,) * dim),
        metric=_const_field(np.eye(dim)), complex_structure=_const_field(j), lck=True))
    code = main(["report", "--manifold", "unsupported_dim_test_manifold", "--points", "4",
                 "--out", "/dev/null"])
    assert code == 3
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("error: contract violation on 'unsupported_dim_test_manifold' "
                           "during 'classify': ")
    assert f"unsupported_dim_test_manifold: dimension {dim}, expected an even" in line


def test_suite_all_runs_everything(tmp_path):
    out_file = tmp_path / "suite.json"
    code = main(["suite", "--all", "--points", "4", "--out", str(out_file)])
    assert code == 0
    rep = json.loads(out_file.read_text())
    assert [s["name"] for s in rep["manifolds"]] == catalog_names()
    assert rep["overall_pass"]


def test_float_serialization_has_17_significant_digits():
    text = render_report({"x": 0.1, "y": 1.0 / 3.0})
    assert "0.10000000000000001" in text
    assert "0.33333333333333331" in text
    # round trip is exact
    parsed = json.loads(text)
    assert parsed["x"] == 0.1 and parsed["y"] == 1.0 / 3.0


def test_report_computes_each_curvature_once(monkeypatch, tmp_path):
    calls = Counter()
    real = ktgeo.identities.riemann_values

    def counted(ev, flavor):
        calls[(id(ev.m), flavor)] += 1
        return real(ev, flavor)

    monkeypatch.setattr(ktgeo.identities, "riemann_values", counted)
    code = main(["report", "--manifold", "hopf_hkt", "--points", "2",
                 "--out", str(tmp_path / "r.json")])
    assert code == 0
    # three flavors on hopf_hkt, the Chern curvature of its conformal parent
    assert len(calls) == 4
    assert max(calls.values()) == 1


def test_report_computes_the_koszul_coefficients_once_per_point_set(monkeypatch, tmp_path):
    shapes = []
    real = ktgeo.tensor_core.koszul_values

    def counted(dg):
        shapes.append(dg.shape)
        return real(dg)

    for name, mod in list(sys.modules.items()):
        if name.startswith("ktgeo.") and getattr(mod, "koszul_values", None) is real:
            monkeypatch.setattr(mod, "koszul_values", counted)
    code = main(["report", "--manifold", "su2xu1", "--points", "2",
                 "--out", str(tmp_path / "r.json")])
    assert code == 0
    # the base points and the two stencil sets held around them
    assert sorted(s[:-3] for s in shapes) == [(2,), (2, 4), (2, 4)]


def test_tol_classify_reaches_the_hkt_block(tmp_path):
    # at these points the Lee-form match residual is 1.5e-17, not exactly 0
    out_file = tmp_path / "hkt.json"
    code = main(["report", "--manifold", "hopf_hkt", "--points", "8", "--seed", "2",
                 "--tol-classify", "1e-30", "--out", str(out_file)])
    hkt = json.loads(out_file.read_text())["manifolds"][0]["flags"]["hkt"]
    assert hkt["tolerance"] == 1e-30
    assert not hkt["hkt"]
    assert code == 1


def _half_nan_metric(p):
    pts = np.asarray(p, dtype=float)
    g = np.broadcast_to(np.eye(4), pts.shape[:-1] + (4, 4)).copy()
    g[pts[..., 0] > np.pi] = np.nan
    return g


@pytest.mark.parametrize("suite", ["classify", "identities", "string"])
def test_non_finite_residual_exits_3(suite, capsys):
    register_manifold(HermitianManifold(
        name="half_nan_test_manifold", dim=4,
        chart=BoxChart(lows=(0.0,) * 4, highs=(2 * np.pi,) * 4),
        metric=_half_nan_metric, complex_structure=_const_field(_block_j(4)), lck=True))
    code = main(["report", "--manifold", "half_nan_test_manifold", "--suite", suite,
                 "--points", "8", "--out", "/dev/null"])
    assert code == 3
    assert "non-finite residual" in capsys.readouterr().err


def test_linear_algebra_failure_exits_3(monkeypatch, capsys):
    def failing(cfg):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(ktgeo.cli, "run", failing)
    assert main(["report", "--manifold", "flat_torus_4", "--out", "/dev/null"]) == 3
    assert "numeric failure" in capsys.readouterr().err


def test_singular_chart_field_exits_3_naming_the_manifold_and_suite(capsys):
    # NumPy's LinAlgError inside a section is a numeric failure of that section
    def singular_j(p):
        return np.linalg.inv(np.zeros(np.shape(p)[:-1] + (4, 4)))

    register_manifold(replace(get_manifold("flat_torus_4"), name="singular_j_test_manifold",
                              complex_structure=singular_j))
    code = main(["report", "--manifold", "singular_j_test_manifold", "--points", "1",
                 "--out", "/dev/null"])
    assert code == 3
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("error: numeric failure on 'singular_j_test_manifold' "
                           "during 'classify': ")
    assert "Singular matrix" in line


def test_classify_and_string_share_each_frame_conversion(monkeypatch, tmp_path):
    valence4 = []
    real = ktgeo.identities.to_frame

    def counted(t, frame, valence):
        if valence == 4:
            valence4.append(t.shape)
        return real(t, frame, valence)

    monkeypatch.setattr(ktgeo.identities, "to_frame", counted)
    code = main(["report", "--manifold", "hopf_standard", "--suite", "classify",
                 "--suite", "string", "--points", "2", "--out", str(tmp_path / "r.json")])
    assert code == 0
    # dT and the curvature-J commutator, each measured once for both suites
    assert len(valence4) == 2


def test_non_lck_chart_reports_the_skipped_reduction(tmp_path):
    # a Hermitian 6-torus that is not locally conformally Kaehler: the dim4
    # suite skips the LCK reduction by name and the report survives
    register_manifold(block_conformal_torus_6())
    out_file = tmp_path / "torus.json"
    code = main(["report", "--manifold", "block_conformal_torus_6", "--suite", "classify",
                 "--suite", "identities", "--suite", "dim4", "--points", "4",
                 "--out", str(out_file)])
    assert code == 0
    section = json.loads(out_file.read_text())["manifolds"][0]
    assert not section["flags"]["lck"]
    assert section["flags"]["residuals"]["lck_defect"] > 0.1
    assert section["dim4"] == []
    [skip] = section["dim4_skipped"]
    assert skip["name"] == "lck_lambda_reduction"
    assert "locally conformally Kaehler" in skip["reason"]
    assert len(section["identities"]) == 14
    assert all(e["passed"] for e in section["identities"])


def test_dim4_chart_declared_non_lck_keeps_the_duality(tmp_path):
    # the LCK reduction is skipped, the dimension-four duality still reported
    register_manifold(replace(get_manifold("conf_torus_4"), name="conf_torus_4_not_lck",
                              lck=False))
    out_file = tmp_path / "dim4.json"
    code = main(["report", "--manifold", "conf_torus_4_not_lck", "--suite", "dim4",
                 "--points", "4", "--out", str(out_file)])
    assert code == 0
    section = json.loads(out_file.read_text())["manifolds"][0]
    assert [(e["name"], e["passed"]) for e in section["dim4"]] == [("torsion_lee_duality", True)]
    assert [s["name"] for s in section["dim4_skipped"]] == ["lck_lambda_reduction"]


def _counted(metric, points):
    def fn(p):
        points.append(np.asarray(p)[..., 0].size)
        return metric(p)
    return fn


# a full 2-point report evaluates each metric at 1 + 2d + (2d)^2 points per
# base point: the base points, the held stencil sets, and the sets around them
# built once for the one stencil pass over g and omega (hopf_standard and
# hopf_hkt count their conformal parent as well; the other two structures of
# hopf_hkt's triple evaluate no metric of their own)
_METRIC_POINTS = {"hopf_standard": 292, "su2xu1": 146, "block_conformal_torus_6": 314,
                  "hopf_hkt": 292}


@pytest.mark.parametrize("name", _METRIC_POINTS)
def test_report_metric_evaluations(tmp_path, name):
    m = block_conformal_torus_6() if name == "block_conformal_torus_6" else get_manifold(name)
    points = []
    parent = m.conformal_parent
    if parent is not None:
        parent = replace(parent, parent=replace(
            parent.parent, metric=_counted(parent.parent.metric, points)))
    register_manifold(replace(m, name=f"counted_{name}", metric=_counted(m.metric, points),
                              conformal_parent=parent))
    code = main(["report", "--manifold", f"counted_{name}", "--points", "2",
                 "--out", str(tmp_path / "r.json")])
    assert code == 0
    assert sum(points) == _METRIC_POINTS[name]


# the dilaton and the conformal factor are chart fields held like the metric:
# a 2-point report evaluates each at 1 + 2d + (2d)^2 points per base point
# (the rescaled metric calls its own factor, which is not counted here)
@pytest.mark.parametrize("name, expected", [
    ("hopf_standard", {"dilaton": 146, "log_factor": 146}),
    ("conf_torus_4", {"dilaton": 0, "log_factor": 146}),
])
def test_report_scalar_field_evaluations(tmp_path, name, expected):
    m = get_manifold(name)
    dilaton, factor = [], []
    parent = replace(m.conformal_parent,
                     log_factor=_counted(m.conformal_parent.log_factor, factor))
    register_manifold(replace(
        m, name=f"counted_scalars_{name}", conformal_parent=parent,
        dilaton=None if m.dilaton is None else _counted(m.dilaton, dilaton)))
    code = main(["report", "--manifold", f"counted_scalars_{name}", "--points", "2",
                 "--out", str(tmp_path / "r.json")])
    assert code == 0
    assert {"dilaton": sum(dilaton), "log_factor": sum(factor)} == expected


def test_report_leaves_no_evaluation_alive(monkeypatch, tmp_path):
    # with the cycle collector off, only reference counting frees an
    # evaluation: none may sit in a reference cycle
    created = []
    real_init, real_derive = Evaluation.__init__, Evaluation._derive

    def init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        created.append(weakref.ref(self))

    def derive(self, *args, **kwargs):  # every stencil evaluation is made here
        ev = real_derive(self, *args, **kwargs)
        created.append(weakref.ref(ev))
        return ev

    monkeypatch.setattr(Evaluation, "__init__", init)
    monkeypatch.setattr(Evaluation, "_derive", derive)
    gc.disable()
    try:
        code = main(["report", "--manifold", "hopf_hkt", "--points", "2",
                     "--out", str(tmp_path / "r.json")])
        # read before the collector is back: its next pass would free cycles
        alive = sum(ref() is not None for ref in created)
    finally:
        gc.enable()
    assert code == 0
    assert len(created) > 10  # base and stencil evaluations
    assert alive == 0
