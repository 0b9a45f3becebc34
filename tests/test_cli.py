import argparse
import contextlib
import errno
import gc
import importlib
import io
import json
import os
import pkgutil
import platform
import resource
import subprocess
import sys
import tracemalloc
import types
import weakref
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ktgeo.classify
import ktgeo.cli
import ktgeo.errors
import ktgeo.identities
import ktgeo.tensor_core
from ktgeo.catalog import (
    BoxChart, HermitianManifold, catalog_names, conformal_rescale, get_manifold,
    register_manifold, _block_j, _conf_factor, _const_field,
)
from ktgeo.cli import main, render_report
from ktgeo.identities import Evaluation

from conftest import (
    benchmark_module, block_conformal_torus_4, block_conformal_torus_6, pulled_charts,
)


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
        assert e["status"] == "asserted"  # no row skipped
        assert e["max_residual"] < 1e-8


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


def test_a_repeated_suite_is_run_and_written_once(tmp_path):
    reports = []
    for suites in (["dim4", "dim4"], ["dim4"]):
        out = tmp_path / f"{len(suites)}.json"
        assert main(["report", "--manifold", "flat_torus_4", "--points", "1",
                     *(a for s in suites for a in ("--suite", s)), "--out", str(out)]) == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]
    assert json.loads(reports[0])["config"]["suites"] == ["dim4"]


def _rescaled_su2xu1():
    """A conformal rescale of su2xu1, whose parent reads its own J closure,
    as a pulled-back chart's parent does."""
    return conformal_rescale(get_manifold("su2xu1"), _conf_factor, name="su2xu1_rescaled")


@pytest.mark.parametrize("points", ["1", "8", "16", "20"])
def test_a_joined_section_is_its_chart_reported_alone(points, tmp_path):
    # sections of one dimension share one evaluation while their points
    # together fit one pass block (at 16 points the seven d = 4 sections
    # form groups of five and two); each section reads its own rows of it,
    # so its residuals and worst points, as 17-digit floats, are those of
    # its chart alone.  At 1 point the three d = 6 sections join too, and
    # block_conformal_torus_6 skips the LCK reduction that the others of its
    # group assert
    charts = [block_conformal_torus_4(), block_conformal_torus_6(), _rescaled_su2xu1()]
    for m in charts:
        register_manifold(m)
    names = catalog_names() + [m.name for m in charts]

    def sections(*names):
        out = tmp_path / "r.json"
        argv = ["report", "--points", points, "--out", str(out)]
        assert main(argv + [a for n in names for a in ("--manifold", n)]) in (0, 1)
        return json.loads(out.read_text())["manifolds"]

    assert sections(*names) == [s for name in names for s in sections(name)]


def _flat_but(name, metric):
    """flat_torus_4 under ``name`` with the metric field ``metric``."""
    return replace(get_manifold("flat_torus_4"), name=name, metric=metric)


def _nan_at_one_point(points):
    # NaN at bad_nan's fourth sampled point alone, not on its stencil
    g = get_manifold("flat_torus_4").metric(points)
    spot = _flat_but("bad_nan", None).sample_points(16, 0)[3]
    g[np.all(np.asarray(points) == spot, axis=-1)] = np.nan
    return g


def _raising(points):
    raise RuntimeError("no metric here")


def _degenerate(points):
    # not positive definite where cos(x_0) <= 0, which its frames reject
    return np.cos(np.asarray(points)[..., :1, None]) * get_manifold("flat_torus_4").metric(points)


@pytest.mark.parametrize("name, metric, line", [
    ("bad_raising", _raising,
     "error: contract violation on 'bad_raising' during 'classify': bad_raising: field "
     "'metric' raised RuntimeError: no metric here\n"),
    ("bad_nan", _nan_at_one_point,
     "error: numeric failure on 'bad_nan' during 'classify': bad_nan: field 'metric' is not "
     "finite at point [4.172318311786139, 1.3699979596676155, 3.966586342632427, "
     "3.1267133581652446]\n"),
    ("bad_degenerate", _degenerate,
     "error: numeric failure on 'bad_degenerate' during 'classify': metric is not positive "
     "definite at sampled point index (0,)\n"),
])
def test_a_failure_in_a_joined_section_names_its_chart(name, metric, line, capsys):
    # the joined evaluation reads flat_torus_4's fields and the bad chart's,
    # and builds their frames in one call, while flat_torus_4's section
    # runs; the failure names the chart whose field or frame failed, and
    # alone the line is the one a section of its own has always printed
    register_manifold(_flat_but(name, metric))
    for manifolds in (["flat_torus_4", name], [name]):
        argv = ["report", "--points", "16", "--out", "/dev/null"]
        assert main(argv + [a for n in manifolds for a in ("--manifold", n)]) == 3
        err = capsys.readouterr().err
        assert f"on {name!r}" in err
    assert err == line


def test_a_joined_report_measures_each_row_once_over_all_its_points(tmp_path, monkeypatch):
    # the five d = 4 sections at 16 points share one evaluation of 80
    # points: the identity, structure and dim4 rows (the duality and the LCK
    # reduction, and conformal_u_change) are each generated once on it, not
    # once per section, and each identity difference takes one frame
    # transform over all 80 points, which no section repeats on its 16.  The
    # conformal difference is 0 on the rows of the two charts that have no
    # conformal parent, flat_torus_4 and su2xu1, which no section reads
    names = [n for n in catalog_names() if get_manifold(n).dim == 4]
    runs, identity_diffs, transformed, conformal = Counter(), [], [], []

    def counted(rows):
        def counted_rows(ev):
            runs[rows.__name__] += 1
            for row in rows(ev):
                if rows.__name__ == "_identity_rows":
                    identity_diffs.append(row[1])
                if rows.__name__ == "_conformal_rows":
                    conformal.append((ev.members, row[1]))
                yield row
        return counted_rows

    generators = ("_identity_rows", "_structure_rows", "_duality_rows", "_lck_reduction_rows",
                  "_conformal_rows")
    for name in generators:
        monkeypatch.setattr(ktgeo.identities, name, counted(getattr(ktgeo.identities, name)))
    real_to_frame = ktgeo.identities.to_frame

    def to_frame(t, frames, valence):
        if any(t is diff for diff in identity_diffs):
            transformed.append(t.shape[0])
        return real_to_frame(t, frames, valence)

    monkeypatch.setattr(ktgeo.identities, "to_frame", to_frame)
    argv = ["report", "--points", "16", "--out", str(tmp_path / "r.json")]
    assert main(argv + [a for n in names for a in ("--manifold", n)]) == 0
    assert len(names) == 5
    assert runs == dict.fromkeys(generators, 1)
    assert [diff.shape[0] for diff in identity_diffs] == [80] * 14
    assert transformed == [80] * sum(diff.ndim > 1 for diff in identity_diffs)
    [(members, diff)] = conformal
    assert diff.shape == (80,)
    assert [m.name for m, lo, hi, _ in members if not diff[lo:hi].any()] == [
        "flat_torus_4", "su2xu1"]


@pytest.mark.parametrize("points, groups", [
    ("16", [["flat_torus_4", "hopf_standard", "su2xu1", "hopf_hkt", "conf_torus_4"],
            ["flat_torus_6"], ["conf_torus_6"]]),
    ("41", [[name] for name in catalog_names()]),
])
def test_each_group_of_sections_takes_its_evaluations_from_one_joined_call(
        points, groups, monkeypatch, tmp_path):
    # the sections of one dimension whose points fit in one pass block form
    # a group, and any other section is a group of one; every group's
    # evaluations come from one Evaluation.joined call, made where its first
    # section comes in the report.  At 16 points the d = 4 sections join and
    # each d = 6 section, twice a d = 6 block, is a group of one; at 41
    # points, one more than a d = 4 block, every section is a group of one
    calls = []
    real_joined = Evaluation.joined

    def joined(sections, *args):
        calls.append([m.name for m, _ in sections])
        return real_joined(sections, *args)

    monkeypatch.setattr(Evaluation, "joined", staticmethod(joined))
    assert main(["suite", "--all", "--points", points, "--out", str(tmp_path / "r.json")]) == 0
    assert calls == groups


def test_a_joined_report_drops_the_parents_after_the_first_conformal_row(monkeypatch,
                                                                        tmp_path):
    # the three pulled charts join, and so do their conformal parents, in
    # one evaluation made before the group's pass.  The first section's
    # conformal row measures the row once for all three sections and drops
    # the parents, so they are gone, with the cycle collector off, once that
    # row has read them, while every section's other suites are still to
    # run; the later sections read their rows and make no parents again
    names = pulled_charts()
    parents, alive = [], []
    real_derive, real_row = Evaluation._derive, ktgeo.cli.verify_conformal_trace

    def derive(self, members, pts, depth, *args, **kwargs):
        ev = real_derive(self, members, pts, depth, *args, **kwargs)
        if depth == 0 and "J" in ev._shared:  # the parents carry the group's J
            parents.append(weakref.ref(ev))
        return ev

    def conformal_row(ev, tol):
        row = real_row(ev, tol)
        alive.append(sum(ref() is not None for ref in parents))
        return row

    monkeypatch.setattr(Evaluation, "_derive", derive)
    monkeypatch.setattr(ktgeo.cli, "verify_conformal_trace", conformal_row)
    gc.disable()
    try:
        code = main(["report", *(a for n in names for a in ("--manifold", n)),
                     "--points", "16", "--out", str(tmp_path / "r.json")])
    finally:
        gc.enable()
    assert code == 0
    assert len(parents) == 1
    assert alive == [0, 0, 0]


def test_a_non_finite_conformal_row_is_its_own_sections_failure(monkeypatch, capsys):
    # conformal_u_change, measured once for the three pulled charts, is NaN
    # on the last one's rows alone: that section fails with the line it
    # prints reported alone, naming its own first point, and the earlier
    # sections' rows are those of their charts alone
    names = pulled_charts()
    real_rows = ktgeo.identities._conformal_rows

    def nan_rows(ev):
        for name, diff, order, status in real_rows(ev):
            diff = diff.copy()
            for m, lo, hi, _ in ev.members:
                if m.name == names[-1]:
                    diff[lo:hi] = np.nan
            yield name, diff, order, status

    monkeypatch.setattr(ktgeo.identities, "_conformal_rows", nan_rows)
    lines = []
    for group in (names, names[-1:]):
        argv = ["report", "--points", "16", "--out", "/dev/null"]
        assert main(argv + [a for n in group for a in ("--manifold", n)]) == 3
        lines.append(capsys.readouterr().err)
    point = get_manifold(names[-1]).sample_points(16, 0)[0].tolist()
    assert lines[0] == lines[1] == (
        f"error: numeric failure on {names[-1]!r} during 'identities': non-finite residual "
        f"in 'conformal_u_change' at point {point}\n")
    ms = [get_manifold(name) for name in names]
    pts = [m.sample_points(16, 0) for m in ms]
    # the parents join the group's pass, as they join a report's
    views = Evaluation.joined(list(zip(ms, pts)))
    for m, p, view in zip(ms[:-1], pts, views):
        assert ktgeo.identities.verify_conformal_trace(view) == (
            ktgeo.identities.verify_conformal_trace(Evaluation(m, p)))
    with pytest.raises(ktgeo.errors.NumericError, match="'conformal_u_change'"):
        ktgeo.identities.verify_conformal_trace(views[-1])


def test_a_non_finite_joined_residual_is_its_own_sections_failure(monkeypatch, capsys):
    # tt4, which the joined evaluation computes once for both sections, is
    # NaN on the second section's rows alone: the second section fails with
    # the line it prints alone, naming its own first point, and the first
    # section's rows are those of its chart alone
    first, second = get_manifold("flat_torus_4"), get_manifold("hopf_standard")
    real_tt4 = Evaluation.tt4

    def tt4(ev):
        value = real_tt4.fget(ev).copy()
        for m, lo, hi, _ in ev.members:
            if m is second:
                value[lo:hi] = np.nan
        return value

    monkeypatch.setattr(Evaluation, "tt4", property(tt4))
    lines = []
    for names in ([first.name, second.name], [second.name]):
        argv = ["report", "--points", "16", "--out", "/dev/null"]
        assert main(argv + [a for n in names for a in ("--manifold", n)]) == 3
        lines.append(capsys.readouterr().err)
    point = second.sample_points(16, 0)[0].tolist()
    assert lines[0] == lines[1] == (
        f"error: numeric failure on 'hopf_standard' during 'identities': non-finite residual "
        f"in 'torsion_nabla_exchange' at point {point}\n")
    pts = [m.sample_points(16, 0) for m in (first, second)]
    views = Evaluation.joined(list(zip((first, second), pts)))
    alone = ktgeo.identities.run_identity_suite(Evaluation(first, pts[0]))
    assert ktgeo.identities.run_identity_suite(views[0]) == alone
    with pytest.raises(ktgeo.errors.NumericError, match="'torsion_nabla_exchange'"):
        ktgeo.identities.run_identity_suite(views[1])


def _nan_near(fn, spot, stencil):
    """``fn`` with NaN at the point ``spot``, or with ``stencil`` at the
    points of its stencil but ``spot`` itself, or with ``stencil`` "far" at
    the second-level point ``(spot + h e_2) + h e_2`` alone."""
    if stencil == "far":  # placed as the nested stencil places it
        offset = ktgeo.tensor_core.DEFAULT_STEP * np.eye(spot.size)[2]
        spot = (spot + offset) + offset

    def field(p):
        out = np.array(fn(p), dtype=float)
        p = np.asarray(p)
        at = np.all(p == spot, axis=-1)
        if stencil is True:
            at = ~at & (np.abs(p - spot).max(axis=-1) <= 2.5 * ktgeo.tensor_core.DEFAULT_STEP)
        out[at] = np.nan
        return out
    return field


# the error line of each report below as each section computed its own dilaton
# and conformal factor, before the joined evaluation computed them for all
_NAN_POINT = ("[-0.9002862993896544, -0.38108272757780104, -0.2068237221965298, "
              "-0.94597007928623]")
_NAN_STENCIL_POINT = ("[-0.9000862993896545, -0.38108272757780104, -0.2068237221965298, "
                      "-0.94597007928623]")
# (x + h e_2) + h e_2 for the point x above
_NAN_FAR_POINT = ("[-0.9002862993896544, -0.38108272757780104, -0.20662372219652983, "
                  "-0.94597007928623]")
_NAN_SCALAR_LINES = {
    ("dilaton", False, ()): "error: numeric failure on 'nan_scalar' during 'classify': "
    f"nan_scalar: field 'dilaton' is not finite at point {_NAN_POINT}\n",
    ("dilaton", True, ()): "error: numeric failure on 'nan_scalar' during 'classify': "
    f"nan_scalar: field 'dilaton' is not finite at point {_NAN_STENCIL_POINT}\n",
    ("dilaton", "far", ()): "error: numeric failure on 'nan_scalar' during 'classify': "
    f"nan_scalar: field 'dilaton' is not finite at point {_NAN_FAR_POINT}\n",
    ("dilaton", False, ("string",)): "error: numeric failure on 'nan_scalar' during 'string': "
    f"nan_scalar: field 'dilaton' is not finite at point {_NAN_POINT}\n",
    ("log_factor", False, ()): "error: numeric failure on 'nan_scalar' during 'classify': "
    f"nan_scalar: field 'conformal_parent.log_factor' is not finite at point {_NAN_POINT}\n",
    ("log_factor", True, ("identities",)): "error: numeric failure on 'nan_scalar' during "
    "'identities': nan_scalar: field 'conformal_parent.log_factor' is not finite at point "
    f"{_NAN_STENCIL_POINT}\n",
}


@pytest.mark.parametrize("field, stencil, suites", list(_NAN_SCALAR_LINES))
def test_a_nan_scalar_field_in_a_joined_report_names_its_chart(field, stencil, suites,
                                                                capsys):
    # the joined evaluation computes the dilaton and the conformal factor for
    # all three sections, flat_torus_4 and hopf_hkt among them, which have no
    # dilaton, and flat_torus_4 no conformal parent; a NaN in hopf_standard's
    # field, at a base point or on a stencil, still names hopf_standard, in
    # the line a report printed when each section computed its own
    m = replace(get_manifold("hopf_standard"), name="nan_scalar")
    spot = m.sample_points(16, 0, margin=max(0.05, 3 * ktgeo.tensor_core.DEFAULT_STEP))[3]
    if field == "dilaton":
        m = replace(m, dilaton=_nan_near(m.dilaton, spot, stencil))
    else:
        m = replace(m, conformal_parent=replace(m.conformal_parent, log_factor=_nan_near(
            m.conformal_parent.log_factor, spot, stencil)))
    register_manifold(m)
    argv = ["report", "--manifold", "flat_torus_4", "--manifold", "nan_scalar",
            "--manifold", "hopf_hkt", "--points", "16", "--out", "/dev/null"]
    assert main(argv + [a for s in suites for a in ("--suite", s)]) == 3
    assert capsys.readouterr().err == _NAN_SCALAR_LINES[field, stencil, suites]


# a NaN J at a base point fails the first section that reads J, as a NaN
# conformal factor does: classify, or the conformal row, which checks the
# parent's J against it.  Joined after flat_torus_4, whose classify suite
# reads J for the group, hopf_standard's line names classify; a parentless
# chart joined before hopf_standard gives its line reported alone
_NAN_J_LINES = {
    ("hopf_standard", ("flat_torus_4", "nan_j", "hopf_hkt")):
    "error: numeric failure on 'nan_j' during 'classify': nan_j: field 'complex_structure' "
    "is not finite at point [-0.17571282657382853, -1.1045960030281459, -0.714578458103971, "
    "0.46073028880045236]\n",
    ("flat_torus_4", ("nan_j", "hopf_standard")):
    "error: numeric failure on 'nan_j' during 'classify': nan_j: field 'complex_structure' "
    "is not finite at point [4.514683143008792, 3.0153356250002004, 3.3694098270856876, "
    "1.606800306268291]\n",
}


@pytest.mark.parametrize("base, names", list(_NAN_J_LINES))
def test_a_nan_j_in_a_joined_report_fails_the_first_section_that_reads_it(base, names,
                                                                          capsys):
    m = replace(get_manifold(base), name="nan_j")
    spot = m.sample_points(16, 0, margin=max(0.05, 3 * ktgeo.tensor_core.DEFAULT_STEP))[3]
    register_manifold(replace(m, complex_structure=_nan_near(m.complex_structure, spot,
                                                             False)))
    groups = [names] + [["nan_j"]] * (m.conformal_parent is None)
    for group in groups:
        argv = ["report", "--points", "16", "--out", "/dev/null"]
        assert main(argv + [a for n in group for a in ("--manifold", n)]) == 3
        assert capsys.readouterr().err == _NAN_J_LINES[base, names]


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
        name="degenerate_test_manifold",
        chart=BoxChart(lows=(0.0,) * 4, highs=(2 * np.pi,) * 4),
        metric=bad_metric, complex_structure=_const_field(_block_j(4))))
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


def test_a_chart_field_given_as_a_list_is_read_as_an_array(tmp_path):
    # a nested list of the right shape is the field's array, and an integer
    # array is read as float64: the report is the one of the same chart with
    # a float64 ndarray field
    flat = get_manifold("flat_torus_4")
    texts = []
    for metric in (flat.metric, lambda p: flat.metric(p).tolist(),
                   lambda p: flat.metric(p).astype(np.int64)):
        register_manifold(replace(flat, name="list_metric_test_manifold", metric=metric))
        out_file = tmp_path / f"{len(texts)}.json"
        assert main(["report", "--manifold", "list_metric_test_manifold", "--points", "2",
                     "--out", str(out_file)]) == 0
        texts.append(out_file.read_text())
    assert texts[0] == texts[1] == texts[2]


def _ragged_metric(p):
    g = get_manifold("flat_torus_4").metric(p).tolist()
    g[0][0] = g[0][0][:3]
    return g


def _raising_metric(error):
    def metric(p):
        raise error("user field failed")
    return metric


@pytest.mark.parametrize("metric, message", [
    (lambda p: get_manifold("flat_torus_4").metric(p).astype(complex),
     "has dtype complex128, expected float64 or an integer type"),
    (lambda p: get_manifold("flat_torus_4").metric(p).astype(object),
     "has dtype object, expected float64 or an integer type"),
    (_ragged_metric, "is not an array: "),
    (_raising_metric(TypeError), "raised TypeError: user field failed"),
    (_raising_metric(ZeroDivisionError), "raised ZeroDivisionError: user field failed"),
], ids=["complex", "object", "ragged", "TypeError", "ZeroDivisionError"])
def test_a_malformed_chart_field_exits_3(metric, message, capsys):
    # a GeometryError or ValueError of a field is a numeric failure; any other
    # exception, and a value that is not a float64 or integer array, breaks
    # the chart's contract: one line naming the manifold and the field, not a
    # traceback
    register_manifold(replace(get_manifold("flat_torus_4"), name="malformed_test_manifold",
                              metric=metric))
    code = main(["report", "--manifold", "malformed_test_manifold", "--points", "1",
                 "--out", "/dev/null"])
    assert code == 3
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("error: contract violation on 'malformed_test_manifold' during "
                           "'classify': malformed_test_manifold: field 'metric' " + message)


def _identity_metric(p):
    x = np.asarray(p, dtype=float)
    return np.broadcast_to(np.eye(4), x.shape[:-1] + (4, 4)).copy()


def _shaped_metric(shape):
    return lambda p: np.ones(np.shape(p)[:-1] + shape)


def _retyped_metric(dtype):
    return lambda p: _identity_metric(p).astype(dtype)


def _non_finite_metric(value, entry, stride):
    """The identity metric with ``value`` at ``entry`` of every ``stride``-th
    point, the first point among them."""
    def metric(p):
        g = _identity_metric(p)
        g.reshape((-1, 4, 4))[::stride, entry[0], entry[1]] = value
        return g
    return metric


def _asymmetric_metric(entry, size):
    return lambda p: _identity_plus(p, entry, lambda x: size * (1.5 + np.sin(x[..., 2])))


def _indefinite_metric(sizes, negative):
    """A constant diagonal metric with the entries ``negative`` below 0."""
    diagonal = [-v if k in negative else v for k, v in enumerate(sizes)]
    return lambda p: _identity_metric(p) * np.asarray(diagonal)


_OFF_DIAGONAL = st.sampled_from([(i, j) for i in range(4) for j in range(4) if i != j])

# a grammar of malformed metric fields: each raises, has the wrong shape, is
# ragged or not real, is NaN or infinite on a subset of the points, is
# asymmetric or is not positive definite
_MALFORMED_METRICS = st.one_of(
    st.sampled_from([TypeError, ZeroDivisionError, KeyError, RuntimeError, ValueError,
                     np.linalg.LinAlgError]).map(_raising_metric),
    st.lists(st.integers(1, 5), max_size=3).map(tuple)
    .filter(lambda shape: shape != (4, 4)).map(_shaped_metric),
    st.just(_ragged_metric),
    st.sampled_from([complex, object, np.float16, np.float32, np.longdouble, bool])
    .map(_retyped_metric),
    st.builds(_non_finite_metric, st.sampled_from([np.nan, np.inf, -np.inf]),
              st.tuples(st.integers(0, 3), st.integers(0, 3)), st.integers(1, 3)),
    st.builds(_asymmetric_metric, _OFF_DIAGONAL,
              st.floats(0.01, 0.5) | st.floats(-0.5, -0.01)),
    st.builds(_indefinite_metric, st.lists(st.floats(0.1, 2.0), min_size=4, max_size=4),
              st.sets(st.integers(0, 3), min_size=1)),
)


@settings(max_examples=200, deadline=None)
@given(_MALFORMED_METRICS, st.sampled_from([[]] + [["--suite", s] for s in ktgeo.cli.SUITES]))
def test_a_malformed_metric_exits_3_naming_the_manifold(metric, suites):
    # no malformed field may exit 0 or 1, or leave a traceback, whichever
    # suite reads it first: exit 3 with one error line naming the manifold
    _block_j_box("fuzzed_test_manifold", metric)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["report", "--manifold", "fuzzed_test_manifold", "--points", "2",
                     *suites, "--out", "/dev/null"])
    assert code == 3
    [line] = err.getvalue().splitlines()
    assert line.startswith("error: ")
    assert "'fuzzed_test_manifold'" in line


def test_a_report_imports_no_numpy_module(tmp_path):
    # chart points come from the standard library's generator, so a report
    # loads no NumPy module (numpy.random among them) beyond those that
    # importing the command line loads
    out_file = tmp_path / "suite.json"
    script = ("import sys\n"
              "from ktgeo.cli import main\n"
              "before = set(sys.modules)\n"
              f"code = main(['suite', '--all', '--points', '1', '--out', {str(out_file)!r}])\n"
              "print(sorted(n for n in set(sys.modules) - before if n.startswith('numpy')))\n"
              "sys.exit(code)\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
    assert json.loads(out_file.read_text())["overall_pass"] is True


def _block_j_box(name, metric):
    """A registered 4-dimensional box chart with the block J."""
    register_manifold(HermitianManifold(
        name=name, chart=BoxChart(lows=(0.0,) * 4, highs=(2 * np.pi,) * 4),
        metric=metric, complex_structure=_const_field(_block_j(4))))


def _identity_plus(p, entry, value):
    """The identity metric at ``p`` with ``value(x)`` at ``entry``."""
    x = np.asarray(p, dtype=float)
    g = np.broadcast_to(np.eye(4), x.shape[:-1] + (4, 4)).copy()
    g[(...,) + entry] = value(x)
    return g


def test_asymmetric_metric_exits_3_naming_the_manifold_and_the_field(capsys):
    # g_01 = 0.3 sin x_2 and g_10 = 0: without the check the report exits 1,
    # with kahler and strong_kt reading true
    _block_j_box("asymmetric_test_manifold",
                 lambda p: _identity_plus(p, (0, 1), lambda x: 0.3 * np.sin(x[..., 2])))
    code = main(["report", "--manifold", "asymmetric_test_manifold", "--points", "8",
                 "--out", "/dev/null"])
    assert code == 3
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("error: contract violation on 'asymmetric_test_manifold' during ")
    assert "asymmetric_test_manifold: field 'metric' is not symmetric" in line


def test_chart_that_breaks_a_lee_route_fails_its_row(tmp_path, capsys):
    # g_00 = 1 + 0.3 sin^2 x_2 is not J-compatible for the block J, so the
    # Lee form's routes disagree (1.2e-2): a failed row, not an abort
    _block_j_box("incompatible_test_manifold",
                 lambda p: _identity_plus(p, (0, 0), lambda x: 1 + 0.3 * np.sin(x[..., 2]) ** 2))
    out = tmp_path / "r.json"
    code = main(["report", "--manifold", "incompatible_test_manifold", "--points", "8",
                 "--out", str(out)])
    assert code == 1
    assert "error:" not in capsys.readouterr().err
    [section] = json.loads(out.read_text())["manifolds"]
    [row] = section["structure"]
    assert row["name"] == "lee_form_routes" and row["passed"] is False
    assert row["residual"] > 1e-3


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("dim, j", [(2, _block_j(2)), (5, np.eye(5))])
def test_chart_of_unsupported_dimension_exits_3_naming_the_manifold(dim, j, capsys):
    # a flat 2-torus divided by n - 1 = 0 in the LCK torsion, and a
    # 5-dimensional chart with J = identity passed every check; the section's
    # evaluation checks the dimension when it is built, before any suite
    register_manifold(HermitianManifold(
        name="unsupported_dim_test_manifold",
        chart=BoxChart(lows=(0.0,) * dim, highs=(2 * np.pi,) * dim),
        metric=_const_field(np.eye(dim)), complex_structure=_const_field(j)))
    code = main(["report", "--manifold", "unsupported_dim_test_manifold", "--points", "4",
                 "--out", "/dev/null"])
    assert code == 3
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("error: contract violation on 'unsupported_dim_test_manifold' "
                           "during 'sampling': ")
    assert f"unsupported_dim_test_manifold: dimension {dim}, expected an even" in line


def test_empty_sampling_window_exits_3_naming_the_manifold(capsys):
    # the margin empties the window of the tight axis before any suite runs
    register_manifold(HermitianManifold(
        name="empty_window_test_manifold",
        chart=BoxChart(lows=(0.0,) * 4, highs=(0.05, 1.0, 1.0, 1.0), tight_axes=(0,)),
        metric=_const_field(np.eye(4)), complex_structure=_const_field(_block_j(4))))
    code = main(["report", "--manifold", "empty_window_test_manifold", "--points", "4",
                 "--out", "/dev/null"])
    assert code == 3
    [line] = capsys.readouterr().err.splitlines()
    assert line == ("error: numeric failure on 'empty_window_test_manifold' during "
                    "'sampling': margin leaves an empty sampling window")


class _UndescribedChart(BoxChart):
    def describe(self):
        raise ValueError("describe failed")


def test_chart_description_failure_exits_3_naming_the_manifold(capsys):
    register_manifold(HermitianManifold(
        name="undescribed_test_manifold",
        chart=_UndescribedChart(lows=(0.0,) * 4, highs=(2 * np.pi,) * 4),
        metric=_const_field(np.eye(4)), complex_structure=_const_field(_block_j(4))))
    code = main(["report", "--manifold", "undescribed_test_manifold", "--points", "1",
                 "--out", "/dev/null"])
    assert code == 3
    [line] = capsys.readouterr().err.splitlines()
    assert line == ("error: numeric failure on 'undescribed_test_manifold' during "
                    "'sampling': describe failed")


def test_suite_all_is_report_manifold_all(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["suite", "--all", "--points", "2", "--out", str(a)]) == 0
    assert main(["report", "--manifold", "all", "--points", "2", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


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
    # the base points and the one stencil set of the base pass around them
    assert sorted(s[:-3] for s in shapes) == [(2,), (2, 2, 4)]


def test_tol_classify_reaches_the_hkt_block(tmp_path):
    # the HKT residuals of a default run sit at roundoff, and at some seed one
    # of them is not exactly 0: a tolerance at half the largest turns the bit
    # off
    default_file, out_file = tmp_path / "default.json", tmp_path / "hkt.json"
    for seed in range(8):
        args = ["report", "--manifold", "hopf_hkt", "--seed", str(seed)]
        assert main(args + ["--out", str(default_file)]) == 0
        residuals = json.loads(default_file.read_text())["manifolds"][0]["flags"]["hkt"]
        tol = max(residuals[r] for r in HKT_READS) / 2
        if tol > 0:
            break
    assert tol > 0
    code = main(args + ["--tol-classify", repr(tol), "--out", str(out_file)])
    hkt = json.loads(out_file.read_text())["manifolds"][0]["flags"]["hkt"]
    assert hkt["tolerance"] == tol
    assert not hkt["hkt"]
    assert code == 1


# the residuals each flag reads, as the README states them
FLAG_READS = {
    "kahler": ["torsion"], "strong_kt": ["torsion_closure"],
    "almost_strong_kt": ["lambda_omega"], "balanced": ["lee_form"],
    "lck": ["lck_defect", "lee_form_closure"],
    "su_holonomy_indicator": ["ricci_form", "curvature_j_commutator"],
}
HKT_READS = ["quaternion_residual", "torsion_match_residual", "lee_match_residual"]


def test_one_flag_rule_across_sections(tmp_path):
    # every flag, the HKT bit and the string hypotheses hold exactly when
    # every residual they read is within the tolerance, at tolerances where
    # they flip
    register_manifold(block_conformal_torus_4())
    register_manifold(block_conformal_torus_6())
    seen = set()
    for tol in (1e-5, 1e-7, 1e-9):
        out_file = tmp_path / f"rule-{tol}.json"
        main(["report", "--manifold", "all", "--manifold", "block_conformal_torus_4",
              "--manifold", "block_conformal_torus_6", "--points", "2",
              "--tol-classify", str(tol), "--out", str(out_file)])
        sections = json.loads(out_file.read_text())["manifolds"]
        assert len(sections) == len(catalog_names()) + 2
        signature = []
        for section in sections:
            flags, res = section["flags"], section["flags"]["residuals"]
            assert flags["tolerance"] == tol
            bits = {k: v for k, v in flags.items() if isinstance(v, bool)}
            assert bits == {flag: all(res[r] <= tol for r in reads)
                            for flag, reads in FLAG_READS.items()}, section["name"]
            if flags["hkt"] is not None:
                hkt = flags["hkt"]
                assert hkt["tolerance"] == tol
                assert hkt["hkt"] == all(hkt[r] <= tol for r in HKT_READS)
            assert section["taxonomy_implications"] == (
                (not bits["kahler"] or bits["strong_kt"])
                and (not bits["strong_kt"] or bits["almost_strong_kt"]))
            for rep in section["string"].values():
                hyp = rep["th1_consistency"]["hypotheses"]
                assert hyp == {
                    "strong_residual": res["torsion_closure"],
                    "su_residual": max(res["ricci_form"], res["curvature_j_commutator"]),
                    "strong_kt": bits["strong_kt"],
                    "su_indicator": bits["su_holonomy_indicator"],
                    "ok": bits["strong_kt"] and bits["su_holonomy_indicator"]}
                assert rep["hypothesis_ok"] == hyp["ok"]
            signature.append((tuple(bits.values()), hyp["ok"]))
        seen.add(tuple(signature))
    assert len(seen) == 3  # each tolerance flips some flag or hypothesis


def _half_filled_metric(value):
    """The identity metric, with ``value`` in every entry where x_0 > pi."""
    def metric(p):
        g = _identity_metric(p)
        g[np.asarray(p)[..., 0] > np.pi] = value
        return g
    return metric


@pytest.mark.parametrize("suite", ["classify", "identities", "string"])
def test_non_finite_residual_exits_3(suite, capsys):
    # a NaN or infinite chart-field value is a numeric failure of the suite
    # that first reads the field, named at the field (under the warnings-as-
    # errors filter, so no NumPy warning escapes before it), not at a residual
    for value in (np.nan, np.inf):
        register_manifold(HermitianManifold(
            name="half_nan_test_manifold",
            chart=BoxChart(lows=(0.0,) * 4, highs=(2 * np.pi,) * 4),
            metric=_half_filled_metric(value), complex_structure=_const_field(_block_j(4))))
        code = main(["report", "--manifold", "half_nan_test_manifold", "--suite", suite,
                     "--points", "8", "--out", "/dev/null"])
        assert code == 3
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith(f"error: numeric failure on 'half_nan_test_manifold' during "
                               f"{suite!r}: half_nan_test_manifold: field 'metric' is not "
                               "finite at point [")
        point = json.loads(line[line.index("["):])
        assert len(point) == 4 and point[0] > np.pi


def test_linear_algebra_failure_exits_3(monkeypatch, capsys):
    # NumPy's LinAlgError raised by the engine inside a section is a numeric
    # failure of that section
    def failing(ev, tol=None):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(ktgeo.cli, "structure_flags", failing)
    assert main(["report", "--manifold", "flat_torus_4", "--points", "1",
                 "--out", "/dev/null"]) == 3
    [line] = capsys.readouterr().err.splitlines()
    assert line == ("error: numeric failure on 'flat_torus_4' during 'classify': "
                    "Eigenvalues did not converge")


def test_an_engine_bug_exits_4_naming_the_manifold_and_suite(monkeypatch, capsys):
    # any other exception inside a section is an engine bug, not a failed
    # residual: its traceback, then one error line, and exit 4
    def broken(ev, flavor):
        raise RuntimeError("engine bug")

    for info in pkgutil.iter_modules(ktgeo.__path__):
        module = importlib.import_module(f"ktgeo.{info.name}")
        if hasattr(module, "riemann_values"):
            monkeypatch.setattr(module, "riemann_values", broken)
    assert main(["report", "--manifold", "flat_torus_4", "--points", "1",
                 "--out", "/dev/null"]) == 4
    err = capsys.readouterr().err.splitlines()
    assert err[0] == "Traceback (most recent call last):"
    assert err[-2] == "RuntimeError: engine bug"
    assert err[-1] == ("error: internal error on 'flat_torus_4' during 'classify': "
                       "RuntimeError: engine bug")


def test_an_engine_bug_outside_every_section_exits_4(monkeypatch, capsys):
    # an exception after the sections ran, in the renderer here, is an
    # engine bug too: its traceback, then one error line, and exit 4
    def broken(report):
        raise RuntimeError("renderer bug")

    monkeypatch.setattr(ktgeo.cli, "render_report", broken)
    assert main(["report", "--manifold", "flat_torus_4", "--points", "1",
                 "--out", "/dev/null"]) == 4
    err = capsys.readouterr().err.splitlines()
    assert err[0] == "Traceback (most recent call last):"
    assert err[-2] == "RuntimeError: renderer bug"
    assert err[-1] == "error: internal error: RuntimeError: renderer bug"


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


def test_value_error_in_a_chart_field_exits_3_naming_the_manifold_and_suite(capsys):
    def failing_metric(p):
        raise ValueError("user field failed")

    register_manifold(replace(get_manifold("flat_torus_4"), name="value_error_test_manifold",
                              metric=failing_metric))
    code = main(["report", "--manifold", "value_error_test_manifold", "--points", "1",
                 "--out", "/dev/null"])
    assert code == 3
    [line] = capsys.readouterr().err.splitlines()
    assert line == ("error: numeric failure on 'value_error_test_manifold' during "
                    "'classify': user field failed")


def test_the_cached_parser_carries_no_state_between_calls(monkeypatch, tmp_path):
    built = Counter()
    real_init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built["parsers"] += 1
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    assert main(["report", "--manifold", "flat_torus_4", "--suite", "identities",
                 "--points", "1", "--out", str(first)]) == 0
    after_first = built["parsers"]
    assert main(["report", "--manifold", "hopf_standard", "--points", "1",
                 "--out", str(second)]) == 0
    assert built["parsers"] == after_first  # the second call built no parser
    rep = json.loads(second.read_text())
    assert rep["config"]["manifolds"] == ["hopf_standard"]
    assert rep["config"]["suites"] == list(ktgeo.cli.SUITES)
    [section] = rep["manifolds"]
    assert section["name"] == "hopf_standard"
    assert {"flags", "identities", "dim4", "string"} <= section.keys()


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


def test_report_measures_each_difference_once(monkeypatch, tmp_path):
    # a difference that two rows (or a row and a classify residual, or both
    # dilatons) share is converted to the frame once.  Conversions are
    # counted per array object; every converted array is held, so no id is
    # reused within the report
    held, seen = [], Counter()

    def counting(module):
        real = module.to_frame

        def counted(t, frame, valence):
            held.append(t)
            seen[(valence, id(t))] += 1
            return real(t, frame, valence)
        monkeypatch.setattr(module, "to_frame", counted)

    counting(ktgeo.identities)
    code = main(["report", "--manifold", "hopf_standard", "--points", "2",
                 "--out", str(tmp_path / "r.json")])
    assert code == 0
    assert len(seen) > 30
    assert [k[0] for k, n in seen.items() if n > 1] == []


def _shape(obj):
    """The key sets and list lengths of a parsed report, its leaves dropped."""
    if isinstance(obj, dict):
        return {k: _shape(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_shape(v) for v in obj]
    return None


def test_report_shape_does_not_depend_on_the_point_count(tmp_path):
    shapes = []
    for points in ("1", "5"):
        out_file = tmp_path / f"suite{points}.json"
        assert main(["suite", "--all", "--points", points, "--out", str(out_file)]) == 0
        shapes.append(_shape(json.loads(out_file.read_text())))
    assert shapes[0] == shapes[1]


ROW_KEYS = ["name", "residual", "tolerance", "status", "passed", "worst_point", "reason"]


@pytest.mark.parametrize("tol", [1e-9, 1e-5, 1e-3])
def test_every_row_has_one_shape_and_its_order_sets_the_tolerance(tol, tmp_path):
    register_manifold(block_conformal_torus_6())
    out_file = tmp_path / "rows.json"
    main(["report", "--manifold", "su2xu1", "--manifold", "hopf_standard",
          "--manifold", "block_conformal_torus_6", "--points", "1",
          "--tol-identity", str(tol), "--out", str(out_file)])
    statuses = Counter()
    for section in json.loads(out_file.read_text())["manifolds"]:
        for suite in ("identities", "dim4"):
            for e in section[suite]:
                # identity and dim4 rows write max_residual, which ktbench/checks.py reads
                assert list(e) == ["max_residual" if k == "residual" else k for k in ROW_KEYS]
                first_order = e["name"] == "torsion_lee_duality"
                assert e["tolerance"] == (min(1e-6, tol) if first_order else tol)
                statuses[e["status"]] += 1
                assert (e["passed"] is None) == (e["status"] != "asserted")
        for rep in section["string"].values():
            for e in rep["entries"]:
                assert list(e) == ROW_KEYS
                assert e["tolerance"] == 1e-4  # --tol-identity does not reach string rows
                statuses[e["status"]] += 1
                assert (e["passed"] is None) == (e["status"] != "asserted")
    assert set(statuses) == {"asserted", "info", "hypothesis_failed", "skipped"}


def test_non_lck_chart_reports_the_skipped_reduction(tmp_path):
    # a Hermitian 6-torus that is not locally conformally Kaehler: the dim4
    # suite skips the LCK reduction by name, naming the measured defect, and
    # the report survives
    register_manifold(block_conformal_torus_6())
    out_file = tmp_path / "torus.json"
    code = main(["report", "--manifold", "block_conformal_torus_6", "--suite", "classify",
                 "--suite", "identities", "--suite", "dim4", "--points", "4",
                 "--out", str(out_file)])
    assert code == 0
    section = json.loads(out_file.read_text())["manifolds"][0]
    assert not section["flags"]["lck"]
    defect = section["flags"]["residuals"]["lck_defect"]
    assert defect > 0.1
    [skip] = section["dim4"]
    assert (skip["name"], skip["status"], skip["max_residual"], skip["passed"],
            skip["worst_point"]) == ("lck_lambda_reduction", "skipped", None, None, None)
    assert skip["reason"] == (
        f"block_conformal_torus_6: lck_defect {defect:.3g} exceeds 1e-06, so T does not have "
        "the LCK shape J theta ^ omega / (n-1) on which the lambda reduction holds")
    assert len(section["identities"]) == 14
    assert all(e["passed"] for e in section["identities"])


def test_non_lck_4_torus_keeps_the_duality_and_the_reduction(tmp_path):
    # every Hermitian surface has LCK-shaped torsion, so both dim4 rows run
    # and hold; the Lee form is not closed, so the chart is not LCK
    register_manifold(block_conformal_torus_4())
    out_file = tmp_path / "torus4.json"
    code = main(["report", "--manifold", "block_conformal_torus_4", "--points", "8",
                 "--out", str(out_file)])
    assert code == 0
    section = json.loads(out_file.read_text())["manifolds"][0]
    assert not section["flags"]["lck"]
    assert section["flags"]["residuals"]["lee_form_closure"] > 0.1
    assert section["flags"]["residuals"]["lck_defect"] < 1e-12
    assert [(e["name"], e["status"], e["passed"]) for e in section["dim4"]] == [
        ("torsion_lee_duality", "asserted", True), ("lck_lambda_reduction", "asserted", True)]


def test_chart_registered_without_declarations_runs_the_lck_reduction(tmp_path):
    # the README's way to add a chart: a conformally Kaehler 6-torus built
    # from its fields alone; its class is measured, so the reduction runs
    def metric(p):
        x = np.asarray(p, dtype=float)
        f = 0.2 * np.sin(x[..., 0]) + 0.15 * np.cos(x[..., 3] - x[..., 4])
        return np.exp(2.0 * f)[..., None, None] * np.eye(6)

    register_manifold(HermitianManifold(
        name="custom_conformal_torus_6", chart=BoxChart(lows=(0.0,) * 6, highs=(2 * np.pi,) * 6),
        metric=metric, complex_structure=_const_field(_block_j(6))))
    out_file = tmp_path / "custom.json"
    code = main(["report", "--manifold", "custom_conformal_torus_6", "--suite", "classify",
                 "--suite", "dim4", "--points", "4", "--out", str(out_file)])
    assert code == 0
    section = json.loads(out_file.read_text())["manifolds"][0]
    assert section["dim"] == 6
    assert section["flags"]["lck"]
    assert [(e["name"], e["status"], e["passed"]) for e in section["dim4"]] == [
        ("lck_lambda_reduction", "asserted", True)]


def _counted(metric, points):
    def fn(p):
        points.append(np.asarray(p)[..., 0].size)
        return metric(p)
    return fn


# a full 2-point report evaluates each metric at 1 + 2d + 2d^2 points per
# base point, in one call per pass block: the base points, the stencil set of
# the base pass, and the distinct points of the set around it other than the
# return points, which read the base point (hopf_standard and hopf_hkt count
# their conformal parent as well; the other two structures of hopf_hkt's
# triple join the section's pass and read its metric at every stencil level,
# so they add none)
_METRIC_POINTS = {"hopf_standard": 164, "su2xu1": 82, "block_conformal_torus_6": 170,
                  "hopf_hkt": 164}


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


def _calls(fn, calls):
    def counted(p):
        calls.append(np.shape(p))
        return fn(p)
    return counted


# a report calls each member's metric and J once per block of its base pass
# (16 points in d = 6: 32 points run in two blocks, 40 in blocks of 13, 13
# and 14), one call on the block's base points, its first stencil level and
# the distinct points of its second, and the conformal parent's J once more,
# at the base points, where it is checked against the section's
@pytest.mark.parametrize("name, points, blocks", [("conf_torus_6", 32, 2),
                                                  ("block_conformal_torus_6", 40, 3)])
def test_report_calls_each_field_once_per_pass_block(tmp_path, name, points, blocks):
    m = block_conformal_torus_6() if name == "block_conformal_torus_6" else get_manifold(name)
    calls = {"metric": [], "J": [], "parent metric": [], "parent J": []}
    fields = {"metric": _calls(m.metric, calls["metric"]),
              "complex_structure": _calls(m.complex_structure, calls["J"])}
    if m.conformal_parent is not None:
        parent = m.conformal_parent.parent
        fields["conformal_parent"] = replace(m.conformal_parent, parent=replace(
            parent, metric=_calls(parent.metric, calls["parent metric"]),
            complex_structure=_calls(parent.complex_structure, calls["parent J"])))
    register_manifold(replace(m, name=f"called_{name}", **fields))
    code = main(["report", "--manifold", f"called_{name}", "--points", str(points),
                 "--out", str(tmp_path / "r.json")])
    assert code == 0
    parents = m.conformal_parent is not None
    assert {field: len(shapes) for field, shapes in calls.items()} == {
        "metric": blocks, "J": blocks, "parent metric": blocks * parents, "parent J": parents}
    # each block's call covers 1 + 2d + 2d^2 = 85 points per base point
    assert sum(shape[0] for shape in calls["metric"]) == 85 * points
    assert calls["parent J"] == [(points, 6)] * parents


# the benchmark's tracer wraps the engine's functions and the charts' fields
# from outside: a traced report has the bytes of a plain one, the tracer
# puts every function and chart back, and it sees each field read at
# distinct points only: on one hopf_hkt point, the section's g and J and the
# parent's g at 1 + 2d + 2d^2 = 41 points, each other structure's J at
# 1 + 2d = 9, and the parent's J at the base point
def test_benchmark_tracer_sees_each_field_point_once_and_changes_no_bytes(tmp_path):
    tracing = benchmark_module("tracing")

    def report():
        out = tmp_path / "r.json"
        assert main(["report", "--manifold", "hopf_hkt", "--points", "1",
                     "--out", str(out)]) == 0
        return out.read_bytes()
    plain = report()
    originals = (ktgeo.identities.torsion_bismut_values, np.einsum, get_manifold("hopf_hkt"))
    tracer = tracing.Tracer()
    tracer.install(["hopf_hkt"])
    try:
        assert ktgeo.identities.torsion_bismut_values is not originals[0]
        tracer.begin([])
        traced = report()
        tracer.end()
    finally:
        tracer.uninstall()
    assert traced == plain
    restored = (ktgeo.identities.torsion_bismut_values, np.einsum, get_manifold("hopf_hkt"))
    assert all(now is then for now, then in zip(restored, originals))
    counts = tracer.reports[0]
    assert set(tracing.SPANS) <= set(counts.spans)
    assert dict(counts.field_points) == {"metric": 82, "j": 60}
    assert counts.distinct_points == 82 + 60
    assert counts.flop > 0 and counts.bytes > 0


# every complex-structure field of a 2-point report is evaluated once per
# stencil point: the section's J at 1 + 2d + 2d^2 points per base point,
# its conformal parent's, which carries the section's J, at the base points
# only, and the other structures of hopf_hkt's triple at 1 + 2d, for omega on
# the first level of the section's pass
@pytest.mark.parametrize("name, expected", [
    ("hopf_standard", {"J": 82, "parent": 2}),
    ("hopf_hkt", {"J": 82, "parent": 2, "J2": 18, "J3": 18}),
    ("su2xu1", {"J": 82}),
    ("conf_torus_6", {"J": 170, "parent": 2}),
])
def test_report_complex_structure_evaluations(tmp_path, name, expected):
    m = get_manifold(name)
    counts = {field: [] for field in expected}
    fields = {"complex_structure": _counted(m.complex_structure, counts["J"])}
    if m.conformal_parent is not None:
        parent = m.conformal_parent.parent
        fields["conformal_parent"] = replace(m.conformal_parent, parent=replace(
            parent, complex_structure=_counted(parent.complex_structure, counts["parent"])))
    if m.hypercomplex is not None:
        fields["hypercomplex"] = tuple(_counted(j_fn, counts[f"J{k + 2}"])
                                       for k, j_fn in enumerate(m.hypercomplex))
    register_manifold(replace(m, name=f"counted_j_{name}", **fields))
    code = main(["report", "--manifold", f"counted_j_{name}", "--points", "2",
                 "--out", str(tmp_path / "r.json")])
    assert code == 0
    assert {field: sum(points) for field, points in counts.items()} == expected


def _with_parent_j(m, name, j_fn):
    """``m`` under ``name``, its conformal parent's complex structure ``j_fn``."""
    parent = m.conformal_parent
    return replace(m, name=name, conformal_parent=replace(
        parent, parent=replace(parent.parent, complex_structure=j_fn)))


def test_a_parent_whose_j_differs_at_a_base_point_breaks_the_contract(tmp_path, capsys):
    # a conformal change keeps J, so the parent carries the section's J; its
    # own J is read at the base points, where it must agree to 16 ulps of |J|;
    # joined after conf_torus_4, whose section makes both parents, the
    # failure still names the chart whose parent it is
    m = get_manifold("conf_torus_4")
    j_fn = m.conformal_parent.parent.complex_structure
    step = ktgeo.tensor_core.DEFAULT_STEP
    base = replace(m, name="parent_j_off").sample_points(2, 0, margin=max(0.05, 3 * step))[1]

    def off(p):
        out = j_fn(p)
        out[(np.asarray(p) == base).all(axis=-1)] += 1e-12
        return out
    register_manifold(_with_parent_j(m, "parent_j_off", off))
    for before in ([], ["--manifold", "conf_torus_4"]):
        code = main(["report", *before, "--manifold", "parent_j_off", "--points", "2",
                     "--out", str(tmp_path / "r.json")])
        assert code == 3
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("error: contract violation on 'parent_j_off' during "
                               "'identities'")
        assert "'conformal_parent.complex_structure'" in line
    # the other suites do not read the parent
    assert main(["report", "--manifold", "parent_j_off", "--points", "2", "--suite", "classify",
                 "--out", str(tmp_path / "r.json")]) == 0


@pytest.mark.parametrize("name", ["hopf_standard", "conf_torus_6"])
def test_a_parent_j_of_its_own_with_equal_values_gives_the_same_bytes(name, tmp_path):
    # pull_back builds the parent's J as a closure of its own, equal in value
    # to the section's: the report is that of a parent sharing the function
    m = get_manifold(name)
    j_fn = m.conformal_parent.parent.complex_structure
    reports = []
    for parent_j in (j_fn, lambda p: j_fn(np.array(p))):
        register_manifold(_with_parent_j(m, f"own_parent_j_{name}", parent_j))
        out = tmp_path / "r.json"
        reports.append((main(["report", "--manifold", f"own_parent_j_{name}", "--points", "4",
                              "--out", str(out)]), out.read_bytes()))
    assert reports[0][0] == 0
    assert reports[1] == reports[0]


# the dilaton and the conformal factor are chart fields held like the metric:
# a 2-point report evaluates each at 1 + 2d + 2d^2 points per base point
# (the rescaled metric calls its own factor, which is not counted here)
@pytest.mark.parametrize("name, expected", [
    ("hopf_standard", {"dilaton": 82, "log_factor": 82}),
    ("conf_torus_4", {"dilaton": 0, "log_factor": 82}),
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


def test_report_builds_one_evaluation_per_stencil_level_and_pass(monkeypatch, tmp_path):
    derived, passes = [], []
    real_derive, real_fd = Evaluation._derive, ktgeo.tensor_core.fd_partial

    def derive(self, m, pts, depth, *args, **kwargs):
        derived.append((pts.shape, depth))
        return real_derive(self, m, pts, depth, *args, **kwargs)

    def fd_partial(fn, points, step=ktgeo.tensor_core.DEFAULT_STEP):
        passes.append(np.shape(points))
        return real_fd(fn, points, step)

    monkeypatch.setattr(Evaluation, "_derive", derive)
    monkeypatch.setattr(ktgeo.identities, "fd_partial", fd_partial)
    code = main(["report", "--manifold", "su2xu1", "--points", "2",
                 "--out", str(tmp_path / "r.json")])
    assert code == 0
    first = (2, 2, 4, 4)
    # the one first-level evaluation, and one at the base point and the
    # 2d^2 = 32 distinct second-level points other than the return points
    # for each pass over the first level: su2xu1 has no dilaton and no
    # conformal factor, so g and omega share the only one
    assert derived == [(first, 1), ((2, 33, 4), 2)]
    assert passes.count(first) == 1


def _pass_makers(monkeypatch, tmp_path, *names):
    """The evaluation that makes each stencil pass of a full 2-point report
    on ``names``, in order, each with the evaluations made on the pass's
    stencil set: one for each evaluation whose partials the pass takes."""
    callers, passes = [], []
    real_partial, real_fd = Evaluation.partial, ktgeo.tensor_core.fd_partial
    real_derive = Evaluation._derive

    def partial(self, attr):
        callers.append(self)
        try:
            return real_partial(self, attr)
        finally:
            callers.pop()

    def fd_partial(fn, points, step=ktgeo.tensor_core.DEFAULT_STEP):
        passes.append((callers[-1], []))  # held, so no two evaluations share an id
        return real_fd(fn, points, step)

    def derive(self, m, pts, depth, *args, **kwargs):
        ev = real_derive(self, m, pts, depth, *args, **kwargs)
        if depth:  # on the stencil set of the last pass one level up
            [level for maker, level in passes if maker._depth == depth - 1][-1].append(ev)
        return ev

    monkeypatch.setattr(Evaluation, "partial", partial)
    monkeypatch.setattr(Evaluation, "_derive", derive)
    monkeypatch.setattr(ktgeo.identities, "fd_partial", fd_partial)
    code = main(["report", *(a for name in names for a in ("--manifold", name)),
                 "--points", "2", "--out", str(tmp_path / "r.json")])
    assert code == 0
    return passes


# the evaluations of a full report: the section's and its conformal parent's,
# and on hopf_hkt the other two structures of its triple; the section's one
# base pass takes them all
@pytest.mark.parametrize("name, evaluations", [("hopf_standard", 2), ("hopf_hkt", 4)])
def test_report_makes_one_base_pass_per_evaluation(monkeypatch, tmp_path, name, evaluations):
    passes = [(ev, level) for ev, level in _pass_makers(monkeypatch, tmp_path, name)
              if ev._depth == 0]
    [(section, level)] = passes
    assert section.m.name == name
    assert len(level) == evaluations
    assert level[0].m is section.m  # made first, its variants from it
    assert len({id(ev.m) for ev in level}) == evaluations


def test_report_makes_one_pass_per_evaluation_at_each_stencil_level(monkeypatch, tmp_path):
    # the section's first level differentiates g, omega, the dilaton and the
    # conformal factor, and the parent's first level g and omega, in the one
    # pass of the section's first level; a second level differentiates nothing
    passes = _pass_makers(monkeypatch, tmp_path, "hopf_standard")
    assert sorted(Counter(id(ev) for ev, _ in passes).values()) == [1] * 2
    assert [(ev._depth, len(level)) for ev, level in passes] == [(0, 2), (1, 2)]
    (_, first), (_, second) = passes
    # each level's parent evaluation shares the section's J there, all its
    # rows: read off it, not evaluated
    for section, parent in (first, second):
        assert parent.m is get_manifold("hopf_standard").conformal_parent.parent
        assert np.shares_memory(parent.J, section.J)
        assert np.array_equal(parent.J, section.J)


def test_a_joined_report_makes_one_pass_per_stencil_level(monkeypatch, tmp_path):
    # the two sections share one evaluation, whose one base pass takes the
    # partials of both, the dilaton's and the conformal factor's among them,
    # the two parents' joined evaluation and the triple's other structures;
    # no view joins it.  On the first level the joined evaluation and the
    # parents differentiate leaves, the dilaton and the factor among them
    passes = _pass_makers(monkeypatch, tmp_path, "hopf_standard", "hopf_hkt")
    assert [(ev._depth, len(level)) for ev, level in passes] == [(0, 4), (1, 2)]
    (group, first), (_, second) = passes
    assert [m.name for m, *_ in group.members] == ["hopf_standard", "hopf_hkt"]
    assert group.m is None
    assert {"phi", "log_factor"} <= set(first[0].differentiated)
    for level in (first, second):
        here, parents, structures = level[0], level[1], level[2:]
        assert [m.name for m, *_ in here.members] == ["hopf_standard", "hopf_hkt"]
        assert all(ev._holder is ev for ev in level)  # none is a view
        assert [m for m, *_ in parents.members] == [
            get_manifold(name).conformal_parent.parent for name in ("hopf_standard", "hopf_hkt")]
        assert np.shares_memory(parents.J, here.J)  # shared, not evaluated
        assert len(structures) == 2 * (level is first)
        for ev in structures:  # hopf_hkt's rows of the metric there
            assert ev.m.name == "hopf_hkt"
            assert np.shares_memory(ev.g, here.g)
            assert np.array_equal(ev.g, here.g[2:])


# the sections of a report that each suite writes
_SUITE_SECTIONS = {"classify": ("flags", "vanishing_hypotheses", "taxonomy_implications"),
                   "identities": ("identities",), "dim4": ("dim4",), "string": ("string",)}


def test_each_suite_alone_writes_its_sections_of_the_full_report(tmp_path):
    # a suite reads what it needs from the section's evaluation, whichever
    # suites ran on it first, and its values do not depend on which did
    def sections(suites, keys):
        out = tmp_path / "r.json"
        argv = ["report", "--manifold", "all", "--points", "2", "--out", str(out)]
        assert main(argv + [a for s in suites for a in ("--suite", s)]) == 0
        return [{k: s[k] for k in keys} for s in json.loads(out.read_text())["manifolds"]]

    assert set(_SUITE_SECTIONS) == set(ktgeo.cli.SUITES)
    # the structure block runs in every section, whatever the suites
    every = [k for keys in _SUITE_SECTIONS.values() for k in keys] + ["structure"]
    full = sections((), every)
    for suite, keys in _SUITE_SECTIONS.items():
        keys = (*keys, "structure")
        assert sections((suite,), keys) == [{k: s[k] for k in keys} for s in full], suite


def _asked_partials(monkeypatch, tmp_path, suites, joined):
    """Each section's evaluation of one-point reports of ``suites`` on the
    catalog, with the primitives whose partials those suites read on its
    chart, and the partials asked of each evaluation on base points, by
    id: one report per chart, each a group of one, or one of them all, whose
    sections of one dimension are joined."""
    sections, asked = [], {}
    real_partial, real_joined = Evaluation.partial, Evaluation.joined

    def joined_evaluations(given, step, report_suites):
        assert report_suites == (suites or ktgeo.cli.SUITES)
        evaluations = real_joined(given, step, report_suites)
        # held, so no two share an id
        sections.extend((ev, ktgeo.identities._differentiated(m, report_suites))
                        for ev, (m, _) in zip(evaluations, given))
        return evaluations

    def partial(self, attr):
        if self._depth == 0:
            asked.setdefault(id(self), set()).add(attr)
        return real_partial(self, attr)

    monkeypatch.setattr(Evaluation, "joined", staticmethod(joined_evaluations))
    monkeypatch.setattr(Evaluation, "partial", partial)
    for names in [["all"]] if joined else [[name] for name in catalog_names()]:
        argv = ["report", "--points", "1", "--out", str(tmp_path / "r.json")]
        assert main(argv + [a for n in names for a in ("--manifold", n)]
                    + [a for s in suites for a in ("--suite", s)]) == 0
    names, expected = [ev.m.name for ev, _ in sections], catalog_names()
    if joined:  # made one dimension at a time
        names, expected = sorted(names), sorted(expected)
    assert names == expected
    for ev, differentiated in sections:
        assert (ev._source is None) is not joined
        if not suites:
            assert differentiated == ktgeo.identities._differentiated(ev.m)
    return sections, asked


_SUITE_RUNS = pytest.mark.parametrize("suites", [(s,) for s in ktgeo.cli.SUITES] + [()],
                                      ids=[*ktgeo.cli.SUITES, "all"])


@_SUITE_RUNS
def test_each_section_differentiates_the_partials_its_suites_read(monkeypatch, tmp_path,
                                                                  suites):
    # the section's one base pass takes exactly the partials its suites read,
    # and with every suite the full tuple, in its order
    sections, asked = _asked_partials(monkeypatch, tmp_path, suites, joined=False)
    for ev, differentiated in sections:
        assert asked[id(ev)] == set(differentiated), ev.m.name
        assert ev.differentiated == differentiated


@_SUITE_RUNS
def test_each_joined_section_differentiates_the_partials_its_suites_read(monkeypatch,
                                                                         tmp_path, suites):
    # at one point per chart one pass per dimension takes every section's
    # partials, the dilaton's and the conformal factor's among them, all on
    # the joined evaluation: it takes exactly those its sections read, and
    # each view reads only partials its suites read, off it, in no pass
    sections, asked = _asked_partials(monkeypatch, tmp_path, suites, joined=True)
    groups = {}
    for ev, differentiated in sections:
        assert ev.differentiated == ()
        assert asked.get(id(ev), set()) <= set(differentiated), ev.m.name
        groups.setdefault(id(ev._source), (ev._source, set()))[1].update(differentiated)
    assert len(groups) == 2  # one per dimension
    for group, read in groups.values():
        assert set(group.differentiated) == read == asked[id(group)]


def test_report_traced_peak_holds_no_stencil_level(tmp_path):
    # the stencil evaluation of a base pass is dropped when the pass returns;
    # a first level held for the whole section put this peak at 34.7 MiB
    tracemalloc.start()
    try:
        code = main(["report", "--manifold", "conf_torus_6", "--points", "64",
                     "--out", str(tmp_path / "r.json")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 26 * 2**20


# the sections in each group a catalog report forms, in the order the groups
# run: 81 points fit one pass block in d = 4, 16 in d = 6
_GROUPS = {1: [5, 2], 8: [5, 2], 16: [5, 1, 1], 24: [3, 1, 2, 1], 32: [2, 1, 2, 1, 1],
           41: [1] * 7}


@pytest.mark.parametrize("points", _GROUPS)
def test_every_report_group_is_one_pass_block(points, monkeypatch, tmp_path):
    # sections of one dimension join while their points together fit one
    # block, so every base pass of a joined group runs in one block over all
    # its points; only a section too big for a block runs in several
    events, real_joined = [], Evaluation.joined.__func__
    real_fd = ktgeo.identities.fd_partial

    def joined(cls, sections, *args, **kwargs):
        events.append(("group", sections[0][0].dim, [len(pts) for _, pts in sections]))
        return real_joined(cls, sections, *args, **kwargs)

    def fd_partial(fn, pts, step):
        if pts.ndim == 2:  # a base pass's block
            events.append(("block", len(pts)))
        return real_fd(fn, pts, step)

    monkeypatch.setattr(Evaluation, "joined", classmethod(joined))
    monkeypatch.setattr(ktgeo.identities, "fd_partial", fd_partial)
    assert main(["report", "--manifold", "all", "--points", str(points), "--suite", "dim4",
                 "--out", str(tmp_path / "r.json")]) == 0
    groups = [event[1:] for event in events if event[0] == "group"]
    assert [len(sizes) for _, sizes in groups] == _GROUPS[points]
    size = None
    for event in events:
        if event[0] == "group":
            dim, sizes = event[1:]
            size = sum(sizes)
            assert len(sizes) == 1 or size <= ktgeo.identities._block_points(dim)
        elif size <= ktgeo.identities._block_points(dim):
            assert event[1] == size
        else:  # a section alone, in blocks
            assert event[1] < size


@pytest.mark.parametrize("suite", [None, "identities", "classify", "dim4", "string"])
def test_a_pass_computes_each_stencil_level_value_once(suite, monkeypatch, tmp_path):
    # a stencil level drops each value once nothing it has still to
    # compute reads it, so it never computes one again
    computed, depths, again = weakref.WeakKeyDictionary(), set(), []
    real_once = Evaluation._once

    def once(self, key, compute):
        if self._depth and key not in self._values and not self._shares(key):
            keys = computed.setdefault(self, [])
            (again if key in keys else keys).append(key)
            depths.add(self._depth)
        return real_once(self, key, compute)

    monkeypatch.setattr(Evaluation, "_once", once)
    argv = ["report", "--manifold", "all", "--points", "2", "--out", str(tmp_path / "r.json")]
    for name in pulled_charts():
        argv += ["--manifold", name]
    assert main(argv + (["--suite", suite] if suite else [])) == 0
    assert depths == {1, 2} and again == []


@pytest.mark.parametrize("budget", [1, 7 * 16 * 6 ** 4, 24 * 16 * 4 ** 4, 2 ** 62],
                         ids=["one_point_blocks", "uneven_blocks", "split_sections",
                              "one_block"])
def test_report_bytes_do_not_depend_on_the_pass_blocks(budget, monkeypatch, tmp_path):
    # a base pass writes each block's derivatives into outputs for all
    # points, and each point's values do not depend on its block or its
    # group: blocks of one point (every section alone), of at most 7 points
    # in d = 6 (16 points as 5, 5 and 6) and 35 in d = 4 (the five d = 4
    # sections in groups of 2, 2 and 1), of at most 24 in d = 4 and 4 in
    # d = 6 (every section alone, a d = 6 one in four blocks) and one block
    # (every dimension's sections joined in it) give the bytes of the
    # default blocks, where the five d = 4 sections join in one block of 80
    # and the d = 6 ones run alone, one block each
    register_manifold(block_conformal_torus_4())
    register_manifold(block_conformal_torus_6())
    runs = [["suite", "--all", "--points", "16"],
            ["report", "--manifold", "block_conformal_torus_4",
             "--manifold", "block_conformal_torus_6", "--points", "8"]]

    def reports():
        out = tmp_path / "r.json"
        return [(main(argv + ["--out", str(out)]), out.read_bytes()) for argv in runs]
    default = reports()
    monkeypatch.setattr(ktgeo.identities, "_PASS_BYTES", budget)
    assert reports() == default


def _traced_peak(argv):
    """The tracemalloc peak of the report ``argv``, run once before to warm
    every cache it fills."""
    assert main(argv) == 0
    tracemalloc.start()
    try:
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("flat, conformal", [("flat_torus_4", "conf_torus_4"),
                                             ("flat_torus_6", "conf_torus_6")])
def test_a_conformal_section_peaks_like_its_flat_twin(flat, conformal, tmp_path):
    # the conformal parent joins the section's stencil pass, which drops each
    # evaluation on a stencil level once its values are read, the parent's
    # first, and the parent is dropped after the conformal row, before the
    # section's own values grow: 1.06 and 1.07 times the flat twin's peak
    # (1.57 and 1.30 when every stencil evaluation of the pass was held until
    # all were read), 1.44 and 1.38 when the parent was built after the
    # section's identity rows
    flat_peak, conformal_peak = (
        _traced_peak(["report", "--manifold", name, "--points", "16",
                      "--out", str(tmp_path / f"{name}.json")])
        for name in (flat, conformal))
    assert conformal_peak <= 1.1 * flat_peak


@pytest.mark.parametrize("name", ["hopf_standard", "hopf_hkt", "conf_torus_4", "conf_torus_6"])
def test_the_conformal_row_does_not_depend_on_the_suites(name, tmp_path):
    # the row runs first in a section that has a conformal parent, whatever
    # else the section reads after it
    rows = []
    for suites in (["--suite", "identities"], []):
        out = tmp_path / f"{len(rows)}.json"
        assert main(["report", "--manifold", name, "--points", "4", *suites,
                     "--out", str(out)]) == 0
        [section] = json.loads(out.read_text())["manifolds"]
        rows.append([r for r in section["identities"] if r["name"] == "conformal_u_change"])
    assert len(rows[0]) == 1
    assert rows[0] == rows[1]


def _started(monkeypatch):
    """The evaluations made from here on, as weak references: every
    evaluation, a section's own among them, starts its state in _start."""
    created = []
    real_start = Evaluation._start

    def start(self, *args, **kwargs):
        real_start(self, *args, **kwargs)
        created.append(weakref.ref(self))

    monkeypatch.setattr(Evaluation, "_start", start)
    return created


def test_report_leaves_no_evaluation_alive(monkeypatch, tmp_path):
    # with the cycle collector off, only reference counting frees an
    # evaluation: none may sit in a reference cycle
    created = _started(monkeypatch)
    gc.disable()
    try:
        code = main(["report", "--manifold", "hopf_hkt", "--points", "2",
                     "--out", str(tmp_path / "r.json")])
        # read before the collector is back: its next pass would free cycles
        alive = sum(ref() is not None for ref in created)
    finally:
        gc.enable()
    assert code == 0
    # 4 base evaluations (the section's, its conformal parent's and the two
    # other structures of the triple), the first level of each in the
    # section's one pass, and the second level of the section's and the
    # parent's in the pass of the section's first level; the section holds
    # its variants, which hold nothing of it
    assert len(created) == 10
    assert alive == 0


def test_a_joined_report_leaves_no_evaluation_alive(monkeypatch, tmp_path):
    # a view holds the joined evaluation, which holds no view
    created = _started(monkeypatch)
    gc.disable()
    try:
        code = main(["report", "--manifold", "hopf_standard", "--manifold", "hopf_hkt",
                     "--points", "2", "--out", str(tmp_path / "r.json")])
        alive = sum(ref() is not None for ref in created)
    finally:
        gc.enable()
    assert code == 0
    # the joined evaluation, its two views, the parents' joined evaluation
    # (no view of it: the conformal row is measured on the joined one) and
    # the two other structures; four on the first level of the one pass (no
    # view's) and two on the second
    assert len(created) == 12
    assert alive == 0


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the heap pin is glibc's")
def test_a_warm_report_reuses_the_heap_it_faulted_in(tmp_path):
    # with glibc's dynamic thresholds, each d = 6 stencil block and section
    # handed the top of the heap back to the kernel and the next one faulted
    # it in again: 700-3,200 minor faults per warm report, 1-4 when pinned
    argv = ["suite", "--all", "--points", "16", "--out", str(tmp_path / "r.json")]
    assert main(argv) == 0
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    assert main(argv) == 0
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 200


@pytest.fixture
def unpinned():
    """Forget the process's heap pin before and after the test, so the next
    report pins glibc's allocator for real again."""
    ktgeo.cli._pin_heap.cache_clear()
    yield
    ktgeo.cli._pin_heap.cache_clear()


def _hopf_report(tmp_path):
    out = tmp_path / "r.json"
    return main(["report", "--manifold", "hopf_standard", "--points", "2",
                 "--out", str(out)]), out.read_bytes()


def test_the_heap_is_pinned_once_per_process(unpinned, monkeypatch, tmp_path):
    # mallopt returns 0 on a value it refuses, malloc_trim 0 when it released
    # nothing; the pin reads neither.  The trim comes once, after the pin
    calls = []
    libc = types.SimpleNamespace(mallopt=lambda param, value: calls.append((param, value)) or 0,
                                 malloc_trim=lambda pad: calls.append(("malloc_trim", pad)) or 0)
    monkeypatch.setattr(platform, "libc_ver", lambda: ("glibc", "2.36"))
    monkeypatch.setattr(ktgeo.cli.ctypes, "CDLL", lambda name: libc)
    first, second = _hopf_report(tmp_path), _hopf_report(tmp_path)
    assert first[0] == 0
    assert second == first
    assert calls == [(-3, 32 << 20), (-1, 64 << 20), ("malloc_trim", 0)]


def _raising(error):
    def confstr(name):
        raise error
    return confstr


# opened None: after a failed confstr, platform.libc_ver reads the
# interpreter's binary, and whether that reads as glibc depends on its linking
@pytest.mark.parametrize("module, name, value, libc, opened", [
    (os, "confstr", _raising(ValueError("unrecognized configuration name")),
     types.SimpleNamespace(), None),
    # musl defines the name but its confstr refuses it
    (os, "confstr", _raising(OSError(errno.EINVAL, "Invalid argument")),
     types.SimpleNamespace(), None),
    (platform, "libc_ver", lambda: ("", ""), None, []),
    (platform, "libc_ver", lambda: ("glibc", "2.36"), types.SimpleNamespace(), [None]),
    (platform, "libc_ver", lambda: ("glibc", "2.36"),
     types.SimpleNamespace(mallopt=lambda param, value: 0), [None]),
], ids=["no_confstr_name", "musl_confstr", "not_glibc", "no_mallopt", "no_malloc_trim"])
def test_a_heap_pin_that_cannot_run_leaves_the_report_alone(module, name, value, libc, opened,
                                                            unpinned, monkeypatch, tmp_path):
    expected = _hopf_report(tmp_path)
    ktgeo.cli._pin_heap.cache_clear()
    calls = []
    monkeypatch.setattr(module, name, value)
    monkeypatch.setattr(ktgeo.cli.ctypes, "CDLL", lambda name: calls.append(name) or libc)
    assert _hopf_report(tmp_path) == expected
    assert expected[0] == 0
    if opened is not None:
        assert calls == opened
