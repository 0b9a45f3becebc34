"""The pass machinery against its naive twin: a report whose sections are
each evaluated by ``reference.Reference`` has the tree's bytes."""

import ast
import json
from pathlib import Path

import numpy as np
import pytest

import ktgeo.cli
from ktgeo.catalog import register_manifold
from ktgeo.cli import main

from conftest import block_conformal_torus_4, block_conformal_torus_6, pulled_charts
from reference import Reference

# the machinery the twin stands without
_MACHINERY = {"_merge", "_stash", "_upper", "_pending", "_declare", "_counterpart", "_view",
              "_blocks", "_distinct_offsets", "_second_level_points"}


def _charts(which):
    """The ``--manifold`` arguments of a group of charts, registered."""
    if which == "all":
        return ["--manifold", "all"]
    if which == "pulled":
        names = pulled_charts()
    else:
        ms = [block_conformal_torus_4(), block_conformal_torus_6()]
        for m in ms:
            register_manifold(m)
        names = [m.name for m in ms]
    return [a for name in names for a in ("--manifold", name)]


def _agree(tree, twin, bound) -> bool:
    """Whether two parsed reports agree by the verdicts-and-bound rule: the
    same keys, verdicts, statuses and flags, every float within ``bound``
    of the tree's; a worst point may move, since residuals within the bound
    may trade places."""
    if isinstance(tree, dict):
        return tree.keys() == twin.keys() and all(
            k == "worst_point" or _agree(tree[k], twin[k], bound) for k in tree)
    if isinstance(tree, list):
        return len(tree) == len(twin) and all(_agree(a, b, bound) for a, b in zip(tree, twin))
    if isinstance(tree, float) and isinstance(twin, float):
        return abs(tree - twin) <= bound
    return tree == twin


def test_the_twin_stands_without_the_pass_machinery():
    tree = ast.parse((Path(__file__).parent / "reference.py").read_text())
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    names |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
              for alias in node.names}
    assert not names & _MACHINERY


@pytest.mark.parametrize("argv", [
    *(["suite", "--all", "--points", p] for p in ("1", "16", "41")),
    *(["report", which, "--points", p] for which in ("pulled", "tori") for p in ("1", "16", "41")),
    ["suite", "--all", "--points", "16", "--h", "2e-4"],
    *(["report", "all", "--points", "16", "--suite", s] for s in ktgeo.cli.SUITES),
], ids=lambda argv: "-".join(a.lstrip("-") for a in argv))
def test_a_report_has_its_naive_twins_bytes(argv, monkeypatch, tmp_path):
    # the twin evaluates every stencil point where it lies, and the tree
    # reads the return point (x + s h e_a) - s h e_a at x; they differ only
    # where x_a +- h rounds.  Where no sampled coordinate does, the bytes
    # are equal; where one does, a first-level partial moves by at most
    # 8 eps / 2h (the bound of test_identities' return-point test), so a
    # base-level difference of two of them by at most 16 eps / (2h)^2, and
    # the reports agree within that.  With every coordinate of every other
    # point moved to one that rounds, suite --all at 16 points moved by at
    # most 5.6e-8 (su2xu1) against 8.9e-8
    if argv[0] == "report":
        argv = ["report", *_charts(argv[1]), *argv[2:]]
    rounds = []

    def twins(ms, cfg):
        out = {}
        for m in ms:
            pts = ktgeo.cli._sample(m, cfg)
            rounds.append(((pts + cfg.step) - cfg.step != pts).any()
                          or ((pts - cfg.step) + cfg.step != pts).any())
            out[m.name] = Reference(m, pts, cfg.step, cfg.suites)
        return out

    tree, twin = tmp_path / "tree.json", tmp_path / "twin.json"
    assert main(argv + ["--out", str(tree)]) == 0
    monkeypatch.setattr(ktgeo.cli, "_evaluations", twins)
    assert main(argv + ["--out", str(twin)]) == 0
    step = float(argv[argv.index("--h") + 1]) if "--h" in argv else ktgeo.cli.DEFAULT_STEP
    bound = 16 * np.finfo(float).eps / (2 * step) ** 2
    assert rounds and _agree(json.loads(tree.read_text()), json.loads(twin.read_text()), bound)
    if not any(rounds):
        assert tree.read_bytes() == twin.read_bytes()
