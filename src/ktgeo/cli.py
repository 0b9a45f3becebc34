"""Command-line entry point.

Verbs:

- ``ktgeo list`` prints the catalog, one name per line.
- ``ktgeo report --manifold NAME [...]`` runs the selected suites on one or
  more manifolds and writes a JSON report to ``--out`` or stdout; ``all``
  stands for the whole catalog, and each manifold is reported once, in order
  of first appearance.
- ``ktgeo suite --all`` runs every manifold through every suite.

Exit status: 0 when every asserted check passes, 1 when a residual fails,
2 for an unknown manifold, an invalid configuration or an unwritable report,
3 for a numeric failure (degenerate metric, stencil leaving the chart, a chart
field of the wrong shape, ...).

Reports are deterministic: identical configurations produce byte-identical
documents.  Floats are serialized with 17 significant digits and keys keep a
fixed order, so independent runs (and independent implementations following
the same conventions) can be diffed directly.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import __version__
from .catalog import catalog_names, get_manifold
from .classify import DEFAULT_CLASSIFY_TOL, classify, vanishing_hypotheses
from .errors import GeometryError, UnknownManifoldError
from .identities import (
    TOL_FIRST_ORDER, evaluation_scope, run_identity_suite, verify_conformal_trace,
    verify_dim4,
)
from .string_eqs import run_string_suite
from .tensor_core import DEFAULT_STEP

SUITES = ("identities", "classify", "string", "dim4")

CONVENTIONS = {
    "kahler_form": "omega(X,Y) = g(X,JY); block J chosen so flat charts have omega = +sum dx^dy",
    "bismut_torsion": "T(X,Y,Z) = -d(omega)(JX,JY,JZ)",
    "chern_torsion": "2 C(X,Y,Z) = d(omega)(JX,Y,Z) + d(omega)(X,JY,Z)",
    "codifferential_sign": "codiff(a) = -sum_i (nabla^g_{e_i} a)(e_i, ...); equals -(*d*) on every form degree in dim 4",
    "j_trace_orientation": "trace(a) = sum_i a(J e_i, e_i); the J-trace of the Kaehler form is +dim",
    "norm_convention": "full index sums of orthonormal-frame components, no combinatorial division",
    "one_one_projector": "a^{1,1}(X,Y) = (a(X,Y) + a(JX,JY)) / 2",
    "orientation": "chart coordinate order defines the positive orientation (matches the complex orientation on all catalog charts)",
    "conformal_factor": "conformal_rescale multiplies the metric by exp(2 f)",
    "fd_scheme": "central differences; curvature nests two stencils; residuals are frame-component maxima",
}


@dataclass(frozen=True)
class RunConfig:
    manifolds: tuple
    points: int = 32
    seed: int = 0
    step: float = DEFAULT_STEP
    tol_identity: float = None
    tol_classify: float = DEFAULT_CLASSIFY_TOL
    suites: tuple = SUITES
    out: str = None

    def validate(self):
        if self.points < 1:
            raise ValueError("points must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if not (1e-8 < self.step < 1e-1):
            raise ValueError("step must lie in (1e-8, 1e-1)")
        for s in self.suites:
            if s not in SUITES:
                raise ValueError(f"unknown suite {s!r}; choose from {SUITES}")
        for name in ("tol_identity", "tol_classify"):
            tol = getattr(self, name)
            if tol is not None and not 0 < tol < float("inf"):
                raise ValueError(f"{name} must be finite and > 0")

    def as_dict(self):
        return {"manifolds": list(self.manifolds), "points": self.points,
                "seed": self.seed, "step": self.step,
                "tol_identity": self.tol_identity, "tol_classify": self.tol_classify,
                "suites": list(self.suites), "version": __version__}


class NumericFailure(Exception):
    """Wraps a GeometryError with (manifold, suite) context for exit code 3."""

    def __init__(self, manifold, suite, original):
        super().__init__(f"numeric failure on {manifold!r} during {suite!r}: {original}")
        self.manifold = manifold
        self.suite = suite
        self.original = original


# ---------------------------------------------------------------------------
# deterministic JSON with 17-significant-digit floats
# ---------------------------------------------------------------------------

def _emit(obj, indent=0) -> str:
    if isinstance(obj, (np.ndarray, np.generic)):
        obj = obj.tolist()
    pad = "  " * indent
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        if obj != obj or obj in (float("inf"), float("-inf")):
            return json.dumps(str(obj))
        return format(obj, ".17g")
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = ",\n".join("  " * (indent + 1) + _emit(v, indent + 1) for v in obj)
        return "[\n" + inner + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = ",\n".join("  " * (indent + 1) + json.dumps(str(k)) + ": " + _emit(v, indent + 1)
                           for k, v in obj.items())
        return "{\n" + inner + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def render_report(report: dict) -> str:
    return _emit(report) + "\n"


# ---------------------------------------------------------------------------
# suite execution
# ---------------------------------------------------------------------------

def _apply_tol_override(entries, tol):
    """The entries under the identity tolerance ``tol``; a first-order entry
    keeps its tighter tolerance when ``tol`` is larger."""
    if tol is None:
        return entries
    return [replace(e, tolerance=min(TOL_FIRST_ORDER, tol) if e.tolerance == TOL_FIRST_ORDER
                    else tol) for e in entries]


def _manifold_report(name: str, cfg: RunConfig) -> dict:
    m = get_manifold(name)
    pts = m.sample_points(cfg.points, cfg.seed, margin=max(0.05, 3 * cfg.step))
    section = {"name": name, "dim": m.dim, "chart": m.chart.describe()}
    asserted_pass = []

    # one evaluation context per section: every suite shares its primitives,
    # and nothing computed here outlives the section
    suite = None
    try:
        with evaluation_scope():
            if "classify" in cfg.suites:
                suite = "classify"
                flags = classify(m, pts, tol=cfg.tol_classify, step=cfg.step)
                section["flags"] = flags.as_dict()
                section["vanishing_hypotheses"] = vanishing_hypotheses(m, pts, cfg.step)
                # taxonomy implications are engine-consistency assertions
                implications = ((not flags.kahler or flags.strong_kt)
                                and (not flags.strong_kt or flags.almost_strong_kt))
                section["taxonomy_implications"] = implications
                asserted_pass.append(implications)
                if flags.hkt is not None:
                    asserted_pass.append(flags.hkt.hkt)

            if "identities" in cfg.suites:
                suite = "identities"
                entries = _apply_tol_override(run_identity_suite(m, pts, cfg.step),
                                              cfg.tol_identity)
                if m.conformal_parent is not None:
                    entries.extend(_apply_tol_override(
                        [verify_conformal_trace(m, pts, cfg.step)], cfg.tol_identity))
                section["identities"] = [e.as_dict() for e in entries]
                asserted_pass += [e.passed for e in entries]

            if "dim4" in cfg.suites:
                suite = "dim4"
                entries, skipped = verify_dim4(m, pts, cfg.step)
                entries = _apply_tol_override(entries, cfg.tol_identity)
                section["dim4"] = [e.as_dict() for e in entries]
                if skipped:
                    section["dim4_skipped"] = skipped
                asserted_pass += [e.passed for e in entries]

            if "string" in cfg.suites:
                suite = "string"
                reports = run_string_suite(m, pts, cfg.step, hyp_tol=cfg.tol_classify)
                section["string"] = {kind: rep.as_dict() for kind, rep in reports.items()}
                asserted_pass += [e.passed for rep in reports.values() for e in rep.entries
                                  if e.passed is not None]
    except GeometryError as exc:
        raise NumericFailure(name, suite, exc) from exc

    section["pass"] = all(asserted_pass)
    return section


def run(cfg: RunConfig) -> dict:
    """Execute a validated configuration and return the report document."""
    # 'all' stands for the catalog wherever it appears; each manifold once,
    # in order of first appearance
    names = list(dict.fromkeys(n for name in cfg.manifolds
                               for n in (catalog_names() if name == "all" else (name,))))
    for n in names:
        get_manifold(n)  # fail fast on unknown names
    sections = [_manifold_report(n, cfg) for n in names]
    report = {
        "config": cfg.as_dict(),
        "conventions": dict(CONVENTIONS),
        "manifolds": sections,
        "overall_pass": all(s["pass"] for s in sections),
    }
    return report


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="ktgeo",
                                description="curvature identity engine for Hermitian manifolds with torsion")
    sub = p.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="print the manifold catalog")

    def add_common(q):
        q.add_argument("--points", type=int, default=32)
        q.add_argument("--seed", type=int, default=0)
        q.add_argument("--h", dest="step", type=float, default=DEFAULT_STEP,
                       help="finite-difference step")
        q.add_argument("--tol-identity", type=float, default=None)
        q.add_argument("--tol-classify", type=float, default=DEFAULT_CLASSIFY_TOL)
        q.add_argument("--out", type=str, default=None, help="output path (default stdout)")

    rep = sub.add_parser("report", help="run suites on selected manifolds")
    rep.add_argument("--manifold", action="append", required=True,
                     help="catalog name or 'all' (the whole catalog), repeatable; "
                          "each manifold is reported once, in order of first appearance")
    rep.add_argument("--suite", action="append", choices=SUITES, default=None,
                     help="suite selection, repeatable (default: all suites)")
    add_common(rep)

    full = sub.add_parser("suite", help="run every manifold through every suite")
    full.add_argument("--all", action="store_true", required=True)
    add_common(full)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list":
        for name in catalog_names():
            print(name)
        return 0

    if args.command == "report":
        manifolds = tuple(args.manifold)
        suites = tuple(args.suite) if args.suite else SUITES
    else:
        manifolds = ("all",)
        suites = SUITES

    cfg = RunConfig(manifolds=manifolds, points=args.points, seed=args.seed,
                    step=args.step, tol_identity=args.tol_identity,
                    tol_classify=args.tol_classify, suites=suites, out=args.out)
    try:
        cfg.validate()
    except ValueError as exc:
        print(f"error: invalid configuration: {exc}", file=sys.stderr)
        return 2
    try:
        report = run(cfg)
    except UnknownManifoldError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    except NumericFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (GeometryError, ValueError) as exc:  # NumPy's LinAlgError among them
        print(f"error: numeric failure: {exc}", file=sys.stderr)
        return 3

    text = render_report(report)
    if cfg.out:
        try:
            with open(cfg.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write the report: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return 0 if report["overall_pass"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
