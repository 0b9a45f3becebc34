"""Command-line entry point.

Verbs:

- ``ktgeo list`` prints the catalog, one name per line.
- ``ktgeo report --manifold NAME [...]`` runs the selected suites on one or
  more manifolds and writes a JSON report to ``--out`` or stdout; ``all``
  stands for the whole catalog, and each manifold is reported once, in order
  of first appearance.
- ``ktgeo suite --all`` runs every manifold through every suite: it is
  ``report --manifold all`` with every suite.

Exit status: 0 when every asserted check passes, 1 when a residual fails,
2 for an unknown manifold, an invalid configuration or an unwritable report,
3 for a numeric failure (degenerate metric, stencil leaving the chart, ...) or
a contract violation (a chart field of the wrong shape, ...), 4 for an
engine bug (any other exception, its traceback before the ``error:`` line).

Reports are deterministic: identical configurations produce byte-identical
documents, so independent runs (and independent implementations following the
same conventions) can be diffed directly.  The layout is that of
``json.dumps(report, indent=2)``: ASCII-only, keys in a fixed order.  Finite
floats are written with 17 significant digits (``format(v, ".17g")``), and
with ``.0`` appended where that text has neither ``.`` nor ``e``, so they read
back exactly and as floats; NaN and +-inf are written as the strings ``"nan"``,
``"inf"`` and ``"-inf"``.  NumPy scalars and arrays are written as their
``tolist()``.  The writer takes a ``dict`` with ``str`` keys, a ``list``, a
``tuple``, a ``str``, an ``int``, a ``float``, a ``bool``, ``None`` (each of
exactly that type, no subclass) and a NumPy value; anything else, a
non-string key among them, raises ``TypeError``.

On glibc, the entry point pins two allocator thresholds once per process,
before its first report: the mmap threshold at 32 MiB, the ceiling of glibc's
own dynamic rule, and the trim threshold at 64 MiB, twice that, as the same
rule sets it.  Left to the dynamic rule, each d = 6 stencil block and each
section frees more than the trim threshold (about 0.65-1.3 MiB), glibc hands
the top of the heap back to the kernel and the next block faults it in again:
about 2,350-3,170 minor page faults, some 9 MiB, per warm ``suite --all
--points 16`` report, a count that swung with the heap's layout.  Pinned, a
warm report takes under ten, and the benchmark's catalog report about a tenth
less time.  Right after the pin, ``malloc_trim(0)`` runs once, so the heap
the imports freed (the bytecode compiler's, when running from source without
cached bytecode) goes back to the kernel instead of staying resident under
the 64 MiB trim threshold; a libc without ``malloc_trim`` skips it.
``mallopt`` and ``malloc_trim`` are reached through ``ctypes``, which NumPy
already imports, only where ``platform.libc_ver()`` names glibc; elsewhere
the pin does nothing.  The library API (``Evaluation``,
``run``) leaves the allocator alone, and no report's bytes depend on the pin.
"""

from __future__ import annotations

import argparse
import ctypes
import math
import platform
import sys
import traceback
from dataclasses import dataclass
from collections import Counter
from functools import lru_cache
from json.encoder import encode_basestring_ascii as _quote

import numpy as np

from . import __version__
from .catalog import catalog_names, get_manifold
from .classify import DEFAULT_CLASSIFY_TOL, structure_flags, vanishing_hypotheses
from .errors import ContractViolationError, GeometryError, UnknownManifoldError
from .identities import (
    TOL_CURVATURE, Evaluation, _block_points, run_identity_suite,
    verify_conformal_trace, verify_dim4, verify_structure,
)
from .string_eqs import run_string_suite
from .tensor_core import DEFAULT_STEP

SUITES = ("identities", "classify", "string", "dim4")

# the residual key of identity and dim4 rows, which ``ktbench/checks.py``
# reads; string and structure rows keep ``residual``
_ROW_RESIDUAL = "max_residual"

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
    points: int
    seed: int
    step: float
    tol_identity: float
    tol_classify: float
    suites: tuple
    out: str

    def validate(self):
        if self.points < 1:
            raise ValueError("points must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if not (1e-8 < self.step < 1e-1):
            raise ValueError("step must lie in (1e-8, 1e-1)")
        for name in ("tol_identity", "tol_classify"):
            tol = getattr(self, name)
            if tol is not None and not 0 < tol < float("inf"):
                raise ValueError(f"{name} must be finite and > 0")

    def as_dict(self):
        return {"manifolds": list(self.manifolds), "points": self.points,
                "seed": self.seed, "step": self.step,
                "tol_identity": self.tol_identity, "tol_classify": self.tol_classify,
                "suites": list(self.suites), "version": __version__}


class SectionFailure(Exception):
    """Wraps an exception raised in a report section with (manifold, suite)
    context.  A GeometryError, or a ValueError from a chart field (NumPy's
    LinAlgError among them), is a numeric failure, exit code 3; a contract
    violation (a malformed chart or argument) is worded as one.  Any other
    exception is an engine bug, an internal error with exit code 4."""

    def __init__(self, manifold, suite, original):
        # a failure in a joined evaluation names the section it arose in
        manifold = getattr(original, "manifold", manifold)
        self.code = 3 if isinstance(original, (GeometryError, ValueError)) else 4
        if self.code == 4:
            kind, original = "internal error", f"{type(original).__name__}: {original}"
        else:
            kind = ("contract violation" if isinstance(original, ContractViolationError)
                    else "numeric failure")
        super().__init__(f"{kind} on {manifold!r} during {suite!r}: {original}")


# ---------------------------------------------------------------------------
# deterministic JSON with 17-significant-digit floats, written in one pass
# ---------------------------------------------------------------------------

def _float(v) -> str:
    # NaN and +-inf have no JSON literal: they are written as the strings
    # "nan", "inf" and "-inf"
    if not math.isfinite(v):
        return _quote(str(v))
    text = format(v, ".17g")
    # an integral float ("0", "-0", "1") gains ".0", so it reads back as a float
    return text if "." in text or "e" in text else text + ".0"


# exact built-in scalar types and their text; bool is not an int here
_SCALARS = {
    float: _float,
    str: _quote,
    int: int.__repr__,
    bool: lambda v: "true" if v else "false",
    type(None): lambda v: "null",
}


def _write_dict(obj, out, pad):
    if not obj:
        out.append("{}")
        return
    # a dict's pieces are joined when it closes, so only the open dicts'
    # pieces are held at a time
    inner = pad + "  "
    sep = ",\n" + inner
    parts = []
    append = parts.append
    for k, v in obj.items():
        append(sep)
        if type(k) is not str:
            raise TypeError(f"cannot serialize the key {k!r} of type {type(k)!r}")
        append(_quote(k))
        append(": ")
        _write(v, parts, inner)
    parts[0] = "{\n" + inner
    append("\n" + pad + "}")
    out.append("".join(parts))


def _write_list(obj, out, pad):
    if not obj:
        out.append("[]")
        return
    inner = pad + "  "
    sep = ",\n" + inner
    first = len(out)
    append = out.append
    for v in obj:
        append(sep)
        _write(v, out, inner)
    out[first] = "[\n" + inner
    append("\n" + pad + "]")


def _write(obj, out, pad):
    """Append the text of ``obj``, whose first line starts after ``pad``, to
    ``out``: a value of an exact built-in type, or a NumPy value."""
    kind = type(obj)
    scalar = _SCALARS.get(kind)
    if scalar is not None:
        out.append(scalar(obj))
    elif kind is dict:
        _write_dict(obj, out, pad)
    elif kind is list or kind is tuple:
        _write_list(obj, out, pad)
    elif isinstance(obj, (np.ndarray, np.generic)):
        _write(obj.tolist(), out, pad)
    else:
        raise TypeError(f"cannot serialize {type(obj)!r}")


def render_report(report: dict) -> str:
    out = []
    _write(report, out, "")
    out.append("\n")
    return "".join(out)


# ---------------------------------------------------------------------------
# suite execution
# ---------------------------------------------------------------------------

def _sample(m, cfg: RunConfig):
    return m.sample_points(cfg.points, cfg.seed, margin=max(0.05, 3 * cfg.step))


def _evaluations(ms, cfg: RunConfig) -> dict:
    """The evaluation of each section of ``ms``, manifolds of one dimension,
    by name: views of one evaluation over all their points, or, for one
    section, that evaluation itself.  ``Evaluation.joined`` makes the
    variants that the suites read, the conformal parents and the triples'
    other structures, with it, so they join its one stencil pass and share
    its chart fields at every stencil level."""
    sections = []
    for m in ms:
        try:
            sections.append((m, _sample(m, cfg)))
        except Exception as exc:
            raise SectionFailure(m.name, "sampling", exc) from exc
    try:
        evaluations = Evaluation.joined(sections, cfg.step, cfg.suites)
    except Exception as exc:
        raise SectionFailure(ms[0].name, "sampling", exc) from exc
    return {m.name: ev for m, ev in zip(ms, evaluations)}


def _manifold_report(ev, cfg: RunConfig) -> dict:
    """The section of the manifold of ``ev``, its suites run on ``ev``."""
    m = ev.m
    tol = TOL_CURVATURE if cfg.tol_identity is None else cfg.tol_identity
    rows = []

    # one evaluation per section, handed to every suite: they share its
    # primitives and its one stencil pass takes the partials they read.  It
    # is a view of the evaluation its group's sections share, only its rows
    # of the values that evaluation computes for all of them, or, in a group
    # of one, that evaluation itself; so nothing a section reads outlives it
    # but what the shared evaluation holds for its other sections.  The
    # variants the suites read were made with it, so they join that pass.
    # The conformal row runs first: the group's first section that has a
    # parent measures it for all of them, reading the parents' four values
    # and dropping the parents before the shared evaluation holds more than
    # the pass's, so the parents' values never stack on the suites'
    suite = "sampling"
    try:
        section = {"name": m.name, "dim": m.dim, "chart": m.chart.describe()}
        parent = "identities" in cfg.suites and m.conformal_parent is not None
        if parent:
            suite = "identities"
            conformal = verify_conformal_trace(ev, tol)
        if "classify" in cfg.suites:
            suite = "classify"
            flags = structure_flags(ev, cfg.tol_classify)
            section["flags"] = flags.as_dict()
            section["vanishing_hypotheses"] = vanishing_hypotheses(ev)
            # taxonomy implications are engine-consistency assertions
            section["taxonomy_implications"] = flags.taxonomy_implications

        if "identities" in cfg.suites:
            suite = "identities"
            identities = run_identity_suite(ev, tol)
            if parent:
                identities.append(conformal)
            section["identities"] = [r.as_dict(_ROW_RESIDUAL) for r in identities]
            rows += identities

        if "dim4" in cfg.suites:
            suite = "dim4"
            dim4 = verify_dim4(ev, tol)
            section["dim4"] = [r.as_dict(_ROW_RESIDUAL) for r in dim4]
            rows += dim4

        if "string" in cfg.suites:
            suite = "string"
            reports = run_string_suite(ev, cfg.tol_classify)
            section["string"] = {kind: dict(rep, entries=[r.as_dict() for r in rep["entries"]])
                                 for kind, rep in reports.items()}
            rows += [r for rep in reports.values() for r in rep["entries"]]
        # the structure rows pin the conventions that every suite shares, so
        # they run in every section, whatever the suites
        suite = "structure"
        structure = verify_structure(ev, tol)
        section["structure"] = [r.as_dict() for r in structure]
        rows += structure
    except Exception as exc:
        raise SectionFailure(m.name, suite, exc) from exc

    # the section passes when every asserted row passes, and so do the
    # taxonomy implications and the HKT bit where classify ran
    checks = [r.passed for r in rows if r.passed is not None]
    if "flags" in section:
        hkt = section["flags"]["hkt"]
        checks += [section["taxonomy_implications"], hkt is None or hkt["hkt"]]
    section["pass"] = all(checks)
    return section


def run(cfg: RunConfig) -> dict:
    """Execute a validated configuration and return the report document."""
    # 'all' stands for the catalog wherever it appears; each manifold once,
    # in order of first appearance
    names = list(dict.fromkeys(n for name in cfg.manifolds
                               for n in (catalog_names() if name == "all" else (name,))))
    manifolds = [get_manifold(n) for n in names]  # fail fast on unknown names
    # sections of one dimension share one evaluation while their points
    # together fit one block of a stencil pass, so a group's pass runs its
    # first stencil level once; a section too big for a block is a group of
    # one.  A group runs where the first of its sections comes, each section
    # on its evaluation, which it drops when it ends, so the group's
    # evaluation is gone before any other group runs and its values never
    # stack on another group's section
    groups, count = {}, Counter()
    for m in manifolds:
        per_group = max(1, _block_points(m.dim) // cfg.points)
        groups.setdefault((m.dim, count[m.dim] // per_group), []).append(m)
        count[m.dim] += 1
    sections = {}
    for group in groups.values():
        evaluations = _evaluations(group, cfg)
        for m in group:
            sections[m.name] = _manifold_report(evaluations.pop(m.name), cfg)
    report = {
        "config": cfg.as_dict(),
        "conventions": dict(CONVENTIONS),
        "manifolds": [sections[m.name] for m in manifolds],
        "overall_pass": all(s["pass"] for s in sections.values()),
    }
    return report


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

# built once per process: parse_args leaves no state on the parser
@lru_cache(maxsize=None)
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
    full.set_defaults(manifold=["all"], suite=None)
    add_common(full)
    return p


# glibc's mallopt parameters, from <malloc.h>
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


# pinned once per process, like the parser
@lru_cache(maxsize=None)
def _pin_heap():
    """On glibc, pin the mmap threshold at 32 MiB and the trim threshold at
    64 MiB (module docstring), so a report reuses the heap that the previous
    one faulted in, then trim once what the imports freed; anywhere else, do
    nothing."""
    if platform.libc_ver()[0] != "glibc":
        return
    libc = ctypes.CDLL(None)
    try:
        mallopt = libc.mallopt
    except AttributeError:
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)
    try:
        malloc_trim = libc.malloc_trim
    except AttributeError:
        return
    malloc_trim.argtypes, malloc_trim.restype = (ctypes.c_size_t,), ctypes.c_int
    malloc_trim(0)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list":
        for name in catalog_names():
            print(name)
        return 0

    cfg = RunConfig(manifolds=tuple(args.manifold), points=args.points, seed=args.seed,
                    step=args.step, tol_identity=args.tol_identity,
                    tol_classify=args.tol_classify,
                    suites=tuple(dict.fromkeys(args.suite or SUITES)), out=args.out)
    try:
        cfg.validate()
    except ValueError as exc:
        print(f"error: invalid configuration: {exc}", file=sys.stderr)
        return 2
    _pin_heap()
    try:
        report = run(cfg)
        text = render_report(report)
    except UnknownManifoldError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    except SectionFailure as exc:
        if exc.code == 4:  # an engine bug: its traceback, then the one line
            traceback.print_exception(exc.__cause__)
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except Exception as exc:  # an engine bug outside any section
        traceback.print_exception(exc)
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4
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
