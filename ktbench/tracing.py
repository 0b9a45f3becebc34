"""Spans and counters for the traced run, installed from outside the engine.

The engine carries no instrumentation.  ``Tracer.install`` wraps public
``ktgeo`` functions by rebinding their names in every ``ktgeo`` module that
holds them (modules import with ``from .x import f``, so patching only the
defining module would miss the callers), replaces ``numpy.einsum`` for the
kernel, and re-registers every chart with counting wrappers around its
fields.  ``Tracer.uninstall`` puts everything back.

A span's self time is its duration minus the time its child spans cover,
including the tracer's own bookkeeping in those children.  Spans of one
report are aggregated under that report's identifier.
"""

from __future__ import annotations

import re
import sys
from collections import defaultdict
from dataclasses import replace
from time import perf_counter

import numpy as np

# span label -> (module, public function) pairs it covers
SPANS = {
    "tensor_core.fd_partial": [("tensor_core", "fd_partial")],
    "tensor_core.frames": [("tensor_core", "gram_schmidt_frames"), ("tensor_core", "to_frame")],
    "connections.torsion": [("connections", "torsion_bismut_values"),
                            ("connections", "torsion_chern_values")],
    "connections.lower_coefficients": [("connections", "lower_coefficients")],
    "connections.lee_form": [("connections", "lee_form_values")],
    "curvature.riemann": [("curvature", "riemann_values")],
    "curvature.lambda_omega": [("curvature", "lambda_omega_values")],
    "identities": [("identities", "run_identity_suite"), ("identities", "verify_conformal_trace"),
                   ("identities", "verify_dim4")],
    "classify": [("classify", "classify"), ("classify", "vanishing_hypotheses")],
    "string_eqs": [("string_eqs", "run_string_suite")],
    "cli.render": [("cli", "render_report")],
}
FIELD_SPAN = "catalog.field"
EINSUM_SPAN = "einsum"

_FLOPS = re.compile(r"Optimized FLOP count:\s*(\S+)")


class Report:
    """Aggregates of one traced report."""

    def __init__(self, ident: int, argv: list):
        self.ident = ident
        self.argv = argv
        self.spans = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        self.field_points = defaultdict(int)   # "metric" / "j" -> evaluated points
        self.rows = defaultdict(list)          # (chart, field) -> point rows as bytes records
        self.distinct_points = 0
        self.flop = 0.0
        self.bytes = 0

    def finish(self):
        """Count distinct evaluated points, keyed on the exact bytes of each
        point row, and drop the rows."""
        self.distinct_points = sum(len(np.unique(np.concatenate(rows)))
                                   for rows in self.rows.values())
        self.rows.clear()

    def counts(self) -> dict:
        """Everything that must repeat exactly when the report is run again."""
        out = {label: s["calls"] for label, s in sorted(self.spans.items())}
        out.update(self.field_points)
        out["distinct_points"] = self.distinct_points
        out["einsum_flop"] = self.flop
        out["einsum_bytes"] = self.bytes
        return out


class Tracer:
    def __init__(self):
        self.reports = []
        self._current = None
        self._stack = []        # child-time accumulators of the open spans
        self._depth = defaultdict(int)
        self._flop_cache = {}
        self._undo = []

    # -- spans ---------------------------------------------------------------

    def _enter(self):
        acc = [0.0]
        self._stack.append(acc)
        return acc

    def _leave(self, label, acc, start, end, outer_start):
        """Close a span that ran from ``start`` to ``end``; its caller's
        self time also loses the bookkeeping from ``outer_start`` on."""
        self._stack.pop()
        dt = end - start
        s = self._current.spans[label]
        s["calls"] += 1
        s["self_s"] += dt - acc[0]
        if self._depth[label] == 0:
            s["s"] += dt  # inclusive time counts outermost spans only
        if self._stack:
            self._stack[-1][0] += perf_counter() - outer_start

    def _span(self, label, fn):
        def wrapper(*args, **kwargs):
            outer = perf_counter()
            acc = self._enter()
            self._depth[label] += 1
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._depth[label] -= 1
                self._leave(label, acc, start, end, outer)
        return wrapper

    def _einsum(self, real):
        def einsum(*operands, **kwargs):
            outer = perf_counter()
            acc = self._enter()
            start = perf_counter()
            try:
                out = real(*operands, **kwargs)
            except BaseException:
                self._leave(EINSUM_SPAN, acc, start, perf_counter(), outer)
                raise
            end = perf_counter()
            report = self._current
            arrays = [np.asarray(o) for o in operands[1:]]
            report.flop += self._flop_count(operands[0], arrays, kwargs.get("optimize", False))
            report.bytes += sum(a.nbytes for a in arrays) + np.asarray(out).nbytes
            self._leave(EINSUM_SPAN, acc, start, end, outer)
            return out
        return einsum

    def _flop_count(self, subscripts, arrays, optimize):
        """Operation count of the contraction along the path ``optimize``
        selects, computed by ``np.einsum_path`` and cached per shape."""
        key = (subscripts, tuple(a.shape for a in arrays), repr(optimize))
        flop = self._flop_cache.get(key)
        if flop is None:
            info = np.einsum_path(subscripts, *arrays, optimize=optimize)[1]
            flop = self._flop_cache[key] = float(_FLOPS.search(info).group(1))
        return flop

    def _field(self, fn, chart, field, kind):
        def counted(points):
            outer = perf_counter()
            x = np.asarray(points, dtype=float)
            rows = np.ascontiguousarray(x.reshape(-1, x.shape[-1]))
            report = self._current
            report.field_points[kind] += rows.shape[0]
            report.rows[(chart, field)].append(
                rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel().copy())
            acc = self._enter()
            start = perf_counter()
            try:
                return fn(points)
            finally:
                self._leave(FIELD_SPAN, acc, start, perf_counter(), outer)
        return counted

    # -- installation ----------------------------------------------------------

    def _counted_manifold(self, m, chart):
        """``m`` with every metric and complex-structure field counted."""
        fields = {"metric": self._field(m.metric, chart, "metric", "metric"),
                  "complex_structure": self._field(m.complex_structure, chart, "J", "j")}
        if m.hypercomplex is not None:
            fields["hypercomplex"] = tuple(
                self._field(j, chart, f"J{k + 2}", "j") for k, j in enumerate(m.hypercomplex))
        if m.conformal_parent is not None:
            parent = m.conformal_parent.parent
            fields["conformal_parent"] = replace(m.conformal_parent, parent=replace(
                parent,
                metric=self._field(parent.metric, chart, "parent.metric", "metric"),
                complex_structure=self._field(parent.complex_structure, chart, "parent.J", "j")))
        return replace(m, **fields)

    def install(self, chart_names):
        from ktgeo.catalog import get_manifold, register_manifold
        modules = [m for name, m in sys.modules.items()
                   if name == "ktgeo" or name.startswith("ktgeo.")]
        for label, targets in SPANS.items():
            for modname, fname in targets:
                fn = getattr(sys.modules[f"ktgeo.{modname}"], fname)
                wrapper = self._span(label, fn)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, attr, wrapper)
                            self._undo.append(lambda mod=mod, attr=attr, fn=fn: setattr(mod, attr, fn))
        real = np.einsum
        np.einsum = self._einsum(real)
        self._undo.append(lambda: setattr(np, "einsum", real))
        for name in chart_names:
            m = get_manifold(name)
            register_manifold(self._counted_manifold(m, name))
            self._undo.append(lambda m=m: register_manifold(m))

    def uninstall(self):
        while self._undo:
            self._undo.pop()()

    # -- reports ----------------------------------------------------------------

    def begin(self, argv):
        self._current = Report(len(self.reports), list(argv))
        self.reports.append(self._current)

    def end(self):
        self._current.finish()
        self._current = None
