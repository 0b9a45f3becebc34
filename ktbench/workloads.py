"""Workloads of the ktgeo benchmark and the pulled-back charts one of them uses.

A workload is a sequence of ``ktgeo`` command lines generated from a seed.
Every report goes through the public entry point ``ktgeo.cli.main``; the
engine receives nothing but the generated command line.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = Path(__file__).resolve().parent / "out"


def load_engine():
    """Import ``ktgeo`` from this checkout's ``src`` and from nowhere else."""
    package = SRC / "ktgeo"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"ktbench: engine source not found at {package}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import ktgeo
    if Path(ktgeo.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"ktbench: ktgeo was imported from {ktgeo.__file__}, not {package}")
    return ktgeo


# ---------------------------------------------------------------------------
# charts pulled back by a fixed near-identity map
# ---------------------------------------------------------------------------

PULL_EPS = 0.1
PULLED_BASES = ("conf_torus_4", "hopf_standard", "hopf_hkt")


def _phi(x):
    """phi_i(x) = x_i + eps sin(x_{i-1}), indices cyclic."""
    return x + PULL_EPS * np.sin(np.roll(x, 1, axis=-1))


def _dphi(x):
    """Jacobian D[i, j] = d phi_i / d x_j."""
    d = x.shape[-1]
    idx = np.arange(d)
    prev = np.roll(idx, 1)
    out = np.zeros(x.shape[:-1] + (d, d))
    out[..., idx, idx] = 1.0
    out[..., idx, prev] = PULL_EPS * np.cos(x[..., prev])
    return out


def _pull_metric(g):
    def metric(points):
        x = np.asarray(points, dtype=float)
        d = _dphi(x)
        out = np.swapaxes(d, -1, -2) @ g(_phi(x)) @ d
        return 0.5 * (out + np.swapaxes(out, -1, -2))
    return metric


def _pull_endomorphism(j):
    def structure(points):
        x = np.asarray(points, dtype=float)
        d = _dphi(x)
        return np.linalg.solve(d, j(_phi(x)) @ d)
    return structure


def _pull_scalar(f):
    return lambda points: f(_phi(np.asarray(points, dtype=float)))


def _pull_chart(chart):
    from ktgeo.catalog import AnnulusChart, BoxChart
    if isinstance(chart, BoxChart) and not chart.tight_axes:
        return chart  # phi is periodic, so the torus maps onto itself
    if isinstance(chart, AnnulusChart):
        # |phi(x) - x| <= eps sqrt(dim): shrink so phi stays inside the base annulus
        shrink = PULL_EPS * np.sqrt(chart.dim)
        return replace(chart, r_min=chart.r_min + shrink, r_max=chart.r_max - shrink)
    raise ValueError(f"no pull-back rule for chart {chart!r}")


def pull_back(m, name=None):
    """The manifold ``m`` pulled back by ``phi``: metric ``Dphi^T g(phi) Dphi``,
    every complex structure ``Dphi^-1 J(phi) Dphi``, dilaton and conformal
    factor ``f o phi``, conformal parent pulled back the same way."""
    from ktgeo.catalog import ConformalParent
    parent = m.conformal_parent
    return replace(
        m,
        name=name or f"pulled_{m.name}",
        chart=_pull_chart(m.chart),
        metric=_pull_metric(m.metric),
        complex_structure=_pull_endomorphism(m.complex_structure),
        dilaton=None if m.dilaton is None else _pull_scalar(m.dilaton),
        hypercomplex=(None if m.hypercomplex is None
                      else tuple(_pull_endomorphism(j) for j in m.hypercomplex)),
        conformal_parent=(None if parent is None else ConformalParent(
            parent=pull_back(parent.parent), log_factor=_pull_scalar(parent.log_factor))),
    )


PULLED_CHARTS = {f"pulled_{base}": base for base in PULLED_BASES}


def install_pulled_charts():
    from ktgeo.catalog import get_manifold, register_manifold
    for name, base in PULLED_CHARTS.items():
        register_manifold(pull_back(get_manifold(base), name))


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

DIM4_CHARTS = ("flat_torus_4", "hopf_standard", "su2xu1", "hopf_hkt", "conf_torus_4")


@dataclass(frozen=True)
class Workload:
    name: str
    # build(seed, i, points) -> (argv without --out, chart-points the report carries)
    build: Callable[..., tuple]
    points: int
    # reports per pass of the traced run
    trace_reports: int
    # share of report time spent in einsum (traced baseline), which weights
    # the speed probe's two kernels; see speed.py
    einsum_share: float

    def report(self, seed: int, i: int) -> tuple:
        """The ``i``-th report: its argv and the chart-points it carries."""
        return self.build(seed, i, self.points)

    def warmup(self, seed: int) -> list:
        """The workload's first report at one point, run before timing."""
        return self.build(seed, 0, 1)[0]


def _catalog_suite(seed, i, points):
    from ktgeo.catalog import catalog_names
    return (["suite", "--all", "--points", str(points), "--seed", str(seed)],
            len(catalog_names()) * points)


def _point_probe(seed, i, points):
    chart = DIM4_CHARTS[i % len(DIM4_CHARTS)]
    return (["report", "--manifold", chart, "--points", str(points), "--seed", str(seed + i)],
            points)


def _pulled_charts(seed, i, points):
    argv = ["report"]
    for name in PULLED_CHARTS:
        argv += ["--manifold", name]
    return (argv + ["--points", str(points), "--seed", str(seed)],
            len(PULLED_CHARTS) * points)


WORKLOADS = {w.name: w for w in (
    # why each workload is there: README.md and BENCHMARK.json.  The suite
    # --all default is 32 points; at 16, two reports fit in a run, and their
    # median is steadier than one 32-point report (README.md, "Baseline")
    Workload("catalog_suite", _catalog_suite, points=16, trace_reports=1, einsum_share=0.95),
    Workload("point_probe", _point_probe, points=1, trace_reports=len(DIM4_CHARTS),
             einsum_share=0.25),
    Workload("pulled_charts", _pulled_charts, points=16, trace_reports=1, einsum_share=0.5),
)}
