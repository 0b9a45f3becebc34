"""The ktgeo benchmark: one command that runs a workload and checks every report.

Usage, from the repository root::

    python3 ktbench/run.py --workload catalog_suite --seed 0 --seconds 20 --trace 0

Each report goes in-process through the public entry point ``ktgeo.cli.main``
with ``--out`` to a file under ``ktbench/out``, one closed-loop client, until
``--seconds`` have passed and at least two reports are done.  Every report is checked:
exit status 0, ``overall_pass`` true, structural fingerprint equal to the
stored one, pulled charts flagged like their base charts; the warm-up report
is repeated at the end and must come back byte-identical.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the
workload's first reports untraced and then traced, alternately, and prints
the per-layer metrics; see ``tracing.py`` and ``README.md``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from checks import check_report, load_fingerprints, worst_residual_ratio
from speed import SpeedProbe
from workloads import OUT_DIR, PULLED_CHARTS, ROOT, WORKLOADS, install_pulled_charts, load_engine

SETUP_SAMPLES = 5
MIN_REPORTS = 2
SETUP_TIMEOUT_S = 120


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def git_commit() -> str:
    """The checked-out commit, read from ``.git`` without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "blas": blas.get("name"),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
            "git_commit": git_commit()}


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

@dataclass
class Sample:
    seconds: float  # at the reference speed, see speed.py
    wall: float
    points: int
    text: bytes
    worst_ratio: float


class Runner:
    """Runs reports through ``cli.main`` and checks each one."""

    def __init__(self, cli, out: Path, einsum_share: float):
        self.cli = cli
        self.out = out
        self.einsum_share = einsum_share
        self.expected = load_fingerprints()
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def report(self, argv, points=0):
        """Run and check one report; ``None`` when it failed."""
        try:
            self.out.unlink(missing_ok=True)
            with SpeedProbe(self.einsum_share) as probe:
                start = perf_counter()
                rc = self.cli.main(argv + ["--out", str(self.out)])
                wall = perf_counter() - start
            seconds = probe.scale(wall)
            if rc != 0:
                problems, text, doc = [f"exit status {rc}"], None, None
            else:
                text = self.out.read_bytes()
                doc = json.loads(text)
                problems = check_report(doc, self.expected)
        except Exception as exc:  # a report that raises is a failed report
            traceback.print_exc()
            problems = [f"raised {exc!r}"]
        if problems:
            self.problem(f"{' '.join(argv)}: {'; '.join(problems)}")
            return None
        return Sample(seconds, wall, points, text, worst_residual_ratio(doc))

    def measured(self, argv, points):
        """A report that counts towards ``attempted`` and ``failed``."""
        self.attempted += 1
        sample = self.report(argv, points)
        self.failed += sample is None
        return sample

    def same_bytes(self, what, a, b):
        if a is not None and b is not None and a.text != b.text:
            self.problem(f"{what}: reports differ in their bytes")

    def problem(self, text):
        print(f"FAIL {text}", file=sys.stderr)
        self.problems.append(text)


def time_setup(workload, seed) -> float:
    """Seconds from starting a fresh process to ready: ``import ktgeo``, the
    catalog, the pulled charts and the one-point warm-up report.  Scaled to
    the reference speed with the slowdown the process reports after."""
    out = OUT_DIR / f"setup-{os.getpid()}.json"
    start = perf_counter()
    proc = subprocess.Popen([sys.executable, str(Path(__file__).with_name("ready.py")),
                             workload.name, str(seed), str(out)],
                            cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        seconds = perf_counter() - start
        slowdown = proc.communicate(timeout=SETUP_TIMEOUT_S)[0]
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    out.unlink(missing_ok=True)
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed (exit status {proc.returncode})")
    return seconds / float(slowdown)


def percentile(sorted_values, q):
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------

def end_to_end(args, workload, runner) -> dict:
    setup = [time_setup(workload, args.seed) for _ in range(SETUP_SAMPLES)]
    install_pulled_charts()
    warmup = runner.report(workload.warmup(args.seed))
    times, walls, points, ratios = [], [], 0, []  # no report text kept: peak RSS is the engine's
    start = perf_counter()
    while runner.attempted < MIN_REPORTS or perf_counter() - start < args.seconds:
        sample = runner.measured(*workload.report(args.seed, runner.attempted))
        if sample is not None:
            times.append(sample.seconds)
            walls.append(sample.wall)
            points += sample.points
            ratios.append(sample.worst_ratio)
    runner.same_bytes("repeated warm-up report", warmup, runner.report(workload.warmup(args.seed)))
    if not times:
        return {}
    times.sort()
    n = len(times)
    print(f"# {n} reports timed; p90 has {n - math.ceil(0.9 * n)} samples beyond it; "
          f"unscaled wall-time p50 {statistics.median(walls):.6g} s")
    # seed-dependent (set by the sample point nearest a chart boundary), so it
    # is printed here and bounded nowhere; the traced run records it per layer
    print(f"{'worst_residual_ratio':<36} {max(ratios):.6g} ratio")
    return {
        "report_s_p50": (statistics.median(times), "s"),
        "report_s_p90": (percentile(times, 0.9), "s"),
        "points_per_s": (points / sum(times), "points/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }


def traced(args, workload, runner) -> dict:
    from tracing import EINSUM_SPAN, FIELD_SPAN, Tracer
    from ktgeo.catalog import catalog_names

    install_pulled_charts()
    charts = catalog_names() + list(PULLED_CHARTS)
    tracer = Tracer()

    def traced_report(argv, points=None):
        tracer.install(charts)
        try:
            tracer.begin(argv)
            sample = runner.report(argv) if points is None else runner.measured(argv, points)
        finally:
            tracer.end()
            tracer.uninstall()
        return sample, tracer.reports[-1]

    # the wrappers must change no result, and the counts must repeat exactly
    warm_argv = workload.warmup(args.seed)
    warmup = runner.report(warm_argv)
    first, counts_a = traced_report(warm_argv)
    second, counts_b = traced_report(warm_argv)
    runner.same_bytes("traced warm-up report", warmup, first)
    runner.same_bytes("traced warm-up report", warmup, second)
    if counts_a.counts() != counts_b.counts():
        runner.problem("counts differ between two traced runs of the warm-up report")
    tracer.reports.clear()

    inputs = [workload.report(args.seed, i) for i in range(workload.trace_reports)]
    plain, counted = [], []
    first_pass = None
    start = perf_counter()
    while first_pass is None or perf_counter() - start < args.seconds:
        this_pass = []
        for argv, points in inputs:
            reference = runner.measured(argv, points)
            sample, report = traced_report(argv, points)
            runner.same_bytes(f"traced {' '.join(argv)}", reference, sample)
            plain.append(reference)
            counted.append(sample)
            this_pass.append(report.counts())
        if first_pass is None:
            first_pass = this_pass
        elif this_pass != first_pass:
            runner.problem("counts differ between two traced passes")

    write_trace(args, tracer)
    reports = tracer.reports
    if any(s is None for s in plain + counted):
        return {}
    k = len(reports)
    points = sum(s.points for s in counted)

    def mean(label, key):
        return sum(r.spans[label][key] for r in reports) / k

    metric_points = sum(r.field_points["metric"] for r in reports)
    j_points = sum(r.field_points["j"] for r in reports)
    flop = sum(r.flop for r in reports)
    out = {
        "catalog.metric_points_per_point": (metric_points / points, "count"),
        "catalog.j_points_per_point": (j_points / points, "count"),
        "catalog.distinct_point_ratio": (
            sum(r.distinct_points for r in reports) / (metric_points + j_points), "ratio"),
        "catalog.field_self_s": (mean(FIELD_SPAN, "self_s"), "s"),
        "einsum.calls": (mean(EINSUM_SPAN, "calls"), "count"),
        "einsum.s": (mean(EINSUM_SPAN, "s"), "s"),
        "einsum.gflop": (flop / k / 1e9, "GFLOP"),
        "einsum.gbytes": (sum(r.bytes for r in reports) / k / 1e9, "GB"),
        "einsum.gflop_per_s": (flop / 1e9 / (mean(EINSUM_SPAN, "s") * k), "GFLOP/s"),
    }
    for label in ("tensor_core.fd_partial", "connections.torsion",
                  "connections.lower_coefficients", "connections.lee_form",
                  "curvature.riemann", "curvature.lambda_omega"):
        out[f"{label}.calls"] = (mean(label, "calls"), "count")
        out[f"{label}.self_s"] = (mean(label, "self_s"), "s")
    out["tensor_core.frames.self_s"] = (mean("tensor_core.frames", "self_s"), "s")
    for label in ("identities", "classify", "string_eqs"):
        out[f"{label}.s"] = (mean(label, "s"), "s")
    out["cli.render_s"] = (mean("cli.render", "s"), "s")
    out["cli.report_bytes"] = (sum(len(s.text) for s in counted) / k, "bytes")
    out["report.worst_residual_ratio"] = (max(s.worst_ratio for s in counted), "ratio")
    out["trace.overhead"] = (statistics.median(s.seconds for s in counted)
                             / statistics.median(s.seconds for s in plain), "ratio")
    return out


def write_trace(args, tracer):
    """The per-report span aggregates of the traced run, for inspection."""
    path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
    doc = {"environment": environment(),
           "reports": [{"id": r.ident, "argv": r.argv, "spans": dict(sorted(r.spans.items())),
                        "counts": r.counts()} for r in tracer.reports]}
    path.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"# span aggregates written to {path.relative_to(ROOT)}")


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="ktbench", description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    load_engine()
    from ktgeo import cli
    workload = WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"report-{os.getpid()}.json"
    runner = Runner(cli, out, workload.einsum_share)
    print(f"# ktbench workload={workload.name} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print("# environment " + json.dumps(environment()))
    try:
        metrics = (traced if args.trace else end_to_end)(args, workload, runner)
    finally:
        out.unlink(missing_ok=True)

    for name, (value, unit) in metrics.items():
        print(f"{name:<36} {value:.6g} {unit}")
    ratio = runner.failed / runner.attempted if runner.attempted else float("nan")
    print(f"{'failed_report_ratio':<36} {ratio:.6g} ({runner.failed}/{runner.attempted} reports)")
    result = {"correct": not runner.problems and bool(metrics),
              "attempted": runner.attempted, "failed": runner.failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
