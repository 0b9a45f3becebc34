"""Set-up probe: a fresh process that gets ready for a workload, then says so.

Usage: ``python3 ktbench/ready.py WORKLOAD SEED OUT``.  It imports ``ktgeo``
(which builds the catalog), registers the pulled charts, runs the
workload's one-point warm-up report to ``OUT`` and prints ``ready``.
``run.py`` times it from process start to that line.  Then it prints the
speed probe's slowdown, measured on this process's vCPU.
"""

import sys

from workloads import WORKLOADS, install_pulled_charts, load_engine


def main() -> int:
    name, seed, out = sys.argv[1:4]
    load_engine()
    from ktgeo import cli
    install_pulled_charts()
    rc = cli.main(WORKLOADS[name].warmup(int(seed)) + ["--out", out])
    if rc != 0:
        return rc
    print("ready", flush=True)
    from speed import current_slowdown  # imported after "ready", outside the timed set-up
    print(current_slowdown(WORKLOADS[name].einsum_share), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
