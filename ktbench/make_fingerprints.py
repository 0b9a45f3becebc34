"""Rebuild ``fingerprints.json`` from a report over every chart the benchmark uses.

Usage, from the repository root::

    python3 ktbench/make_fingerprints.py

Run it only when a change to the engine alters the structure of a report on
purpose, and say so in that change.
"""

from __future__ import annotations

import json

from checks import FINGERPRINTS, fingerprint
from workloads import OUT_DIR, PULLED_CHARTS, install_pulled_charts, load_engine


def main() -> int:
    load_engine()
    from ktgeo import cli
    from ktgeo.catalog import catalog_names
    install_pulled_charts()
    argv = ["report", "--points", "4", "--seed", "0"]
    for name in catalog_names() + list(PULLED_CHARTS):
        argv += ["--manifold", name]
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / "fingerprint-report.json"
    rc = cli.main(argv + ["--out", str(out)])
    if rc != 0:
        raise SystemExit(f"report exited {rc}; fingerprints not written")
    doc = json.loads(out.read_text())
    table = {s["name"]: fingerprint(s) for s in doc["manifolds"]}
    # one chart per line, so a structural change shows as a one-line diff
    lines = [f"{json.dumps(name)}: {json.dumps(fp, sort_keys=True)}"
             for name, fp in sorted(table.items())]
    FINGERPRINTS.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(table)} fingerprints to {FINGERPRINTS}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
