"""Correctness checks applied to every report the benchmark produces.

A report's numbers move with the sample points and with any change of
summation order, so the checks compare only its structure: entry names in
order, status labels, pass bits, the taxonomy flags and the HKT bit.  The
expected structure of every chart is stored in ``fingerprints.json``; rebuild
it with ``python3 ktbench/make_fingerprints.py`` when a change to the engine
alters a report's structure on purpose.
"""

from __future__ import annotations

import json
from pathlib import Path

from workloads import PULLED_CHARTS

FINGERPRINTS = Path(__file__).resolve().parent / "fingerprints.json"


def _entries(entries, *keys):
    return [[e[k] for k in keys] for e in entries]


def fingerprint(section: dict) -> dict:
    """The structural part of one manifold section of a report."""
    flags = section.get("flags")
    fp = {"pass": section["pass"]}
    if flags is not None:
        fp["flags"] = {k: v for k, v in flags.items() if isinstance(v, bool)}
        fp["hkt"] = None if flags["hkt"] is None else flags["hkt"]["hkt"]
        fp["taxonomy_implications"] = section["taxonomy_implications"]
    for suite in ("identities", "dim4"):
        if suite in section:
            fp[suite] = _entries(section[suite], "name", "passed")
    if "string" in section:
        fp["string"] = {
            kind: {"hypothesis_ok": rep["hypothesis_ok"],
                   "th1_label": rep["th1_consistency"]["label"],
                   "entries": _entries(rep["entries"], "name", "status", "passed")}
            for kind, rep in section["string"].items()}
    return fp


def load_fingerprints() -> dict:
    return json.loads(FINGERPRINTS.read_text())


def check_report(doc: dict, expected: dict) -> list:
    """Problems found in a parsed report; an empty list means it is correct."""
    problems = []
    if doc.get("overall_pass") is not True:
        problems.append("overall_pass is not true")
    for section in doc["manifolds"]:
        name = section["name"]
        fp = fingerprint(section)
        if fp != expected.get(name):
            problems.append(f"{name}: structural fingerprint differs from the stored one")
        base = PULLED_CHARTS.get(name)
        if base is not None and fp.get("flags") != expected[base]["flags"]:
            problems.append(f"{name}: flags differ from those of {base}")
    return problems


def worst_residual_ratio(doc: dict) -> float:
    """Max of residual / tolerance over asserted identity, dim4 and string entries."""
    ratios = []
    for section in doc["manifolds"]:
        for suite in ("identities", "dim4"):
            ratios += [e["max_residual"] / e["tolerance"] for e in section.get(suite, [])]
        for rep in section.get("string", {}).values():
            ratios += [e["residual"] / e["tolerance"] for e in rep["entries"]
                       if e["status"] == "asserted"]
    return max(ratios)
