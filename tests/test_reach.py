"""``src/ktgeo`` holds what a report reaches: every public function and
public method is called while reports run, unless it is listed below with
the reason it stays.  A module's public names are its ``__all__``, or every
name without a leading underscore where it has none."""

import importlib
import inspect
import pkgutil
import sys

import ktgeo
from ktgeo.catalog import register_manifold
from ktgeo.cli import main

from conftest import block_conformal_torus_6

# the abstract chart interface, overridden by every chart
CHART_STUBS = {"catalog.Chart.sample", "catalog.Chart.interior_mask", "catalog.Chart.describe"}

UNREACHED = {
    "catalog.register_manifold": "the README's way to add a chart, called before a report",
    "catalog.conformal_rescale": "documented in the README; the catalog calls it at import",
    "catalog.hermitian_residuals": "the benchmark's correctness check calls it",
    "connections.compatibility_residuals": "kept for a report's structure block (ROADMAP item 7)",
    "connections.torsion_type_defect": "kept for a report's structure block (ROADMAP item 7)",
}


def _code(member):
    """The code a public member runs; a primitive's getter is the shared
    reader of ``identities._primitive``, which runs the function it holds."""
    if isinstance(member, property):
        member = member.fget
        held = [c.cell_contents for c in member.__closure__ or ()
                if inspect.isfunction(c.cell_contents)]
        member = held[0] if held else member
    return member.__code__ if inspect.isfunction(member) else None


def _public_code():
    """{qualified name: code} of every public function and method in the package."""
    out = {}
    for info in pkgutil.iter_modules(ktgeo.__path__):
        module = importlib.import_module(f"ktgeo.{info.name}")
        names = getattr(module, "__all__", [n for n in vars(module) if not n.startswith("_")])
        for name in names:
            obj = getattr(module, name)
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            members = vars(obj).items() if inspect.isclass(obj) else [(None, obj)]
            for attr, member in members:
                qual = ".".join(filter(None, (info.name, name, attr)))
                if not (attr or "").startswith("_") and _code(member) is not None:
                    out[qual] = _code(member)
    return out


def test_src_holds_what_a_report_reaches(tmp_path):
    m = block_conformal_torus_6()
    register_manifold(m)
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    sys.setprofile(profile)
    try:
        codes = [main(["suite", "--all", "--points", "1", "--out", str(tmp_path / "a.json")]),
                 main(["report", "--manifold", m.name, "--points", "1",
                       "--out", str(tmp_path / "b.json")])]
    finally:
        sys.setprofile(None)
    assert codes == [0, 0]
    unreached = {q for q, code in _public_code().items() if code not in called}
    allowed = CHART_STUBS | set(UNREACHED)
    assert not unreached - allowed, f"reached by no report: {sorted(unreached - allowed)}"
    assert not allowed - unreached, f"exempt but reached: {sorted(allowed - unreached)}"
