"""``src/ktgeo`` holds what a report reaches: every public function and
public method is called while reports run, unless it is listed below with
the reason it stays.  A module's public names are its ``__all__``, or every
name without a leading underscore where it has none.

Calculus happens in few places: a stencil is placed, and a covariant
derivative taken, only at the sites listed below with the reason each has.
No NumPy wrapper permutes axes: a permutation is a transposed view.  Nothing
uses NumPy's random module: chart points come from the standard library's
generator."""

import ast
import importlib
import inspect
import pkgutil
import sys
from pathlib import Path

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
    "classify.classify": "the benchmark's flag check calls it",
    "connections.compatibility_residuals": "kept for a report's structure block (ROADMAP item 7)",
    "connections.torsion_type_defect": "kept for a report's structure block (ROADMAP item 7)",
}

# where each differentiating kernel function may be called, and why there
CALCULUS_SITES = {
    "fd_partial": {
        "identities.Evaluation._pass": "the one stencil pass over a held primitive, "
                                       "which Evaluation.partial runs",
    },
    "covariant_derivative_of": {
        "identities.Evaluation.nabla": "the held covariant derivative of a primitive",
        "identities._conformal_rows": "the Laplacian of each conformal factor "
                                      "with its parent's connection",
    },
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


def _call_sites(tree, module):
    """(called name, enclosing function) for every call in a module, the
    function named with its enclosing classes and functions."""
    sites = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = scope + (node.name,)
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            sites.append((name, ".".join(scope)))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, (module,))
    return sites


def test_calculus_happens_at_the_listed_sites():
    src = Path(ktgeo.__file__).parent
    sites = [site for path in sorted(src.glob("*.py"))
             for site in _call_sites(ast.parse(path.read_text()), path.stem)]
    def inside(where, site):
        return where == site or where.startswith(site + ".")

    for name, allowed in CALCULUS_SITES.items():
        found = {where for called, where in sites if called == name}
        stray = {w for w in found if not any(inside(w, a) for a in allowed)}
        assert not stray, f"{name} called outside its sites, at {sorted(stray)}"
        unused = {a for a in allowed if not any(inside(w, a) for w in found)}
        assert not unused, f"{name} listed but not called at {sorted(unused)}"


# NumPy's Python-level wrappers for what an ndarray method or a cached
# transpose does without their per-call dispatch
WRAPPED = {"moveaxis": "moved_axes", "swapaxes": "the swapaxes method",
           "broadcast_to": "a filled np.empty"}


def _is_permutation(subscripts):
    """Whether single-operand einsum subscripts only permute the axes."""
    src, _, dst = subscripts.replace("...", "").partition("->")
    return sorted(src) == sorted(dst) and len(set(src)) == len(src)


def test_no_numpy_wrapper_permutes_axes():
    # a pure index permutation is a transposed view (tensor_core.permuted),
    # and np.einsum only contracts or traces
    src = Path(ktgeo.__file__).parent
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            func = getattr(node, "func", None)
            if not (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
                    and func.value.id == "np"):
                continue
            if func.attr in WRAPPED:
                found.append((path.name, node.lineno, f"np.{func.attr}, use {WRAPPED[func.attr]}"))
            elif (func.attr == "einsum" and len(node.args) == 2
                  and isinstance(node.args[0], ast.Constant)
                  and _is_permutation(node.args[0].value)):
                found.append((path.name, node.lineno,
                              f"np.einsum({node.args[0].value!r}), use permuted"))
    assert not found, "\n".join(f"{name}:{line} {what}" for name, line, what in sorted(found))


def test_no_numpy_random():
    # HermitianManifold.sample_points draws from random.Random, so no report
    # imports numpy.random, which NumPy 2 loads only when it is first used
    src = Path(ktgeo.__file__).parent
    found = []
    for path in sorted(src.glob("*.py")):
        text = path.read_text()
        found += [(path.name, n) for n, line in enumerate(text.splitlines(), 1)
                  if "np.random" in line or "numpy.random" in line]
        found += [(path.name, node.lineno) for node in ast.walk(ast.parse(text))
                  if isinstance(node, ast.ImportFrom) and node.module == "numpy"
                  and any(alias.name == "random" for alias in node.names)]
    assert not found, "\n".join(f"{name}:{line}" for name, line in sorted(found))
