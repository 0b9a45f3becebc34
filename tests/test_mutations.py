"""Every convention of the kernel is pinned by some asserted row.

Each case changes one kernel function, in every ``ktgeo`` module that holds
it, and runs the whole catalog plus both block tori: the report must exit 1
with an asserted row failed.  A mutation that fails no row would be a
convention that no report checks.  The rows each mutation fails at 8 points
are named in comments, not asserted, so a new row that also catches a
mutation breaks nothing."""

import importlib
import json
import pkgutil

import numpy as np
import pytest

import ktgeo
from ktgeo.catalog import register_manifold
from ktgeo.cli import main

from conftest import block_conformal_torus_4, block_conformal_torus_6


def _per_flavor(flavor, change):
    """Mutates ``lower_coefficients(ev, flavor)`` for one flavor only."""
    def mutate(real):
        return lambda ev, f: change(ev, real(ev, f)) if f == flavor else real(ev, f)
    return mutate


def _bismut_term(ev):
    """T[l,i,j] in the coefficients' slot order, twice their Bismut term."""
    return np.einsum("...ijl->...lij", ev.T)


# {case: (kernel function, mutation of it)}; each comment gives the rows the
# mutation fails at 8 points, and how many of them in all
MUTATIONS = {
    # 38: lee_form_routes, torsion_lee_duality, ricci_form_mixed_trace,
    # b_scalar_relation, mean_curvature_formula, chern_vs_bismut_ricci,
    # lambda_trace_calibration, u_trace_formula, ricci_j_conjugation,
    # ricci_form_type_defect
    "torsion_sign": ("torsion_bismut_values", lambda real: lambda ev: -real(ev)),
    # 21: lee_form_routes, mean_curvature_formula, u_trace_formula
    "chern_torsion_doubled": ("torsion_chern_values", lambda real: lambda ev: 2 * real(ev)),
    # 39: lee_form_routes, chern_vs_bismut_ricci, conformal_u_change,
    # torsion_lee_duality, ricci_form_mixed_trace, ricci_j_conjugation,
    # ricci_comparison, ricci_skew_coclosure, ricci_form_type_defect,
    # supersymmetric_lee, flux_divergence_agreement
    "codifferential_sign": ("codifferential_of", lambda real: lambda *a: -real(*a)),
    # 29: lee_form_routes, mean_curvature_formula, chern_vs_bismut_ricci,
    # ricci_form_mixed_trace, lck_lambda_reduction, ricci_form_type_defect
    "j_trace_orientation": ("j_trace_matrix", lambda real: lambda *a: -real(*a)),
    # 39: every identity but lambda_trace_calibration
    "bismut_coefficients_minus_half_torsion": (
        "lower_coefficients", _per_flavor("bismut", lambda ev, om: om - _bismut_term(ev))),
    # 68: every identity but lambda_trace_calibration
    "bismut_coefficients_third_torsion": (
        "lower_coefficients", _per_flavor("bismut", lambda ev, om: om - _bismut_term(ev) / 6)),
    # 25: mean_curvature_formula, chern_vs_bismut_ricci, u_trace_formula,
    # conformal_u_change
    "chern_coefficients_full_domega": (
        "lower_coefficients", _per_flavor("chern", lambda ev, om: 2 * om - ev.koszul)),
    # 62: every identity but torsion_nabla_exchange, torsion_ext_derivative
    # and lambda_trace_calibration; conformal_u_change, einstein_equation
    "curvature_sign": ("riemann_values", lambda real: lambda *a: -real(*a)),
    # 19: ricci_form_mixed_trace, mean_curvature_formula,
    # lambda_trace_calibration, u_trace_formula, lck_lambda_reduction
    "lambda_sign": ("lambda_omega_values", lambda real: lambda *a: -real(*a)),
    # 20: chern_vs_bismut_ricci, ricci_form_mixed_trace, b_scalar_relation,
    # mean_curvature_formula, u_trace_formula, ricci_form_type_defect
    "ricci_form_doubled": ("rho_from_curvature", lambda real: lambda *a: 2 * real(*a)),
    # 8: ricci_comparison, ricci_form_mixed_trace, ricci_skew_coclosure,
    # ricci_j_conjugation
    "ricci_transposed": ("ricci_from_curvature",
                         lambda real: lambda *a: np.swapaxes(real(*a), -1, -2)),
    # 5: torsion_lee_duality, the one row that pins the wedge normalization
    "wedge_halved": ("wedge", lambda real: lambda *a: 0.5 * real(*a)),
    # 5: torsion_lee_duality, the one row that pins the orientation
    "hodge_star_sign": ("hodge_star_values", lambda real: lambda *a: -real(*a)),
    # 3: mean_curvature_formula, the one row that pins the (1,1) projector
    "one_one_projector_complement": ("proj_one_one",
                                     lambda real: lambda a, J: a - real(a, J)),
}


def _failed_rows(report):
    for s in report["manifolds"]:
        rows = s.get("identities", []) + s.get("dim4", []) + s["structure"]
        rows += [r for rep in s.get("string", {}).values() for r in rep["entries"]]
        yield from (f"{s['name']}: {r['name']}" for r in rows if r["passed"] is False)


@pytest.mark.parametrize("case", MUTATIONS)
def test_every_kernel_mutation_fails_an_asserted_row(case, monkeypatch, tmp_path):
    name, mutate = MUTATIONS[case]
    modules = [importlib.import_module(f"ktgeo.{info.name}")
               for info in pkgutil.iter_modules(ktgeo.__path__)]
    holders = [mod for mod in modules if hasattr(mod, name)]
    assert holders, name
    real = getattr(holders[0], name)
    for mod in holders:
        assert getattr(mod, name) is real
        monkeypatch.setattr(mod, name, mutate(real))
    register_manifold(block_conformal_torus_4())
    register_manifold(block_conformal_torus_6())
    out = tmp_path / "r.json"
    code = main(["report", "--manifold", "all", "--manifold", "block_conformal_torus_4",
                 "--manifold", "block_conformal_torus_6", "--points", "8", "--out", str(out)])
    assert code == 1
    assert list(_failed_rows(json.loads(out.read_text())))
