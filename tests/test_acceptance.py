"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import json
import time

import numpy as np

from ktgeo.catalog import catalog_names, get_manifold
from ktgeo.classify import check_hkt, classify
from ktgeo.cli import main
from ktgeo.identities import Evaluation, run_identity_suite, verify_conformal_trace
from ktgeo.string_eqs import run_string_suite
from ktgeo.tensor_core import hodge_star_values, metric_inverse, norm_sq_values, wedge

from conftest import kahler_form, richardson_ratios

N_POINTS = 32
SEED = 0
TOL = 1e-4


def _check(ok: bool, label: str, detail: str = ""):
    state = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {label}: {state}" + (f" | {detail}" if detail else ""))
    assert ok, f"{label}: {detail}"


def test_criterion_1_identity_suite_on_every_manifold():
    t0 = time.time()
    worst = {}
    for name in catalog_names():
        m = get_manifold(name)
        pts = m.sample_points(N_POINTS, SEED)
        for e in run_identity_suite(m, pts):
            worst[e.name] = max(worst.get(e.name, 0.0), e.max_residual)
            assert e.max_residual < TOL, f"{name}/{e.name}: {e.max_residual:.3e}"
    elapsed = time.time() - t0
    assert len(worst) == 14
    _check(elapsed < 60.0, "1 identity suite",
           f"14 identities x {len(catalog_names())} manifolds x {N_POINTS} pts, "
           f"worst residual {max(worst.values()):.3e}, {elapsed:.1f}s")


def test_criterion_2_hopf_reproduces_the_homogeneous_model():
    m = get_manifold("hopf_standard")
    pts = m.sample_points(N_POINTS, SEED)
    g = m.metric(pts)
    ginv = metric_inverse(g)
    res = {}

    ev = Evaluation(m, pts)
    res["ricci_form"] = float(np.max(np.abs(ev.rho)))
    res["ricci"] = float(np.max(np.abs(ev.ric)))
    res["scalar"] = float(np.max(np.abs(ev.scal)))

    for flavor in ("bismut", "levi_civita"):
        res[f"lee_parallel_{flavor}"] = float(np.max(np.abs(ev.nabla_theta(flavor))))

    res["torsion_closed"] = float(np.max(np.abs(ev.dT)))
    res["torsion_coclosed"] = float(np.max(np.abs(ev.codiff_T)))

    T = ev.T
    theta = ev.theta
    res["torsion_star_dual"] = float(np.max(np.abs(T + hodge_star_values(theta, g, 1))))
    J = m.complex_structure(pts)
    jth = -np.einsum("...m,...mi->...i", theta, J)
    res["torsion_wedge_form"] = float(np.max(np.abs(T - wedge(jth, kahler_form(m)(pts), 2))))

    nth_g = ev.nabla_theta("levi_civita")
    res["lee_killing"] = float(np.max(np.abs(nth_g + np.einsum("...xy->...yx", nth_g))))

    t2 = norm_sq_values(theta, ginv, 1)
    T2 = norm_sq_values(T, ginv, 3)
    res["lee_torsion_balance"] = float(np.max(np.abs(2.0 * t2 - T2 / 3.0)))

    ok = all(v < TOL for v in res.values())
    _check(ok, "2 hopf model", " ".join(f"{k}={v:.1e}" for k, v in res.items()))


def test_criterion_3_scalar_curvature_equivalence_labels():
    def th1(m):
        reps = run_string_suite(m, m.sample_points(N_POINTS, SEED))
        return reps["constant_dilaton"].th1_consistency

    agree = {}
    for name in ("hopf_standard", "su2xu1"):
        out = th1(get_manifold(name))
        agree[name] = out["hypothesis_ok"] and out["agree"] is True
    out = th1(get_manifold("conf_torus_4"))
    labeled = out["label"] == "hypothesis_failed" and out["agree"] is None
    _check(all(agree.values()) and labeled, "3 scalar-curvature equivalence",
           f"agree={agree}, negative example labeled hypothesis_failed={labeled}")


def test_criterion_4_dimension_four_chain():
    worst = 0.0
    flags_match = True
    for name in ("flat_torus_4", "hopf_standard", "su2xu1", "conf_torus_4", "hopf_hkt"):
        m = get_manifold(name)
        pts = m.sample_points(N_POINTS, SEED)
        ev = Evaluation(m, pts)
        lam = ev.lam
        dth = ev.codiff_theta
        om = kahler_form(m)(pts)
        worst = max(worst, float(np.max(np.abs(lam + 2.0 * dth[..., None, None] * om))))
        f = classify(m, pts)
        flags_match &= (f.almost_strong_kt == f.strong_kt)
    _check(worst < TOL and flags_match, "4 dimension-four chain",
           f"lambda reduction worst {worst:.3e}, almost-strong == strong flags {flags_match}")


def test_criterion_5_conformal_trace_formula():
    res = {}
    for name in ("conf_torus_4", "hopf_standard"):
        m = get_manifold(name)
        e = verify_conformal_trace(m, m.sample_points(N_POINTS, SEED))
        res[name] = e.max_residual
    _check(all(v < TOL for v in res.values()), "5 conformal trace",
           " ".join(f"{k}={v:.2e}" for k, v in res.items()))


def test_criterion_6_hkt_checks():
    m = get_manifold("hopf_hkt")
    flags = check_hkt(m, m.sample_points(N_POINTS, SEED))
    vals = (flags.quaternion_residual, flags.torsion_match_residual,
            flags.lee_match_residual)
    _check(all(v < 1e-5 for v in vals), "6 hkt structure",
           f"quaternion={vals[0]:.1e} torsion={vals[1]:.1e} lee={vals[2]:.1e}")


def test_criterion_7_second_order_convergence():
    worst = np.inf
    for name in ("hopf_standard", "conf_torus_4"):
        m = get_manifold(name)
        ratios = richardson_ratios(m, m.sample_points(8, SEED), h=4e-3)
        worst = min(worst, min(ratios.values()))
    _check(worst >= 3.0, "7 convergence", f"worst halving improvement {worst:.2f}x")


def test_criterion_8_negative_control():
    m = get_manifold("conf_torus_4")
    rep = run_string_suite(m, m.sample_points(N_POINTS, SEED))["constant_dilaton"]
    ric = {e.name: e.residual for e in rep.entries}["constant_dilaton_ricci"]
    _check(ric > 10 * TOL, "8 negative control",
           f"constant-dilaton Ricci residual {ric:.3e} > {10 * TOL:.0e}")


def test_criterion_9_determinism_and_cli_contract(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    code_a = main(["report", "--manifold", "hopf_standard", "--manifold", "conf_torus_4",
                   "--points", "8", "--seed", "2", "--out", str(a)])
    code_b = main(["report", "--manifold", "hopf_standard", "--manifold", "conf_torus_4",
                   "--points", "8", "--seed", "2", "--out", str(b)])
    identical = a.read_bytes() == b.read_bytes()
    rep = json.loads(a.read_text())
    code_unknown = main(["report", "--manifold", "nope", "--out", str(tmp_path / "c.json")])
    code_fail = main(["report", "--manifold", "su2xu1", "--points", "4",
                      "--tol-identity", "1e-9", "--out", str(tmp_path / "d.json")])
    ok = (code_a == 0 and code_b == 0 and identical and rep["overall_pass"]
          and code_unknown == 2 and code_fail == 1)
    _check(ok, "9 determinism and cli",
           f"byte-identical={identical}, exits: pass=0/{code_a}, unknown=2/{code_unknown}, "
           f"residual-failure=1/{code_fail}")
