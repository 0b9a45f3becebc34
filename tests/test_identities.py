import numpy as np
import pytest

from ktgeo import tensor_core
from ktgeo.catalog import (
    BoxChart, HermitianManifold, catalog_names, conformal_rescale, get_manifold,
)
from ktgeo.errors import ContractViolationError, PreconditionError
from ktgeo.identities import (
    Evaluation, evaluation, evaluation_scope, run_identity_suite,
    verify_conformal_trace, verify_dim4,
)

from conftest import richardson_ratios, sample

ALL_NAMES = [
    "torsion_nabla_exchange", "torsion_ext_derivative", "bianchi_with_torsion",
    "curvature_comparison", "ricci_comparison", "ricci_form_mixed_trace",
    "b_scalar_relation", "ricci_skew_coclosure", "ricci_j_conjugation",
    "ricci_form_type_defect", "mean_curvature_formula", "chern_vs_bismut_ricci",
    "lambda_trace_calibration", "u_trace_formula",
]


@pytest.mark.parametrize("name", catalog_names())
def test_identity_suite_passes_on_catalog(name):
    m = get_manifold(name)
    pts = m.sample_points(8, seed=0)
    entries = run_identity_suite(m, pts)
    assert [e.name for e in entries] == ALL_NAMES
    for e in entries:
        assert e.passed, f"{name}: {e.name} residual {e.max_residual:.3e}"


def test_flat_torus_residuals_at_the_noise_floor(flat4):
    pts = sample("flat_torus_4", 8)
    for e in run_identity_suite(flat4, pts):
        assert e.max_residual < 1e-8


def test_su2xu1_scalar_relation_reduces_to_lee_torsion_balance(su2):
    # with b = Scal = codiff(theta) = 0 the scalar relation pins
    # 2|theta|^2 = |T|^2 / 3; check the reduced balance directly
    pts = sample("su2xu1", 8)
    from ktgeo.tensor_core import norm_sq_values
    ev = Evaluation(su2, pts)
    t2 = norm_sq_values(ev.theta, ev.ginv, 1)
    T2 = norm_sq_values(ev.T, ev.ginv, 3)
    assert np.max(np.abs(2.0 * t2 - T2 / 3.0)) < 1e-4


def test_su2xu1_coclosed_torsion_makes_ricci_symmetric(su2):
    pts = sample("su2xu1", 8)
    entries = {e.name: e for e in run_identity_suite(su2, pts)}
    assert entries["ricci_skew_coclosure"].passed
    from ktgeo.curvature import ricci_from_curvature, riemann_values
    from ktgeo.tensor_core import metric_inverse
    ric = ricci_from_curvature(riemann_values(Evaluation(su2, pts), "bismut"),
                               metric_inverse(su2.metric(pts)))
    assert np.max(np.abs(ric - np.einsum("...xy->...yx", ric))) < 1e-5


def test_hopf_mean_curvature_reduces_to_chern_torsion_square(hopf):
    # with vanishing rho and lambda: kappa(JX,Y) = <i_X C, i_Y C>
    pts = sample("hopf_standard", 8)
    from ktgeo.connections import torsion_chern_values
    from ktgeo.curvature import riemann_values
    from ktgeo.tensor_core import j_trace_matrix, metric_inverse
    ginv = metric_inverse(hopf.metric(pts))
    J = hopf.complex_structure(pts)
    ev = Evaluation(hopf, pts)
    kappa = 0.5 * np.einsum("...abxy,...ba->...xy",
                            riemann_values(ev, "chern"),
                            j_trace_matrix(J, ginv))
    lhs = np.einsum("...my,...mx->...xy", kappa, J)
    C = torsion_chern_values(ev)
    cc = np.einsum("...xab,...ycd,...ac,...bd->...xy", C, C, ginv, ginv)
    assert np.max(np.abs(lhs - cc)) < 1e-4


def test_dim4_chain_on_all_four_dimensional_entries():
    for name in ("flat_torus_4", "hopf_standard", "su2xu1", "conf_torus_4", "hopf_hkt"):
        m = get_manifold(name)
        pts = m.sample_points(8, seed=0)
        entries, skipped = verify_dim4(m, pts)
        entries = {e.name: e for e in entries}
        assert skipped == []
        assert entries["torsion_lee_duality"].passed, name
        assert entries["lck_lambda_reduction"].passed, name


def test_dim6_lck_lambda_reduction():
    m = get_manifold("conf_torus_6")
    pts = m.sample_points(6, seed=0)
    entries = {e.name: e for e in verify_dim4(m, pts)[0]}
    assert "torsion_lee_duality" not in entries  # dim 4 only
    assert entries["lck_lambda_reduction"].passed


def test_lck_reduction_precondition_error():
    # a Hermitian torus that is not conformally Kaehler: one complex line
    # rescaled by a factor depending on another line
    def metric(p):
        pts = np.asarray(p, dtype=float)
        g = np.zeros(pts.shape[:-1] + (6, 6))
        w = np.exp(2.0 * 0.2 * np.sin(pts[..., 2]))
        for k in range(6):
            g[..., k, k] = 1.0
        g[..., 0, 0] = w
        g[..., 1, 1] = w
        return g

    from ktgeo.catalog import _block_j, _const_field
    m = HermitianManifold(
        name="warped_torus_6", dim=6,
        chart=BoxChart(lows=(0.0,) * 6, highs=(2 * np.pi,) * 6),
        metric=metric, complex_structure=_const_field(_block_j(6)), lck=False)
    entries, skipped = verify_dim4(m, m.sample_points(2, seed=0))
    assert entries == []  # dim 6: no duality entry either
    [skip] = skipped
    assert skip["name"] == "lck_lambda_reduction"
    assert "warped_torus_6 is not declared locally conformally Kaehler" in skip["reason"]


def test_conformal_trace_identity():
    # trivial rescale: u must match the parent exactly
    flat = get_manifold("flat_torus_4")
    same = conformal_rescale(flat, lambda p: np.zeros(np.asarray(p).shape[:-1]))
    pts = flat.sample_points(6, seed=0)
    assert verify_conformal_trace(same, pts).max_residual < 1e-10

    for name in ("conf_torus_4", "conf_torus_6", "hopf_standard"):
        m = get_manifold(name)
        e = verify_conformal_trace(m, m.sample_points(8, seed=0))
        assert e.passed, f"{name}: {e.max_residual:.3e}"

    with pytest.raises(PreconditionError):
        verify_conformal_trace(flat, pts)


def test_conformal_trace_with_non_kahler_parent():
    # rescaling the Hopf chart exercises the <theta_parent, dF> pairing term
    hopf = get_manifold("hopf_standard")
    f = lambda p: 0.1 * np.asarray(p)[..., 0]
    m = conformal_rescale(hopf, f)
    e = verify_conformal_trace(m, m.sample_points(6, seed=1))
    assert e.passed, e.max_residual


def test_richardson_second_order_convergence():
    for name in ("hopf_standard", "conf_torus_4"):
        m = get_manifold(name)
        pts = m.sample_points(4, seed=3)
        ratios = richardson_ratios(m, pts, h=4e-3)
        for ident, ratio in ratios.items():
            assert ratio >= 3.0, f"{name}: {ident} improved only {ratio:.2f}x"


def test_identity_evaluation_is_deterministic(hopf):
    pts = sample("hopf_standard", 4)
    a = run_identity_suite(hopf, pts)
    b = run_identity_suite(hopf, pts)
    assert [(e.name, e.max_residual) for e in a] == [(e.name, e.max_residual) for e in b]


@pytest.mark.parametrize("name", catalog_names())
def test_torsion_derivative_invariants_tight_tolerance(name):
    # the derivative-exchange and exterior-derivative relations hold an order
    # of magnitude below the curvature tolerance at the default step
    m = get_manifold(name)
    pts = m.sample_points(32, seed=0)
    entries = {e.name: e for e in run_identity_suite(m, pts)}
    assert entries["torsion_nabla_exchange"].max_residual < 1e-5
    assert entries["torsion_ext_derivative"].max_residual < 1e-5


def test_evaluation_scope_shares_read_only_primitives(hopf):
    pts = sample("hopf_standard", 2)
    with evaluation_scope():
        ev = evaluation(hopf, pts)
        with evaluation_scope():  # a nested scope joins the open one
            assert evaluation(hopf, pts.copy()) is ev
        assert evaluation(hopf, pts, 2e-4) is not ev
        assert not ev.T.flags.writeable and not ev.riemann("bismut").flags.writeable
    assert evaluation(hopf, pts) is not ev  # released when the scope closed
    assert pts.flags.writeable  # the caller's points are left alone


def test_residual_reads_the_valence_from_the_array(hopf):
    pts = sample("hopf_standard", 3)
    ev = evaluation(hopf, pts)
    # a primitive's magnitude is its own residual; a scalar needs no frame
    assert ev.magnitude("theta") == ev.residual("theta", ev.theta)[0]
    assert ev.magnitude("scal") == float(np.max(np.abs(ev.scal)))
    # the trailing axes must all have the chart's dimension, one tensor a point
    for bad in (np.zeros((3, 4, 3)), np.zeros((2, 4)), np.float64(0.0)):
        with pytest.raises(ContractViolationError):
            ev.residual("bad", bad)


def test_residual_transports_a_tensor_one_slot_at_a_time(monkeypatch):
    # the frame components of a valence-4 residual at dimension 6 go through
    # the slot-wise transport, not a five-operand einsum per point
    ev = Evaluation(get_manifold("flat_torus_6"), sample("flat_torus_6", 2))
    ev.frames  # held before the count: Gram-Schmidt is not a transport
    diff = np.random.default_rng(0).standard_normal((2,) + (6,) * 4)
    operands = []
    transports = []
    real_einsum = np.einsum
    real_slotwise = tensor_core.slotwise

    def counted_einsum(subscripts, *args, **kwargs):
        operands.append(len(args))
        return real_einsum(subscripts, *args, **kwargs)

    def counted_slotwise(t, mat, valence, slots=None):
        transports.append(valence)
        return real_slotwise(t, mat, valence, slots)

    monkeypatch.setattr(np, "einsum", counted_einsum)
    monkeypatch.setattr(tensor_core, "slotwise", counted_slotwise)
    ev.residual("valence4", diff)
    assert transports == [4]
    assert max(operands, default=0) <= 2
