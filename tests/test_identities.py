import sys
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from ktgeo import identities, tensor_core
from ktgeo.catalog import (
    BoxChart, HermitianManifold, catalog_names, conformal_rescale, get_manifold,
)
from ktgeo.classify import structure_flags, vanishing_hypotheses
from ktgeo.connections import lee_form_routes
from ktgeo.errors import ContractViolationError, NumericError, PreconditionError
from ktgeo.identities import (
    Evaluation, _distinct_offsets, run_identity_suite, verify_conformal_trace, verify_dim4,
)
from ktgeo.string_eqs import run_string_suite

from conftest import (
    block_conformal_torus_4, block_conformal_torus_6, codiff_of_field, kahler_form,
    richardson_ratios, sample,
)

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
    entries = run_identity_suite(Evaluation(m, pts))
    assert [e.name for e in entries] == ALL_NAMES
    for e in entries:
        assert e.passed, f"{name}: {e.name} residual {e.residual:.3e}"


def test_flat_torus_residuals_at_the_noise_floor(flat4):
    pts = sample("flat_torus_4", 8)
    for e in run_identity_suite(Evaluation(flat4, pts)):
        assert e.residual < 1e-8


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
    entries = {e.name: e for e in run_identity_suite(Evaluation(su2, pts))}
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
        entries = {e.name: e for e in verify_dim4(Evaluation(m, pts))}
        assert [e.status for e in entries.values()] == ["asserted", "asserted"], name
        assert entries["torsion_lee_duality"].passed, name
        assert entries["lck_lambda_reduction"].passed, name


def test_dim6_lck_lambda_reduction():
    m = get_manifold("conf_torus_6")
    pts = m.sample_points(6, seed=0)
    entries = {e.name: e for e in verify_dim4(Evaluation(m, pts))}
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
        name="warped_torus_6",
        chart=BoxChart(lows=(0.0,) * 6, highs=(2 * np.pi,) * 6),
        metric=metric, complex_structure=_const_field(_block_j(6)))
    pts = m.sample_points(2, seed=0)
    [skip] = verify_dim4(Evaluation(m, pts))  # dim 6: no duality entry either
    assert (skip.name, skip.status, skip.residual, skip.passed, skip.worst_point) == (
        "lck_lambda_reduction", "skipped", None, None, None)
    defect = Evaluation(m, pts).magnitude("lck_defect")
    assert defect > 1e-6
    assert skip.reason.startswith(f"warped_torus_6: lck_defect {defect:.3g} exceeds 1e-06")


def test_conformal_trace_identity():
    # trivial rescale: u must match the parent exactly
    flat = get_manifold("flat_torus_4")
    same = conformal_rescale(flat, lambda p: np.zeros(np.asarray(p).shape[:-1]))
    pts = flat.sample_points(6, seed=0)
    assert verify_conformal_trace(Evaluation(same, pts)).residual < 1e-10

    for name in ("conf_torus_4", "conf_torus_6", "hopf_standard"):
        m = get_manifold(name)
        e = verify_conformal_trace(Evaluation(m, m.sample_points(8, seed=0)))
        assert e.passed, f"{name}: {e.residual:.3e}"

    with pytest.raises(PreconditionError):
        verify_conformal_trace(Evaluation(flat, pts))


def test_conformal_trace_with_non_kahler_parent():
    # rescaling the Hopf chart exercises the <theta_parent, dF> pairing term
    hopf = get_manifold("hopf_standard")
    f = lambda p: 0.1 * np.asarray(p)[..., 0]
    m = conformal_rescale(hopf, f)
    e = verify_conformal_trace(Evaluation(m, m.sample_points(6, seed=1)))
    assert e.passed, e.residual


def test_richardson_second_order_convergence():
    for name in ("hopf_standard", "conf_torus_4"):
        m = get_manifold(name)
        pts = m.sample_points(4, seed=3)
        ratios = richardson_ratios(m, pts, h=4e-3)
        for ident, ratio in ratios.items():
            assert ratio >= 3.0, f"{name}: {ident} improved only {ratio:.2f}x"


def test_identity_evaluation_is_deterministic(hopf):
    pts = sample("hopf_standard", 4)
    a = run_identity_suite(Evaluation(hopf, pts))
    b = run_identity_suite(Evaluation(hopf, pts))
    assert [(e.name, e.residual) for e in a] == [(e.name, e.residual) for e in b]


@pytest.mark.parametrize("name", catalog_names())
def test_torsion_derivative_invariants_tight_tolerance(name):
    # the derivative-exchange and exterior-derivative relations hold an order
    # of magnitude below the curvature tolerance at the default step
    m = get_manifold(name)
    pts = m.sample_points(32, seed=0)
    entries = {e.name: e for e in run_identity_suite(Evaluation(m, pts))}
    assert entries["torsion_nabla_exchange"].residual < 1e-5
    assert entries["torsion_ext_derivative"].residual < 1e-5


def test_evaluation_scope_shares_read_only_primitives(hopf):
    pts = sample("hopf_standard", 2)
    ev = Evaluation(hopf, pts)
    assert not ev.T.flags.writeable and not ev.riemann("bismut").flags.writeable
    assert pts.flags.writeable  # the caller's points are left alone


def test_residual_reads_the_valence_from_the_array(hopf):
    pts = sample("hopf_standard", 3)
    ev = Evaluation(hopf, pts)
    # a primitive's magnitude is its own residual; a scalar needs no frame
    assert ev.magnitude("theta") == ev.residual("theta", ev.theta)[0]
    assert ev.magnitude("scal") == float(np.max(np.abs(ev.scal)))
    # the trailing axes must all have the chart's dimension, one tensor a point
    for bad in (np.zeros((3, 4, 3)), np.zeros((2, 4)), np.float64(0.0)):
        with pytest.raises(ContractViolationError):
            ev.residual("bad", bad)


@pytest.mark.parametrize("diff, bad", [
    ([1.0, np.nan, 3.0, np.inf], 1),
    ([np.inf, 2.0, np.nan, 0.0], 0),
    ([0.0, 5.0, 5.0, 1.0], None),
])
def test_residual_names_the_first_non_finite_point_or_the_first_maximum(diff, bad):
    pts = sample("flat_torus_4", 4)
    ev = Evaluation(get_manifold("flat_torus_4"), pts)
    if bad is None:
        assert ev.residual("scalar", np.array(diff)) == (5.0, tuple(pts[1].tolist()))
        return
    with pytest.raises(NumericError) as err:
        ev.residual("scalar", np.array(diff))
    assert str(err.value) == f"non-finite residual in 'scalar' at point {pts[bad].tolist()}"


def test_residual_of_a_tensor_is_its_largest_frame_component_and_first_point(hopf):
    pts = sample("hopf_standard", 4)
    ev = Evaluation(hopf, pts)
    diff = np.random.default_rng(1).standard_normal((4, 4, 4))
    mags = np.abs(tensor_core.to_frame(diff, ev.frames, 2)).reshape(4, -1).max(axis=1)
    worst = int(np.argmax(mags))
    assert ev.residual("valence2", diff) == (float(mags[worst]), tuple(pts[worst].tolist()))


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


def test_derivatives_of_a_primitive_are_held_read_only(hopf):
    ev = Evaluation(hopf, sample("hopf_standard", 3))
    for read in (lambda: ev.nabla("T", "bismut"), lambda: ev.codiff("T")):
        first = read()
        assert read() is first
        assert not first.flags.writeable
    assert ev.nabla("T", "levi_civita") is not ev.nabla("T", "bismut")


@pytest.mark.parametrize("name", ["hopf_standard", "su2xu1", "conf_torus_6"])
def test_held_codifferential_of_omega_is_the_lee_forms_route(name):
    m = get_manifold(name)
    ev = Evaluation(m, m.sample_points(4, seed=0))
    cod = ev.codiff("omega")
    # the Kaehler form of the chart fields, differentiated by the reference
    assert np.array_equal(cod, codiff_of_field(ev, kahler_form(m), 2))
    via_codiff = np.einsum("...bi,...b->...i", ev.J, cod)
    assert np.array_equal(via_codiff, lee_form_routes(ev)[0])
    assert np.array_equal(via_codiff, ev.theta)


def test_eta_is_the_lee_form_minus_twice_the_dilatons_differential(hopf):
    ev = Evaluation(hopf, sample("hopf_standard", 4))
    assert np.array_equal(ev.dphi, ev.partial("phi"))
    assert np.array_equal(ev.eta, ev.theta - 2.0 * ev.dphi)
    assert np.max(np.abs(ev.eta)) < 1e-6  # the Hopf dilaton makes theta = 2 d phi


def test_each_point_set_builds_coefficients_and_raises_the_torsion_once(monkeypatch):
    # the curvature reads each flavor's held coefficients, and the flux
    # equation's two densities share the torsion raised on each stencil set
    from ktgeo import connections
    from ktgeo.string_eqs import run_string_suite

    m = get_manifold("hopf_standard")
    pts = m.sample_points(4, seed=0)
    coefficients, raised = [], []
    real_lower, real_slotwise = connections.lower_coefficients, tensor_core.slotwise

    def lower(ev, flavor):
        coefficients.append((ev, flavor))  # holds ev, so no id is reused
        return real_lower(ev, flavor)

    def slotwise(t, mat, valence, slots=None):
        if valence == 3 and t.ndim == pts.ndim + 1 + valence:  # on the stencil set
            raised.append((t, mat))
        return real_slotwise(t, mat, valence, slots)

    for name, module in list(sys.modules.items()):
        if not name.startswith("ktgeo."):
            continue
        if getattr(module, "lower_coefficients", None) is real_lower:
            monkeypatch.setattr(module, "lower_coefficients", lower)
        if getattr(module, "slotwise", None) is real_slotwise:
            monkeypatch.setattr(module, "slotwise", slotwise)
    ev = Evaluation(m, pts)
    run_identity_suite(ev)
    reports = run_string_suite(ev)
    assert set(reports) == {"constant_dilaton", "gradient_dilaton"}
    assert coefficients
    assert max(Counter((id(ev), flavor) for ev, flavor in coefficients).values()) == 1
    assert max(Counter((id(t), id(mat)) for t, mat in raised).values()) == 1
    # the torsion on the one stencil set, and its raising there
    assert len(raised) == 2


@pytest.mark.parametrize("d", [4, 6])
def test_distinct_second_level_points_gather_the_nested_set_exactly(d):
    # the nested set as fd_partial places it, at points with negative
    # coordinates and both signed zeros
    rng = np.random.default_rng(d)
    pts = rng.uniform(-2.0, 2.0, (5, d))
    pts[0], pts[1] = 0.0, -0.0
    pts[2, ::2], pts[3, 1::2] = -0.0, 0.0
    nested = []

    def capture(p):
        nested.append(p)
        return p
    tensor_core.fd_partial(lambda p: tensor_core.fd_partial(capture, p), pts)
    full = nested[0].reshape(pts.shape[:-1] + (4 * d * d, d))
    keep, index = _distinct_offsets(d)
    assert keep.size == 2 * d * (d + 1)
    gathered = full[..., keep, :][..., index, :]
    assert np.array_equal(gathered.view(np.int64), full.view(np.int64))


def _four_set_partials(m, first, step):
    """partial(g) and partial(omega) on the first stencil level from the two
    first-level sets and the two sets around each, evaluated separately."""
    eye = step * np.eye(m.dim)
    dg, dom = [], []
    for half in (first[..., 0, :, :], first[..., 1, :, :]):
        fields = []
        for p in (half[..., None, :] + eye, half[..., None, :] - eye):
            g = m.metric(p)
            fields.append((g, tensor_core.kahler_form_values(g, m.complex_structure(p))))
        (g_plus, om_plus), (g_minus, om_minus) = fields
        dg.append((g_plus - g_minus) / (2.0 * step))
        dom.append((om_plus - om_minus) / (2.0 * step))
    return np.stack(dg, axis=1), np.stack(dom, axis=1)


@pytest.mark.parametrize("name", ["su2xu1", "block_conformal_torus_6"])
def test_first_level_partials_equal_the_four_set_reference(name, monkeypatch):
    m = block_conformal_torus_6() if name == "block_conformal_torus_6" else get_manifold(name)
    levels = []
    real_derive = Evaluation._derive

    def derive(self, m, pts, depth, keys=()):
        ev = real_derive(self, m, pts, depth, keys)
        levels.append(ev)
        return ev

    monkeypatch.setattr(Evaluation, "_derive", derive)
    ev = Evaluation(m, m.sample_points(3, seed=1))
    ev.partial("g")
    # the base pass's first-level evaluation, which the pass itself dropped
    (first,) = [e for e in levels if e._depth == 1]
    dg, dom = _four_set_partials(m, first.pts, ev.step)
    assert np.array_equal(first.partial("g"), dg)
    assert np.array_equal(first.partial("omega"), dom)


def _section_evaluations(m, pts):
    """Every evaluation that the suites of one report section build on ``m``
    at ``pts``: the section's, its conformal parent's and the triple's other
    structures, captured as they are made."""
    evs = []
    real_init, real_with_structure = Evaluation.__init__, Evaluation.with_structure

    def init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        evs.append(self)

    def with_structure(self, j_fn):
        evs.append(real_with_structure(self, j_fn))
        return evs[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Evaluation, "__init__", init)
        mp.setattr(Evaluation, "with_structure", with_structure)
        ev = Evaluation(m, pts)
        structure_flags(ev)
        vanishing_hypotheses(ev)
        run_identity_suite(ev)
        if m.conformal_parent is not None:
            verify_conformal_trace(ev)
        verify_dim4(ev)
        run_string_suite(ev)
    return evs


_BLOCK_TORI = {m.name: m for m in (block_conformal_torus_4(), block_conformal_torus_6())}


@pytest.mark.parametrize("name", catalog_names() + list(_BLOCK_TORI))
def test_evaluations_hold_base_point_values_only(name):
    # after every suite, no evaluation holds another or any value on a
    # stencil level: each held primitive is one read-only float64 array of
    # one tensor per base point, never a tuple of arrays
    m = _BLOCK_TORI.get(name) or get_manifold(name)
    evs = _section_evaluations(m, m.sample_points(3, seed=2))
    # the section's, its conformal parent's and the triple's other structures
    assert len(evs) == 1 + (m.conformal_parent is not None) + 2 * (m.hypercomplex is not None)
    for ev in evs:
        assert not [k for k, v in vars(ev).items() if isinstance(v, Evaluation)]
        assert ("partial", "omega") in ev._values
        for key, value in ev._values.items():
            if isinstance(value, tuple):  # a held residual: its value and point
                assert not any(isinstance(v, np.ndarray) for v in value), key
                continue
            assert isinstance(value, np.ndarray) and value.dtype == np.float64, key
            assert not value.flags.writeable, key
            assert value.shape[0] == 3 and set(value.shape[1:]) <= {m.dim}, (key, value.shape)


def test_the_identity_rows_hold_one_difference_at_a_time():
    # over values already held, measuring the rows holds no difference past
    # its row: 1.01 MiB, and 1.33 MiB when every difference was held until
    # the suite returned
    m = get_manifold("flat_torus_6")
    ev = Evaluation(m, m.sample_points(16, seed=0))
    run_identity_suite(ev)
    tracemalloc.start()
    try:
        run_identity_suite(ev)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.2 * 2**20


@pytest.mark.parametrize("name", catalog_names())
def test_held_values_do_not_depend_on_the_batch(name):
    # each point's values are bitwise those of the point alone, so a section
    # run over chunks of its points could give the one-batch report
    m = get_manifold(name)
    pts = m.sample_points(16, seed=0)
    whole = _section_evaluations(m, pts)
    for size in (1, 7):
        chunks = [_section_evaluations(m, pts[i:i + size]) for i in range(0, len(pts), size)]
        for k, ev in enumerate(whole):
            for key, value in ev._values.items():
                if isinstance(value, np.ndarray):
                    joined = np.concatenate([chunk[k]._values[key] for chunk in chunks])
                    assert np.array_equal(joined, value), (size, key)


def _pass_transient(m, n):
    """The tracemalloc peak of one base pass over ``n`` points of ``m``, less
    the bytes the evaluation holds after it."""
    Evaluation(m, m.sample_points(2, seed=1)).partial("g")  # fill the caches a pass fills
    ev = Evaluation(m, m.sample_points(n, seed=0))
    tracemalloc.start()
    try:
        ev.partial("g")
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - held


@pytest.mark.parametrize("name, n", [("flat_torus_6", 16), ("flat_torus_4", 80)])
def test_a_base_pass_transient_does_not_grow_with_the_points(name, n):
    # a base pass runs over blocks of points under a fixed budget for its
    # first level, so 4n points cost what n do: 1.93 MiB at 16 and at 64
    # points of flat_torus_6, 2.94 and 11.57 MiB when one pass took them all
    m = get_manifold(name)
    assert n * 16 * m.dim ** 4 > identities._PASS_BYTES  # n spans at least two blocks
    assert _pass_transient(m, 4 * n) <= 1.1 * _pass_transient(m, n)
