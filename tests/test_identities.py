import gc
import sys
import tracemalloc
import weakref
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from ktgeo import identities, tensor_core
from ktgeo.catalog import (
    BoxChart, HermitianManifold, _conf_factor, catalog_names, conformal_rescale, get_manifold,
)
from ktgeo.classify import check_hkt, structure_flags, vanishing_hypotheses
from ktgeo.connections import compatibility_residuals, lee_form_routes
from ktgeo.errors import ContractViolationError, NumericError, PreconditionError
from ktgeo.identities import (
    Evaluation, Row, _distinct_offsets, run_identity_suite, verify_conformal_trace, verify_dim4,
)
from ktgeo.string_eqs import run_string_suite

from conftest import (
    block_conformal_torus_4, block_conformal_torus_6, codiff_of_field, kahler_form,
    pulled_charts, richardson_ratios, sample, slot_by_slot,
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


def test_a_joined_section_reads_only_the_rows_it_does_not_skip(monkeypatch):
    # the joined evaluation measures the LCK reduction for every member,
    # since conf_torus_6 has the LCK shape; the block torus skips it by its
    # own lck_defect, so its reduction, NaN here, is never read, and the
    # rows of each section are those of its chart alone
    block = block_conformal_torus_6()
    ms = [get_manifold("conf_torus_6"), block]
    pts = [m.sample_points(4, seed=0) for m in ms]
    real = Evaluation.d_jtheta

    def d_jtheta(ev):
        value = real.fget(ev).copy()
        for m, lo, hi, _ in ev.members:
            if m is block:
                value[lo:hi] = np.nan
        return value

    monkeypatch.setattr(Evaluation, "d_jtheta", property(d_jtheta))
    views = Evaluation.joined(list(zip(ms, pts)))
    for m, p, view in zip(ms, pts, views):
        assert verify_dim4(view) == verify_dim4(Evaluation(m, p)), m.name
    assert [r.status for r in verify_dim4(views[1])] == ["skipped"]


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


@pytest.mark.parametrize("name", ["hopf_standard", "conf_torus_6", "su2xu1_rescaled"])
def test_the_parents_values_are_those_of_the_parents_own_evaluation(name):
    # the parents join the section's pass and carry its J at every stencil
    # level, bit for bit the J the parent's own evaluation reads there; the
    # conformal row reads the parent's own J at the base points only, and
    # drops the parents
    m = (conformal_rescale(get_manifold("su2xu1"), _conf_factor)
         if name == "su2xu1_rescaled" else get_manifold(name))
    pts = m.sample_points(4, seed=5)
    calls = []
    parent = m.conformal_parent.parent

    def counted(p):
        calls.append(np.asarray(p)[..., 0].size)
        return parent.complex_structure(p)
    ev = Evaluation(replace(m, conformal_parent=replace(m.conformal_parent, parent=replace(
        parent, complex_structure=counted))), pts)
    parents = ev._parents
    assert verify_conformal_trace(ev).passed
    assert ev._parents is None
    own = Evaluation(parent, pts)
    for key in ("u", "theta", "ginv", ("gamma", "levi_civita")):
        value, mine = _value(parents, key), _value(own, key)
        assert value.shape == mine.shape and value.tobytes() == mine.tobytes(), key
    assert sum(calls) == 4


@pytest.mark.parametrize("suites", [(), ("identities",), ("classify",), ("string", "dim4"),
                                    ("identities", "classify")])
def test_the_declared_variants_follow_the_suites(suites):
    # joined makes the parents only for a report that reads identities, and
    # the triples' structures only for one that reads classify
    ms = [get_manifold(name) for name in ("flat_torus_4", "hopf_hkt", "conf_torus_4")]
    views = Evaluation.joined([(m, m.sample_points(2, seed=0)) for m in ms], suites=suites)
    group = views[0]._source
    assert (group._parents is not None) == ("identities" in suites)
    if "identities" in suites:
        assert [section for *_, section in group._parents.members] == ["hopf_hkt",
                                                                       "conf_torus_4"]
    else:
        with pytest.raises(PreconditionError, match="'identities'"):
            verify_conformal_trace(views[2])
    assert len(group._pending) == ("identities" in suites) + 2 * ("classify" in suites)
    if "classify" in suites:
        assert [len(view._other_structures()) for view in views] == [0, 2, 0]
    else:
        with pytest.raises(PreconditionError, match="'classify'"):
            views[1]._other_structures()


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


def test_a_residual_needs_one_point_per_row(hopf):
    # an evaluation at a stencil-shaped point set is allowed and computes
    # its values, but its residual has no point per row to name
    pts = sample("hopf_standard", 6).reshape(2, 3, 4)
    ev = Evaluation(hopf, pts)
    assert ev.g.shape == (2, 3, 4, 4)
    for name, diff in (("scalar", np.zeros((6, 4))), ("g", "g")):
        with pytest.raises(ContractViolationError) as err:
            ev.residual(name, diff)
        assert str(err.value) == (f"{name!r}: a residual needs one point per row, and the "
                                  "points here have shape (2, 3, 4)")


@pytest.mark.parametrize("step", [0.0, -1e-4, np.nan, np.inf])
def test_an_evaluation_needs_a_finite_positive_step(step):
    # a negative step shrinks the chart margin below the stencil's reach, so
    # su2xu1 at x_0 = 0.2 + 1e-5 would pass the domain check that it fails
    # at +1e-4; a zero step divides by zero
    m = get_manifold("su2xu1")
    pts = [[0.2 + 1e-5, 1.0, 1.0, 0.0]]
    for make in (lambda: Evaluation(m, pts, step), lambda: Evaluation.joined([(m, pts)], step)):
        with pytest.raises(ContractViolationError) as err:
            make()
        assert str(err.value) == f"step {step}: expected a finite step > 0"


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


def _residual_reference(ev, diff):
    """The residual measure slot by slot and point by point: the frame
    transport one slot at a time, each point's largest magnitude, then the
    first point with the largest; ``(None, bad)`` names the first point with
    a non-finite magnitude."""
    valence = diff.ndim - 1
    if valence:
        diff = slot_by_slot(diff, ev.frames.swapaxes(-1, -2), valence, range(valence))
    mags = np.abs(diff).reshape(len(diff), -1).max(axis=1)
    bad = [i for i, v in enumerate(mags) if not np.isfinite(v)]
    if bad:
        return None, bad[0]
    worst = max(range(len(mags)), key=lambda i: (mags[i], -i))
    return float(mags[worst]), tuple(ev.pts[worst].tolist())


@pytest.mark.parametrize("name, n", [("hopf_standard", 5), ("conf_torus_6", 3)])
@pytest.mark.parametrize("valence", [0, 1, 2, 3, 4])
@pytest.mark.parametrize("case", ["finite", "tie", "nan", "inf", "inf_before_nan"])
def test_residual_equals_the_slot_by_slot_reference_exactly(name, n, valence, case):
    if case == "tie":  # a flat chart's frame is one at every point, so equal tensors tie
        name = f"flat_torus_{get_manifold(name).dim}"
    m = get_manifold(name)
    ev = Evaluation(m, sample(name, n))
    diff = np.random.default_rng(valence).standard_normal((n,) + (m.dim,) * valence)
    if case == "tie":  # the last point repeats the first: the first is the worst
        diff[0] *= 10.0
        diff[-1] = diff[0]
    elif case != "finite":
        flat = diff.reshape(n, -1)
        if case in ("nan", "inf_before_nan"):
            flat[-1, -1] = np.nan
        if case in ("inf", "inf_before_nan"):
            flat[n // 2, 0] = np.inf
    with np.errstate(invalid="ignore"):  # inf times a zero frame entry is NaN
        value, where = _residual_reference(ev, diff)
        if value is not None:
            assert ev.residual("row", diff) == (value, where)
            if case == "tie":
                assert where == tuple(ev.pts[0].tolist())
            return
        with pytest.raises(NumericError) as err:
            ev.residual("row", diff)
    assert str(err.value) == f"non-finite residual in 'row' at point {ev.pts[where].tolist()}"
    assert where == (n - 1 if case == "nan" else n // 2)


def test_residual_of_a_tensor_is_its_largest_frame_component_and_first_point(hopf):
    pts = sample("hopf_standard", 4)
    ev = Evaluation(hopf, pts)
    diff = np.random.default_rng(1).standard_normal((4, 4, 4))
    mags = np.abs(tensor_core.to_frame(diff, ev.frames, 2)).reshape(4, -1).max(axis=1)
    worst = int(np.argmax(mags))
    assert ev.residual("valence2", diff) == (float(mags[worst]), tuple(pts[worst].tolist()))


ROW_FIELDS = ("name", "residual", "tolerance", "status", "worst_point", "reason")


def test_a_row_is_immutable_and_keeps_its_fields_and_defaults():
    row = Row("ricci_comparison", 2e-5, 1e-4, "asserted", (0.5, 1.5))
    assert Row._fields == ROW_FIELDS
    assert tuple(row) == ("ricci_comparison", 2e-5, 1e-4, "asserted", (0.5, 1.5), None)
    assert Row._field_defaults == {"reason": None}
    for field in ROW_FIELDS + ("passed",):
        with pytest.raises(AttributeError):
            setattr(row, field, None)
    with pytest.raises(TypeError):
        row[1] = 0.0


@pytest.mark.parametrize("key", ["residual", "max_residual"])
@pytest.mark.parametrize("status", ["asserted", "info", "hypothesis_failed", "skipped"])
@pytest.mark.parametrize("residual", [2e-5, 1e-3])
def test_a_row_dict_keeps_its_key_order_and_only_an_asserted_row_passes(key, status, residual):
    row = (Row("lck_lambda_reduction", None, 1e-4, status, None, reason="no LCK shape")
           if status == "skipped" else Row("ricci_comparison", residual, 1e-4, status, (0.5,)))
    passed = residual <= 1e-4 if status == "asserted" else None
    assert row.passed is passed
    d = row.as_dict(key) if key != "residual" else row.as_dict()
    assert list(d) == ["name", key, "tolerance", "status", "passed", "worst_point", "reason"]
    assert d == {"name": row.name, key: row.residual, "tolerance": 1e-4, "status": status,
                 "passed": passed, "worst_point": row.worst_point, "reason": row.reason}


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
    # coordinates and both signed zeros: every offset but a return offset
    # gathers its nested point bit for bit, its own or its twin's, and every
    # return offset (x + s h e_a) - s h e_a reads the base point x, which it
    # equals to within one rounding of x_a +- h
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
    assert keep.size == 2 * d * d
    gathered = np.concatenate((pts[:, None], full[:, keep]), axis=1)[:, index]
    s, a, t, b = np.unravel_index(np.arange(4 * d * d), (2, d, 2, d))
    back = (a == b) & (s != t)
    assert np.array_equal(gathered[:, ~back].view(np.int64), full[:, ~back].view(np.int64))
    assert np.array_equal(gathered[:, back].view(np.int64),
                          np.repeat(pts[:, None], 2 * d, axis=1).view(np.int64))
    step = tensor_core.DEFAULT_STEP
    assert (np.abs(full[:, back] - pts[:, None]) <= np.spacing(np.abs(pts[:, None]) + step)).all()


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

    def derive(self, *args, **kwargs):
        ev = real_derive(self, *args, **kwargs)
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


# a coordinate where x_a + h crosses 2 and rounds, so the return point
# (x + h e_a) - h e_a is not x
_ROUNDS = 1.9999442460488321


def _first_level_of(m, pts, monkeypatch):
    """The first-level evaluation of a base pass of ``m`` at ``pts``, the
    pass over ``partial("g")``, which the pass itself dropped."""
    levels = []
    real_derive = Evaluation._derive

    def derive(self, *args, **kwargs):
        ev = real_derive(self, *args, **kwargs)
        levels.append(ev)
        return ev

    monkeypatch.setattr(Evaluation, "_derive", derive)
    Evaluation(m, pts).partial("g")
    monkeypatch.undo()
    (first,) = [e for e in levels if e._depth == 1]
    return first


@pytest.mark.parametrize("name", ["su2xu1", "block_conformal_torus_6"])
def test_return_points_read_at_the_base_point_move_partials_only_at_roundoff(name,
                                                                             monkeypatch):
    # the second level reads each return point (x + s h e_a) - s h e_a at the
    # base point x.  On a row where every return point is x, the first
    # level's partials are the nested placement's, fd_partial of fd_partial,
    # bit for bit; on a row whose every x_a + h rounds, a return point moves
    # by one ulp of x_a, so each field value by a few ulps of an O(1) field,
    # and a partial by those ulps over 2h: at most eight, 8 eps / 2h = 8.9e-12
    m = block_conformal_torus_6() if name == "block_conformal_torus_6" else get_manifold(name)
    pts = m.sample_points(2, seed=1)
    assert ((pts + 1e-4) - 1e-4 == pts).all() and ((pts - 1e-4) + 1e-4 == pts).all()
    pts[1] = _ROUNDS
    assert (_ROUNDS + 1e-4) - 1e-4 != _ROUNDS
    first = _first_level_of(m, pts, monkeypatch)
    step = tensor_core.DEFAULT_STEP
    bound = 8 * np.finfo(float).eps / (2 * step)
    for got, field in ((first.partial("g"), m.metric), (first.partial("omega"), kahler_form(m))):
        nested = tensor_core.fd_partial(field, first.pts, step)
        assert np.array_equal(got[0], nested[0])
        assert 0 < np.abs(got[1] - nested[1]).max() <= bound


@pytest.mark.parametrize("name", ["hopf_standard", "conf_torus_6"])
def test_a_metric_read_before_the_pass_leaves_its_base_rows_out_of_the_pass(name):
    # the base points' metric read first is its own call; the pass then
    # calls the metric once per block at the 2d + 2d^2 stencil points per
    # base point alone, its second level reading the held base points, and
    # every partial and row is the one of an evaluation that read nothing
    # before its pass
    m = get_manifold(name)
    pts = m.sample_points(10, seed=2)
    calls = []

    def metric(p):
        calls.append(np.shape(p)[0])
        return m.metric(p)
    counted = replace(m, metric=metric)
    first = Evaluation(counted, pts)
    g = first.g
    rows = run_identity_suite(first)
    blocks = -(-10 // identities._block_points(m.dim))
    d = m.dim
    assert calls == [10] + [10 * (2 * d + 2 * d * d) // blocks] * blocks
    calls.clear()
    fresh = Evaluation(counted, pts)
    assert run_identity_suite(fresh) == rows
    assert np.array_equal(fresh.g, g)
    for attr in ("koszul", "theta"):
        assert np.array_equal(fresh.partial(attr), first.partial(attr))
    assert calls == [10 * (1 + 2 * d + 2 * d * d) // blocks] * blocks


def _variants(ev):
    """The variants that ``ev``, an evaluation of one chart, holds for a
    report section: the conformal parent, until the conformal row drops it,
    and the triple's other structures."""
    return [ev._parents] * (ev.m.conformal_parent is not None) + list(ev._other_structures())


def _run_suites(ev):
    if ev.m.conformal_parent is not None:
        verify_conformal_trace(ev)
    structure_flags(ev)
    vanishing_hypotheses(ev)
    run_identity_suite(ev)
    verify_dim4(ev)
    run_string_suite(ev)


def _section_evaluations(m, pts):
    """Every evaluation of one report section on ``m`` at ``pts``, run as a
    report runs it: the section's, then its variants, the conformal parent
    and the triple's other structures, which join its stencil pass."""
    ev = Evaluation(m, pts)
    variants = _variants(ev)
    _run_suites(ev)
    return [ev] + variants


_BLOCK_TORI = {m.name: m for m in (block_conformal_torus_4(), block_conformal_torus_6())}


@pytest.mark.parametrize("name", catalog_names() + list(_BLOCK_TORI))
def test_evaluations_hold_base_point_values_only(name):
    # after every suite, no evaluation holds another, but for the section its
    # triple's other structures and for a variant a weak proxy of its source,
    # or any value on a stencil level: each held primitive is one read-only
    # float64 array of one tensor per base point, never a tuple of arrays
    m = _BLOCK_TORI.get(name) or get_manifold(name)
    evs = _section_evaluations(m, m.sample_points(3, seed=2))
    # the section's, its conformal parent's and the triple's other structures
    assert len(evs) == 1 + (m.conformal_parent is not None) + 2 * (m.hypercomplex is not None)
    assert list(evs[0]._other_structures()) == evs[1 + (m.conformal_parent is not None):]
    for ev in evs:
        # the conformal row dropped the parents
        held = [k for k, v in vars(ev).items() if isinstance(v, Evaluation)]
        assert held == ([] if ev is evs[0] else ["_source"]), held
        assert ev is evs[0] or type(ev._source) is weakref.ProxyType
        assert not ev._pending  # nothing waits for a pass
        if ev is not evs[0]:
            assert not ev._structures
        assert ("partial", "omega") in ev._values
        for key, value in ev._values.items():
            if isinstance(value, tuple):  # a held residual: its value and point
                assert not any(isinstance(v, np.ndarray) for v in value), key
                continue
            assert isinstance(value, np.ndarray) and value.dtype == np.float64, key
            assert not value.flags.writeable, key
            assert value.shape[0] == 3 and set(value.shape[1:]) <= {m.dim}, (key, value.shape)


def _base_passes(monkeypatch) -> list:
    """The points of each block of every base pass run from now on."""
    blocks = []
    real_fd = identities.fd_partial

    def fd_partial(fn, points, step):
        if points.ndim == 2:  # a base pass's block
            blocks.append(len(points))
        return real_fd(fn, points, step)

    monkeypatch.setattr(identities, "fd_partial", fd_partial)
    return blocks


def test_a_structure_read_first_runs_its_sections_one_pass(monkeypatch):
    # a structure reads its metric-only values off its section and joins
    # its section's pass, whichever of the two is read first, so the HKT
    # check reads the bits it reads when the section's torsion is read first
    m = get_manifold("hopf_hkt")
    pts = m.sample_points(16, seed=0)
    ev = Evaluation(m, pts)
    ev.T
    expected = check_hkt(ev)
    blocks = _base_passes(monkeypatch)
    ev = Evaluation(m, pts)
    ev._other_structures()[0].T
    assert blocks == [16]
    assert repr(check_hkt(ev)) == repr(expected)
    assert blocks == [16]


@pytest.mark.parametrize("points", [4, 8, 16, 41])
@pytest.mark.parametrize("name", ["hopf_hkt", "pulled_hopf_hkt"])
def test_a_variant_off_row_0_runs_a_pass_of_its_own(name, points):
    # behind a chart without a parent, the section's parents and its
    # triple's structures start at a later row of the group; a partial
    # they neither share nor differentiate is a pass of their own over
    # their own rows, in two blocks at 41 points: bit for bit the partial
    # of their chart's own evaluation
    if name not in catalog_names():
        pulled_charts()
    flat, m = get_manifold("flat_torus_4"), get_manifold(name)
    pts = m.sample_points(points, seed=0)
    views = Evaluation.joined([(flat, flat.sample_points(points, seed=0)), (m, pts)])
    group = views[0]._source
    variants = [group._parents, *views[1]._other_structures()]
    charts = [m.conformal_parent.parent] + [replace(m, complex_structure=j, hypercomplex=None)
                                            for j in m.hypercomplex]
    for variant, chart in zip(variants, charts):
        own = Evaluation(chart, pts)
        assert np.array_equal(variant.partial("J"), own.partial("J")), chart.name
        assert (compatibility_residuals(variant, "bismut")
                == compatibility_residuals(own, "bismut")), chart.name


def test_the_parents_read_first_run_their_sections_one_pass(monkeypatch):
    # the parents read the section's J and join its pass, whichever of the
    # two is read first, so the conformal row reads the same bits
    m = get_manifold("hopf_standard")
    pts = m.sample_points(16, seed=0)
    expected = verify_conformal_trace(Evaluation(m, pts))
    blocks = _base_passes(monkeypatch)
    ev = Evaluation(m, pts)
    ev._parents.theta
    assert blocks == [16]
    assert repr(verify_conformal_trace(ev)) == repr(expected)
    assert blocks == [16]


def test_an_evaluation_whose_variants_were_read_is_freed_with_its_last_reference():
    # a variant holds its source by a weak proxy, so the source and its
    # variants form no cycle that only the cyclic collector frees
    m = get_manifold("hopf_hkt")
    gc.disable()
    try:
        ev = Evaluation(m, m.sample_points(2, seed=0))
        assert ev._parents is not None
        for structure in ev._other_structures():
            structure.T
        del structure
        freed = weakref.ref(ev)
        del ev
        assert freed() is None
    finally:
        gc.enable()


def test_the_identity_rows_hold_one_difference_at_a_time():
    # over values already held, measuring the rows holds no difference past
    # its row: 1.01 MiB, and 1.33 MiB when every difference was held until
    # the suite returned
    m = get_manifold("flat_torus_6")
    ev = Evaluation(m, m.sample_points(16, seed=0))
    run_identity_suite(ev)
    del ev._values[("rows", identities._identity_rows)]  # measured again, not read
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


def _value(ev, key):
    """The value of ``ev`` under the key it holds it by: a primitive's name,
    or a method's name and its arguments."""
    return getattr(ev, key) if isinstance(key, str) else getattr(ev, key[0])(*key[1:])


def _arrays(ev, rows=slice(None)):
    return {k: v[rows] for k, v in ev._values.items() if isinstance(v, np.ndarray)}


@pytest.mark.parametrize("dim", [4, 6])
def test_joined_held_values_are_each_members_own(dim):
    # every array the joined evaluation and its variants hold, sliced to a
    # member, is bitwise the value of the member's own evaluation, and they
    # hold every array that one does; at 16 points the d = 6 pass runs in
    # blocks of 8, and the d = 4 one in two of 40 that split su2xu1
    ms = [get_manifold(name) for name in catalog_names() if get_manifold(name).dim == dim]
    pts = [m.sample_points(16, seed=0) for m in ms]
    views = Evaluation.joined(list(zip(ms, pts)))
    # held here: the first conformal row drops the parents from the group
    group = views[0]._source
    parents = group._parents
    for view in views:
        _run_suites(view)
    for m, p, view, (_, lo, hi, _) in zip(ms, pts, views, group.members):
        own, *own_variants = _section_evaluations(m, p)
        joined = [(_arrays(group, slice(lo, hi)) | _arrays(view), own)]
        if m.conformal_parent is not None:
            [(a, b)] = [(a, b) for _, a, b, section in parents.members if section == m.name]
            joined.append((_arrays(parents, slice(a, b)), own_variants.pop(0)))
        joined += [(_arrays(s), ev) for s, ev in zip(view._other_structures(), own_variants)]
        for held, ev in joined:
            assert set(_arrays(ev)) <= set(held), m.name
            for key, value in held.items():
                assert np.array_equal(value, _value(ev, key)), (m.name, key)


@pytest.mark.parametrize("name", catalog_names())
def test_a_section_alone_is_its_joined_evaluation_itself(name):
    # a group of one is no view: joined gives the evaluation itself, which,
    # after every suite, holds the values of the chart's own evaluation bit
    # for bit, and so do its variants
    m = get_manifold(name)
    pts = m.sample_points(3, seed=2)
    [ev] = Evaluation.joined([(m, pts)])
    assert ev._source is None and ev.m is m
    joined = [ev] + _variants(ev)
    _run_suites(ev)
    alone = _section_evaluations(m, pts)
    assert len(joined) == len(alone)
    for held, own in zip(joined, alone):
        assert set(held._values) == set(own._values)
        for key, value in held._values.items():
            if isinstance(value, np.ndarray):
                mine = own._values[key]
                assert value.shape == mine.shape and value.tobytes() == mine.tobytes(), key
            else:
                assert value == own._values[key], key


@pytest.mark.parametrize("n", [1, 16])
def test_a_views_scalar_fields_are_its_charts_alone(n):
    # the joined evaluation computes the dilaton and the conformal factor,
    # and what is built on them, for every member: hopf_standard has both,
    # flat_torus_4 neither and reads the trivial field 0; each view's values
    # and their partials are bit for bit those of its chart's own evaluation
    ms = [get_manifold("hopf_standard"), get_manifold("flat_torus_4")]
    pts = [m.sample_points(n, seed=0) for m in ms]
    views = Evaluation.joined(list(zip(ms, pts)))
    for m, p, view in zip(ms, pts, views):
        alone = Evaluation(m, p)
        for attr in ("phi", "dphi", "eta", "dilaton_flux_density", "log_factor",
                     "dlog_factor"):
            for value, own in ((getattr(view, attr), getattr(alone, attr)),
                               (view.partial(attr), alone.partial(attr))):
                assert value.shape == own.shape and value.tobytes() == own.tobytes(), (
                    m.name, attr)
        assert view.differentiated == ()  # a view joins no pass
    assert not np.any(views[1].phi) and not np.any(views[1].log_factor)


@pytest.mark.parametrize("names, bounds", [
    (["hopf_standard", "hopf_hkt", "conf_torus_4"], [0, 32, 48]),
    (["flat_torus_4", "hopf_standard", "su2xu1", "hopf_hkt", "conf_torus_4"], [0, 40, 80]),
], ids=["whole_sections", "balanced"])
def test_a_joined_pass_block_ends_where_a_section_does_when_no_block_more(names, bounds,
                                                                          monkeypatch):
    # three 16-point sections fill two blocks of at most 40 points whole, as
    # 32 and 16, so no section's fields are called once per block; five
    # would fill three, so they take two balanced blocks of 40
    ms = [get_manifold(name) for name in names]
    # a report of no suite but the structure block differentiates g and omega
    views = Evaluation.joined([(m, m.sample_points(16, seed=0)) for m in ms], suites=())
    blocks = _base_passes(monkeypatch)
    views[0].partial("g")
    assert blocks == [b - a for a, b in zip(bounds, bounds[1:])]


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
