import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ktgeo.catalog import get_manifold
from ktgeo.connections import torsion_bismut_values
from ktgeo.errors import ChartDomainError, ContractViolationError, NumericError
from ktgeo.identities import Evaluation
from ktgeo.tensor_core import (
    covariant_derivative_of, exterior_derivative_of, fd_partial, gram_schmidt_frames,
    j_trace_matrix, kahler_form_values, metric_inverse, moved_axes, norm_sq_values, permuted,
    slotwise, to_frame, wedge,
)

from conftest import (
    alt, codiff_of_field, hodge_star, kahler_form, lee_fn, sample, slot_by_slot,
)


# ---------------------------------------------------------------------------
# index permutations
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(st.data())
def test_permuted_is_the_einsum_view(data):
    letters = "uxyzw"[:data.draw(st.integers(1, 5))]
    dst = "".join(data.draw(st.permutations(letters)))
    batch = data.draw(st.sampled_from([(), (3,), (2, 3)]))
    t = np.arange(np.prod(batch + (2,) * len(letters))).reshape(batch + (2,) * len(letters))
    got = permuted(t, f"{letters}->{dst}")
    ref = np.einsum(f"...{letters}->...{dst}", t)
    assert got.shape == ref.shape and got.strides == ref.strides
    assert np.shares_memory(got, t) and np.array_equal(got, ref)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_moved_axes_is_the_moveaxis_view(data):
    ndim = data.draw(st.integers(1, 6))
    count = data.draw(st.integers(1, ndim))
    axis = st.integers(-ndim, ndim - 1)
    source = data.draw(st.lists(axis, min_size=count, max_size=count,
                                unique_by=lambda a: a % ndim))
    destination = data.draw(st.lists(axis, min_size=count, max_size=count,
                                     unique_by=lambda a: a % ndim))
    if count == 1 and data.draw(st.booleans()):
        source, destination = source[0], destination[0]
    else:
        source, destination = tuple(source), tuple(destination)
    t = np.arange(np.prod(range(2, ndim + 2))).reshape(tuple(range(2, ndim + 2)))
    got = moved_axes(t, source, destination)
    ref = np.moveaxis(t, source, destination)
    assert got.shape == ref.shape and got.strides == ref.strides
    assert np.shares_memory(got, t) and np.array_equal(got, ref)


# ---------------------------------------------------------------------------
# exterior derivative
# ---------------------------------------------------------------------------

def test_d_of_constant_one_form_is_zero(flat4):
    const = lambda pts: np.broadcast_to(np.array([1.0, 2.0, -1.0, 0.5]),
                                        np.asarray(pts).shape[:-1] + (4,)).copy()
    pts = sample("flat_torus_4", 8)
    d = exterior_derivative_of(fd_partial(const, pts), 1)
    assert np.max(np.abs(d)) == 0.0


@pytest.mark.parametrize("name", ["hopf_standard", "su2xu1", "conf_torus_4"])
def test_d_squared_vanishes_on_catalog_fields(name):
    # d(d omega) and d(d theta), 32 points per chart
    m = get_manifold(name)
    pts = m.sample_points(32, seed=5)
    om_fn = kahler_form(m)
    ddom = exterior_derivative_of(fd_partial(
        lambda p: exterior_derivative_of(fd_partial(om_fn, p), 2), pts), 3)
    assert np.max(np.abs(ddom)) < 1e-6
    th_fn = lee_fn(m)
    ddth = exterior_derivative_of(fd_partial(
        lambda p: exterior_derivative_of(fd_partial(th_fn, p), 1), pts), 2)
    assert np.max(np.abs(ddth)) < 1e-6


def _hopf_domega_oracle(p):
    """Hand-differentiated d of r^-2 (dx1^dy1 + dx2^dy2): the constant block
    is closed, so d(omega) = d(r^-2) ^ block with d(r^-2) = -2 r^-4 x_m dx_m,
    assembled through the explicit three-term convention
    (a ^ b)(X,Y,Z) = a(X)b(Y,Z) - a(Y)b(X,Z) + a(Z)b(X,Y)."""
    x = np.asarray(p, dtype=float)
    r2 = np.sum(x * x, axis=-1)
    base = np.zeros(x.shape[:-1] + (4, 4))
    base[..., 0, 1] = 1.0
    base[..., 1, 0] = -1.0
    base[..., 2, 3] = 1.0
    base[..., 3, 2] = -1.0
    grad = -2.0 * x / (r2 ** 2)[..., None]
    return (np.einsum("...i,...jk->...ijk", grad, base)
            - np.einsum("...j,...ik->...ijk", grad, base)
            + np.einsum("...k,...ij->...ijk", grad, base))


@pytest.mark.parametrize("as_tuple", [False, True])
def test_fd_partial_calls_its_field_once(as_tuple):
    pts = sample("hopf_standard", 3)
    calls = []

    def field(p):
        calls.append(p.shape)
        value = np.sin(p)[..., :, None] * np.cos(p)[..., None, :]
        return (value, np.sum(value, axis=-1)) if as_tuple else value
    out = fd_partial(field, pts)
    # one call, on the stacked set x +- h e_d: the sign axis before the direction axis
    assert calls == [(3, 2, 4, 4)]
    first = out[0] if as_tuple else out
    assert first.shape == (3, 4, 4, 4)
    eye, c, s = np.eye(4), np.cos(pts), np.sin(pts)
    exact = np.einsum("di,ni,nj->ndij", eye, c, c) - np.einsum("dj,ni,nj->ndij", eye, s, s)
    assert np.max(np.abs(first - exact)) < 1e-7


def test_exterior_derivative_matches_symbolic_oracle_on_hopf(hopf):
    pts = np.array([[1.0, 0.0, 0.0, 0.0], [0.7, -0.3, 0.5, 0.2]])
    d_num = exterior_derivative_of(fd_partial(kahler_form(hopf), pts), 2)
    d_sym = _hopf_domega_oracle(pts)
    assert np.max(np.abs(d_num - d_sym)) < 1e-6
    # and it is genuinely nonzero there
    assert np.max(np.abs(d_num)) > 0.1


def test_exterior_derivative_public_contract(hopf):
    p = np.array([1.0, 0.0, 0.0, 0.0])
    out = exterior_derivative_of(fd_partial(kahler_form(hopf), p), 2)
    assert out.shape == (4, 4, 4)
    assert np.max(np.abs(out - alt(out, 3))) < 1e-12  # a 3-form
    with pytest.raises(ChartDomainError):
        Evaluation(hopf, np.array([0.5001, 0.0, 0.0, 0.0]))


# ---------------------------------------------------------------------------
# codifferential
# ---------------------------------------------------------------------------

def test_codifferential_trivial_cases(flat4):
    pts = sample("flat_torus_4", 8)
    const = lambda p: np.broadcast_to(np.array([1.0, 2.0, -1.0, 0.5]),
                                      np.asarray(p).shape[:-1] + (4,)).copy()
    ev = Evaluation(flat4, pts)
    assert np.max(np.abs(codiff_of_field(ev, const, 1))) < 1e-12
    # Kaehler: codiff of the Kaehler form vanishes, hence the Lee form does
    cod = ev.codiff("omega")
    assert np.max(np.abs(cod)) < 1e-12


@pytest.mark.parametrize("valence", [1, 2])
def test_codifferential_equals_minus_star_d_star_dim4(hopf, valence):
    pts = sample("hopf_standard", 6)
    if valence == 1:
        fn, attr = lee_fn(hopf), "theta"
    else:
        fn, attr = kahler_form(hopf), "omega"
    lhs = Evaluation(hopf, pts).codiff(attr)
    g = hopf.metric(pts)

    def star_fn(p):
        return hodge_star(fn(p), hopf.metric(p), valence)

    d_star = exterior_derivative_of(fd_partial(star_fn, pts), 4 - valence)
    rhs = -hodge_star(d_star, g, 4 - valence + 1)
    assert np.max(np.abs(lhs - rhs)) < 1e-6


def test_codifferential_public_contract(hopf):
    p = np.array([1.0, 0.0, 0.0, 0.0])
    ev = Evaluation(hopf, p)
    out = ev.codiff("omega")
    assert out.shape == (1, 4)  # a single point
    with pytest.raises(ContractViolationError):
        ev.codiff("phi")  # the dilaton, a function


# ---------------------------------------------------------------------------
# Hodge star
# ---------------------------------------------------------------------------

def test_star_of_one_is_volume_form(flat4):
    pts = sample("flat_torus_4", 1)
    vol = hodge_star(np.ones(pts.shape[:-1]), flat4.metric(pts), 0)
    assert vol.shape[-4:] == (4, 4, 4, 4)
    assert abs(vol[0, 0, 1, 2, 3] - 1.0) < 1e-14


@pytest.mark.parametrize("p", [1, 2, 3])
def test_hodge_involution(hopf, p):
    pts = sample("hopf_standard", 4)
    rng = np.random.default_rng(0)
    alpha = alt(rng.standard_normal(pts.shape[:-1] + (4,) * p), p)
    g = hopf.metric(pts)
    twice = hodge_star(hodge_star(alpha, g, p), g, 4 - p)
    sign = (-1) ** (p * (4 - p))
    assert np.max(np.abs(twice - sign * alpha)) < 1e-8


def test_kahler_form_is_selfdual(flat4, hopf):
    for m in (flat4, hopf):
        pts = m.sample_points(4, seed=2)
        om = kahler_form(m)(pts)
        star = hodge_star(om, m.metric(pts), 2)
        assert np.max(np.abs(star - om)) < 1e-12


# ---------------------------------------------------------------------------
# frames, traces, norms
# ---------------------------------------------------------------------------

def test_frame_identity_metric_gives_coordinate_basis():
    assert np.allclose(gram_schmidt_frames(np.eye(4)), np.eye(4))


def test_frame_diagonal_rescale():
    f = gram_schmidt_frames(np.diag([4.0, 1.0, 1.0, 1.0]))
    assert np.allclose(f[0], [0.5, 0, 0, 0])
    assert np.allclose(f[1:], np.eye(4)[1:])


def test_frame_gram_residual_on_hopf(hopf):
    p = 2.0 * np.array([1.0, 0, 0, 0]) / np.sqrt(1.0)
    pts = sample("hopf_standard", 16, seed=7)
    frames = gram_schmidt_frames(hopf.metric(pts))
    gram = np.einsum("...ai,...ij,...bj->...ab", frames, hopf.metric(pts), frames)
    assert np.max(np.abs(gram - np.eye(4))) < 1e-10


def _gram_schmidt_reference(g):
    """Gram-Schmidt on the coordinate basis as the explicit loop, in index
    order and with no pivoting."""
    frame = np.zeros_like(g)
    for a in range(g.shape[-1]):
        v = np.zeros(g.shape[:-1])
        v[..., a] = 1.0
        for b in range(a):
            proj = np.einsum("...i,...ij,...j->...", frame[..., b, :], g, v)
            v = v - proj[..., None] * frame[..., b, :]
        nsq = np.einsum("...i,...ij,...j->...", v, g, v)
        frame[..., a, :] = v / np.sqrt(nsq)[..., None]
    return frame


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 8), st.sampled_from([(), (3,)]), st.integers(0, 2 ** 31 - 1))
def test_frames_match_the_gram_schmidt_loop(dim, batch, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(batch + (dim, dim))
    g = a @ np.swapaxes(a, -1, -2) + 0.5 * np.eye(dim)
    ref = _gram_schmidt_reference(g)
    assert np.max(np.abs(gram_schmidt_frames(g) - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("middle", [np.diag([1.0, -1.0, 1.0]), np.diag([1.0, 1e-15, 1.0])],
                         ids=["indefinite", "small_pivot"])
def test_frames_name_the_degenerate_point(middle):
    g = np.stack([np.eye(3), middle, np.eye(3)])
    with pytest.raises(NumericError, match=r"not positive definite at sampled point index \(1,\)"):
        gram_schmidt_frames(g)


def test_j_trace_of_kahler_form_fixes_orientation(flat4):
    pts = sample("flat_torus_4", 1)
    om = kahler_form(flat4)(pts)[0]
    J = flat4.complex_structure(pts)[0]
    frame = gram_schmidt_frames(flat4.metric(pts)[0])
    jf = np.einsum("ij,aj->ai", J, frame)  # (J e_a)^i
    # convention record: sum_i omega(J e_i, e_i) = +dim, and the opposite
    # trace orientation sum_i omega(e_i, J e_i) = -dim
    assert abs(np.einsum("mn,am,an->", om, jf, frame) - 4.0) < 1e-12
    ginv = metric_inverse(flat4.metric(pts))[0]
    assert abs(np.einsum("...mn,...mn->...", om, j_trace_matrix(J, ginv)) - 4.0) < 1e-12
    other = np.einsum("nm,mc,cn->", om, J, ginv)
    assert abs(other + 4.0) < 1e-12


def test_j_trace_zero_form_and_basis_independence(hopf):
    pts = sample("hopf_standard", 5)
    g = hopf.metric(pts)
    J = hopf.complex_structure(pts)
    zero = np.zeros(pts.shape[:-1] + (4, 4))
    jtr = np.einsum("...mn,...mn->...", zero, j_trace_matrix(J, metric_inverse(g)))
    assert np.max(np.abs(jtr)) == 0.0
    # two different orthonormal frames: coordinate order and reversed order
    om = kahler_form(hopf)(pts)
    frames_a = gram_schmidt_frames(g)
    rev = g[..., ::-1, :][..., :, ::-1]
    frames_b = gram_schmidt_frames(rev)[..., ::-1][..., ::-1, :]
    # frames_b rows are an orthonormal frame in the original index order
    gram = np.einsum("...ai,...ij,...bj->...ab", frames_b, g, frames_b)
    assert np.max(np.abs(gram - np.eye(4))) < 1e-10
    ja = np.einsum("...ij,...aj->...ai", J, frames_a)
    jb = np.einsum("...ij,...aj->...ai", J, frames_b)
    tr_a = np.einsum("...mn,...am,...an->...", om, ja, frames_a)
    tr_b = np.einsum("...mn,...am,...an->...", om, jb, frames_b)
    assert np.max(np.abs(tr_a - tr_b)) < 1e-9


def test_tensor_norm_conventions(hopf):
    eye = np.eye(4)
    assert norm_sq_values(np.zeros((4, 4)), eye, 2) == 0.0
    assert abs(norm_sq_values(np.array([2.0, 0, 0, 0]), eye, 1) - 4.0) < 1e-14
    # full-index |T|^2 on the Hopf chart is 24 (calibrated by the trace
    # identity), both as a sum of frame components and as a g^{-1} contraction
    p = np.array([1.3, -0.2, 0.4, 0.1])
    T = Evaluation(hopf, p).T[0]
    tf = to_frame(T, gram_schmidt_frames(hopf.metric(p)), 3)
    assert abs(np.sum(tf * tf) - 24.0) < 1e-5
    assert abs(norm_sq_values(T, metric_inverse(hopf.metric(p)), 3) - 24.0) < 1e-5


def _slotwise_reference(t, mat, valence, slots):
    """The same transport as one explicit (k+1)-operand einsum."""
    src = "abcd"[:valence]
    dst = "".join(c.upper() if s in slots else c for s, c in enumerate(src))
    mats = [f"...{src[s]}{src[s].upper()}" for s in slots]
    return np.einsum(",".join(mats + [f"...{src}"]) + f"->...{dst}",
                     *([mat] * len(slots)), t)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_slotwise_matches_the_explicit_contraction(data):
    valence = data.draw(st.integers(0, 4))
    dim = data.draw(st.integers(2, 6))
    t_batch = data.draw(st.sampled_from([(), (3,)]))
    mat_batch = data.draw(st.sampled_from([(), (3,)]))
    slots = data.draw(st.none() | st.lists(st.integers(0, max(valence - 1, 0)),
                                           unique=True, max_size=valence))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 31 - 1)))
    t = rng.standard_normal(t_batch + (dim,) * valence)
    mat = rng.standard_normal(mat_batch + (dim, dim))
    got = slotwise(t, mat, valence, slots)
    ref = _slotwise_reference(t, mat, valence, range(valence) if slots is None else slots)
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref), initial=0.0) <= 1e-12 * np.max(np.abs(ref), initial=1.0)
    if slots == []:
        assert np.array_equal(got, t)


@pytest.mark.parametrize("valence", [1, 2, 3, 4])
@pytest.mark.parametrize("dim", [4, 6])
@pytest.mark.parametrize("t_batch, mat_batch", [
    ((1,), (1,)), ((16,), (16,)), ((8, 2, 6), (8, 2, 6)),
    ((8, 2, 6), (8, 1, 1)),  # one matrix a base point, broadcast over its stencil
    ((16,), ()), ((), (3,)),
])
def test_slotwise_equals_the_slot_by_slot_loop_bit_for_bit(valence, dim, t_batch, mat_batch):
    rng = np.random.default_rng(valence * 10 + dim)
    t = rng.standard_normal(t_batch + (dim,) * valence)
    mat = rng.standard_normal(mat_batch + (dim, dim))
    every = range(valence)
    for slots in (None, every[1:], every[::2], every[:-1][::-1]):
        got = slotwise(t, mat, valence, slots)
        ref = slot_by_slot(t, mat, valence, every if slots is None else slots)
        assert got.shape == ref.shape
        assert got.tobytes() == ref.tobytes(), slots
    # to_frame transports every slot with the frame's transpose
    frame = np.linalg.inv(np.linalg.cholesky(mat @ mat.swapaxes(-1, -2) + dim * np.eye(dim)))
    got, ref = to_frame(t, frame, valence), slot_by_slot(t, frame.swapaxes(-1, -2), valence, every)
    assert got.tobytes() == ref.tobytes()


# The batched matrix products against the explicit contractions they replace.
# Random, non-symmetric matrices, so a product with its operands transposed
# reads differently.

def _holding(**values):
    """An evaluation whose store already holds ``values``."""
    ev = Evaluation(get_manifold("flat_torus_4"), sample("flat_torus_4", 1))
    ev._values.update(values)
    return ev


def _assert_matches(got, ref):
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("batch", [(), (3,)])
@pytest.mark.parametrize("dim", [4, 6, 8])
def test_torsion_products_match_the_explicit_contractions(dim, batch):
    rng = np.random.default_rng(dim + len(batch))
    T = rng.standard_normal(batch + (dim,) * 3)
    ginv = rng.standard_normal(batch + (dim, dim))
    ev = _holding(T=T, ginv=ginv)
    _assert_matches(ev.tt2, np.einsum("...xab,...ycd,...ac,...bd->...xy", T, T, ginv, ginv))
    _assert_matches(ev.tt4, np.einsum("...xya,...zub,...ab->...xyzu", T, T, ginv))


def _covariant_derivative_reference(df, base, gamma, valence):
    """The per-slot einsum sum that the slot products replace."""
    slots = "abce"[:valence]
    nab = df
    for s in range(valence):
        t_sub = slots[:s] + "m" + slots[s + 1:]
        nab = nab - np.einsum(f"...md{slots[s]},...{t_sub}->...d{slots}", gamma, base)
    return nab


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_covariant_derivative_matches_the_per_slot_contractions(data):
    valence = data.draw(st.integers(0, 3))
    dim = data.draw(st.integers(2, 8))
    batch = data.draw(st.sampled_from([(), (3,), (2, 3)]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 31 - 1)))
    df = rng.standard_normal(batch + (dim,) * (valence + 1))
    base = rng.standard_normal(batch + (dim,) * valence)
    gamma = rng.standard_normal(batch + (dim,) * 3)
    got = covariant_derivative_of(df, base, gamma, valence)
    ref = _covariant_derivative_reference(df, base, gamma, valence)
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("batch", [(), (3,)])
@pytest.mark.parametrize("dim", [4, 6, 8])
def test_kahler_form_matches_the_explicit_contraction(dim, batch):
    rng = np.random.default_rng(dim + len(batch))
    g = rng.standard_normal(batch + (dim, dim))
    J = rng.standard_normal(batch + (dim, dim))
    omega = kahler_form_values(g, J)
    gj = np.einsum("...ik,...kj->...ij", g, J)
    _assert_matches(omega, 0.5 * (gj - np.swapaxes(gj, -1, -2)))
    assert np.array_equal(omega, -np.swapaxes(omega, -1, -2))


def test_operations_are_pure(hopf):
    pts = sample("hopf_standard", 4)
    a = torsion_bismut_values(Evaluation(hopf, pts))
    b = torsion_bismut_values(Evaluation(hopf, pts))
    assert np.array_equal(a, b)
    fa = gram_schmidt_frames(hopf.metric(pts))
    fb = gram_schmidt_frames(hopf.metric(pts))
    assert np.array_equal(fa, fb)


# ---------------------------------------------------------------------------
# wedge / antisymmetrization algebra
# ---------------------------------------------------------------------------

@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_wedge_antisymmetry_and_alt_projector(seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(4)
    b = rng.standard_normal(4)
    ab = wedge(a, b, 1)
    assert np.allclose(ab, -ab.T)
    assert np.allclose(ab, np.outer(a, b) - np.outer(b, a))
    t = rng.standard_normal((4, 4, 4))
    assert np.allclose(alt(alt(t, 3), 3), alt(t, 3))
    # wedge with a 2-form reproduces the three-term determinant convention
    beta = alt(rng.standard_normal((4, 4)), 2)
    w = wedge(a, beta, 2)
    expected = (np.einsum("i,jk->ijk", a, beta) - np.einsum("j,ik->ijk", a, beta)
                + np.einsum("k,ij->ijk", a, beta))
    assert np.allclose(w, expected)


@pytest.mark.parametrize("q", [1, 2, 3])
def test_wedge_is_the_scaled_alternation(q):
    rng = np.random.default_rng(q)
    a = rng.standard_normal((2, 5))
    b = alt(rng.standard_normal((2,) + (5,) * q), q)
    slots = "abc"[:q]
    ab = np.einsum(f"...i,...{slots}->...i{slots}", a, b)
    assert np.max(np.abs(wedge(a, b, q) - (q + 1) * alt(ab, q + 1))) < 1e-12
