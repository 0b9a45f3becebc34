"""Pointwise multilinear algebra and exterior calculus over a chart.

All conventions used by the rest of the engine are fixed here, once:

- Tensors are stored fully covariant; ``t[i1,..,ip] = t(d_{i1},..,d_{ip})`` on
  coordinate fields.  Index raising is always explicit and uses the inverse
  metric.
- Transport: every multi-slot pullback ``t(M., .., M.)`` -- frame components,
  raised indices, norms, J-conjugations -- goes through ``slotwise``,
  ``out[.., i, ..] = sum_a M[..., a, i] t[.., a, ..]``: one batched matrix
  product per transported slot, on a view of the tensor, and no slot that is
  not transported is touched.  The slots go in order on one running
  product, ``M^T @ t`` over the first slot and ``(.., d) @ M`` over the
  last, reshaped back to a tensor once at the end; each per-point product is
  the one a loop that reshapes after every slot takes, so the bits are
  equal.
- Index permutations are transposed views: ``permuted`` (einsum-style
  subscripts over the trailing axes) and ``moved_axes`` (``np.moveaxis``'s
  arguments), each with its axes computed once per shape and subscripts.
  ``np.einsum`` only contracts or traces.
- Every ``*_values`` function is batched: points have shape ``(..., dim)`` and
  tensor outputs have shape ``(..., dim, .., dim)``.  Single points work the
  same way with an empty batch.
- Exterior derivative: ``(d a)(X0..Xp) = sum_m (-1)^m  D_{Xm} a(.., no Xm, ..)``
  on coordinate fields (determinant convention, no 1/p! factors).  The wedge
  of a 1-form ``a`` with a q-form ``b`` is the same alternating sum with
  ``a(Xm)`` in place of ``D_{Xm}``, computed by the same code, so the two
  conventions cannot drift apart.
- Codifferential: ``(codiff a)(X1..) = -sum_i (nabla^g_{e_i} a)(e_i, X1..)``
  over an orthonormal frame; equivalently a ``g^{-1}`` contraction of the
  Levi-Civita derivative, which is what the implementation uses.
- Hodge star: the chart coordinate order defines the positive orientation;
  ``(*a)_{j..} = (1/p!) a^{i..} sqrt(det g) eps_{i.. j..}``, over the inverse
  metric and ``sqrt(det g)`` that the caller holds.
- J-trace orientation: ``jtr(a) = sum_i a(J e_i, e_i)``.  Definitions that
  need ``sum_i a(e_i, J e_i)`` call this with an explicit sign flip.
- Norms: full index sums of orthonormal-frame components, no combinatorial
  division.
- Differentiation: central differences with default step ``1e-4`` on
  O(1)-scaled charts.  ``fd_partial`` places every stencil, one set
  ``x +- h e_d`` per call with a sign axis before the direction axis, and
  the engine calls it at one site, ``Evaluation.partial``, which
  differentiates a held primitive by name (the curvature's coefficients and
  the flux density among them); the derivative operators (exterior,
  covariant, codifferential) are formulas over a coordinate derivative
  already taken, derivative axis first.  The covariant derivative is one
  batched matrix product with the connection coefficients per slot.
  Curvature-grade objects nest two stencils, so an evaluation needs a chart
  margin of two steps around each point; the evaluation context checks it
  once per point set.  It takes every derivative a base evaluation and its
  variants read in one pass, a field that yields their values in turn, and
  holds no stencil level after it; a report's sections of one dimension
  whose points fit in one block share one evaluation, and so one pass,
  whose field calls each chart's fields on its own rows.  The
  pass calls this once per block of base points, sized by a fixed byte
  budget, so its working set does not grow with the points; the base-point
  values the evaluation holds do, 2.5 MiB per 16 points in d = 6.  For
  ``a != b`` the nested points ``(x + s h e_a) + t h e_b`` and
  ``(x + t h e_b) + s h e_a`` are equal bit for bit, and the ``2d`` return
  points ``(x + s h e_a) - s h e_a`` are read at the base point ``x``, so
  the evaluation context evaluates the fields at only ``2d^2`` of the
  ``(2d)^2`` second-level points, and at ``x``.  It calls each chart's
  field once per block of a base pass, on the block's base points, the
  stencil set ``stencil_points`` places around them and those second-level
  points, and each level reads its own rows of the result.

Everything here is a pure function of its arguments.  The evaluation context
(``identities.Evaluation``) computes each shared primitive, and the coordinate
derivative of each differentiated one, once per point set;
the two sides of an identity stay independent because they are built from
different formulas, not because a pure function is evaluated twice.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import ContractViolationError, NumericError

DEFAULT_STEP = 1e-4

# Letters used to build einsum subscripts for generic-valence loops.  'd' is
# reserved for the derivative axis and 'm' for contractions.
_SLOT = "abcefghk"


# ---------------------------------------------------------------------------
# index permutations
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _permutation_axes(ndim: int, spec: str) -> tuple:
    src, dst = spec.split("->")
    lead = ndim - len(src)
    return tuple(range(lead)) + tuple(lead + src.index(c) for c in dst)


def permuted(t: np.ndarray, spec: str) -> np.ndarray:
    """The view of ``t`` with its trailing axes permuted by ``spec``:
    ``permuted(t, "uxyz->xyzu")`` is ``np.einsum("...uxyz->...xyzu", t)``,
    the same view with the same strides, without einsum's parsing."""
    return t.transpose(_permutation_axes(t.ndim, spec))


@lru_cache(maxsize=None)
def _moved_axes(ndim: int, source, destination) -> tuple:
    source, destination = (tuple(a % ndim for a in (axes if isinstance(axes, tuple) else (axes,)))
                           for axes in (source, destination))
    order = [n for n in range(ndim) if n not in source]  # NumPy's moveaxis rule
    for dest, src in sorted(zip(destination, source)):
        order.insert(dest, src)
    return tuple(order)


def moved_axes(t: np.ndarray, source, destination) -> np.ndarray:
    """``np.moveaxis(t, source, destination)`` as a transposed view, its axes
    computed once per ``(t.ndim, source, destination)``."""
    return t.transpose(_moved_axes(t.ndim, source, destination))


# ---------------------------------------------------------------------------
# finite differences
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _stencil_offsets(dim: int, step: float) -> np.ndarray:
    """The read-only offsets ``+- step e_d`` of a stencil, sign axis first."""
    eye = step * np.eye(dim)
    offsets = np.stack((eye, -eye))
    offsets.flags.writeable = False
    return offsets


def stencil_points(points: np.ndarray, step: float = DEFAULT_STEP) -> np.ndarray:
    """The stencil set ``x +- step e_d`` around ``points``: a sign axis
    (``+`` first) and a direction axis after their batch axes, the points
    where ``fd_partial`` calls its field."""
    pts = np.asarray(points, dtype=float)
    return pts[..., None, None, :] + _stencil_offsets(pts.shape[-1], step)


def fd_partial(fn: Callable[[np.ndarray], np.ndarray], points: np.ndarray,
               step: float = DEFAULT_STEP):
    """Central-difference coordinate derivative of a batched field.

    The field is called once, on the one stencil set ``stencil_points``
    places.  Returns an array with the derivative axis first among the
    tensor axes: ``out[..., d, (slots)] = D_d fn[..., (slots)]``,
    from the two halves of the sign axis taken as views.  A field that
    returns a tuple or a generator of arrays is differentiated array by
    array from the one call, each as the generator yields it, so a field
    that drops what it no longer needs between yields is not held whole;
    the derivatives come back as a tuple in the same order.
    """
    pts = np.asarray(points, dtype=float)
    values = fn(stencil_points(pts, step))
    sign = (slice(None),) * (pts.ndim - 1)  # the batch axes before the sign axis

    def difference(v):
        return (v[sign + (0,)] - v[sign + (1,)]) / (2.0 * step)
    if isinstance(values, np.ndarray):
        return difference(values)
    return tuple(map(difference, values))


def exterior_derivative_of(df: np.ndarray, valence: int) -> np.ndarray:
    """d of a p-form from its coordinate derivative ``df`` (derivative axis
    first); see module docstring for the convention."""
    out = df + 0.0  # a copy with -0.0 read as +0.0, as a sum started from zero
    for m in range(1, valence + 1):
        moved = moved_axes(df, -(valence + 1), -(valence + 1) + m)
        if m % 2:
            out -= moved
        else:
            out += moved
    return out


# ---------------------------------------------------------------------------
# metric helpers, the Kaehler form, Levi-Civita formulas
# ---------------------------------------------------------------------------

def metric_inverse(g: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.inv(g)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - degenerate input
        raise NumericError(f"metric not invertible: {exc}") from exc


def kahler_form_values(g: np.ndarray, J: np.ndarray) -> np.ndarray:
    """The Kaehler form ``omega(X,Y) = g(X, JY)`` from the metric and J at the
    same points.

    The product g J is antisymmetric exactly in exact arithmetic; the explicit
    antisymmetrization removes the roundoff contamination that a
    finite-difference stencil would otherwise amplify by 1/step."""
    gj = g @ J
    return 0.5 * (gj - gj.swapaxes(-1, -2))


def koszul_values(dg: np.ndarray) -> np.ndarray:
    """All-lower Levi-Civita coefficients ``omega[l,i,j] = g(nabla_{d_i} d_j,
    d_l)`` from the metric derivative ``dg[d,a,b] = D_d g_ab`` (Koszul formula
    on coordinate fields)."""
    return 0.5 * (permuted(dg, "ijl->lij") + permuted(dg, "jil->lij") - dg)


def first_slot_matrix(t: np.ndarray) -> np.ndarray:
    """A valence-3 tensor ``t[m, i, j]`` viewed as the matrix ``[m, (i j)]``,
    the operand of a contraction over its first slot."""
    d = t.shape[-1]
    return t.reshape(t.shape[:-3] + (d, d * d))


def covariant_derivative_of(df: np.ndarray, base: np.ndarray, gamma: np.ndarray,
                            valence: int) -> np.ndarray:
    """Covariant derivative of a covariant field from its coordinate
    derivative ``df`` (derivative axis first), its values ``base`` and the
    connection coefficients at the same points; derivative axis first.

    ``nab[d, .., a, ..] = df[d, .., a, ..] - sum_m gamma[m, d, a] base[.., m, ..]``
    for each slot: the slot moved last is one product with ``gamma`` viewed
    as ``(m, d a)``, subtracted as a view with the derivative axis first."""
    d = gamma.shape[-1]
    coef = first_slot_matrix(gamma)
    nab = df
    for s in range(valence):
        moved = moved_axes(base, s - valence, -1)
        flat = moved.reshape(moved.shape[:moved.ndim - valence] + (-1, d)) @ coef
        term = flat.reshape(flat.shape[:-2] + (d,) * (valence + 1))  # [(rest), d, a]
        nab = nab - moved_axes(term, (-2, -1), (-(valence + 1), s - valence))
    return nab


def codifferential_of(nab: np.ndarray, ginv: np.ndarray, valence: int) -> np.ndarray:
    """Codifferential of a p-form from its Levi-Civita derivative ``nab``
    (direction slot first) and the inverse metric at the same points."""
    if valence < 1:
        raise ContractViolationError("codifferential needs valence >= 1")
    rest = _SLOT[: valence - 1]
    return -np.einsum(f"...dm,...dm{rest}->...{rest}", ginv, nab)


# ---------------------------------------------------------------------------
# frames, traces, norms
# ---------------------------------------------------------------------------

def gram_schmidt_frames(g: np.ndarray) -> np.ndarray:
    """Batched Gram-Schmidt on the coordinate basis, in index order and with
    no pivoting, so the result is deterministic.  ``out[..., a, i]`` is the
    i-th component of e_a.

    That frame is the unique lower-triangular ``F`` with positive diagonal
    and ``F g F^T = I``, the inverse of the Cholesky factor of g; a squared
    pivot ``L_aa^2`` at or below 1e-14 is a degenerate metric."""
    g = np.asarray(g, dtype=float)
    try:
        chol = np.linalg.cholesky(g)
        least = chol.diagonal(axis1=-2, axis2=-1).min(axis=-1) ** 2
    except np.linalg.LinAlgError:  # non-finite entries read as 0 here
        chol, least = None, np.linalg.eigvalsh(np.where(np.isfinite(g), g, 0.0))[..., 0]
    least = np.atleast_1d(least)
    if chol is None or (least <= 1e-14).any():
        # the most degenerate point: least squared pivot, or least eigenvalue
        bad = tuple(map(int, np.unravel_index(np.nanargmin(least), least.shape)))
        raise NumericError(f"metric is not positive definite at sampled point index {bad}")
    return np.linalg.inv(chol)


def slotwise(t: np.ndarray, mat: np.ndarray, valence: int, slots=None) -> np.ndarray:
    """``t(M., .., M.)``: the matrix ``mat`` applied in the given slots of a
    valence-``valence`` tensor (every slot when ``slots`` is None),
    ``out[.., i, ..] = sum_a mat[..., a, i] t[.., a, ..]``.

    One batched matrix product per transported slot, in the order given, on
    views of one running product that leave every other slot in place: the
    last slot is ``(.., d) @ M`` on the ``(d^(p-1), d)`` view, the first
    (of two or more) ``M^T @ t`` on the ``(d, d^(p-1))`` view, with no
    broadcast axis, and any other slot ``s`` is ``M^T`` broadcast over the
    ``d^s`` prefixes of ``(d, d^(p-1-s))`` views.  The result is reshaped
    back to a tensor once, at the end.  The batches of ``t`` and ``mat``
    broadcast independently.  Each per-point product is the one a loop that
    reshapes back after every slot takes, so the bits are equal."""
    d = mat.shape[-1]
    mat_t = mat.swapaxes(-1, -2)
    batch_ndim = max(t.ndim - valence, mat.ndim - 2)
    out, lead = t, t.shape[:t.ndim - valence]
    for s in range(valence) if slots is None else slots:
        if s == valence - 1:
            out = out.reshape(lead + (-1, d)) @ mat
        elif s == 0:
            out = mat_t @ out.reshape(lead + (d, -1))
        else:
            out = mat_t[..., None, :, :] @ out.reshape(lead + (d ** s, d, -1))
        lead = out.shape[:batch_ndim]
    return out.reshape(lead + (d,) * valence)


def to_frame(t: np.ndarray, frame: np.ndarray, valence: int) -> np.ndarray:
    """Express covariant components in an orthonormal frame: ``slotwise``
    over every slot with the frame's transpose, one product per slot."""
    return slotwise(t, frame.swapaxes(-1, -2), valence)


def j_trace_matrix(J: np.ndarray, ginv: np.ndarray) -> np.ndarray:
    """``jg[b,a] = sum_i e_i^a (J e_i)^b = J^b_c g^{ca}``, the bilinear form
    that implements frame J-traces without building a frame."""
    return np.einsum("...bc,...ca->...ba", J, ginv)


def norm_sq_values(t: np.ndarray, ginv: np.ndarray, valence: int) -> np.ndarray:
    """Full index-sum squared norm, ``sum t(e_i1,..,e_ip)^2``."""
    return (t * slotwise(t, ginv, valence)).sum(axis=tuple(range(-valence, 0)))


# ---------------------------------------------------------------------------
# Hodge star and volume
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def levi_civita_symbol(dim: int) -> np.ndarray:
    """Totally antisymmetric symbol with eps[0,1,..,dim-1] = +1."""
    eps = np.zeros((dim,) * dim)
    for perm in itertools.permutations(range(dim)):
        eps[perm] = (-1) ** sum(a > b for a, b in itertools.combinations(perm, 2))
    return eps


def hodge_star_values(alpha: np.ndarray, ginv: np.ndarray, sqrt_det_g: np.ndarray,
                      valence: int) -> np.ndarray:
    """Hodge star with the coordinate-order orientation, from the inverse
    metric and sqrt(det g) at the same points."""
    d = ginv.shape[-1]
    weight = np.asarray(sqrt_det_g)[(...,) + (None,) * (d - valence)]
    raised = slotwise(alpha, ginv, valence)
    up = _SLOT[:valence]
    out = _SLOT[valence:d]
    eps = levi_civita_symbol(d)
    comp = np.einsum(f"...{up},{up}{out}->...{out}", raised, eps) / math.factorial(valence)
    return weight * comp


# ---------------------------------------------------------------------------
# algebra on components
# ---------------------------------------------------------------------------

def wedge(a: np.ndarray, b: np.ndarray, q: int) -> np.ndarray:
    """Wedge of a 1-form with a q-form in the determinant convention,
    ``(a^b)(X0..Xq) = sum_m (-1)^m a(Xm) b(.., no Xm, ..)``: the alternating
    sum of ``d`` applied to ``a (x) b``, so that ``a^b = (q+1) Alt(a (x) b)``."""
    return exterior_derivative_of(a.reshape(a.shape + (1,) * q) * np.expand_dims(b, -(q + 1)), q)


def interior_product(vec_contra: np.ndarray, t: np.ndarray, valence: int) -> np.ndarray:
    """Contraction of a contravariant vector into the first slot."""
    rest = _SLOT[: valence - 1]
    return np.einsum(f"...m,...m{rest}->...{rest}", vec_contra, t)


# The cyclic sum over three slots appears in several torsion/curvature
# identities; it is implemented exactly once so a sign cannot drift between
# them.

def cyclic3_of4(t: np.ndarray) -> np.ndarray:
    """Sum over cyclic permutations of the first three slots of t[x,y,z,u]."""
    return t + permuted(t, "yzxu->xyzu") + permuted(t, "zxyu->xyzu")


def proj_one_one(alpha: np.ndarray, J: np.ndarray) -> np.ndarray:
    """(1,1)-part of a (0,2)-tensor, ``(a(X,Y) + a(JX,JY)) / 2``, the unique
    J-invariant projection on 2-forms."""
    return 0.5 * (alpha + slotwise(alpha, J, 2))

