"""Two-sided evaluation of the pointwise curvature identities.

Each identity is evaluated with its two sides built from different formulas
over shared primitives.  An :class:`Evaluation` computes every primitive
(the chart fields, the dilaton and the conformal factor among them, torsion,
the three curvatures, the Lee form, eta = theta - 2 d phi, ...) once per
manifold and point set, and every suite of a report section reads the one
evaluation the section takes from :meth:`Evaluation.joined`.  The sections
of one dimension whose points fit in one pass block share one evaluation
over all their points, which computes every primitive for all of them, each
section through a view that is only its rows of the values held, so a
section's values and rows are those of its chart alone; a section in a
group of one takes that evaluation itself.  Every derivative is of a
primitive, read by the primitive's name: ``partial`` and ``nabla`` and
``codiff`` over it.  One stencil pass takes every ``partial`` an evaluation
reads, and those of its variants (the conformal parent, the triple's other
structures), over evaluations on the stencil set that the pass builds and
drops, so only base-point values outlive it.  The two sides are independent
because their formulas differ, so a convention bug cannot cancel;
evaluating a pure function twice gives identical bits and would add no
independence.  Residuals are measured by
:meth:`Evaluation.residual` as the largest orthonormal-frame component of the
difference, which keeps them scale-honest across charts.

Every row comes from a generator of ``(name, lhs - rhs, order, status)``
rows over an evaluation, ``order`` the row's stencil nesting depth, the
conformal row's too, which reads the parents of every member that has one;
:func:`measure_rows` runs each generator once on the evaluation that holds
the values, the joined one of a view, and turns each row into a
:class:`Row`, the one row type of a report, with the section's own status.

Identity names (stable keys used in reports and tests):

========================  =====================================================
torsion_nabla_exchange    Levi-Civita vs Bismut derivative of the torsion form
torsion_ext_derivative    dT from the Bismut derivative and quadratic torsion
bianchi_with_torsion      first Bianchi identity of the Bismut connection
curvature_comparison      Levi-Civita curvature from the Bismut curvature
ricci_comparison          Riemannian vs Bismut Ricci plus torsion terms
ricci_form_mixed_trace    rho against Ric(.,J.), the Lee derivative and lambda
b_scalar_relation         b = Scal - 3 codiff(theta) - 2|theta|^2 + |T|^2/3
ricci_skew_coclosure      antisymmetric part of Ric vs codifferential of T
ricci_j_conjugation       Ric(J.,J.) - Ric transposed vs Lee derivatives
ricci_form_type_defect    rho(J.,J.) - rho vs codiff(T) and the nabla-exterior
                          derivative of the Lee form
mean_curvature_formula    kappa(J.,.) from rho^{1,1}, Chern torsion square,
                          and lambda
chern_vs_bismut_ricci     Chern Ricci form = Bismut Ricci form + d(J theta)
lambda_trace_calibration  the J-trace of lambda vs |theta|^2, codiff(theta),
                          |T|^2 (also calibrates the norm convention)
u_trace_formula           2u = b + |C|^2 - h/2
torsion_lee_duality       dim 4: T = -*theta = J theta ^ omega
lck_lambda_reduction      reduction of lambda where T has the LCK shape
conformal_u_change        behaviour of u under a conformal rescaling
lee_form_routes           structure block: the Lee form by the codifferential
                          of omega vs its Bismut- and Chern-torsion traces
========================  =====================================================

Default tolerances: 1e-4 for identities that involve curvature or any other
second metric derivative (order 2), 1e-6 for first-derivative-only identities
(order 1; the finite-difference error budget at step 1e-4).  An identity
tolerance ``tol`` (``--tol-identity``) replaces 1e-4, and a first-order row
keeps 1e-6 where ``tol`` is larger.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import replace
from functools import lru_cache
from operator import attrgetter
from typing import NamedTuple

import numpy as np

from .catalog import HermitianManifold
from .connections import (
    COEFFICIENTS, lee_form_routes, lee_form_values, lower_coefficients,
    torsion_bismut_values, torsion_chern_values,
)
from .curvature import (
    lambda_omega_values, ricci_from_curvature, riemann_values, rho_from_curvature,
)
from .errors import ContractViolationError, GeometryError, NumericError, PreconditionError
from .tensor_core import (
    DEFAULT_STEP, codifferential_of, covariant_derivative_of, cyclic3_of4,
    exterior_derivative_of, fd_partial, first_slot_matrix, gram_schmidt_frames,
    hodge_star_values, interior_product, j_trace_matrix, kahler_form_values, koszul_values,
    metric_inverse, norm_sq_values, permuted, proj_one_one, slotwise, stencil_points, to_frame,
    wedge,
)

__all__ = [
    "Evaluation", "STENCIL_DEPTH", "Row", "measure_rows",
    "run_identity_suite", "verify_dim4", "verify_conformal_trace", "verify_structure",
    "TOL_CURVATURE", "TOL_FIRST_ORDER",
]

TOL_CURVATURE = 1e-4
TOL_FIRST_ORDER = 1e-6

# a metric field is symmetric when |g - g^T| is at most this times |g|
_SYMMETRY_TOL = 16 * np.finfo(float).eps

# Curvature-grade primitives nest two central-difference stencils, so every
# stencil point lies within STENCIL_DEPTH * step of its base point.
STENCIL_DEPTH = 2

# the status of a row
ASSERTED, INFO, HYPOTHESIS_FAILED, SKIPPED = "asserted", "info", "hypothesis_failed", "skipped"


class Row(NamedTuple):
    """One row of a report: a two-sided check over a batch of points, its
    largest residual and the point where it occurs.  Only an ``asserted``
    row passes or fails; an ``info`` or ``hypothesis_failed`` row makes no
    claim, and a ``skipped`` row, whose precondition fails on the chart, has
    no residual and gives its ``reason``.  A named tuple, so it is immutable
    and costs one tuple to make."""

    name: str
    residual: float | None
    tolerance: float
    status: str
    worst_point: tuple | None
    reason: str | None = None

    @property
    def passed(self) -> bool | None:
        return self.residual <= self.tolerance if self.status == ASSERTED else None

    def as_dict(self, residual_key: str = "residual") -> dict:
        """The row's report dict, its residual under ``residual_key`` (the
        identity and dim4 suites write ``max_residual``)."""
        return {"name": self.name, residual_key: self.residual, "tolerance": self.tolerance,
                "status": self.status, "passed": self.passed, "worst_point": self.worst_point,
                "reason": self.reason}


# ---------------------------------------------------------------------------
# the evaluation context
# ---------------------------------------------------------------------------

def _frozen(value):
    """A read-only view of an array; any other value as it is."""
    if isinstance(value, np.ndarray):
        value = value.view()
        value.flags.writeable = False
    return value


def _primitive(compute):
    """A primitive computed on first use and then held, under its name."""
    return property(lambda self: self._once(compute.__name__, compute), doc=compute.__doc__)


def _tt2(T, ginv):
    """TT2[x,y] = sum_i g(T(x,e_i), T(y,e_i))  (full two-slot contraction)."""
    flat = T.reshape(T.shape[:-2] + (-1,))  # T[x, (ab)]
    return slotwise(T, ginv, 3, (1, 2)).reshape(flat.shape) @ flat.swapaxes(-1, -2)


@lru_cache(maxsize=None)
def _distinct_offsets(d: int):
    """The nested stencil's distinct offsets in dimension ``d``.

    The offset ``(s, a, t, b)`` is the point ``(x + s h e_a) + t h e_b``, at
    flat index ``((s d + a) 2 + t) d + b``.  For ``a != b`` it equals its twin
    ``(t, b, s, a)`` bit for bit: each coordinate adds one of ``+-h`` and one
    of ``+-0.0``, or two signed zeros, and either order gives the same sum.
    The ``2d`` return offsets ``(s, a, -s, a)`` are read at the base point
    ``x``, which they equal but where ``x_a +- h`` rounds.  Returns the flat
    indices of the ``2d^2`` other offsets with ``a <= b``, and for every
    offset its position in the second level's points, the base point first
    and those offsets after it: 0 for a return offset, and otherwise one
    past the position of itself or its twin among them."""
    s, a, t, b = np.unravel_index(np.arange(4 * d * d), (2, d, 2, d))
    back = (a == b) & (s != t)
    keep = np.flatnonzero((a <= b) & ~back)
    position = np.zeros(4 * d * d, dtype=np.intp)
    position[keep] = np.arange(1, keep.size + 1)
    twin = position[np.ravel_multi_index((t, b, s, a), (2, d, 2, d))]
    return _frozen(keep), _frozen(np.where(a <= b, position, twin))


def _second_level_points(base: np.ndarray, around: np.ndarray) -> np.ndarray:
    """The points of a second stencil level: on each row the base point of
    ``base`` first, then the distinct offsets of ``_distinct_offsets``
    among ``around``, the stencil set ``(..., 2, d, 2, d, d)`` that
    ``stencil_points`` places around the row's first level."""
    d = around.shape[-1]
    keep = _distinct_offsets(d)[0]
    return np.concatenate(
        (base[..., None, :], around.reshape(around.shape[:-5] + (-1, d))[..., keep, :]), axis=-2)


# a valence-3 value on the first stencil level takes 2d d^3 8 bytes per base
# point; a base pass runs over balanced blocks of points that keep it within
# this budget (8 points in d = 6, 40 in d = 4)
_PASS_BYTES = 162 * 1024


def _block_points(dim: int) -> int:
    """The base points that one block of a stencil pass holds in dimension
    ``dim``, under ``_PASS_BYTES``: 40 in d = 4, 8 in d = 6."""
    return max(1, _PASS_BYTES // (16 * dim ** 4))


# the primitives read off the chart fields (omega from g and J): on the first
# stencil level, what a base pass takes reads the partials of these alone
_LEAVES = ("g", "omega", "phi", "log_factor")


def _first_level(differentiated) -> tuple:
    """The leaves that the first stencil level of a pass over
    ``differentiated`` differentiates: those it names, where it names any
    other primitive, the only kind read off a leaf's partial."""
    if set(differentiated) <= set(_LEAVES):
        return ()
    return tuple(a for a in differentiated if a in _LEAVES)


# the primitives whose ``partial`` each suite reads on base points; the
# structure block, which runs in every section, reads those of g and omega
_SUITE_PARTIALS = {
    "classify": {"T", "bismut_coefficients", "theta"},
    "identities": {"koszul", "T", "bismut_coefficients", "chern_coefficients", "theta",
                   "jtheta", "log_factor", "dlog_factor"},
    "dim4": {"T", "theta", "jtheta"},
    "string": {"koszul", "T", "bismut_coefficients", "theta", "flux_density",
               "phi", "dphi", "eta", "dilaton_flux_density"},
}


def _differentiated(m: HermitianManifold, suites=tuple(_SUITE_PARTIALS)) -> tuple:
    """The primitives whose ``partial`` a report of ``suites`` reads on base
    points, in pass order: the dilaton's where the chart has one, the
    conformal factor's where it has a conformal parent."""
    names = ("g", "omega", "koszul", "T", "bismut_coefficients", "chern_coefficients",
             "theta", "jtheta", "flux_density")
    if m.dilaton is not None:
        names += ("phi", "dphi", "eta", "dilaton_flux_density")
    if m.conformal_parent is not None:
        names += ("log_factor", "dlog_factor")
    read = {"g", "omega"}.union(*(_SUITE_PARTIALS[s] for s in suites))
    return tuple(a for a in names if a in read)


def _points(m: HermitianManifold, pts, step: float) -> np.ndarray:
    """``pts`` as read-only float64 points of ``m``, checked: the dimension
    is even and at least 4, the set is not empty, each point has the
    manifold's dimension and lies in the chart with the margin the deepest
    stencil needs."""
    if m.dim < 4 or m.dim % 2:
        # a complex structure needs an even dimension, and the LCK torsion
        # and the lambda reduction divide by n - 1 in complex dimension n
        raise ContractViolationError(f"{m.name}: dimension {m.dim}, expected an even "
                                     "dimension of at least 4")
    pts = _frozen(np.array(pts, dtype=float, ndmin=2))
    if pts.shape[0] == 0:
        raise PreconditionError(f"{m.name}: an evaluation needs a non-empty point set")
    if pts.shape[-1] != m.dim:
        raise ContractViolationError(f"{m.name}: points have dimension {pts.shape[-1]}, "
                                     f"expected {m.dim}")
    m.chart.require_interior(pts, STENCIL_DEPTH * step)
    return pts


def _chart_field(m: HermitianManifold, pts, name: str, valence: int,
                 check=None) -> np.ndarray:
    """The field ``name`` of ``m`` (an attribute path, ``metric`` or
    ``conformal_parent.log_factor``) at ``pts``, read as native float64: a
    float64 or integer array of ``valence`` slots per point.  A
    ``GeometryError`` or ``ValueError`` that the field raises is a numeric
    failure and passes through; any other exception, dtype or shape breaks
    the chart's contract.  A NaN or infinite value is a ``NumericError``
    naming the field and the first point affected.  A finite value is then
    passed to ``check(m, value, top)``, ``top`` its largest magnitude."""
    try:
        value = attrgetter(name)(m)(pts)
    except (GeometryError, ValueError):
        raise
    except Exception as exc:
        raise ContractViolationError(f"{m.name}: field {name!r} raised "
                                     f"{type(exc).__name__}: {exc}") from exc
    try:
        value = np.asarray(value)
    except ValueError as exc:  # a ragged nested sequence
        raise ContractViolationError(f"{m.name}: field {name!r} is not an "
                                     f"array: {exc}") from exc
    # float32 rounding over the stencil's h^2 would fail curvature rows
    if value.dtype.kind not in "iu" and value.dtype.newbyteorder("=") != np.float64:
        raise ContractViolationError(f"{m.name}: field {name!r} has dtype "
                                     f"{value.dtype}, expected float64 or an integer type")
    value = value.astype(float, copy=False)
    expected = pts.shape[:-1] + (m.dim,) * valence
    if value.shape != expected:
        raise ContractViolationError(f"{m.name}: field {name!r} has shape "
                                     f"{value.shape}, expected {expected}")
    # the largest magnitude is NaN or infinite exactly when some value is;
    # abs and max are loops every report runs, np.isfinite only on failure
    top = np.abs(value).max()
    if not math.isfinite(top):
        bad = ~np.isfinite(value).reshape(pts.shape[:-1] + (-1,)).all(axis=-1)
        raise NumericError(f"{m.name}: field {name!r} is not finite at point "
                           f"{pts[bad][0].tolist()}")
    if check is not None:
        check(m, value, top)
    return value


def _symmetric(m: HermitianManifold, g: np.ndarray, top: float):
    """Raise unless the metric field ``g`` of ``m``, whose largest
    magnitude is ``top``, is symmetric."""
    skew = np.abs(g - g.swapaxes(-1, -2)).max()
    if skew > _SYMMETRY_TOL * top:
        raise ContractViolationError(f"{m.name}: field 'metric' is not symmetric, "
                                     f"|g - g^T| = {skew:.3g}")


# each chart field by the primitive that holds it: its attribute path on the
# manifold, its valence and the check its values pass
_FIELDS = {"g": ("metric", 2, _symmetric), "J": ("complex_structure", 2, None),
           "phi": ("dilaton", 0, None), "log_factor": ("conformal_parent.log_factor", 0, None)}


def _member_field(m: HermitianManifold, section: str, pts, key: str) -> np.ndarray:
    """The chart field held under the primitive ``key`` of the member ``m``
    at ``pts``, read by ``_chart_field``, or the trivial field 0 where ``m``
    has no such field (no dilaton, or no conformal parent).  A failure
    carries ``section`` as the exception's ``manifold``."""
    name, valence, check = _FIELDS[key]
    if getattr(m, name.partition(".")[0]) is None:
        return np.zeros(pts.shape[:-1] + (m.dim,) * valence)
    try:
        return _chart_field(m, pts, name, valence, check)
    except Exception as exc:
        exc.manifold = section
        raise


def _rows(index):
    """Sorted row numbers as a slice where they are contiguous, so taking
    them gives a view; ``None``, every row, stays ``None``."""
    if index is not None and index.size and index[-1] - index[0] + 1 == index.size:
        return slice(int(index[0]), int(index[-1]) + 1)
    return index


def _take(value, rows):
    """The rows ``rows`` (``None``: all, the value itself) of ``value``."""
    return value if rows is None else value[rows]


def _span(index, lo: int, hi: int) -> tuple:
    """The rows ``[a, b)`` of an evaluation made on the rows ``index``
    (``None``: all) of its source that lie in the source's rows ``[lo, hi)``."""
    if index is None:
        return lo, hi
    a, b = np.searchsorted(index, (lo, hi))
    return int(a), int(b)


def _non_finite(name: str, point: np.ndarray) -> NumericError:
    """The failure of a NaN or infinite residual of ``name`` whose first
    affected point is ``point``."""
    return NumericError(f"non-finite residual in {name!r} at point {point.tolist()}")


def _largest(mags: np.ndarray) -> tuple:
    """The largest of the magnitudes ``mags``, a row per point, and the
    first row where it occurs; the first row with a NaN or infinite
    magnitude where it is not finite."""
    # the flat argmax stops at the first NaN and reaches any +inf, so the
    # largest magnitude is finite exactly when every one is; its row is the
    # first point whose own maximum is the largest
    worst, col = divmod(int(mags.argmax()), mags.shape[1])
    value = float(mags[worst, col])
    if not math.isfinite(value):
        worst = int(np.flatnonzero(~np.isfinite(mags))[0]) // mags.shape[1]
    return value, worst


# the values a triple's structure shares with its section, which read the
# metric alone
_METRIC_KEYS = ("g", "ginv", "frames", ("partial", "g"), "koszul", ("gamma", "levi_civita"))


def _clipped(members, a: int, b: int) -> tuple:
    """The members on the rows ``[a, b)``, their rows counted from ``a``."""
    return tuple((m, max(lo, a) - a, min(hi, b) - a, section)
                 for m, lo, hi, section in members if lo < b and hi > a)


class Evaluation:
    """Every primitive of one manifold at one point set, each computed once.

    Every value is computed on first use from the values held for the same
    point set, and then held read-only in one store.  :meth:`partial`, the
    coordinate derivative of a primitive, is the engine's one stencil site.
    Every other derivative is of a primitive too, a formula over its
    ``partial`` held under the primitive's name: :meth:`nabla` per flavor,
    :meth:`codiff`, the curvature of each flavor's held coefficients and the
    flux equation's divergence of a held density.  ``differentiated`` names
    the primitives that one central-difference pass takes together, over one
    evaluation on the stencil set around the points (both signs, every
    direction), which the pass builds and drops: every primitive whose
    ``partial`` a full report reads on base points, or, made by
    :meth:`joined`, those that the report's suites read, so a run of one
    suite pays for no partial it does not read.  A ``partial`` of any other
    primitive is a pass of its own.  The first level differentiates the
    leaves that ``differentiated`` names, of ``g``, ``omega``, ``phi`` and
    ``log_factor``, in one pass over one evaluation at the base point and
    the distinct second-level points only, ``2d^2`` of the ``(2d)^2``
    around each base point: every other point reads its twin's values, and
    each return point ``(x + s h e_a) - s h e_a`` the base point's.  A pass
    runs over blocks of the base points under a fixed byte budget for its
    first level, so its working set does not grow with the points; the
    base-point values held do, 2.5 MiB per 16 points in d = 6.  In a base
    pass each member's chart field is called once per block, at the
    block's base points (unless they are held), its first level and the
    distinct second-level points, ``1 + 2d + 2d^2`` per base point, and
    each level reads its own rows of that call; a level with no second
    level (a triple's structure) calls it at its base points and first
    level.  Any other read of a chart field calls it at the points read.

    :meth:`joined` makes one evaluation of several manifolds of one
    dimension over their concatenated points, and a view of it per
    manifold; of one manifold, it makes the evaluation alone, as the
    constructor does, and no view.  Its ``members`` are ``(m, lo, hi,
    section)``, the manifold on the rows ``[lo, hi)``, whose failures name
    ``section``; each chart field is called per member on its rows, once
    per pass block, so a pass block may split a member, and a member
    without a dilaton or a conformal parent reads the trivial field 0
    there, which its section never reads.  A view is the evaluation of one member, only its
    rows of the joined one, which computes every value once for all
    members: it reads each value, ``partial``, row and held residual off the
    joined evaluation, where each row generator runs once and each
    difference and held primitive is measured once, one argmax per member.
    Every held value of a point is bitwise that of the point alone, so a
    view's values, rows and residuals are those of its member's own
    evaluation.

    A variant is another evaluation on rows of this one, which
    :meth:`joined` makes, before any value is read, for the suites it is
    given (the constructor, for every suite): one evaluation of the
    conformal parents of the members that have one where ``identities`` is
    read, and each member's two other structures of its hypercomplex
    triple on this metric where ``classify`` is, which
    ``classify.check_hkt`` alone reads.
    Making one reads no chart field.  An evaluation made from another holds
    it as its source, with the keys it shares: a view every key, the
    parents ``J``, a structure the metric-only values, a stencil
    counterpart its variant's.  One rule reads a shared key: it is the
    evaluation's rows of the source's value, which the source computes on
    first use, so no reader keeps a read order.  Every variant joins this
    evaluation's first pass, block by block in the same central-difference
    call, and its first ``partial`` of a primitive it differentiates runs
    that pass: on each stencil level its counterpart is made from this
    pass's evaluation there and shares the same keys, so each chart field
    is evaluated once per stencil point.  A variant holds its source by a
    weak proxy, since the source holds the variant, so the two form no
    cycle, and a stencil level is dropped with its pass, so only base-point
    values outlive a pass.  A view holds the joined evaluation and no
    variant, since its variants are the joined evaluation's, and the joined
    evaluation holds no view.  The conformal row, the parents' only reader,
    drops them.

    The manifold's dimension must be even and at least 4.  The point set
    must not be empty and must have the manifold's dimension, and the chart
    domain is checked once, on the base points, with the margin the deepest
    stencil needs; each chart field's shape is checked on every call.
    :meth:`residual` is the engine's one residual measure.
    """

    def __init__(self, m: HermitianManifold, pts, step: float = DEFAULT_STEP):
        self._join(((m, pts),), step, tuple(_SUITE_PARTIALS))

    def _start(self, members, pts, step, depth, differentiated, index=None):
        # the state before any value is held
        self.members, self.m = members, members[0][0] if len(members) == 1 else None
        self.pts, self.step = _frozen(pts), step
        self._values = {}
        self._depth = depth  # stencil levels below the base points
        self.differentiated = tuple(differentiated)
        # the evaluation this one was made from, and the keys whose values
        # here are its rows of that one's: a view names none and shares all
        self._source, self._shared = None, ()
        self._member = 0  # a view's member there, by its index in the members
        # its rows of the evaluation it was made from (None: all), and those
        # rows as a slice where they are contiguous
        self._index, self._rows = index, _rows(index)
        self._parents = None  # the conformal parents' variant, until the conformal row
        self._structures = {}  # each member's triple structures, by its index
        self._pending = []  # the variants that join the first pass; None after it
        # on a stencil level, (up, a, b, filled): the evaluation one level up
        # whose rows [a, b) it lies around, and the base values of up that
        # its pass fills, by key
        self._upper = None
        self._stash = {}  # on a first level, each field call's parts until read

    @classmethod
    def joined(cls, sections, step: float = DEFAULT_STEP,
               suites=tuple(_SUITE_PARTIALS)) -> list:
        """The evaluation of each ``(m, pts)`` of ``sections``, manifolds of
        one dimension, for a report of ``suites``: a view of one evaluation
        over their concatenated points, which differentiates in one pass
        every primitive whose ``partial`` any section's suites read, for all
        its members.  A view reads every value off the joined evaluation,
        which it holds; a section alone is the joined evaluation itself, so
        ``joined([(m, pts)])`` is ``[Evaluation(m, pts, step)]`` when
        ``suites`` is every suite.  It holds the variants that ``suites``
        read, the parents where ``identities`` is one and the triples'
        structures where ``classify`` is, all joining its one pass.  A
        failure in one manifold's points or fields carries its name as the
        exception's ``manifold``."""
        group = cls.__new__(cls)
        group._join(sections, step, suites)
        return [group._view(k) for k in range(len(group.members))]

    def _join(self, sections, step, suites):
        # the state of one evaluation over the points of every (m, pts)
        members, parts, lo = [], [], 0
        if not sections:
            raise PreconditionError("an evaluation needs a non-empty point set")
        for m, pts in sections:
            try:
                parts.append(_points(m, pts, step))
            except Exception as exc:
                exc.manifold = m.name
                raise
            members.append((m, lo, lo + len(parts[-1]), m.name))
            lo += len(parts[-1])
        if len({m.dim for m, *_ in members}) != 1:
            raise ContractViolationError("joined sections must share one dimension")
        self._start(tuple(members), np.concatenate(parts), step, 0, dict.fromkeys(
            a for m, *_ in members for a in _differentiated(m, suites)))
        # the variants the suites read: the parents' u, Lee form and
        # Levi-Civita coefficients read these partials, and a structure's
        # torsion and Lee form, all the HKT checks read of it, omega's alone
        parents = [(m.conformal_parent.parent, lo, hi, section)
                   for m, lo, hi, section in members if m.conformal_parent is not None]
        if "identities" in suites and parents:
            self._parents = self._declare(parents, ("g", "omega", "chern_coefficients"), ("J",))
        if "classify" in suites:
            self._structures = {k: tuple(self._declare(
                [(replace(m, complex_structure=j_fn, hypercomplex=None), lo, hi, section)],
                ("omega",), _METRIC_KEYS) for j_fn in m.hypercomplex or ())
                for k, (m, lo, hi, section) in enumerate(members)}

    def _once(self, key, compute):
        # compute(ev) gives the value on the evaluation ev; a shared key is
        # its rows of its source's, which the source computes on first use
        if key not in self._values:
            if self._shares(key):
                self._values[key] = _take(self._source._once(key, compute), self._rows)
            else:
                self._values[key] = _frozen(compute(self))
        return self._values[key]

    def _derive(self, members, pts, depth, differentiated=(), index=None,
                shared=()) -> "Evaluation":
        # on the rows ``index`` of this one (None: all); a variant, which
        # shares the keys ``shared``, holds this one by a weak proxy, since
        # this one holds it; no domain check: the base evaluation made it
        # for every stencil depth
        ev = Evaluation.__new__(Evaluation)
        ev._start(members, pts, self.step, depth, differentiated, index)
        if shared:
            ev._source, ev._shared = weakref.proxy(self), shared
        return ev

    def _shares(self, key) -> bool:
        # whether the value of key here is its rows of the source's: a view
        # shares every key, a variant those it names
        return self._source is not None and (not self._shared or key in self._shared)

    @property
    def _holder(self) -> "Evaluation":
        # the evaluation that holds a view's values, its source; any other
        # holds its own
        return self._source if self._source is not None and not self._shared else self

    def _view(self, k: int) -> "Evaluation":
        """The view of the ``k``-th member here: it reads every value off
        this evaluation and joins no pass.  A member on every row is this
        evaluation itself."""
        m, a, b, section = self.members[k]
        if b - a == self.pts.shape[0]:
            return self
        ev = self._derive(((m, 0, b - a, section),), self.pts[a:b], self._depth,
                          index=np.arange(a, b))
        ev._source, ev._pending, ev._member = self, None, k
        return ev

    def _declare(self, members, differentiated, shared: tuple) -> "Evaluation":
        """The variant of ``members``, ``(m, lo, hi, section)`` on the rows
        ``[lo, hi)`` here, which differentiates ``differentiated`` in this
        evaluation's first pass and shares its values ``shared``, here and
        at every stencil level of the pass."""
        index = np.concatenate([np.arange(lo, hi) for _, lo, hi, _ in members])
        index = None if index.size == self.pts.shape[0] else index
        own, at = [], 0
        for m, lo, hi, section in members:
            own.append((m, at, at + hi - lo, section))
            at += hi - lo
        ev = self._derive(tuple(own), _take(self.pts, _rows(index)), 0, differentiated, index,
                          shared)
        self._pending.append(ev)
        return ev

    def _counterpart(self, v, a: int, b: int, lo: int, filled: dict) -> "Evaluation":
        """The pass's evaluation of the variant ``v``, made from the pass's
        own, one stencil level down on this evaluation, which holds the
        pass's rows from ``lo``: the rows ``[a, b)`` of ``v``, sharing the
        values here under its shared keys, whose field calls fill the base
        values ``filled`` of ``v``.  It joins this evaluation's pass where
        its own first level differentiates any."""
        index = None if v._index is None else v._index[a:b] - lo
        ev = self._derive(_clipped(v.members, a, b), _take(self.pts, _rows(index)), self._depth,
                          _first_level(v.differentiated) if self._depth == 1 else (),
                          index, v._shared)
        ev._upper = (v, a, b, filled)
        if ev.differentiated:
            self._pending.append(ev)
        return ev

    def _other_structures(self) -> tuple:
        """The other two structures of this member's hypercomplex triple,
        none where it has no triple, for ``check_hkt``: evaluations of the
        same metric, points and step that join this evaluation's first
        pass.  Each reads its metric-only values, ``g`` to the Levi-Civita
        coefficients, as its rows of those here, at every stencil level
        too, in whatever order they are read.  This evaluation holds them,
        or, for a view, the joined evaluation, on the view's rows; they hold
        it by a weak proxy, so they are read only while it is held.  Only an
        evaluation made for ``classify`` holds them."""
        holder = self._holder
        if self._member not in holder._structures:
            raise PreconditionError(f"{self.m.name}: an evaluation made without 'classify' "
                                    "holds no structures")
        return holder._structures[self._member]

    def _blocks(self) -> list:
        """The bounds of the blocks a pass here runs over: balanced blocks
        of at most ``_block_points`` base points, or, where the members fill
        as few blocks whole, blocks that end where members do, so no
        member's fields are called once per block; a deeper level is one
        block of the base block."""
        n = self.pts.shape[0]
        size = _block_points(self.pts.shape[-1]) if self._depth == 0 else n
        count = -(-n // size)
        aligned = [0]
        for _, lo, hi, _ in self.members:
            if hi - aligned[-1] > size:
                aligned.append(lo)
        aligned.append(n)
        if len(aligned) == count + 1 and all(0 < b - a <= size
                                             for a, b in zip(aligned, aligned[1:])):
            return aligned
        return [n * k // count for k in range(count + 1)]

    def partial(self, attr: str) -> np.ndarray:
        """``D_d`` of the primitive ``attr`` here, derivative axis first,
        held read-only.  The first ``partial`` of any primitive in
        ``differentiated`` takes all of them in one central-difference pass
        over one evaluation on the stencil set around the points, which the
        pass drops when it returns; any other primitive is a pass of its
        own.  The first pass takes the variants too, each over its own
        evaluation on its rows of the same stencil set, made from this
        pass's evaluation there.  On the first stencil level those
        evaluations are built at the points of ``_second_level_points``,
        the base point and the distinct second-level points: every other
        point reads its twin, and every return point the base point.  A
        base pass runs once per block of points under ``_PASS_BYTES`` into
        outputs for all points, and calls each chart field that its levels
        read once per member per block (:meth:`_merge`), which fills the
        base values the pass does not find held; only the held base-point
        values grow with the points.  A view, or a variant for a key it
        shares, reads its rows of its source's ``partial``; a variant's
        first ``partial`` of a primitive it differentiates runs its
        source's pass, which fills it."""
        key = ("partial", attr)
        if key in self._values:
            return self._values[key]
        if self._shares(key):
            self._values[key] = _take(self._source.partial(attr), self._rows)
            return self._values[key]
        if self._source is not None and attr in self.differentiated:
            self._source.partial(self._source.differentiated[0])
            return self._values[key]
        # the variants first and this evaluation last, each with what the
        # pass takes of it
        members = [(self, (attr,))]
        if attr in self.differentiated:
            members = [(ev, ev.differentiated) for ev in self._pending]
            members.append((self, self.differentiated))
            self._pending = None

        filled = [{} for _ in members]  # each one's base values its levels' field calls give

        def values(p):  # at the stencil set around the block, yielded in turn
            if self._depth == 0:
                here = self._derive(_clipped(self.members, lo, hi), p, 1,
                                    _first_level(self.differentiated))
            else:
                # p is (..., 2, d, 2, d, d): evaluate the base points and
                # the distinct offsets, then lay every offset out from its
                # own value, its twin's or the base point's; a value has its
                # own rows of the leading axis
                up, a, b, _ = self._upper
                lead, index = p.shape[:-5], _distinct_offsets(p.shape[-1])[1]
                here = self._derive(self.members, _second_level_points(up.pts[a:b], p), 2)

                def laid_out(v):
                    return v.take(index, axis=len(lead)).reshape(
                        v.shape[:1] + p.shape[1:-1] + v.shape[len(lead) + 1:])
            here._upper = (self, lo, hi, filled[-1])
            level = [here._counterpart(ev, a, b, lo, base) if a < b else None
                     for (ev, _), (a, b), base in zip(members[:-1], spans, filled)] + [here]
            del here
            # each evaluation is dropped once its values are read, and each
            # value once it is differentiated, so the variants' values are
            # gone before this evaluation's grow
            for k, (_, attrs) in enumerate(members):
                ev, level[k] = level[k], None
                if ev is None:  # none of its rows lie in this block
                    continue
                out = [getattr(ev, a) for a in attrs][::-1]
                del ev
                while out:
                    yield out.pop() if self._depth == 0 else laid_out(out.pop())
        # a block's outputs are held as they are where they hold all of an
        # evaluation's rows; a deeper level is one block of the base block
        outputs = [[None] * len(attrs) for _, attrs in members]
        bounds = self._blocks()
        for lo, hi in zip(bounds, bounds[1:]):
            # a variant's rows of the block, by its index into this
            # evaluation's rows; this evaluation's own are the block, whatever
            # its index into its own source
            spans = [_span(ev._index, lo, hi) for ev, _ in members[:-1]] + [(lo, hi)]
            block = iter(fd_partial(values, self.pts[lo:hi], self.step))
            for (ev, _), (a, b), out in zip(members, spans, outputs):
                for k in range(len(out) if a < b else 0):
                    df = next(block)
                    if b - a == ev.pts.shape[0]:
                        out[k] = df
                        continue
                    if out[k] is None:
                        out[k] = np.empty((ev.pts.shape[0],) + df.shape[1:])
                    out[k][a:b] = df
            del block, df  # so the next block's pass does not stack on this one's
        for (ev, attrs), out, base in zip(members, outputs, filled):
            for a, df in zip(attrs, out):
                ev._values[("partial", a)] = _frozen(df)
            for field, (value, rows) in base.items():
                if rows == ev.pts.shape[0]:
                    ev._values[field] = _frozen(value)
        return self._values[key]

    # -- chart data ------------------------------------------------------------

    def _field(self, key):
        """The chart field held under the primitive ``key`` (``g``, ``J``,
        ``phi`` or ``log_factor``) of each member at its rows, by
        ``_member_field``, the members' values in row order.  A stencil
        level of a base pass reads its rows of the one call per member that
        :meth:`_merge` makes on its first level; any other evaluation calls
        each member's field on its rows."""
        if self._depth:
            first = self if self._depth == 1 else self._upper[0]
            if key not in first._stash:
                first._merge(key)
            value = first._stash[key].pop(self._depth, None)
            if value is not None:
                return value
        parts = [_member_field(m, section, self.pts[lo:hi], key)
                 for m, lo, hi, section in self.members]
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    def _merge(self, key):
        """Call the chart field held under ``key`` once per member on the
        rows of this first stencil level of a base pass block: at the
        distinct second-level points around them where this level has a
        second (it differentiates), at its own points, and at the base
        points where the base evaluation neither holds the field nor
        shares it (a conformal parent's pass of its own shares its
        section's ``J``), in that order, so a failure names the first non-finite point
        of the deepest level that has one.  Each level's part is copied
        out: the base rows into the values that the pass fills, and this
        level's and the second level's, laid out as
        ``_second_level_points`` places them, into ``_stash`` until the
        level reads it."""
        up, a, b, filled = self._upper
        d = self.pts.shape[-1]
        shape = (d,) * _FIELDS[key][1]
        held = key in up._values or up._shares(key)
        parts = {1: np.empty(self.pts.shape[:-1] + shape)}
        # the base points' batch axes, before the second level's points axis
        lead = (slice(None),) * (self.pts.ndim - 3)
        if self.differentiated:
            parts[2] = np.empty(self.pts.shape[:-3] + (1 + _distinct_offsets(d)[0].size,) + shape)
        if not held:
            if key not in filled:
                filled[key] = [np.empty(up.pts.shape[:-1] + shape), 0]
            base = filled[key]
            base[1] += b - a
        for m, lo, hi, section in self.members:
            # each level's points on the member's rows, and where its values go
            levels = [(self.pts[lo:hi], parts[1][lo:hi])]
            if 2 in parts:  # the second level's points past its base point
                around = _second_level_points(up.pts[a + lo:a + hi],
                                              stencil_points(self.pts[lo:hi], self.step))
                levels.insert(0, (around[..., 1:, :], parts[2][lo:hi][lead + (slice(1, None),)]))
            if not held:
                levels.append((up.pts[a + lo:a + hi], base[0][a + lo:a + hi]))
            flat = np.concatenate([p.reshape(-1, d) for p, _ in levels])
            value = _member_field(m, section, flat, key)
            at = 0
            for p, out in levels:
                size = math.prod(p.shape[:-1])
                out[...] = value[at:at + size].reshape(out.shape)
                at += size
        if 2 in parts:
            parts[2][lead + (0,)] = (getattr(up, key) if held else base[0])[a:b]
        self._stash[key] = parts

    def _by_member(self, fn, value):
        """``fn(value)``, a pointwise function of a held value that may
        reject a point.  Where it fails on several members, the failure is
        the one ``fn`` gives on the rows of the first member they fail on,
        carrying its section as the exception's ``manifold``."""
        try:
            return fn(value)
        except (GeometryError, ValueError):
            for _, lo, hi, section in self.members:
                try:
                    fn(value[lo:hi])
                except (GeometryError, ValueError) as exc:
                    exc.manifold = section
                    raise
            raise

    @_primitive
    def g(self):
        return self._field("g")

    @_primitive
    def ginv(self):
        return self._by_member(metric_inverse, self.g)

    @_primitive
    def J(self):
        return self._field("J")

    @_primitive
    def jg(self):
        return j_trace_matrix(self.J, self.ginv)

    @_primitive
    def phi(self):
        """The dilaton."""
        return self._field("phi")

    @_primitive
    def log_factor(self):
        """The conformal factor f, metric = exp(2 f) * the parent's."""
        return self._field("log_factor")

    @_primitive
    def frames(self):
        return self._by_member(gram_schmidt_frames, self.g)

    @_primitive
    def omega(self):
        return kahler_form_values(self.g, self.J)

    @_primitive
    def koszul(self):
        """All-lower Levi-Civita coefficients, which every flavor builds on."""
        return koszul_values(self.partial("g"))

    @_primitive
    def bismut_coefficients(self):
        """All-lower Bismut coefficients."""
        return lower_coefficients(self, "bismut")

    @_primitive
    def chern_coefficients(self):
        """All-lower Chern coefficients."""
        return lower_coefficients(self, "chern")

    @_primitive
    def dOm(self):
        """Exterior derivative of the Kaehler form."""
        return exterior_derivative_of(self.partial("omega"), 2)

    # -- torsion and the Lee form ------------------------------------------------

    @_primitive
    def T(self):
        return torsion_bismut_values(self)

    @_primitive
    def C(self):
        return torsion_chern_values(self)

    @_primitive
    def dT(self):
        return exterior_derivative_of(self.partial("T"), 3)

    @_primitive
    def lam(self):
        """lambda_omega(X,Y) = sum_i dT(X,Y,e_i,J e_i)."""
        return lambda_omega_values(self.dT, self.jg)

    @_primitive
    def h(self):
        """The half J-trace of lambda_omega: 2 h = jtr(lam)."""
        return 0.5 * np.einsum("...mn,...mn->...", self.lam, self.jg)

    @_primitive
    def theta(self):
        """The Lee form, by the codifferential route."""
        return lee_form_values(self)

    @_primitive
    def jtheta(self):
        return -np.einsum("...m,...mi->...i", self.theta, self.J)

    @_primitive
    def lck_defect(self):
        """T - J theta ^ omega / (n-1): how far T is from the LCK shape, the
        torsion of the conformally Kaehler class."""
        return self.T - wedge(self.jtheta, self.omega, 2) / (self.pts.shape[-1] // 2 - 1)

    @_primitive
    def dtheta(self):
        return exterior_derivative_of(self.partial("theta"), 1)

    @_primitive
    def d_jtheta(self):
        return exterior_derivative_of(self.partial("jtheta"), 1)

    @_primitive
    def dphi(self):
        """The dilaton's differential."""
        return self.partial("phi")

    @_primitive
    def eta(self):
        """eta = theta - 2 d phi, Bismut-parallel on the string backgrounds."""
        return self.theta - 2.0 * self.dphi

    @_primitive
    def dlog_factor(self):
        """The conformal factor's differential."""
        return self.partial("log_factor")

    @_primitive
    def tt4(self):
        """TT4[x,y,z,u] = g(T(x,y), T(z,u))."""
        T = self.T
        flat = T.reshape(T.shape[:-3] + (-1, T.shape[-1]))  # T[(xy), a]
        tt = slotwise(T, self.ginv, 3, (2,)).reshape(flat.shape) @ flat.swapaxes(-1, -2)
        return tt.reshape(T.shape[:-3] + (T.shape[-1],) * 4)

    @_primitive
    def tt2(self):
        return _tt2(self.T, self.ginv)

    # -- the flux equation's densities -----------------------------------------

    @_primitive
    def sqrt_det_g(self):
        # a negative determinant gives NaN quietly here: the frames, which
        # measure every row that reads it, reject that metric by name
        with np.errstate(invalid="ignore"):
            return np.sqrt(np.linalg.det(self.g))

    @_primitive
    def raised_T(self):
        """T^{iab}, every slot raised."""
        return slotwise(self.T, self.ginv, 3)

    @_primitive
    def flux_density(self):
        """sqrt(det g) T^{iab}."""
        return self.sqrt_det_g[..., None, None, None] * self.raised_T

    @_primitive
    def dilaton_flux_density(self):
        """sqrt(det g) exp(-2 phi) T^{iab}."""
        weight = self.sqrt_det_g * np.exp(-2.0 * self.phi)
        return weight[..., None, None, None] * self.raised_T

    # -- connections and derivatives -------------------------------------------------

    def gamma(self, flavor: str) -> np.ndarray:
        """Raised coefficients Gamma[k,i,j] = g^{kl} omega[l,i,j] of a flavor."""
        def compute(ev):
            om = getattr(ev, COEFFICIENTS[flavor])
            return (ev.ginv @ first_slot_matrix(om)).reshape(om.shape)
        return self._once(("gamma", flavor), compute)

    def nabla(self, attr: str, flavor: str) -> np.ndarray:
        """The covariant derivative of the primitive ``attr`` for a flavor, a
        formula over its :meth:`partial`, held; derivative axis first."""
        return self._once(("nabla", attr, flavor), lambda ev: covariant_derivative_of(
            ev.partial(attr), getattr(ev, attr), ev.gamma(flavor), ev._valence(attr)))

    def codiff(self, attr: str) -> np.ndarray:
        """The codifferential of the form primitive ``attr``, held."""
        return self._once(("codiff", attr), lambda ev: codifferential_of(
            ev.nabla(attr, "levi_civita"), ev.ginv, ev._valence(attr)))

    def _valence(self, attr: str) -> int:
        return getattr(self, attr).ndim - self.pts.ndim + 1

    # -- curvature and its traces ------------------------------------------------------

    def riemann(self, flavor: str) -> np.ndarray:
        return self._once(("riemann", flavor), lambda ev: riemann_values(ev, flavor))

    @_primitive
    def ric(self):
        return ricci_from_curvature(self.riemann("bismut"), self.ginv)

    @_primitive
    def ric_lc(self):
        return ricci_from_curvature(self.riemann("levi_civita"), self.ginv)

    @_primitive
    def scal(self):
        return np.einsum("...mn,...mn->...", self.ric, self.ginv)

    @_primitive
    def rho(self):
        return rho_from_curvature(self.riemann("bismut"), self.jg)

    @_primitive
    def rho_chern(self):
        return rho_from_curvature(self.riemann("chern"), self.jg)

    @_primitive
    def kappa(self):
        """Half J-trace of the Chern curvature on its first index pair."""
        return 0.5 * np.einsum("...abxy,...ba->...xy", self.riemann("chern"), self.jg)

    @_primitive
    def b(self):
        return np.einsum("...mn,...mn->...", self.rho, self.jg)

    @_primitive
    def u(self):
        return 0.5 * np.einsum("...mn,...mn->...", self.kappa, self.jg)

    @_primitive
    def mean_curvature_trace(self):
        """b + |C|^2 - h/2: 2u by the trace of the mean-curvature formula."""
        return self.b + self.norm_sq("C") - 0.5 * self.h

    @_primitive
    def j_commutator(self):
        """R(X,Y,JZ,JW) - R(X,Y,Z,W) of the Bismut curvature."""
        r = self.riemann("bismut")
        return slotwise(r, self.J, 4, (2, 3)) - r

    @_primitive
    def mean_curvature_form(self):
        """rho^{1,1}(JX,Y) + <i_X C, i_Y C> - lambda(JX,Y)/4, the value of
        kappa(JX,Y) by the mean-curvature formula."""
        rho11 = proj_one_one(self.rho, self.J)
        return (np.einsum("...my,...mx->...xy", rho11, self.J) + _tt2(self.C, self.ginv)
                - 0.25 * np.einsum("...my,...mx->...xy", self.lam, self.J))

    @_primitive
    def quad_form_eig(self):
        """Each point's smallest eigenvalue of the symmetrized frame
        components of ``mean_curvature_form``, the form of the vanishing
        statements."""
        quad = to_frame(self.mean_curvature_form, self.frames, 2)
        return np.linalg.eigvalsh(0.5 * (quad + quad.swapaxes(-1, -2)))[..., 0]

    # -- the string sector's dilaton-independent differences --------------------

    @_primitive
    def coclosure_defect(self):
        """codiff(T) - (d theta - i_{theta#} T), zero where the Bismut Ricci
        form vanishes."""
        sharp = np.einsum("...ij,...j->...i", self.ginv, self.theta)
        return self.codiff("T") - (self.dtheta - interior_product(sharp, self.T, 3))

    @_primitive
    def lee_killing(self):
        """nabla theta + its transpose: the Lie derivative of g along the dual
        of the Lee form."""
        nth = self.nabla("theta", "levi_civita")
        return nth + permuted(nth, "xy->yx")

    # -- the residual measure --------------------------------------------------

    def residual(self, name: str, diff):
        """Largest orthonormal-frame component of ``diff`` over the points,
        and the point where it occurs, on an evaluation of one manifold.
        ``diff`` holds one covariant tensor per point, shape ``(N,) +
        (dim,) * valence``, or names a primitive, whose residual is measured
        once and held, by a view on the evaluation it views.  A NaN or
        infinite residual raises ``NumericError`` naming ``name`` (the
        primitive's name for a held one) and the first point affected."""
        value, row = self._measure(name, diff)
        return value, tuple(self.pts[row].tolist())

    def _measure(self, name: str, diff) -> tuple:
        # the value of residual(name, diff) and the row of its point
        [(value, row)] = self._measures(name, diff)
        if not math.isfinite(value):
            raise _non_finite(diff if isinstance(diff, str) else name, self.pts[row])
        return value, row

    def _measures(self, name: str, diff) -> tuple:
        """The ``(value, row)`` of ``diff``, as :meth:`residual` measures
        it, on each member's rows, unchecked: the largest frame component and
        the first of the member's rows where it occurs, or a NaN or infinite
        value and the first row that has one.  A primitive's, named by
        ``diff``, is held; a view's is its member's of the evaluation it
        views.

        The frame components come from one ``to_frame`` over all the points,
        one product per slot.  Their magnitudes, viewed as one row of
        ``dim^valence`` per point, take one ``argmax`` per member over the
        flat view of its rows: its first largest entry lies in the first
        point whose own largest entry is the largest, so no per-point maxima
        are formed."""
        if isinstance(diff, str):
            key = ("residual", diff)
            if key not in self._values:
                if self._holder is not self:
                    k = self._member
                    self._values[key] = self._source._measures(diff, diff)[k:k + 1]
                else:
                    self._values[key] = self._measures(diff, getattr(self, diff))
            return self._values[key]
        diff = np.asarray(diff)
        valence = diff.ndim - 1
        shape = self.pts.shape  # (N, dim)
        if diff.shape != shape[:1] + shape[1:] * valence:
            raise ContractViolationError(
                f"{name!r}: shape {diff.shape} is not a tensor per point at "
                f"{shape[0]} points in dimension {shape[1]}")
        if valence:
            diff = to_frame(diff, self.frames, valence)
        mags = np.abs(diff.reshape(shape[0], -1))  # a row per point
        if len(self.members) == 1:
            return (_largest(mags),)
        return tuple(_largest(mags[lo:hi]) for _, lo, hi, _ in self.members)

    def norm_sq(self, attr: str) -> np.ndarray:
        """The squared norm of the primitive ``attr``, held."""
        def compute(ev):
            t = getattr(ev, attr)
            return norm_sq_values(t, ev.ginv, t.ndim - 1)
        return self._once(("norm_sq", attr), compute)

    def magnitude(self, attr: str) -> float:
        """The held residual of the primitive ``attr`` itself (its largest
        frame component), without its point."""
        return self._measure(attr, attr)[0]


def _measured(ev: Evaluation, rows) -> tuple:
    """Each ``(name, diff, order, status)`` row of ``rows`` as ``(name,
    parts, order, status)``, ``parts`` the ``(name, measures)`` of each
    difference that ``diff`` holds, by :meth:`Evaluation._measures` on
    ``ev``, under the name a non-finite one is reported by: the row's, or
    the primitive's that it names.  A row that yields the previous row's
    difference again reuses its measures; no difference is held."""
    out, last = [], None
    for name, diff, order, status in rows:
        if diff is not last:
            last = diff
            if type(diff) is tuple:
                parts = tuple([(d if isinstance(d, str) else name, ev._measures(name, d))
                               for d in diff])
            else:
                parts = ((diff if isinstance(diff, str) else name, ev._measures(name, diff)),)
        out.append((name, parts, order, status))
    return tuple(out)


def measure_rows(ev: Evaluation, rows, tol=TOL_CURVATURE, tol_first=TOL_FIRST_ORDER,
                 statuses=None) -> list:
    """The :class:`Row` of each ``(name, diff, order, status)`` row that
    the generator function ``rows`` yields, on ``ev``, with the tolerance
    ``tol`` at order 2 and ``min(tol_first, tol)`` at order 1.  ``diff`` is
    the difference ``lhs - rhs``, the name of a primitive (its held
    residual) or a tuple of these (the largest residual).  ``rows`` runs
    once, on the evaluation that holds the values of ``ev``: ``ev`` itself,
    or the joined evaluation of a view.  That evaluation holds its rows
    under the function, each with every member's measure, so each
    difference takes one ``to_frame`` over all its points and one
    ``argmax`` per member, and ``ev`` reads its member's.  A row's status
    is the generator's, the same for every member, and ``statuses`` maps
    one that rests on a section's hypotheses to this section's.  A NaN or
    infinite residual raises ``NumericError`` when its section reads its
    row, as :meth:`Evaluation.residual` does."""
    holder = ev._holder
    key = ("rows", rows)
    if key not in holder._values:
        holder._values[key] = _measured(holder, rows(holder))
    held, k = holder._values[key], ev._member
    pts, first, out = ev.pts, min(tol_first, tol), []
    for name, parts, order, status in held:
        for part, measures in parts:
            value, row = measures[k]
            if not math.isfinite(value):
                raise _non_finite(part, pts[row])
        if len(parts) == 1:
            point = tuple(pts[row].tolist())
        else:  # the largest, ties to the larger point
            value, point = max((measures[k][0], tuple(pts[measures[k][1]].tolist()))
                               for _, measures in parts)
        if statuses is not None:
            status = statuses.get(status, status)
        out.append(Row(name, value, first if order == 1 else tol, status, point))
    return out


# ---------------------------------------------------------------------------
# the identity rows
# ---------------------------------------------------------------------------

def _identity_rows(ev: Evaluation):
    """The curvature identities as ``(name, lhs - rhs, order, status)`` rows,
    in report order: every one of order 2 and asserted."""
    nt = ev.nabla("T", "bismut")
    tt = ev.tt4

    # Levi-Civita vs Bismut derivative of T
    rhs = nt + 0.5 * cyclic3_of4(tt)
    yield "torsion_nabla_exchange", ev.nabla("T", "levi_civita") - rhs, 2, ASSERTED

    # dT from the Bismut derivative
    rhs = cyclic3_of4(nt + 2.0 * tt) - permuted(nt, "uxyz->xyzu")
    yield "torsion_ext_derivative", ev.dT - rhs, 2, ASSERTED

    # first Bianchi identity with torsion
    lhs = cyclic3_of4(ev.riemann("bismut"))
    rhs = ev.dT + permuted(nt, "uxyz->xyzu") - cyclic3_of4(tt)
    yield "bianchi_with_torsion", lhs - rhs, 2, ASSERTED

    # Levi-Civita curvature from the Bismut curvature
    rhs = (ev.riemann("bismut") - 0.5 * nt + 0.5 * permuted(nt, "yxzu->xyzu")
           - 0.5 * tt - 0.25 * permuted(tt, "yzxu->xyzu")
           - 0.25 * permuted(tt, "zxyu->xyzu"))
    yield "curvature_comparison", ev.riemann("levi_civita") - rhs, 2, ASSERTED

    # Riemannian Ricci from the Bismut one
    rhs = ev.ric + 0.5 * ev.codiff("T") + 0.25 * ev.tt2
    yield "ricci_comparison", ev.ric_lc - rhs, 2, ASSERTED

    # rho against the mixed Ricci trace
    rhs = (np.einsum("...xm,...my->...xy", ev.ric, ev.J)
           + np.einsum("...xm,...my->...xy", ev.nabla("theta", "bismut"), ev.J) + 0.25 * ev.lam)
    yield "ricci_form_mixed_trace", ev.rho - rhs, 2, ASSERTED

    # scalar relation for b
    rhs = ev.scal - 3.0 * ev.codiff("theta") - 2.0 * ev.norm_sq("theta") + ev.norm_sq("T") / 3.0
    yield "b_scalar_relation", ev.b - rhs, 2, ASSERTED

    J = ev.J
    ric = ev.ric
    nth = ev.nabla("theta", "bismut")
    lhs = ric - permuted(ric, "xy->yx")
    yield "ricci_skew_coclosure", lhs + ev.codiff("T"), 2, ASSERTED

    lhs = slotwise(ric, J, 2) - permuted(ric, "xy->yx")
    rhs = -slotwise(nth, J, 2) + permuted(nth, "xy->yx")
    yield "ricci_j_conjugation", lhs - rhs, 2, ASSERTED

    lhs = slotwise(ev.rho, J, 2) - ev.rho
    dnth = nth - permuted(nth, "xy->yx")
    rhs = (np.einsum("...my,...mx->...xy", ev.codiff("T"), J)
           - np.einsum("...my,...mx->...xy", dnth, J))
    yield "ricci_form_type_defect", lhs - rhs, 2, ASSERTED

    # mean curvature of the holomorphic tangent bundle
    lhs = np.einsum("...my,...mx->...xy", ev.kappa, ev.J)
    yield "mean_curvature_formula", lhs - ev.mean_curvature_form, 2, ASSERTED

    # Chern Ricci form from the Bismut one
    yield "chern_vs_bismut_ricci", ev.rho_chern - (ev.rho + ev.d_jtheta), 2, ASSERTED

    # J-trace of lambda (pins the norm convention)
    lhs = -2.0 * ev.h  # = sum_i lambda(e_i, J e_i)
    rhs = 8.0 * ev.norm_sq("theta") + 8.0 * ev.codiff("theta") - 4.0 / 3.0 * ev.norm_sq("T")
    yield "lambda_trace_calibration", lhs - rhs, 2, ASSERTED

    # trace of the mean-curvature formula
    yield "u_trace_formula", 2.0 * ev.u - ev.mean_curvature_trace, 2, ASSERTED


def run_identity_suite(ev: Evaluation, tol=TOL_CURVATURE) -> list:
    """The rows of every curvature identity on ``ev``, in report order, under
    the identity tolerance ``tol`` (``--tol-identity``)."""
    return measure_rows(ev, _identity_rows, tol)


def _structure_rows(ev: Evaluation):
    """The structure block's row: the Lee form's routes agree (order 1)."""
    theta, via_T, via_C = lee_form_routes(ev)
    yield "lee_form_routes", (theta - via_T, theta - via_C), 1, ASSERTED


def verify_structure(ev: Evaluation, tol=TOL_CURVATURE) -> list:
    """The structure block's row on ``ev``, under ``tol`` as in
    :func:`run_identity_suite`."""
    return measure_rows(ev, _structure_rows, tol)


# ---------------------------------------------------------------------------
# dimension-four chain and the conformally Kaehler reduction
# ---------------------------------------------------------------------------

def verify_dim4(ev: Evaluation, tol=TOL_CURVATURE) -> list:
    """The rows of the dimension-four duality and the LCK reduction of
    lambda on ``ev``, under the identity tolerance ``tol`` as in
    :func:`run_identity_suite`.  The reduction holds where T has the LCK
    shape T = J theta ^ omega / (n-1), which every Hermitian surface has; its
    row is ``skipped``, with the reason, where the measured ``lck_defect``
    exceeds ``TOL_FIRST_ORDER``, the default tolerance of the duality row,
    which asserts the same difference in dimension 4.  Each section reads
    its own ``lck_defect``, so a joined evaluation computes the reduction
    only once a section that asserts it reads it."""
    rows = measure_rows(ev, _duality_rows, tol) if ev.pts.shape[-1] == 4 else []
    defect = ev.magnitude("lck_defect")
    if defect > TOL_FIRST_ORDER:
        return rows + [Row(
            "lck_lambda_reduction", None, tol, SKIPPED, None,
            reason=f"{ev.m.name}: lck_defect {defect:.3g} exceeds {TOL_FIRST_ORDER:g}, so T "
                   "does not have the LCK shape J theta ^ omega / (n-1) on which the lambda "
                   "reduction holds")]
    return rows + measure_rows(ev, _lck_reduction_rows, tol)


def _duality_rows(ev: Evaluation):
    """The duality T = -*theta in dimension 4 (order 1): the larger residual
    of the two sides against T."""
    yield ("torsion_lee_duality",
           (ev.T + hodge_star_values(ev.theta, ev.ginv, ev.sqrt_det_g, 1), "lck_defect"),
           1, ASSERTED)


def _lck_reduction_rows(ev: Evaluation):
    """The LCK reduction of lambda (order 2)."""
    # On the conformally Kaehler class (T = J theta ^ omega / (n-1)) the
    # J-trace of dT reduces to Lee-form data:
    #
    #   (n-1) lambda = (4-2n) [ d(J theta)
    #                           + (theta ^ J theta + |theta|^2 omega)/(n-1) ]
    #                  - 2 codiff(theta) omega.
    #
    # The quadratic block carries the 1/(n-1); with the determinant wedge
    # convention and the full-index norms fixed by lambda_trace_calibration
    # this is the exact reduction (derived from the L(beta ^ omega) trace rule
    # and jtr(dJa) = 2 codiff(a) + 2 <theta, a>, and confirmed numerically at
    # n = 2, 3, 4).  In dimension 4 every term but the last drops.
    n = ev.pts.shape[-1] // 2
    lhs = (n - 1) * ev.lam
    quad = wedge(ev.theta, ev.jtheta, 1) + ev.norm_sq("theta")[..., None, None] * ev.omega
    rhs = ((4 - 2 * n) * (ev.d_jtheta + quad / (n - 1))
           - 2.0 * ev.codiff("theta")[..., None, None] * ev.omega)
    yield "lck_lambda_reduction", lhs - rhs, 2, ASSERTED


def verify_conformal_trace(ev: Evaluation, tol=TOL_CURVATURE) -> Row:
    """The row of the conformal change of the Chern trace u between the
    manifold of ``ev`` and its conformal parent, with the geometer's Laplacian
    (codiff d) on the parent, under the identity tolerance ``tol`` as in
    :func:`run_identity_suite`.  The catalog factor f corresponds to a
    rescale by exp(2 f), so the factor entering the formula is F = 2 f.

    The row is measured once, by :func:`measure_rows`, on the evaluation
    that holds the values of ``ev``, as every other row is."""
    if ev.m.conformal_parent is None:
        raise PreconditionError(f"{ev.m.name} has no conformal parent")
    return measure_rows(ev, _conformal_rows, tol)[0]


def _conformal_rows(ev: Evaluation):
    """The conformal change of u (order 2) on the rows of the members of
    ``ev`` that have a conformal parent, and 0 on the others, which no
    section reads.  The parents are the variant of ``ev`` that
    :meth:`Evaluation.joined` made for ``identities``, which this generator
    alone reads, and takes from ``ev``; they join its stencil pass and
    share its ``J``, which a conformal change keeps.  Each parent's own
    ``J`` field is read at the base points, where it must agree with the
    section's ``J`` to 16 ulps of ``|J|``, or it is a
    ``ContractViolationError`` naming the field.  Their four base-point
    values are read, and the parents dropped, before the row is measured,
    so ``ev`` holds none of their values past the row."""
    # dF on the points, and its derivative for the parent's Laplacian of F
    df = 2.0 * ev.dlog_factor
    ddf = 2.0 * ev.partial("dlog_factor")
    parent, ev._parents = ev._parents, None  # no other row reads them
    if parent is None:
        raise PreconditionError("an evaluation made without 'identities' holds no "
                                "conformal parents")
    rows = _rows(parent._index)  # the parents' rows here
    J = parent.J  # the section's, on those rows
    own = parent._field("J")
    for _, a, b, section in parent.members:
        skew = np.abs(own[a:b] - J[a:b]).max()
        if not skew <= _SYMMETRY_TOL * np.abs(J[a:b]).max():
            exc = ContractViolationError(
                f"{section}: field 'conformal_parent.complex_structure' differs from "
                f"'complex_structure' by {skew:.3g}, and a conformal change keeps J")
            exc.manifold = section
            raise exc
    gamma, theta, ginv, u = parent.gamma("levi_civita"), parent.theta, parent.ginv, parent.u
    del parent
    df, ddf = _take(df, rows), _take(ddf, rows)
    nab = covariant_derivative_of(ddf, df, gamma, 1)

    n = ev.pts.shape[-1] // 2
    lhs = 2.0 * np.exp(2.0 * _take(ev.log_factor, rows)) * _take(ev.u, rows)
    pairing = np.einsum("...a,...b,...ab->...", theta, df, ginv)
    rhs = 2.0 * u + n * (n - 1) * pairing + n * codifferential_of(nab, ginv, 1)
    diff = np.zeros(ev.pts.shape[:1])  # 0 on the rows of a member without one
    diff[... if rows is None else rows] = lhs - rhs
    yield "conformal_u_change", diff, 2, ASSERTED
