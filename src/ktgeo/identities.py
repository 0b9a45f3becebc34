"""Two-sided evaluation of the pointwise curvature identities.

Each identity is evaluated with its two sides built from different formulas
over shared primitives.  An :class:`Evaluation` computes every primitive
(the chart fields, the dilaton and the conformal factor among them, torsion,
the three curvatures, the Lee form, eta = theta - 2 d phi, ...) once per
manifold and point set; a report section builds one and hands it to every
suite.  Every derivative is of a primitive, read by the primitive's name:
``partial`` and ``nabla`` and ``codiff`` over it.  One stencil pass takes
every ``partial`` an evaluation reads, over an evaluation on the stencil set
that the pass builds and drops, so only base-point values outlive it.  The
two sides are independent because their formulas differ, so a convention bug
cannot cancel; evaluating a pure function twice gives identical bits and
would add no independence.  Residuals are measured by
:meth:`Evaluation.residual` as the largest orthonormal-frame component of the
difference, which keeps them scale-honest across charts.

Every suite is a generator of ``(name, lhs - rhs, order, status)`` rows over
the evaluation it takes, ``order`` the row's stencil nesting depth;
:func:`measure_rows` turns each into a :class:`Row`, the one row type of a
report.

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
from dataclasses import dataclass, replace
from functools import lru_cache

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
    metric_inverse, norm_sq_values, permuted, proj_one_one, slotwise, to_frame, wedge,
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


@dataclass(frozen=True)
class Row:
    """One row of a report: a two-sided check over a batch of points, its
    largest residual and the point where it occurs.  Only an ``asserted``
    row passes or fails; an ``info`` or ``hypothesis_failed`` row makes no
    claim, and a ``skipped`` row, whose precondition fails on the chart, has
    no residual and gives its ``reason``."""

    name: str
    residual: float | None
    tolerance: float
    status: str
    worst_point: tuple | None
    reason: str | None = None

    @property
    def passed(self) -> bool | None:
        return self.residual <= self.tolerance if self.status == ASSERTED else None

    def as_dict(self) -> dict:
        return {"name": self.name, "residual": self.residual, "tolerance": self.tolerance,
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
    return property(lambda self: self._once(compute.__name__, lambda: compute(self)),
                    doc=compute.__doc__)


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
    Returns the flat indices of the offsets with ``a <= b``, and for every
    offset the position among them of itself or its twin."""
    s, a, t, b = np.unravel_index(np.arange(4 * d * d), (2, d, 2, d))
    keep = np.flatnonzero(a <= b)
    position = np.zeros(4 * d * d, dtype=np.intp)
    position[keep] = np.arange(keep.size)
    twin = position[np.ravel_multi_index((t, b, s, a), (2, d, 2, d))]
    return _frozen(keep), _frozen(np.where(a <= b, position, twin))


# a valence-3 value on the first stencil level takes 2d d^3 8 bytes per base
# point; a base pass runs over balanced blocks of points that keep it within
# this budget (8 points in d = 6, 40 in d = 4)
_PASS_BYTES = 162 * 1024


# the primitives read off the chart fields (omega from g and J): on the first
# stencil level, what a base pass takes reads the partials of these alone
_LEAVES = ("g", "omega", "phi", "log_factor")


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
    direction), which the pass builds and drops: by default every primitive
    whose ``partial`` a full report reads on base points; a report section
    names those its suites read, so a run of one suite pays for no partial
    it does not read.  A ``partial`` of any other primitive is a pass of its
    own.  The first level differentiates the leaves that ``differentiated``
    names, of ``g``, ``omega``, ``phi`` and ``log_factor``, in one pass over
    one evaluation at the distinct second-level points only, ``2d(d+1)`` of
    the ``(2d)^2`` around each point, and every other point reads its twin's
    values.  No evaluation holds another, so only base-point values outlive
    a pass.  A pass runs over blocks of the base points under a fixed byte
    budget for its first level, so its working set does not grow with the
    points; the base-point values held do, 2.5 MiB per 16 points in d = 6.
    :meth:`with_structure` starts another complex structure from the
    metric-only values held here, on the same points.  The manifold's
    dimension must be even and at least 4.  The point set must not be empty
    and must have the manifold's dimension, and the chart domain is checked
    once, on the base points, with the margin the deepest stencil needs;
    each chart field's shape is checked on every point set where it is
    read.  :meth:`residual` is the engine's one residual measure.
    """

    def __init__(self, m: HermitianManifold, pts, step: float = DEFAULT_STEP,
                 differentiated=None):
        if m.dim < 4 or m.dim % 2:
            # a complex structure needs an even dimension, and the LCK torsion
            # and the lambda reduction divide by n - 1 in complex dimension n
            raise ContractViolationError(f"{m.name}: dimension {m.dim}, expected an even "
                                         "dimension of at least 4")
        self.m = m
        self.pts = _frozen(np.array(pts, dtype=float, ndmin=2))
        self.step = step
        if self.pts.shape[0] == 0:
            raise PreconditionError(f"{m.name}: an evaluation needs a non-empty point set")
        if self.pts.shape[-1] != m.dim:
            raise ContractViolationError(f"{m.name}: points have dimension {self.pts.shape[-1]}, "
                                         f"expected {m.dim}")
        m.chart.require_interior(self.pts, STENCIL_DEPTH * step)
        self._values = {}
        self._depth = 0  # stencil levels below the base points
        self.differentiated = (_differentiated(m) if differentiated is None
                               else tuple(differentiated))

    def _once(self, key, compute):
        if key not in self._values:
            self._values[key] = _frozen(compute())
        return self._values[key]

    def _derive(self, m, pts, depth, keys=()) -> "Evaluation":
        # starts from the values held here under keys; no domain check: the
        # base evaluation made it for every stencil depth.  A first level
        # differentiates the leaves that this evaluation's tuple names; a
        # second level differentiates nothing
        ev = Evaluation.__new__(Evaluation)
        ev.m, ev.pts, ev.step = m, _frozen(pts), self.step
        ev._values = {k: self._values[k] for k in keys if k in self._values}
        ev._depth = depth
        ev.differentiated = (tuple(a for a in self.differentiated if a in _LEAVES)
                             if depth == 1 else ())
        return ev

    def with_structure(self, j_fn) -> "Evaluation":
        """The evaluation of the same metric, points and step with the complex
        structure ``j_fn``, starting from the metric-only values held here.
        It differentiates ``omega`` alone: a structure's torsion and Lee form,
        all that the HKT checks read of it, differentiate nothing else that
        depends on ``J``.  Neither evaluation keeps a reference to the other."""
        m = replace(self.m, complex_structure=j_fn, hypercomplex=None)
        keys = ("g", "ginv", "frames", ("partial", "g"), "koszul", ("gamma", "levi_civita"))
        ev = self._derive(m, self.pts, self._depth, keys)
        ev.differentiated = ("omega",)
        return ev

    def partial(self, attr: str) -> np.ndarray:
        """``D_d`` of the primitive ``attr`` here, derivative axis first,
        held read-only; the only place a stencil is placed.  The first
        ``partial`` of any primitive in ``differentiated`` takes all of them
        in one central-difference pass over one evaluation on
        the stencil set around the points, which the pass drops when it
        returns; any other primitive is a pass of its own.  On the first
        stencil level that evaluation is built at the distinct second-level
        points only, and every other point reads its twin.  A base pass
        runs once per block of points under ``_PASS_BYTES`` into outputs for
        all points; only the held base-point values grow with the points."""
        if ("partial", attr) not in self._values:
            attrs = self.differentiated if attr in self.differentiated else (attr,)

            def values(p):  # at the stencil set around the points
                if self._depth == 0:
                    ev = self._derive(self.m, p, 1)
                    return tuple(getattr(ev, a) for a in attrs)
                # p is (..., 2, d, 2, d, d): evaluate the distinct offsets,
                # then lay every offset out from its own value or its twin's
                d, lead = p.shape[-1], p.shape[:-5]
                keep, index = _distinct_offsets(d)
                ev = self._derive(self.m, p.reshape(lead + (-1, d))[..., keep, :], 2)
                return tuple(v.take(index, axis=len(lead)).reshape(
                    p.shape[:-1] + v.shape[len(lead) + 1:])
                    for v in (getattr(ev, a) for a in attrs))
            # one block is the loop's one call, its outputs held as they are;
            # a deeper level is one block of the base block
            n = self.pts.shape[0]
            size = max(1, _PASS_BYTES // (16 * self.m.dim ** 4)) if self._depth == 0 else n
            count = -(-n // size)
            bounds = [n * k // count for k in range(count + 1)]
            derivatives = None
            for lo, hi in zip(bounds, bounds[1:]):
                block = fd_partial(values, self.pts[lo:hi], self.step)
                if count == 1:
                    derivatives = block
                    continue
                derivatives = derivatives or tuple(np.empty((n,) + df.shape[1:]) for df in block)
                for out, df in zip(derivatives, block):
                    out[lo:hi] = df
                del block, df  # so the next block's pass does not stack on this one's
            for a, df in zip(attrs, derivatives):
                self._values[("partial", a)] = _frozen(df)
        return self._values[("partial", attr)]

    # -- chart data ------------------------------------------------------------

    def _field(self, name, fn, valence):
        """The chart field ``fn`` at the points, read as native float64: a
        float64 or integer array of ``valence`` slots per point.  A
        ``GeometryError`` or ``ValueError`` that ``fn`` raises is a numeric
        failure and passes through; any other exception, dtype or shape
        breaks the chart's contract.  A NaN or infinite value is a
        ``NumericError`` naming the field and the first point affected."""
        try:
            value = fn(self.pts)
        except (GeometryError, ValueError):
            raise
        except Exception as exc:
            raise ContractViolationError(f"{self.m.name}: field {name!r} raised "
                                         f"{type(exc).__name__}: {exc}") from exc
        try:
            value = np.asarray(value)
        except ValueError as exc:  # a ragged nested sequence
            raise ContractViolationError(f"{self.m.name}: field {name!r} is not an "
                                         f"array: {exc}") from exc
        # float32 rounding over the stencil's h^2 would fail curvature rows
        if value.dtype.kind not in "iu" and value.dtype.newbyteorder("=") != np.float64:
            raise ContractViolationError(f"{self.m.name}: field {name!r} has dtype "
                                         f"{value.dtype}, expected float64 or an integer type")
        value = value.astype(float, copy=False)
        expected = self.pts.shape[:-1] + (self.m.dim,) * valence
        if value.shape != expected:
            raise ContractViolationError(f"{self.m.name}: field {name!r} has shape "
                                         f"{value.shape}, expected {expected}")
        # the largest magnitude is NaN or infinite exactly when some value is;
        # abs and max are loops every report runs, np.isfinite only on failure
        if not math.isfinite(np.abs(value).max()):
            bad = ~np.isfinite(value).reshape(self.pts.shape[:-1] + (-1,)).all(axis=-1)
            raise NumericError(f"{self.m.name}: field {name!r} is not finite at point "
                               f"{self.pts[bad][0].tolist()}")
        return value

    @_primitive
    def g(self):
        g = self._field("metric", self.m.metric, 2)
        skew = np.abs(g - g.swapaxes(-1, -2)).max()
        if skew > _SYMMETRY_TOL * np.abs(g).max():
            raise ContractViolationError(f"{self.m.name}: field 'metric' is not symmetric, "
                                         f"|g - g^T| = {skew:.3g}")
        return g

    @_primitive
    def ginv(self):
        return metric_inverse(self.g)

    @_primitive
    def J(self):
        return self._field("complex_structure", self.m.complex_structure, 2)

    @_primitive
    def jg(self):
        return j_trace_matrix(self.J, self.ginv)

    @_primitive
    def phi(self):
        """The dilaton."""
        return self._field("dilaton", self.m.dilaton, 0)

    @_primitive
    def log_factor(self):
        """The conformal factor f, metric = exp(2 f) * the parent's."""
        return self._field("conformal_parent.log_factor",
                           self.m.conformal_parent.log_factor, 0)

    @_primitive
    def frames(self):
        return gram_schmidt_frames(self.g)

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
        return self.T - wedge(self.jtheta, self.omega, 2) / (self.m.dim // 2 - 1)

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
        def compute():
            om = getattr(self, COEFFICIENTS[flavor])
            return (self.ginv @ first_slot_matrix(om)).reshape(om.shape)
        return self._once(("gamma", flavor), compute)

    def nabla(self, attr: str, flavor: str) -> np.ndarray:
        """The covariant derivative of the primitive ``attr`` for a flavor, a
        formula over its :meth:`partial`, held; derivative axis first."""
        return self._once(("nabla", attr, flavor), lambda: covariant_derivative_of(
            self.partial(attr), getattr(self, attr), self.gamma(flavor), self._valence(attr)))

    def codiff(self, attr: str) -> np.ndarray:
        """The codifferential of the form primitive ``attr``, held."""
        return self._once(("codiff", attr), lambda: codifferential_of(
            self.nabla(attr, "levi_civita"), self.ginv, self._valence(attr)))

    def _valence(self, attr: str) -> int:
        return getattr(self, attr).ndim - self.pts.ndim + 1

    # -- curvature and its traces ------------------------------------------------------

    def riemann(self, flavor: str) -> np.ndarray:
        return self._once(("riemann", flavor), lambda: riemann_values(self, flavor))

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
        and the point where it occurs.  ``diff`` holds one covariant tensor
        per point, shape ``(N,) + (dim,) * valence``, or names a primitive,
        whose residual is measured once and held.  A NaN or infinite
        residual raises ``NumericError`` naming ``name`` (the primitive's
        name for a held one) and the first point affected."""
        if isinstance(diff, str):
            return self._once(("residual", diff), lambda: self.residual(diff, getattr(self, diff)))
        diff = np.asarray(diff)
        valence = diff.ndim - 1
        if diff.shape != self.pts.shape[:1] + (self.m.dim,) * valence:
            raise ContractViolationError(
                f"{name!r}: shape {diff.shape} is not a tensor per point at "
                f"{self.pts.shape[0]} points in dimension {self.m.dim}")
        if valence:
            diff = to_frame(diff, self.frames, valence)
        mags = np.abs(diff).reshape(self.pts.shape[0], -1).max(axis=1)
        # argmax stops at the first NaN and reaches any +inf, so the
        # maximum is finite exactly when every magnitude is
        worst = mags.argmax()
        value = float(mags[worst])
        if not math.isfinite(value):
            bad = np.flatnonzero(~np.isfinite(mags))[0]
            raise NumericError(f"non-finite residual in {name!r} at point "
                               f"{self.pts[bad].tolist()}")
        return value, tuple(self.pts[worst].tolist())

    def norm_sq(self, attr: str) -> np.ndarray:
        """The squared norm of the primitive ``attr``, held."""
        t = getattr(self, attr)
        return self._once(("norm_sq", attr), lambda: norm_sq_values(t, self.ginv, t.ndim - 1))

    def magnitude(self, attr: str) -> float:
        """The held residual of the primitive ``attr`` itself (its largest
        frame component), without its point."""
        return self.residual(attr, attr)[0]


def measure_rows(ev: Evaluation, rows, tol=TOL_CURVATURE, tol_first=TOL_FIRST_ORDER) -> list:
    """The :class:`Row` of each ``(name, diff, order, status)`` row, each
    measured by :meth:`Evaluation.residual`, with the tolerance ``tol`` at
    order 2 and ``min(tol_first, tol)`` at order 1.  ``diff`` is the
    difference ``lhs - rhs``, the name of a primitive (its held residual) or
    a tuple of these (the largest residual); a ``skipped`` row gives its
    reason in place of ``diff``.  A row that yields the previous row's
    difference again reuses its measure; no other difference is held."""
    out, last = [], None
    for name, diff, order, status in rows:
        tolerance = min(tol_first, tol) if order == 1 else tol
        if status == SKIPPED:
            out.append(Row(name, None, tolerance, status, None, reason=diff))
            continue
        if diff is not last:
            diffs = diff if isinstance(diff, tuple) else (diff,)
            last, (value, point) = diff, max(ev.residual(name, d) for d in diffs)
        out.append(Row(name, value, tolerance, status, point))
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
    return measure_rows(ev, _identity_rows(ev), tol)


def verify_structure(ev: Evaluation, tol=TOL_CURVATURE) -> list:
    """The structure block's row on ``ev``, under ``tol`` as in
    :func:`run_identity_suite`: the Lee form's routes agree (order 1)."""
    theta, via_T, via_C = lee_form_routes(ev)
    rows = [("lee_form_routes", (theta - via_T, theta - via_C), 1, ASSERTED)]
    return measure_rows(ev, rows, tol)


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
    which asserts the same difference in dimension 4."""
    return measure_rows(ev, _dim4_rows(ev), tol)


def _dim4_rows(ev: Evaluation):
    """The duality in dimension 4 (order 1), then the reduction (order 2) or
    its skipped row with the reason."""
    m = ev.m
    if m.dim == 4:
        # the larger residual of the two sides against T
        yield ("torsion_lee_duality",
               (ev.T + hodge_star_values(ev.theta, ev.ginv, ev.sqrt_det_g, 1), "lck_defect"),
               1, ASSERTED)

    defect = ev.magnitude("lck_defect")
    if defect > TOL_FIRST_ORDER:
        yield ("lck_lambda_reduction",
               f"{m.name}: lck_defect {defect:.3g} exceeds {TOL_FIRST_ORDER:g}, so T does not "
               "have the LCK shape J theta ^ omega / (n-1) on which the lambda reduction holds",
               2, SKIPPED)
        return
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
    n = m.dim // 2
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

    The parent is a separate evaluation, built from its own fields.  Its four
    base-point values are read, and the parent dropped, before any value of
    ``ev`` is read here, so a section that runs this row first never holds
    the two evaluations' stencil passes at once."""
    m = ev.m
    if m.conformal_parent is None:
        raise PreconditionError(f"{m.name} has no conformal parent")
    # no other suite reads the parent, so it is not shared; its u, Lee form
    # and Levi-Civita coefficients read these partials
    parent = Evaluation(m.conformal_parent.parent, ev.pts, ev.step,
                        ("g", "omega", "chern_coefficients"))
    gamma, theta, ginv, u = parent.gamma("levi_civita"), parent.theta, parent.ginv, parent.u
    del parent
    # dF on m's points, and the parent's Laplacian of F from its derivative
    df = 2.0 * ev.dlog_factor
    nab = covariant_derivative_of(2.0 * ev.partial("dlog_factor"), df, gamma, 1)

    n = m.dim // 2
    lhs = 2.0 * np.exp(2.0 * ev.log_factor) * ev.u
    pairing = np.einsum("...a,...b,...ab->...", theta, df, ginv)
    rhs = 2.0 * u + n * (n - 1) * pairing + n * codifferential_of(nab, ginv, 1)
    return measure_rows(ev, [("conformal_u_change", lhs - rhs, 2, ASSERTED)], tol)[0]
