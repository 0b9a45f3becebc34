"""Two-sided evaluation of the pointwise curvature identities.

Each identity is evaluated with its two sides built from different formulas
over shared primitives.  An :class:`Evaluation` computes every primitive
(the chart fields, the dilaton and the conformal factor among them, torsion,
the three curvatures, the Lee form, eta = theta - 2 d phi, ...) once per
manifold and point set, and so does each evaluation on the stencil sets that
a derivative differentiates.  Every derivative is of a primitive, read by
the primitive's name: ``partial``, the one stencil pass, and ``nabla`` and
``codiff`` over it.  The two sides are independent because their formulas
differ, so a convention bug cannot cancel; evaluating a pure function twice
gives identical bits and would add no independence.  Residuals are measured
by :meth:`Evaluation.residual` as the largest orthonormal-frame component of
the difference, which keeps them scale-honest across charts.

The curvature suite is one generator of named ``(name, lhs - rhs)`` rows
over one evaluation, each measured in turn.

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
lck_lambda_reduction      conformally-Kaehler reduction of lambda
conformal_u_change        behaviour of u under a conformal rescaling
========================  =====================================================

Default tolerances: 1e-4 for identities that involve curvature or any other
second metric derivative, 1e-6 for first-derivative-only identities (the
finite-difference error budget at step 1e-4).
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, replace

import numpy as np

from .catalog import HermitianManifold
from .connections import (
    COEFFICIENTS, lee_form_values, lower_coefficients, torsion_bismut_values,
    torsion_chern_values,
)
from .curvature import (
    lambda_omega_values, ricci_from_curvature, riemann_values, rho_from_curvature,
)
from .errors import ContractViolationError, NumericError, PreconditionError
from .tensor_core import (
    DEFAULT_STEP, codifferential_of, covariant_derivative_of, cyclic3_of4,
    exterior_derivative_of, fd_partial, first_slot_matrix, gram_schmidt_frames,
    hodge_star_values, j_trace_matrix, kahler_form_values, koszul_values, metric_inverse,
    norm_sq_values, proj_one_one, slotwise, to_frame, wedge,
)

__all__ = [
    "Evaluation", "evaluation", "evaluation_scope", "STENCIL_DEPTH",
    "ResidualEntry", "run_identity_suite", "verify_dim4", "verify_conformal_trace",
    "TOL_CURVATURE", "TOL_FIRST_ORDER",
]

TOL_CURVATURE = 1e-4
TOL_FIRST_ORDER = 1e-6

# Curvature-grade primitives nest two central-difference stencils, so every
# stencil point lies within STENCIL_DEPTH * step of its base point.
STENCIL_DEPTH = 2


@dataclass(frozen=True)
class ResidualEntry:
    """Outcome of one two-sided identity check over a batch of points."""

    name: str
    max_residual: float
    tolerance: float
    worst_point: tuple

    @property
    def passed(self) -> bool:
        return self.max_residual <= self.tolerance

    def as_dict(self) -> dict:
        return {"name": self.name, "max_residual": self.max_residual,
                "tolerance": self.tolerance, "passed": self.passed,
                "worst_point": list(self.worst_point)}


# ---------------------------------------------------------------------------
# the evaluation context
# ---------------------------------------------------------------------------

def _frozen(value):
    """A read-only view of an array, or of each in a tuple."""
    if isinstance(value, tuple):
        return tuple(map(_frozen, value))
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
    return slotwise(T, ginv, 3, (1, 2)).reshape(flat.shape) @ np.swapaxes(flat, -1, -2)


class Evaluation:
    """Every primitive of one manifold at one point set, each computed once.

    Every value is computed on first use from the values held for the same
    point set, and then held read-only in one store.  :meth:`partial`, the
    coordinate derivative of a primitive, is the engine's one stencil site:
    one central-difference pass over the evaluations on the stencil sets
    around the points, which no other method reads.  Every other
    derivative is of a primitive too, a formula over its ``partial`` held
    under the primitive's name: :meth:`nabla` per flavor, :meth:`codiff`, the
    curvature of each flavor's held coefficients and the flux equation's
    divergence of a held density.  Only the stencil sets around the base
    points are held; the deeper sets are built once, for the one pass over
    ``g`` and ``omega``, and dropped.  :meth:`with_structure` starts another
    complex structure from the metric-only values held here, on the same
    point sets.  The manifold's dimension must be even and at least 4.  The
    point set must not be empty and must have the manifold's dimension, and
    the chart domain is checked once, on the base points, with the margin
    the deepest stencil needs; each chart field's shape is checked on every
    point set where it is read.  :meth:`residual` is the engine's one
    residual measure.
    """

    def __init__(self, m: HermitianManifold, pts, step: float = DEFAULT_STEP):
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
        # the evaluations on the stencil sets around the base points, by the
        # bytes of the set, read by partial alone; None on a stencil set,
        # which holds none of its own
        self._stencils = {}

    def _once(self, key, compute):
        if key not in self._values:
            self._values[key] = _frozen(compute())
        return self._values[key]

    def _derive(self, m, pts, keys=(), stencils=None) -> "Evaluation":
        # starts from the values held here under keys; no domain check: the
        # base evaluation made it for every stencil depth
        ev = Evaluation.__new__(Evaluation)
        ev.m, ev.pts, ev.step = m, _frozen(pts), self.step
        ev._values = {k: self._values[k] for k in keys if k in self._values}
        ev._stencils = stencils
        return ev

    def with_structure(self, j_fn) -> "Evaluation":
        """The evaluation of the same metric, points and step with the complex
        structure ``j_fn``, here and on the held stencil sets, starting from
        the metric-only values held; this one keeps no reference to it."""
        m = replace(self.m, complex_structure=j_fn, hypercomplex=None)
        keys = ("g", "ginv", "frames", ("partial", "g"), "koszul", ("gamma", "levi_civita"))
        stencils = None if self._stencils is None else {
            key: ev._derive(m, ev.pts, keys) for key, ev in self._stencils.items()}
        return self._derive(m, self.pts, keys, stencils)

    def partial(self, attr: str) -> np.ndarray:
        """``D_d`` of the primitive ``attr`` here, derivative axis first: one
        central-difference pass over the stencil evaluations, held read-only;
        the only place a stencil is placed.  ``g`` and ``omega`` share one
        pass unless one is held, so a set is built once."""
        if ("partial", attr) not in self._values:
            shared = ("g", "omega") if attr in ("g", "omega") else (attr,)
            attrs = [a for a in shared if ("partial", a) not in self._values]
            held = {} if self._stencils is None else self._stencils

            def values(p):  # at one stencil set around the points
                key = p.tobytes()
                if key not in held:
                    held[key] = self._derive(self.m, p)
                return tuple(getattr(held[key], a) for a in attrs)
            derivatives = fd_partial(values, self.pts, self.step)
            for a, df in zip(attrs, derivatives):
                self._values[("partial", a)] = _frozen(df)
        return self._values[("partial", attr)]

    # -- chart data ------------------------------------------------------------

    def _field(self, name, fn, valence):
        """The chart field ``fn`` at the points, which must be a tensor of
        ``valence`` slots per point."""
        value = fn(self.pts)
        expected = self.pts.shape[:-1] + (self.m.dim,) * valence
        if np.shape(value) != expected:
            raise ContractViolationError(f"{self.m.name}: field {name!r} has shape "
                                         f"{np.shape(value)}, expected {expected}")
        return value

    @_primitive
    def g(self):
        return self._field("metric", self.m.metric, 2)

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
    def lambda_omega(self):
        """(lam, h): lam(X,Y) = sum_i dT(X,Y,e_i,J e_i) and 2 h = jtr(lam)."""
        return lambda_omega_values(self.dT, self.jg)

    lam = property(lambda self: self.lambda_omega[0])
    h = property(lambda self: self.lambda_omega[1])

    @_primitive
    def theta(self):
        """The Lee form; on the base points it is checked against its two
        torsion-trace routes."""
        return lee_form_values(self, check=self._stencils is not None)

    @_primitive
    def jtheta(self):
        return -np.einsum("...m,...mi->...i", self.theta, self.J)

    @_primitive
    def lck_torsion(self):
        """J theta ^ omega / (n-1), which is T on the conformally Kaehler class."""
        return wedge(self.jtheta, self.omega, 2) / (self.m.dim // 2 - 1)

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
        tt = slotwise(T, self.ginv, 3, (2,)).reshape(flat.shape) @ np.swapaxes(flat, -1, -2)
        return tt.reshape(T.shape[:-3] + (T.shape[-1],) * 4)

    @_primitive
    def tt2(self):
        return _tt2(self.T, self.ginv)

    # -- the flux equation's densities -----------------------------------------

    @_primitive
    def sqrt_det_g(self):
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

    # -- the residual measure --------------------------------------------------

    def residual(self, name: str, diff):
        """Largest orthonormal-frame component of ``diff`` over the points,
        and the point where it occurs.  ``diff`` holds one covariant tensor
        per point, shape ``(N,) + (dim,) * valence``.  A NaN or infinite
        residual raises ``NumericError`` naming ``name`` and the first point
        affected."""
        diff = np.asarray(diff)
        valence = diff.ndim - 1
        if diff.shape != self.pts.shape[:1] + (self.m.dim,) * valence:
            raise ContractViolationError(
                f"{name!r}: shape {diff.shape} is not a tensor per point at "
                f"{self.pts.shape[0]} points in dimension {self.m.dim}")
        if valence:
            diff = to_frame(diff, self.frames, valence)
        mags = np.abs(diff).reshape(self.pts.shape[0], -1).max(axis=1)
        bad = np.flatnonzero(~np.isfinite(mags))
        if bad.size:
            raise NumericError(f"non-finite residual in {name!r} at point "
                               f"{self.pts[bad[0]].tolist()}")
        worst = int(np.argmax(mags))
        return float(mags[worst]), tuple(self.pts[worst].tolist())

    def norm_sq(self, attr: str) -> np.ndarray:
        """The squared norm of the primitive ``attr``, held."""
        t = getattr(self, attr)
        return self._once(("norm_sq", attr), lambda: norm_sq_values(t, self.ginv, t.ndim - 1))

    def magnitude(self, attr: str) -> float:
        """The residual of the primitive ``attr`` itself (its largest frame
        component), measured once."""
        return self._once(("magnitude", attr),
                          lambda: self.residual(attr, getattr(self, attr))[0])


_SCOPE = ContextVar("ktgeo_evaluation_scope", default=None)


@contextmanager
def evaluation_scope():
    """Share one :class:`Evaluation` per (manifold, points, step) among the
    calls made inside the scope.  A nested scope joins the open one; the
    evaluations are released when the outermost scope closes."""
    if _SCOPE.get() is not None:
        yield
        return
    token = _SCOPE.set({})
    try:
        yield
    finally:
        _SCOPE.reset(token)


def evaluation(m: HermitianManifold, pts, step: float = DEFAULT_STEP) -> Evaluation:
    """The open scope's evaluation of ``m`` at ``pts``, or a fresh one when no
    scope is open."""
    scope = _SCOPE.get()
    if scope is None:
        return Evaluation(m, pts, step)
    pts = np.array(pts, dtype=float, ndmin=2)
    # the entry holds m, so id(m) cannot be reused while the scope is open
    key = (id(m), pts.shape, pts.tobytes(), step)
    if key not in scope:
        scope[key] = Evaluation(m, pts, step)
    return scope[key]


def _entry(ev: Evaluation, name, diff, tol) -> ResidualEntry:
    val, point = ev.residual(name, diff)
    return ResidualEntry(name, val, tol, point)


# ---------------------------------------------------------------------------
# the identity rows
# ---------------------------------------------------------------------------

def _identity_rows(ev: Evaluation):
    """The curvature identities as ``(name, lhs - rhs)`` rows, in report order."""
    nt = ev.nabla("T", "bismut")
    tt = ev.tt4

    # Levi-Civita vs Bismut derivative of T
    rhs = nt + 0.5 * cyclic3_of4(tt)
    yield "torsion_nabla_exchange", ev.nabla("T", "levi_civita") - rhs

    # dT from the Bismut derivative
    rhs = cyclic3_of4(nt + 2.0 * tt) - np.einsum("...uxyz->...xyzu", nt)
    yield "torsion_ext_derivative", ev.dT - rhs

    # first Bianchi identity with torsion
    lhs = cyclic3_of4(ev.riemann("bismut"))
    rhs = ev.dT + np.einsum("...uxyz->...xyzu", nt) - cyclic3_of4(tt)
    yield "bianchi_with_torsion", lhs - rhs

    # Levi-Civita curvature from the Bismut curvature
    rhs = (ev.riemann("bismut") - 0.5 * nt + 0.5 * np.einsum("...yxzu->...xyzu", nt)
           - 0.5 * tt - 0.25 * np.einsum("...yzxu->...xyzu", tt)
           - 0.25 * np.einsum("...zxyu->...xyzu", tt))
    yield "curvature_comparison", ev.riemann("levi_civita") - rhs

    # Riemannian Ricci from the Bismut one
    rhs = ev.ric + 0.5 * ev.codiff("T") + 0.25 * ev.tt2
    yield "ricci_comparison", ev.ric_lc - rhs

    # rho against the mixed Ricci trace
    rhs = (np.einsum("...xm,...my->...xy", ev.ric, ev.J)
           + np.einsum("...xm,...my->...xy", ev.nabla("theta", "bismut"), ev.J) + 0.25 * ev.lam)
    yield "ricci_form_mixed_trace", ev.rho - rhs

    # scalar relation for b
    rhs = ev.scal - 3.0 * ev.codiff("theta") - 2.0 * ev.norm_sq("theta") + ev.norm_sq("T") / 3.0
    yield "b_scalar_relation", ev.b - rhs

    J = ev.J
    ric = ev.ric
    nth = ev.nabla("theta", "bismut")
    lhs = ric - np.einsum("...xy->...yx", ric)
    yield "ricci_skew_coclosure", lhs + ev.codiff("T")

    lhs = slotwise(ric, J, 2) - np.einsum("...xy->...yx", ric)
    rhs = -slotwise(nth, J, 2) + np.einsum("...xy->...yx", nth)
    yield "ricci_j_conjugation", lhs - rhs

    lhs = slotwise(ev.rho, J, 2) - ev.rho
    dnth = nth - np.einsum("...xy->...yx", nth)
    rhs = (np.einsum("...my,...mx->...xy", ev.codiff("T"), J)
           - np.einsum("...my,...mx->...xy", dnth, J))
    yield "ricci_form_type_defect", lhs - rhs

    # mean curvature of the holomorphic tangent bundle
    lhs = np.einsum("...my,...mx->...xy", ev.kappa, ev.J)
    yield "mean_curvature_formula", lhs - ev.mean_curvature_form

    # Chern Ricci form from the Bismut one
    yield "chern_vs_bismut_ricci", ev.rho_chern - (ev.rho + ev.d_jtheta)

    # J-trace of lambda (pins the norm convention)
    lhs = -np.einsum("...mn,...mn->...", ev.lam, ev.jg)  # = sum_i lambda(e_i, J e_i)
    rhs = 8.0 * ev.norm_sq("theta") + 8.0 * ev.codiff("theta") - 4.0 / 3.0 * ev.norm_sq("T")
    yield "lambda_trace_calibration", lhs - rhs

    # trace of the mean-curvature formula
    rhs = ev.b + ev.norm_sq("C") - 0.5 * ev.h
    yield "u_trace_formula", 2.0 * ev.u - rhs


def run_identity_suite(m: HermitianManifold, pts, step=DEFAULT_STEP):
    """All curvature identities applicable to a manifold, in report order."""
    ev = evaluation(m, pts, step)
    return [_entry(ev, name, diff, TOL_CURVATURE) for name, diff in _identity_rows(ev)]


# ---------------------------------------------------------------------------
# dimension-four chain and the conformally Kaehler reduction
# ---------------------------------------------------------------------------

def verify_dim4(m: HermitianManifold, pts, step=DEFAULT_STEP):
    """The dimension-four duality and the LCK reduction of lambda.  Returns
    the entries and the checks skipped, as ``{"name", "reason"}`` dicts, for
    a chart outside the class they hold on."""
    ev = evaluation(m, pts, step)
    out = []

    if m.dim == 4:
        # the larger residual of the two sides against T
        val, point = max(ev.residual("torsion_lee_duality", diff) for diff in (
            ev.T + hodge_star_values(ev.theta, ev.g, 1), ev.T - ev.lck_torsion))
        out.append(ResidualEntry("torsion_lee_duality", val, TOL_FIRST_ORDER, point))

    if not m.lck:
        return out, [{"name": "lck_lambda_reduction",
                      "reason": f"{m.name} is not declared locally conformally Kaehler; "
                                "the lambda reduction only holds on that class"}]
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
    out.append(_entry(ev, "lck_lambda_reduction", lhs - rhs, TOL_CURVATURE))
    return out, []


def verify_conformal_trace(m: HermitianManifold, pts, step=DEFAULT_STEP) -> ResidualEntry:
    """Conformal change of the Chern trace u between a manifold and its
    conformal parent, with the geometer's Laplacian (codiff d) on the parent.
    The catalog factor f corresponds to a rescale by exp(2 f), so the factor
    entering the formula is F = 2 f."""
    if m.conformal_parent is None:
        raise PreconditionError(f"{m.name} has no conformal parent")
    ev = evaluation(m, pts, step)
    parent = evaluation(m.conformal_parent.parent, ev.pts, step)
    # dF on m's points, and the parent's Laplacian of F from its derivative
    df = 2.0 * ev.dlog_factor
    nab = covariant_derivative_of(2.0 * ev.partial("dlog_factor"), df,
                                  parent.gamma("levi_civita"), 1)

    n = m.dim // 2
    lhs = 2.0 * np.exp(2.0 * ev.log_factor) * ev.u
    pairing = np.einsum("...a,...b,...ab->...", parent.theta, df, parent.ginv)
    rhs = 2.0 * parent.u + n * (n - 1) * pairing + n * codifferential_of(nab, parent.ginv, 1)
    return _entry(ev, "conformal_u_change", lhs - rhs, TOL_CURVATURE)
