"""Generalized Einstein system with three-form flux and dilaton.

The flux is identified with the Bismut torsion, ``H = T``.  With that
identification the two field equations read, pointwise,

    Ric^g(X,Y) - 1/4 sum_{m,n} H(X,e_m,e_n) H(Y,e_m,e_n) + 2 (nabla^g d phi)(X,Y) = 0
    codiff(T) + 2 i_{grad phi} T = 0

and the engine evaluates them together with the equivalent forms they take
when the Bismut Ricci form vanishes: the Lee-form equations for constant
dilaton, and the eta-form equations (eta = theta - 2 d phi) otherwise.  The
dilaton field equation is implied by these two up to a constant and is not
evaluated.

Negative examples are first class: every solution-style residual carries a
status, and residuals evaluated on manifolds that fail the hypotheses
(closed torsion + vanishing Bismut Ricci form) are labeled
``hypothesis_failed`` instead of being asserted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .catalog import HermitianManifold
from .classify import DEFAULT_CLASSIFY_TOL, hypothesis_residuals
from .identities import Evaluation, evaluation
from .tensor_core import DEFAULT_STEP, interior_product, slotwise

__all__ = ["StringEntry", "StringReport", "run_string_suite", "TOL_STRING"]

TOL_STRING = 1e-4

ASSERTED = "asserted"
INFO = "info"
HYPOTHESIS_FAILED = "hypothesis_failed"

@dataclass(frozen=True)
class StringEntry:
    name: str
    residual: float
    tolerance: float
    status: str

    @property
    def passed(self) -> Optional[bool]:
        if self.status != ASSERTED:
            return None
        return self.residual <= self.tolerance

    def as_dict(self) -> dict:
        return {"name": self.name, "residual": self.residual,
                "tolerance": self.tolerance, "status": self.status,
                "passed": self.passed}


@dataclass(frozen=True)
class StringReport:
    manifold: str
    constant_dilaton: bool
    hypothesis_ok: bool
    einstein_residual: float
    flux_residual: float
    eta: np.ndarray
    eta_parallel_residual: float
    susy_theta_residual: float
    th1_consistency: dict
    entries: list

    def as_dict(self) -> dict:
        return {"manifold": self.manifold,
                "constant_dilaton": self.constant_dilaton,
                "hypothesis_ok": self.hypothesis_ok,
                "einstein_residual": self.einstein_residual,
                "flux_residual": self.flux_residual,
                "eta": self.eta.tolist(),
                "eta_parallel_residual": self.eta_parallel_residual,
                "susy_theta_residual": self.susy_theta_residual,
                "th1_consistency": self.th1_consistency,
                "entries": [e.as_dict() for e in self.entries]}


def _weighted_divergence(ev: Evaluation, gradient: bool) -> np.ndarray:
    """sum_i (nabla^g_{e_i} A)(e_i, ., .) for the 3-form A = exp(-2 phi) T,
    as the coordinate divergence of its density,
    g_xa g_yb (1/sqrt g) d_i (sqrt g A^{iab}): the trace of the held
    ``partial`` of the density primitive (``dilaton_flux_density``, or
    ``flux_density`` without ``gradient``, where the dilaton is constant and
    A = T).  No connection coefficients enter."""
    density = "dilaton_flux_density" if gradient else "flux_density"
    div = (np.einsum("...iiab->...ab", ev.partial(density))
           / ev.sqrt_det_g[..., None, None])
    return slotwise(div, ev.g, 2)


def _string_rows(ev: Evaluation, gradient: bool, sol: str, su_indicator: bool):
    """The string entries as ``(name, lhs - rhs, status)`` rows, in report
    order: for the manifold's own dilaton with ``gradient``, else for a
    constant one, for which eta is the Lee form.  ``sol`` is the status of
    the solution-style rows, ``su_indicator`` whether the SU(n) indicator
    holds."""
    attr = "eta" if gradient else "theta"
    neta = ev.nabla(attr, "bismut")
    lam_j = np.einsum("...xm,...ym->...xy", ev.lam, ev.J)
    einstein = ev.ric_lc - 0.25 * ev.tt2
    flux = ev.codiff("T")
    weight = 1.0
    if gradient:
        einstein = einstein + 2.0 * ev.nabla("dphi", "levi_civita")
        grad = np.einsum("...ij,...j->...i", ev.ginv, ev.dphi)
        flux = flux + 2.0 * interior_product(grad, ev.T, 3)
        weight = np.exp(-2.0 * ev.phi)[..., None, None]
    yield "einstein_equation", einstein, sol
    yield "flux_equation", flux, sol
    eta_equation = neta - 0.25 * lam_j
    if not gradient:
        # the Bismut Ricci tensor itself, and the Lee-form equation
        # (nabla_X theta)Y = lambda(X, JY)/4 equivalent to it when the
        # Bismut Ricci form vanishes: the eta equation with eta = theta
        yield "constant_dilaton_ricci", ev.ric, sol
        yield "constant_dilaton_lee_equation", eta_equation, sol
    neta_t = np.einsum("...xy->...yx", neta)
    yield "eta_equation", eta_equation, sol
    yield "eta_skew_equation", neta - neta_t, sol
    yield "eta_symmetric_equation", neta + neta_t - 0.5 * lam_j, sol
    yield "eta_parallel", neta, sol
    yield "supersymmetric_lee", getattr(ev, attr), ASSERTED if gradient else INFO
    # the divergence form of the flux equation against its interior-product
    # form: with the codifferential convention of this engine,
    #   sum_i (nabla^g_{e_i} (exp(-2 phi) T))(e_i, ., .)
    #       = - exp(-2 phi) (codiff T + 2 i_{grad phi} T)
    yield "flux_divergence_agreement", _weighted_divergence(ev, gradient) + weight * flux, ASSERTED
    # dilaton-independent entries: codiff(T) = d theta - i_{theta#} T,
    # valid when the Bismut Ricci form vanishes, and the Lie derivative
    # of g along the dual of the Lee form
    sharp = np.einsum("...ij,...j->...i", ev.ginv, ev.theta)
    yield ("coclosed_vs_lee", ev.codiff("T") - (ev.dtheta - interior_product(sharp, ev.T, 3)),
           ASSERTED if su_indicator else HYPOTHESIS_FAILED)
    nth = ev.nabla("theta", "levi_civita")
    yield "lee_killing_field", nth + np.einsum("...xy->...yx", nth), INFO if gradient else sol
    if ev.m.dim == 4:
        yield ("conformal_killing_equation",
               neta - 0.5 * ev.codiff("theta")[..., None, None] * ev.g, sol)


def run_string_suite(m: HermitianManifold, pts, step=DEFAULT_STEP,
                     hyp_tol=DEFAULT_CLASSIFY_TOL) -> dict:
    """The string sector of one manifold at the points: a ``StringReport``
    under ``constant_dilaton``, and one under ``gradient_dilaton`` for the
    manifold's own dilaton when it carries one, each the rows of
    ``_string_rows`` over one evaluation, measured in turn.

    Solution-style residuals are asserted only when the manifold passes the
    hypotheses (closed torsion, SU(n) indicator); so is the equivalence
    'vanishing Bismut scalar curvature <=> vanishing Bismut Ricci tensor'
    (``th1_consistency``), which is labeled, never asserted, where they fail.
    The divergence-form agreement is an identity and asserted everywhere.
    The supersymmetry residual |theta - 2 d phi| is asserted for the
    manifold's dilaton and informational for the constant one."""
    ev = evaluation(m, pts, step)

    strong, su = hypothesis_residuals(ev)
    hyp = {"strong_residual": strong, "su_residual": su,
           "strong_kt": strong <= hyp_tol, "su_indicator": su <= hyp_tol,
           "ok": strong <= hyp_tol and su <= hyp_tol}
    sol = ASSERTED if hyp["ok"] else HYPOTHESIS_FAILED

    scal, ric = ev.magnitude("scal"), ev.magnitude("ric")
    th1 = {"hypothesis_ok": hyp["ok"], "hypotheses": hyp,
           "scal_residual": scal, "ric_residual": ric,
           "scal_zero": scal <= TOL_STRING, "ric_zero": ric <= TOL_STRING,
           "label": sol}
    th1["agree"] = (th1["scal_zero"] == th1["ric_zero"]) if hyp["ok"] else None

    dilatons = {"constant_dilaton": False}
    if m.dilaton is not None:
        dilatons["gradient_dilaton"] = True
    reports = {}
    for kind, gradient in dilatons.items():
        entries = [StringEntry(name, ev.residual(name, diff)[0], TOL_STRING, status)
                   for name, diff, status in _string_rows(ev, gradient, sol, hyp["su_indicator"])]
        res = {e.name: e.residual for e in entries}
        reports[kind] = StringReport(
            manifold=m.name, constant_dilaton=not gradient, hypothesis_ok=hyp["ok"],
            einstein_residual=res["einstein_equation"], flux_residual=res["flux_equation"],
            eta=ev.eta if gradient else ev.theta, eta_parallel_residual=res["eta_parallel"],
            susy_theta_residual=res["supersymmetric_lee"], th1_consistency=th1,
            entries=entries)
    return reports
