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
from .classify import DEFAULT_CLASSIFY_TOL
from .identities import Evaluation, evaluation, evaluation_scope
from .tensor_core import DEFAULT_STEP, fd_partial, interior_product

__all__ = [
    "StringEntry", "StringReport", "dilaton_gradient", "string_residual",
    "constant_dilaton_forms", "eta_forms", "verify_th1", "ns1_residual",
    "killing_residual", "flux_divergence_agreement", "solution_hypotheses",
    "run_string_suite", "TOL_STRING",
]

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


def dilaton_gradient(m: HermitianManifold, phi, pts, step=DEFAULT_STEP) -> np.ndarray:
    """d phi as a covariant field; ``phi = None`` means a constant dilaton."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    if phi is None:
        return np.zeros_like(pts)
    return fd_partial(phi, pts, step)


# ---------------------------------------------------------------------------
# the two field equations
# ---------------------------------------------------------------------------

def _flux(ev: Evaluation, phi, step) -> np.ndarray:
    """codiff(T) + 2 i_{grad phi} T, the flux equation's left side."""
    grad = np.einsum("...ij,...j->...i", ev.ginv, dilaton_gradient(ev.m, phi, ev.pts, step))
    return ev.codiff_T + 2.0 * interior_product(grad, ev.T, 3)


def string_residual(m: HermitianManifold, phi, pts, step=DEFAULT_STEP) -> dict:
    """Frame-max residuals of the two field equations at the points."""
    ev = evaluation(m, pts, step)
    if phi is None:
        hess = 0.0
    else:
        hess = ev.nabla(lambda p: fd_partial(phi, p, step), 1, "levi_civita")
    einstein = ev.ric_lc - 0.25 * ev.tt2 + 2.0 * hess
    return {"einstein_residual": ev.residual("einstein_equation", einstein, 2)[0],
            "flux_residual": ev.residual("flux_equation", _flux(ev, phi, step), 2)[0]}


def constant_dilaton_forms(m: HermitianManifold, pts, step=DEFAULT_STEP,
                           tol=DEFAULT_CLASSIFY_TOL) -> dict:
    """Constant-dilaton reformulations: the Bismut Ricci tensor itself, and
    the Lee-form equation (nabla_X theta)Y = lambda(X, JY)/4 which is
    equivalent to it when the Bismut Ricci form vanishes (checked, reported)."""
    ev = evaluation(m, pts, step)
    nth = ev.nabla_theta("bismut")
    st1p = nth - 0.25 * np.einsum("...xm,...ym->...xy", ev.lam, ev.J)
    rho_residual = ev.residual("rho_residual", ev.rho, 2)[0]
    return {"ric_residual": ev.residual("ric_residual", ev.ric, 2)[0],
            "st1prime_residual": ev.residual("st1prime_residual", st1p, 2)[0],
            "lee_parallel_residual": ev.residual("lee_parallel_residual", nth, 2)[0],
            "rho_residual": rho_residual,
            "rho_ok": rho_residual <= tol}


def eta_forms(m: HermitianManifold, phi, pts, step=DEFAULT_STEP) -> dict:
    """The eta = theta - 2 d phi reformulations of the field equations."""
    ev = evaluation(m, pts, step)

    def eta_fn(p):
        return ev.lee_at(p) - 2.0 * dilaton_gradient(m, phi, p, step)

    eta = eta_fn(ev.pts)
    neta = ev.nabla(eta_fn, 1, "bismut")
    lam_j = np.einsum("...xm,...ym->...xy", ev.lam, ev.J)
    neta_t = np.einsum("...xy->...yx", neta)
    measured = {
        "stef_residual": (neta - 0.25 * lam_j, 2),
        "ster_residual": (neta - neta_t, 2),
        "cnew_residual": (neta + neta_t - 0.5 * lam_j, 2),
        "susy_theta_residual": (eta, 1),
        "eta_parallel_residual": (neta, 2),
    }
    if m.dim == 4:
        measured["four2_residual"] = (neta - 0.5 * ev.codiff_theta[..., None, None] * ev.g, 2)
    out = {"eta": eta}
    out.update((name, ev.residual(name, diff, valence)[0])
               for name, (diff, valence) in measured.items())
    return out


# ---------------------------------------------------------------------------
# hypotheses and the scalar-curvature characterization
# ---------------------------------------------------------------------------

def solution_hypotheses(m: HermitianManifold, pts, step=DEFAULT_STEP,
                        tol=DEFAULT_CLASSIFY_TOL) -> dict:
    """Closed torsion and the pointwise SU(n) indicator (vanishing Bismut
    Ricci form + J-commuting curvature endomorphisms)."""
    ev = evaluation(m, pts, step)
    strong = ev.residual("strong_residual", ev.dT, 4)[0]
    su = max(ev.residual("ricci_form", ev.rho, 2)[0],
             ev.residual("curvature_j_commutator", ev.j_commutator, 4)[0])
    return {"strong_residual": strong, "su_residual": su,
            "strong_kt": strong <= tol, "su_indicator": su <= tol,
            "ok": strong <= tol and su <= tol}


def verify_th1(m: HermitianManifold, pts, step=DEFAULT_STEP,
               tol=TOL_STRING, hyp_tol=DEFAULT_CLASSIFY_TOL) -> dict:
    """Equivalence 'vanishing Bismut scalar curvature <=> vanishing Bismut
    Ricci tensor' under the hypotheses (strong KT + SU(n) indicator).  On a
    manifold failing the hypotheses the result is labeled, never asserted."""
    with evaluation_scope():
        ev = evaluation(m, pts, step)
        hyp = solution_hypotheses(m, ev.pts, step, hyp_tol)
        scal_res = ev.residual("scal_residual", ev.scal, 0)[0]
        ric_res = ev.residual("ric_residual", ev.ric, 2)[0]
    out = {"hypothesis_ok": bool(hyp["ok"]), "hypotheses": hyp,
           "scal_residual": scal_res, "ric_residual": ric_res,
           "scal_zero": scal_res <= tol, "ric_zero": ric_res <= tol}
    out["label"] = ASSERTED if hyp["ok"] else HYPOTHESIS_FAILED
    out["agree"] = (out["scal_zero"] == out["ric_zero"]) if hyp["ok"] else None
    return out


# ---------------------------------------------------------------------------
# standing invariants of the string sector
# ---------------------------------------------------------------------------

def ns1_residual(m: HermitianManifold, pts, step=DEFAULT_STEP) -> float:
    """codiff(T) = d theta - i_{theta#} T, valid when the Bismut Ricci form
    vanishes."""
    ev = evaluation(m, pts, step)
    sharp = np.einsum("...ij,...j->...i", ev.ginv, ev.theta)
    rhs = ev.dtheta - interior_product(sharp, ev.T, 3)
    return ev.residual("coclosed_vs_lee", ev.codiff_T - rhs, 2)[0]


def killing_residual(m: HermitianManifold, pts, step=DEFAULT_STEP) -> float:
    """Lie derivative of g along the dual of the Lee form."""
    ev = evaluation(m, pts, step)
    nth = ev.nabla_theta("levi_civita")
    return ev.residual("lee_killing_field", nth + np.einsum("...xy->...yx", nth), 2)[0]


def flux_divergence_agreement(m: HermitianManifold, phi, pts, step=DEFAULT_STEP) -> float:
    """The divergence form of the flux equation against its interior-product
    form.  With the codifferential convention of this engine,

        sum_i (nabla^g_{e_i} (exp(-2 phi) T))(e_i, ., .)
            = - exp(-2 phi) (codiff T + 2 i_{grad phi} T)

    identically; the residual of that equality is returned."""
    ev = evaluation(m, pts, step)

    def weight(p):
        return np.ones(np.asarray(p).shape[:-1]) if phi is None else np.exp(-2.0 * phi(p))

    div_form = -ev.codiff(lambda p: weight(p)[..., None, None, None] * ev.torsion_at(p), 3)
    tensor_form = weight(ev.pts)[..., None, None] * _flux(ev, phi, step)
    return ev.residual("flux_divergence_agreement", div_form + tensor_form, 2)[0]


# ---------------------------------------------------------------------------
# suite driver
# ---------------------------------------------------------------------------

def run_string_suite(m: HermitianManifold, phi, pts, step=DEFAULT_STEP,
                     tol=TOL_STRING, hyp_tol=DEFAULT_CLASSIFY_TOL,
                     susy_asserted: bool = False) -> StringReport:
    """Evaluate the full string sector for one dilaton choice.

    Solution-style residuals are asserted only when the manifold passes the
    hypotheses (closed torsion, SU(n) indicator); identity-style residuals
    (the divergence-form agreement) are asserted everywhere.  The
    supersymmetry residual |theta - 2 d phi| is asserted only when
    ``susy_asserted`` (it is informational for generic dilatons)."""
    with evaluation_scope():
        hyp = solution_hypotheses(m, pts, step, hyp_tol)
        sol_status = ASSERTED if hyp["ok"] else HYPOTHESIS_FAILED

        eq = string_residual(m, phi, pts, step)
        cdf = constant_dilaton_forms(m, pts, step, hyp_tol)
        ef = eta_forms(m, phi, pts, step)
        th1 = verify_th1(m, pts, step, tol, hyp_tol)

        entries = [
            StringEntry("einstein_equation", eq["einstein_residual"], tol, sol_status),
            StringEntry("flux_equation", eq["flux_residual"], tol, sol_status),
            StringEntry("eta_equation", ef["stef_residual"], tol, sol_status),
            StringEntry("eta_skew_equation", ef["ster_residual"], tol, sol_status),
            StringEntry("eta_symmetric_equation", ef["cnew_residual"], tol, sol_status),
            StringEntry("eta_parallel", ef["eta_parallel_residual"], tol,
                        sol_status if hyp["ok"] else HYPOTHESIS_FAILED),
            StringEntry("supersymmetric_lee", ef["susy_theta_residual"], tol,
                        ASSERTED if susy_asserted else INFO),
            StringEntry("flux_divergence_agreement",
                        flux_divergence_agreement(m, phi, pts, step), tol, ASSERTED),
            StringEntry("coclosed_vs_lee",
                        ns1_residual(m, pts, step), tol,
                        ASSERTED if hyp["su_indicator"] else HYPOTHESIS_FAILED),
            StringEntry("lee_killing_field", killing_residual(m, pts, step), tol,
                        sol_status if phi is None else INFO),
        ]
        if phi is None:
            entries.insert(2, StringEntry("constant_dilaton_ricci", cdf["ric_residual"],
                                          tol, sol_status))
            entries.insert(3, StringEntry("constant_dilaton_lee_equation",
                                          cdf["st1prime_residual"], tol, sol_status))
        if "four2_residual" in ef:
            entries.append(StringEntry("conformal_killing_equation", ef["four2_residual"],
                                       tol, sol_status))

        return StringReport(
            manifold=m.name, constant_dilaton=phi is None,
            hypothesis_ok=bool(hyp["ok"]),
            einstein_residual=eq["einstein_residual"],
            flux_residual=eq["flux_residual"],
            eta=ef["eta"],
            eta_parallel_residual=ef["eta_parallel_residual"],
            susy_theta_residual=ef["susy_theta_residual"],
            th1_consistency=th1, entries=entries)
