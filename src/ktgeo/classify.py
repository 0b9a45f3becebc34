"""Structure detection: KT taxonomy flags, the pointwise SU(n)-holonomy
indicator, HKT verification, and the hypotheses of the vanishing statements.

The SU(n) indicator is a *necessary* pointwise condition only: it checks that
the Bismut Ricci form vanishes at every sampled point and that every curvature
endomorphism commutes with J.  Restricted holonomy is a global object; this
module reports evidence, never theorems.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .catalog import HermitianManifold, quaternion_residual
from .errors import PreconditionError
from .identities import Evaluation, evaluation, evaluation_scope
from .tensor_core import DEFAULT_STEP, to_frame

__all__ = [
    "StructureFlags", "HktFlags", "classify", "check_hkt", "hypothesis_residuals",
    "vanishing_hypotheses", "DEFAULT_CLASSIFY_TOL",
]

DEFAULT_CLASSIFY_TOL = 1e-5


def hypothesis_residuals(ev: Evaluation) -> tuple:
    """The strong-KT residual |dT| and the SU(n)-indicator residual
    max(|rho|, |R o J - R|)."""
    return ev.magnitude("dT"), max(ev.magnitude("rho"), ev.magnitude("j_commutator"))


@dataclass(frozen=True)
class HktFlags:
    quaternion_residual: float
    torsion_match_residual: float
    lee_match_residual: float
    tolerance: float

    @property
    def hkt(self) -> bool:
        return max(self.quaternion_residual, self.torsion_match_residual,
                   self.lee_match_residual) <= self.tolerance

    def as_dict(self) -> dict:
        return {"quaternion_residual": self.quaternion_residual,
                "torsion_match_residual": self.torsion_match_residual,
                "lee_match_residual": self.lee_match_residual,
                "tolerance": self.tolerance, "hkt": self.hkt}


@dataclass(frozen=True)
class StructureFlags:
    kahler: bool
    strong_kt: bool
    almost_strong_kt: bool
    balanced: bool
    lck: bool
    su_holonomy_indicator: bool
    residuals: dict
    tolerance: float
    hkt: Optional[HktFlags] = None

    def as_dict(self) -> dict:
        out = {"kahler": self.kahler, "strong_kt": self.strong_kt,
               "almost_strong_kt": self.almost_strong_kt, "balanced": self.balanced,
               "lck": self.lck, "su_holonomy_indicator": self.su_holonomy_indicator,
               "tolerance": self.tolerance,
               "residuals": dict(sorted(self.residuals.items()))}
        out["hkt"] = self.hkt.as_dict() if self.hkt is not None else None
        return out


def classify(m: HermitianManifold, pts, tol: float = DEFAULT_CLASSIFY_TOL,
             step: float = DEFAULT_STEP) -> StructureFlags:
    """Taxonomy flags with their supporting residuals at the sampled points."""
    with evaluation_scope():
        ev = evaluation(m, pts, step)
        res = {name: ev.magnitude(attr) for name, attr in (
            ("torsion", "T"), ("torsion_closure", "dT"), ("lambda_omega", "lam"),
            ("lee_form", "theta"), ("ricci_form", "rho"),
            ("curvature_j_commutator", "j_commutator"))}
        res["lck_defect"] = ev.residual("lck_defect", ev.T - ev.lck_torsion)[0]
        strong, su = hypothesis_residuals(ev)
        hkt = check_hkt(m, pts, tol=tol, step=step) if m.hypercomplex is not None else None

    return StructureFlags(
        kahler=res["torsion"] <= tol,
        strong_kt=strong <= tol,
        almost_strong_kt=res["lambda_omega"] <= tol,
        balanced=res["lee_form"] <= tol,
        lck=res["lck_defect"] <= tol,
        su_holonomy_indicator=su <= tol,
        residuals=res, tolerance=tol, hkt=hkt)


def check_hkt(m: HermitianManifold, pts, tol: float = DEFAULT_CLASSIFY_TOL,
              step: float = DEFAULT_STEP) -> HktFlags:
    """Quaternion relations, common Bismut torsion, and Lee-form equality of
    a hypercomplex triple."""
    if m.hypercomplex is None:
        raise PreconditionError(f"{m.name} carries no hypercomplex triple")
    ev = evaluation(m, pts, step)
    evs = [ev] + [ev.with_structure(j_fn) for j_fn in m.hypercomplex]
    quat = quaternion_residual([e.J for e in evs])
    pairs = [(a, b) for a in range(3) for b in range(a + 1, 3)]
    t_match = max(ev.residual("torsion_match", evs[a].T - evs[b].T)[0] for a, b in pairs)
    l_match = max(ev.residual("lee_match", evs[a].theta - evs[b].theta)[0] for a, b in pairs)
    return HktFlags(quaternion_residual=quat, torsion_match_residual=t_match,
                    lee_match_residual=l_match, tolerance=tol)


def vanishing_hypotheses(m: HermitianManifold, pts, step: float = DEFAULT_STEP) -> dict:
    """Checkable hypotheses of the vanishing statements:

    - ``plurigenera_margin``: min over points of ``b + |C|^2 - h/2`` (the
      plurigenera statement needs this positive);
    - ``quad_form_min_eig``: min eigenvalue over points of the symmetric form
      ``<<X,Y>> = rho^{1,1}(JX,Y) + <i_X C, i_Y C> - lambda(JX,Y)/4``.
    """
    ev = evaluation(m, pts, step)
    margin = float(np.min(ev.b + ev.norm_sq("C") - 0.5 * ev.h))

    quad_f = to_frame(ev.mean_curvature_form, ev.frames, 2)
    quad_f = 0.5 * (quad_f + np.swapaxes(quad_f, -1, -2))
    min_eig = float(np.min(np.linalg.eigvalsh(quad_f)))
    return {"plurigenera_margin": margin, "quad_form_min_eig": min_eig}
