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

from .catalog import HermitianManifold, quaternion_residual
from .errors import PreconditionError
from .identities import Evaluation
from .tensor_core import DEFAULT_STEP

__all__ = ["FLAGS", "IMPLICATIONS", "Flags", "StructureFlags", "HktFlags", "classify",
           "structure_flags", "check_hkt", "measure_flags", "vanishing_hypotheses",
           "DEFAULT_CLASSIFY_TOL"]

DEFAULT_CLASSIFY_TOL = 1e-5

# The table of the taxonomy flags, the HKT bit and the string hypotheses: each
# flag, in report order, the residuals it reads and the held primitive each is
# the magnitude of (the HKT ones compare a triple's structures; check_hkt).  One
# rule reads it: a flag holds when the largest residual it reads is within the tolerance.
FLAGS = {
    "kahler": {"torsion": "T"},
    "strong_kt": {"torsion_closure": "dT"},
    "almost_strong_kt": {"lambda_omega": "lam"},
    "balanced": {"lee_form": "theta"},
    # locally conformally Kaehler: T = J theta ^ omega / (n-1), d theta = 0
    "lck": {"lck_defect": "lck_defect", "lee_form_closure": "dtheta"},
    "su_holonomy_indicator": {"ricci_form": "rho", "curvature_j_commutator": "j_commutator"},
    "hkt": dict.fromkeys(("quaternion_residual", "torsion_match_residual",
                          "lee_match_residual")),
}
TAXONOMY = tuple(flag for flag in FLAGS if flag != "hkt")
# Kaehler => strong => almost strong, as (premise, consequence) pairs
IMPLICATIONS = (("kahler", "strong_kt"), ("strong_kt", "almost_strong_kt"))


@dataclass(frozen=True)
class Flags:
    """Residuals under one tolerance; each flag of ``FLAGS`` reads as a bool."""
    residuals: dict
    tolerance: float

    def residual(self, flag: str) -> float:
        """The largest residual ``flag`` reads."""
        return max(self.residuals[name] for name in FLAGS[flag])

    def __getattr__(self, flag: str) -> bool:
        if flag not in FLAGS:
            raise AttributeError(flag)
        return self.residual(flag) <= self.tolerance


@dataclass(frozen=True)
class HktFlags(Flags):
    """The residuals of the ``hkt`` row of ``FLAGS``."""
    def as_dict(self) -> dict:
        return {**self.residuals, "tolerance": self.tolerance, "hkt": self.hkt}


@dataclass(frozen=True)
class StructureFlags(Flags):
    """The taxonomy rows' residuals of ``FLAGS``, and the HKT block of a triple."""
    hkt: Optional[HktFlags] = None

    @property
    def taxonomy_implications(self) -> bool:
        """Whether the flags satisfy every implication of ``IMPLICATIONS``."""
        return all(getattr(self, then) for given, then in IMPLICATIONS if getattr(self, given))

    def as_dict(self) -> dict:
        return {**{flag: getattr(self, flag) for flag in TAXONOMY}, "tolerance": self.tolerance,
                "residuals": dict(sorted(self.residuals.items())),
                "hkt": self.hkt.as_dict() if self.hkt is not None else None}


def measure_flags(ev: Evaluation, flags=TAXONOMY) -> dict:
    """The residuals the taxonomy ``flags`` read, each the held magnitude of
    its primitive on ``ev``: a view reads its section's off the measure of
    the joined evaluation, which takes one frame transform for all sections."""
    return {name: ev.magnitude(attr) for flag in flags for name, attr in FLAGS[flag].items()}


def structure_flags(ev: Evaluation, tol: float = DEFAULT_CLASSIFY_TOL) -> StructureFlags:
    """Taxonomy flags with their supporting residuals on ``ev``; every flag,
    and the HKT bit of a triple, is measured and read from its row of
    ``FLAGS`` under ``tol``, none from the manifold's declaration."""
    res = measure_flags(ev)
    hkt = check_hkt(ev, tol) if ev.m.hypercomplex is not None else None
    return StructureFlags(res, tol, hkt)


def classify(m: HermitianManifold, pts, tol: float = DEFAULT_CLASSIFY_TOL,
             step: float = DEFAULT_STEP) -> StructureFlags:
    """The :func:`structure_flags` of ``m`` at the sampled points, on the
    evaluation a report of ``classify`` alone reads: it differentiates only
    what the flags read, and makes no conformal parent."""
    return structure_flags(Evaluation.joined([(m, pts)], step, ("classify",))[0], tol)


def check_hkt(ev: Evaluation, tol: float = DEFAULT_CLASSIFY_TOL) -> HktFlags:
    """Quaternion relations, common Bismut torsion, and Lee-form equality of
    the hypercomplex triple of the manifold of ``ev``.  The triple's other
    structures are evaluations that ``Evaluation.joined`` made with ``ev``
    for ``classify`` and that only this check reads: they join the stencil
    pass of ``ev`` and read its metric-only values, whichever of them is
    read first."""
    m = ev.m
    if m.hypercomplex is None:
        raise PreconditionError(f"{m.name} carries no hypercomplex triple")
    evs = [ev, *ev._other_structures()]
    quat = quaternion_residual([e.J for e in evs])
    pairs = [(a, b) for a in range(3) for b in range(a + 1, 3)]
    t_match = max(ev.residual("torsion_match", evs[a].T - evs[b].T)[0] for a, b in pairs)
    l_match = max(ev.residual("lee_match", evs[a].theta - evs[b].theta)[0] for a, b in pairs)
    return HktFlags(dict(zip(FLAGS["hkt"], (quat, t_match, l_match))), tol)


def vanishing_hypotheses(ev: Evaluation) -> dict:
    """Checkable hypotheses of the vanishing statements on ``ev``:

    - ``plurigenera_margin``: min over points of ``b + |C|^2 - h/2`` (the
      plurigenera statement needs this positive);
    - ``quad_form_min_eig``: min eigenvalue over points of the symmetric form
      ``<<X,Y>> = rho^{1,1}(JX,Y) + <i_X C, i_Y C> - lambda(JX,Y)/4``.

    Both are minima of held values, so a view takes them over its rows of
    the joined evaluation's.
    """
    return {"plurigenera_margin": float(ev.mean_curvature_trace.min()),
            "quad_form_min_eig": float(ev.quad_form_eig.min())}
