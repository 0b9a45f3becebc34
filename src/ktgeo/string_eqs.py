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

import numpy as np

from .classify import DEFAULT_CLASSIFY_TOL, Flags, measure_flags
from .identities import ASSERTED, HYPOTHESIS_FAILED, INFO, Evaluation, measure_rows
from .tensor_core import interior_product, permuted, slotwise

__all__ = ["run_string_suite", "TOL_STRING"]

# the tolerance of every string row, of either order; --tol-identity does not
# reach it
TOL_STRING = 1e-4


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


# the statuses of the rows that rest on a section's hypotheses, which each
# section reads off its own: the solution-style rows, and coclosed_vs_lee,
# which rests on the SU(n) indicator
_SOLUTION, _SU_INDICATOR = "solution", "su_indicator"


def _string_rows(ev: Evaluation, gradient: bool = False):
    """The string entries as ``(name, lhs - rhs, order, status)`` rows, in
    report order: for the manifold's own dilaton with ``gradient``, else for
    a constant one, for which eta is the Lee form.  The status of a
    solution-style row is ``_SOLUTION``, that of ``coclosed_vs_lee``
    ``_SU_INDICATOR``."""
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
    yield "einstein_equation", einstein, 2, _SOLUTION
    yield "flux_equation", flux, 2, _SOLUTION
    eta_equation = neta - 0.25 * lam_j
    if not gradient:
        # the Bismut Ricci tensor itself, and the Lee-form equation
        # (nabla_X theta)Y = lambda(X, JY)/4 equivalent to it when the
        # Bismut Ricci form vanishes: the eta equation with eta = theta
        yield "constant_dilaton_ricci", "ric", 2, _SOLUTION
        yield "constant_dilaton_lee_equation", eta_equation, 2, _SOLUTION
    neta_t = permuted(neta, "xy->yx")
    yield "eta_equation", eta_equation, 2, _SOLUTION
    yield "eta_skew_equation", neta - neta_t, 2, _SOLUTION
    yield "eta_symmetric_equation", neta + neta_t - 0.5 * lam_j, 2, _SOLUTION
    yield "eta_parallel", neta, 2, _SOLUTION
    yield "supersymmetric_lee", attr, 1, ASSERTED if gradient else INFO
    # the divergence form of the flux equation against its interior-product
    # form: with the codifferential convention of this engine,
    #   sum_i (nabla^g_{e_i} (exp(-2 phi) T))(e_i, ., .)
    #       = - exp(-2 phi) (codiff T + 2 i_{grad phi} T)
    yield ("flux_divergence_agreement", _weighted_divergence(ev, gradient) + weight * flux,
           2, ASSERTED)
    # dilaton-independent entries: held primitives, measured once for both dilatons
    yield "coclosed_vs_lee", "coclosure_defect", 2, _SU_INDICATOR
    yield "lee_killing_field", "lee_killing", 2, INFO if gradient else _SOLUTION
    if ev.pts.shape[-1] == 4:
        yield ("conformal_killing_equation",
               neta - 0.5 * ev.codiff("theta")[..., None, None] * ev.g, 2, _SOLUTION)


def _gradient_dilaton_rows(ev: Evaluation):
    """The rows of :func:`_string_rows` for the manifold's own dilaton."""
    return _string_rows(ev, True)


def run_string_suite(ev: Evaluation, hyp_tol=DEFAULT_CLASSIFY_TOL) -> dict:
    """The string sector of the manifold of ``ev`` at its points, under
    ``constant_dilaton``, and under ``gradient_dilaton`` for the manifold's
    own dilaton when it carries one: each a dict of ``constant_dilaton``,
    ``hypothesis_ok``, ``th1_consistency`` and ``entries``, the rows of
    ``_string_rows`` as measured by ``measure_rows`` at ``TOL_STRING``, each
    dilaton's once on the evaluation that holds the values of ``ev``, with
    this section's statuses.  The eta form itself is not reported; it is
    the held primitive ``Evaluation.eta`` (the Lee form for a constant
    dilaton).

    Solution-style residuals are asserted only when the manifold passes the
    hypotheses, closed torsion and the SU(n) indicator, read under ``hyp_tol``
    from their rows of ``classify.FLAGS`` like every flag; so is the equivalence
    'vanishing Bismut scalar curvature <=> vanishing Bismut Ricci tensor'
    (``th1_consistency``), which is labeled, never asserted, where they fail.
    The divergence-form agreement is an identity and asserted everywhere.
    The supersymmetry residual |theta - 2 d phi| is asserted for the
    manifold's dilaton and informational for the constant one."""
    flags = Flags(measure_flags(ev, ("strong_kt", "su_holonomy_indicator")), hyp_tol)
    hyp = {"strong_residual": flags.residual("strong_kt"),
           "su_residual": flags.residual("su_holonomy_indicator"),
           "strong_kt": flags.strong_kt, "su_indicator": flags.su_holonomy_indicator}
    hyp["ok"] = hyp["strong_kt"] and hyp["su_indicator"]
    sol = ASSERTED if hyp["ok"] else HYPOTHESIS_FAILED

    scal, ric = ev.magnitude("scal"), ev.magnitude("ric")
    th1 = {"hypothesis_ok": hyp["ok"], "hypotheses": hyp,
           "scal_residual": scal, "ric_residual": ric,
           "scal_zero": scal <= TOL_STRING, "ric_zero": ric <= TOL_STRING,
           "label": sol}
    th1["agree"] = (th1["scal_zero"] == th1["ric_zero"]) if hyp["ok"] else None

    statuses = {_SOLUTION: sol,
                _SU_INDICATOR: ASSERTED if hyp["su_indicator"] else HYPOTHESIS_FAILED}
    dilatons = {"constant_dilaton": _string_rows}
    if ev.m.dilaton is not None:
        dilatons["gradient_dilaton"] = _gradient_dilaton_rows
    return {kind: {"constant_dilaton": kind == "constant_dilaton", "hypothesis_ok": hyp["ok"],
                   "th1_consistency": th1,
                   "entries": measure_rows(ev, rows, TOL_STRING, TOL_STRING, statuses)}
            for kind, rows in dilatons.items()}
