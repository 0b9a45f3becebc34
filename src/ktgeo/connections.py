"""Levi-Civita, Bismut and Chern connections from one point set's fields.

Every function here is a formula over the fields that one evaluation
(``identities.Evaluation``) holds for one point set: the metric, its inverse,
J, the coordinate derivatives ``partial`` of its primitives, the Levi-Civita
coefficients ``koszul`` and the exterior derivative ``dOm`` of the Kaehler
form.  None of them evaluates a chart field or places a stencil; the
evaluation decides where stencils are applied and what is kept.

Coefficient conventions:

- all-lower coefficients ``omega[l,i,j] = g(nabla_{d_i} d_j, d_l)`` add a
  flavor's torsion term to the Levi-Civita ones; each flavor's are a held
  primitive of the evaluation, named in ``COEFFICIENTS``, which the
  curvature differentiates by name like any other primitive; the raised
  coefficients ``Gamma[k,i,j] = g^{kl} omega[l,i,j]`` (``Evaluation.gamma``)
  use a single inversion of g per point;
- the Bismut connection adds half its torsion:  ``g(nabla_X Y, Z) =
  g(nabla^g_X Y, Z) + T(X,Y,Z)/2`` with ``T(X,Y,Z) = -d(omega)(JX,JY,JZ)``;
- the Chern connection adds ``d(omega)(JX,Y,Z)/2``;
- covariant derivatives put the direction slot first:
  ``(nabla t)[i, a1..ap] = (nabla_{d_i} t)(d_{a1},..,d_{ap})``.

The Lee form has three independent expressions: the held codifferential of
the Kaehler form, ``Evaluation.codiff("omega")``, composed with J, which is
the canonical value; the Bismut-torsion trace; and the Chern-torsion trace.
They agree only under the engine's torsion normalizations, codifferential
sign and J-trace orientation, so every report section asserts their
agreement as the row ``lee_form_routes`` (``identities.verify_structure``).
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from .tensor_core import first_slot_matrix, permuted, slotwise

__all__ = [
    "torsion_bismut_values", "torsion_chern_values", "lower_coefficients", "COEFFICIENTS",
    "lee_form_values", "lee_form_routes", "compatibility_residuals",
    "torsion_type_defect",
]


# ---------------------------------------------------------------------------
# torsion three-tensors
# ---------------------------------------------------------------------------

def torsion_bismut_values(ev) -> np.ndarray:
    """Bismut torsion 3-form T(X,Y,Z) = -d(omega)(JX,JY,JZ)."""
    return -slotwise(ev.dOm, ev.J, 3)


def torsion_chern_values(ev) -> np.ndarray:
    """Chern torsion, 2 C(X,Y,Z) = d(omega)(JX,Y,Z) + d(omega)(X,JY,Z)."""
    J, dOm = ev.J, ev.dOm
    return 0.5 * (np.einsum("...ai,...ajk->...ijk", J, dOm)
                  + np.einsum("...bj,...ibk->...ijk", J, dOm))


def torsion_type_defect(ev) -> float:
    """Size of the (3,0)+(0,3) part of T, which must vanish:
    T(JX,JY,Z) + T(JX,Y,JZ) + T(X,JY,JZ) = T(X,Y,Z)."""
    T = ev.T
    lhs = sum(slotwise(T, ev.J, 3, pair) for pair in combinations(range(3), 2))
    return float(np.abs(lhs - T).max())


# ---------------------------------------------------------------------------
# connection coefficients
# ---------------------------------------------------------------------------

# the evaluation's primitive that holds each flavor's all-lower coefficients
COEFFICIENTS = {"levi_civita": "koszul", "bismut": "bismut_coefficients",
                "chern": "chern_coefficients"}


def lower_coefficients(ev, flavor: str) -> np.ndarray:
    """All-lower coefficients omega[l,i,j] for the requested flavor; the
    evaluation holds them as the primitive ``COEFFICIENTS[flavor]``."""
    om = ev.koszul
    if flavor == "levi_civita":
        return om
    if flavor == "bismut":
        return om + 0.5 * permuted(ev.T, "ijl->lij")
    if flavor == "chern":
        # sum_a J[a, i] dOm[a, j, l] as [i, (jl)], read as [l, i, j]
        jdom = ev.J.swapaxes(-1, -2) @ first_slot_matrix(ev.dOm)
        return om + 0.5 * permuted(jdom.reshape(ev.dOm.shape), "ijl->lij")
    raise ValueError(f"unknown connection flavor {flavor!r}")


# ---------------------------------------------------------------------------
# Lee form
# ---------------------------------------------------------------------------

def lee_form_values(ev) -> np.ndarray:
    """The Lee form by the codifferential route, theta(X) = (codiff omega)(JX)."""
    return np.einsum("...bi,...b->...i", ev.J, ev.codiff("omega"))


def lee_form_routes(ev):
    """The Lee form by its three routes, the held ``ev.theta`` first:

    via_codiff:  theta(X) = (codiff omega)(JX)
    via_T:       theta(X) = -1/2 sum_i T(JX, e_i, J e_i)
    via_C:       theta(X) = sum_i C(JX, e_i, J e_i)

    The coefficient of the Chern route is fixed by the torsion normalization
    2 C(X,Y,Z) = d(omega)(JX,Y,Z) + d(omega)(X,JY,Z): expanding the trace
    gives sum_i C(JX,e_i,Je_i) = -1/2 sum_i d(omega)(X,e_i,Je_i), the same
    value as the other two routes.  (A coefficient 1/2 here would undershoot
    by a factor of two; the row ``lee_form_routes`` guards the convention.)
    """
    via_T = -0.5 * np.einsum("...pm,...pab,...ba->...m", ev.J, ev.T, ev.jg)
    via_C = np.einsum("...pm,...pab,...ba->...m", ev.J, ev.C, ev.jg)
    return ev.theta, via_T, via_C


# ---------------------------------------------------------------------------
# structural checks
# ---------------------------------------------------------------------------

def compatibility_residuals(ev, flavor: str) -> dict:
    """Residuals of nabla g = 0 and nabla J = 0 for the given connection."""
    gamma = ev.gamma(flavor)
    nab_g = ev.nabla("g", flavor)
    dJ = ev.partial("J")
    nab_j = (dJ + np.einsum("...kdm,...mj->...dkj", gamma, ev.J)
             - np.einsum("...mdj,...km->...dkj", gamma, ev.J))
    out = {"nabla_g": float(np.abs(nab_g).max()),
           "nabla_j": float(np.abs(nab_j).max())}
    if flavor == "levi_civita":
        out["torsion"] = float(np.abs(gamma - permuted(gamma, "kij->kji")).max())
    return out
