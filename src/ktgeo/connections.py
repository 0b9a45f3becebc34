"""Levi-Civita, Bismut and Chern connections from chart data.

Coefficient conventions:

- all-lower coefficients ``omega[l,i,j] = g(nabla_{d_i} d_j, d_l)`` are built
  by Koszul-style formulas from one metric stencil; the raised coefficients
  ``Gamma[k,i,j] = g^{kl} omega[l,i,j]`` use a single inversion of g per point;
- the Bismut connection adds half its torsion:  ``g(nabla_X Y, Z) =
  g(nabla^g_X Y, Z) + T(X,Y,Z)/2`` with ``T(X,Y,Z) = -d(omega)(JX,JY,JZ)``;
- the Chern connection adds ``d(omega)(JX,Y,Z)/2``;
- covariant derivatives put the direction slot first:
  ``(nabla t)[i, a1..ap] = (nabla_{d_i} t)(d_{a1},..,d_{ap})``.

The Lee form is computed through three independent expressions (codifferential
of the Kaehler form composed with J, Bismut-torsion trace, Chern-torsion
trace); their mutual agreement is a standing convention check and the
codifferential route is the canonical value.
"""

from __future__ import annotations

import numpy as np

from .catalog import HermitianManifold
from .errors import ConventionError
from .tensor_core import (
    DEFAULT_STEP, codifferential_values, covariant_derivative_values,
    exterior_derivative_values, fd_partial, j_trace_matrix, koszul_values,
    metric_inverse,
)

__all__ = [
    "torsion_bismut_values", "torsion_chern_values", "lower_coefficients",
    "coefficient_values", "lee_form_values", "lee_form_routes",
    "compatibility_residuals", "torsion_type_defect",
]


# ---------------------------------------------------------------------------
# torsion three-tensors
# ---------------------------------------------------------------------------

def torsion_bismut_values(m: HermitianManifold, points, step=DEFAULT_STEP) -> np.ndarray:
    """Bismut torsion 3-form T(X,Y,Z) = -d(omega)(JX,JY,JZ)."""
    dOm = exterior_derivative_values(m.kahler_form, points, 2, step)
    J = m.complex_structure(points)
    return -np.einsum("...ai,...bj,...ck,...abc->...ijk", J, J, J, dOm)


def torsion_chern_values(m: HermitianManifold, points, step=DEFAULT_STEP) -> np.ndarray:
    """Chern torsion, 2 C(X,Y,Z) = d(omega)(JX,Y,Z) + d(omega)(X,JY,Z)."""
    dOm = exterior_derivative_values(m.kahler_form, points, 2, step)
    J = m.complex_structure(points)
    return 0.5 * (np.einsum("...ai,...ajk->...ijk", J, dOm)
                  + np.einsum("...bj,...ibk->...ijk", J, dOm))


def torsion_type_defect(m: HermitianManifold, points, step=DEFAULT_STEP) -> float:
    """Size of the (3,0)+(0,3) part of T, which must vanish:
    T(JX,JY,Z) + T(JX,Y,JZ) + T(X,JY,JZ) = T(X,Y,Z)."""
    T = torsion_bismut_values(m, points, step)
    J = m.complex_structure(points)
    lhs = (np.einsum("...ai,...bj,...abk->...ijk", J, J, T)
           + np.einsum("...ai,...ck,...ajc->...ijk", J, J, T)
           + np.einsum("...bj,...ck,...ibc->...ijk", J, J, T))
    return float(np.max(np.abs(lhs - T)))


# ---------------------------------------------------------------------------
# connection coefficients
# ---------------------------------------------------------------------------

def lower_coefficients(m: HermitianManifold, flavor: str, points,
                       step=DEFAULT_STEP) -> np.ndarray:
    """All-lower coefficients omega[l,i,j] for the requested flavor."""
    om = koszul_values(fd_partial(m.metric, points, step))
    if flavor == "levi_civita":
        return om
    if flavor == "bismut":
        T = torsion_bismut_values(m, points, step)
        return om + 0.5 * np.einsum("...ijl->...lij", T)
    if flavor == "chern":
        dOm = exterior_derivative_values(m.kahler_form, points, 2, step)
        J = m.complex_structure(points)
        return om + 0.5 * np.einsum("...ai,...ajl->...lij", J, dOm)
    raise ValueError(f"unknown connection flavor {flavor!r}")


def coefficient_values(m: HermitianManifold, flavor: str, points,
                       step=DEFAULT_STEP) -> np.ndarray:
    """Raised coefficients Gamma[k,i,j]."""
    om = lower_coefficients(m, flavor, points, step)
    ginv = metric_inverse(m.metric(points))
    return np.einsum("...kl,...lij->...kij", ginv, om)


# ---------------------------------------------------------------------------
# Lee form
# ---------------------------------------------------------------------------

def lee_form_routes(m: HermitianManifold, points, step=DEFAULT_STEP):
    """The three expressions for the Lee form, evaluated independently:

    via_codiff:  theta(X) = (codiff omega)(JX)
    via_T:       theta(X) = -1/2 sum_i T(JX, e_i, J e_i)
    via_C:       theta(X) = sum_i C(JX, e_i, J e_i)

    The coefficient of the Chern route is fixed by the torsion normalization
    2 C(X,Y,Z) = d(omega)(JX,Y,Z) + d(omega)(X,JY,Z): expanding the trace
    gives sum_i C(JX,e_i,Je_i) = -1/2 sum_i d(omega)(X,e_i,Je_i), the same
    value as the other two routes.  (A coefficient 1/2 here would undershoot
    by a factor of two; the agreement check below guards the convention.)
    """
    J = m.complex_structure(points)
    jg = j_trace_matrix(J, metric_inverse(m.metric(points)))
    via_codiff = _lee_via_codiff(m, points, step)

    T = torsion_bismut_values(m, points, step)
    via_T = -0.5 * np.einsum("...pm,...pab,...ba->...m", J, T, jg)

    C = torsion_chern_values(m, points, step)
    via_C = np.einsum("...pm,...pab,...ba->...m", J, C, jg)
    return via_codiff, via_T, via_C


def _lee_via_codiff(m: HermitianManifold, points, step) -> np.ndarray:
    cod = codifferential_values(m.metric, m.kahler_form, 2, points, step)
    return np.einsum("...bi,...b->...i", m.complex_structure(points), cod)


def lee_form_values(m: HermitianManifold, points, step=DEFAULT_STEP,
                    check: bool = True, tol: float = 1e-5) -> np.ndarray:
    """The Lee form by the canonical codifferential route; with ``check`` the
    two torsion-trace routes are evaluated as well and must agree."""
    if not check:
        return _lee_via_codiff(m, points, step)
    via_codiff, via_T, via_C = lee_form_routes(m, points, step)
    spread = max(float(np.max(np.abs(via_codiff - via_T))),
                 float(np.max(np.abs(via_codiff - via_C))))
    if spread > tol:
        raise ConventionError(
            "Lee form routes disagree beyond tolerance "
            f"({spread:.3e} > {tol:.1e}); values: codiff={via_codiff!r}, "
            f"torsion={via_T!r}, chern={via_C!r}")
    return via_codiff


# ---------------------------------------------------------------------------
# structural checks
# ---------------------------------------------------------------------------

def compatibility_residuals(m: HermitianManifold, flavor: str, points,
                            step=DEFAULT_STEP) -> dict:
    """Residuals of nabla g = 0 and nabla J = 0 for the given connection."""
    gamma = coefficient_values(m, flavor, points, step)
    nab_g = covariant_derivative_values(m.metric, 2, points, gamma, step)
    J = m.complex_structure(points)
    dJ = fd_partial(m.complex_structure, points, step)
    nab_j = (dJ + np.einsum("...kdm,...mj->...dkj", gamma, J)
             - np.einsum("...mdj,...km->...dkj", gamma, J))
    out = {"nabla_g": float(np.max(np.abs(nab_g))),
           "nabla_j": float(np.max(np.abs(nab_j)))}
    if flavor == "levi_civita":
        out["torsion"] = float(np.max(np.abs(gamma - np.einsum("...kij->...kji", gamma))))
    return out
