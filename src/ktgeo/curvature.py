"""Curvature tensors of the three connections and every derived trace.

Sign and trace conventions (shared with the rest of the engine):

- ``R(X,Y)Z = nabla_X nabla_Y Z - nabla_Y nabla_X Z - nabla_{[X,Y]} Z`` and
  the (0,4) tensor is ``R(X,Y,Z,V) = g(R(X,Y) Z, V)``; with these choices the
  unit round sphere has positive sectional curvature ``R(X,Y,Y,X) = +1``.
- ``Ric(X,Y) = sum_i R(e_i, X, Y, e_i)`` and ``Scal = sum_j Ric(e_j, e_j)``.
- Ricci forms: ``rho(X,Y) = 1/2 sum_i R(X,Y,e_i,J e_i)`` for the Bismut
  curvature R; ``rho_chern`` and ``kappa`` take the same half-trace of the
  Chern curvature K on the last and the first index pair respectively.
- J-traces of 2-forms use the orientation ``sum_i a(J e_i, e_i)``:
  ``b = jtr(rho)``, ``2 u = jtr(kappa)``, ``2 h = jtr(lambda_omega)``, with
  ``lambda_omega(X,Y) = sum_i dT(X,Y,e_i,J e_i)``.

Curvature is obtained by differentiating coefficient fields (one nested
central-difference stencil), never by transporting frames around loops; the
all-lower Koszul form keeps the only metric inversion at the base point.
With ``omega[l,i,j] = g(nabla_{d_i} d_j, d_l)`` the curvature is
``R[i,j,k,l] = D_i omega[l,j,k] - omega[m,i,l] Gamma[m,j,k] - (i <-> j)``:
for a metric connection ``g(nabla_i nabla_j d_k, d_l) = D_i omega[l,j,k] -
g(nabla_j d_k, nabla_i d_l)``, so no metric derivative is read.  Every flavor
is metric, exactly for the Koszul coefficients and to roundoff for the Bismut
and Chern torsion terms, which are antisymmetric in their last pair.

Every function here reads the fields that one evaluation
(``identities.Evaluation``) holds for one point set, and evaluates no chart
field.  The evaluation calls each once per point set and shares the result;
the two sides of an identity stay independent because they are built from
different formulas.
"""

from __future__ import annotations

import numpy as np

from .connections import lower_coefficients
from .errors import PreconditionError
from .tensor_core import fd_partial, first_slot_matrix, levi_civita_symbol, slotwise

__all__ = [
    "riemann_values", "lambda_omega_values", "weyl_selfdual_values",
    "ricci_from_curvature", "rho_from_curvature",
]


def riemann_values(ev, flavor: str) -> np.ndarray:
    """Lowered curvature R[i,j,k,l] = R(d_i, d_j, d_k, d_l) of a flavor, by
    the three-term formula of the module docstring."""
    dom = fd_partial(lambda p: lower_coefficients(ev.at(p), flavor),
                     ev.pts, ev.step)                 # dom[d, l, i, j]
    # omega[m, i, l] Gamma[m, j, k] as [(il), (jk)]: one product per point
    quad = (np.swapaxes(first_slot_matrix(lower_coefficients(ev, flavor)), -1, -2)
            @ first_slot_matrix(ev.gamma(flavor)))
    a = np.moveaxis(dom - quad.reshape(dom.shape), -3, -1)   # [i, l, j, k] -> [i, j, k, l]
    return a - np.swapaxes(a, -4, -3)


def ricci_from_curvature(r: np.ndarray, ginv: np.ndarray) -> np.ndarray:
    """Ric[x,y] = sum_i R(e_i, x, y, e_i)."""
    return np.einsum("...il,...ixyl->...xy", ginv, r)


def rho_from_curvature(r: np.ndarray, jg: np.ndarray) -> np.ndarray:
    """Half J-trace on the last index pair: 1/2 sum_i R(.,.,e_i,J e_i)."""
    return 0.5 * np.einsum("...xyab,...ba->...xy", r, jg)


def lambda_omega_values(dT: np.ndarray, jg: np.ndarray):
    """lambda_omega and its scalar half-J-trace h, from the exterior
    derivative ``dT`` of the Bismut torsion and the J-trace matrix at the
    same points."""
    lam = np.einsum("...xyab,...ba->...xy", dT, jg)
    h = 0.5 * np.einsum("...mn,...mn->...", lam, jg)
    return lam, h


# ---------------------------------------------------------------------------
# Weyl tensor and its self-dual part (dimension 4)
# ---------------------------------------------------------------------------

def _kulkarni_nomizu(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kulkarni-Nomizu product matched to this module's slot order, i.e. the
    unit sphere curvature is ``(g kn g)/2``."""
    return (np.einsum("...jk,...il->...ijkl", a, b)
            + np.einsum("...il,...jk->...ijkl", a, b)
            - np.einsum("...ik,...jl->...ijkl", a, b)
            - np.einsum("...jl,...ik->...ijkl", a, b))


def _two_form_operator_compose(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(A o B)[i,j,k,l] with the 1/2 pairing of 2-form operator calculus."""
    return 0.5 * np.einsum("...ijab,...abkl->...ijkl", a, b)


def weyl_selfdual_values(ev):
    """Weyl tensor of the Levi-Civita curvature, its self-dual part on the
    last index pair sandwich, and the conformal scalar
    ``k = <3 W+(omega), omega>``.  Dimension 4 only."""
    if ev.m.dim != 4:
        raise PreconditionError("self-dual Weyl decomposition requires dimension 4")
    g, ginv = ev.g, ev.ginv
    r = ev.riemann("levi_civita")
    ric = ev.ric_lc
    ric = 0.5 * (ric + np.einsum("...xy->...yx", ric))
    scal = np.einsum("...mn,...mn->...", ric, ginv)
    n = 4
    ric0 = ric - (scal / n)[..., None, None] * g
    weyl = (r - _kulkarni_nomizu(ric0, g) / (n - 2)
            - (scal / (2 * n * (n - 1)))[..., None, None, None, None] * _kulkarni_nomizu(g, g))

    # plus projector 1/2 (Id + *) acting on 2-form index pairs; operators A
    # act through the half pairing (A alpha)[i,j] = A[i,j,a,b] alpha[a,b] / 2,
    # so Id[i,j,a,b] = d_ia d_jb - d_ib d_ja and Star[i,j,a,b] carries no 1/2.
    eye = np.eye(4)
    ident = (np.einsum("ik,jl->ijkl", eye, eye) - np.einsum("il,jk->ijkl", eye, eye))
    eps = levi_civita_symbol(4)
    sqrtg = np.sqrt(np.linalg.det(g))
    # eps[c,d,i,j] = eps[i,j,c,d], so raising the last pair gives Star[i,j,a,b]
    star2 = sqrtg[..., None, None, None, None] * slotwise(eps, ginv, 4, (2, 3))
    pplus = 0.5 * (ident + star2)
    wplus = _two_form_operator_compose(pplus, _two_form_operator_compose(weyl, pplus))

    omega_up = slotwise(ev.omega, ginv, 2)
    w_of_omega = 0.5 * np.einsum("...ijab,...ab->...ij", wplus, omega_up)
    k = 3 * 0.5 * np.einsum("...ij,...ij->...", w_of_omega, omega_up)
    return weyl, wplus, k
