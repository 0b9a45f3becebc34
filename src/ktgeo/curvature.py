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
from .tensor_core import fd_partial, first_slot_matrix

__all__ = [
    "riemann_values", "lambda_omega_values", "ricci_from_curvature", "rho_from_curvature",
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
