"""Numerical curvature engine for Hermitian manifolds with skew torsion.

Computes the Levi-Civita, Bismut and Chern connections of chart-described
Hermitian manifolds, all derived curvature objects, and verifies the
pointwise identity web relating them; classifies KT-type structures and
evaluates the string background equations on a catalog of example geometries.
"""

__version__ = "0.2.0"

from .catalog import (
    HermitianManifold, catalog_names, conformal_rescale, get_manifold,
    register_manifold,
)
from .classify import StructureFlags, check_hkt, structure_flags, vanishing_hypotheses
from .errors import (
    ChartDomainError, ContractViolationError, GeometryError, NumericError,
    PreconditionError, UnknownManifoldError,
)
from .identities import (
    Evaluation, Row, run_identity_suite, verify_conformal_trace, verify_dim4,
    verify_structure,
)
from .string_eqs import run_string_suite
