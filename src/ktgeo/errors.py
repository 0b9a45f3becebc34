"""Exception hierarchy shared by the whole engine: an exception means that a
report cannot be computed; a failed check is a failed row, never an exception."""


class GeometryError(Exception):
    """Base class for every failure raised by this package."""


class ChartDomainError(GeometryError):
    """A point (or a finite-difference stencil around it) leaves the chart domain."""


class ContractViolationError(GeometryError):
    """An argument violates an operation contract (e.g. a non-form where a form is required)."""


class PreconditionError(GeometryError):
    """A declared precondition of an operation does not hold for the given manifold."""


class NumericError(GeometryError):
    """Numerical degeneracy: non-SPD metric, vanishing volume element, and similar."""


class UnknownManifoldError(KeyError, GeometryError):
    """Requested catalog entry does not exist."""
