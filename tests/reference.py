"""A naive twin of ``Evaluation``: the reference that Tier-1 checks the pass
machinery against.

``Reference`` replaces two methods of ``Evaluation`` and keeps every
primitive, row and residual of it.  ``partial`` takes every primitive of
``differentiated`` in one ``fd_partial`` call, over a fresh reference at the
stencil set around the points, one point a row; that reference
differentiates the leaves that ``_first_level`` names, and one level further
down none.  Any other primitive is differentiated alone.  ``_field`` calls
the one chart's field at the points.  The conformal parent and a triple's
other structures are references of their own charts on every row.

So there is no join, view, variant, pass block, merged field call or twin
gather: every stencil point is evaluated where it lies.  That includes the
return point ``(x + s h e_a) - s h e_a``, which the tree reads at ``x``; the
two differ only where ``x_a +- h`` rounds."""

from dataclasses import replace

import numpy as np

from ktgeo.cli import SUITES
from ktgeo.identities import (
    Evaluation, _differentiated, _first_level, _frozen, _member_field, _points,
)
from ktgeo.tensor_core import DEFAULT_STEP, fd_partial


def _reference(m, section, pts, step, depth, differentiated, index=None) -> "Reference":
    """A reference of ``m`` at ``pts``, unchecked, whose failures name
    ``section``; ``index`` gives a variant its rows of its section's."""
    ev = Reference.__new__(Reference)
    ev._start(((m, 0, len(pts), section),), pts, step, depth, differentiated, index)
    return ev


class Reference(Evaluation):
    """The evaluation of ``m`` at ``pts`` for a report of ``suites``, with
    the parents where ``identities`` is one and the structures where
    ``classify`` is, as ``Evaluation.joined`` gives them."""

    def __init__(self, m, pts, step=DEFAULT_STEP, suites=SUITES):
        pts = _points(m, pts, step)
        self._start(((m, 0, len(pts), m.name),), pts, step, 0, _differentiated(m, suites))
        rows = np.arange(len(pts))
        if m.conformal_parent is not None and "identities" in suites:
            self._parents = _reference(m.conformal_parent.parent, m.name, pts, step, 0,
                                       ("g", "omega", "chern_coefficients"), rows)
        if "classify" in suites:
            self._structures = {0: tuple(
                _reference(replace(m, complex_structure=j, hypercomplex=None), m.name, pts,
                           step, 0, ("omega",), rows) for j in m.hypercomplex or ())}

    def partial(self, attr):
        key = ("partial", attr)
        if key not in self._values:
            attrs = self.differentiated if attr in self.differentiated else (attr,)
            m, _, _, section = self.members[0]

            def values(p):
                level = _reference(m, section, p.reshape(-1, p.shape[-1]), self.step,
                                   self._depth + 1, _first_level(self.differentiated))
                return [v.reshape(p.shape[:-1] + v.shape[1:])
                        for v in (getattr(level, a) for a in attrs)]

            for a, df in zip(attrs, fd_partial(values, self.pts, self.step)):
                self._values[("partial", a)] = _frozen(df)
        return self._values[key]

    def _field(self, key):
        m, _, _, section = self.members[0]
        return _member_field(m, section, self.pts, key)
