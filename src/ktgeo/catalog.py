"""Built-in chart descriptions of the example geometries.

Every entry is an immutable :class:`HermitianManifold` whose metric and
complex-structure fields are batched pure functions of chart points.  The
catalog ships:

``flat_torus_4`` / ``flat_torus_6``
    Flat Kaehler tori, identity metric, constant block complex structure.
``hopf_standard``
    The annulus chart 0.5 <= r <= 2 of C^2 minus the origin with
    g = delta / r^2: the locally conformally flat Kaehler structure on the
    standard Hopf geometry (a cylinder over the unit 3-sphere).
``su2xu1``
    A bi-invariant metric on SU(2) x U(1) in an Euler-angle chart, with the
    left-invariant complex structure J sigma_1 = sigma_2, J sigma_3 = dt.
    The sigma coframe is scaled so the SU(2) factor is the *unit* round
    3-sphere, which makes this chart isometric to ``hopf_standard``.
``hopf_hkt``
    Same metric as ``hopf_standard`` with the quaternionic triple coming
    from left multiplication by (i, k, j)-signed units on H minus 0.
``conf_torus_4`` / ``conf_torus_6``
    Globally conformally Kaehler tori, g = exp(2 f) delta with
    f = 0.3 sin(x1) cos(x2).

Conventions:  the Kaehler form is ``omega(X, Y) = g(X, JY)`` and the constant
block J is chosen so that on flat charts ``omega = + sum dx_i ^ dy_i``; chart
coordinate order therefore agrees with the complex orientation on every
four-dimensional entry.  ``conformal_rescale`` multiplies the metric by
``exp(2 f)`` (so a catalog factor f corresponds to the factor 2 f in any
convention that rescales by ``exp(f)``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .errors import ChartDomainError, NumericError, PreconditionError, UnknownManifoldError
from .tensor_core import DEFAULT_STEP, fd_partial, levi_civita_symbol, slotwise

__all__ = [
    "Chart", "BoxChart", "AnnulusChart", "ConformalParent", "HermitianManifold",
    "get_manifold", "catalog_names", "register_manifold", "conformal_rescale",
    "hermitian_residuals", "quaternion_residual",
]


# ---------------------------------------------------------------------------
# charts
# ---------------------------------------------------------------------------

class Chart:
    """Sampling window + interiority test for a coordinate chart."""

    def sample(self, rng: np.random.Generator, n: int, margin: float) -> np.ndarray:
        raise NotImplementedError

    def interior_mask(self, points: np.ndarray, margin: float) -> np.ndarray:
        raise NotImplementedError

    def require_interior(self, points: np.ndarray, margin: float) -> None:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        ok = self.interior_mask(pts.reshape(-1, pts.shape[-1]), margin)
        if not np.all(ok):
            bad = pts.reshape(-1, pts.shape[-1])[~ok][0]
            raise ChartDomainError(
                f"point {bad.tolist()} closer than {margin} to the chart boundary")

    def describe(self) -> dict:
        raise NotImplementedError


@dataclass(frozen=True)
class BoxChart(Chart):
    """Coordinate box.  ``tight_axes`` lists the coordinates with a genuine
    chart boundary (margins are enforced there); the remaining axes are
    periodic or unbounded directions of a globally smooth field, where a
    stencil can never leave the domain."""

    lows: tuple
    highs: tuple
    tight_axes: tuple = ()

    @property
    def dim(self) -> int:
        return len(self.lows)

    def sample(self, rng, n, margin):
        lo = np.array(self.lows, dtype=float)
        hi = np.array(self.highs, dtype=float)
        for ax in self.tight_axes:
            lo[ax] += margin
            hi[ax] -= margin
        if np.any(hi <= lo):
            raise PreconditionError("margin leaves an empty sampling window")
        return lo + (hi - lo) * rng.random((n, self.dim))

    def interior_mask(self, points, margin):
        pts = np.asarray(points, dtype=float)
        ok = np.ones(pts.shape[:-1], dtype=bool)
        for ax in self.tight_axes:
            ok &= (pts[..., ax] >= self.lows[ax] + margin) & (pts[..., ax] <= self.highs[ax] - margin)
        return ok

    def describe(self):
        return {"kind": "box", "lows": list(self.lows), "highs": list(self.highs),
                "tight_axes": list(self.tight_axes)}


@dataclass(frozen=True)
class AnnulusChart(Chart):
    """Radial annulus r_min <= |x| <= r_max in R^dim."""

    dim: int
    r_min: float
    r_max: float

    def sample(self, rng, n, margin):
        lo, hi = self.r_min + margin, self.r_max - margin
        if hi <= lo:
            raise PreconditionError("margin leaves an empty annulus")
        # uniform radius, uniform direction: deterministic given the generator
        direction = rng.standard_normal((n, self.dim))
        direction /= np.linalg.norm(direction, axis=-1, keepdims=True)
        r = lo + (hi - lo) * rng.random((n, 1))
        return direction * r

    def interior_mask(self, points, margin):
        r = np.linalg.norm(np.asarray(points, dtype=float), axis=-1)
        return (r >= self.r_min + margin) & (r <= self.r_max - margin)

    def describe(self):
        return {"kind": "annulus", "r_min": self.r_min, "r_max": self.r_max}


# ---------------------------------------------------------------------------
# manifolds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConformalParent:
    parent: "HermitianManifold"
    log_factor: Callable[[np.ndarray], np.ndarray]  # metric = exp(2 f) * parent metric


@dataclass(frozen=True)
class HermitianManifold:
    name: str
    dim: int
    chart: Chart
    metric: Callable[[np.ndarray], np.ndarray]
    complex_structure: Callable[[np.ndarray], np.ndarray]
    dilaton: Optional[Callable[[np.ndarray], np.ndarray]] = None
    hypercomplex: Optional[tuple] = None  # (J2, J3) fields
    conformal_parent: Optional[ConformalParent] = None
    lck: bool = False  # declared: torsion has the conformally-Kaehler form

    def sample_points(self, n: int, seed: int, margin: float = 0.05) -> np.ndarray:
        """Deterministic chart sample: counter-based generator keyed by
        (seed, manifold name)."""
        import zlib
        ss = np.random.SeedSequence([seed, zlib.crc32(self.name.encode())])
        rng = np.random.Generator(np.random.Philox(ss))
        return self.chart.sample(rng, n, margin)


# ---------------------------------------------------------------------------
# field constructors
# ---------------------------------------------------------------------------

def _block_j(dim: int) -> np.ndarray:
    """Constant complex structure with J d/dy = d/dx, J d/dx = -d/dy per
    complex line, i.e. omega = + sum dx_i ^ dy_i against the flat metric."""
    j2 = np.array([[0.0, 1.0], [-1.0, 0.0]])
    out = np.zeros((dim, dim))
    for k in range(dim // 2):
        out[2 * k: 2 * k + 2, 2 * k: 2 * k + 2] = j2
    return out


def _const_field(matrix: np.ndarray):
    def fn(points):
        pts = np.asarray(points, dtype=float)
        return np.broadcast_to(matrix, pts.shape[:-1] + matrix.shape).copy()
    return fn


def _flat_metric(dim: int):
    return _const_field(np.eye(dim))


def _torus_chart(dim: int) -> BoxChart:
    return BoxChart(lows=(0.0,) * dim, highs=(2 * np.pi,) * dim)


def _conf_factor(points):
    pts = np.asarray(points, dtype=float)
    return 0.3 * np.sin(pts[..., 0]) * np.cos(pts[..., 2])


def _hopf_chart() -> AnnulusChart:
    return AnnulusChart(dim=4, r_min=0.5, r_max=2.0)


def _hopf_log_factor(points):
    pts = np.asarray(points, dtype=float)
    return -0.5 * np.log(np.sum(pts * pts, axis=-1))


# left quaternion multiplications on H = R^4 with basis (1, i, j, k); the
# catalog triple is (-L_i, -L_k, -L_j) so that J_a J_b = -delta_ab + eps_abc J_c.
_L_I = np.array([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]], dtype=float)
_L_J = np.array([[0, 0, -1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, -1, 0, 0]], dtype=float)
_L_K = np.array([[0, 0, 0, -1], [0, 0, -1, 0], [0, 1, 0, 0], [1, 0, 0, 0]], dtype=float)


def _su2xu1_coframe(points):
    """Coframe matrix A with rows (sigma_1, sigma_2, sigma_3, dt) against the
    coordinate order (alpha, beta, gamma, t); sigma_a are half the classical
    Euler one-forms, so sum sigma_a^2 is the unit round 3-sphere."""
    pts = np.asarray(points, dtype=float)
    al, ga = pts[..., 0], pts[..., 2]
    zero = np.zeros_like(al)
    one = np.ones_like(al)
    row1 = np.stack([0.5 * np.cos(ga), 0.5 * np.sin(ga) * np.sin(al), zero, zero], axis=-1)
    row2 = np.stack([-0.5 * np.sin(ga), 0.5 * np.cos(ga) * np.sin(al), zero, zero], axis=-1)
    row3 = np.stack([zero, 0.5 * np.cos(al), 0.5 * one, zero], axis=-1)
    row4 = np.stack([zero, zero, zero, one], axis=-1)
    return np.stack([row1, row2, row3, row4], axis=-2)


_SU2_JFRAME = np.array([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]], dtype=float)


def _su2xu1_metric(points):
    a = _su2xu1_coframe(points)
    return np.einsum("...ai,...aj->...ij", a, a)


def _su2xu1_j(points):
    a = _su2xu1_coframe(points)
    ainv = np.linalg.inv(a)
    return np.einsum("...ia,...ab,...bj->...ij", ainv, _SU2_JFRAME, a)


def _rescaled_metric(parent_metric, log_factor):
    def fn(points):
        return np.exp(2.0 * log_factor(points))[..., None, None] * parent_metric(points)
    return fn


def conformal_rescale(m: HermitianManifold, f: Callable[[np.ndarray], np.ndarray],
                      name: Optional[str] = None) -> HermitianManifold:
    """Conformal change of metric: same chart and J, metric ``exp(2 f) g``."""
    return HermitianManifold(
        name=name or f"{m.name}_rescaled",
        dim=m.dim,
        chart=m.chart,
        metric=_rescaled_metric(m.metric, f),
        complex_structure=m.complex_structure,
        dilaton=m.dilaton,
        hypercomplex=m.hypercomplex,
        conformal_parent=ConformalParent(parent=m, log_factor=f),
        lck=m.lck,
    )


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

def _build_catalog() -> dict:
    cat = {}

    def add(m):
        cat[m.name] = m

    for dim in (4, 6):
        add(HermitianManifold(
            name=f"flat_torus_{dim}", dim=dim, chart=_torus_chart(dim),
            metric=_flat_metric(dim), complex_structure=_const_field(_block_j(dim)),
            lck=True))

    c2_flat = HermitianManifold(
        name="c2_flat_annulus", dim=4, chart=_hopf_chart(),
        metric=_flat_metric(4), complex_structure=_const_field(_block_j(4)),
        lck=True)

    hopf = conformal_rescale(c2_flat, _hopf_log_factor, name="hopf_standard")
    hopf = replace(hopf, dilaton=_hopf_log_factor)
    add(hopf)

    add(HermitianManifold(
        name="su2xu1", dim=4,
        chart=BoxChart(lows=(0.2, 0.0, 0.0, -1.0), highs=(np.pi - 0.2, 2 * np.pi, 2 * np.pi, 1.0),
                       tight_axes=(0,)),
        metric=_su2xu1_metric, complex_structure=_su2xu1_j, lck=True))

    add(replace(hopf, name="hopf_hkt", dilaton=None,
                hypercomplex=(_const_field(-_L_K), _const_field(-_L_J))))

    for dim in (4, 6):
        add(conformal_rescale(cat[f"flat_torus_{dim}"], _conf_factor,
                              name=f"conf_torus_{dim}"))
    return cat


_CATALOG = _build_catalog()
_PUBLIC = ("flat_torus_4", "flat_torus_6", "hopf_standard", "su2xu1",
           "hopf_hkt", "conf_torus_4", "conf_torus_6")


def catalog_names() -> list:
    return list(_PUBLIC)


def get_manifold(name: str) -> HermitianManifold:
    try:
        return _CATALOG[name]
    except KeyError:
        raise UnknownManifoldError(
            f"unknown manifold {name!r}; catalog: {', '.join(_PUBLIC)}") from None


def register_manifold(m: HermitianManifold) -> None:
    """Register a custom manifold built in code (there is no external DSL)."""
    _CATALOG[m.name] = m


# ---------------------------------------------------------------------------
# structural residuals
# ---------------------------------------------------------------------------

def nijenhuis_values(j_fn, points, step=DEFAULT_STEP):
    """Components N^k_{ij} of the Nijenhuis tensor of an almost complex
    structure field, by central differences."""
    J = j_fn(points)
    dJ = fd_partial(j_fn, points, step)  # dJ[m, k, j] = D_m J^k_j
    t1 = np.einsum("...mi,...mkj->...kij", J, dJ)
    t2 = np.einsum("...mj,...mki->...kij", J, dJ)
    t3 = np.einsum("...km,...imj->...kij", J, dJ)
    t4 = np.einsum("...km,...jmi->...kij", J, dJ)
    return t1 - t2 - t3 + t4


def hermitian_residuals(m: HermitianManifold, points: np.ndarray,
                        step=DEFAULT_STEP) -> dict:
    """Structure-invariant residuals at sampled points: J^2 = -Id, metric
    compatibility, SPD-ness, integrability, and (if present) the quaternion
    relations of the hypercomplex triple."""
    pts = np.asarray(points, dtype=float)
    g = m.metric(pts)
    eigmin = float(np.min(np.linalg.eigvalsh(g)))
    if eigmin <= 0:
        raise NumericError(f"metric not SPD on {m.name} (min eigenvalue {eigmin})")
    out = {"metric_min_eigenvalue": eigmin}

    structures = [m.complex_structure]
    if m.hypercomplex is not None:
        structures += list(m.hypercomplex)
    eye = np.eye(m.dim)
    sq = comp = nij = 0.0
    for j_fn in structures:
        J = j_fn(pts)
        sq = max(sq, float(np.max(np.abs(np.einsum("...ik,...kj->...ij", J, J) + eye))))
        comp = max(comp, float(np.max(np.abs(slotwise(g, J, 2) - g))))
        nij = max(nij, float(np.max(np.abs(nijenhuis_values(j_fn, pts, step)))))
    out["j_square_residual"] = sq
    out["compatibility_residual"] = comp
    out["nijenhuis_residual"] = nij

    if m.hypercomplex is not None:
        out["quaternion_residual"] = quaternion_residual(
            [m.complex_structure(pts)] + [f(pts) for f in m.hypercomplex])
    return out


def quaternion_residual(js) -> float:
    """Largest deviation of a triple of complex structures at the same points
    from the quaternion relations ``J_a J_b = -delta_ab + eps_abc J_c``."""
    eye = np.eye(js[0].shape[-1])
    eps = levi_civita_symbol(3)
    worst = 0.0
    for a in range(3):
        for b in range(3):
            prod = np.einsum("...ik,...kj->...ij", js[a], js[b])
            expect = -(a == b) * eye
            for c in range(3):
                if eps[a, b, c]:
                    expect = expect + eps[a, b, c] * js[c]
            worst = max(worst, float(np.max(np.abs(prod - expect))))
    return worst
