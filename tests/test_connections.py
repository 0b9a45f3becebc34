import numpy as np
import pytest

from ktgeo.catalog import catalog_names, get_manifold
from ktgeo.connections import (
    compatibility_residuals, lee_form_routes, lee_form_values, lower_coefficients,
    torsion_bismut_values, torsion_chern_values, torsion_type_defect,
)
from ktgeo.errors import ChartDomainError
from ktgeo.identities import Evaluation
from ktgeo.tensor_core import (
    covariant_derivative_of, exterior_derivative_of, fd_partial, wedge,
)

from conftest import block_conformal_torus_6, kahler_form, sample


def test_flat_torus_all_flavors_vanish(flat4):
    pts = sample("flat_torus_4", 6)
    ev = Evaluation(flat4, pts)
    for fl in ("levi_civita", "bismut", "chern"):
        gam = ev.gamma(fl)
        assert np.max(np.abs(gam)) < 1e-12


def test_levi_civita_metric_compatibility_and_symmetry(hopf):
    pts = sample("hopf_standard", 16, seed=9)
    res = compatibility_residuals(Evaluation(hopf, pts), "levi_civita")
    assert res["nabla_g"] < 1e-6
    assert res["torsion"] < 1e-12


def test_levi_civita_conformal_christoffel_oracle(hopf):
    # g = exp(2 phi) delta with phi = -ln r:
    # Gamma^k_ij = d_i phi delta^k_j + d_j phi delta^k_i - d_k phi delta_ij
    pts = np.array([[1.0, 0.0, 0.0, 0.0], [0.8, 0.3, -0.5, 0.2]])
    gam = Evaluation(hopf, pts).gamma("levi_civita")
    r2 = np.sum(pts * pts, axis=-1)
    dphi = -pts / r2[:, None]
    eye = np.eye(4)
    oracle = (np.einsum("...i,kj->...kij", dphi, eye)
              + np.einsum("...j,ki->...kij", dphi, eye)
              - np.einsum("...k,ij->...kij", dphi, eye))
    assert np.max(np.abs(gam - oracle)) < 1e-7


@pytest.mark.parametrize("flavor", ["bismut", "chern"])
def test_hermitian_connections_preserve_g_and_j(hopf, su2, flavor):
    for m in (hopf, su2):
        pts = m.sample_points(32, seed=2)
        res = compatibility_residuals(Evaluation(m, pts), flavor)
        assert res["nabla_g"] < 1e-6
        assert res["nabla_j"] < 1e-6


def test_torsion_of_bismut_coefficients_is_the_torsion_form(su2):
    pts = sample("su2xu1", 8)
    ev = Evaluation(su2, pts)
    gam = ev.gamma("bismut")
    g = su2.metric(pts)
    skew = np.einsum("...kij->...kij", gam) - np.einsum("...kji->...kij", gam)
    lowered = np.einsum("...lk,...kij->...ijl", g, skew)
    T = torsion_bismut_values(ev)
    assert np.max(np.abs(lowered - T)) < 1e-6


def test_chern_torsion_commutes_with_j(hopf):
    pts = sample("hopf_standard", 8)
    C = torsion_chern_values(Evaluation(hopf, pts))
    J = hopf.complex_structure(pts)
    # C(JX,Y) = C(X,JY), and C(JX,Y) = J C(X,Y) i.e. C(JX,Y,Z) = -C(X,Y,JZ)
    lhs = np.einsum("...mi,...mjk->...ijk", J, C)
    assert np.max(np.abs(lhs - np.einsum("...mj,...imk->...ijk", J, C))) < 1e-6
    assert np.max(np.abs(lhs + np.einsum("...mk,...ijm->...ijk", J, C))) < 1e-6


def test_chern_torsion_from_kahler_form_derivative(conf4):
    pts = sample("conf_torus_4", 8)
    C = torsion_chern_values(Evaluation(conf4, pts))
    assert np.max(np.abs(C)) > 1e-2  # genuinely nonzero
    dom = exterior_derivative_of(fd_partial(kahler_form(conf4), pts), 2)
    J = conf4.complex_structure(pts)
    rhs = 0.5 * (np.einsum("...ai,...ajk->...ijk", J, dom)
                 + np.einsum("...bj,...ibk->...ijk", J, dom))
    assert np.max(np.abs(C - rhs)) < 1e-12


def test_torsion_forms_and_types():
    for name in catalog_names():
        m = get_manifold(name)
        ev = Evaluation(m, m.sample_points(8, seed=1))
        T = torsion_bismut_values(ev)
        # totally antisymmetric
        assert np.max(np.abs(T + np.einsum("...ijk->...jik", T))) < 1e-12
        assert np.max(np.abs(T + np.einsum("...ikj->...ijk", T))) < 1e-12
        # no (3,0)+(0,3) part
        assert torsion_type_defect(ev) < 1e-6
        # Chern torsion antisymmetric in its first two slots
        C = torsion_chern_values(ev)
        assert np.max(np.abs(C + np.einsum("...jik->...ijk", C))) < 1e-12


def test_flat_torus_6_torsion_vanishes():
    m = get_manifold("flat_torus_6")
    pts = m.sample_points(6, seed=0)
    assert np.max(np.abs(torsion_bismut_values(Evaluation(m, pts)))) < 1e-12


def test_lck_torsion_shape():
    hopf = get_manifold("hopf_standard")
    pts = hopf.sample_points(8, seed=0)
    ev = Evaluation(hopf, pts)
    theta = lee_form_values(ev)
    J = hopf.complex_structure(pts)
    jth = -np.einsum("...m,...mi->...i", theta, J)
    expected = wedge(jth, kahler_form(hopf)(pts), 2)
    assert np.max(np.abs(torsion_bismut_values(ev) - expected)) < 1e-5

    c6 = get_manifold("conf_torus_6")
    pts = c6.sample_points(8, seed=0)
    ev = Evaluation(c6, pts)
    theta = lee_form_values(ev)
    jth = -np.einsum("...m,...mi->...i", theta, c6.complex_structure(pts))
    expected = 0.5 * wedge(jth, kahler_form(c6)(pts), 2)
    assert np.max(np.abs(torsion_bismut_values(ev) - expected)) < 1e-5


def test_lee_form_routes_agree_everywhere():
    for name in catalog_names():
        m = get_manifold(name)
        pts = m.sample_points(8, seed=2)
        a, b, c = lee_form_routes(Evaluation(m, pts))
        assert np.max(np.abs(a - b)) < 1e-5
        assert np.max(np.abs(a - c)) < 1e-5


def test_lee_form_values_and_public_op(flat4, conf4):
    pts = sample("flat_torus_4", 6)
    assert np.max(np.abs(lee_form_values(Evaluation(flat4, pts)))) < 1e-12
    pts = sample("conf_torus_4", 6)
    f_grad = np.stack([0.3 * np.cos(pts[..., 0]) * np.cos(pts[..., 2]),
                       np.zeros(len(pts)),
                       -0.3 * np.sin(pts[..., 0]) * np.sin(pts[..., 2]),
                       np.zeros(len(pts))], axis=-1)
    assert np.max(np.abs(lee_form_values(Evaluation(conf4, pts)) - 2.0 * f_grad)) < 1e-5
    assert lee_form_values(Evaluation(conf4, pts[0])).shape == (1, 4)  # a single point


@pytest.mark.parametrize("name", catalog_names() + ["block_conformal_torus_6"])
def test_coefficient_products_match_the_explicit_contractions(name):
    m = block_conformal_torus_6() if name == "block_conformal_torus_6" else get_manifold(name)
    ev = Evaluation(m, m.sample_points(4, 0))

    def assert_matches(got, ref):
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    chern = ev.koszul + 0.5 * np.einsum("...ai,...ajl->...lij", ev.J, ev.dOm)
    assert_matches(lower_coefficients(ev, "chern"), chern)
    for flavor in ("levi_civita", "bismut", "chern"):
        assert_matches(ev.gamma(flavor), np.einsum("...kl,...lij->...kij", ev.ginv,
                                                   lower_coefficients(ev, flavor)))


def test_covariant_derivative_basics(flat4, hopf):
    pts = sample("flat_torus_4", 4)
    const = lambda p: np.broadcast_to(np.array([1.0, 0, 2.0, 0]),
                                      np.asarray(p).shape[:-1] + (4,)).copy()
    p = pts[0]
    out = covariant_derivative_of(fd_partial(const, p), const(p),
                                  Evaluation(flat4, p).gamma("bismut")[0], 1)
    assert out.shape == (4, 4)
    assert np.max(np.abs(out)) < 1e-12

    ev = Evaluation(hopf, sample("hopf_standard", 8))
    for fl in ("bismut", "levi_civita"):
        assert np.max(np.abs(ev.nabla("theta", fl))) < 1e-5


def test_boundary_guards(hopf):
    near_edge = np.array([0.50005, 0.0, 0.0, 0.0])
    with pytest.raises(ChartDomainError):
        Evaluation(hopf, near_edge)
    # the margin is the stencil nesting depth (2) times the step
    with pytest.raises(ChartDomainError):
        Evaluation(hopf, np.array([0.50015, 0.0, 0.0, 0.0]))
    Evaluation(hopf, np.array([0.50025, 0.0, 0.0, 0.0]))
    ev = Evaluation(hopf, np.array([1.0, 0.0, 0.0, 0.0]))
    assert ev.T.shape == ev.C.shape == (1, 4, 4, 4)
    assert np.max(np.abs(ev.T + np.einsum("...ijk->...ikj", ev.T))) < 1e-12  # a 3-form
    assert ev.gamma("bismut").shape == ev.gamma("chern").shape == (1, 4, 4, 4)
