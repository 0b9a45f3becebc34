import numpy as np
import pytest

from ktgeo.catalog import catalog_names, get_manifold
from ktgeo.connections import lower_coefficients
from ktgeo.curvature import lambda_omega_values, riemann_values, rho_from_curvature
from ktgeo.identities import Evaluation
from ktgeo.tensor_core import (
    exterior_derivative_of, fd_partial, gram_schmidt_frames, j_trace_matrix, metric_inverse,
    proj_one_one, to_frame,
)

from conftest import block_conformal_torus_6, hodge_star, kahler_form, lee_fn, sample


def test_flat_torus_all_flavors_flat(flat4):
    ev = Evaluation(flat4, sample("flat_torus_4", 6))
    for fl in ("levi_civita", "bismut", "chern"):
        assert np.max(np.abs(riemann_values(ev, fl))) < 1e-12


def test_su2xu1_bismut_flat(su2):
    pts = sample("su2xu1", 12, seed=4)
    assert np.max(np.abs(riemann_values(Evaluation(su2, pts), "bismut"))) < 1e-4


def _riemann_reference(ev, flavor):
    """The six-term curvature formula, which reads the metric derivative."""
    om = lower_coefficients(ev, flavor)
    dom = fd_partial(lambda p: lower_coefficients(Evaluation(ev.m, p, ev.step), flavor),
                     ev.pts, ev.step)
    dg = ev.partial("g")
    gam = ev.gamma(flavor)
    return (np.einsum("...iljk->...ijkl", dom)
            - np.einsum("...jlik->...ijkl", dom)
            - np.einsum("...ilm,...mjk->...ijkl", dg, gam)
            + np.einsum("...jlm,...mik->...ijkl", dg, gam)
            + np.einsum("...lim,...mjk->...ijkl", om, gam)
            - np.einsum("...ljm,...mik->...ijkl", om, gam))


@pytest.mark.parametrize("name", catalog_names() + ["block_conformal_torus_6"])
def test_riemann_matches_the_six_term_formula(name):
    m = block_conformal_torus_6() if name == "block_conformal_torus_6" else get_manifold(name)
    ev = Evaluation(m, m.sample_points(4, seed=0))
    for fl in ("levi_civita", "bismut", "chern"):
        assert np.max(np.abs(riemann_values(ev, fl) - _riemann_reference(ev, fl))) < 1e-10, fl


def test_hopf_levi_civita_product_metric_oracle(hopf):
    # cylinder over the unit 3-sphere: frame e_1 radial (flat pairs), the
    # three spherical directions have sectional curvature +1
    for a in (0.7, 1.6):
        p = np.array([a, 0.0, 0.0, 0.0])
        rf = to_frame(riemann_values(Evaluation(hopf, p), "levi_civita")[0],
                      gram_schmidt_frames(hopf.metric(p)), 4)
        for i in range(4):
            for j in range(i + 1, 4):
                expected = 0.0 if i == 0 else 1.0
                assert abs(rf[i, j, j, i] - expected) < 1e-4


def test_riemann_pair_antisymmetries(conf4):
    pts = sample("conf_torus_4", 6)
    ev = Evaluation(conf4, pts)
    for fl in ("levi_civita", "bismut", "chern"):
        r = riemann_values(ev, fl)
        assert np.max(np.abs(r + np.einsum("...jikl->...ijkl", r))) < 1e-5
    r = riemann_values(ev, "levi_civita")
    assert np.max(np.abs(r + np.einsum("...ijlk->...ijkl", r))) < 1e-5
    single = riemann_values(Evaluation(conf4, pts[0]), "bismut")
    assert single.shape == (1, 4, 4, 4, 4)  # a single point


def test_bismut_curvature_commutes_with_j():
    for name in catalog_names():
        m = get_manifold(name)
        pts = m.sample_points(8, seed=3)
        r = riemann_values(Evaluation(m, pts), "bismut")
        J = m.complex_structure(pts)
        comm = np.einsum("...xymn,...mz,...nw->...xyzw", r, J, J) - r
        assert np.max(np.abs(comm)) < 1e-5


def test_evaluation_curvature_flat6_and_hopf():
    m6 = get_manifold("flat_torus_6")
    ev = Evaluation(m6, m6.sample_points(4, seed=0))
    for arr in (ev.riemann("bismut"), ev.riemann("chern"), ev.riemann("levi_civita"),
                ev.ric, ev.ric_lc, ev.rho, ev.kappa, ev.lam):
        assert np.max(np.abs(arr)) < 1e-12

    hopf = get_manifold("hopf_standard")
    ev = Evaluation(hopf, hopf.sample_points(8, seed=0))
    assert np.max(np.abs(ev.rho)) < 1e-4
    assert np.max(np.abs(ev.ric)) < 1e-4
    assert np.max(np.abs(ev.scal)) < 1e-4
    assert np.max(np.abs(ev.b)) < 1e-4
    # Chern trace is twice u; on this geometry u = 4 (kappa = 2 omega)
    assert np.max(np.abs(ev.u - 4.0)) < 1e-4
    assert np.max(np.abs(ev.kappa - 2.0 * ev.omega)) < 1e-4


def test_rho_chern_is_one_one():
    for name in ("hopf_standard", "conf_torus_4", "conf_torus_6"):
        m = get_manifold(name)
        pts = m.sample_points(6, seed=1)
        ev = Evaluation(m, pts)
        rho = ev.rho_chern
        assert np.max(np.abs(rho - proj_one_one(rho, ev.J))) < 1e-5


def test_lambda_omega_cases():
    def lambda_omega(m, pts):
        ev = Evaluation(m, pts)
        lam = lambda_omega_values(ev.dT, ev.jg)
        assert np.array_equal(lam, ev.lam)  # the held primitive is the kernel's value
        return lam, ev.h, np.max(np.abs(lam - proj_one_one(lam, ev.J)))

    flat = get_manifold("flat_torus_4")
    pts = flat.sample_points(4, seed=0)
    lam, h, defect = lambda_omega(flat, pts)
    assert np.max(np.abs(lam)) < 1e-12 and np.max(np.abs(h)) < 1e-12

    hopf = get_manifold("hopf_standard")
    hp = hopf.sample_points(8, seed=0)
    lam, h, defect = lambda_omega(hopf, hp)
    assert np.max(np.abs(lam)) < 1e-5  # codiff(theta) = 0 there
    assert defect < 1e-5

    conf = get_manifold("conf_torus_4")
    cp = conf.sample_points(8, seed=0)
    lam, h, defect = lambda_omega(conf, cp)
    dth = Evaluation(conf, cp).codiff("theta")
    om = kahler_form(conf)(cp)
    assert np.max(np.abs(lam + 2.0 * dth[..., None, None] * om)) < 1e-5
    assert np.max(np.abs(lam)) > 1e-2  # nonzero: the reduction is not vacuous
    assert defect < 1e-5
    lam = lambda_omega(conf, cp[0])[0]
    assert lam.shape == (1, 4, 4)  # a single point
    assert np.max(np.abs(lam + np.swapaxes(lam, -1, -2))) < 1e-12  # a 2-form


def _kulkarni_nomizu(a, b):
    """Kulkarni-Nomizu product in this engine's slot order: the unit sphere's
    curvature is (g kn g) / 2."""
    return (np.einsum("...jk,...il->...ijkl", a, b) + np.einsum("...il,...jk->...ijkl", a, b)
            - np.einsum("...ik,...jl->...ijkl", a, b) - np.einsum("...jl,...ik->...ijkl", a, b))


def test_weyl_selfdual_conformally_flat_entries():
    # every dim-4 catalog chart is conformally flat: W = 0, and with it its
    # self-dual part and <3 W+(omega), omega>
    for name in ("flat_torus_4", "hopf_standard", "conf_torus_4", "su2xu1", "hopf_hkt"):
        m = get_manifold(name)
        ev = Evaluation(m, m.sample_points(6, seed=2))
        g, n = ev.g, m.dim
        ric = 0.5 * (ev.ric_lc + np.swapaxes(ev.ric_lc, -1, -2))
        scal = np.einsum("...mn,...mn->...", ric, ev.ginv)[..., None, None]
        weyl = (ev.riemann("levi_civita") - _kulkarni_nomizu(ric - scal / n * g, g) / (n - 2)
                - (scal / (2 * n * (n - 1)))[..., None, None] * _kulkarni_nomizu(g, g))
        assert np.max(np.abs(weyl)) < 1e-4
        # consistent with the vanishing trace b of the Bismut Ricci form there
        assert np.max(np.abs(ev.b)) < 1e-4


def test_rho_two_zero_part_from_selfdual_lee_derivative(conf4):
    # derived from the type-defect identity and the dim-4 duality:
    # rho^{(2,0)+(0,2)}(X,Y) = antisym[ (d theta)_+ (JX, Y) ];
    # every catalog Lee form is closed, so both sides are numerically zero,
    # with the left side a genuine curvature computation.
    pts = sample("conf_torus_4", 8)
    ginv = metric_inverse(conf4.metric(pts))
    J = conf4.complex_structure(pts)
    rho = rho_from_curvature(riemann_values(Evaluation(conf4, pts), "bismut"),
                             j_trace_matrix(J, ginv))
    lhs = rho - proj_one_one(rho, J)
    dth = exterior_derivative_of(fd_partial(lee_fn(conf4), pts), 1)
    dth_plus = 0.5 * (dth + hodge_star(dth, conf4.metric(pts), 2))
    rhs = np.einsum("...my,...mx->...xy", dth_plus, J)
    rhs = 0.5 * (rhs - np.einsum("...xy->...yx", rhs))
    assert np.max(np.abs(dth)) < 1e-6  # catalog Lee forms are closed
    assert np.max(np.abs(lhs - rhs)) < 1e-4
