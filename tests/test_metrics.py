import numpy as np
import pytest

from acx.algebra import make_structure, standard_j
from acx.lattice import LatticeDomain, ScalarField
from acx.metrics import (
    MetricError,
    euclidean_metric,
    example95_report,
    hermitian_hessian,
    mean_curvature,
    riemannian_hessian,
    sphere_through_origin,
    spherical_metric_r4,
    vertical_plane,
)
from acx.psh import psh_margin
from acx.rng import CounterRng
from acx.subeq import Subequation


def abs2(X):
    return (X ** 2).sum(axis=1)


@pytest.fixture
def sph():
    return spherical_metric_r4()


@pytest.fixture
def box4():
    return LatticeDomain.box([-1, 1], 9, dim=4)


# ---------------------------------------------------------------------------
# metric presets
# ---------------------------------------------------------------------------

def test_spherical_preset_origin_values(sph):
    assert np.allclose(sph.m_at(np.zeros((1, 4)))[0], np.eye(4))
    assert np.max(np.abs(sph.gamma_at(np.zeros((1, 4)))[0])) == 0.0
    rng = CounterRng(2)
    sph.validate(0.7 * rng.normals((30, 4)))


def test_christoffel_oracle_at_unit_point(sph):
    # conformal formula at (1,0,0,0): psi_1 = -2/(1+1) = -1, so
    # Gamma^1_11 = 2 psi_1 - psi_1 = psi_1 = -1
    gam = sph.gamma_at(np.array([[1.0, 0, 0, 0]]))[0]
    assert gam[0, 0, 0] == pytest.approx(-1.0)


# ---------------------------------------------------------------------------
# hessians
# ---------------------------------------------------------------------------

def test_riemannian_hessian_euclidean_is_coordinate_hessian(box4):
    eu = euclidean_metric(4)
    rng = CounterRng(5)
    q = rng.symmetric(4)
    u = ScalarField(box4, 0.5 * np.einsum(
        "ni,ij,nj->n", box4.node_coords, q, box4.node_coords))
    node = box4.node_at(np.zeros(4))
    assert np.allclose(riemannian_hessian(eu, u, node), q)


def test_riemannian_hessian_spherical_matches_euclidean_at_origin(sph, box4):
    u = ScalarField.from_vectorized(box4, abs2)
    node = box4.node_at(np.zeros(4))
    assert np.allclose(riemannian_hessian(sph, u, node), 2 * np.eye(4))


def test_riemannian_hessian_uses_christoffels_off_origin(sph):
    # phi = x1 has zero coordinate hessian; Hess_11 = -Gamma^1_11 = 1
    dom = LatticeDomain.box([[0.5, 1.5], [-0.5, 0.5], [-0.5, 0.5],
                             [-0.5, 0.5]], 9)
    u = ScalarField.from_vectorized(dom, lambda X: X[:, 0])
    node = dom.node_at(np.array([1.0, 0.0, 0.0, 0.0]))
    hess = riemannian_hessian(sph, u, node)
    assert hess[0, 0] == pytest.approx(1.0)


def test_hermitian_hessian_euclidean_equals_symmetrized(box4):
    eu = euclidean_metric(4)
    j = standard_j(2)
    u = ScalarField.from_vectorized(box4, abs2)
    node = box4.node_at(np.zeros(4))
    hc = hermitian_hessian(eu, j, u, node)
    assert np.allclose(hc, 4 * np.eye(4))
    assert np.linalg.eigvalsh(0.5 * hc)[0] == pytest.approx(2.0)


def test_hermitian_hessian_rejects_non_orthogonal_structure(box4):
    eu = euclidean_metric(4)
    shear = np.eye(4)
    shear[0, 1] = 0.4
    bad_j = shear @ standard_j(2) @ np.linalg.inv(shear)
    u = ScalarField.from_vectorized(box4, abs2)
    with pytest.raises(MetricError):
        hermitian_hessian(eu, bad_j, u, box4.node_at(np.zeros(4)))


def test_metric_verdict_equals_intrinsic_on_flat_space(box4):
    # with the euclidean metric and the flat structure the two hessians
    # coincide, so the verdicts agree exactly on quadratics
    eu = euclidean_metric(4)
    j = standard_j(2)
    sub = Subequation(make_structure("standard", n=2))
    node = box4.node_at(np.zeros(4))
    rng = CounterRng(12)
    for _ in range(20):
        q = rng.symmetric(4)
        u = ScalarField(box4, 0.5 * np.einsum(
            "ni,ij,nj->n", box4.node_coords, q, box4.node_coords))
        metric_margin = np.linalg.eigvalsh(
            0.5 * hermitian_hessian(eu, j, u, node))[0]
        intrinsic = psh_margin(u, sub, tol=1e-9)
        assert metric_margin == pytest.approx(intrinsic.worst_margin,
                                              abs=1e-9)
        assert (metric_margin >= 0) == intrinsic.psh


# ---------------------------------------------------------------------------
# mean curvature
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("r", [1.0, 0.5])
def test_round_sphere_curvature_euclidean(r):
    eu = euclidean_metric(4)
    surf = sphere_through_origin(r)
    h0 = mean_curvature(eu, surf, (0.0, 0.0), step=1e-3)
    assert np.allclose(h0, [2.0 / r, 0, 0, 0], atol=1e-4)
    hoff = mean_curvature(eu, surf, (0.37, -0.21), step=1e-3)
    assert np.linalg.norm(hoff) == pytest.approx(2.0 / r, abs=1e-4)


def test_round_sphere_curvature_spherical_metric_at_origin(sph):
    h0 = mean_curvature(sph, sphere_through_origin(1.0), (0.0, 0.0), step=1e-3)
    assert np.allclose(h0, [2.0, 0, 0, 0], atol=1e-4)


def test_vertical_plane_family_sign(sph):
    for a in (0.5, 1.0, -0.5):
        h = mean_curvature(sph, vertical_plane(a), (0.2, -0.1), step=1e-3)
        assert np.sign(h[0]) == np.sign(a)


def test_mean_curvature_converges_at_least_first_order():
    eu = euclidean_metric(4)
    surf = sphere_through_origin(1.0)
    errs = []
    for step in (4e-2, 2e-2, 1e-2):
        h = mean_curvature(eu, surf, (0.0, 0.0), step=step)
        errs.append(abs(h[0] - 2.0) + np.linalg.norm(h[1:]))
    assert errs[1] <= errs[0] / 1.8
    assert errs[2] <= errs[1] / 1.8


def test_degenerate_frame_rejected(sph):
    bad = vertical_plane(0.3)
    bad.point = lambda p, q: np.array([0.3, 0.0, p, p])  # rank-1 chart
    with pytest.raises(MetricError):
        mean_curvature(sph, bad, (0.0, 0.0))


# ---------------------------------------------------------------------------
# separation report
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("c,r,expected", [
    (2.0, 1.0, -2.0),
    (1.0, 1.0, 0.0),
    (0.0, 1.0, 2.0),
])
def test_example_report_reference_values(c, r, expected):
    rep = example95_report(c, r)
    assert rep.reference_value == pytest.approx(expected)
    assert rep.deviation <= 1e-2
    assert abs(rep.laplace_beltrami_conformal - expected) <= 1e-2
    assert np.allclose(rep.hessian_origin, np.eye(4), atol=1e-9)


def test_example_report_separation_margins():
    # within (r, 2r]: hermitian-psh certificate and standard-psh failure,
    # both margins well beyond ten times the deviation scale
    for c in (1.5, 2.0):
        rep = example95_report(c, 1.0)
        assert rep.hermitian_psh_near_origin
        assert rep.standard_psh_fails
        assert rep.hermitian_margin > 10 * rep.deviation
        assert -rep.laplace_beltrami_origin > 10 * rep.deviation


def test_example_report_rejects_bad_parameters():
    with pytest.raises(MetricError):
        example95_report(-1.0, 1.0)
    with pytest.raises(MetricError):
        example95_report(1.0, 0.0)
