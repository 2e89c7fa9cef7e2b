import numpy as np
import pytest

from acx.algebra import make_structure, realify
from acx.lattice import LatticeDomain, LatticeError, ScalarField
from acx.psh import (
    PshError,
    adapted_bstar,
    blap_min_field,
    blaplacian,
    check_b_matrix,
    default_b_family,
    induced_slice_structure,
    psh_margin,
    psh_via_blaplacians,
    real_form,
    restriction_check,
    slice_compatible,
)
from acx.rng import CounterRng
from acx.subeq import Subequation


def abs2(X):
    return (X ** 2).sum(axis=1)


@pytest.fixture
def disc():
    return LatticeDomain.ball(np.zeros(2), 1.0, 17)


@pytest.fixture
def flat1():
    return Subequation(make_structure("standard", n=1))


# ---------------------------------------------------------------------------
# direct margin
# ---------------------------------------------------------------------------

def test_psh_margin_of_squared_modulus(disc, flat1):
    u = ScalarField.from_vectorized(disc, abs2)
    rep = psh_margin(u, flat1)
    assert rep.psh and rep.worst_margin == pytest.approx(2.0)


def test_psh_margin_of_negated(disc, flat1):
    u = ScalarField.from_vectorized(disc, lambda X: -abs2(X))
    rep = psh_margin(u, flat1)
    assert not rep.psh and rep.worst_margin == pytest.approx(-2.0)


def test_psh_margin_perturbed_structure_near_center():
    dom = LatticeDomain.ball(np.zeros(2), 0.3, 13)
    acx = make_structure("antilinear-linear-eps", n=1, eps=0.1, generator=0)
    u = ScalarField.from_vectorized(dom, abs2)
    rep = psh_margin(u, Subequation(acx))
    assert rep.psh
    assert rep.worst_margin > 2.0 - 0.5


def test_psh_margin_monotone_under_convex_quadratic(disc, flat1):
    rng = CounterRng(21)
    base = ScalarField.from_vectorized(
        disc, lambda X: np.sin(2 * X[:, 0]) * np.cos(X[:, 1]))
    before = psh_margin(base, flat1).worst_margin
    pos = rng.spd(2, shift=0.2)
    bumped = ScalarField(disc, base.values + 0.5 * np.einsum(
        "ni,ij,nj->n", disc.node_coords, pos, disc.node_coords))
    after = psh_margin(bumped, flat1).worst_margin
    assert after >= before - 1e-9


def test_psh_margin_invariant_under_unitary_rotation(flat1):
    # precomposition with a complex-linear rotation leaves the flat verdict
    # unchanged (resampled field, quadratic so the jets are exact)
    dom = LatticeDomain.box([-1, 1], 13, dim=2)
    theta = 0.7
    rot = np.array([[np.cos(theta), -np.sin(theta)],
                    [np.sin(theta), np.cos(theta)]])
    q = np.array([[2.0, 0.4], [0.4, -0.5]])
    u = ScalarField(dom, 0.5 * np.einsum(
        "ni,ij,nj->n", dom.node_coords, q, dom.node_coords))
    qrot = rot.T @ q @ rot
    urot = ScalarField(dom, 0.5 * np.einsum(
        "ni,ij,nj->n", dom.node_coords, qrot, dom.node_coords))
    a = psh_margin(u, flat1)
    b = psh_margin(urot, flat1)
    assert a.psh == b.psh
    assert a.worst_margin == pytest.approx(b.worst_margin)


# ---------------------------------------------------------------------------
# slices
# ---------------------------------------------------------------------------

def test_slice_compatibility_of_flat_structure():
    comp = slice_compatible(make_structure("standard", n=2), 1)
    assert comp.compatible and comp.f21_residual == 0.0


def test_slice_compatibility_of_compatible_preset():
    acx = make_structure("antilinear-slice-compatible", n=2, m=1, eps=0.1)
    comp = slice_compatible(acx, 1)
    assert comp.compatible
    assert comp.e_block_residual <= 1e-7


def test_slice_incompatibility_detected():
    acx = make_structure("antilinear-linear-eps", n=2, eps=0.1, generator=4)
    comp = slice_compatible(acx, 1)
    assert not comp.compatible and comp.f21_residual > 1e-3


def test_induced_structure_squares_to_minus_identity():
    acx = make_structure("antilinear-slice-compatible", n=2, m=1, eps=0.1)
    ind = induced_slice_structure(acx, 1)
    rng = CounterRng(31)
    assert ind.validate(0.5 * rng.normals((20, 2)), tol=1e-8) <= 1e-8


def test_restriction_of_flat_sum(disc):
    dom = LatticeDomain.ball(np.zeros(4), 1.0, 9)
    sub = Subequation(make_structure("standard", n=2))
    u = ScalarField.from_vectorized(dom, abs2)
    rep = restriction_check(u, sub, 1)
    assert rep.ambient_psh and rep.slice_psh and rep.implication_holds
    assert rep.slice_margin == pytest.approx(2.0)


def test_restriction_vacuous_when_ambient_fails():
    dom = LatticeDomain.ball(np.zeros(4), 1.0, 9)
    sub = Subequation(make_structure("standard", n=2))
    u = ScalarField.from_vectorized(
        dom, lambda X: X[:, 0] ** 2 + X[:, 1] ** 2
        - 3 * (X[:, 2] ** 2 + X[:, 3] ** 2))
    rep = restriction_check(u, sub, 1)
    assert not rep.ambient_psh
    assert rep.implication_holds  # vacuous


def test_restriction_rejects_incompatible_slice():
    dom = LatticeDomain.ball(np.zeros(4), 1.0, 9)
    acx = make_structure("antilinear-linear-eps", n=2, eps=0.1, generator=4)
    u = ScalarField.from_vectorized(dom, abs2)
    with pytest.raises(PshError, match="almost complex submanifold"):
        restriction_check(u, Subequation(acx), 1)


# ---------------------------------------------------------------------------
# B-Laplacians
# ---------------------------------------------------------------------------

def test_blaplacian_flat_oracle(disc, flat1):
    # oracle: S = real_form(B) and the value on a quadratic is tr(S Q)
    u = ScalarField.from_vectorized(disc, abs2)
    node = disc.node_at(np.zeros(2))
    b = np.array([[1.0 + 0j]])
    s = real_form(b)
    expect = float(np.trace(s @ (2 * np.eye(2))))
    assert blaplacian(u, flat1, node, b) == pytest.approx(expect)
    assert expect == pytest.approx(1.0)


def test_blaplacian_vanishes_on_pluriharmonic(disc, flat1):
    u = ScalarField.from_vectorized(disc, lambda X: X[:, 0] ** 2 - X[:, 1] ** 2)
    node = disc.node_at(np.zeros(2))
    assert blaplacian(u, flat1, node, np.array([[1.0 + 0j]])) == 0.0
    const = ScalarField(disc, np.full(disc.n_nodes, 3.3))
    assert blaplacian(const, flat1, node, np.array([[1.0 + 0j]])) == 0.0


def test_blaplacian_rejections(disc, flat1):
    u = ScalarField.from_vectorized(disc, abs2)
    node = disc.node_at(np.zeros(2))
    with pytest.raises(PshError):
        blaplacian(u, flat1, node, np.array([[2.0 + 0j]]))          # det != 1
    with pytest.raises(PshError):
        blaplacian(u, flat1, node, np.array([[-1.0 + 0j]]))         # not > 0
    with pytest.raises(PshError):
        blaplacian(u, flat1, int(disc.boundary_ids[0]),
                   np.array([[1.0 + 0j]]))                          # boundary


def test_b_family_contents():
    fam1 = default_b_family(1)
    assert len(fam1) == 1 and np.allclose(fam1[0], np.eye(1))
    fam2 = default_b_family(2)
    assert any(np.allclose(b, np.eye(2)) for b in fam2)
    for b in fam2:
        check_b_matrix(b)


def test_adapted_bstar_unit_determinant_and_floor():
    rng = CounterRng(44)
    acs = np.stack([rng.hermitian(2) for _ in range(10)])
    bstar = adapted_bstar(acs)
    dets = np.linalg.det(bstar).real
    assert np.allclose(dets, 1.0)
    degenerate = np.array([[[0.0, 0.0], [0.0, 1.0 + 0j]]])
    bd = adapted_bstar(degenerate)
    assert np.isfinite(bd).all()
    assert np.linalg.det(bd[0]).real == pytest.approx(1.0)


def test_via_blaplacians_verdicts(disc, flat1):
    u = ScalarField.from_vectorized(disc, abs2)
    assert psh_via_blaplacians(u, flat1).psh
    un = ScalarField(disc, -u.values)
    rep = psh_via_blaplacians(un, flat1)
    assert not rep.psh
    assert rep.witness_b is not None
    # the reported witness certifies the failure through its own operator
    node = disc.node_at(rep.worst_node)
    assert blaplacian(un, flat1, node, rep.witness_b) < 0


def test_blap_min_field_matches_per_node_blaplacian_with_drift():
    # the batched family against the independent per-node reference, on a
    # non-flat structure where every member carries a drift
    dom = LatticeDomain.ball(np.zeros(4), 1.0, 9)
    sub = Subequation(make_structure("antilinear-linear-eps", n=2, eps=0.1,
                                     generator=3))
    u = ScalarField.from_vectorized(
        dom, lambda X: abs2(X) + 0.3 * X[:, 0] * X[:, 3] + 0.2 * X[:, 1] ** 3)
    best, witness, ops = blap_min_field(u, sub, include_adapted=False)
    assert np.any(ops.et != 0.0)
    rng = CounterRng(12)
    for _ in range(8):
        row = int(rng.uniform(0, best.size - 1e-9))
        node = int(dom.interior_ids[row])
        ref = [blaplacian(u, sub, node, b) for b in ops.members]
        assert abs(best[row] - min(ref)) <= 1e-12
        assert witness[row] == int(np.argmin(ref))


def test_via_blaplacians_rejects_masked_stencil(disc, flat1):
    mask = np.zeros(disc.n_nodes, dtype=bool)
    center = disc.node_at(np.zeros(2))
    mask[disc.neighbor_ids(np.array([center]), np.array([1, 1]))[0]] = True
    u = ScalarField(disc, abs2(disc.node_coords), mask)
    with pytest.raises(LatticeError):
        psh_via_blaplacians(u, flat1)


def test_via_blaplacians_requires_identity_and_rejects_empty(disc, flat1):
    u = ScalarField.from_vectorized(disc, abs2)
    with pytest.raises(PshError):
        psh_via_blaplacians(u, flat1, family=[])
    fam2 = default_b_family(2)[1:]
    dom4 = LatticeDomain.ball(np.zeros(4), 1.0, 9)
    sub2 = Subequation(make_structure("standard", n=2))
    u4 = ScalarField.from_vectorized(dom4, abs2)
    with pytest.raises(PshError):
        psh_via_blaplacians(u4, sub2, family=fam2)


@pytest.mark.parametrize("n", [1, 2])
def test_verdict_agreement_on_constructed_quadratics(n):
    # brute-force agreement battery (small edition of the acceptance run)
    dom = (LatticeDomain.box([-1, 1], 17, dim=2) if n == 1
           else LatticeDomain.box([-1, 1], 9, dim=4))
    sub = Subequation(make_structure("standard", n=n))
    rng = CounterRng(55 + n)
    band = 0.2 if n == 1 else 0.4
    for k in range(10):
        sgn = 1.0 if k % 2 == 0 else -1.0
        target = sgn * rng.uniform(band, band + 0.8)
        ac = rng.hermitian(n)
        ac += (target / 2.0 - np.linalg.eigvalsh(ac)[0]) * np.eye(n)
        u = ScalarField(dom, 0.5 * np.einsum(
            "ni,ij,nj->n", dom.node_coords, 0.5 * realify(ac),
            dom.node_coords))
        direct = psh_margin(u, sub, tol=1e-9)
        family = psh_via_blaplacians(u, sub, tol=1e-9)
        assert direct.psh == family.psh == (target > 0)


def test_report_serialization(disc, flat1):
    u = ScalarField.from_vectorized(disc, abs2)
    rep = psh_margin(u, flat1)
    d = rep.to_dict()
    assert d["verdict"] == "psh"
    assert isinstance(d["worst_node"], list)
