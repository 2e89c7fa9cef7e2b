import numpy as np
import pytest

from acx.algebra import (
    AlmostComplexField,
    make_structure,
    realify,
    standard_j,
)
from acx.lattice import LatticeDomain, LatticeError, ScalarField
from acx.psh import (
    MarginContext,
    OperatorFamily,
    PshError,
    SliceRestriction,
    adapted_bstar,
    blaplacian,
    check_b_matrix,
    family_verdict,
    field_margins,
    induced_slice_structure,
    margin_verdict,
    psh_margin,
    psh_via_blaplacians,
    real_form,
    real_form_eigh,
    restriction_check,
    restriction_verdict,
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

def slice_grid():
    """The 5^2 grid of [-1, 1]^2, where the slice checks read."""
    return LatticeDomain.box([-1, 1], 5, dim=2).node_coords


def test_slice_compatibility_of_flat_structure():
    comp = slice_compatible(make_structure("standard", n=2), 1, slice_grid())
    assert comp.compatible and comp.f21_residual == 0.0


def test_slice_compatibility_of_compatible_preset():
    acx = make_structure("antilinear-slice-compatible", n=2, m=1, eps=0.1)
    comp = slice_compatible(acx, 1, slice_grid())
    assert comp.compatible
    assert comp.e_block_residual <= 1e-7


def test_slice_incompatibility_detected():
    acx = make_structure("antilinear-linear-eps", n=2, eps=0.1, generator=4)
    comp = slice_compatible(acx, 1, slice_grid())
    assert not comp.compatible and comp.f21_residual > 1e-3


def test_induced_structure_squares_to_minus_identity():
    acx = make_structure("antilinear-slice-compatible", n=2, m=1, eps=0.1)
    ind = induced_slice_structure(acx, 1)
    rng = CounterRng(31)
    assert ind.validate(0.5 * rng.normals((20, 2)), tol=1e-8) <= 1e-8


@pytest.mark.parametrize("n,m", [(2, 1), (3, 1), (3, 2)])
def test_induced_frame_evaluates_the_ambient_structure_once(n, m):
    acx = make_structure("antilinear-slice-compatible", n=n, m=m, eps=0.1)
    calls = []
    evaluate = acx.evaluate
    acx.evaluate = lambda pts: calls.append(1) or evaluate(pts)
    frame = induced_slice_structure(acx, m).at(
        0.5 * CounterRng(5).normals((8, 2 * m)))
    assert frame.dj is not None
    assert len(calls) == 1


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


@pytest.mark.parametrize("m", [1, 2])
def test_restriction_n3_on_a_lattice(m):
    # the 5^6 box of test_n3_verdicts_on_a_lattice, with the compatible
    # preset for each slice dimension
    dom = LatticeDomain.box([-0.5, 0.5], 5, dim=6, stencil_radius=1)
    sub = Subequation(make_structure("antilinear-slice-compatible", n=3, m=m,
                                     eps=0.05))
    u = ScalarField.from_vectorized(dom, abs2)
    good = restriction_check(u, sub, m)
    assert good.ambient_psh and good.slice_psh and good.implication_holds
    assert good.ambient_margin > 1.5 and good.slice_margin > 1.5
    bad = restriction_check(ScalarField(dom, -u.values), sub, m)
    assert not bad.ambient_psh and not bad.slice_psh
    assert bad.ambient_margin < -1.5


def test_restriction_n3_rejects_the_m1_preset_on_a_2_slice():
    dom = LatticeDomain.box([-0.5, 0.5], 5, dim=6, stencil_radius=1)
    sub = Subequation(make_structure("antilinear-slice-compatible", n=3, m=1,
                                     eps=0.05))
    u = ScalarField.from_vectorized(dom, abs2)
    with pytest.raises(PshError, match="almost complex submanifold"):
        restriction_check(u, sub, 2)


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


def test_non_finite_b_is_rejected(disc, flat1):
    # every comparison against NaN is false, so hermiticity, positivity and
    # the determinant alone would let a NaN B through
    nan = np.array([[np.nan + 0j]])
    with pytest.raises(PshError, match="finite"):
        check_b_matrix(nan)
    u = ScalarField.from_vectorized(disc, abs2)
    with pytest.raises(PshError, match="finite"):
        blaplacian(u, flat1, disc.node_at(np.zeros(2)), nan)


@pytest.mark.parametrize("name,kwargs", [
    ("standard", {}),
    ("antilinear-linear-eps", {"eps": 0.1, "generator": 3}),
])
@pytest.mark.parametrize("field,identity", [
    (lambda X: -abs2(X), True),
    (lambda X: X[:, 0] ** 2 + X[:, 1] ** 2 - 2 * X[:, 2] ** 2, False),
])
def test_via_blaplacians_n2_witness(name, kwargs, field, identity):
    # the reported n = 2 witness is a unit-determinant form whose own
    # operator, at the worst node, is the worst margin: the identity on a
    # negative definite field, the adapted witness on a saddle
    dom = LatticeDomain.ball(np.zeros(4), 1.0, 9)
    sub = Subequation(make_structure(name, n=2, **kwargs))
    v = ScalarField.from_vectorized(dom, field)
    rep = psh_via_blaplacians(v, sub)
    assert not rep.psh
    check_b_matrix(rep.witness_b)
    assert np.allclose(rep.witness_b, np.eye(2)) == identity
    node = dom.node_at(rep.worst_node)
    ref = blaplacian(v, sub, node, rep.witness_b)
    assert abs(ref - rep.worst_margin) <= 1e-12
    assert ref < 0


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


def eigh_bstar(ac):
    """The eigendecomposition formula of the adapted witness: eigenvalues
    floored at 1e-8, clipped to [gm / 4, 4 gm] around their geometric mean
    gm, then B* = det^{1/n} V diag(1 / banded) V^*."""
    vals, vecs = np.linalg.eigh(ac)
    n = ac.shape[-1]
    floored = np.clip(vals, 1e-8, None)
    gm = np.prod(floored, axis=-1) ** (1.0 / n)
    banded = np.clip(floored, gm[:, None] / 4.0, gm[:, None] * 4.0)
    inv = np.prod(banded, axis=-1)[:, None] ** (1.0 / n) / banded
    return np.einsum("nak,nk,nbk->nab", vecs, inv, vecs.conj())


def test_adapted_bstar_closed_form_matches_the_eigendecomposition():
    # where the floor acts and the clip does not, the witness depends on
    # l2 / 1e-8, which any eigensolver knows only to eps |A| / l2; those
    # cases keep |A| near l2
    rng = CounterRng(46)
    spectra = [
        (1.0, 2.0), (0.3, 4.7), (1.0, 15.9),            # inside the band
        (1.0, 16.1), (0.01, 50.0), (1e-6, 1.0),         # clipped
        (5e-9, 1e-7), (-5e-8, 1e-7),                    # one floored
        (-0.5, 2.0), (0.0, 1.0),                        # ... and clipped
        (-1.0, -0.5), (-2.0, 5e-9),                     # both floored
    ]
    acs = []
    for lo, hi in spectra:
        u = np.linalg.qr(rng.complex_normals((2, 2)))[0]
        acs.append(u @ np.diag([lo, hi]) @ u.conj().T)
    acs += [rng.hermitian(2) for _ in range(20)]      # indefinite and not
    acs = np.stack(acs)
    bstar, ref = adapted_bstar(acs), eigh_bstar(acs)
    scale = np.abs(ref).max(axis=(1, 2), keepdims=True)
    assert np.all(np.abs(bstar - ref) <= 1e-13 * scale)
    assert np.all(np.abs(np.linalg.det(bstar) - 1.0) <= 1e-12)
    # a scalar hessian, floored or not, has the identity as its witness
    scalar = np.array([c * np.eye(2, dtype=complex)
                       for c in (-2.0, 0.0, 1e-12, 1e-8, 0.3, 3.7, 1e6)])
    assert np.array_equal(adapted_bstar(scalar),
                          np.broadcast_to(np.eye(2), scalar.shape))


def test_adapted_bstar_n3_keeps_the_eigendecomposition():
    rng = CounterRng(47)
    acs = np.stack([rng.hermitian(3) for _ in range(10)]
                   + [np.diag([-1.0, 0.5, 20.0]).astype(complex)])
    assert np.array_equal(adapted_bstar(acs), eigh_bstar(acs))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_real_form_eigh_rebuilds_the_real_form(n):
    # eigh's layout: ascending eigenvalues, orthonormal real columns that
    # rebuild real_form(b); each eigenvalue of B / 4 appears twice
    rng = CounterRng(48 + n)
    b = np.stack([rng.hermitian(n) for _ in range(20)]
                 + [c * np.eye(n, dtype=complex) for c in (1.0, -2.5)])
    vals, vecs = real_form_eigh(b)
    s = real_form(b)
    scale = np.abs(s).max(axis=(1, 2))
    assert np.all(np.diff(vals, axis=1) >= 0.0)
    assert np.all(np.abs(vals - np.linalg.eigvalsh(s))
                  <= 1e-13 * scale[:, None])
    rebuilt = np.einsum("nak,nk,nbk->nab", vecs, vals, vecs)
    assert np.all(np.abs(rebuilt - s).max(axis=(1, 2)) <= 1e-13 * scale)
    gram = vecs.transpose(0, 2, 1) @ vecs
    assert np.abs(gram - np.eye(2 * n)).max() <= 1e-13


def test_flat_adapted_snap_does_not_follow_roundoff():
    # a quadratic's complex hessian is constant up to roundoff, so the
    # adapted member's directions are one row at every node where every
    # direction is available; eigh on the 4 x 4 real form, whose every
    # eigenvalue is doubled, let roundoff pick dozens of distinct rows
    from acx.suite import _quadratic_with_margin

    dom = LatticeDomain.box([-1, 1], 9, dim=4)
    q = _quadratic_with_margin(2, CounterRng(31339), 0.7)
    x = dom.node_coords
    u = ScalarField(dom, 0.5 * np.einsum("ni,ij,nj->n", x, q, x))
    ops = OperatorFamily(Subequation(make_structure("standard", n=2)), dom)
    pol = ops.adapted_policy(u.values)
    full = ops.stencil.allowed.all(axis=1)
    assert np.count_nonzero(full) == 625
    ac = ops.margins.forms(u.values)[full]
    assert 0.0 < np.abs(ac - ac[0]).max() <= 1e-13
    assert np.unique(pol.dir_idx[full], axis=0).shape[0] == 1


def count_eigh(monkeypatch):
    """Shapes of the stacks passed to np.linalg.eigh, which discretize and
    psh both reach as an attribute of numpy's linalg module."""
    shapes = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a, *args, **kwargs:
                        shapes.append(np.shape(a)) or eigh(a, *args, **kwargs))
    return shapes


def test_flat_n2_family_runs_no_eigh(monkeypatch):
    shapes = count_eigh(monkeypatch)
    dom, sub, fields = battery_quadratics(2, 2)
    ops = OperatorFamily(sub, dom)
    reports = [family_verdict(u, ops, tol=1e-9) for u in fields]
    assert [rep.psh for rep in reports] == [True, False]
    assert shapes == []


def test_non_flat_family_runs_no_eigh_and_snaps_its_frame_once(monkeypatch):
    # every member takes B's eigenpairs in closed form and pushes them
    # through g; the d vectors g e_i do not depend on B, so they are
    # snapped once, with the family, and every refresh snaps only its own
    # g r_j (two of them: the partner of mu_1 has weight zero)
    import acx.discretize as disc_mod
    import acx.psh as psh_mod

    shapes = count_eigh(monkeypatch)
    snapped = []
    snap = disc_mod.snap_units

    def record(st, units):
        snapped.append(units)
        return snap(st, units)

    # the family snaps its frame itself and its members through snap_policy
    monkeypatch.setattr(psh_mod, "snap_units", record)
    monkeypatch.setattr(disc_mod, "snap_units", record)
    dom = LatticeDomain.ball(np.zeros(4), 1.0, 9)
    sub = Subequation(make_structure("antilinear-linear-eps", n=2, eps=0.1,
                                     generator=3))
    ops = OperatorFamily(sub, dom)
    x = dom.node_coords
    for c in (0.0, 0.3, -0.4):
        u = ScalarField(dom, abs2(x) + c * x[:, 0] * x[:, 3] + x[:, 1] ** 2)
        assert ops.adapted_policy(u.values).dir_idx.shape[1] == 6
    assert shapes == []
    g = ops.frame.g
    np.testing.assert_allclose(
        snapped[0], g / np.linalg.norm(g, axis=1)[:, None], rtol=1e-14)
    assert [units.shape for units in snapped[1:]] == [(g.shape[0], 4, 2)] * 3
    # on this frame every g e_i snaps to its own axis
    np.testing.assert_array_equal(
        ops.columns[0], np.broadcast_to(ops.stencil.axes, (g.shape[0], 4)))
    assert ops.identity.dir_idx.shape[1] == 4


@pytest.mark.parametrize("n", [1, 2, 3])
def test_flat_identity_keeps_only_the_axes(n):
    # every remainder term of the identity has weight zero, so it is skipped
    dom = LatticeDomain.box([-1, 1], 5, dim=2 * n, stencil_radius=1)
    ops = OperatorFamily(Subequation(make_structure("standard", n=n)), dom)
    np.testing.assert_array_equal(
        ops.identity.dir_idx,
        np.broadcast_to(ops.stencil.axes, (dom.interior_ids.size, 2 * n)))


def test_flat_adapted_member_skips_the_partner_of_its_lowest_eigenvalue():
    # the i v partner of lambda_min's eigenvector v carries mu_2 - mu_1 = 0
    # at every node: 2d - 2 columns, all with a positive weight somewhere
    dom, sub, fields = battery_quadratics(2, 1)
    ops = OperatorFamily(sub, dom)
    pol = ops.adapted_policy(fields[0].values)
    assert pol.dir_idx.shape[1] == 6
    assert np.all(np.any(pol.wplus > 0.0, axis=0))


@pytest.mark.parametrize("name,kwargs", [
    ("standard", {}),
    ("antilinear-linear-eps", {"eps": 0.1, "generator": 3}),
])
def test_active_policy_pads_narrower_members(name, kwargs):
    # the identity has 4 columns and each witness 6; at every node the
    # frozen policy is the member it names, on any values
    dom = LatticeDomain.ball(np.zeros(4), 1.0, 9)
    ops = OperatorFamily(Subequation(make_structure(name, n=2, **kwargs)), dom)
    x = dom.node_coords
    members = [ops.adapted_policy(abs2(x) + c * x[:, 0] * x[:, 2]
                                  + 0.5 * x[:, 3] ** 2)
               for c in (0.6, -0.6)]
    assert ops.identity.dir_idx.shape[1] == 4
    assert {m.dir_idx.shape[1] for m in members} == {6}
    active = np.arange(dom.interior_ids.size) % 3
    values = CounterRng(5).normals((dom.n_nodes,))
    frozen = ops.active_policy(active, *members).value(values)
    own = np.stack([p.value(values) for p in (ops.identity, *members)])
    np.testing.assert_array_equal(frozen, own[active, np.arange(active.size)])


def test_family_rejects_frame_vectors_that_snap_together():
    # g e_1 = (1, 0) and g e_2 = (0.9, 0.1) both snap to the first axis, so
    # the shared columns span no basis for the drift
    g = np.array([[1.0, 0.9], [0.0, 0.1]])
    acx = AlmostComplexField(1, lambda pts: (
        np.broadcast_to(g, (len(pts), 2, 2)),
        np.zeros((len(pts), 2, 2, 2))), name="collapsed")
    dom = LatticeDomain.ball(np.zeros(2), 1.0, 9)
    with pytest.raises(PshError, match="linearly dependent"):
        OperatorFamily(Subequation(acx), dom)


def sheared_structure():
    """n = 1 structure with g = [[1, 0.6 + 0.2 x1], [0, 1]]: g e_2 snaps
    off the axes, and the x1-dependence gives a drift."""
    def evaluate(pts):
        g = np.zeros((len(pts), 2, 2))
        g[:, 0, 0] = g[:, 1, 1] = 1.0
        g[:, 0, 1] = 0.6 + 0.2 * pts[:, 0]
        dg = np.zeros((len(pts), 2, 2, 2))
        dg[:, 0, 0, 1] = 0.2
        return g, dg
    return AlmostComplexField(1, evaluate, name="sheared")


def test_drift_is_upwinded_along_the_snapped_frame_columns():
    # the drift b = sum_i c_i w_i goes on the shared columns w_i with
    # c = W^{-1} b: on an affine field the operator is b . p, and the
    # per-node reference agrees
    dom = LatticeDomain.ball(np.zeros(2), 1.0, 17)
    sub = Subequation(sheared_structure())
    ops = OperatorFamily(sub, dom)
    dir_idx, _, _ = ops.columns
    st = ops.stencil
    assert np.all(dir_idx[:, 0] == st.axes[0])
    # (0.6 + 0.2 x1, 1) snaps to (1, 2) or, where x1 is large, to (1, 1)
    assert np.unique(st.dirs[dir_idx[:, 1]], axis=0).tolist() == [[1, 1],
                                                                   [1, 2]]
    _, drift = ops.coefficients(ops.frame, real_form(np.eye(1, dtype=complex)))
    assert np.all(drift[:, 0] != 0.0)
    grad = np.array([0.7, -1.3])
    affine = 0.4 + dom.node_coords @ grad
    np.testing.assert_allclose(ops.identity.value(affine), drift @ grad,
                               rtol=0, atol=1e-12)
    u = ScalarField.from_vectorized(
        dom, lambda X: abs2(X) + 0.3 * X[:, 0] * X[:, 1] + 0.2 * X[:, 1] ** 3)
    value = ops.identity.value(u.values)
    rng = CounterRng(14)
    for _ in range(8):
        row = int(rng.uniform(0, value.size - 1e-9))
        ref = blaplacian(u, sub, int(st.nodes[row]), np.eye(1, dtype=complex))
        assert abs(value[row] - ref) <= 1e-12


@pytest.mark.parametrize("n", [2, 3])
def test_margins_are_the_real_form_eigenvalues(n):
    # the eigenvalue slack is 2 lambda_min(A_C), the smallest eigenvalue of
    # the averaged real form H' / 2, on the 5^4 and 5^6 boxes of a
    # non-flat structure
    dom = LatticeDomain.box([-0.5, 0.5], 5, dim=2 * n, stencil_radius=1)
    sub = Subequation(make_structure("antilinear-slice-compatible", n=n, m=1,
                                     eps=0.05))
    x = dom.node_coords
    u = ScalarField(dom, abs2(x) * np.cos(x[:, 0] - 2.0 * x[:, -1])
                    - 0.7 * x[:, 1] * x[:, 2])
    ctx = MarginContext(sub, dom)
    _, eig, _ = field_margins(u, ctx)
    ps, as_ = ctx.table.jets(u.values)
    g = ctx.frame.g
    m = np.transpose(g, (0, 2, 1)) @ (as_ + ctx.frame.e(ps)) @ g
    j0 = standard_j(n)
    hp = m + j0.T @ m @ j0
    real_form_min = 0.5 * np.linalg.eigvalsh(hp)[:, 0]
    assert eig.min() < 0 < eig.max()
    assert np.max(np.abs(eig - real_form_min)) <= 1e-12


def test_margin_context_forms_follow_in_place_changes():
    dom = LatticeDomain.box([-1, 1], 5, dim=4)
    sub = Subequation(make_structure("standard", n=2))
    ctx = MarginContext(sub, dom)
    values = abs2(dom.node_coords)
    first = ctx.forms(values)
    assert ctx.forms(values.copy()) is first
    assert not first.flags.writeable
    values *= 3.0
    again = ctx.forms(values)
    assert np.array_equal(again, MarginContext(sub, dom).forms(values))
    assert np.allclose(again, 3.0 * first)


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
    ops = OperatorFamily(sub, dom)
    best, adapted = ops.min_value(u.values, ops.adapted_policy(u.values))
    bstar = adapted_bstar(ops.margins.forms(u.values))
    assert np.any(ops.frame.e_tensor != 0.0)
    rng = CounterRng(12)
    for _ in range(8):
        row = int(rng.uniform(0, best.size - 1e-9))
        node = int(dom.interior_ids[row])
        ref = [blaplacian(u, sub, node, b)
               for b in (np.eye(2, dtype=complex), bstar[row])]
        assert abs(best[row] - min(ref)) <= 1e-12
        assert adapted[row] == int(np.argmin(ref))


def test_flat_adapted_policy_matches_per_node_blaplacian():
    # the flat n = 2 adapted member against the per-node reference, which
    # reads the same closed-form eigenpairs
    dom = LatticeDomain.ball(np.zeros(4), 1.0, 9)
    sub = Subequation(make_structure("standard", n=2))
    u = ScalarField.from_vectorized(
        dom, lambda X: abs2(X) + 0.3 * X[:, 0] * X[:, 3] + 0.2 * X[:, 1] ** 3)
    ops = OperatorFamily(sub, dom)
    value = ops.adapted_policy(u.values).value(u.values)
    bstar = adapted_bstar(ops.margins.forms(u.values))
    rng = CounterRng(13)
    for _ in range(5):
        row = int(rng.uniform(0, value.size - 1e-9))
        node = int(dom.interior_ids[row])
        assert not np.allclose(bstar[row], np.eye(2))
        ref = blaplacian(u, sub, node, bstar[row])
        assert abs(value[row] - ref) <= 1e-12


def test_via_blaplacians_rejects_masked_stencil(disc, flat1):
    mask = np.zeros(disc.n_nodes, dtype=bool)
    center = disc.node_at(np.zeros(2))
    mask[disc.neighbor_ids(np.array([center]), np.array([1, 1]))[0]] = True
    u = ScalarField(disc, abs2(disc.node_coords), mask)
    with pytest.raises(LatticeError):
        psh_via_blaplacians(u, flat1)


def test_agreement_battery_builds_one_family_per_dimension(monkeypatch):
    import acx.suite as suite_mod
    from acx.suite import SuiteConfig, blaplacian_agreement_battery

    built = []

    class Counting(OperatorFamily):
        def __init__(self, *args):
            built.append(self)
            super().__init__(*args)

    monkeypatch.setattr(suite_mod, "OperatorFamily", Counting)
    out = blaplacian_agreement_battery(SuiteConfig(quadratics=6))
    assert out["all_pass"]
    assert len(built) == 2


def battery_quadratics(n: int, count: int):
    """The domain, structure and first ``count`` fields of the agreement
    battery at seed 1."""
    from acx.suite import _quadratic_with_margin

    rng = CounterRng(31337 + n)
    dom = (LatticeDomain.box([-1, 1], 17, dim=2) if n == 1
           else LatticeDomain.box([-1, 1], 9, dim=4))
    sub = Subequation(make_structure("standard", n=n))
    band = 0.2 if n == 1 else 0.4
    fields = []
    for i in range(count):
        sgn = 1.0 if i % 2 == 0 else -1.0
        q = _quadratic_with_margin(n, rng, sgn * rng.uniform(band, band + 0.8))
        fields.append(ScalarField(dom, 0.5 * np.einsum(
            "ni,ij,nj->n", dom.node_coords, q, dom.node_coords)))
    return dom, sub, fields


@pytest.mark.parametrize("n", [1, 2])
def test_shared_family_gives_the_fresh_family_reports(n):
    # one family reused across fields against a new family per field, with
    # and without the default tolerance: every report field is equal
    dom, sub, fields = battery_quadratics(n, 8)
    ops = OperatorFamily(sub, dom)
    for u in fields:
        for tol in (1e-9, None):
            shared = family_verdict(u, ops, tol=tol)
            fresh = psh_via_blaplacians(u, sub, tol=tol)
            assert shared.psh == fresh.psh
            assert shared.worst_margin == fresh.worst_margin
            np.testing.assert_array_equal(shared.worst_node, fresh.worst_node)
            assert shared.tol_at_worst == fresh.tol_at_worst
            if fresh.witness_b is None:
                assert shared.witness_b is None
            else:
                np.testing.assert_array_equal(shared.witness_b, fresh.witness_b)
    assert {family_verdict(u, ops).psh for u in fields} == {True, False}


def test_family_rejects_a_field_on_another_domain(flat1):
    a = LatticeDomain.ball(np.zeros(2), 1.0, 17)
    b = LatticeDomain.ball(np.zeros(2), 1.0, 17)
    ops = OperatorFamily(flat1, a)
    with pytest.raises(LatticeError, match="domain"):
        family_verdict(ScalarField.from_vectorized(b, abs2), ops)
    assert family_verdict(ScalarField.from_vectorized(a, abs2), ops).psh


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


def test_n3_verdicts_on_a_lattice():
    # the smallest n = 3 lattice: a 5^6 box with the unit-box stencil and a
    # non-flat structure; both routes see |x|^2 as psh and -|x|^2 as not
    dom = LatticeDomain.box([-0.5, 0.5], 5, dim=6, stencil_radius=1)
    sub = Subequation(make_structure("antilinear-slice-compatible", n=3, m=1,
                                     eps=0.05))
    u = ScalarField.from_vectorized(dom, abs2)
    for check in (psh_margin, psh_via_blaplacians):
        good, bad = check(u, sub), check(ScalarField(dom, -u.values), sub)
        assert good.psh and good.worst_margin > 1.5
        assert not bad.psh and bad.worst_margin < -1.5


def test_report_serialization(disc, flat1):
    u = ScalarField.from_vectorized(disc, abs2)
    rep = psh_margin(u, flat1)
    d = rep.to_dict()
    assert d["verdict"] == "psh"
    assert isinstance(d["worst_node"], list)


# ---------------------------------------------------------------------------
# build once, apply per field
# ---------------------------------------------------------------------------

def assert_same_report(a, b):
    assert a.psh == b.psh
    assert a.worst_margin == b.worst_margin
    np.testing.assert_array_equal(a.worst_node, b.worst_node)
    assert a.tol_at_worst == b.tol_at_worst


@pytest.mark.parametrize("n", [1, 2])
def test_shared_margin_context_gives_the_one_shot_reports(n):
    # psh_margin builds a context per call; a context built once, alone or
    # as an operator family's, gives equal reports with either tolerance
    dom, sub, fields = battery_quadratics(n, 8)
    contexts = (MarginContext(sub, dom), OperatorFamily(sub, dom).margins)
    for u in fields:
        for tol in (1e-9, None):
            fresh = psh_margin(u, sub, tol=tol)
            for ctx in contexts:
                assert_same_report(margin_verdict(u, ctx, tol=tol), fresh)
    assert {psh_margin(u, sub).psh for u in fields} == {True, False}


def restriction_fields(dom):
    x = dom.node_coords
    quad = (x ** 2).sum(axis=1)
    crease = np.maximum(quad, quad + 0.01 * x[:, 0])
    mixed = x[:, 0] ** 2 + x[:, 1] ** 2 - 3 * (x[:, 2] ** 2 + x[:, 3] ** 2)
    return [ScalarField(dom, v) for v in (quad, -quad, crease, mixed)]


def test_shared_restriction_gives_the_one_shot_reports():
    dom = LatticeDomain.ball(np.zeros(4), 0.8, 13)
    sub = Subequation(make_structure("antilinear-slice-compatible", n=2, m=1,
                                     eps=0.1))
    rc = SliceRestriction(sub, dom, 1)
    reports = []
    for u in restriction_fields(dom):
        shared = restriction_verdict(u, rc)
        assert shared == restriction_check(u, sub, 1)
        reports.append(shared)
    assert {r.ambient_psh for r in reports} == {True, False}


def test_prebuilt_contexts_reject_masked_fields(disc, flat1):
    mask = np.zeros(disc.n_nodes, dtype=bool)
    mask[disc.node_at(np.zeros(2))] = True
    u = ScalarField(disc, abs2(disc.node_coords), mask)
    with pytest.raises(LatticeError):
        margin_verdict(u, MarginContext(flat1, disc))
    with pytest.raises(LatticeError):
        family_verdict(u, OperatorFamily(flat1, disc))
    dom = LatticeDomain.ball(np.zeros(4), 1.0, 9)
    mask = np.zeros(dom.n_nodes, dtype=bool)
    mask[dom.node_at(np.zeros(4))] = True
    u4 = ScalarField(dom, abs2(dom.node_coords), mask)
    sub2 = Subequation(make_structure("standard", n=2))
    with pytest.raises(LatticeError):
        restriction_verdict(u4, SliceRestriction(sub2, dom, 1))


def counting(monkeypatch, owner, name):
    """Count the calls of ``owner.name`` (a function or a method)."""
    calls = []
    original = getattr(owner, name)
    monkeypatch.setattr(owner, name,
                        lambda *a, **k: calls.append(1) or original(*a, **k))
    return calls


def test_restriction_battery_builds_once(monkeypatch):
    from acx import lattice, suite
    from acx.suite import SuiteConfig, restriction_battery

    evaluations = []

    def structure(*args, **kwargs):
        acx = make_structure(*args, **kwargs)
        evaluate = acx.evaluate
        acx.evaluate = lambda pts: evaluations.append(1) or evaluate(pts)
        return acx

    monkeypatch.setattr(suite, "make_structure", structure)
    tables = counting(monkeypatch, lattice.JetTable, "__init__")
    out = restriction_battery(SuiteConfig(restriction_fields=6))
    assert out["all_pass"]
    # slice compatibility, the ambient frame and the induced slice frame
    assert len(evaluations) <= 3
    assert len(tables) == 2


def test_agreement_battery_builds_at_most_four_jet_tables(monkeypatch):
    from acx import lattice
    from acx.suite import SuiteConfig, blaplacian_agreement_battery

    tables = counting(monkeypatch, lattice.JetTable, "__init__")
    assert blaplacian_agreement_battery(SuiteConfig(quadratics=6))["all_pass"]
    assert len(tables) <= 4


def test_agreement_battery_differences_each_field_once(monkeypatch):
    # the direct margin and the family's adapted witness read the same
    # complex hessians of a field: one jet gathering per field, for n = 1
    # (the margin alone) and for n = 2 (margin and witness)
    from acx import lattice
    from acx.suite import SuiteConfig, blaplacian_agreement_battery

    jets = counting(monkeypatch, lattice.JetTable, "jets")
    assert blaplacian_agreement_battery(SuiteConfig(quadratics=6))["all_pass"]
    assert len(jets) == 2 * 6
