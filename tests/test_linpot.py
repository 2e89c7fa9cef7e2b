import numpy as np
import pytest

from acx.algebra import make_structure
from acx.discretize import Stencil, snap_policy
from acx.lattice import LatticeDomain, LatticeError, ScalarField
from acx.linpot import (
    BallReplacement,
    LinearOperator,
    LinpotError,
    TransposedBump,
    ViscosityScheme,
    bump_field,
    bump_mass,
    classical_subharmonic,
    default_ball_battery,
    diagonal_operator,
    distributional_pairing,
    ess_usc_regularize,
    harmonic_replacement,
    laplacian,
    operator_from_structure,
    subfield_on,
    viscosity_subharmonic,
    viscosity_values,
)
from acx.psh import PshError, blaplacian, real_form
from acx.rng import CounterRng
from acx.subeq import Subequation
from acx.suite import _triangle_operators


def abs2(X):
    return (X ** 2).sum(axis=1)


@pytest.fixture
def box():
    return LatticeDomain.box([-1, 1], 21, dim=2)


@pytest.fixture
def lap():
    return laplacian(2)


# ---------------------------------------------------------------------------
# viscosity route
# ---------------------------------------------------------------------------

def test_viscosity_margin_of_square(box, lap):
    u = ScalarField.from_vectorized(box, abs2)
    v = viscosity_subharmonic(u, ViscosityScheme(lap, box))
    assert v.subharmonic and v.margin == pytest.approx(4.0)   # 2 * dim


def test_non_finite_coefficients_are_rejected(box):
    # a NaN passes every comparison-based check and would come out as a NaN
    # verdict; each coefficient is refused when it is read
    nan_a = LinearOperator(2, lambda pts: (np.diag([1.0, np.nan]), None))
    nan_b = LinearOperator(2, lambda pts: (np.eye(2), np.array([0.0, np.nan])))
    with pytest.raises(LinpotError, match=r"a\(x\) must be finite"):
        ViscosityScheme(nan_a, box)
    with pytest.raises(LinpotError, match=r"b\(x\) must be finite"):
        ViscosityScheme(nan_b, box)
    sub = Subequation(make_structure("standard", n=1))
    with pytest.raises(PshError, match="finite"):
        operator_from_structure(sub, np.array([[np.nan + 0j]]))


def test_viscosity_affine_reports_drift_pairing(box):
    p = np.array([1.0, -2.0])
    u = ScalarField.from_vectorized(box, lambda X: X @ p)
    op = diagonal_operator([1.0, 1.0])
    assert viscosity_subharmonic(
        u, ViscosityScheme(op, box)).margin == pytest.approx(0.0)
    drift = LinearOperator(2, lambda pts: (np.eye(2), np.array([2.0, 0.0])))
    assert viscosity_subharmonic(
        u, ViscosityScheme(drift, box)).margin == pytest.approx(2.0)


def test_viscosity_negative(box, lap):
    u = ScalarField.from_vectorized(box, lambda X: -abs2(X))
    v = viscosity_subharmonic(u, ViscosityScheme(lap, box))
    assert not v.subharmonic and v.margin == pytest.approx(-4.0)


# ---------------------------------------------------------------------------
# harmonic replacement
# ---------------------------------------------------------------------------

def test_replacement_exact_on_affine(box, lap):
    u = ScalarField.from_vectorized(box, lambda X: 2 * X[:, 0] - X[:, 1] + 0.5)
    rep = BallReplacement(lap, box, np.zeros(2), 4 * box.h)
    h = harmonic_replacement(u, rep)
    assert np.max(np.abs(h.values - subfield_on(u, h.domain).values)) < 1e-12


@pytest.mark.parametrize("op", _triangle_operators(),
                         ids=lambda op: op.provenance)
def test_replacement_dominates_subharmonic_and_matches_linear_solve(box, op):
    u = ScalarField.from_vectorized(box, abs2)
    rep = BallReplacement(op, box, np.zeros(2), 5 * box.h)
    h = harmonic_replacement(u, rep)
    uv = subfield_on(u, h.domain)
    assert np.min(h.values - uv.values) >= -1e-9
    # independent oracle: dense solve of the same monotone system, its
    # matrix probed column by column through Policy.value
    ball = h.domain
    st = Stencil(ball)
    a, b = op.at(ball.node_coords[st.nodes])
    pol = snap_policy(st, *np.linalg.eigh(a), drift=b)
    ni = st.nodes.size
    col = {int(n): k for k, n in enumerate(st.nodes)}
    amat = np.zeros((ni, ni))
    rhs = np.zeros(ni)
    probe = np.zeros(ball.n_nodes)
    base = pol.value(probe)
    for j in range(ball.n_nodes):
        probe[j] = 1.0
        colv = pol.value(probe) - base
        probe[j] = 0.0
        if j in col:
            amat[:, col[j]] = colv
        else:
            rhs -= colv * uv.values[j]
    dense = np.linalg.solve(amat, rhs)
    assert np.max(np.abs(dense - h.values[st.nodes])) < 1e-12


def test_replacement_constant_and_max_principle(box, lap):
    c = ScalarField(box, np.full(box.n_nodes, 2.2))
    rep = BallReplacement(lap, box, np.zeros(2), 4 * box.h)
    h = harmonic_replacement(c, rep)
    assert np.max(np.abs(h.values - 2.2)) < 1e-9
    u = ScalarField.from_vectorized(
        box, lambda X: np.sin(3 * X[:, 0]) + np.cos(2 * X[:, 1]))
    rep = BallReplacement(lap, box, np.zeros(2), 5 * box.h)
    h2 = harmonic_replacement(u, rep)
    interior_max = np.max(h2.values[h2.domain.interior_ids])
    boundary_max = np.max(h2.values[h2.domain.boundary_ids])
    assert interior_max <= boundary_max + 1e-8


def test_replacement_over_the_dense_budget_is_refused(monkeypatch):
    # the 4 h ball of a 4-D box: 137 interior of 1281 nodes, about 4 MiB of
    # dense system; under a 1 MiB budget it is refused before the snap
    import acx.linpot as linpot_mod

    dom = LatticeDomain.box([-1, 1], 11, dim=4)
    monkeypatch.setattr(linpot_mod, "_DENSE_BYTES", 1 << 20)
    monkeypatch.setattr(linpot_mod, "snap_policy", lambda *a: pytest.fail(
        "the ball was snapped before the size guard"))
    with pytest.raises(LinpotError, match=r"about 4 MiB .* 1 MiB budget"):
        BallReplacement(laplacian(4), dom, np.zeros(4), 4 * dom.h)


@pytest.mark.parametrize("radius", [0.26, 0.35, 0.3 + 1e-6],
                         ids=["0.26", "0.35", "0.3+1e-6"])
def test_ball_radius_off_the_grid_is_refused(box, lap, radius):
    # h = 0.1: each of these used to round to the 3-step ball silently
    with pytest.raises(LinpotError, match="whole number of grid steps"):
        BallReplacement(lap, box, np.zeros(2), radius)
    assert BallReplacement(lap, box, np.zeros(2), 0.3).ball.shape == (7, 7)


# ---------------------------------------------------------------------------
# classical route
# ---------------------------------------------------------------------------

def test_classical_verdicts(box, lap):
    balls = default_ball_battery(box)
    u = ScalarField.from_vectorized(box, abs2)
    battery = [BallReplacement(lap, box, c, r) for c, r in balls]
    assert classical_subharmonic(u, battery).subharmonic
    un = ScalarField(box, -u.values)
    verdict = classical_subharmonic(un, battery)
    assert not verdict.subharmonic and verdict.witness_ball is not None
    # a discrete-harmonic field passes with near-equality
    ua = ScalarField.from_vectorized(box, lambda X: X[:, 0] - 2 * X[:, 1])
    v = classical_subharmonic(ua, battery)
    assert v.subharmonic and abs(v.max_violation) < 1e-9


def test_ball_battery_on_a_ball_domain():
    # on a ball domain the clearance is measured from the domain's center
    # and radius, not from a bounding box
    dom = LatticeDomain.ball(np.array([0.2, -0.1]), 0.9, 33)
    balls = default_ball_battery(dom, count=4)
    assert len(balls) == 4
    for c, r in balls:
        assert np.linalg.norm(c - dom.center) + r < dom.radius - 1.5 * dom.h


def test_classical_requires_battery(box, lap):
    u = ScalarField.from_vectorized(box, abs2)
    with pytest.raises(LinpotError):
        classical_subharmonic(u, [])


@pytest.mark.parametrize("spike", [1e6, np.inf, np.nan])
def test_classical_tolerance_ignores_masked_nodes(box, lap, spike):
    # a superharmonic field fails on a centred ball; a masked value at the
    # corner (1, 1), off the ball, must not widen the tolerance
    battery = [BallReplacement(lap, box, np.zeros(2), 4 * box.h)]
    vals = -abs2(box.node_coords)
    plain = classical_subharmonic(ScalarField(box, vals), battery)
    assert not plain.subharmonic and plain.max_violation > 0.05
    corner = box.node_at(np.ones(2))
    mask = np.zeros(box.n_nodes, dtype=bool)
    mask[corner] = True
    vals[corner] = spike
    masked = classical_subharmonic(ScalarField(box, vals, mask), battery)
    assert masked == plain


# ---------------------------------------------------------------------------
# distributional route
# ---------------------------------------------------------------------------

def test_pairing_of_square_matches_mass(box, lap):
    u = ScalarField.from_vectorized(box, abs2)
    bump = bump_field(box, np.zeros(2), 0.5)
    pair = distributional_pairing(u, TransposedBump(lap, bump))
    mass = float(np.sum(bump.values)) * box.h ** 2
    assert pair == pytest.approx(4.0 * mass, rel=1e-9)
    assert pair == pytest.approx(4.0 * bump_mass(2, 0.5), rel=2e-2)


def test_pairing_signs(box, lap):
    bump = bump_field(box, np.zeros(2), 0.4)
    harm = ScalarField.from_vectorized(box, lambda X: X[:, 0] ** 2 - X[:, 1] ** 2)
    assert abs(distributional_pairing(harm, TransposedBump(lap, bump))) < 1e-12
    neg = ScalarField.from_vectorized(box, lambda X: -abs2(X))
    assert distributional_pairing(neg, TransposedBump(lap, bump)) < 0


def test_pairing_rejects_support_violation(box, lap):
    u = ScalarField.from_vectorized(box, abs2)
    wide = bump_field(box, np.zeros(2), 1.5)
    with pytest.raises(LinpotError):
        distributional_pairing(u, TransposedBump(lap, wide))


def _cross_drift_operator():
    # constant off-diagonal a, drift varying in both components
    return LinearOperator(2, lambda pts: (
        np.array([[1.5, 0.4], [0.4, 0.8]]),
        np.stack([np.sin(2 * pts[:, 1]) + 0.3,
                  pts[:, 0] * pts[:, 1] - 0.5 * pts[:, 0]], axis=1)))


def _structure_operator():
    acx = make_structure("antilinear-linear-eps", n=1, eps=0.1, generator=1)
    return operator_from_structure(Subequation(acx), np.array([[1.0 + 0j]]))


@pytest.mark.parametrize("make_op", [_cross_drift_operator,
                                     _structure_operator])
def test_transposed_bump_is_the_adjoint_of_the_viscosity_scheme(box, make_op):
    # summation by parts: every term of L^t (the cross terms with their
    # factor 2 and the drift with its sign) pairs with the centered L
    op = make_op()
    bump = bump_field(box, np.array([0.1, -0.05]), 0.45)
    u = ScalarField.from_vectorized(
        box, lambda X: np.exp(0.5 * X[:, 0]) * np.cos(X[:, 1]) + X[:, 0] * X[:, 1])
    lhs = distributional_pairing(u, TransposedBump(op, bump))
    rhs = float(np.sum(viscosity_values(u, ViscosityScheme(op, box))
                       * bump.values[box.interior_ids]) * box.h ** 2)
    assert abs(lhs - rhs) <= 1e-12


# ---------------------------------------------------------------------------
# regularization
# ---------------------------------------------------------------------------

def test_regularize_spike_and_continuous(box):
    vals = np.zeros(box.n_nodes)
    mask = np.zeros(box.n_nodes, dtype=bool)
    spike = box.node_at(np.zeros(2))
    vals[spike], mask[spike] = 1.0, True
    reg = ess_usc_regularize(ScalarField(box, vals, mask))
    assert np.max(np.abs(reg.values)) == 0.0
    cont = ScalarField.from_vectorized(box, lambda X: np.sin(X[:, 0]))
    assert np.array_equal(ess_usc_regularize(cont).values, cont.values)


def test_regularize_hyperplane_alterations_exact(box):
    base = np.maximum(box.node_coords[:, 0], 0.0)
    vals = base.copy()
    mask = np.abs(box.node_coords[:, 1]) < 1e-12
    vals[mask] = 37.0
    reg = ess_usc_regularize(ScalarField(box, vals, mask))
    assert np.array_equal(reg.values, base)


def test_regularize_idempotent_and_monotone(box):
    rng = CounterRng(3)
    vals = rng.normals((box.n_nodes,))
    mask = rng.uniforms((box.n_nodes,)) < 0.1
    u = ScalarField(box, vals, mask)
    once = ess_usc_regularize(u)
    assert once.mask is None
    twice = ess_usc_regularize(once)
    assert np.array_equal(once.values, twice.values)
    # monotone: raising unmasked values raises the regularization
    vals2 = vals.copy()
    vals2[~mask] += 0.5
    reg2 = ess_usc_regularize(ScalarField(box, vals2, mask))
    assert np.all(reg2.values >= once.values - 1e-12)


def test_regularize_rejects_fully_masked(box):
    u = ScalarField(box, np.zeros(box.n_nodes),
                    np.ones(box.n_nodes, dtype=bool))
    with pytest.raises(LinpotError):
        ess_usc_regularize(u)


# ---------------------------------------------------------------------------
# provenance consistency
# ---------------------------------------------------------------------------

def test_operator_from_structure_matches_blaplacian(box):
    acx = make_structure("antilinear-linear-eps", n=1, eps=0.1, generator=0)
    sub = Subequation(acx)
    b = np.array([[1.0 + 0j]])
    op = operator_from_structure(sub, b)
    u = ScalarField.from_vectorized(
        box, lambda X: abs2(X) + 0.3 * X[:, 0] * X[:, 1])
    st = Stencil(box)
    pts = box.node_coords[st.nodes]
    a, drift = op.at(pts)
    pol = snap_policy(st, *np.linalg.eigh(a), drift=drift)
    vals = pol.value(u.values)
    rng = CounterRng(9)
    for _ in range(10):
        row = int(rng.uniform(0, st.nodes.size - 1e-9))
        node = int(st.nodes[row])
        assert abs(vals[row] - blaplacian(u, sub, node, b)) <= 1e-12


def test_flat_operator_from_structure_is_the_real_form():
    # on the standard structure a(x) = real_form(B) at every point, and
    # there is no drift
    dom = LatticeDomain.box([-1, 1], 5, dim=4)
    b = np.array([[2.0, 0.5 - 0.5j], [0.5 + 0.5j, 0.75]])     # det B = 1
    op = operator_from_structure(
        Subequation(make_structure("standard", n=2)), b)
    a, drift = op.at(dom.node_coords)
    assert drift is None
    assert np.array_equal(a, np.broadcast_to(real_form(b), a.shape))


def test_structure_operator_evaluates_the_structure_once_per_use(box):
    # a and b come from one evaluation of the structure at the call's points
    acx = make_structure("antilinear-linear-eps", n=1, eps=0.1, generator=0)
    calls = []
    evaluate = acx.evaluate
    acx.evaluate = lambda pts: calls.append(1) or evaluate(pts)
    op = operator_from_structure(Subequation(acx), np.array([[1.0 + 0j]]))
    u = ScalarField.from_vectorized(box, abs2)
    for use in (lambda: harmonic_replacement(u, BallReplacement(
                    op, box, np.zeros(2), 4 * box.h)),
                lambda: viscosity_subharmonic(u, ViscosityScheme(op, box)),
                lambda: distributional_pairing(u, TransposedBump(
                    op, bump_field(box, np.zeros(2), 0.4)))):
        calls.clear()
        use()
        assert len(calls) == 1


# ---------------------------------------------------------------------------
# build once, apply per field
# ---------------------------------------------------------------------------

def test_pairing_rejects_a_bump_on_another_region(box, lap):
    # the 21-node unit disc has the grid of the 21-node box, not its nodes
    disc = LatticeDomain.ball(np.zeros(2), 1.0, 21)
    u = ScalarField.from_vectorized(box, abs2)
    bump = TransposedBump(lap, bump_field(disc, np.zeros(2), 0.4))
    with pytest.raises(LatticeError, match="domain"):
        distributional_pairing(u, bump)
    # an equal box built again is another domain: the rule is identity
    twin = LatticeDomain.box([-1, 1], 21, dim=2)
    with pytest.raises(LatticeError, match="domain"):
        distributional_pairing(u, TransposedBump(
            lap, bump_field(twin, np.zeros(2), 0.5)))
    own = TransposedBump(lap, bump_field(box, np.zeros(2), 0.5))
    assert np.isfinite(distributional_pairing(u, own))


def triangle_fields(dom, count):
    from acx.suite import _triangle_field

    rng = CounterRng(5)
    return [_triangle_field(dom, rng, sub_side=(i % 2 == 0))
            for i in range(count)]


def test_prebuilt_schemes_give_the_one_shot_reports(box):
    # one scheme, battery and transposed bump per operator, reused over the
    # fields, against fresh ones built for every call: equal bits
    from acx.suite import _triangle_operators

    balls = default_ball_battery(box, 2, seed=11)
    bumps = [bump_field(box, np.array([0.1, -0.2]), 0.4),
             bump_field(box, np.zeros(2), 0.5)]
    fields = triangle_fields(box, 4)
    for op in _triangle_operators():
        scheme = ViscosityScheme(op, box)
        battery = [BallReplacement(op, box, c, r) for c, r in balls]
        transposed = [TransposedBump(op, b) for b in bumps]
        for u in fields:
            shared = viscosity_subharmonic(u, scheme)
            fresh = viscosity_subharmonic(u, ViscosityScheme(op, box))
            assert shared.subharmonic == fresh.subharmonic
            assert shared.margin == fresh.margin
            np.testing.assert_array_equal(shared.worst_node, fresh.worst_node)
            for rep, (c, r) in zip(battery, balls):
                np.testing.assert_array_equal(
                    harmonic_replacement(u, rep).values,
                    harmonic_replacement(u, BallReplacement(op, box, c, r)).values)
            assert classical_subharmonic(u, battery) == classical_subharmonic(
                u, [BallReplacement(op, box, c, r) for c, r in balls])
            for lt, b in zip(transposed, bumps):
                assert distributional_pairing(u, lt) == distributional_pairing(
                    u, TransposedBump(op, b))
    assert {viscosity_subharmonic(u, ViscosityScheme(laplacian(2), box))
            .subharmonic for u in fields} == {True, False}


def test_prebuilt_schemes_reject_masked_fields(box, lap):
    # a masked spike of 5 at the centre: every route rejects it rather than
    # read it (the classical route used to report a violation of 4.91)
    centre = box.node_at(np.zeros(2))
    mask = np.zeros(box.n_nodes, dtype=bool)
    mask[centre] = True
    vals = abs2(box.node_coords)
    vals[centre] = 5.0
    u = ScalarField(box, vals, mask)
    with pytest.raises(LatticeError):
        viscosity_subharmonic(u, ViscosityScheme(lap, box))
    with pytest.raises(LatticeError):
        distributional_pairing(
            u, TransposedBump(lap, bump_field(box, np.zeros(2), 0.4)))
    covering = BallReplacement(lap, box, np.zeros(2), 0.4)
    with pytest.raises(LatticeError):
        harmonic_replacement(u, covering)
    with pytest.raises(LatticeError):
        classical_subharmonic(u, [covering])
    # a ball clear of the masked node reads only unmasked nodes
    clear = BallReplacement(lap, box, np.array([0.5, 0.5]), 0.3)
    assert classical_subharmonic(u, [clear]).subharmonic


def test_triangle_battery_snaps_each_ball_policy_once(monkeypatch):
    import acx.linpot as linpot_mod
    from acx.suite import SuiteConfig, linear_triangle_battery

    calls = []
    snap = linpot_mod.snap_policy
    monkeypatch.setattr(linpot_mod, "snap_policy",
                        lambda *a, **kw: calls.append(1) or snap(*a, **kw))
    out = linear_triangle_battery(SuiteConfig(linear_fields=4))
    assert out["all_pass"] and len(out["cases"]) == 12
    assert len(calls) == 9      # 3 operators x 3 balls
