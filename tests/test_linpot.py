import numpy as np
import pytest

from acx.algebra import make_structure
from acx.discretize import Stencil, snap_policy
from acx.lattice import LatticeDomain, ScalarField
from acx.linpot import (
    LinpotError,
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
)
from acx.psh import blaplacian
from acx.rng import CounterRng
from acx.subeq import Subequation


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
    v = viscosity_subharmonic(u, lap)
    assert v.subharmonic and v.margin == pytest.approx(4.0)   # 2 * dim


def test_viscosity_affine_reports_drift_pairing(box):
    p = np.array([1.0, -2.0])
    u = ScalarField.from_vectorized(box, lambda X: X @ p)
    op = diagonal_operator([1.0, 1.0])
    assert viscosity_subharmonic(u, op).margin == pytest.approx(0.0)
    from acx.linpot import LinearOperator
    drift = LinearOperator(2, lambda pts: (np.eye(2), np.array([2.0, 0.0])))
    assert viscosity_subharmonic(u, drift).margin == pytest.approx(2.0)


def test_viscosity_negative(box, lap):
    u = ScalarField.from_vectorized(box, lambda X: -abs2(X))
    v = viscosity_subharmonic(u, lap)
    assert not v.subharmonic and v.margin == pytest.approx(-4.0)


# ---------------------------------------------------------------------------
# harmonic replacement
# ---------------------------------------------------------------------------

def test_replacement_exact_on_affine(box, lap):
    u = ScalarField.from_vectorized(box, lambda X: 2 * X[:, 0] - X[:, 1] + 0.5)
    h = harmonic_replacement(u, lap, np.zeros(2), 4 * box.h)
    assert np.max(np.abs(h.values - subfield_on(u, h.domain).values)) < 1e-9


def test_replacement_dominates_subharmonic_and_matches_linear_solve(box, lap):
    u = ScalarField.from_vectorized(box, abs2)
    h = harmonic_replacement(u, lap, np.zeros(2), 5 * box.h)
    uv = subfield_on(u, h.domain)
    assert np.min(h.values - uv.values) >= -1e-9
    # independent oracle: dense solve of the same monotone system
    ball = h.domain
    st = Stencil(ball)
    pol = snap_policy(st, np.eye(2)[None])
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
    assert np.max(np.abs(dense - h.values[st.nodes])) < 1e-7


def test_replacement_constant_and_max_principle(box, lap):
    c = ScalarField(box, np.full(box.n_nodes, 2.2))
    h = harmonic_replacement(c, lap, np.zeros(2), 4 * box.h)
    assert np.max(np.abs(h.values - 2.2)) < 1e-9
    u = ScalarField.from_vectorized(
        box, lambda X: np.sin(3 * X[:, 0]) + np.cos(2 * X[:, 1]))
    h2 = harmonic_replacement(u, lap, np.zeros(2), 5 * box.h)
    interior_max = np.max(h2.values[h2.domain.interior_ids])
    boundary_max = np.max(h2.values[h2.domain.boundary_ids])
    assert interior_max <= boundary_max + 1e-8


def test_replacement_nonconvergence_is_an_error(box, lap):
    u = ScalarField.from_vectorized(box, abs2)
    # a zero residual is out of reach in floating point
    with pytest.raises(LinpotError, match="missed its tolerance"):
        harmonic_replacement(u, lap, np.zeros(2), 4 * box.h, tol_res=0.0)


# ---------------------------------------------------------------------------
# classical route
# ---------------------------------------------------------------------------

def test_classical_verdicts(box, lap):
    balls = default_ball_battery(box)
    u = ScalarField.from_vectorized(box, abs2)
    assert classical_subharmonic(u, lap, balls).subharmonic
    un = ScalarField(box, -u.values)
    verdict = classical_subharmonic(un, lap, balls)
    assert not verdict.subharmonic and verdict.witness_ball is not None
    # a discrete-harmonic field passes with near-equality
    ua = ScalarField.from_vectorized(box, lambda X: X[:, 0] - 2 * X[:, 1])
    v = classical_subharmonic(ua, lap, balls)
    assert v.subharmonic and abs(v.max_violation) < 1e-9


def test_classical_requires_battery(box, lap):
    u = ScalarField.from_vectorized(box, abs2)
    with pytest.raises(LinpotError):
        classical_subharmonic(u, lap, [])


# ---------------------------------------------------------------------------
# distributional route
# ---------------------------------------------------------------------------

def test_pairing_of_square_matches_mass(box, lap):
    u = ScalarField.from_vectorized(box, abs2)
    bump = bump_field(box, np.zeros(2), 0.5)
    pair = distributional_pairing(u, lap, bump)
    mass = float(np.sum(bump.values)) * box.h ** 2
    assert pair == pytest.approx(4.0 * mass, rel=1e-9)
    assert pair == pytest.approx(4.0 * bump_mass(2, 0.5), rel=2e-2)


def test_pairing_signs(box, lap):
    bump = bump_field(box, np.zeros(2), 0.4)
    harm = ScalarField.from_vectorized(box, lambda X: X[:, 0] ** 2 - X[:, 1] ** 2)
    assert abs(distributional_pairing(harm, lap, bump)) < 1e-12
    neg = ScalarField.from_vectorized(box, lambda X: -abs2(X))
    assert distributional_pairing(neg, lap, bump) < 0


def test_pairing_rejects_support_violation(box, lap):
    u = ScalarField.from_vectorized(box, abs2)
    wide = bump_field(box, np.zeros(2), 1.5)
    with pytest.raises(LinpotError):
        distributional_pairing(u, lap, wide)


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
    pol = snap_policy(st, *op.at(pts))
    vals = pol.value(u.values)
    rng = CounterRng(9)
    for _ in range(10):
        row = int(rng.uniform(0, st.nodes.size - 1e-9))
        node = int(st.nodes[row])
        assert abs(vals[row] - blaplacian(u, sub, node, b)) <= 1e-12


def test_structure_operator_evaluates_the_structure_once_per_use(box):
    # a and b come from one evaluation of the structure at the call's points
    acx = make_structure("antilinear-linear-eps", n=1, eps=0.1, generator=0)
    calls = []
    evaluate = acx.evaluate
    acx.evaluate = lambda pts: calls.append(1) or evaluate(pts)
    op = operator_from_structure(Subequation(acx), np.array([[1.0 + 0j]]))
    u = ScalarField.from_vectorized(box, abs2)
    for use in (lambda: harmonic_replacement(u, op, np.zeros(2), 4 * box.h),
                lambda: viscosity_subharmonic(u, op),
                lambda: distributional_pairing(
                    u, op, bump_field(box, np.zeros(2), 0.4))):
        calls.clear()
        use()
        assert len(calls) == 1
