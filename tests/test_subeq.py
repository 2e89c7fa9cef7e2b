import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from acx.algebra import make_structure, realify
from acx.rng import CounterRng
from acx.subeq import (
    ReducedJet,
    Subequation,
    SubequationError,
    constant_rhs,
    contains,
    dual_contains,
    jet_from_flat,
    jet_to_flat,
    margins_for_jets,
    positivity_closed,
    strict_contains,
)

ORIGIN2 = np.zeros(2)


def flat_sub(n=1, f=None):
    return Subequation(make_structure("standard", n=n),
                       rhs=None if f is None else constant_rhs(f))


def psh_jet(n, seed, margin):
    """Jet whose membership margin under the flat structure is exactly
    ``margin`` (oracle: margin = 2 min-eig of the complexified hessian)."""
    rng = CounterRng(seed)
    ac = rng.hermitian(n)
    ac += (margin / 2.0 - np.linalg.eigvalsh(ac)[0]) * np.eye(n)
    return ReducedJet(rng.normals((2 * n,)), 0.5 * realify(ac))


# ---------------------------------------------------------------------------
# contains
# ---------------------------------------------------------------------------

def test_contains_scaled_identity_margin_two():
    m = contains(flat_sub(), ORIGIN2, ReducedJet(np.zeros(2), 2 * np.eye(2)))
    assert m.inside and m.margin == pytest.approx(2.0)


def test_contains_offdiagonal_boundary():
    jet = ReducedJet(np.zeros(2), np.array([[0.0, 1.0], [1.0, 0.0]]))
    m = contains(flat_sub(), ORIGIN2, jet)
    assert m.inside and m.margin == pytest.approx(0.0)


def test_contains_det_boundary_at_unit_rhs():
    # the jet of |z|^2 sits on the determinant boundary when f = 1
    sub = flat_sub(f=1.0)
    x = np.array([0.7, -0.1])
    m = contains(sub, x, ReducedJet(2 * x, 2 * np.eye(2)))
    assert m.inside
    assert m.det_margin == pytest.approx(0.0)
    assert m.margin == pytest.approx(0.0)
    assert m.eig_margin == pytest.approx(2.0)


@pytest.mark.parametrize("n", [1, 2])
def test_constructed_margin_oracle(n):
    sub = flat_sub(n=n)
    for seed, margin in ((3, 0.7), (4, -0.4), (5, 0.0)):
        jet = psh_jet(n, seed, margin)
        got = contains(sub, np.zeros(2 * n), jet)
        assert got.margin == pytest.approx(margin, abs=1e-12)


# ---------------------------------------------------------------------------
# dual
# ---------------------------------------------------------------------------

def test_dual_zero_jet_homogeneous():
    m = dual_contains(flat_sub(), ORIGIN2, ReducedJet(np.zeros(2), np.zeros((2, 2))))
    assert m.inside


def test_dual_excludes_negated_interior():
    m = dual_contains(flat_sub(), ORIGIN2, ReducedJet(np.zeros(2), -np.eye(2)))
    assert not m.inside


def test_dual_zero_jet_inhomogeneous_by_definition():
    # the negated zero jet has zero determinant, hence is not interior when
    # f = 1; the definition therefore keeps the zero jet in the dual
    m = dual_contains(flat_sub(f=1.0), ORIGIN2,
                      ReducedJet(np.zeros(2), np.zeros((2, 2))))
    assert m.inside


def test_dual_involution_matches_membership():
    sub = flat_sub()
    for seed, margin in ((11, 0.8), (12, -0.6), (13, 0.3)):
        jet = psh_jet(1, seed, margin)
        direct = contains(sub, ORIGIN2, jet)
        # double dual: jet is dual-of-dual-admissible iff -jet fails the
        # strict interior of the dual; in margin terms the composition is
        # the identity
        dd = -dual_contains(sub, ORIGIN2, ReducedJet(-jet.p, -jet.a)).margin
        assert dd == pytest.approx(direct.margin, abs=1e-12)
        if abs(margin) > 1e-6:
            assert (dd >= 0) == direct.inside


def test_harmonic_set_is_the_boundary():
    # jets admissible for both the equation and the dual of the negation
    # carry zero margin
    sub = flat_sub()
    for seed in range(6):
        jet = psh_jet(1, 40 + seed, 0.0)
        assert contains(sub, ORIGIN2, jet).inside
        assert dual_contains(sub, ORIGIN2, ReducedJet(-jet.p, -jet.a)).inside
        assert abs(contains(sub, ORIGIN2, jet).margin) <= 1e-9
    interior = psh_jet(1, 50, 0.9)
    assert not dual_contains(sub, ORIGIN2,
                             ReducedJet(-interior.p, -interior.a)).inside


# ---------------------------------------------------------------------------
# strictness
# ---------------------------------------------------------------------------

def test_strict_contains_examples():
    sub = flat_sub()
    jet = ReducedJet(np.zeros(2), 2 * np.eye(2))
    assert strict_contains(sub, ORIGIN2, jet, 1.0)
    assert not strict_contains(sub, ORIGIN2, jet, 1e6)
    boundary = ReducedJet(np.zeros(2), np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert not strict_contains(sub, ORIGIN2, boundary, 0.5)
    with pytest.raises(SubequationError):
        strict_contains(sub, ORIGIN2, jet, 0.0)


def test_strict_contains_is_sufficient_brute_force():
    # ball-sampling oracle: every accepted (jet, c) keeps membership under
    # 1000 random hessian perturbations of operator norm <= c
    sub = flat_sub(f=0.5)
    x = np.array([0.2, 0.1])
    rng = CounterRng(99)
    accepted = []
    for seed in range(30):
        jet = psh_jet(1, 600 + seed, rng.uniform(0.5, 4.0))
        for c in (0.1, 0.4):
            if strict_contains(sub, x, jet, c):
                accepted.append((jet, c))
    assert accepted, "oracle needs at least one accepted case"
    for jet, c in accepted[:3]:
        for _ in range(1000):
            p = rng.symmetric(2)
            p *= c * rng.uniform(0.0, 1.0) / max(np.abs(np.linalg.eigvalsh(p)))
            shifted = ReducedJet(jet.p, jet.a + p)
            assert contains(sub, x, shifted, tol=1e-9).inside


# ---------------------------------------------------------------------------
# positivity and convexity
# ---------------------------------------------------------------------------

def test_positivity_examples():
    sub = flat_sub()
    inside = psh_jet(1, 70, 0.5)
    assert positivity_closed(sub, ORIGIN2, inside, np.eye(2))
    boundary = psh_jet(1, 71, 0.0)
    assert positivity_closed(sub, ORIGIN2, boundary, np.eye(2))
    shifted = ReducedJet(boundary.p, boundary.a + np.eye(2))
    assert contains(sub, ORIGIN2, shifted).margin > 0
    with pytest.raises(SubequationError):
        positivity_closed(sub, ORIGIN2, inside, -np.eye(2))


def test_positivity_outside_jets_stay_outside_under_small_shift():
    sub = flat_sub()
    jet = psh_jet(1, 72, -1.0)
    small = 0.1 * np.eye(2)
    # margin arithmetic oracle: the eigenvalue slack rises by at most the
    # added form's symmetrized top eigenvalue
    shifted = contains(sub, ORIGIN2, ReducedJet(jet.p, jet.a + small))
    assert not shifted.inside


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_positivity_condition_random(seed):
    rng = CounterRng(seed)
    sub = flat_sub(n=2)
    jet = psh_jet(2, seed, rng.uniform(-1, 2))
    pos = rng.spd(4, shift=0.0)
    assert positivity_closed(sub, np.zeros(4), jet, pos)


def test_fibre_convexity_and_cone():
    sub = flat_sub(n=2)
    j1 = psh_jet(2, 80, 0.6)
    j2 = psh_jet(2, 81, 0.1)
    for t in (0.0, 0.25, 0.5, 0.75, 1.0):
        mix = j1.scale(t).add(j2.scale(1 - t))
        assert contains(sub, np.zeros(4), mix, tol=1e-9).inside
    for t in (0.0, 0.5, 2.0, 10.0):
        assert contains(sub, np.zeros(4), j1.scale(t), tol=1e-9).inside


def test_inhomogeneous_with_zero_rhs_matches_homogeneous():
    hom = flat_sub(n=2)
    inhom = flat_sub(n=2, f=0.0)
    for seed in range(20):
        rng = CounterRng(900 + seed)
        jet = psh_jet(2, 900 + seed, rng.uniform(-1, 1))
        a = contains(hom, np.zeros(4), jet)
        b = contains(inhom, np.zeros(4), jet)
        assert a.inside == b.inside and a.margin == pytest.approx(b.margin)


def test_monotonicity_under_admissible_sums():
    # adding a homogeneous-cone jet to an inhomogeneous member keeps
    # membership (the cone is a monotonicity cone for the equation)
    sub = flat_sub(f=0.7)
    hom = flat_sub()
    x = ORIGIN2
    for seed in range(15):
        rng = CounterRng(1000 + seed)
        member = psh_jet(1, 1000 + seed, rng.uniform(0.0, 1.0))
        # lift until the determinant constraint holds as well
        while not contains(sub, x, member).inside:
            member = ReducedJet(member.p, member.a + 0.2 * np.eye(2))
        cone = psh_jet(1, 2000 + seed, rng.uniform(0.0, 1.0))
        assert contains(hom, x, cone).inside
        assert contains(sub, x, member.add(cone), tol=1e-9).inside


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_jet_flat_round_trip():
    jet = psh_jet(2, 33, 0.4)
    flat = jet_to_flat(jet)
    back = jet_from_flat(flat, 4)
    assert np.allclose(back.p, jet.p) and np.allclose(back.a, jet.a)
    with pytest.raises(SubequationError):
        jet_from_flat(flat[:-1], 4)


def test_margins_batch_matches_single():
    sub = flat_sub(n=2, f=0.3)
    jets = [psh_jet(2, 500 + k, 0.2 * k - 0.5) for k in range(6)]
    pts = np.tile(np.linspace(0.1, 0.2, 6)[:, None], (1, 4))
    ps = np.stack([j.p for j in jets])
    as_ = np.stack([j.a for j in jets])
    batch, _, _ = margins_for_jets(sub, sub.acx.at(pts), ps, as_)
    for k, jet in enumerate(jets):
        single = contains(sub, pts[k], jet)
        assert batch[k] == pytest.approx(single.margin)
