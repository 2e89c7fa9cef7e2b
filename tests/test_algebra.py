import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from acx.algebra import (
    AlgebraError,
    antilinear_generator,
    antilinear_normalize,
    complexify,
    det_relation_constant,
    hermitian_part,
    lower_order_E,
    make_structure,
    pullback,
    real_hessian,
    realify,
    standard_j,
)
from acx.rng import CounterRng
from acx.subeq import ReducedJet


def small_sym(d, seed):
    rng = CounterRng(seed)
    return rng.symmetric(d)


def near_identity(d, seed, scale=0.25):
    rng = CounterRng(seed)
    return np.eye(d) + scale * rng.normals((d, d))


# ---------------------------------------------------------------------------
# hermitian part
# ---------------------------------------------------------------------------

def test_hermitian_part_identity_doubles():
    j = standard_j(1)
    out = hermitian_part(np.eye(2), j)
    assert np.allclose(out.real, 2 * np.eye(2))


def test_hermitian_part_offdiagonal_vanishes():
    # hand oracle: J0^T B J0 = -B for this B, so the symmetrization is zero
    j = standard_j(1)
    b = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert np.allclose(j.T @ b @ j, -b)
    assert np.max(np.abs(hermitian_part(b, j).real)) == 0.0


def test_hermitian_part_paired_diagonal_cancels():
    j = standard_j(2)
    b = np.diag([1.0, -1.0, 0.0, 0.0])
    assert np.max(np.abs(hermitian_part(b, j).real)) == 0.0


def test_hermitian_part_rejects_bad_input():
    j = standard_j(1)
    with pytest.raises(AlgebraError):
        hermitian_part(np.array([[0.0, 1.0], [0.0, 0.0]]), j)
    with pytest.raises(AlgebraError):
        hermitian_part(np.eye(2), np.eye(2))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(0, 10 ** 6))
@example(n=1, seed=109437)   # cond(g) = 209, |J| = 183, |out| = 2.2e4
def test_hermitian_part_output_is_j_hermitian(n, seed):
    # roundoff in J^T B J - B scales with the output, not with the input b
    d = 2 * n
    g = near_identity(d, seed)
    j = g @ standard_j(n) @ np.linalg.inv(g)
    b = small_sym(d, seed + 1)
    out = hermitian_part(b, j, tol=1e-6)
    scale = max(1.0, np.max(np.abs(out.real)))
    assert out.hermitian_residual() < 1e-8 * scale


# ---------------------------------------------------------------------------
# first-order term E
# ---------------------------------------------------------------------------

def test_e_vanishes_for_constant_structure():
    acx = make_structure("standard", n=2)
    p = np.array([1.0, -2.0, 0.5, 3.0])
    assert np.max(np.abs(lower_order_E(acx, np.ones(4), p))) == 0.0


def test_e_vanishes_for_zero_covector():
    acx = make_structure("antilinear-linear-eps", n=1, eps=0.2, generator=0)
    assert np.max(np.abs(lower_order_E(acx, np.array([0.3, 0.1]),
                                       np.zeros(2)))) == 0.0


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6), st.floats(-2, 2), st.floats(-2, 2))
def test_e_linear_in_covector(seed, alpha, beta):
    rng = CounterRng(seed)
    acx = make_structure("antilinear-linear-eps", n=1, eps=0.15, generator=1)
    x = rng.normals((2,)) * 0.5
    p = rng.normals((2,))
    q = rng.normals((2,))
    lhs = lower_order_E(acx, x, alpha * p + beta * q)
    rhs = alpha * lower_order_E(acx, x, p) + beta * lower_order_E(acx, x, q)
    assert np.max(np.abs(lhs - rhs)) < 1e-9 * (1 + abs(alpha) + abs(beta))


def test_e_matches_finite_difference_oracle_on_j():
    # oracle: polarize q(v) = <(grad_{Jv} J) v, p> with centered differences
    # applied directly to the structure field J, independent of the
    # generator-derivative route
    acx = make_structure("antilinear-linear-eps", n=1, eps=0.1, generator=0)
    x = np.array([0.4, 0.2])
    p = np.array([0.7, -0.3])
    e = lower_order_E(acx, x, p)
    step = 1e-5

    def q(v):
        jv = acx.j(x) @ v
        dj = (acx.j(x + step * jv) - acx.j(x - step * jv)) / (2 * step)
        return (dj @ v) @ p

    oracle = np.zeros((2, 2))
    basis = np.eye(2)
    for i in range(2):
        for k in range(2):
            oracle[i, k] = 0.5 * (q(basis[i] + basis[k]) - q(basis[i])
                                  - q(basis[k]))
    assert np.max(np.abs(e - oracle)) < 1e-9


# ---------------------------------------------------------------------------
# real hessian and complexification
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 3])
def test_real_hessian_of_squared_norm_is_pinned(n):
    # |z|^2 has coordinate hessian 2I; the J0-symmetrization doubles it.
    acx = make_structure("standard", n=n)
    jet = ReducedJet(np.zeros(2 * n), 2 * np.eye(2 * n))
    h = real_hessian(acx, np.zeros(2 * n), jet)
    assert np.allclose(h.real, 4 * np.eye(2 * n))


def test_real_hessian_zero_jet():
    acx = make_structure("standard", n=2)
    jet = ReducedJet(np.zeros(4), np.zeros((4, 4)))
    assert np.max(np.abs(real_hessian(acx, np.zeros(4), jet).real)) == 0.0


def test_real_hessian_positive_at_center_of_perturbed_structure():
    acx = make_structure("antilinear-linear-eps", n=1, eps=0.1, generator=0)
    jet = ReducedJet(np.zeros(2), 2 * np.eye(2))
    h = real_hessian(acx, np.zeros(2), jet)
    assert h.min_eigenvalue() > 0


@pytest.mark.parametrize("n", [1, 2, 3])
def test_complexify_normalization_pin(n):
    acx = make_structure("standard", n=n)
    jet = ReducedJet(np.zeros(2 * n), 2 * np.eye(2 * n))
    h = real_hessian(acx, np.zeros(2 * n), jet)
    assert np.allclose(complexify(h.real), np.eye(n))


def test_complexify_zero_and_linearity():
    assert np.max(np.abs(complexify(np.zeros((4, 4))))) == 0.0
    rng = CounterRng(5)
    b = realify(rng.hermitian(2))
    assert np.allclose(complexify(2 * b), 2 * complexify(b))


def test_complexify_rejects_non_hermitian_input():
    with pytest.raises(AlgebraError):
        complexify(np.diag([1.0, -1.0]))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_positivity_sign_agreement(n):
    rng = CounterRng(100 + n)
    for _ in range(100):
        m = rng.hermitian(n)
        b = realify(m)
        sr = np.sign(np.linalg.eigvalsh(b)[0])
        sc = np.sign(np.linalg.eigvalsh(complexify(b))[0])
        assert sr == sc or abs(np.linalg.eigvalsh(b)[0]) < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3])
def test_det_relation(n):
    # kappa pinned on the real hessian of |z|^2: det_R = 16^n (det_C)^2
    kappa = det_relation_constant(n)
    acx = make_structure("standard", n=n)
    jet = ReducedJet(np.zeros(2 * n), 2 * np.eye(2 * n))
    pin = real_hessian(acx, np.zeros(2 * n), jet).real
    assert np.isclose(np.linalg.det(pin),
                      kappa * np.linalg.det(complexify(pin)).real ** 2)
    rng = CounterRng(200 + n)
    for _ in range(100):
        m = rng.hermitian(n) + 3 * np.eye(n)
        b = realify(m)
        detr = np.linalg.det(b)
        detc = np.linalg.det(complexify(b)).real
        assert abs(detr - kappa * detc ** 2) < 1e-8 * max(1.0, abs(detr))


# ---------------------------------------------------------------------------
# pullback
# ---------------------------------------------------------------------------

def test_pullback_by_identity_and_scaling():
    b = small_sym(4, 3)
    assert np.allclose(pullback(b, np.eye(4)), b)
    assert np.allclose(pullback(np.eye(2), 2 * np.eye(2)), 4 * np.eye(2))


def test_pullback_rejects_singular():
    with pytest.raises(AlgebraError):
        pullback(np.eye(2), np.zeros((2, 2)))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(0, 10 ** 6))
def test_pullback_commutes_with_symmetrization(n, seed):
    # (g*B)^{J0} = g*(B^J) with J = g J0 g^{-1}; exact matrix identity
    d = 2 * n
    g = near_identity(d, seed)
    b = small_sym(d, seed + 7)
    j0 = standard_j(n)
    j = g @ j0 @ np.linalg.inv(g)
    lhs = pullback(b, g) + j0.T @ pullback(b, g) @ j0
    rhs = pullback(b + j.T @ b @ j, g)
    assert np.max(np.abs(lhs - rhs)) < 1e-10 * max(1.0, np.max(np.abs(b)))


# ---------------------------------------------------------------------------
# antilinear normal form
# ---------------------------------------------------------------------------

def test_normal_form_of_identity():
    acx = make_structure("standard", n=2)
    h, f = antilinear_normalize(acx, np.zeros(4))
    assert np.allclose(h, np.eye(4))
    assert np.max(np.abs(f)) == 0.0


def test_normal_form_of_antilinear_perturbation_is_itself():
    eps = 0.05
    f0 = antilinear_generator(1, 0)
    acx = make_structure("antilinear-linear-eps", n=1, eps=eps, generator=0)
    x = np.array([1.0, 0.0])
    h, f = antilinear_normalize(acx, x)
    assert np.allclose(h, np.eye(2))
    assert np.allclose(f, eps * x[0] * f0)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_normal_form_reconstruction_and_anticommutation(n):
    d = 2 * n
    j0 = standard_j(n)
    rng = CounterRng(300 + n)
    for k in range(100):
        g = np.eye(d) + 0.3 * rng.normals((d, d))
        acx = make_structure("standard", n=n)
        acx.generator = lambda pts, g=g: np.broadcast_to(g, (pts.shape[0], d, d))
        h, f = antilinear_normalize(acx, np.zeros(d))
        assert np.max(np.abs((np.eye(d) + f) @ h - g)) < 1e-12 * max(
            1.0, np.max(np.abs(g)))
        assert np.max(np.abs(f @ j0 + j0 @ f)) < 1e-12


def test_normal_form_uniqueness():
    # two valid factorizations of the same structure agree on f
    n, d = 1, 2
    rng = CounterRng(17)
    g = np.eye(d) + 0.2 * rng.normals((d, d))
    acx = make_structure("standard", n=n)
    acx.generator = lambda pts: np.broadcast_to(g, (pts.shape[0], d, d))
    _, f1 = antilinear_normalize(acx, np.zeros(d))
    # compose with a complex-linear factor: same J, same antilinear part
    rot = np.array([[np.cos(0.3), -np.sin(0.3)], [np.sin(0.3), np.cos(0.3)]])
    acx2 = make_structure("standard", n=n)
    acx2.generator = lambda pts: np.broadcast_to(g @ rot, (pts.shape[0], d, d))
    _, f2 = antilinear_normalize(acx2, np.zeros(d))
    assert np.max(np.abs(f1 - f2)) < 1e-12


def test_normal_form_rejects_singular_linear_part():
    # a purely antilinear generator has vanishing complex-linear part
    d = 2
    f0 = antilinear_generator(1, 0)
    acx = make_structure("standard", n=1)
    acx.generator = lambda pts: np.broadcast_to(f0, (pts.shape[0], d, d))
    with pytest.raises(AlgebraError, match="shrink"):
        antilinear_normalize(acx, np.zeros(d))


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("preset,kwargs", [
    ("standard", {"n": 2}),
    ("antilinear-linear-eps", {"n": 1, "eps": 0.1, "generator": 0}),
    ("antilinear-linear-eps", {"n": 2, "eps": 0.1, "generator": 3}),
    ("antilinear-slice-compatible", {"n": 2, "m": 1, "eps": 0.1}),
    ("antilinear-slice-compatible", {"n": 3, "m": 2, "eps": 0.05}),
])
def test_presets_square_to_minus_identity(preset, kwargs):
    acx = make_structure(preset, **kwargs)
    rng = CounterRng(11)
    pts = 0.6 * rng.normals((40, acx.d))
    assert acx.validate(pts, tol=1e-10) <= 1e-10


def test_antilinear_part_matches_configured_field():
    eps, gen = 0.1, 1
    acx = make_structure("antilinear-linear-eps", n=1, eps=eps, generator=gen)
    f0 = antilinear_generator(1, gen)
    x = np.array([0.7, -0.2])
    g = acx.g(x)
    j0 = standard_j(1)
    anti = 0.5 * ((g - np.eye(2)) + j0 @ (g - np.eye(2)) @ j0)
    assert np.allclose(anti, eps * x[0] * f0)


def test_unknown_preset_rejected():
    with pytest.raises(AlgebraError):
        make_structure("nonsense", n=1)
    with pytest.raises(AlgebraError):
        make_structure("standard", n=4)
