import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from acx.algebra import (
    AlgebraError,
    AlmostComplexField,
    antilinear_generator,
    antilinear_normalize_matrix,
    complexify,
    hermitian_eigh,
    hermitian_eigh2,
    hermitian_eigvals2,
    hermitian_min_eig,
    hermitian_part,
    make_structure,
    pullback,
    real_hessian,
    realify,
    standard_j,
)
from acx.psh import induced_slice_structure
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
    assert np.allclose(out, 2 * np.eye(2))


def test_hermitian_part_offdiagonal_vanishes():
    # hand oracle: J0^T B J0 = -B for this B, so the symmetrization is zero
    j = standard_j(1)
    b = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert np.allclose(j.T @ b @ j, -b)
    assert np.max(np.abs(hermitian_part(b, j))) == 0.0


def test_hermitian_part_paired_diagonal_cancels():
    j = standard_j(2)
    b = np.diag([1.0, -1.0, 0.0, 0.0])
    assert np.max(np.abs(hermitian_part(b, j))) == 0.0


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
    scale = max(1.0, np.max(np.abs(out)))
    assert np.abs(j.T @ out @ j - out).max() < 1e-8 * scale


# ---------------------------------------------------------------------------
# first-order term E
# ---------------------------------------------------------------------------

def test_e_vanishes_for_constant_structure():
    acx = make_structure("standard", n=2)
    p = np.array([1.0, -2.0, 0.5, 3.0])
    assert np.max(np.abs(acx.e_form(np.ones(4), p))) == 0.0


def test_e_vanishes_for_zero_covector():
    acx = make_structure("antilinear-linear-eps", n=1, eps=0.2, generator=0)
    assert np.max(np.abs(acx.e_form(np.array([0.3, 0.1]),
                                    np.zeros(2)))) == 0.0


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6), st.floats(-2, 2), st.floats(-2, 2))
def test_e_linear_in_covector(seed, alpha, beta):
    rng = CounterRng(seed)
    acx = make_structure("antilinear-linear-eps", n=1, eps=0.15, generator=1)
    x = rng.normals((2,)) * 0.5
    p = rng.normals((2,))
    q = rng.normals((2,))
    lhs = acx.e_form(x, alpha * p + beta * q)
    rhs = alpha * acx.e_form(x, p) + beta * acx.e_form(x, q)
    assert np.max(np.abs(lhs - rhs)) < 1e-9 * (1 + abs(alpha) + abs(beta))


def _induced(n, m, eps):
    return induced_slice_structure(
        make_structure("antilinear-slice-compatible", n=n, m=m, eps=eps), m)


@pytest.mark.parametrize("build,x,p", [
    (lambda: make_structure("antilinear-linear-eps", n=1, eps=0.1,
                            generator=0),
     [0.4, 0.2], [0.7, -0.3]),
    (lambda: make_structure("antilinear-linear-eps", n=2, eps=0.1,
                            generator=3),
     [0.4, 0.2, -0.3, 0.1], [0.7, -0.3, 0.5, 0.2]),
    (lambda: make_structure("antilinear-slice-compatible", n=3, m=1,
                            eps=0.05),
     [0.4, 0.2, -0.3, 0.1, 0.25, -0.15], [0.7, -0.3, 0.5, 0.2, -0.4, 0.6]),
    (lambda: _induced(3, 2, 0.1),
     [0.4, 0.2, -0.3, 0.1], [0.7, -0.3, 0.5, 0.2]),
], ids=["n1", "n2", "n3", "slice-n3-m2"])
def test_e_matches_finite_difference_oracle_on_j(build, x, p):
    # oracle: polarize q(v) = <(grad_{Jv} J) v, p> with centered differences
    # applied directly to the structure field J, independent of the
    # generator-derivative route
    acx = build()
    x, p = np.array(x), np.array(p)
    d = acx.d
    e = acx.e_form(x, p)
    step = 1e-5

    def q(v):
        jv = acx.j(x) @ v
        dj = (acx.j(x + step * jv) - acx.j(x - step * jv)) / (2 * step)
        return (dj @ v) @ p

    oracle = np.zeros((d, d))
    basis = np.eye(d)
    for i in range(d):
        for k in range(d):
            oracle[i, k] = 0.5 * (q(basis[i] + basis[k]) - q(basis[i])
                                  - q(basis[k]))
    assert np.max(np.abs(e - oracle)) < 1e-9


def _generic(n, seed):
    # g = I + sum_l x_l M_l + x_0^2 Q / 2 with dense M_l and Q: unlike the
    # presets, its complex-linear part varies, so dh does not vanish
    rng = CounterRng(seed)
    d = 2 * n
    mats = 0.1 * rng.normals((d, d, d))
    quad = 0.1 * rng.normals((d, d))

    def evaluate(pts):
        g = (np.eye(d) + np.einsum("nl,lab->nab", pts, mats)
             + 0.5 * pts[:, 0, None, None] ** 2 * quad)
        dg = np.broadcast_to(mats, (pts.shape[0], d, d, d)).copy()
        dg[:, 0] += pts[:, 0, None, None] * quad
        return g, dg

    return AlmostComplexField(n, evaluate, name="generic")


def _every_structure():
    for n in (1, 2, 3):
        yield make_structure("standard", n=n)
        for gen in range(2 * n * n):
            yield make_structure("antilinear-linear-eps", n=n, eps=0.1,
                                 generator=gen)
        for m in range(1, n):
            yield make_structure("antilinear-slice-compatible", n=n, m=m,
                                 eps=0.1)
            yield _induced(n, m, 0.1)
            yield induced_slice_structure(_generic(n, 40 + n), m)


def test_d_generator_matches_centered_differences():
    # the exact derivative of every preset and of every induced slice
    # structure against centered differences of its own generator
    step = 1e-5
    rng = CounterRng(77)
    names = set()
    for acx in _every_structure():
        pts = 0.5 * rng.normals((6, acx.d))
        fd = np.stack([(acx.evaluate(pts + step * e)[0]
                        - acx.evaluate(pts - step * e)[0]) / (2 * step)
                       for e in np.eye(acx.d)], axis=1)
        assert np.max(np.abs(acx.at(pts).dg - fd)) < 1e-9, acx.name
        names.add(acx.name)
    assert names >= {"standard", "antilinear-linear-eps",
                     "antilinear-slice-compatible",
                     "antilinear-slice-compatible|slice-1",
                     "antilinear-slice-compatible|slice-2",
                     "generic|slice-1", "generic|slice-2"}


def test_e_tensor_is_e_on_the_covector_basis():
    # E(p), a contraction of the tensor, against the dJ formula built here:
    # the symmetric part of J^T D(p) with D(p)[l, m] = sum_k p_k dJ[l][k, m],
    # on the covector basis and on random covectors
    rng = CounterRng(78)
    for acx in _every_structure():
        frame = acx.at(0.5 * rng.normals((6, acx.d)))
        ps = np.concatenate([np.eye(acx.d), rng.normals((4, acx.d))])
        got = np.stack([frame.e(p) for p in ps])
        if frame.flat:
            assert np.array_equal(got, np.zeros_like(got)), acx.name
            continue
        jt = np.transpose(frame.j, (0, 2, 1))
        nmat = np.stack([jt @ np.einsum("k,nlkm->nlm", p, frame.dj)
                         for p in ps])
        want = 0.5 * (nmat + np.swapaxes(nmat, 2, 3))
        scale = np.abs(want).max()
        assert scale > 0.0, acx.name
        assert np.abs(got - want).max() <= 1e-14 * scale, acx.name


# ---------------------------------------------------------------------------
# real hessian and complexification
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 3])
def test_real_hessian_of_squared_norm_is_pinned(n):
    # |z|^2 has coordinate hessian 2I; the J0-symmetrization doubles it.
    acx = make_structure("standard", n=n)
    jet = ReducedJet(np.zeros(2 * n), 2 * np.eye(2 * n))
    h = real_hessian(acx, np.zeros(2 * n), jet)
    assert np.allclose(h, 4 * np.eye(2 * n))


def test_real_hessian_zero_jet():
    acx = make_structure("standard", n=2)
    jet = ReducedJet(np.zeros(4), np.zeros((4, 4)))
    assert np.max(np.abs(real_hessian(acx, np.zeros(4), jet))) == 0.0


def test_real_hessian_positive_at_center_of_perturbed_structure():
    acx = make_structure("antilinear-linear-eps", n=1, eps=0.1, generator=0)
    jet = ReducedJet(np.zeros(2), 2 * np.eye(2))
    h = real_hessian(acx, np.zeros(2), jet)
    assert np.linalg.eigvalsh(h)[0] > 0


@pytest.mark.parametrize("n", [1, 2, 3])
def test_complexify_normalization_pin(n):
    acx = make_structure("standard", n=n)
    jet = ReducedJet(np.zeros(2 * n), 2 * np.eye(2 * n))
    h = real_hessian(acx, np.zeros(2 * n), jet)
    assert np.allclose(complexify(h), np.eye(n))


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
    kappa = 16.0 ** n
    acx = make_structure("standard", n=n)
    jet = ReducedJet(np.zeros(2 * n), 2 * np.eye(2 * n))
    pin = real_hessian(acx, np.zeros(2 * n), jet)
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
    h, f = antilinear_normalize_matrix(acx.g(np.zeros(4)), acx.j0)
    assert np.allclose(h, np.eye(4))
    assert np.max(np.abs(f)) == 0.0


def test_normal_form_of_antilinear_perturbation_is_itself():
    eps = 0.05
    f0 = antilinear_generator(1, 0)
    acx = make_structure("antilinear-linear-eps", n=1, eps=eps, generator=0)
    x = np.array([1.0, 0.0])
    h, f = antilinear_normalize_matrix(acx.g(x), acx.j0)
    assert np.allclose(h, np.eye(2))
    assert np.allclose(f, eps * x[0] * f0)


def _constant(g):
    # the evaluate callable of a constant generator
    d = g.shape[0]
    return lambda pts: (np.broadcast_to(g, (pts.shape[0], d, d)),
                        np.zeros((pts.shape[0], d, d, d)))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_normal_form_reconstruction_and_anticommutation(n):
    d = 2 * n
    j0 = standard_j(n)
    rng = CounterRng(300 + n)
    for k in range(100):
        g = np.eye(d) + 0.3 * rng.normals((d, d))
        acx = make_structure("standard", n=n)
        acx.evaluate = _constant(g)
        h, f = antilinear_normalize_matrix(acx.g(np.zeros(d)), acx.j0)
        assert np.max(np.abs((np.eye(d) + f) @ h - g)) < 1e-12 * max(
            1.0, np.max(np.abs(g)))
        assert np.max(np.abs(f @ j0 + j0 @ f)) < 1e-12


def test_normal_form_uniqueness():
    # two valid factorizations of the same structure agree on f
    n, d = 1, 2
    rng = CounterRng(17)
    g = np.eye(d) + 0.2 * rng.normals((d, d))
    acx = make_structure("standard", n=n)
    acx.evaluate = _constant(g)
    _, f1 = antilinear_normalize_matrix(acx.g(np.zeros(d)), acx.j0)
    # compose with a complex-linear factor: same J, same antilinear part
    rot = np.array([[np.cos(0.3), -np.sin(0.3)], [np.sin(0.3), np.cos(0.3)]])
    acx2 = make_structure("standard", n=n)
    acx2.evaluate = _constant(g @ rot)
    _, f2 = antilinear_normalize_matrix(acx2.g(np.zeros(d)), acx2.j0)
    assert np.max(np.abs(f1 - f2)) < 1e-12


def test_normal_form_rejects_singular_linear_part():
    # a purely antilinear generator has vanishing complex-linear part
    d = 2
    f0 = antilinear_generator(1, 0)
    acx = make_structure("standard", n=1)
    acx.evaluate = _constant(f0)
    with pytest.raises(AlgebraError, match="shrink"):
        antilinear_normalize_matrix(acx.g(np.zeros(d)), acx.j0)


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


# ---------------------------------------------------------------------------
# closed-form hermitian eigenvalues
# ---------------------------------------------------------------------------

def hermitian_cases(n, seed):
    """Seeded (N, n, n) hermitian stack with the cases a closed form can get
    wrong: random (indefinite), diagonal, scalar, rank-deficient, and an
    eigenvalue ratio of 1e-8 : 1 of either sign."""
    rng = CounterRng(seed)
    cases = [rng.hermitian(n) for _ in range(30)]
    cases += [np.diag(rng.normals(n)).astype(complex) for _ in range(5)]
    cases += [c * np.eye(n, dtype=complex) for c in (-2.0, 0.0, 1e-9, 3.7)]
    for _ in range(5):
        v = rng.complex_normals(n)
        cases.append(np.outer(v, v.conj()))
    u = np.linalg.qr(rng.complex_normals((n, n)))[0]
    for lo in (1e-8, -1e-8):
        spectrum = np.linspace(lo, 1.0, n)
        cases.append(u @ np.diag(spectrum) @ u.conj().T)
    return np.stack(cases)


def test_hermitian_eigvals2_matches_lapack():
    a = hermitian_cases(2, 71)
    lo, hi = hermitian_eigvals2(a)
    ref = np.linalg.eigvalsh(a)
    bound = 1e-13 * np.linalg.norm(a, axis=(1, 2))
    assert np.all(np.abs(lo - ref[:, 0]) <= bound)
    assert np.all(np.abs(hi - ref[:, 1]) <= bound)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_hermitian_min_eig_matches_lapack(n):
    a = hermitian_cases(n, 72 + n)
    ref = np.linalg.eigvalsh(a)[:, 0]
    bound = 1e-13 * np.linalg.norm(a, axis=(1, 2))
    assert np.all(np.abs(hermitian_min_eig(a) - ref) <= bound)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_hermitian_eigh_rebuilds_the_stack(n):
    # eigh's layout for every n: ascending eigenvalues and orthonormal
    # columns that rebuild a
    a = hermitian_cases(n, 80 + n)
    vals, vecs = hermitian_eigh(a)
    scale = np.linalg.norm(a, axis=(1, 2))
    assert np.all(np.diff(vals, axis=1) >= 0.0)
    rebuilt = np.einsum("nak,nk,nbk->nab", vecs, vals, vecs.conj())
    assert np.all(np.abs(rebuilt - a).max(axis=(1, 2)) <= 1e-13 * scale)
    gram = np.einsum("nak,nal->nkl", vecs.conj(), vecs)
    assert np.abs(gram - np.eye(n)).max() <= 1e-14


def test_hermitian_eigh2_matches_lapack():
    # eigenpairs against eigh on the closed form's hard cases, both orders
    # of a diagonal and entries scaled by 1e-8 and 1e8; eigenvectors agree
    # with eigh's only up to phase, so they are checked by reconstruction
    base = hermitian_cases(2, 75)
    diag = np.array([np.diag([1.0, 3.0]), np.diag([3.0, 1.0]),
                     np.diag([-2.0, 0.5]), np.diag([0.5, -2.0])], dtype=complex)
    a = np.concatenate([base, diag, 1e-8 * base, 1e8 * base])
    vals, vecs = hermitian_eigh2(a)
    scale = np.linalg.norm(a, axis=(1, 2))
    ref = np.linalg.eigvalsh(a)
    assert np.all(np.abs(vals - ref) <= 1e-13 * scale[:, None])
    rebuilt = np.einsum("nak,nk,nbk->nab", vecs, vals, vecs.conj())
    assert np.all(np.abs(rebuilt - a).max(axis=(1, 2)) <= 1e-13 * scale)
    gram = np.einsum("nak,nal->nkl", vecs.conj(), vecs)
    assert np.abs(gram - np.eye(2)).max() <= 1e-14
    # the phase rule: the entry of larger modulus is real and positive
    big = np.argmax(np.abs(vecs), axis=1)
    lead = np.take_along_axis(vecs, big[:, None, :], axis=1)[:, 0]
    assert np.all(lead.imag == 0.0) and np.all(lead.real > 0.0)
    # diagonal stacks give eigh's columns exactly: e_1, e_2 for
    # a00 < a11, and e_2, e_1 for a00 > a11; cI gives the identity
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    for k, want in enumerate([np.eye(2), swap, np.eye(2), swap]):
        np.testing.assert_array_equal(vecs[base.shape[0] + k], want)
    scalar = hermitian_eigh2(3.7 * np.eye(2, dtype=complex)[None])[1][0]
    np.testing.assert_array_equal(scalar, np.eye(2))
    # equal moduli (a00 = a11): lo's first entry and hi's second are real
    tie = hermitian_eigh2(np.array([[[1.0, 2j], [-2j, 1.0]]]))[1][0]
    lead = np.array([tie[0, 0], tie[1, 1]])
    assert np.all(lead.imag == 0.0) and np.all(lead.real > 0.0)
