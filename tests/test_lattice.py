import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from acx.algebra import make_structure
from acx.dirichlet import DirichletProblem, comparison_check, maximality_check
from acx.lattice import (
    BOUNDARY,
    EXTERIOR,
    INTERIOR,
    JetTable,
    LatticeDomain,
    LatticeError,
    ScalarField,
    directional_second,
    export_csv,
    fd_jet,
    fd_jets,
    import_csv,
    read_boundary_csv,
    slice_lattice,
    stencil_directions,
    upwind_first,
)
from acx.linpot import (
    BallReplacement,
    TransposedBump,
    ViscosityScheme,
    bump_field,
    classical_subharmonic,
    distributional_pairing,
    laplacian,
    viscosity_subharmonic,
)
from acx.psh import (
    MarginContext,
    OperatorFamily,
    SliceRestriction,
    family_verdict,
    margin_verdict,
    restriction_verdict,
)
from acx.rng import CounterRng
from acx.subeq import Subequation, constant_rhs


@pytest.fixture
def disc():
    return LatticeDomain.ball(np.zeros(2), 1.0, 17)


@pytest.fixture
def box2():
    return LatticeDomain.box([-1, 1], 17, dim=2)


def quad_field(dom, q, p=None, c=0.0):
    x = dom.node_coords
    vals = 0.5 * np.einsum("ni,ij,nj->n", x, q, x) + c
    if p is not None:
        vals += x @ p
    return ScalarField(dom, vals)


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("make", [
    lambda: LatticeDomain.ball(np.zeros(2), 1.0, 17),
    lambda: LatticeDomain.box([-1, 1], 11, dim=2),
    lambda: LatticeDomain.ball(np.zeros(4), 1.0, 9),
])
def test_classification_partition_and_closure(make):
    dom = make()
    dom.validate()
    cls = dom.grid_class.ravel()
    assert set(np.unique(cls)) <= {EXTERIOR, BOUNDARY, INTERIOR}
    assert dom.interior_ids.size + dom.boundary_ids.size == dom.n_nodes
    # interior nodes never touch exterior within the unit box
    for off in np.ndindex(3, *(3,) * (dom.dim - 1)):
        o = np.array(off) - 1
        nb = dom.neighbor_ids(dom.interior_ids, o)
        assert np.all(nb >= 0)


def reference_classification(dom):
    """(multi-indices, coordinates, classes) of the region nodes in grid
    order: membership from np.linalg.norm over every grid point, interior
    from a walk over each region node's unit box."""
    axes = [dom.origin[k] + dom.h * np.arange(n) for k, n in enumerate(dom.shape)]
    coords = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")],
                      axis=1)
    if dom.kind == "ball":
        region = np.linalg.norm(coords - dom.center, axis=1) <= dom.radius + 1e-12
    else:
        region = np.ones(coords.shape[0], dtype=bool)
    grid = region.reshape(dom.shape)
    multi = np.argwhere(grid)
    interior = np.ones(multi.shape[0], dtype=bool)
    for off in itertools.product((-1, 0, 1), repeat=dom.dim):
        nb = multi + np.array(off)
        on = np.all((nb >= 0) & (nb < np.array(dom.shape)), axis=1)
        hit = np.zeros_like(interior)
        hit[on] = grid[tuple(nb[on].T)]
        interior &= hit
    return multi, coords[region], np.where(interior, INTERIOR, BOUNDARY)


@pytest.mark.parametrize("make", [
    lambda: LatticeDomain.box([-1, 1], 9, dim=2),
    lambda: LatticeDomain.ball(np.zeros(2), 1.0, 13),
    lambda: LatticeDomain.ball(np.array([0.3, -0.2]), 0.7, 15, stencil_radius=3),
    lambda: LatticeDomain.box([-1, 1], 7, dim=4),
    lambda: LatticeDomain.ball(np.zeros(4), 1.0, 9),
    lambda: LatticeDomain.box([-1, 1], 5, dim=6, stencil_radius=1),
    lambda: LatticeDomain.ball(np.zeros(6), 1.0, 9),
])
def test_classification_matches_reference(make):
    dom = make()
    multi, coords, classes = reference_classification(dom)
    np.testing.assert_array_equal(dom.node_multi, multi)
    np.testing.assert_array_equal(dom.node_coords, coords)
    np.testing.assert_array_equal(dom.node_class, classes)
    np.testing.assert_array_equal(dom.interior_ids,
                                  np.flatnonzero(classes == INTERIOR))
    np.testing.assert_array_equal(dom.boundary_ids,
                                  np.flatnonzero(classes == BOUNDARY))


def test_ball6_builds_in_bounded_memory():
    # the 9^6 ball's bounding grid has 531,441 cells, of which 23,793 lie
    # on the region; coordinates are built for region nodes only
    tracemalloc.start()
    try:
        LatticeDomain.ball(np.zeros(6), 1.0, 9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 40e6


def test_nodes_at_inverts_node_coords_and_rejects_bad_points(disc):
    order = np.argsort(CounterRng(4).uniforms((disc.n_nodes,)))
    assert np.array_equal(disc.nodes_at(disc.node_coords[order]), order)
    assert disc.node_at(disc.node_coords[7]) == 7
    good = disc.node_coords[:3]
    for bad, message in (([2.0, 0.0], "outside the grid"),
                         ([0.03, 0.0], "not a lattice node"),
                         ([-1.0, -1.0], "exterior")):
        with pytest.raises(LatticeError, match=message):
            disc.nodes_at(np.vstack([good, bad]))
        with pytest.raises(LatticeError, match=message):
            disc.node_at(np.array(bad))


def test_too_coarse_domain_rejected():
    with pytest.raises(LatticeError):
        LatticeDomain.ball(np.zeros(2), 1.0, 4)


def test_stencil_directions_primitive_and_signed_once():
    for dim, rho, count in [(2, 2, 8), (4, 1, 40), (4, 2, 272), (4, 3, 1120),
                            (6, 1, 364), (6, 2, 7448)]:
        dirs = stencil_directions(dim, rho)
        assert dirs.shape == (count, dim) and dirs.dtype == np.int64
        assert np.max(np.abs(dirs)) == rho
        tuples = [tuple(int(c) for c in w) for w in dirs]
        assert tuples == sorted(tuples)          # lexicographic
        seen = set(tuples)
        for w in dirs:
            assert tuple(-w) not in seen
            assert np.gcd.reduce(np.abs(w)[np.abs(w) > 0]) == 1


# ---------------------------------------------------------------------------
# jets
# ---------------------------------------------------------------------------

def test_jet_exact_on_affine(disc):
    p = np.array([1.5, -2.0])
    u = quad_field(disc, np.zeros((2, 2)), p=p, c=0.7)
    jet = fd_jet(u, disc.node_at(np.zeros(2)))
    assert np.allclose(jet.p, p)
    assert np.max(np.abs(jet.a)) == 0.0


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_jet_exact_on_quadratics(seed):
    dom = LatticeDomain.box([-1, 1], 9, dim=2)
    rng = CounterRng(seed)
    q = rng.symmetric(2)
    p = rng.normals((2,))
    u = quad_field(dom, q, p=p)
    node = dom.node_at(np.zeros(2))
    jet = fd_jet(u, node)
    assert np.allclose(jet.a, q, atol=1e-12)
    assert np.allclose(jet.p, p + q @ dom.node_coords[node], atol=1e-12)


def test_jet_taylor_bound_for_sine(box2):
    u = ScalarField.from_vectorized(box2, lambda X: np.sin(X[:, 0]))
    h = box2.h
    for node in box2.interior_ids[::5]:
        jet = fd_jet(u, int(node))
        exact = -np.sin(box2.node_coords[node, 0])
        assert abs(jet.a[0, 0] - exact) <= h ** 2 / 12 + 1e-12


def test_jet_rejects_masked_neighbor(disc):
    vals = np.zeros(disc.n_nodes)
    mask = np.zeros(disc.n_nodes, dtype=bool)
    center = disc.node_at(np.zeros(2))
    mask[disc.neighbor_ids(np.array([center]), np.array([1, 0]))[0]] = True
    u = ScalarField(disc, vals, mask)
    with pytest.raises(LatticeError):
        fd_jet(u, center)


def test_jet_table_matches_fd_jets(box2):
    # both against the centered formulas written as grid slices
    u = ScalarField.from_vectorized(
        box2, lambda X: np.sin(X[:, 0]) * np.cos(1.3 * X[:, 1]))
    table = JetTable(box2, box2.interior_ids)
    p1, a1 = table.jets(u.values)
    p2, a2 = fd_jets(u)
    assert np.array_equal(p1, p2) and np.array_equal(a1, a2)
    v, h = u.values.reshape(box2.shape), box2.h
    mid = slice(1, -1)
    p0 = (v[2:, mid] - v[:-2, mid]) / (2 * h)
    a00 = (v[2:, mid] + v[:-2, mid] - 2 * v[mid, mid]) / h ** 2
    a01 = (v[2:, 2:] - v[2:, :-2] - v[:-2, 2:] + v[:-2, :-2]) / (4 * h ** 2)
    assert np.array_equal(p1[:, 0], p0.ravel())
    assert np.array_equal(a1[:, 0, 0], a00.ravel())
    assert np.array_equal(a1[:, 0, 1], a01.ravel())


# ---------------------------------------------------------------------------
# directional second differences and upwinding
# ---------------------------------------------------------------------------

def test_directional_second_quadratic_exact(box2):
    rng = CounterRng(4)
    q = rng.symmetric(2)
    u = quad_field(box2, q)
    node = box2.node_at(np.zeros(2))
    for w in ([1, 0], [1, 1], [2, 1], [1, -2]):
        w = np.array(w)
        expect = (w @ q @ w) / (w @ w)
        assert directional_second(u, node, w) == pytest.approx(expect)
        assert directional_second(u, node, -w) == pytest.approx(expect)


def test_directional_second_of_squared_norm_is_two(disc):
    u = quad_field(disc, 2 * np.eye(2))
    node = disc.node_at(np.zeros(2))
    for w in ([1, 0], [2, 1], [1, 1]):
        assert directional_second(u, node, w) == pytest.approx(2.0)


def test_directional_second_rejects_domain_exit(disc):
    u = quad_field(disc, np.eye(2))
    edge = disc.interior_ids[0]
    with pytest.raises(LatticeError):
        directional_second(u, int(edge), [5, 5])


def test_upwind_exact_on_affine(box2):
    p = np.array([3.0, -2.0])
    u = quad_field(box2, np.zeros((2, 2)), p=p, c=1.0)
    node = box2.node_at(np.zeros(2))
    b = np.array([1.5, 0.5])
    assert upwind_first(u, node, b) == pytest.approx(b @ p)
    assert upwind_first(u, node, np.zeros(2)) == 0.0


def test_upwind_along_integer_directions(disc):
    # along the rows w_i of dirs the term is (sum_i b_i w_i) . p on an affine
    # field; an upwind neighbour off the region is an error, not values[-1]
    p = np.array([3.0, -2.0])
    u = ScalarField.from_vectorized(disc, lambda X: 1.0 + X @ p)
    node = disc.node_at(np.zeros(2))
    b = np.array([1.5, -0.5])
    dirs = np.array([[1, 2], [1, 1]])
    assert upwind_first(u, node, b, dirs) == pytest.approx((b @ dirs) @ p)
    edge = disc.nodes_at(np.array([[0.75, 0.0]]))[0]
    assert disc.node_class[edge] == INTERIOR
    with pytest.raises(LatticeError, match="exits the domain"):
        upwind_first(u, int(edge), b, np.array([[3, 0], [0, 1]]))


def test_upwind_closed_form_for_half_square(box2):
    # forward difference of x^2/2 at x1: x1 + h/2
    u = ScalarField.from_vectorized(box2, lambda X: 0.5 * (X ** 2).sum(axis=1))
    node = box2.node_at(np.array([0.25, 0.0]))
    h = box2.h
    assert upwind_first(u, node, np.array([1.0, 0.0])) == pytest.approx(
        0.25 + h / 2)


# ---------------------------------------------------------------------------
# slice restriction
# ---------------------------------------------------------------------------

def test_restrict_squared_modulus():
    dom = LatticeDomain.ball(np.zeros(4), 1.0, 9)
    u = ScalarField.from_vectorized(dom, lambda X: X[:, 0] ** 2 + X[:, 1] ** 2)
    s = u.take(*slice_lattice(u.domain, 1))
    assert s.domain.dim == 2
    assert np.allclose(s.values, (s.domain.node_coords ** 2).sum(axis=1))


def test_restrict_constant_and_cross_term():
    dom = LatticeDomain.box([-1, 1], 9, dim=4)
    const = ScalarField(dom, np.full(dom.n_nodes, 2.5))
    assert np.allclose(const.take(*slice_lattice(const.domain, 1)).values, 2.5)
    # Re(z1 z2) = x1 x2 - y1 y2 vanishes on the slice z2 = 0
    cross = ScalarField.from_vectorized(
        dom, lambda X: X[:, 0] * X[:, 2] - X[:, 1] * X[:, 3])
    on_slice = cross.take(*slice_lattice(cross.domain, 1))
    assert np.max(np.abs(on_slice.values)) == 0.0


def test_restrict_rejects_missing_slice():
    dom = LatticeDomain.box([[0.1, 1.1]] * 4, 9)
    u = ScalarField(dom, np.zeros(dom.n_nodes))
    with pytest.raises(LatticeError):
        u.take(*slice_lattice(u.domain, 1))


# ---------------------------------------------------------------------------
# CSV interchange
# ---------------------------------------------------------------------------

def test_csv_round_trip_bitwise(tmp_path, disc):
    rng = CounterRng(8)
    u = ScalarField(disc, rng.normals((disc.n_nodes,)))
    path = tmp_path / "field.csv"
    export_csv(u, path)
    back = import_csv(path, disc)
    assert np.array_equal(back.values, u.values)


def test_csv_mask_round_trip(tmp_path, disc):
    vals = np.zeros(disc.n_nodes)
    mask = np.zeros(disc.n_nodes, dtype=bool)
    mask[disc.node_at(np.zeros(2))] = True
    u = ScalarField(disc, vals, mask)
    path = tmp_path / "masked.csv"
    export_csv(u, path)
    back = import_csv(path, disc)
    assert back.mask is not None and np.array_equal(back.mask, mask)


def test_boundary_csv(tmp_path, disc):
    import csv as _csv

    path = tmp_path / "bnd.csv"
    with open(path, "w", newline="") as fh:
        w = _csv.writer(fh)
        w.writerow(["c0", "c1", "value"])
        for i in disc.boundary_ids:
            x = disc.node_coords[i]
            w.writerow([f"{x[0]:.17g}", f"{x[1]:.17g}", f"{x[0] + x[1]:.17g}"])
    table = read_boundary_csv(path, disc)
    bx = disc.node_coords[disc.boundary_ids]
    assert np.allclose(table[disc.boundary_ids], bx.sum(axis=1))


# ---------------------------------------------------------------------------
# one domain rule for every build-once context
# ---------------------------------------------------------------------------

def _abs2(X):
    return (X ** 2).sum(axis=1)


def _apply_steps():
    """Each context's apply step as (dim, build, apply): ``build(domain)``
    makes the context on a ball of dimension ``dim`` and ``apply(field,
    context)`` reads the field through it."""
    flat = make_structure("standard", n=1)
    sliced = Subequation(make_structure("antilinear-slice-compatible", n=2,
                                        m=1, eps=0.1))
    lap = laplacian(2)

    def problem(f):
        return lambda d: DirichletProblem(
            d, Subequation(flat, rhs=None if f is None else constant_rhs(f)), _abs2)

    def on_problem(p):
        return ScalarField.from_vectorized(p.domain, _abs2)

    return {
        "margin_verdict": (
            2, lambda d: MarginContext(Subequation(flat), d), margin_verdict),
        "family_verdict": (
            2, lambda d: OperatorFamily(Subequation(flat), d), family_verdict),
        "restriction_verdict": (
            4, lambda d: SliceRestriction(sliced, d, 1), restriction_verdict),
        "viscosity_subharmonic": (
            2, lambda d: ViscosityScheme(lap, d), viscosity_subharmonic),
        "classical_subharmonic": (
            2, lambda d: [BallReplacement(lap, d, np.zeros(2), 4 * d.h)],
            classical_subharmonic),
        "distributional_pairing": (
            2, lambda d: TransposedBump(lap, bump_field(d, np.zeros(2), 0.4)),
            distributional_pairing),
        "comparison_check-u": (
            2, problem(1.0),
            lambda u, p: comparison_check(u, on_problem(p), p)),
        "comparison_check-w": (
            2, problem(1.0),
            lambda w, p: comparison_check(on_problem(p), w, p)),
        "maximality_check": (2, problem(None), maximality_check),
        "maximality_check-competitor": (
            2, problem(None),
            lambda v, p: maximality_check(on_problem(p), p, [v])),
    }


@pytest.mark.parametrize("step", list(_apply_steps()))
def test_every_context_rejects_a_field_on_a_twin_domain(step):
    # a domain built again from the same arguments is equal to the
    # context's domain but is not that domain object
    dim, build, apply = _apply_steps()[step]
    dom, twin = (LatticeDomain.ball(np.zeros(dim), 1.0, 17 if dim == 2 else 9)
                 for _ in range(2))
    ctx = build(dom)
    with pytest.raises(LatticeError, match="context's domain"):
        apply(ScalarField.from_vectorized(twin, _abs2), ctx)
    apply(ScalarField.from_vectorized(dom, _abs2), ctx)
