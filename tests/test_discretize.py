"""The isotropic split, the chamber snap, the availability gather, the
padded neighbor lookup and the frozen-policy solve against brute-force
references: scoring every stencil direction (the definition of the snap),
walking the grid one node at a time and a dense linear solve."""

import tracemalloc

import numpy as np
import pytest

from acx.discretize import KrylovError, Policy, Stencil, snap_policy, solve_frozen
from acx.lattice import LatticeDomain
from acx.rng import CounterRng


def available_table(st: Stencil) -> np.ndarray:
    """(Ni, T): whether both x + h w and x - h w lie on the region, for every
    interior node x and direction w, from the policies' neighbor gather."""
    plus, minus = st.domain.stencil_neighbors(
        np.arange(st.nodes.size)[:, None], np.arange(st.dirs.shape[0])[None])
    return (plus >= 0) & (minus >= 0)


def brute_dir_idx(st: Stencil, s_field: np.ndarray,
                  allowed: np.ndarray) -> np.ndarray:
    """Per node and eigenvector of the remainder S - lambda_min I (all but
    the first of eigh's), the first direction of largest |cos| among those
    ``allowed`` (Ni, T), scoring all of them."""
    _, vecs = np.linalg.eigh(s_field)
    return np.stack([np.argmax(np.where(allowed, np.abs(v @ st.units.T), -1.0),
                               axis=1)
                     for v in np.moveaxis(vecs[:, :, 1:], 2, 0)], axis=1)


def naive_neighbors(dom: LatticeDomain, nodes, offsets) -> np.ndarray:
    """nodes + offsets one node at a time through a dictionary of grid
    indices; ``offsets`` has one offset per node, or one per node and
    column."""
    where = {tuple(m): i for i, m in enumerate(dom.node_multi)}
    nodes = np.broadcast_to(nodes, offsets.shape[:-1])
    return np.array([where.get(tuple(dom.node_multi[n] + o), -1)
                     for n, o in zip(nodes.ravel(), offsets.reshape(-1, dom.dim))]
                    ).reshape(nodes.shape)


DOMAINS = {
    "box2": lambda: LatticeDomain.box([-1, 1], 9, dim=2),
    "ball2": lambda: LatticeDomain.ball(np.zeros(2), 1.0, 13),
    "box4": lambda: LatticeDomain.box([-1, 1], 7, dim=4),
    "ball4": lambda: LatticeDomain.ball(np.zeros(4), 1.0, 9),
    "box6-rho1": lambda: LatticeDomain.box([-1, 1], 5, dim=6, stencil_radius=1),
    "ball6": lambda: LatticeDomain.ball(np.zeros(6), 1.0, 9),
}


def with_vectors(q: np.ndarray) -> np.ndarray:
    """SPD matrix with eigenvector columns q and distinct eigenvalues."""
    lam = 1.0 + np.arange(q.shape[1])
    return (q * lam) @ q.T


def rotations(d: int, angles) -> np.ndarray:
    """Block-diagonal frame: plane rotations of the coordinate pairs (0, 1),
    (2, 3), ... by ``angles``, identity elsewhere."""
    q = np.eye(d)
    for i, t in zip(range(0, d - 1, 2), angles):
        q[i:i + 2, i:i + 2] = [[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]]
    return q


# angles of exact score ties in the plane: between (1, 0) and (2, 1), between
# (2, 1) and (1, 1), between (1, 0) and (1, 1), and the diagonal
TIE_ANGLES = [np.arctan(0.5) / 2, (np.arctan(0.5) + np.pi / 4) / 2,
              np.pi / 8, np.pi / 4]


def tie_frames(d: int) -> list[np.ndarray]:
    """Orthonormal frames whose vectors tie directions exactly or nearly:
    the axes, rotations by tie angles inside coordinate planes (zero
    entries), a Hadamard block (all entries equal in size) and
    (a, a, b, b)-type vectors."""
    frames = [np.eye(d)] + [rotations(d, np.roll(TIE_ANGLES, -i))
                            for i in range(len(TIE_ANGLES))]
    if d >= 4:
        had = np.eye(d)
        had[:4, :4] = np.array([[1, 1, 1, 1], [1, -1, 1, -1],
                                [1, 1, -1, -1], [1, -1, -1, 1]]) / 2.0
        frames += [had, had @ rotations(d, [0.4, 0.4])]
    return frames


def signed_permutation(rng: CounterRng, d: int) -> np.ndarray:
    perm = np.argsort([rng.uniform() for _ in range(d)])
    signs = np.where([rng.uniform() < 0.5 for _ in range(d)], -1.0, 1.0)
    return np.eye(d)[perm] * signs[:, None]


def per_node_fields(st: Stencil, seed: int) -> list[np.ndarray]:
    """A seeded random SPD field, a field of tie frames under seeded signed
    permutations node by node, and the two mixed."""
    rng = CounterRng(seed)
    ni, d = st.nodes.size, st.domain.dim
    rand = np.stack([rng.spd(d) for _ in range(ni)])
    frames = tie_frames(d)
    ties = np.stack([with_vectors(signed_permutation(rng, d)
                                  @ frames[i % len(frames)])
                     for i in range(ni)])
    mixed = np.where((np.arange(ni) % 3 == 0)[:, None, None], ties, rand)
    return [rand, ties, mixed]


@pytest.mark.parametrize("name", sorted(DOMAINS))
def test_snap_matches_brute_force_scoring(name):
    dom = DOMAINS[name]()
    st = Stencil(dom)
    d = dom.dim
    rng = CounterRng(11)
    constants = ([np.eye(d)] + [with_vectors(q) for q in tie_frames(d)]
                 + [rng.spd(d) for _ in range(4)])
    fields = [c[None] for c in constants] + per_node_fields(st, 5)
    allowed = available_table(st)
    np.testing.assert_array_equal(st.dirs[st.axes], np.eye(d))
    for s_field in fields:
        want = brute_dir_idx(st, s_field, allowed)
        pol = snap_policy(st, *np.linalg.eigh(s_field))
        # the axes carry lambda_min, the snapped remainder lambda_k - lambda_min,
        # each as lambda / (h^2 |w|^2) on both neighbors; a remainder term
        # whose weight is zero at every node is skipped
        lam = np.broadcast_to(np.clip(np.linalg.eigh(s_field)[0], 0, None),
                              (st.nodes.size, d))
        rest = lam[:, 1:] - lam[:, :1]
        keep = np.any(rest > 0.0, axis=0)
        assert pol.dir_idx.shape[1] == d + keep.sum()
        if s_field is fields[0]:        # the identity keeps only the axes
            assert not keep.any()
        np.testing.assert_array_equal(pol.dir_idx[:, :d],
                                      np.broadcast_to(st.axes, (st.nodes.size, d)))
        np.testing.assert_array_equal(pol.wplus, pol.wminus)
        scale = dom.h ** 2 * st.norms2[pol.dir_idx]
        np.testing.assert_array_equal(pol.wplus[:, :d],
                                      np.repeat(lam[:, :1], d, axis=1)
                                      / scale[:, :d])
        np.testing.assert_allclose(pol.wplus[:, d:] * scale[:, d:],
                                   rest[:, keep], rtol=0, atol=1e-12)
        np.testing.assert_array_equal(pol.dir_idx[:, d:], want[:, keep])
        full = np.concatenate([pol.dir_idx[:, :d], want[:, keep]], axis=1)
        ref = Policy(st, full, pol.wplus, pol.wminus)
        np.testing.assert_array_equal(pol.plus, ref.plus)
        np.testing.assert_array_equal(pol.minus, ref.minus)
        offs = st.dirs[full]
        np.testing.assert_array_equal(
            pol.minus, naive_neighbors(dom, st.nodes[:, None], -offs))
    if name.startswith("ball"):
        assert not allowed.all()


def test_chamber_is_one_direction_per_signed_permutation_orbit():
    for d, rho, size in [(2, 2, 3), (4, 2, 10), (6, 2, 21), (2, 1, 2)]:
        dom = (LatticeDomain.ball(np.zeros(d), 1.0, 9, stencil_radius=rho)
               if d < 6 else LatticeDomain.ball(np.zeros(6), 1.0, 9))
        st = Stencil(dom)
        members, units = st.chamber
        assert members.shape == (size, d)
        orbits = {tuple(sorted(np.abs(w), reverse=True)) for w in st.dirs}
        assert orbits == {tuple(c) for c in members}
        assert np.all(st.index_of(st.dirs) == np.arange(st.dirs.shape[0]))
        assert np.all(st.index_of(-st.dirs) == np.arange(st.dirs.shape[0]))


def test_policy_rejects_unavailable_direction():
    dom = DOMAINS["ball4"]()
    st = Stencil(dom)
    allowed = available_table(st)
    row, t = np.argwhere(~allowed)[0]
    dir_idx = np.zeros((st.nodes.size, 4), dtype=np.int64)
    dir_idx[:] = np.flatnonzero(allowed.all(axis=0))[:4]
    dir_idx[row, 0] = t
    ones = np.ones((st.nodes.size, 4))
    with pytest.raises(ValueError, match="unavailable direction"):
        Policy(st, dir_idx, ones, ones)


GATHER_DOMAINS = [
    (kind, d, rho) for kind in ("box", "ball") for d in (2, 4)
    for rho in (1, 2, 3)] + [("box", 6, 1)]


@pytest.mark.parametrize("kind,d,rho", GATHER_DOMAINS)
def test_policy_neighbors_are_the_offset_gather(kind, d, rho):
    # every direction at every interior node: the gather and neighbor_ids
    # agree (-1 on the same entries), the stencil's availability is both
    # sides on the region, and a policy over all the available directions
    # reads the same neighbors
    nodes_per_axis = {2: 13, 4: 7, 6: 5}[d]
    dom = (LatticeDomain.box([-1, 1], nodes_per_axis, dim=d, stencil_radius=rho)
           if kind == "box" else
           LatticeDomain.ball(np.zeros(d), 1.0, nodes_per_axis, stencil_radius=rho))
    st = Stencil(dom)
    rows = np.broadcast_to(np.arange(st.nodes.size)[:, None],
                           (st.nodes.size, st.dirs.shape[0]))
    every = np.broadcast_to(np.arange(st.dirs.shape[0]), rows.shape)
    offs = st.dirs[every]
    nodes = st.nodes[:, None]
    plus, minus = dom.stencil_neighbors(rows, every)
    np.testing.assert_array_equal(plus, dom.neighbor_ids(nodes, offs))
    np.testing.assert_array_equal(minus, dom.neighbor_ids(nodes, -offs))
    allowed = st.available(rows.ravel(), every.ravel()).reshape(rows.shape)
    np.testing.assert_array_equal((plus >= 0) & (minus >= 0), allowed)
    # unavailable entries take the first axis, which every node has
    dir_idx = np.where(allowed, every, st.axes[0])
    zeros = np.zeros(dir_idx.shape)
    pol = Policy(st, dir_idx, zeros, zeros)
    np.testing.assert_array_equal(pol.plus[allowed], plus[allowed])
    np.testing.assert_array_equal(pol.minus[allowed], minus[allowed])
    if rho > 1:
        assert not allowed.all()


def test_fallback_scores_stay_within_the_byte_cap(monkeypatch):
    # a random SPD field on the 9^6 ball sends hundreds of eigenvectors to
    # the fallback scoring against all 7,448 directions; no score block may
    # pass 8 MiB (one block of 30 MB without the cap)
    import acx.discretize as disc_mod

    dom = DOMAINS["ball6"]()
    st = Stencil(dom)
    rng = CounterRng(23)
    s_field = np.stack([rng.spd(6) for _ in range(st.nodes.size)])
    blocks = []
    scores = disc_mod._masked_scores

    def record(stencil, rows, products):
        blocks.append(products.shape)
        return scores(stencil, rows, products)

    monkeypatch.setattr(disc_mod, "_masked_scores", record)
    pol = snap_policy(st, *np.linalg.eigh(s_field))
    rows = sum(shape[0] for shape in blocks)
    assert len(blocks) > 1 and rows > 200
    assert max(r * t * 8 for r, t in blocks) <= 8 << 20
    assert all(t == st.dirs.shape[0] for _, t in blocks)
    # the blocks change no direction: one block of every row gives the same
    monkeypatch.setattr(disc_mod, "_SCORE_BYTES", 1 << 40)
    np.testing.assert_array_equal(
        snap_policy(st, *np.linalg.eigh(s_field)).dir_idx, pol.dir_idx)
    assert len(blocks) == 5


@pytest.mark.parametrize("name", sorted(DOMAINS))
def test_allowed_matches_naive_walk(name, monkeypatch):
    # the brute-force snap above reads the policies' neighbor gather, so the
    # stencil's availability is checked here against a walk of the grid:
    # every row, and evenly spaced directions up to about 60,000 entries
    # (every direction on the small domains); gathered in blocks of 8
    # entries it is the same
    import acx.discretize as disc_mod

    dom = DOMAINS[name]()
    st = Stencil(dom)
    step = max(1, st.nodes.size * st.dirs.shape[0] // 60_000)
    dirs = st.dirs[::step]
    nodes = st.nodes[:, None]
    offs = np.broadcast_to(dirs, (nodes.size, *dirs.shape))
    want = ((naive_neighbors(dom, nodes, offs) >= 0)
            & (naive_neighbors(dom, nodes, -offs) >= 0))
    rows, cols = np.nonzero(np.ones(want.shape, dtype=bool))
    np.testing.assert_array_equal(
        st.available(rows, cols * step).reshape(want.shape), want)
    monkeypatch.setattr(disc_mod, "_SCORE_BYTES", 64)
    np.testing.assert_array_equal(
        st.available(rows, cols * step).reshape(want.shape), want)
    if name.startswith("ball"):
        assert not want.all()


def test_ball6_stencil_and_snap_stay_in_bounded_memory():
    # no (interior nodes x directions) table: the 13^6 ball's 19,093 interior
    # nodes and 7,448 directions would make it 136 MiB; one snap of a
    # constant field gathers availability on demand and scores about 10,000
    # vectors, in blocks of at most 8 MiB
    dom = LatticeDomain.ball(np.zeros(6), 1.0, 13)
    s_field = CounterRng(3).spd(6)[None]
    tracemalloc.start()
    try:
        pol = snap_policy(Stencil(dom), *np.linalg.eigh(s_field))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert pol.dir_idx.shape == (19_093, 11)
    assert peak <= 32 << 20


@pytest.mark.parametrize("name", ["box2", "ball2", "ball4"])
def test_neighbor_ids_match_naive_walk(name):
    dom = DOMAINS[name]()
    rho = dom.stencil_radius
    rng = CounterRng(3)
    every = np.arange(dom.n_nodes)
    d = dom.dim
    # shared offsets inside the pad, on its rim and beyond it
    for off in [np.eye(d, dtype=np.int64)[0], -rho * np.ones(d, dtype=np.int64),
                np.r_[rho, -1, np.zeros(d - 2, dtype=np.int64)],
                np.r_[rho + 1, np.zeros(d - 1, dtype=np.int64)],
                np.r_[rho + 3, -(rho + 2), np.zeros(d - 2, dtype=np.int64)]]:
        got = dom.neighbor_ids(every, off)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(
            got, naive_neighbors(dom, every, np.tile(off, (every.size, 1))))
    # per-node offsets, inside the pad and reaching beyond it
    for reach in (rho, rho + 2):
        offs = np.floor(rng.uniforms((every.size, d), -reach, reach + 1))
        offs = offs.astype(np.int64)
        got = dom.neighbor_ids(every, offs)
        want = naive_neighbors(dom, every, offs)
        np.testing.assert_array_equal(got, want)
        assert np.any(want < 0) and np.any(want >= 0)


def test_neighbor_ids_off_grid_and_exterior_are_minus_one():
    dom = DOMAINS["ball2"]()
    corner = dom.nodes_at(np.array([[0.0, -1.0]]))      # bottom of the disc
    # steps down leave the grid (inside and beyond the pad); three steps
    # sideways stay on the grid but leave the disc
    assert dom.neighbor_ids(corner, np.array([0, -1]))[0] == -1
    assert dom.neighbor_ids(corner, np.array([-3, 0]))[0] == -1
    assert dom.neighbor_ids(corner, np.array([0, -5]))[0] == -1
    assert dom.neighbor_ids(corner, np.array([0, 1]))[0] >= 0


def test_drift_is_upwinded_into_the_axis_weights():
    # the drift adds max(b_i, 0) / h to the x + h e_i weight of axis column
    # i and max(-b_i, 0) / h to its x - h e_i weight; nothing else moves
    dom = DOMAINS["ball4"]()
    st = Stencil(dom)
    rng = CounterRng(29)
    ni, d, h = st.nodes.size, dom.dim, dom.h
    field = np.stack([rng.spd(d) for _ in range(ni)])
    drift = rng.uniforms((ni, d), -2.0, 2.0)
    pol = snap_policy(st, *np.linalg.eigh(field), drift=drift)
    plain = snap_policy(st, *np.linalg.eigh(field))
    assert np.all(pol.wplus >= 0.0) and np.all(pol.wminus >= 0.0)
    np.testing.assert_allclose(pol.ucoeff, (pol.wplus + pol.wminus).sum(axis=1),
                               rtol=1e-14)
    np.testing.assert_array_equal(pol.dir_idx, plain.dir_idx)
    np.testing.assert_allclose(pol.wplus[:, :d] - pol.wminus[:, :d], drift / h,
                               rtol=1e-13, atol=1e-13)
    np.testing.assert_array_equal(pol.wplus[:, d:], pol.wminus[:, d:])
    np.testing.assert_array_equal(pol.wplus[:, d:], plain.wplus[:, d:])
    # second differences vanish on an affine field: the value is drift . grad
    grad = rng.uniforms((d,), -1.0, 1.0)
    values = 0.7 + dom.node_coords @ grad
    np.testing.assert_allclose(pol.value(values), drift @ grad,
                               rtol=0, atol=1e-12)


def dense_system(pol: Policy, values: np.ndarray):
    """(A, c) with pol.value(u) = A u[interior] + c for every u that equals
    ``values`` off the interior, column by column."""
    nodes = pol.stencil.nodes
    base = values.copy()
    base[nodes] = 0.0
    cols = []
    for k in nodes:
        unit = np.zeros_like(values)
        unit[k] = 1.0
        cols.append(pol.value(unit))
    return np.stack(cols, axis=1), pol.value(base)


@pytest.mark.parametrize("name", ["box2", "ball4"])
def test_solve_frozen_matches_dense_solve(name):
    dom = DOMAINS[name]()
    st = Stencil(dom)
    rng = CounterRng(17)
    ni, d = st.nodes.size, dom.dim
    field = np.stack([rng.spd(d) for _ in range(ni)])
    drift = rng.uniforms((ni, d), -2.0, 2.0)
    pol = snap_policy(st, *np.linalg.eigh(field), drift=drift)
    values = rng.normals((dom.n_nodes,))
    rhs = rng.normals((ni,))
    amat, c = dense_system(pol, values)
    assert np.max(np.abs(amat - amat.T)) > 0.1          # non-symmetric
    assert np.all(amat - np.diag(np.diag(amat)) >= 0.0)  # monotone
    np.testing.assert_allclose(np.diag(amat), -pol.ucoeff, rtol=1e-13)
    want = np.linalg.solve(amat, rhs - c)
    got = solve_frozen(pol, values, rhs, 1e-11)
    assert np.max(np.abs(got[st.nodes] - want)) <= 1e-10
    bnd = dom.boundary_ids
    np.testing.assert_array_equal(got[bnd], values[bnd])
    assert np.max(np.abs(pol.value(got) - rhs)) <= 1e-11


def test_solve_frozen_fails_instead_of_hanging():
    dom = DOMAINS["box2"]()
    st = Stencil(dom)
    values = np.zeros(dom.n_nodes)
    values[dom.boundary_ids] = 1.0
    with pytest.raises(KrylovError, match="singular"):
        solve_frozen(snap_policy(st, *np.linalg.eigh(np.zeros((1, 2, 2)))),
                     values, 0.0, 1e-8)
    pol = snap_policy(st, *np.linalg.eigh(np.eye(2)[None]))
    # a zero residual is out of reach in floating point; the cap stops it
    with pytest.raises(KrylovError, match="missed its tolerance"):
        solve_frozen(pol, values, 1.0, 0.0)
    with pytest.raises(KrylovError, match="non-finite"):
        solve_frozen(pol, values, np.nan, 1e-8)
