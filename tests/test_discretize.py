"""The chamber snap and the padded neighbor lookup against brute-force
references: scoring every stencil direction (the definition of the snap)
and walking the grid one node at a time."""

import numpy as np
import pytest

from acx.discretize import Policy, Stencil, snap_policy
from acx.lattice import LatticeDomain
from acx.rng import CounterRng


def brute_dir_idx(st: Stencil, s_field: np.ndarray) -> np.ndarray:
    """Per node and eigenvector, the first available direction of largest
    |cos|, scoring all of them."""
    ni, d = st.nodes.size, st.domain.dim
    _, vecs = np.linalg.eigh(s_field)
    units_t = st.units.T.copy()
    if s_field.shape[0] == 1:
        scores = np.abs(vecs[0].T @ units_t)
        return np.stack([np.argmax(np.where(st.allowed, sc, -1.0), axis=1)
                         for sc in scores], axis=1)
    out = np.empty((ni, d), dtype=np.int64)
    for lo in range(0, ni, 4096):
        hi = min(lo + 4096, ni)
        scores = np.abs(vecs[lo:hi].transpose(0, 2, 1) @ units_t)
        scores = np.where(st.allowed[lo:hi, None, :], scores, -1.0)
        out[lo:hi] = np.argmax(scores, axis=2)
    return out


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
    restricted = ~st.allowed.all(axis=1)
    for s_field in fields:
        want = brute_dir_idx(st, s_field)
        pol = snap_policy(st, s_field)
        np.testing.assert_array_equal(pol.dir_idx, want)
        ref = Policy(st, want, pol.weights, None)
        np.testing.assert_array_equal(pol.plus, ref.plus)
        np.testing.assert_array_equal(pol.minus, ref.minus)
        offs = st.dirs[want]
        np.testing.assert_array_equal(
            pol.minus, naive_neighbors(dom, st.nodes[:, None], -offs))
    if name.startswith("ball"):
        assert restricted.any()


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
    row, t = np.argwhere(~st.allowed)[0]
    dir_idx = np.zeros((st.nodes.size, 4), dtype=np.int64)
    dir_idx[:] = np.flatnonzero(st.allowed.all(axis=0))[:4]
    dir_idx[row, 0] = t
    with pytest.raises(ValueError, match="unavailable direction"):
        Policy(st, dir_idx, np.ones((st.nodes.size, 4)), None)


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
