"""Monotone wide-stencil discretization of second-order linear operators.

An SPD coefficient field S(x) is discretized per node by snapping the
eigenvectors of S to the nearest available lattice direction (largest
|cos| against the stencil's primitive directions, lowest index on a tie)
and weighting the corresponding normalized second differences by the
eigenvalues; drift terms are discretized by monotone upwinding.  All
neighbor weights are nonnegative, which is the degenerate-ellipticity
contract of every scheme built here.  Near-boundary interior nodes
auto-restrict to the directions whose full offsets stay inside the region
(at worst the unit box, which is always available).

The direction set is closed under signed permutations, so by the
rearrangement inequality the best direction for a unit v is the best
member c of the chamber (nonnegative, nonincreasing directions: 3 for
d = 2, 10 for d = 4, 21 for d = 6 at radius 2) against sort(|v|),
un-permuted and re-signed like v.  That chamber snap is used wherever it
provably names the same direction as scoring every direction: the chosen
direction is available at the node, the chamber runner-up trails by more
than 1e-12 and no two adjacent sorted |v| entries within 1e-12 meet
unequal c entries.  Then every other direction scores at least
1e-12 / |c| lower in exact arithmetic, far above the roundoff of the
scores.  The other eigenvectors (near ties and unavailable directions)
are scored against every available direction, lowest index on a tie.  A
constant field is scored once, and a node where its best direction is
unavailable takes the first available entry of the stable descending
order of the scores.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .lattice import LatticeDomain

_CHUNK = 4096
_HEAD = 16
_TIE = 1e-12


class Stencil:
    """Direction set + per-interior-node availability for one domain."""

    def __init__(self, domain: LatticeDomain, rho: int | None = None):
        self.domain = domain
        self.rho = domain.stencil_radius if rho is None else rho
        dirs, allowed = domain.stencil_table(self.rho)
        self.dirs = dirs
        self.norms2 = (dirs.astype(float) ** 2).sum(axis=1)
        self.units = dirs / np.sqrt(self.norms2)[:, None]
        self.allowed = allowed
        self.axis_plus, self.axis_minus = domain.axis_tables()
        self.nodes = domain.interior_ids

    def node_row(self, node: int) -> int:
        rows = np.flatnonzero(self.nodes == node)
        if rows.size != 1:
            raise ValueError("node is not interior")
        return int(rows[0])

    @cached_property
    def chamber(self):
        """(members, unit members) of the nonnegative nonincreasing
        directions, one per orbit of the signed permutations."""
        dirs = self.dirs
        keep = np.all(dirs >= 0, axis=1) & np.all(np.diff(dirs, axis=1) <= 0,
                                                  axis=1)
        return dirs[keep], self.units[keep]

    @cached_property
    def _code_index(self):
        """Index into ``dirs`` of an integer vector w (either sign), looked
        up by the code (w + rho) . radix."""
        d, base = self.domain.dim, 2 * self.rho + 1
        radix = base ** np.arange(d, dtype=np.int64)
        table = np.full(base ** d, -1, dtype=np.int64)
        idx = np.arange(self.dirs.shape[0])
        table[(self.dirs + self.rho) @ radix] = idx
        table[(self.rho - self.dirs) @ radix] = idx
        return table, radix

    def index_of(self, w: np.ndarray) -> np.ndarray:
        """Indices into ``dirs`` of the directions +-w, rows of (M, d)."""
        table, radix = self._code_index
        return table[(w + self.rho) @ radix]


@dataclass
class Policy:
    """Frozen nonnegative-weight scheme: one (direction, weight) list per
    interior node plus an optional upwind drift."""

    stencil: Stencil
    dir_idx: np.ndarray          # (Ni, d) indices into stencil.dirs
    weights: np.ndarray          # (Ni, d) nonnegative
    drift: np.ndarray | None     # (Ni, d) or None

    def __post_init__(self):
        st = self.stencil
        ni = self.dir_idx.shape[0]
        if not np.all(st.allowed[np.arange(ni)[:, None], self.dir_idx]):
            raise ValueError("policy selected an unavailable direction")
        offs = st.dirs[self.dir_idx]
        self.plus = st.domain.neighbor_ids(st.nodes[:, None], offs)
        self.minus = st.domain.neighbor_ids(st.nodes[:, None], -offs)
        self.norms2 = st.norms2[self.dir_idx]
        h = st.domain.h
        coeff = (2.0 * self.weights / (h ** 2 * self.norms2)).sum(axis=1)
        if self.drift is not None:
            coeff = coeff + np.abs(self.drift).sum(axis=1) / h
        self.ucoeff = coeff

    def value(self, values: np.ndarray) -> np.ndarray:
        st = self.stencil
        h = st.domain.h
        center = values[st.nodes]
        sec = values[self.plus] + values[self.minus] - 2.0 * center[:, None]
        out = (self.weights * sec / (h ** 2 * self.norms2)).sum(axis=1)
        if self.drift is not None:
            fwd = (values[st.axis_plus] - center[:, None]) / h
            bwd = (center[:, None] - values[st.axis_minus]) / h
            out = out + (np.maximum(self.drift, 0.0) * fwd
                         + np.minimum(self.drift, 0.0) * bwd).sum(axis=1)
        return out


def snap_policy(stencil: Stencil, s_field: np.ndarray,
                drift: np.ndarray | None = None) -> Policy:
    """Eigenvalue-weighted stencil snap of an SPD field.

    ``s_field`` has shape (Ni, d, d) or (1, d, d) for a constant coefficient;
    eigenvalues are clipped at zero so the policy stays monotone even for
    marginally indefinite input.
    """
    st = stencil
    ni = st.nodes.size
    d = st.domain.dim
    vals, vecs = np.linalg.eigh(s_field)
    weights = np.clip(vals, 0.0, None)
    units_t = st.units.T.copy()

    if s_field.shape[0] == 1:
        scores = np.abs(vecs[0].T @ units_t)          # (d, T)
        base = np.argmax(scores, axis=1)              # (d,)
        dir_idx = np.broadcast_to(base, (ni, d)).copy()
        ok = np.all(st.allowed[:, base], axis=1)
        bad = np.flatnonzero(~ok)
        if bad.size:
            # first available entry of a stable descending order (argmax's
            # lowest-index rule on ties); nearly always among the first few
            order = np.argsort(-scores, axis=1, kind="stable")
            head = st.allowed[bad[:, None, None], order[None, :, :_HEAD]]
            dir_idx[bad] = order[np.arange(d), np.argmax(head, axis=2)]
            miss = ~head.any(axis=2)
            for k in np.flatnonzero(miss.any(axis=0)):
                rows = bad[miss[:, k]]
                dir_idx[rows, k] = order[k, np.argmax(
                    st.allowed[rows][:, order[k]], axis=1)]
        weights = np.broadcast_to(weights, (ni, d)).copy()
        return Policy(st, dir_idx.astype(np.int64), weights, drift)

    dir_idx, exact = _chamber_snap(st, vecs)
    node, col = np.nonzero(~exact)
    for lo in range(0, node.size, _CHUNK):
        rows, cols = node[lo:lo + _CHUNK], col[lo:lo + _CHUNK]
        scores = _masked_scores(vecs[rows, :, cols] @ units_t,
                                st.allowed[rows])                 # (c, T)
        dir_idx[rows, cols] = np.argmax(scores, axis=1)
    return Policy(st, dir_idx, weights, drift)


def _chamber_snap(st: Stencil, vecs: np.ndarray):
    """(dir_idx, exact), both (N, d), for the eigenvector columns of
    ``vecs``: the best direction found through the chamber, and whether it
    is provably the one scoring every available direction gives (see the
    module docstring)."""
    n, d = vecs.shape[:2]
    v = vecs.transpose(0, 2, 1).reshape(n * d, d)   # one eigenvector per row
    order = np.argsort(-np.abs(v), axis=1, kind="stable")
    v = np.take_along_axis(v, order, axis=1)
    s = np.abs(v)                                   # sorted |v|, descending
    members, units = st.chamber
    scores = s @ units.T
    rows = np.arange(n * d)
    best = np.argmax(scores, axis=1)
    top = scores[rows, best]
    scores[rows, best] = -np.inf
    exact = top - scores.max(axis=1) > _TIE      # never for NaN
    c = members[best]
    # Sign flips need no guard of their own: at the best c every nonzero
    # entry sits over an |v| entry of at least 1e-12 (zeroing c over smaller
    # entries would score far higher), so a flip against v's sign there
    # loses at least 2e-12 / |c|.  Swapping unequal c entries over nearly
    # equal |v| entries loses almost nothing, hence the guard below.
    exact &= ~np.any((s[:, :-1] - s[:, 1:] < _TIE)
                     & (c[:, :-1] != c[:, 1:]), axis=1)
    w = np.empty_like(c)
    np.put_along_axis(w, order, np.where(v < 0, -c, c), axis=1)
    idx = st.index_of(w)
    exact &= st.allowed[rows // d, idx]
    return idx.reshape(n, d), exact.reshape(n, d)


def _masked_scores(products: np.ndarray, allowed: np.ndarray) -> np.ndarray:
    """|cos| scores from the products with the unit directions, -1 where a
    direction is unavailable; in place, so one score block is alive."""
    np.abs(products, out=products)
    np.copyto(products, -1.0, where=~allowed)
    return products
