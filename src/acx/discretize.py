"""Monotone wide-stencil discretization of second-order linear operators.

An SPD coefficient field S(x) is discretized per node by snapping the
eigenvectors of S to the nearest available lattice direction and weighting
the corresponding normalized second differences by the eigenvalues; drift
terms are discretized by monotone upwinding.  All neighbor weights are
nonnegative, which is the degenerate-ellipticity contract of every scheme
built here.  Near-boundary interior nodes auto-restrict to the directions
whose full offsets stay inside the region (at worst the unit box, which is
always available).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import LatticeDomain

_CHUNK = 4096


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
        ni, d = self.dir_idx.shape
        self.plus = np.empty((ni, d), dtype=np.int64)
        self.minus = np.empty((ni, d), dtype=np.int64)
        for k in range(d):
            offs = st.dirs[self.dir_idx[:, k]]
            self.plus[:, k] = st.domain.neighbor_ids(st.nodes, offs)
            self.minus[:, k] = st.domain.neighbor_ids(st.nodes, -offs)
        if np.any(self.plus < 0) or np.any(self.minus < 0):
            raise ValueError("policy selected an unavailable direction")
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
            sc = np.where(st.allowed[bad][:, None, :], scores[None], -1.0)
            dir_idx[bad] = np.argmax(sc, axis=2)
        weights = np.broadcast_to(weights, (ni, d)).copy()
        return Policy(st, dir_idx.astype(np.int64), weights, drift)

    dir_idx = np.empty((ni, d), dtype=np.int64)
    full = st.allowed.all(axis=1)
    for lo in range(0, ni, _CHUNK):
        hi = min(lo + _CHUNK, ni)
        scores = np.abs(vecs[lo:hi].transpose(0, 2, 1) @ units_t)  # (c, d, T)
        if not full[lo:hi].all():
            scores = np.where(st.allowed[lo:hi, None, :], scores, -1.0)
        dir_idx[lo:hi] = np.argmax(scores, axis=2)
    return Policy(st, dir_idx, weights, drift)

