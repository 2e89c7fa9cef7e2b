"""Uniform lattice domains, sampled scalar fields and finite differences.

A domain is a box [a, b]^d or a ball masked inside its bounding box, with
nodes classified exterior / boundary / interior.  Boundary nodes are region
nodes with an exterior (or off-grid) neighbor in the unit sup-norm box, so
every interior node owns its full 3^d neighborhood; wide-stencil users fall
back to shorter offsets near the boundary, where longer ones read -1.
Each domain keeps one grid of region ordinals, padded by the stencil
radius; every neighbor lookup reads it.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

EXTERIOR, BOUNDARY, INTERIOR = 0, 1, 2

_CLASS_NAMES = {EXTERIOR: "exterior", BOUNDARY: "boundary", INTERIOR: "interior"}


class LatticeError(ValueError):
    pass


@lru_cache(maxsize=None)
def stencil_directions(dim: int, rho: int) -> np.ndarray:
    """Primitive integer directions with sup-norm <= rho, one per +- pair,
    in deterministic lexicographic order."""
    if rho < 1:
        raise LatticeError("stencil radius must be >= 1")
    # every integer vector of the box, in lexicographic (C) order
    w = np.indices((2 * rho + 1,) * dim, dtype=np.int64).reshape(dim, -1).T - rho
    first = w[np.arange(w.shape[0]), np.argmax(w != 0, axis=1)]
    # gcd 1 drops the zero vector and the multiples; a positive first
    # nonzero entry picks one sign of each pair
    out = w[(np.gcd.reduce(np.abs(w), axis=1) == 1) & (first > 0)]
    out.setflags(write=False)
    return out


@lru_cache(maxsize=None)
def unit_offsets(dim: int) -> np.ndarray:
    """The 3^dim - 1 nonzero offsets of the unit sup-norm box."""
    w = stencil_directions(dim, 1)
    out = np.concatenate([w, -w])
    out.setflags(write=False)
    return out


@dataclass
class LatticeDomain:
    """Uniform grid with node classification and neighbor lookup."""

    dim: int
    h: float
    origin: np.ndarray           # coordinate of grid index (0, ..., 0)
    shape: tuple
    kind: str                    # "box" | "ball"
    center: np.ndarray | None = None
    radius: float | None = None
    stencil_radius: int = 2

    def __post_init__(self):
        geometry = [("origin", self.origin), ("spacing h", self.h)]
        if self.kind == "ball":
            geometry[:0] = [("center", self.center), ("radius", self.radius)]
        for name, value in geometry:
            if not np.all(np.isfinite(value)):
                raise LatticeError(f"domain {name} must be finite, got "
                                   f"{np.asarray(value).tolist()}")
        if self.h <= 0:
            raise LatticeError("spacing must be positive")
        if self.stencil_radius < 1:
            raise LatticeError("stencil radius must be >= 1")
        self._classify()

    # -- construction --------------------------------------------------------

    @staticmethod
    def box(bounds, nodes_per_axis: int, dim: int | None = None,
            stencil_radius: int = 2) -> "LatticeDomain":
        bounds = np.asarray(bounds, dtype=float)
        if bounds.ndim == 1:
            if dim is None:
                raise LatticeError("box with scalar bounds needs dim")
            bounds = np.tile(bounds, (dim, 1))
        d = bounds.shape[0]
        for name, value in (("origin", bounds[:, 0]),
                            ("upper bounds", bounds[:, 1])):
            if not np.all(np.isfinite(value)):
                raise LatticeError(f"domain {name} must be finite, got "
                                   f"{value.tolist()}")
        widths = bounds[:, 1] - bounds[:, 0]
        if nodes_per_axis < 5:
            raise LatticeError("need at least 5 nodes per axis")
        h = widths[0] / (nodes_per_axis - 1)
        if not np.allclose(widths, widths[0], rtol=0.0, atol=1e-12):
            raise LatticeError("box must have equal axis widths (uniform h)")
        return LatticeDomain(d, h, bounds[:, 0].copy(), (nodes_per_axis,) * d,
                             "box", stencil_radius=stencil_radius)

    @staticmethod
    def ball(center, radius: float, nodes_per_axis: int,
             stencil_radius: int = 2) -> "LatticeDomain":
        center = np.asarray(center, dtype=float)
        d = center.shape[0]
        if nodes_per_axis < 5:
            raise LatticeError("need at least 5 nodes per axis")
        h = 2 * radius / (nodes_per_axis - 1)
        origin = center - radius
        return LatticeDomain(d, h, origin, (nodes_per_axis,) * d, "ball",
                             center=center, radius=radius,
                             stencil_radius=stencil_radius)

    # -- classification ------------------------------------------------------

    def _classify(self):
        d, shape, pad = self.dim, self.shape, self.stencil_radius
        if self.kind == "ball":
            # squared distance to the center in the grid's shape, summed axis
            # by axis in the order np.linalg.norm sums coordinates
            sq = None
            for k in range(d):
                off = (self.origin[k] + self.h * np.arange(shape[k])
                       - self.center[k]) ** 2
                sq = off if sq is None else sq[..., None] + off
            region = np.sqrt(sq) <= self.radius + 1e-12
        elif self.kind == "box":
            region = np.ones(shape, dtype=bool)
        else:
            raise LatticeError(f"unknown domain kind {self.kind!r}")

        # a node is interior when its whole unit box lies on the region; the
        # box is the sum of the unit segments of the axes, so erode the
        # region by one segment per axis (off-grid cells count as exterior)
        inner = region.copy()
        for k in range(d):
            lo = (slice(None),) * k + (slice(None, -1),)
            hi = (slice(None),) * k + (slice(1, None),)
            before = inner.copy()
            inner[hi] &= before[lo]
            inner[lo] &= before[hi]
            inner[(slice(None),) * k + (0,)] = False
            inner[(slice(None),) * k + (-1,)] = False
        cls = np.where(region, np.where(inner, INTERIOR, BOUNDARY),
                       EXTERIOR).astype(np.int8)

        self.grid_class = cls
        region_flat = np.flatnonzero(region)
        self.node_class = cls.ravel()[region_flat]
        self.node_multi = np.stack(np.unravel_index(region_flat, shape), axis=1)
        self.node_coords = self.origin + self.h * self.node_multi
        self.interior_ids = np.flatnonzero(self.node_class == INTERIOR)
        self.boundary_ids = np.flatnonzero(self.node_class == BOUNDARY)
        if self.interior_ids.size == 0:
            raise LatticeError("domain is too coarse: no interior nodes")

        # region ordinals on the grid padded by the stencil radius, -1 off
        # the region; every neighbor lookup reads this one grid
        padded = tuple(s + 2 * pad for s in shape)
        self._strides = np.array([math.prod(padded[k + 1:]) for k in range(d)],
                                 dtype=np.int64)
        self._pos = (self.node_multi + pad) @ self._strides
        dtype = np.int32 if self.n_nodes < 2 ** 31 else np.int64
        self._ordinals = np.full(math.prod(padded), -1, dtype=dtype)
        self._ordinals[self._pos] = np.arange(self.n_nodes)
        self._stencil = None

    # -- basic queries ---------------------------------------------------------

    @property
    def n_nodes(self) -> int:
        return self.node_class.size

    def node_at(self, coords) -> int:
        return int(self.nodes_at(np.asarray(coords, dtype=float)[None])[0])

    def nodes_at(self, coords) -> np.ndarray:
        """Region ordinals of a batch of lattice points (M, dim); any point
        off the grid, off the lattice or exterior to the region is an error."""
        coords = np.asarray(coords, dtype=float)
        if coords.ndim != 2 or coords.shape[1] != self.dim:
            raise LatticeError(f"coordinates must have shape (M, {self.dim})")
        idx = np.rint((coords - self.origin) / self.h).astype(np.int64)
        if np.any(idx < 0) or np.any(idx >= np.array(self.shape)):
            raise LatticeError("coordinates outside the grid")
        if np.any(np.abs(self.origin + self.h * idx - coords) > 1e-9 * self.h):
            raise LatticeError("coordinates are not a lattice node")
        nodes = self._ordinals_at(idx)
        if np.any(nodes < 0):
            raise LatticeError("node is exterior to the domain")
        return nodes

    def _ordinals_at(self, multi: np.ndarray) -> np.ndarray:
        """Region ordinals at grid multi-indices (..., dim), -1 off the grid
        or the region."""
        on = np.all((multi >= 0) & (multi < np.array(self.shape)), axis=-1)
        # off-grid indices read cell 0, a pad cell (-1)
        cells = np.where(on, (multi + self.stencil_radius) @ self._strides, 0)
        return self._ordinals[cells].astype(np.int64)

    def neighbor_ids(self, nodes: np.ndarray, offset: np.ndarray) -> np.ndarray:
        """Region ordinals of nodes + offset (integer grid steps: one offset
        for all nodes, one per node, or, with nodes of shape (N, 1), a row
        (K, dim) of offsets for every node); -1 when the target leaves the
        grid or the region."""
        offset = np.asarray(offset, dtype=np.int64)
        if np.all(np.abs(offset) <= self.stencil_radius):
            # within the pad every target is a cell of the padded grid
            return self._ordinals[self._pos[nodes]
                                  + offset @ self._strides].astype(np.int64)
        return self._ordinals_at(self.node_multi[nodes] + offset)

    def stencil_table(self) -> np.ndarray:
        """The primitive directions of sup-norm at most the stencil radius,
        built on first use with what ``stencil_neighbors`` reads: each
        direction's flat step on the padded grid and the interior cells."""
        if self._stencil is None:
            dirs = stencil_directions(self.dim, self.stencil_radius)
            self._stencil = (dirs, self._pos[self.interior_ids],
                             dirs @ self._strides)
        return self._stencil[0]

    def stencil_neighbors(self, rows: np.ndarray, dir_idx: np.ndarray):
        """(plus, minus): region ordinals of x + w and x - w for the interior
        nodes x = interior_ids[rows] and w = dirs[dir_idx] of
        ``stencil_table``, ``rows`` broadcast against ``dir_idx``; -1 where
        the target is off the region.  A direction's sup-norm is at most the
        pad, so each side is one gather of the padded grid at x's cell plus
        the direction's flat step."""
        self.stencil_table()
        _, pos, steps = self._stencil
        at, step = pos[rows], steps[dir_idx]
        return (self._ordinals[at + step].astype(np.int64),
                self._ordinals[at - step].astype(np.int64))

    def validate(self) -> None:
        """Classification invariants: class codes and unit-box closure."""
        cls = self.grid_class
        if not np.all((cls >= EXTERIOR) & (cls <= INTERIOR)):
            raise LatticeError("invalid class codes")
        nb = self.neighbor_ids(self.interior_ids[:, None], unit_offsets(self.dim))
        if np.any(nb < 0):
            raise LatticeError("interior node misses a unit-box neighbor")


# ---------------------------------------------------------------------------
# Scalar fields
# ---------------------------------------------------------------------------

@dataclass
class ScalarField:
    """One real value per non-exterior node, with an optional exceptional
    mask marking nodes excluded from essential operations."""

    domain: LatticeDomain
    values: np.ndarray
    mask: np.ndarray | None = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.domain.n_nodes,):
            raise LatticeError("value array does not match the domain")
        if self.mask is not None:
            self.mask = np.asarray(self.mask, dtype=bool)
            if self.mask.shape != self.values.shape:
                raise LatticeError("mask does not match the domain")
        unmasked = self.values if self.mask is None else self.values[~self.mask]
        if unmasked.size and not np.all(np.isfinite(unmasked)):
            raise LatticeError("non-finite values on unmasked nodes")

    @staticmethod
    def from_vectorized(domain: LatticeDomain, fn: Callable) -> "ScalarField":
        return ScalarField(domain, np.asarray(fn(domain.node_coords), dtype=float))

    def take(self, domain: LatticeDomain, ids: np.ndarray) -> "ScalarField":
        """The field on ``domain``, whose k-th node is node ``ids[k]`` here;
        the mask comes along."""
        return ScalarField(domain, self.values[ids],
                           None if self.mask is None else self.mask[ids])

    def require_on(self, domain: LatticeDomain) -> None:
        """Reject the field unless it lives on ``domain`` itself: a context
        built on a domain reads only fields on that domain object."""
        if self.domain is not domain:
            raise LatticeError("the field is not on the context's domain")

    def _require_unmasked(self, ids: np.ndarray):
        if self.mask is not None and np.any(self.mask[ids]):
            raise LatticeError("operation touches a masked node")


# ---------------------------------------------------------------------------
# Finite differences
# ---------------------------------------------------------------------------

def fd_jet(u: ScalarField, node: int):
    """Centered O(h^2) reduced 2-jet (p, A) at an interior node; mixed second
    derivatives use the 4-point cross formula.  Exact on quadratics."""
    from .subeq import ReducedJet  # local import to avoid a cycle

    p, a = fd_jets(u, np.array([node]))
    return ReducedJet(p[0], a[0])


def fd_jets(u: ScalarField, nodes: np.ndarray | None = None):
    """Batched jets over interior nodes: arrays (N, d) and (N, d, d)."""
    dom = u.domain
    if nodes is None:
        nodes = dom.interior_ids
    elif np.any(dom.node_class[np.asarray(nodes, dtype=np.int64)] != INTERIOR):
        raise LatticeError("jets require interior nodes")
    table = JetTable(dom, nodes)
    table.check(u)
    return table.jets(u.values)


class JetTable:
    """Gather indices of the centered jet formulas on a fixed node set: unit
    axis neighbors and, per axis pair (i, j), the four diagonal neighbors.
    Mixed second derivatives use the 4-point cross formula; the jets are
    O(h^2) and exact on quadratics."""

    def __init__(self, domain: LatticeDomain, nodes: np.ndarray):
        self.domain = domain
        self.nodes = np.asarray(nodes, dtype=np.int64)
        d = domain.dim
        eye = np.eye(d, dtype=np.int64)
        pairs = [(i, j) for i in range(d) for j in range(i + 1, d)]
        offsets = [eye, -eye] + [
            np.stack([eye[i] + eye[j], eye[i] - eye[j], -eye[i] + eye[j],
                      -(eye[i] + eye[j])]) for i, j in pairs]
        nb = domain.neighbor_ids(self.nodes[:, None], np.concatenate(offsets))
        if np.any(nb < 0):
            raise LatticeError("jet table requires interior nodes")
        # contiguous copies: gathers through strided index columns are slower
        self.ip, self.im = nb[:, :d].copy(), nb[:, d:2 * d].copy()
        cross = nb[:, 2 * d:].T.reshape(len(pairs), 4, -1).copy()
        self.pairs = [(i, j, *ids) for (i, j), ids in zip(pairs, cross)]

    def used(self) -> np.ndarray:
        """Every node the jets read."""
        return np.concatenate([self.nodes, self.ip.ravel(), self.im.ravel()]
                              + [ids for pair in self.pairs for ids in pair[2:]])

    def check(self, u: ScalarField) -> None:
        """Reject a field on another domain or masked at a node the jets
        read."""
        u.require_on(self.domain)
        if u.mask is not None:
            u._require_unmasked(self.used())

    def jets(self, values: np.ndarray):
        d = self.domain.dim
        h = self.domain.h
        n = self.nodes.size
        center = values[self.nodes]
        p = (values[self.ip] - values[self.im]) / (2 * h)
        a = np.empty((n, d, d))
        diag = (values[self.ip] + values[self.im] - 2 * center[:, None]) / h ** 2
        for i in range(d):
            a[:, i, i] = diag[:, i]
        for i, j, pp, pm, mp, mm in self.pairs:
            a[:, i, j] = a[:, j, i] = (
                values[pp] - values[pm] - values[mp] + values[mm]) / (4 * h ** 2)
        return p, a


# ---------------------------------------------------------------------------
# Slice restriction
# ---------------------------------------------------------------------------

def slice_lattice(dom: LatticeDomain, m: int):
    """(slice domain, ambient ids): the coordinate slice C^m x {0} of
    ``dom`` as a domain in R^{2m}, and the ambient node of each of its
    nodes."""
    d = dom.dim
    if d % 2 != 0:
        raise LatticeError("slice restriction expects an even-dimensional grid")
    if not 1 <= 2 * m < d:
        raise LatticeError("slice dimension must satisfy 1 <= m < n")
    ds = 2 * m
    zero_idx = []
    for k in range(ds, d):
        axis = dom.origin[k] + dom.h * np.arange(dom.shape[k])
        hits = np.flatnonzero(np.abs(axis) <= 1e-9 * max(1.0, dom.h))
        if hits.size != 1:
            raise LatticeError("trailing axes do not contain the origin; "
                               "slice is empty")
        zero_idx.append(int(hits[0]))

    if dom.kind == "ball":
        if np.max(np.abs(dom.center[ds:])) > 1e-12:
            raise LatticeError("ball center must lie on the slice")
        sub = LatticeDomain.ball(dom.center[:ds], dom.radius, dom.shape[0],
                                 stencil_radius=dom.stencil_radius)
    else:
        bounds = np.stack([dom.origin[:ds],
                           dom.origin[:ds] + dom.h * (np.array(dom.shape[:ds]) - 1)],
                          axis=1)
        sub = LatticeDomain.box(bounds, dom.shape[0],
                                stencil_radius=dom.stencil_radius)

    multi = np.concatenate(
        [sub.node_multi,
         np.tile(np.array(zero_idx, dtype=np.int64), (sub.n_nodes, 1))], axis=1)
    amb = dom._ordinals_at(multi)
    if np.any(amb < 0):
        raise LatticeError("slice node missing from the ambient region")
    return sub, amb


# ---------------------------------------------------------------------------
# CSV interchange
# ---------------------------------------------------------------------------

def export_csv(field: ScalarField, path) -> None:
    dom = field.domain
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        cols = [f"c{k}" for k in range(dom.dim)] + ["value", "class"]
        if field.mask is not None:
            cols.append("masked")
        w.writerow(cols)
        for i in range(dom.n_nodes):
            row = [f"{c:.17g}" for c in dom.node_coords[i]]
            row.append(f"{field.values[i]:.17g}")
            row.append(_CLASS_NAMES[int(dom.node_class[i])])
            if field.mask is not None:
                row.append(str(int(field.mask[i])))
            w.writerow(row)


def _read_table(path, what: str) -> tuple[list, list]:
    """(header, rows) of a CSV; a file without a header is an error."""
    with open(path, newline="") as fh:
        r = csv.reader(fh)
        header = next(r, None)
        if header is None:
            raise LatticeError(f"{what} CSV has no header")
        return header, list(r)


def _check_width(rows: list, width: int, what: str) -> None:
    """Reject the first row with fewer than ``width`` columns."""
    for k, row in enumerate(rows):
        if len(row) < width:
            raise LatticeError(f"{what} CSV row {k + 1} has {len(row)} "
                               f"columns, needs {width}")


def _coords_of(rows: list, d: int) -> np.ndarray:
    return np.array([[float(v) for v in row[:d]] for row in rows],
                    dtype=float).reshape(len(rows), d)


def import_csv(path, domain: LatticeDomain) -> ScalarField:
    """Read a node CSV back onto a matching domain (row order free)."""
    values = np.full(domain.n_nodes, np.nan)
    mask = None
    header, rows = _read_table(path, "field")
    d = sum(1 for c in header if c.startswith("c") and c[1:].isdigit())
    if d != domain.dim:
        raise LatticeError("CSV dimension does not match the domain")
    _check_width(rows, d + (3 if "masked" in header else 1), "field")
    nodes = domain.nodes_at(_coords_of(rows, d))
    values[nodes] = [float(row[d]) for row in rows]
    if "masked" in header:
        mask = np.zeros(domain.n_nodes, dtype=bool)
        mask[nodes] = [bool(int(row[d + 2])) for row in rows]
    if np.any(np.isnan(values)):
        raise LatticeError("CSV does not cover every region node")
    return ScalarField(domain, values, mask)


def read_boundary_csv(path, domain: LatticeDomain) -> np.ndarray:
    """Boundary data table (coords..., value) -> values on boundary nodes."""
    out = np.full(domain.n_nodes, np.nan)
    _, rows = _read_table(path, "boundary")
    _check_width(rows, domain.dim + 1, "boundary")
    out[domain.nodes_at(_coords_of(rows, domain.dim))] = [
        float(row[domain.dim]) for row in rows]
    bvals = out[domain.boundary_ids]
    if np.any(np.isnan(bvals)):
        raise LatticeError("boundary CSV does not cover every boundary node")
    return out
