"""Uniform lattice domains, sampled scalar fields and finite differences.

A domain is a box [a, b]^d or a ball masked inside its bounding box, with
nodes classified exterior / boundary / interior.  Boundary nodes are region
nodes with an exterior (or off-grid) neighbor in the unit sup-norm box, so
every interior node owns its full 3^d neighborhood; wide-stencil users fall
back to shorter offsets near the boundary through the validity masks.
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
_CLASS_CODES = {v: k for k, v in _CLASS_NAMES.items()}


class LatticeError(ValueError):
    pass


@lru_cache(maxsize=None)
def stencil_directions(dim: int, rho: int) -> np.ndarray:
    """Primitive integer directions with sup-norm <= rho, one per +- pair,
    in deterministic lexicographic order."""
    if rho < 1:
        raise LatticeError("stencil radius must be >= 1")
    dirs = []
    for flat in np.ndindex(*(2 * rho + 1,) * dim):
        w = np.array(flat) - rho
        if not w.any():
            continue
        if math.gcd(*[int(abs(c)) for c in w]) != 1:
            continue
        nz = w[w != 0]
        if nz[0] < 0:  # canonical sign representative
            continue
        dirs.append(w)
    out = np.array(sorted(dirs, key=tuple), dtype=np.int64)
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
        widths = bounds[:, 1] - bounds[:, 0]
        if nodes_per_axis < 5:
            raise LatticeError("need at least 5 nodes per axis")
        h = widths[0] / (nodes_per_axis - 1)
        if np.max(np.abs(widths - widths[0])) > 1e-12:
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

    def _grid_coords(self) -> np.ndarray:
        axes = [self.origin[k] + self.h * np.arange(self.shape[k])
                for k in range(self.dim)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)

    def _classify(self):
        ngrid = int(np.prod(self.shape))
        coords = self._grid_coords()
        if self.kind == "ball":
            dist = np.linalg.norm(coords - self.center, axis=1)
            in_region = dist <= self.radius + 1e-12
        elif self.kind == "box":
            in_region = np.ones(ngrid, dtype=bool)
        else:
            raise LatticeError(f"unknown domain kind {self.kind!r}")

        region_grid = in_region.reshape(self.shape)
        # pad with exterior so off-grid neighbors count as exterior
        padded = np.zeros(tuple(s + 2 for s in self.shape), dtype=bool)
        padded[(slice(1, -1),) * self.dim] = region_grid
        all_nb_in = np.ones(self.shape, dtype=bool)
        for off in np.ndindex(*(3,) * self.dim):
            if all(o == 1 for o in off):
                continue
            sl = tuple(slice(o, o + s) for o, s in zip(off, self.shape))
            all_nb_in &= padded[sl]
        cls = np.where(region_grid, np.where(all_nb_in, INTERIOR, BOUNDARY),
                       EXTERIOR).astype(np.int8)

        self.grid_class = cls
        flat_cls = cls.ravel()
        self.region_grid_flat = np.flatnonzero(flat_cls != EXTERIOR)
        self.flat_of_grid = np.full(ngrid, -1, dtype=np.int64)
        self.flat_of_grid[self.region_grid_flat] = np.arange(
            self.region_grid_flat.size)
        self.node_class = flat_cls[self.region_grid_flat]
        self.node_coords = coords[self.region_grid_flat]
        self.node_multi = np.stack(
            np.unravel_index(self.region_grid_flat, self.shape), axis=1)
        self.interior_ids = np.flatnonzero(self.node_class == INTERIOR)
        self.boundary_ids = np.flatnonzero(self.node_class == BOUNDARY)
        if self.interior_ids.size == 0:
            raise LatticeError("domain is too coarse: no interior nodes")
        self._nb_cache: dict = {}

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
        nodes = self.flat_of_grid[np.ravel_multi_index(tuple(idx.T), self.shape)]
        if np.any(nodes < 0):
            raise LatticeError("node is exterior to the domain")
        return nodes

    def _padded_ordinals(self):
        """(table, pos, strides): region ordinals on the grid padded by the
        stencil radius (-1 off the region), each node's flat position in
        it, and the strides of an integer offset; built on first use."""
        if "pad" not in self._nb_cache:
            pad = self.stencil_radius
            shape = tuple(s + 2 * pad for s in self.shape)
            dtype = np.int32 if self.n_nodes < 2 ** 31 else np.int64
            table = np.full(shape, -1, dtype=dtype)
            table[(slice(pad, -pad),) * self.dim] = (
                self.flat_of_grid.reshape(self.shape))
            strides = np.array([int(np.prod(shape[k + 1:]))
                                for k in range(self.dim)], dtype=np.int64)
            pos = (self.node_multi + pad) @ strides
            self._nb_cache["pad"] = (table.ravel(), pos, strides)
        return self._nb_cache["pad"]

    def neighbor_ids(self, nodes: np.ndarray, offset: np.ndarray) -> np.ndarray:
        """Region ordinals of nodes + offset (integer grid steps, one offset
        for all nodes or one per node); -1 when the target leaves the grid
        or the region."""
        offset = np.asarray(offset, dtype=np.int64)
        if np.all(np.abs(offset) <= self.stencil_radius):
            # within the pad every target is a cell of the padded table
            table, pos, strides = self._padded_ordinals()
            return table[pos[nodes] + offset @ strides].astype(np.int64)
        multi = self.node_multi[nodes] + offset
        ok = np.all((multi >= 0) & (multi < np.array(self.shape)), axis=-1)
        flat = np.zeros(multi.shape[:-1], dtype=np.int64)
        if multi.ndim == 2:
            flat[ok] = np.ravel_multi_index(tuple(multi[ok].T), self.shape)
        else:
            flat[ok] = np.ravel_multi_index(tuple(np.moveaxis(multi[ok], -1, 0)),
                                            self.shape)
        out = np.where(ok, self.flat_of_grid[flat], -1)
        return out

    def stencil_table(self, rho: int | None = None):
        """(dirs, allowed) over interior nodes, cached; the neighbor ordinals
        themselves are resolved on demand per selected direction to keep the
        footprint proportional to the dimension rather than the direction
        count."""
        rho = self.stencil_radius if rho is None else rho
        if rho in self._nb_cache:
            return self._nb_cache[rho]
        dirs = stencil_directions(self.dim, rho)
        ni = self.interior_ids.size
        allowed = np.empty((ni, dirs.shape[0]), dtype=bool)
        for t, w in enumerate(dirs):
            allowed[:, t] = ((self.neighbor_ids(self.interior_ids, w) >= 0)
                             & (self.neighbor_ids(self.interior_ids, -w) >= 0))
        out = (dirs, allowed)
        self._nb_cache[rho] = out
        return out

    def axis_tables(self):
        """Unit axis neighbor ordinals over interior nodes (always valid)."""
        if "axis" in self._nb_cache:
            return self._nb_cache["axis"]
        d = self.dim
        plus = np.empty((self.interior_ids.size, d), dtype=np.int64)
        minus = np.empty_like(plus)
        for k in range(d):
            e = np.zeros(d, dtype=np.int64)
            e[k] = 1
            plus[:, k] = self.neighbor_ids(self.interior_ids, e)
            minus[:, k] = self.neighbor_ids(self.interior_ids, -e)
        if np.any(plus < 0) or np.any(minus < 0):
            raise LatticeError("interior node misses a unit neighbor")
        self._nb_cache["axis"] = (plus, minus)
        return plus, minus

    def validate(self) -> None:
        """Classification invariants: partition and unit-stencil closure."""
        cls = self.grid_class
        if not np.all((cls >= EXTERIOR) & (cls <= INTERIOR)):
            raise LatticeError("invalid class codes")
        self.axis_tables()
        _, allowed = self.stencil_table(1)
        if not np.all(allowed):
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

    def copy(self) -> "ScalarField":
        return ScalarField(self.domain, self.values.copy(),
                           None if self.mask is None else self.mask.copy())

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
    if u.mask is not None:
        u._require_unmasked(table.used())
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
        self.ip = np.empty((self.nodes.size, d), dtype=np.int64)
        self.im = np.empty_like(self.ip)
        self.pairs = []
        eye = np.eye(d, dtype=np.int64)
        for i in range(d):
            self.ip[:, i] = domain.neighbor_ids(self.nodes, eye[i])
            self.im[:, i] = domain.neighbor_ids(self.nodes, -eye[i])
        for i in range(d):
            for j in range(i + 1, d):
                self.pairs.append((
                    i, j,
                    domain.neighbor_ids(self.nodes, eye[i] + eye[j]),
                    domain.neighbor_ids(self.nodes, eye[i] - eye[j]),
                    domain.neighbor_ids(self.nodes, -eye[i] + eye[j]),
                    domain.neighbor_ids(self.nodes, -(eye[i] + eye[j]))))
        if np.any(self.used() < 0):
            raise LatticeError("jet table requires interior nodes")

    def used(self) -> np.ndarray:
        """Every node the jets read."""
        return np.concatenate([self.nodes, self.ip.ravel(), self.im.ravel()]
                              + [ids for pair in self.pairs for ids in pair[2:]])

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


def directional_second(u: ScalarField, node: int, w) -> float:
    """[u(x + hw) - 2u(x) + u(x - hw)] / (h^2 |w|^2) for an integer direction;
    approximates w^T D^2u w / |w|^2 and is exact on quadratics."""
    dom = u.domain
    w = np.asarray(w, dtype=np.int64)
    if not w.any():
        raise LatticeError("direction must be nonzero")
    nodes = np.array([node])
    ip = dom.neighbor_ids(nodes, w)[0]
    im = dom.neighbor_ids(nodes, -w)[0]
    if ip < 0 or im < 0:
        raise LatticeError("directional offset exits the domain")
    u._require_unmasked(np.array([node, ip, im]))
    nrm2 = float(w @ w)
    return float((u.values[ip] + u.values[im] - 2 * u.values[node])
                 / (dom.h ** 2 * nrm2))


def upwind_first(u: ScalarField, node: int, b) -> float:
    """Monotone first-order term sum_i b_i D_i^{+-} u: forward difference for
    b_i > 0, backward for b_i < 0.  Exact on affine fields."""
    dom = u.domain
    b = np.asarray(b, dtype=float)
    if dom.node_class[node] != INTERIOR:
        raise LatticeError("upwind term requires an interior node")
    total = 0.0
    nodes = np.array([node])
    for i in range(dom.dim):
        if b[i] == 0.0:
            continue
        e = np.zeros(dom.dim, dtype=np.int64)
        e[i] = 1
        if b[i] > 0:
            nb = dom.neighbor_ids(nodes, e)[0]
            diff = (u.values[nb] - u.values[node]) / dom.h
        else:
            nb = dom.neighbor_ids(nodes, -e)[0]
            diff = (u.values[node] - u.values[nb]) / dom.h
        u._require_unmasked(np.array([nb]))
        total += b[i] * diff
    return float(total)


# ---------------------------------------------------------------------------
# Slice restriction
# ---------------------------------------------------------------------------

def restrict_to_slice(u: ScalarField, m: int) -> ScalarField:
    """Restriction to the coordinate slice C^m x {0} (trailing coordinates
    zero), reclassified as a domain in R^{2m}."""
    dom = u.domain
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
    flat = np.ravel_multi_index(tuple(multi.T), dom.shape)
    amb = dom.flat_of_grid[flat]
    if np.any(amb < 0):
        raise LatticeError("slice node missing from the ambient region")
    mask = None if u.mask is None else u.mask[amb]
    return ScalarField(sub, u.values[amb].copy(), mask)


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


def _coords_of(rows: list, d: int) -> np.ndarray:
    return np.array([[float(v) for v in row[:d]] for row in rows],
                    dtype=float).reshape(len(rows), d)


def import_csv(path, domain: LatticeDomain) -> ScalarField:
    """Read a node CSV back onto a matching domain (row order free)."""
    values = np.full(domain.n_nodes, np.nan)
    mask = None
    with open(path, newline="") as fh:
        r = csv.reader(fh)
        header = next(r)
        d = sum(1 for c in header
                if c.startswith("c") and c[1:].isdigit())
        if d != domain.dim:
            raise LatticeError("CSV dimension does not match the domain")
        rows = list(r)
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
    with open(path, newline="") as fh:
        r = csv.reader(fh)
        next(r)
        rows = list(r)
    out[domain.nodes_at(_coords_of(rows, domain.dim))] = [
        float(row[domain.dim]) for row in rows]
    bvals = out[domain.boundary_ids]
    if np.any(np.isnan(bvals)):
        raise LatticeError("boundary CSV does not cover every boundary node")
    return out
