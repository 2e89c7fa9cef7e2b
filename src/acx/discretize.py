"""Monotone wide-stencil discretization of second-order linear operators,
and the linear solve of a frozen discretization.

``snap_policy`` is the one builder of every monotone policy.  A coefficient
field with ascending eigenpairs (lambda_j, v_j), clipped at zero, and a
frame g (the identity when absent) is written per node as
S = lambda_1 sum_i (g e_i)(g e_i)^T + sum_{j >= 2} (lambda_j - lambda_1)
(g v_j)(g v_j)^T, so the snap's error scales with the anisotropy, not with
|S|.  Each term mu q q^T puts the weight mu |q|^2 on the normalized second
difference along the available lattice direction w that q snaps to
(largest |cos| against the stencil's primitive directions, lowest index on
a tie, :func:`snap_units`): mu |q|^2 / (h^2 |w|^2) on both neighbours
x +- h w.  The d columns g e_i come snapped with the frame (the axes
without one), a term whose weight is zero at every node is skipped, and
the drift, given by its coefficients along the columns' directions, is
upwinded along them.  All of it is one nonnegative weight per neighbour,
which is the degenerate-ellipticity (monotonicity) contract of every
scheme built here (Barles & Souganidis 1991; Oberman 2006).
Near-boundary interior nodes auto-restrict to the available directions,
whose full offsets x +- h w stay inside the region (at worst the unit box,
which is always available), gathered on demand (:meth:`Stencil.available`).

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
scores.  The other vectors (near ties and unavailable directions) are
scored against every available direction, lowest index on a tie, in
blocks of at most _SCORE_BYTES of scores (availability is gathered only
where a direction scores at least the best one of the unit box).  A
constant field takes the same path with one set of vectors and one
chamber snap shared by every node; only the availability of the chosen
direction is checked per node.

A frozen policy is those weights: a matrix-free linear operator on the
interior values with nonnegative off-diagonal entries and diagonal
-ucoeff, the row sum of the weights; boundary values enter through the
values it is applied to.  ``solve_frozen`` solves it with
Jacobi-preconditioned BiCGSTAB (van der Vorst 1992; Saad, Iterative
Methods for Sparse Linear Systems, 2003) to a max-norm residual.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .lattice import LatticeDomain

# bytes of one block of fallback scores (float64) or gathered ordinals
_SCORE_BYTES = 8 << 20
_TIE = 1e-12


class Stencil:
    """Direction set of one domain; availability is gathered on demand."""

    def __init__(self, domain: LatticeDomain):
        self.domain = domain
        self.rho = domain.stencil_radius
        self.dirs = domain.stencil_table()
        self.norms2 = (self.dirs.astype(float) ** 2).sum(axis=1)
        self.units = self.dirs / np.sqrt(self.norms2)[:, None]
        self.nodes = domain.interior_ids

    def available(self, rows: np.ndarray, dir_idx: np.ndarray) -> np.ndarray:
        """Whether both x +- h w lie on the region at x = nodes[rows] for
        w = dirs[dir_idx], two (M,) arrays: the policies' neighbor gather,
        in blocks of at most _SCORE_BYTES of ordinals per side."""
        out = np.empty(rows.size, dtype=bool)
        for lo in range(0, rows.size, _SCORE_BYTES // 8):
            part = slice(lo, lo + _SCORE_BYTES // 8)
            plus, minus = self.domain.stencil_neighbors(rows[part],
                                                        dir_idx[part])
            out[part] = (plus >= 0) & (minus >= 0)
        return out

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

    @cached_property
    def axes(self) -> np.ndarray:
        """Indices into ``dirs`` of the axis directions e_1, ..., e_d."""
        return self.index_of(np.eye(self.domain.dim, dtype=np.int64))


@dataclass
class Policy:
    """Frozen monotone scheme: per interior node, k stencil directions w
    and the nonnegative weights of the neighbors x + h w (``wplus``) and
    x - h w (``wminus``).  Its value is
    sum_k wplus (u(x + hw) - u(x)) + wminus (u(x - hw) - u(x)), and its
    diagonal coefficient ``ucoeff`` is the row sum of the weights."""

    stencil: Stencil
    dir_idx: np.ndarray          # (Ni, k) indices into stencil.dirs
    wplus: np.ndarray            # (Ni, k) nonnegative
    wminus: np.ndarray           # (Ni, k) nonnegative

    def __post_init__(self):
        self.plus, self.minus = self.stencil.domain.stencil_neighbors(
            np.arange(self.dir_idx.shape[0])[:, None], self.dir_idx)
        if np.any(self.plus < 0) or np.any(self.minus < 0):
            raise ValueError("policy selected an unavailable direction")
        self.ucoeff = (self.wplus + self.wminus).sum(axis=1)

    def value(self, values: np.ndarray) -> np.ndarray:
        center = values[self.stencil.nodes][:, None]
        return (self.wplus * (values[self.plus] - center)
                + self.wminus * (values[self.minus] - center)).sum(axis=1)


def snap_policy(stencil: Stencil, vals: np.ndarray, vecs: np.ndarray,
                frame: tuple | None = None,
                drift: np.ndarray | None = None) -> Policy:
    """Policy of the field S with the ascending eigenpairs ``vals`` (Ni or
    1, d) and ``vecs`` (Ni or 1, d, d), in ``np.linalg.eigh``'s layout,
    pushed through ``frame`` (see the module docstring).  ``frame`` is
    (g, dir_idx, norms2): g (Ni, d, d), the snapped directions of its
    columns (Ni, d) and their squared lengths |g e_i|^2 (Ni, d); without it
    g = I and the columns are the axes.  The eigenvalues are clipped at zero
    so the policy stays monotone even for marginally indefinite input.
    ``drift`` (Ni, d) holds the drift's coefficients c along the columns'
    directions w_i (b = sum_i c_i w_i; on the axes c = b), upwinded as
    max(c_i, 0) / h on x + h w_i and max(-c_i, 0) / h on x - h w_i."""
    st = stencil
    vals = np.clip(vals, 0.0, None)
    rest = vals[:, 1:] - vals[:, :1]
    q = vecs[:, :, 1:]
    if frame is None:
        ni, d = st.nodes.size, st.domain.dim
        dir_idx, norms2 = np.broadcast_to(st.axes, (ni, d)), np.ones((1, d))
    else:
        g, dir_idx, norms2 = frame
        q = g @ q
        lengths2 = (q ** 2).sum(axis=1)
        rest = rest * lengths2
        q = q / np.sqrt(lengths2)[:, None]
    keep = np.any(rest > 0.0, axis=0)
    if keep.any():
        dir_idx = np.concatenate([dir_idx, snap_units(st, q[:, :, keep])],
                                 axis=1)
    weights = np.concatenate([vals[:, :1] * norms2, rest[:, keep]], axis=1)
    h = st.domain.h
    wplus = wminus = weights / (h ** 2 * st.norms2[dir_idx])
    if drift is not None:
        up = np.pad(drift / h, ((0, 0), (0, dir_idx.shape[1] - drift.shape[1])))
        wplus = wplus + np.maximum(up, 0.0)
        wminus = wminus + np.maximum(-up, 0.0)
    return Policy(st, dir_idx, wplus, wminus)


def snap_units(stencil: Stencil, units: np.ndarray) -> np.ndarray:
    """(Ni, k) indices into ``dirs`` of the best available direction (largest
    |cos|, lowest index on a tie) for the k unit vectors in the columns of
    ``units`` (Ni or 1, d, k), one row per interior node or one shared by
    all: the chamber snap where it provably names that direction, scoring
    every direction elsewhere (see the module docstring)."""
    st = stencil
    ni, d, k = st.nodes.size, st.domain.dim, units.shape[2]
    dir_idx, exact = _chamber_snap(st, units)
    node, col = np.nonzero(~exact)
    units = np.broadcast_to(units, (ni, d, k))
    units_t = st.units.T.copy()
    block = max(1, _SCORE_BYTES // (8 * units_t.shape[1]))
    for lo in range(0, node.size, block):
        rows, cols = node[lo:lo + block], col[lo:lo + block]
        scores = _masked_scores(st, rows, units[rows, :, cols] @ units_t)
        dir_idx[rows, cols] = np.argmax(scores, axis=1)
    return dir_idx


def _chamber_snap(st: Stencil, units: np.ndarray):
    """(dir_idx, exact), both (Ni, k), for the k unit columns of ``units``
    (Ni or 1, d, k), one row per interior node or one shared by all: the
    best direction found through the chamber, and whether it is provably
    the one scoring every direction available at the node gives (see the
    module docstring)."""
    n, d, k = units.shape
    v = units.transpose(0, 2, 1).reshape(n * k, d)   # one unit vector per row
    order = np.argsort(-np.abs(v), axis=1, kind="stable")
    v = np.take_along_axis(v, order, axis=1)
    s = np.abs(v)                                   # sorted |v|, descending
    members, units = st.chamber
    scores = s @ units.T
    rows = np.arange(n * k)
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
    ni = st.nodes.size
    idx = np.broadcast_to(st.index_of(w).reshape(n, k), (ni, k)).copy()
    exact = exact.reshape(n, k) & st.available(
        np.repeat(np.arange(ni), k), idx.ravel()).reshape(ni, k)
    return idx, exact


def _masked_scores(st: Stencil, rows: np.ndarray,
                   products: np.ndarray) -> np.ndarray:
    """|cos| scores from the products (c, T) with the unit directions, in
    place so one score block is alive, -1 where an unavailable direction
    could win at the node of its row: the unit box, available at every
    interior node, bounds the winner's score from below, so availability is
    gathered only for the directions scoring at least its best."""
    np.abs(products, out=products)
    box = np.abs(st.dirs).max(axis=1) == 1
    floor = products[:, box].max(axis=1)
    r, t = np.divmod(np.flatnonzero(~(products < floor[:, None])),
                     products.shape[1])         # every entry of a NaN row
    off = ~st.available(rows[r], t)
    products[r[off], t[off]] = -1.0
    return products


class KrylovError(RuntimeError):
    """A frozen-policy solve met a singular system, broke down, produced a
    non-finite iterate or missed its tolerance within its step cap."""


# BiCGSTAB steps allowed per node along the domain's longest axis; a
# Jacobi-preconditioned elliptic solve needs O(1/h) of them
_KRYLOV_STEPS = 20


def solve_frozen(policy: Policy, values: np.ndarray, rhs, tol: float) -> np.ndarray:
    """Copy of ``values`` whose interior entries solve policy.value(u) = rhs
    to a max-norm residual of at most ``tol``; the other entries are kept
    and act as boundary values.

    Jacobi-preconditioned BiCGSTAB on the interior unknowns, restarted from
    the true residual whenever its recurrence stops (converged, drifted from
    the true residual or broke down).  Raises KrylovError when a node has no
    positive weight (a singular system), when a restart breaks down at once,
    on a non-finite iterate and when the step cap runs out, so a solve never
    hangs.
    """
    nodes = policy.stencil.nodes
    diag = -policy.ucoeff
    if not np.all(diag < 0.0):
        raise KrylovError("singular system: an interior node has no "
                          "positive weight")
    out = np.array(values, dtype=float)
    work = np.zeros_like(out)

    def apply(x):
        work[nodes] = x
        return policy.value(work)

    cap = _KRYLOV_STEPS * max(policy.stencil.domain.shape)
    steps = 0
    x = out[nodes]
    r = rhs - policy.value(out)
    while True:
        rnorm = float(np.max(np.abs(r)))
        if not np.isfinite(rnorm):
            raise KrylovError("the linear solve produced a non-finite iterate")
        if rnorm <= tol:
            return out
        if steps >= cap:
            raise KrylovError(f"linear solve missed its tolerance {tol:.3e} "
                              f"(residual {rnorm:.3e} after {steps} steps)")
        start = steps
        r0 = r.copy()
        p = np.zeros_like(r)
        v = np.zeros_like(r)
        rho = alpha = omega = 1.0
        while steps < cap:
            rho_prev, rho = rho, float(r0 @ r)
            if rho == 0.0:
                break
            p = r + (rho / rho_prev) * (alpha / omega) * (p - omega * v)
            ph = p / diag
            v = apply(ph)
            r0v = float(r0 @ v)
            if r0v == 0.0:
                break
            alpha = rho / r0v
            x += alpha * ph
            r = r - alpha * v
            steps += 1
            # "not >" also stops on NaN, which the true residual reports
            if not float(np.max(np.abs(r))) > tol:
                break
            rh = r / diag
            t = apply(rh)
            tt = float(t @ t)
            if tt == 0.0:
                break
            omega = float(t @ r) / tt
            x += omega * rh
            r = r - omega * t
            if omega == 0.0 or not float(np.max(np.abs(r))) > tol:
                break
        if steps == start:
            raise KrylovError("BiCGSTAB broke down at a restart")
        out[nodes] = x
        r = rhs - policy.value(out)
