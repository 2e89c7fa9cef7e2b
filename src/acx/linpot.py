"""Reduced linear operators L = a . D^2 + b . D on lattice fields.

Desk-scale embodiment of the equivalences between the viscosity, classical
(sub-the-harmonics) and distributional notions of L-subharmonicity.  The
Poisson/Green kernel apparatus is deliberately replaced by discrete
harmonic replacement: Lh = 0 is solved monotonically on lattice balls with
the candidate's boundary values, which preserves the testable content (the
sub-mean property and the maximum principle).  On a ball that solve is one
linear map of the boundary values, built by a dense solve once per
:class:`BallReplacement`.  Measure-zero exceptional sets are modeled by
explicit node masks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .discretize import Stencil, snap_policy
from .lattice import INTERIOR, JetTable, LatticeDomain, ScalarField
from .psh import OperatorFamily, check_b_matrix, real_form
from .subeq import Subequation


# bytes allowed for a ball's dense replacement system: at its peak, three
# (interior nodes, ball nodes) float64 arrays
_DENSE_BYTES = 64 << 20


class LinpotError(ValueError):
    pass


@dataclass
class LinearOperator:
    """Coefficient fields of L: ``coefficients`` maps points (N, d) to
    (a, b), the SPD forms a as (N, d, d) or one shared (d, d) and the drift
    b as (N, d), one shared (d,) or None."""

    dim: int
    coefficients: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray | None]]
    provenance: str = "generic"

    def at(self, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        """(a, b) broadcast to the points, both checked finite and a
        positive definite."""
        a, b = self.coefficients(pts)
        n = pts.shape[0]
        a = np.broadcast_to(np.asarray(a, dtype=float), (n, self.dim, self.dim))
        if not np.all(np.isfinite(a)):
            raise LinpotError("coefficient a(x) must be finite")
        if np.any(np.linalg.eigvalsh(a)[:, 0] <= 0):
            raise LinpotError("coefficient a(x) must be positive definite")
        if b is not None:
            b = np.broadcast_to(np.asarray(b, dtype=float), (n, self.dim))
            if not np.all(np.isfinite(b)):
                raise LinpotError("drift b(x) must be finite")
        return a, b


def laplacian(dim: int) -> LinearOperator:
    return LinearOperator(dim, lambda pts: (np.eye(dim), None), "laplacian")


def diagonal_operator(diag) -> LinearOperator:
    diag = np.asarray(diag, dtype=float)
    if np.any(diag <= 0):
        raise LinpotError("diagonal coefficients must be positive")
    return LinearOperator(diag.size, lambda pts: (np.diag(diag), None),
                          "diagonal")


def operator_from_structure(sub: Subequation, b) -> LinearOperator:
    """The linear operator attached to a positive unit-determinant hermitian
    form through the structure: a(x) = g B_r g^T, drift the adjoint pairing
    of the first-order term.  Both come from one evaluation of the
    structure, through the operator family's coefficient function, as in
    the psh module's family test."""
    br = real_form(check_b_matrix(b))
    acx = sub.acx
    return LinearOperator(
        sub.d, lambda pts: OperatorFamily.coefficients(acx.at(pts), br),
        "derived-from-structure")


# ---------------------------------------------------------------------------
# Viscosity route
# ---------------------------------------------------------------------------

class ViscosityScheme:
    """L on a domain's interior nodes, built once for every field there:
    the coefficients (a, b) at the nodes and the jet table that
    differences a field at them."""

    def __init__(self, op: LinearOperator, domain: LatticeDomain):
        self.table = JetTable(domain, domain.interior_ids)
        self.a, self.b = op.at(domain.node_coords[domain.interior_ids])


@dataclass
class LinearVerdict:
    subharmonic: bool
    margin: float
    worst_node: np.ndarray


def viscosity_values(u: ScalarField, scheme: ViscosityScheme) -> np.ndarray:
    """<a, D^2u> + <b, Du> from centered jets at interior nodes."""
    table = scheme.table
    table.check(u)
    p, a_jets = table.jets(u.values)
    out = np.einsum("nij,nij->n", scheme.a, a_jets)
    if scheme.b is not None:
        out = out + np.einsum("ni,ni->n", scheme.b, p)
    return out


def viscosity_subharmonic(u: ScalarField,
                          scheme: ViscosityScheme) -> LinearVerdict:
    """Subharmonic iff L u >= -1e-9 at every interior node."""
    vals = viscosity_values(u, scheme)
    worst = int(np.argmin(vals))
    return LinearVerdict(bool(vals[worst] >= -1e-9), float(vals[worst]),
                         u.domain.node_coords[u.domain.interior_ids[worst]])


# ---------------------------------------------------------------------------
# Classical route: discrete harmonic replacement
# ---------------------------------------------------------------------------

def lattice_ball(domain: LatticeDomain, center, radius: float) -> LatticeDomain:
    """Sub-lattice ball aligned with the parent grid (center must be a node,
    radius a multiple of h)."""
    center = np.asarray(center, dtype=float)
    domain.node_at(center)  # validates alignment
    steps = int(round(radius / domain.h))
    if abs(radius - steps * domain.h) > 1e-9 * domain.h:
        raise LinpotError(f"ball radius {radius} is not a whole number of "
                          f"grid steps h = {domain.h}")
    if steps < 2:
        raise LinpotError("ball radius must cover at least two grid steps")
    return LatticeDomain.ball(center, steps * domain.h, 2 * steps + 1,
                              stencil_radius=domain.stencil_radius)


def subfield_on(u: ScalarField, sub_domain: LatticeDomain) -> ScalarField:
    return u.take(sub_domain, u.domain.nodes_at(sub_domain.node_coords))


class BallReplacement:
    """The field-independent part of the harmonic replacement of L on a
    lattice ball of ``domain``, built once for every field on ``domain``:
    the ball, the parent node of each of its nodes (``ids``) and the dense
    map from the ball's boundary values to its interior values
    (``extension``), solved from the monotone scheme of L on the ball.  A
    ball whose dense system would exceed _DENSE_BYTES is refused before
    anything dense is allocated."""

    def __init__(self, op: LinearOperator, domain: LatticeDomain,
                 center, radius: float):
        self.domain = domain
        self.ball = ball = lattice_ball(domain, center, radius)
        ni, n = ball.interior_ids.size, ball.n_nodes
        need = 24 * ni * n
        if need > _DENSE_BYTES:
            raise LinpotError(
                f"harmonic replacement on a ball of {ni} interior nodes needs "
                f"about {need / 2 ** 20:.0f} MiB of dense matrices, "
                f"over the {_DENSE_BYTES / 2 ** 20:.0f} MiB budget")
        self.ids = domain.nodes_at(ball.node_coords)
        st = Stencil(ball)
        a, b = op.at(ball.node_coords[st.nodes])
        pol = snap_policy(st, *np.linalg.eigh(a), drift=b)
        rows = np.arange(ni)
        amat = np.zeros((ni, n))
        np.add.at(amat, (rows[:, None], pol.plus), pol.wplus)
        np.add.at(amat, (rows[:, None], pol.minus), pol.wminus)
        amat[rows, st.nodes] -= pol.ucoeff
        self.extension = np.linalg.solve(amat[:, st.nodes],
                                         -amat[:, ball.boundary_ids])


def harmonic_replacement(u: ScalarField, rep: BallReplacement) -> ScalarField:
    """Discrete Dirichlet solve Lh = 0 on the replacement's ball with h = u
    on the ball's boundary nodes: the replacement's dense extension map
    applied to those values.  The discrete maximum principle holds for the
    output.  A field masked on any ball node is rejected."""
    u.require_on(rep.domain)
    u._require_unmasked(rep.ids)
    values = u.values[rep.ids]
    ball = rep.ball
    values[ball.interior_ids] = rep.extension @ values[ball.boundary_ids]
    return ScalarField(ball, values)


@dataclass
class ClassicalVerdict:
    subharmonic: bool
    max_violation: float
    witness_ball: int | None


def classical_subharmonic(u: ScalarField,
                          battery: list[BallReplacement]) -> ClassicalVerdict:
    """Sub-the-harmonics test: u must not exceed its harmonic replacement
    on any ball of the battery (one :class:`BallReplacement` per ball of
    one operator) by more than 0.5 h^2 max(1, max |u|), the max over the
    unmasked nodes."""
    if not battery:
        raise LinpotError("ball battery must be non-empty")
    # scheme-difference noise on the pass side is O(h^2) of the ball area,
    # far below the violation signal (margin times ball radius^2)
    live = u.values if u.mask is None else u.values[~u.mask]
    tol_cmp = 0.5 * u.domain.h ** 2 * float(np.max(np.abs(live), initial=1.0))
    worst = -np.inf
    witness = None
    for k, rep in enumerate(battery):
        h = harmonic_replacement(u, rep)
        gap = float(np.max(u.values[rep.ids] - h.values))
        if gap > worst:
            worst, witness = gap, k
    ok = worst <= tol_cmp
    return ClassicalVerdict(bool(ok), worst, None if ok else witness)


def default_ball_battery(domain: LatticeDomain, count: int = 3,
                         seed: int = 77) -> list[tuple[np.ndarray, float]]:
    """Concentric-ish battery: balls of a few radii around interior nodes
    with enough clearance, chosen reproducibly."""
    from .rng import CounterRng

    rng = CounterRng(seed)
    h = domain.h
    out = []
    interior_coords = domain.node_coords[domain.interior_ids]
    if domain.kind == "ball":
        c0, rr = domain.center, domain.radius
    else:
        lo = domain.origin
        hi = domain.origin + h * (np.array(domain.shape) - 1)
        c0, rr = 0.5 * (lo + hi), 0.5 * float(np.min(hi - lo))
    for _ in range(count):
        steps = 3 + int(rng.uniform(0, 2.999))
        radius = steps * h
        for _ in range(64):
            i = int(rng.uniform(0, interior_coords.shape[0] - 1e-9))
            c = interior_coords[i]
            if np.linalg.norm(c - c0) + radius < rr - 1.5 * h:
                out.append((c, radius))
                break
    if not out:
        raise LinpotError("could not place battery balls inside the domain")
    return out


# ---------------------------------------------------------------------------
# Distributional route
# ---------------------------------------------------------------------------

def bump_field(domain: LatticeDomain, center, radius: float) -> ScalarField:
    """Clipped polynomial spline (1 - r^2/R^2)^3, the battery test bump."""
    r2 = ((domain.node_coords - np.asarray(center)) ** 2).sum(axis=1)
    vals = np.clip(1.0 - r2 / radius ** 2, 0.0, None) ** 3
    return ScalarField(domain, vals)


def bump_mass(dim: int, radius: float) -> float:
    """Analytic integral of the bump over R^d."""
    return 6.0 * math.pi ** (dim / 2) * radius ** dim / math.gamma(dim / 2 + 4)


class TransposedBump:
    """L^t phi of a test bump phi at the interior nodes of its domain, with
    the transpose operator assembled from the centered jets of the products
    (the jet table of the viscosity route):
    L^t phi = sum_ij D_ij(a_ij phi) - sum_i D_i(b_i phi).

    The bump must be supported on interior nodes; they own their unit box,
    so every centered difference stays on region nodes.
    """

    def __init__(self, op: LinearOperator, bump: ScalarField):
        dom = bump.domain
        supp = np.flatnonzero(bump.values > 0)
        if np.any(dom.node_class[supp] != INTERIOR):
            raise LinpotError("bump support touches the boundary layer")
        avals, bvals = op.at(dom.node_coords)
        phi = bump.values
        table = JetTable(dom, dom.interior_ids)
        lt = np.zeros(table.nodes.size)
        for i in range(dom.dim):
            lt += table.jets(avals[:, i, i] * phi)[1][:, i, i]
            for j in range(i + 1, dom.dim):
                lt += 2 * table.jets(avals[:, i, j] * phi)[1][:, i, j]
            if bvals is not None:
                lt -= table.jets(bvals[:, i] * phi)[0][:, i]
        self.domain = dom
        self.values = lt


def distributional_pairing(u: ScalarField, lt: TransposedBump) -> float:
    """Quadrature pairing sum_x u . (L^t bump) h^d over interior nodes."""
    u.require_on(lt.domain)
    dom = u.domain
    interior = dom.interior_ids
    u._require_unmasked(interior)
    return float(np.sum(u.values[interior] * lt.values) * dom.h ** dom.dim)


# ---------------------------------------------------------------------------
# Essential upper semi-continuous regularization
# ---------------------------------------------------------------------------

def ess_usc_regularize(u: ScalarField) -> ScalarField:
    """Canonical usc representative on the lattice: unmasked nodes keep
    their value; a masked node takes the max of unmasked values over the
    smallest punctured ball containing one.  Masked spikes are invisible;
    the operation is idempotent and monotone in the unmasked values."""
    if u.mask is None or not np.any(u.mask):
        return ScalarField(u.domain, u.values.copy())
    dom = u.domain
    unmasked = np.flatnonzero(~u.mask)
    if unmasked.size == 0:
        raise LinpotError("every node is masked; no representative exists")
    out = u.values.copy()
    coords_un = dom.node_coords[unmasked]
    for i in np.flatnonzero(u.mask):
        dist = np.linalg.norm(coords_un - dom.node_coords[i], axis=1)
        dmin = float(np.min(dist))
        near = unmasked[dist <= dmin + 1e-12 * max(1.0, dmin)]
        out[i] = float(np.max(u.values[near]))
    return ScalarField(dom, out)
