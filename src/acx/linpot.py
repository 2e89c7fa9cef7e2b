"""Reduced linear operators L = a . D^2 + b . D on lattice fields.

Desk-scale embodiment of the equivalences between the viscosity, classical
(sub-the-harmonics) and distributional notions of L-subharmonicity.  The
Poisson/Green kernel apparatus is deliberately replaced by discrete
harmonic replacement: Lh = 0 is solved monotonically on lattice balls with
the candidate's boundary values, which preserves the testable content (the
sub-mean property and the maximum principle) without materializing kernels.
Measure-zero exceptional sets are modeled by explicit node masks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .discretize import Stencil, snap_policy
from .lattice import INTERIOR, LatticeDomain, ScalarField, fd_jets
from .psh import OperatorFamily, check_b_matrix, real_form
from .subeq import Subequation


class LinpotError(ValueError):
    pass


@dataclass
class LinearOperator:
    """Coefficient fields of L: ``a`` maps points (N, d) to SPD forms
    (N, d, d), ``b`` maps points to drift vectors (N, d) or is None."""

    dim: int
    a: Callable[[np.ndarray], np.ndarray]
    b: Callable[[np.ndarray], np.ndarray] | None = None
    provenance: str = "generic"

    def a_at(self, pts: np.ndarray) -> np.ndarray:
        out = np.asarray(self.a(pts), dtype=float)
        if out.ndim == 2:
            out = np.broadcast_to(out, (pts.shape[0],) + out.shape)
        w = np.linalg.eigvalsh(out)
        if np.any(w[:, 0] <= 0):
            raise LinpotError("coefficient a(x) must be positive definite")
        return out

    def b_at(self, pts: np.ndarray) -> np.ndarray | None:
        if self.b is None:
            return None
        out = np.asarray(self.b(pts), dtype=float)
        if out.ndim == 1:
            out = np.broadcast_to(out, (pts.shape[0],) + out.shape)
        return out

    def to_dict(self) -> dict:
        return {"dim": self.dim, "provenance": self.provenance}


def laplacian(dim: int) -> LinearOperator:
    return LinearOperator(dim, lambda pts: np.eye(dim), None, "laplacian")


def diagonal_operator(diag) -> LinearOperator:
    diag = np.asarray(diag, dtype=float)
    if np.any(diag <= 0):
        raise LinpotError("diagonal coefficients must be positive")
    return LinearOperator(diag.size, lambda pts: np.diag(diag), None,
                          "diagonal")


def operator_from_structure(sub: Subequation, b) -> LinearOperator:
    """The linear operator attached to a positive unit-determinant hermitian
    form through the structure: a(x) = g B_r g^T, drift the adjoint pairing
    of the first-order term.  Both come from the operator family's
    coefficient function, as in the psh module's family test."""
    br = real_form(check_b_matrix(b))
    acx = sub.acx

    def a(pts):
        g = None if acx.constant_identity else acx.g(pts)
        s, _ = OperatorFamily.coefficients(g, None, br)
        return np.broadcast_to(s, (pts.shape[0],) + br.shape)

    drift = None
    if not acx.constant_identity:
        def drift(pts):
            return OperatorFamily.coefficients(acx.g(pts), acx.e_tensor(pts), br)[1]

    return LinearOperator(sub.d, a, drift, "derived-from-structure")


# ---------------------------------------------------------------------------
# Viscosity route
# ---------------------------------------------------------------------------

@dataclass
class LinearVerdict:
    subharmonic: bool
    margin: float
    worst_node: np.ndarray
    detail: str = ""

    def to_dict(self) -> dict:
        return {"subharmonic": self.subharmonic, "margin": self.margin,
                "worst_node": [float(c) for c in self.worst_node],
                "detail": self.detail}


def viscosity_values(u: ScalarField, op: LinearOperator) -> np.ndarray:
    """<a, D^2u> + <b, Du> from centered jets at interior nodes."""
    dom = u.domain
    p, a_jets = fd_jets(u)
    pts = dom.node_coords[dom.interior_ids]
    avals = op.a_at(pts)
    out = np.einsum("nij,nij->n", avals, a_jets)
    bvals = op.b_at(pts)
    if bvals is not None:
        out = out + np.einsum("ni,ni->n", bvals, p)
    return out


def viscosity_subharmonic(u: ScalarField, op: LinearOperator,
                          tol: float = 1e-9) -> LinearVerdict:
    vals = viscosity_values(u, op)
    worst = int(np.argmin(vals))
    return LinearVerdict(bool(vals[worst] >= -tol), float(vals[worst]),
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
    if steps < 2:
        raise LinpotError("ball radius must cover at least two grid steps")
    return LatticeDomain.ball(center, steps * domain.h, 2 * steps + 1,
                              stencil_radius=domain.stencil_radius)


def subfield_on(u: ScalarField, sub_domain: LatticeDomain) -> ScalarField:
    vals = np.empty(sub_domain.n_nodes)
    mask = None if u.mask is None else np.zeros(sub_domain.n_nodes, dtype=bool)
    for i in range(sub_domain.n_nodes):
        j = u.domain.node_at(sub_domain.node_coords[i])
        vals[i] = u.values[j]
        if mask is not None:
            mask[i] = u.mask[j]
    return ScalarField(sub_domain, vals, mask)


def harmonic_replacement(u: ScalarField, op: LinearOperator,
                         center, radius: float,
                         tol_res: float = 1e-10,
                         max_iterations: int = 400000) -> ScalarField:
    """Discrete Dirichlet solve Lh = 0 on a lattice ball with h = u on the
    ball's boundary nodes, via the monotone scheme and damped Jacobi.  The
    discrete maximum principle holds for the output.  Non-convergence is an
    error (replacement results are never interpreted heuristically)."""
    ball = lattice_ball(u.domain, center, radius)
    start = subfield_on(u, ball)
    st = Stencil(ball)
    pts = ball.node_coords[st.nodes]
    avals = op.a_at(pts)
    bvals = op.b_at(pts)
    pol = snap_policy(st, avals, bvals)
    values = start.values.copy()
    scale = max(1.0, float(np.max(np.abs(values))))
    target = tol_res * scale
    converged = False
    for _ in range(max_iterations):
        resid = pol.value(values)
        if float(np.max(np.abs(resid))) <= target:
            converged = True
            break
        tau = 0.9 / float(np.max(pol.ucoeff))
        values[st.nodes] += tau * resid
    if not converged:
        raise LinpotError("harmonic replacement did not converge")
    return ScalarField(ball, values)


@dataclass
class ClassicalVerdict:
    subharmonic: bool
    max_violation: float
    witness_ball: int | None

    def to_dict(self) -> dict:
        return {"subharmonic": self.subharmonic,
                "max_violation": self.max_violation,
                "witness_ball": self.witness_ball}


def classical_subharmonic(u: ScalarField, op: LinearOperator,
                          balls: list[tuple[np.ndarray, float]],
                          tol_cmp: float | None = None) -> ClassicalVerdict:
    """Sub-the-harmonics test: u must not exceed its harmonic replacement
    on any battery ball."""
    if not balls:
        raise LinpotError("ball battery must be non-empty")
    if tol_cmp is None:
        # scheme-difference noise on the pass side is O(h^2) of the ball
        # area, far below the violation signal (margin times ball radius^2)
        tol_cmp = 0.5 * u.domain.h ** 2 * max(1.0, float(np.max(np.abs(u.values))))
    worst = -np.inf
    witness = None
    for k, (center, radius) in enumerate(balls):
        h = harmonic_replacement(u, op, center, radius)
        uv = subfield_on(u, h.domain)
        gap = float(np.max(uv.values - h.values))
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


def distributional_pairing(u: ScalarField, op: LinearOperator,
                           bump: ScalarField) -> float:
    """Quadrature pairing sum_x u . (L^t bump) h^d with the transpose
    operator assembled by centered differences:
    L^t phi = sum_ij D_ij(a_ij phi) - sum_i D_i(b_i phi).

    The bump must be supported with at least a one-node margin inside the
    interior so every centered difference stays on region nodes.
    """
    dom = u.domain
    same = bump.domain is dom or (
        bump.domain.shape == dom.shape
        and abs(bump.domain.h - dom.h) < 1e-12
        and np.max(np.abs(bump.domain.origin - dom.origin)) < 1e-12)
    if not same:
        raise LinpotError("bump must live on the field's domain")
    supp = np.flatnonzero(bump.values > 0)
    if np.any(dom.node_class[supp] != INTERIOR):
        raise LinpotError("bump support touches the boundary layer")
    for off in np.ndindex(*(3,) * dom.dim):
        o = np.array(off) - 1
        if not o.any():
            continue
        nb = dom.neighbor_ids(supp, o)
        if np.any(nb < 0) or np.any(dom.node_class[nb] == 0):
            raise LinpotError("bump support violates the stencil margin")

    pts = dom.node_coords
    avals = op.a_at(pts)
    bvals = op.b_at(pts)
    phi = bump.values
    lt = np.zeros(dom.n_nodes)
    h = dom.h
    interior = dom.interior_ids
    eye = np.eye(dom.dim, dtype=np.int64)
    for i in range(dom.dim):
        pi = avals[:, i, i] * phi
        ip = dom.neighbor_ids(interior, eye[i])
        im = dom.neighbor_ids(interior, -eye[i])
        lt[interior] += (pi[ip] + pi[im] - 2 * pi[interior]) / h ** 2
        for j in range(i + 1, dom.dim):
            pij = avals[:, i, j] * phi
            pp = dom.neighbor_ids(interior, eye[i] + eye[j])
            pm = dom.neighbor_ids(interior, eye[i] - eye[j])
            mp = dom.neighbor_ids(interior, -eye[i] + eye[j])
            mm = dom.neighbor_ids(interior, -(eye[i] + eye[j]))
            lt[interior] += 2 * (pij[pp] - pij[pm] - pij[mp] + pij[mm]) / (4 * h ** 2)
        if bvals is not None:
            qi = bvals[:, i] * phi
            lt[interior] -= (qi[ip] - qi[im]) / (2 * h)
    u._require_unmasked(interior)
    return float(np.sum(u.values[interior] * lt[interior]) * h ** dom.dim)


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
