"""Reduced 2-jets and fibre-wise membership in the psh subequations.

Membership of a jet (p, A) at x is decided on the transformed hermitian
object

    H' = ((g^T (A + E(p)) g) + J0^T (g^T (A + E(p)) g) J0,

equivalently the pullback of the J(x)-hermitian part (the two orders agree
exactly by the pullback commutation identity).  The eigenvalue margin is
reported for the averaged part H'/2; the determinant margin of the
inhomogeneous equation is measured after the n-th-root rescaling
det^(1/n) so both slacks carry the same units.  With the package's pinned
normalizations, the flat-structure equation reads det_C(u_zz̄) >= f
verbatim and the margin of the jet (0, 2I) is exactly 2.

Identically -infinity functions have no jets and are not representable
here; callers treat that case separately.  All operations are pure
functions over immutable inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .algebra import (
    AlmostComplexField,
    StructureFrame,
    check_symmetric,
    complexify,
    complexify_batch,
    standard_j,
)


class SubequationError(ValueError):
    pass


@dataclass(frozen=True)
class ReducedJet:
    """First and second derivative coordinates (Du, D^2u) at a point."""

    p: np.ndarray
    a: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "p", np.asarray(self.p, dtype=float))
        object.__setattr__(self, "a", np.asarray(self.a, dtype=float))
        if self.p.ndim != 1:
            raise SubequationError("jet covector must be a vector")
        check_symmetric(self.a, 1e-8)
        if self.a.shape[0] != self.p.shape[0]:
            raise SubequationError("jet components have mismatched dimension")

    def __neg__(self) -> "ReducedJet":
        return ReducedJet(-self.p, -self.a)

    def scale(self, t: float) -> "ReducedJet":
        return ReducedJet(t * self.p, t * self.a)

    def add(self, other: "ReducedJet") -> "ReducedJet":
        return ReducedJet(self.p + other.p, self.a + other.a)


def jet_to_flat(jet: ReducedJet) -> np.ndarray:
    """Flat record: p then the upper triangle of A, row-major."""
    d = jet.p.shape[0]
    iu = np.triu_indices(d)
    return np.concatenate([jet.p, jet.a[iu]])


def jet_from_flat(flat, d: int) -> ReducedJet:
    flat = np.asarray(flat, dtype=float)
    n_up = d * (d + 1) // 2
    if flat.shape != (d + n_up,):
        raise SubequationError(f"flat jet record must have length {d + n_up}")
    p = flat[:d]
    a = np.zeros((d, d))
    iu = np.triu_indices(d)
    a[iu] = flat[d:]
    a = a + np.triu(a, 1).T
    return ReducedJet(p, a)


@dataclass
class Subequation:
    """Psh subequation data: the structure, an optional right-hand side
    f >= 0 (absent means the homogeneous cone), and the volume density
    beta(x) = det g(x) of the globally fixed reference volume."""

    acx: AlmostComplexField
    rhs: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        self.n = self.acx.n
        self.d = self.acx.d
        self.j0 = standard_j(self.n)

    @property
    def homogeneous(self) -> bool:
        return self.rhs is None

    def f_at(self, points) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if self.rhs is None:
            return np.zeros(pts.shape[0])
        out = np.asarray(self.rhs(pts), dtype=float)
        out = np.broadcast_to(out, (pts.shape[0],)).copy()
        if np.any(out < 0):
            raise SubequationError("right-hand side f must be >= 0")
        return out

    def beta_of(self, frame: StructureFrame) -> np.ndarray:
        """beta = det g at the frame's points."""
        beta = frame.beta
        if np.any(beta <= 0):
            raise SubequationError("volume density beta must be positive")
        return beta


def constant_rhs(c: float) -> Callable[[np.ndarray], np.ndarray]:
    if c < 0:
        raise SubequationError("constant right-hand side must be >= 0")
    return lambda pts: np.full(np.atleast_2d(pts).shape[0], float(c))


def radial_rhs(radii, values, center=None) -> Callable[[np.ndarray], np.ndarray]:
    radii = np.asarray(radii, dtype=float)
    values = np.asarray(values, dtype=float)
    if np.any(values < 0):
        raise SubequationError("radial table values must be >= 0")

    def f(pts):
        pts = np.atleast_2d(pts)
        c = np.zeros(pts.shape[1]) if center is None else np.asarray(center)
        r = np.linalg.norm(pts - c, axis=1)
        return np.interp(r, radii, values)

    return f


# ---------------------------------------------------------------------------
# Membership margins
# ---------------------------------------------------------------------------

def _signed_root(x: np.ndarray, n: int) -> np.ndarray:
    return np.sign(x) * np.abs(x) ** (1.0 / n)


def transformed_hermitian(frame: StructureFrame, ps, as_) -> np.ndarray:
    """Batched H' for jets (ps, as_) at the frame's points; shape (N, 2n, 2n)."""
    as_ = np.asarray(as_, dtype=float)
    if as_.ndim == 2:
        as_ = as_[None]
    if frame.flat:
        m = as_
    else:
        e = frame.e(np.atleast_2d(ps))
        m = np.matmul(np.matmul(frame.g.transpose(0, 2, 1), as_ + e), frame.g)
    j0 = frame.acx.j0
    return m + np.matmul(np.matmul(j0.T, m), j0)


def margins_for_jets(sub: Subequation, frame: StructureFrame, ps, as_):
    """Eigenvalue and determinant slacks for a batch of jets at the frame's
    points.

    Returns (margin, eig_margin, det_margin); det entries are +inf where the
    equation is homogeneous or f vanishes.
    """
    hp = transformed_hermitian(frame, ps, as_)
    eig = 0.5 * np.linalg.eigvalsh(hp)[:, 0]
    det_margin = np.full(frame.pts.shape[0], np.inf)
    if not sub.homogeneous:
        f = sub.f_at(frame.pts)
        beta = sub.beta_of(frame)
        active = f > 0
        if np.any(active):
            n = sub.n
            ac = complexify_batch(hp[active])
            detc = np.linalg.det(ac).real
            det_margin[active] = (_signed_root(detc, n)
                                  - (beta[active] * f[active]) ** (1.0 / n))
    margin = np.minimum(eig, det_margin)
    return margin, eig, det_margin


@dataclass(frozen=True)
class Membership:
    inside: bool
    margin: float
    eig_margin: float
    det_margin: float


def contains(sub: Subequation, x, jet: ReducedJet, tol: float = 1e-9) -> Membership:
    """Fibre membership with margin; the margin is the binding slack
    (eigenvalue slack, and determinant slack where f > 0)."""
    margin, eig, det = margins_for_jets(sub, sub.acx.at(x), jet.p[None],
                                        jet.a[None])
    return Membership(bool(margin[0] >= -tol), float(margin[0]),
                      float(eig[0]), float(det[0]))


def _strict_interior(sub: Subequation, x, jet: ReducedJet, tol: float) -> bool:
    margin, _, _ = margins_for_jets(sub, sub.acx.at(x), jet.p[None],
                                    jet.a[None])
    return bool(margin[0] > tol)


def dual_contains(sub: Subequation, x, jet: ReducedJet, tol: float = 1e-9) -> Membership:
    """Dirichlet dual membership, implemented from the definition as the
    complement of the negated strict interior: jet is dual-admissible iff
    -jet fails strict interior membership."""
    margin, eig, det = margins_for_jets(sub, sub.acx.at(x), (-jet.p)[None],
                                        (-jet.a)[None])
    dual_margin = -float(margin[0])
    return Membership(dual_margin >= -tol, dual_margin, -float(eig[0]),
                      -float(det[0]) if np.isfinite(det[0]) else -np.inf)


def strict_contains(sub: Subequation, x, jet: ReducedJet, c: float) -> bool:
    """Sufficient test for uniform-c strictness: the eigenvalue slack must
    clear c times the jet-transform amplification nu(x) = 2 sigma_max(g)^2,
    and where f > 0 the raw determinant must clear beta f + (c/sqrt(n))^n.
    Conservative by construction (the amplification is an upper bound)."""
    if c <= 0:
        raise SubequationError("strictness level c must be positive")
    frame = sub.acx.at(x)
    nu = 2.0 * np.linalg.norm(frame.g[0], 2) ** 2
    hp = transformed_hermitian(frame, jet.p[None], jet.a[None])[0]
    lam_min = float(np.linalg.eigvalsh(hp)[0])
    if lam_min < c * nu:
        return False
    if not sub.homogeneous:
        f = float(sub.f_at(frame.pts)[0])
        beta = float(sub.beta_of(frame)[0])
        detc = float(np.linalg.det(complexify(hp)).real)
        if detc < beta * f + (c / np.sqrt(sub.n)) ** sub.n:
            return False
    return True


def positivity_closed(sub: Subequation, x, jet: ReducedJet, pos,
                      tol: float = 1e-9) -> bool:
    """Truth of the positivity implication: jet in F => jet + (0, P) in F."""
    pos = np.asarray(pos, dtype=float)
    check_symmetric(pos, 1e-8)
    if np.linalg.eigvalsh(pos)[0] < -1e-10:
        raise SubequationError("positivity check requires P >= 0")
    if not contains(sub, x, jet, tol).inside:
        return True
    shifted = ReducedJet(jet.p, jet.a + pos)
    return contains(sub, x, shifted, tol).inside
