"""Reduced 2-jets and fibre-wise membership in the psh subequations.

Membership of a jet (p, A) at x is decided on the n x n complex hessian
A_C.  It is read off the pulled-back jet M = g^T (A + E(p)) g (M = A on
the flat preset) block by block over the coordinate pairs (x_j, y_j):

    A_C = ((M_xx + M_yy) + i (M_xy - M_yx)) / 4,   M_xy[j, k] = M[x_j, y_k],

hermitianized.  Its real form is the transformed hermitian object

    H' = realify(A_C) = M + J0^T M J0,

equivalently the pullback of the J(x)-hermitian part of A + E(p) (the two
orders agree exactly by the pullback commutation identity); the
eigenvalues of H' are those of A_C times 4, each counted twice instead of
once.  Both slacks are computed on A_C.  The eigenvalue margin is reported
for the averaged part H'/2, whose smallest eigenvalue is 2 lambda_min(A_C);
the determinant margin of the inhomogeneous equation is measured on
det A_C after the n-th-root rescaling det^(1/n) so both slacks carry the
same units.  With the package's pinned normalizations, the flat-structure
equation reads det_C(u_zz̄) >= f verbatim and the margin of the jet
(0, 2I) is exactly 2.

Identically -infinity functions have no jets and are not representable
here; callers treat that case separately.  All operations are pure
functions over immutable inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .algebra import (
    COMPLEXIFY_SCALE,
    AlmostComplexField,
    StructureFrame,
    check_symmetric,
    hermitian_min_eig,
    realify,
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
        if not (np.all(np.isfinite(self.p)) and np.all(np.isfinite(self.a))):
            raise SubequationError("jet entries must be finite")
        check_symmetric(self.a, 1e-8)
        if self.a.shape[0] != self.p.shape[0]:
            raise SubequationError("jet components have mismatched dimension")


def jet_from_flat(flat, d: int) -> ReducedJet:
    """Jet of a flat record: p then the upper triangle of A, row-major."""
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

    @property
    def homogeneous(self) -> bool:
        return self.rhs is None

    def f_at(self, points) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if self.rhs is None:
            return np.zeros(pts.shape[0])
        out = np.asarray(self.rhs(pts), dtype=float)
        out = np.broadcast_to(out, (pts.shape[0],)).copy()
        if not np.all(np.isfinite(out)):
            raise SubequationError("right-hand side f must be finite")
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
    if not (np.all(np.isfinite(radii)) and np.all(np.isfinite(values))):
        raise SubequationError("radial table entries must be finite")
    if np.any(values < 0):
        raise SubequationError("radial table values must be >= 0")
    if np.any(np.diff(radii) <= 0):
        raise SubequationError("radial table radii must strictly increase")

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
    """Batched H' = realify(A_C) for jets (ps, as_) at the frame's points;
    shape (N, 2n, 2n)."""
    return realify(hermitian_forms(frame, ps, as_))


def hermitian_forms(frame: StructureFrame, ps, as_) -> np.ndarray:
    """Batched A_C of the pulled-back jets M of (ps, as_) at the frame's
    points; shape (N, n, n)."""
    m = np.asarray(as_, dtype=float)
    if not frame.flat:
        e = frame.e(np.atleast_2d(ps))
        m = np.matmul(np.matmul(frame.g.transpose(0, 2, 1), m + e), frame.g)
    mx, my = m[:, 0::2], m[:, 1::2]
    out = COMPLEXIFY_SCALE * ((mx[..., 0::2] + my[..., 1::2])
                              + 1j * (mx[..., 1::2] - my[..., 0::2]))
    return 0.5 * (out + np.conj(np.transpose(out, (0, 2, 1))))


def margins_for_forms(sub: Subequation, frame: StructureFrame, ac):
    """Eigenvalue and determinant slacks of the complex hessians ``ac``
    (from :func:`hermitian_forms`) at the frame's points.

    Returns (margin, eig_margin, det_margin); det entries are +inf where the
    equation is homogeneous or f vanishes.
    """
    eig = 2.0 * hermitian_min_eig(ac)
    det_margin = np.full(frame.pts.shape[0], np.inf)
    if not sub.homogeneous:
        f = sub.f_at(frame.pts)
        beta = sub.beta_of(frame)
        active = f > 0
        if np.any(active):
            n = sub.n
            detc = np.linalg.det(ac[active]).real
            det_margin[active] = (_signed_root(detc, n)
                                  - (beta[active] * f[active]) ** (1.0 / n))
    margin = np.minimum(eig, det_margin)
    return margin, eig, det_margin


def margins_for_jets(sub: Subequation, frame: StructureFrame, ps, as_):
    """:func:`margins_for_forms` of the jets (ps, as_) at the frame's
    points."""
    return margins_for_forms(sub, frame, hermitian_forms(frame, ps, as_))


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
    ac = hermitian_forms(frame, jet.p[None], jet.a[None])
    # lambda_min(H') = 4 lambda_min(A_C)
    if 4.0 * float(hermitian_min_eig(ac)[0]) < c * nu:
        return False
    if not sub.homogeneous:
        f = float(sub.f_at(frame.pts)[0])
        beta = float(sub.beta_of(frame)[0])
        detc = float(np.linalg.det(ac[0]).real)
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
