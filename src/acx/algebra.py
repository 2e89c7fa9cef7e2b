"""Pointwise linear algebra of almost complex structures on R^{2n}.

Coordinates are interleaved as (x_1, y_1, ..., x_n, y_n); the background
structure J0 rotates each (x_j, y_j) pair, i.e. multiplication by i on the
j-th complex coordinate.  A variable structure is described by an invertible
generator field g(x) with det g > 0 through J(x) = g(x) J0 g(x)^{-1}.

Normalization conventions pinned by oracle (see tests):

* ``hermitian_part`` carries no 1/2 factor: B^J = B + J^T B J.
* ``complexify`` is scaled so that the real hessian of |z|^2 under J0 maps
  to the identity hermitian matrix; concretely the scale is 1/4 and the
  real-determinant relation is det_R(B) = 16^n (det_C B_C)^2.
* Membership margins elsewhere in the package use the *averaged* hermitian
  part (1/2) B^J, whose smallest eigenvalue equals twice the smallest
  eigenvalue of the complexified form.

Every value here is immutable after construction and every operation is a
pure function, so unrestricted concurrent use is safe.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

TOL_ALG = 1e-9

# the 1/4 of A_C; shared with psh.real_form, it pins L_B u = tr_C(A_C B)
COMPLEXIFY_SCALE = 0.25


class AlgebraError(ValueError):
    pass


def standard_j(n: int) -> np.ndarray:
    """Block-diagonal rotation by +90 degrees on each coordinate pair."""
    j = np.zeros((2 * n, 2 * n))
    for k in range(n):
        j[2 * k, 2 * k + 1] = -1.0
        j[2 * k + 1, 2 * k] = 1.0
    return j


def _as_points(x, d: int) -> tuple[np.ndarray, bool]:
    pts = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(pts)):
        raise AlgebraError("points must be finite")
    if pts.ndim == 1:
        if pts.shape[0] != d:
            raise AlgebraError(f"point has dimension {pts.shape[0]}, expected {d}")
        return pts[None, :], True
    if pts.ndim != 2 or pts.shape[1] != d:
        raise AlgebraError(f"points must have shape (N, {d})")
    return pts, False


def check_symmetric(b: np.ndarray, tol: float = TOL_ALG) -> None:
    if b.ndim != 2 or b.shape[0] != b.shape[1]:
        raise AlgebraError("expected a square matrix")
    if np.max(np.abs(b - b.T)) > tol:
        raise AlgebraError("matrix is not symmetric within tolerance")


def check_complex_structure(j: np.ndarray, tol: float = TOL_ALG) -> None:
    d = j.shape[0]
    if np.max(np.abs(j @ j + np.eye(d))) > tol:
        raise AlgebraError("J^2 != -I within tolerance")


# ---------------------------------------------------------------------------
# complex <-> real matrix representations (interleaved coordinates)
# ---------------------------------------------------------------------------

def rep_complex(m: np.ndarray) -> np.ndarray:
    """Real 2n x 2n representation of the complex-linear map c -> M c, for
    one matrix (n, n) or a stack (..., n, n)."""
    m = np.asarray(m, dtype=complex)
    n = m.shape[-1]
    out = np.empty(m.shape[:-2] + (2 * n, 2 * n))
    out[..., 0::2, 0::2] = m.real
    out[..., 0::2, 1::2] = -m.imag
    out[..., 1::2, 0::2] = m.imag
    out[..., 1::2, 1::2] = m.real
    return out


def rep_antilinear(m: np.ndarray) -> np.ndarray:
    """Real representation of the complex-antilinear map c -> M conj(c):
    the complex-linear one with every y column negated."""
    out = rep_complex(m)
    out[..., 1::2] *= -1.0
    return out


def linear_antilinear_split(g: np.ndarray, j0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Decompose g = h + f1 into J0-commuting and J0-anticommuting parts."""
    h = 0.5 * (g - j0 @ g @ j0)
    f1 = 0.5 * (g + j0 @ g @ j0)
    return h, f1


def hermitian_part(b: np.ndarray, j: np.ndarray, tol: float = TOL_ALG) -> np.ndarray:
    """J-hermitian symmetrization B + J^T B J (no 1/2 factor) of a
    symmetric B, for a complex structure J."""
    b = np.asarray(b, dtype=float)
    check_symmetric(b, tol)
    check_complex_structure(j, tol)
    return b + j.T @ b @ j


def pullback(b: np.ndarray, g: np.ndarray) -> np.ndarray:
    """(g*B)(v, w) = B(gv, gw), i.e. g^T B g.  Rejects singular g."""
    b = np.asarray(b, dtype=float)
    g = np.asarray(g, dtype=float)
    if abs(np.linalg.det(g)) < 1e-300:
        raise AlgebraError("pullback by a singular transform")
    return g.T @ b @ g


def complexify(b: np.ndarray, tol: float = TOL_ALG) -> np.ndarray:
    """Hermitian n x n counterpart of a J0-hermitian real symmetric form.

    Only defined on J0-hermitian input; the entry formula is
    B_C[j, k] = (B[x_j, x_k] + i B[x_j, y_k]) / 4, hermitianized.
    """
    b = np.asarray(b, dtype=float)
    j0 = standard_j(b.shape[0] // 2)
    check_symmetric(b, tol)
    if np.max(np.abs(j0.T @ b @ j0 - b)) > max(tol, tol * np.max(np.abs(b))):
        raise AlgebraError("form is not J0-hermitian; complexification undefined")
    out = COMPLEXIFY_SCALE * (b[0::2, 0::2] + 1j * b[0::2, 1::2])
    return 0.5 * (out + np.conj(out.T))


def realify(m: np.ndarray) -> np.ndarray:
    """Inverse of :func:`complexify`: the J0-hermitian real form of M, for
    one matrix or a stack."""
    return rep_complex(np.asarray(m, dtype=complex).conj()) / COMPLEXIFY_SCALE


def _hermitian2_parts(a: np.ndarray):
    """(mid, half, rad) of an (N, 2, 2) hermitian stack: the mean
    (a00 + a11)/2 of the diagonal, half its difference (a00 - a11)/2 and
    the eigenvalue radius hypot(half, |a01|)."""
    a00, a11 = a[:, 0, 0].real, a[:, 1, 1].real
    half = 0.5 * (a00 - a11)
    return 0.5 * (a00 + a11), half, np.hypot(half, np.abs(a[:, 0, 1]))


def hermitian_eigvals2(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (lo, hi) of an (N, 2, 2) hermitian stack in closed form:
    mid -+ hypot((a00 - a11)/2, |a01|)."""
    mid, _, rad = _hermitian2_parts(a)
    return mid - rad, mid + rad


def hermitian_eigh2(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of an (N, 2, 2) hermitian stack in closed form, in
    ``np.linalg.eigh``'s layout: eigenvalues (N, 2) ascending, as
    :func:`hermitian_eigvals2` gives them, and unit eigenvectors as the
    columns of (N, 2, 2).

    With half = (a00 - a11)/2 and t = |half| + hypot(half, |a01|), the
    eigenvectors are (t, conj a01) for hi and (-a01, t) for lo where
    half > 0, and (t, -conj a01) for lo and (a01, t) for hi elsewhere, each
    divided by hypot(t, |a01|).  So the phase follows one rule: the entry
    of larger modulus is real and positive, and on a tie (a00 = a11) lo
    takes the first entry and hi the second, as ``eigh`` does for a
    diagonal matrix.  The divisor is at least t >= hypot(half, |a01|),
    half the eigenvalue gap; where A = cI (t = 0) the eigenvectors are the
    identity's columns."""
    mid, half, rad = _hermitian2_parts(a)
    a01 = a[:, 0, 1]
    t = np.abs(half) + rad
    t = np.where(t > 0.0, t, 1.0)
    norm = np.hypot(t, np.abs(a01))
    t, a01 = t / norm, a01 / norm
    vecs = np.empty(a.shape, dtype=complex)
    first = half > 0.0
    # columns (lo, hi): a lo eigenvector leans on axis 1 where half > 0
    vecs[:, 0, 0] = np.where(first, -a01, t)
    vecs[:, 1, 0] = np.where(first, t, -np.conj(a01))
    vecs[:, 0, 1] = np.where(first, t, a01)
    vecs[:, 1, 1] = np.where(first, np.conj(a01), t)
    return np.stack([mid - rad, mid + rad], axis=1), vecs


def hermitian_min_eig(a: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of each matrix of an (N, n, n) hermitian stack:
    the entry for n = 1, the closed form for n = 2, LAPACK for n >= 3."""
    n = a.shape[-1]
    if n == 1:
        return a[:, 0, 0].real
    if n == 2:
        return hermitian_eigvals2(a)[0]
    return np.linalg.eigvalsh(a)[:, 0]


def hermitian_eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of an (N, n, n) hermitian stack in ``np.linalg.eigh``'s
    layout: the entry for n = 1, :func:`hermitian_eigh2` for n = 2, LAPACK
    for n >= 3."""
    n = a.shape[-1]
    if n == 1:
        return a.real[:, 0], np.ones_like(a)
    if n == 2:
        return hermitian_eigh2(a)
    return np.linalg.eigh(a)


# ---------------------------------------------------------------------------
# Almost complex structure fields
# ---------------------------------------------------------------------------

@dataclass
class AlmostComplexField:
    """Coordinate description of J = g J0 g^{-1} with derivative access.

    ``evaluate`` maps a batch of points (N, 2n) to the generators g
    (N, 2n, 2n) and their exact coordinate derivatives dg (N, 2n, 2n, 2n),
    indexed [node, direction, row, col]; a constant g or dg may be a
    broadcast view.  ``constant_identity`` marks the flat preset so heavy
    callers can skip the E-term entirely.
    """

    n: int
    evaluate: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]
    name: str = "custom"
    constant_identity: bool = False

    def __post_init__(self):
        if self.n not in (1, 2, 3):
            raise AlgebraError("supported complex dimensions are n in {1, 2, 3}")
        self.d = 2 * self.n
        self.j0 = standard_j(self.n)

    # -- batched evaluation -------------------------------------------------

    def at(self, x) -> StructureFrame:
        """The one evaluation of the structure at a batch of points (a single
        point counts as a batch of one).  On the flat preset J = J0 and
        dJ = 0 stay implicit."""
        pts, _ = _as_points(x, self.d)
        g, dg = self.evaluate(pts)
        g, dg = np.asarray(g, dtype=float), np.asarray(dg, dtype=float)
        if self.constant_identity:
            return StructureFrame(self, pts, g, dg)
        ginv = np.linalg.inv(g)
        j = g @ self.j0 @ ginv
        # dJ = (dg J0 - J dg) g^{-1}
        dj = (dg @ self.j0 - j[:, None] @ dg) @ ginv[:, None]
        return StructureFrame(self, pts, g, dg, j, dj)

    def _read(self, x, name: str, flat_value: np.ndarray | None = None):
        """Attribute ``name`` of one frame at x; ``flat_value`` stands in
        for it on the flat preset."""
        pts, single = _as_points(x, self.d)
        frame = self.at(pts)
        out = getattr(frame, name)
        if flat_value is not None and frame.flat:
            out = np.broadcast_to(flat_value, (pts.shape[0],) + flat_value.shape).copy()
        return out[0] if single else out

    def g(self, x) -> np.ndarray:
        return self._read(x, "g")

    def j(self, x) -> np.ndarray:
        return self._read(x, "j", self.j0)

    def dj(self, x) -> np.ndarray:
        """Coordinate derivatives of J, indexed [node, direction, row, col]."""
        return self._read(x, "dj", np.zeros((self.d,) * 3))

    def e_form(self, x, p) -> np.ndarray:
        """Symmetric form of the first-order term, polarized from
        q(v) = <(grad_{Jv} J) v, p>; returns (N, 2n, 2n) or a single matrix."""
        pts, single = _as_points(x, self.d)
        out = self.at(pts).e(p)
        return out[0] if single else out

    def e_tensor(self, x) -> np.ndarray:
        """E evaluated on the covector basis, indexed [node, k, row, col]."""
        return self.at(x).e_tensor

    def validate(self, points, tol: float = TOL_ALG) -> float:
        """Largest residual of J^2 + I and det-positivity over the batch."""
        frame = self.at(points)
        if np.any(frame.beta <= 0):
            raise AlgebraError("generator must have positive determinant")
        j = self.j0 if frame.flat else frame.j
        worst = float(np.max(np.abs(j @ j + np.eye(self.d))))
        if worst > tol:
            raise AlgebraError(f"J^2 + I residual {worst:.3e} exceeds {tol:.3e}")
        return worst


@dataclass(eq=False)
class StructureFrame:
    """One evaluation of a structure at the points ``pts``: g, dg,
    J = g J0 g^{-1} and dJ (derivatives indexed [node, direction, row,
    col]); J and dJ are None on the flat preset.  The first-order term has
    one formula, the tensor E(e_k) of :attr:`e_tensor`, built on first use;
    E(p) = sum_k p_k E(e_k) contracts it (:meth:`e`)."""

    acx: AlmostComplexField
    pts: np.ndarray
    g: np.ndarray
    dg: np.ndarray
    j: np.ndarray | None = None
    dj: np.ndarray | None = None

    @property
    def flat(self) -> bool:
        return self.acx.constant_identity

    @property
    def beta(self) -> np.ndarray:
        """Volume density det g."""
        return np.linalg.det(self.g)

    def e(self, p) -> np.ndarray:
        """E(p) at every point for a covector p, shared (d,) or per point
        (N, d): p contracted with :attr:`e_tensor`."""
        n, d = self.pts.shape
        pvec = np.asarray(p, dtype=float)
        if pvec.ndim == 1:
            pvec = np.broadcast_to(pvec, (n, d))
        if not np.all(np.isfinite(pvec)):
            raise AlgebraError("covector p must be finite")
        if self.flat:
            return np.zeros((n, d, d))
        return np.einsum("nk,nkab->nab", pvec, self.e_tensor)

    @cached_property
    def e_tensor(self) -> np.ndarray:
        """E on the covector basis, indexed [node, k, row, col]: E(e_k) is
        the symmetric part of J^T D_k with D_k[l, m] = dJ[l][k, m]."""
        n, d = self.pts.shape
        if self.flat:
            return np.zeros((n, d, d, d))
        nmat = np.swapaxes(self.j, 1, 2)[:, None] @ np.swapaxes(self.dj, 1, 2)
        return 0.5 * (nmat + np.swapaxes(nmat, 2, 3))


def real_hessian(acx: AlmostComplexField, x, jet) -> np.ndarray:
    """J(x)-hermitian real form of the intrinsic complex hessian:
    the J-symmetrization of A + E(p)."""
    p, a = jet.p, jet.a
    e = acx.e_form(x, p)
    return hermitian_part(a + e, acx.j(x))


def antilinear_normalize_matrix(g: np.ndarray, j0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Factor g = (I + f) h with h complex-linear and f complex-antilinear,
    for one generator (d, d) or a stack (..., d, d).  A singular
    complex-linear part anywhere is an error (chart too large)."""
    h, f1 = linear_antilinear_split(g, j0)
    if np.any(np.abs(np.linalg.det(h)) < 1e-12):
        raise AlgebraError(
            "complex-linear part of the generator is singular; shrink the chart"
        )
    return h, np.einsum("...ab,...bc->...ac", f1, np.linalg.inv(h))


# ---------------------------------------------------------------------------
# Presets
# ---------------------------------------------------------------------------

def antilinear_generator(n: int, index: int) -> np.ndarray:
    """Fixed list of antilinear generators: real forms of c -> M conj(c)
    for M running through the complex matrix units and their i-multiples."""
    units = []
    for a in range(n):
        for b in range(n):
            m = np.zeros((n, n), dtype=complex)
            m[a, b] = 1.0
            units.append(m)
            m2 = np.zeros((n, n), dtype=complex)
            m2[a, b] = 1j
            units.append(m2)
    if not 0 <= index < len(units):
        raise AlgebraError(f"generator index {index} out of range (< {len(units)})")
    return rep_antilinear(units[index])


def _standard(n: int) -> AlmostComplexField:
    d = 2 * n

    def evaluate(pts):
        nn = pts.shape[0]
        return (np.broadcast_to(np.eye(d), (nn, d, d)),
                np.broadcast_to(0.0, (nn, d, d, d)))

    return AlmostComplexField(n, evaluate, name="standard", constant_identity=True)


def _antilinear_linear_eps(n: int, eps: float = 0.1, generator: int = 0) -> AlmostComplexField:
    d = 2 * n
    f = antilinear_generator(n, generator)
    dg = np.zeros((d, d, d))
    dg[0] = eps * f

    def evaluate(pts):
        g = np.eye(d) + eps * pts[:, 0, None, None] * f
        return g, np.broadcast_to(dg, (pts.shape[0], d, d, d))

    return AlmostComplexField(n, evaluate, name="antilinear-linear-eps")


def _antilinear_slice_compatible(n: int, m: int = 1, eps: float = 0.1) -> AlmostComplexField:
    """Antilinear perturbation whose 21-block vanishes on C^m x {0}.

    The 21-block is carried by the trailing coordinates, so the slice is an
    almost complex submanifold while the structure off the slice is generic;
    the 11-block varies along the slice to make the induced structure curved.
    The antilinear matrix is linear in the point, so dg is constant.
    """
    if not 1 <= m < n:
        raise AlgebraError("slice dimension m must satisfy 1 <= m < n")
    d = 2 * n

    def mmat(pts):
        nn = pts.shape[0]
        mm = np.zeros((nn, n, n), dtype=complex)
        trailing = pts[:, 2 * m:].sum(axis=1)
        mm[:, :m, :m] = pts[:, 0, None, None] * np.ones((m, m))
        mm[:, m:, :m] = trailing[:, None, None] * np.ones((n - m, m))
        mm[:, :m, m:] = 0.4 * pts[:, 1, None, None] * np.ones((m, n - m))
        mm[:, m:, m:] = (0.3 * pts[:, 0] + 0.2 * trailing)[:, None, None] * np.eye(n - m)
        return mm

    dg = eps * rep_antilinear(mmat(np.eye(d)))  # [direction, row, col]

    def evaluate(pts):
        g = np.eye(d) + eps * rep_antilinear(mmat(pts))
        return g, np.broadcast_to(dg, (pts.shape[0], d, d, d))

    return AlmostComplexField(n, evaluate, name="antilinear-slice-compatible")


PRESETS = {
    "standard": _standard,
    "antilinear-linear-eps": _antilinear_linear_eps,
    "antilinear-slice-compatible": _antilinear_slice_compatible,
}


def make_structure(preset: str, n: int, **params) -> AlmostComplexField:
    if preset not in PRESETS:
        raise AlgebraError(f"unknown preset {preset!r}; have {sorted(PRESETS)}")
    return PRESETS[preset](n, **params)
