"""Plurisubharmonicity verdicts for sampled fields.

Three routes are provided: the direct hessian membership test at every
interior node, restriction to compatible coordinate slices C^m x {0} with
the induced structure, and the Bellman family of second-order linear
operators attached to positive unit-determinant hermitian forms.  Verdicts
are stated for C^2-sampled fields; genuinely non-smooth inputs are only
exercised through maxima of smooth fields, which the psh cone is closed
under.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import (
    AlmostComplexField,
    StructureFrame,
    antilinear_normalize_matrix,
    complexify_batch,
    realify_batch,
    standard_j,
)
from .discretize import Stencil, snap_policy
from .lattice import INTERIOR, JetTable, ScalarField, fd_jets, restrict_to_slice
from .subeq import Subequation, margins_for_jets, transformed_hermitian


class PshError(ValueError):
    pass


# ---------------------------------------------------------------------------
# B-family plumbing
# ---------------------------------------------------------------------------

_BSTAR_FLOOR = 1e-8
_BSTAR_CLIP = 4.0   # anisotropy bound around the geometric mean
_REAL_FORM_SCALE = 1.0 / 16.0  # pins L_B u = tr_C(A_C B) on exact jets


def real_form(b: np.ndarray) -> np.ndarray:
    """Real 2n x 2n form of a hermitian B, normalized so the associated
    operator pairs with the complexified hessian without extra factors."""
    return _REAL_FORM_SCALE * realify_batch(np.asarray(b, dtype=complex)[None])[0]


def real_form_batch(b: np.ndarray) -> np.ndarray:
    return _REAL_FORM_SCALE * realify_batch(b)


def check_b_matrix(b: np.ndarray, tol: float = 1e-8) -> np.ndarray:
    b = np.asarray(b, dtype=complex)
    if np.max(np.abs(b - b.conj().T)) > tol:
        raise PshError("B must be hermitian")
    w = np.linalg.eigvalsh(b)
    if w[0] <= 0:
        raise PshError("B must be positive definite")
    if abs(np.linalg.det(b).real - 1.0) > 100 * tol:
        raise PshError("B must have unit determinant")
    return b


def default_b_family(n: int, unitaries: int = 2) -> list[np.ndarray]:
    """Fixed Bellman net: the identity plus unitary-conjugated diagonal
    profiles diag(t, 1/t, 1, ...) for t in {2, 4}; the quasi-random unitary
    list is generated from a fixed counter seed so the net is reproducible."""
    from .rng import CounterRng

    fam = [np.eye(n, dtype=complex)]
    if n == 1:
        return fam  # unit determinant forces B = 1
    rng = CounterRng(0x5EED)
    us = [rng.unitary(n) for _ in range(unitaries)]
    for t in (2.0, 4.0):
        diag = np.ones(n)
        diag[0] = t
        diag[1] = 1.0 / t
        for u in us:
            fam.append(u @ np.diag(diag).astype(complex) @ u.conj().T)
    return fam


def adapted_bstar(ac: np.ndarray, clip: float = _BSTAR_CLIP) -> np.ndarray:
    """Equality witness of the arithmetic-geometric determinant bound,
    B* = det(A)^{1/n} A^{-1}, with eigenvalues of A floored at 1e-8 and then
    clipped to a bounded band around their geometric mean before inversion.
    The floor keeps the witness defined at the degenerate edge; the clip
    bounds the witness's anisotropy so detection stays sharp without
    collapsing the explicit scheme's stability bound.  Unit determinant
    holds by construction for any clipped spectrum."""
    vals, vecs = np.linalg.eigh(ac)
    n = ac.shape[-1]
    floored = np.clip(vals, _BSTAR_FLOOR, None)
    gm = np.prod(floored, axis=-1) ** (1.0 / n)
    banded = np.clip(floored, gm[:, None] / clip, gm[:, None] * clip)
    scale = np.prod(banded, axis=-1) ** (1.0 / n)
    inv = (scale[:, None] / banded)
    return np.einsum("nak,nk,nbk->nab", vecs, inv, vecs.conj())


# ---------------------------------------------------------------------------
# Direct hessian margin
# ---------------------------------------------------------------------------

def field_margins(u: ScalarField, sub: Subequation,
                  nodes: np.ndarray | None = None):
    """Membership margins of the finite-difference jets at interior nodes."""
    dom = u.domain
    if dom.dim != sub.d:
        raise PshError("field dimension does not match the structure")
    nodes = dom.interior_ids if nodes is None else np.asarray(nodes)
    p, a = fd_jets(u, nodes)
    frame = sub.acx.at(dom.node_coords[nodes])
    return margins_for_jets(sub, frame, p, a) + (nodes,)


def default_field_tol(u: ScalarField, nodes: np.ndarray) -> np.ndarray:
    """Consistency-matched tolerance 10 h^2 * (local field scale); the local
    scale is the sup of |u| over the node's unit box."""
    dom = u.domain
    scale = np.abs(u.values[nodes])
    for off in np.ndindex(*(3,) * dom.dim):
        o = np.array(off) - 1
        if not o.any():
            continue
        nb = dom.neighbor_ids(nodes, o)
        valid = nb >= 0
        if np.any(valid):
            scale[valid] = np.maximum(scale[valid], np.abs(u.values[nb[valid]]))
    return 10.0 * dom.h ** 2 * np.maximum(scale, 1.0)


@dataclass
class PshReport:
    psh: bool
    worst_margin: float
    worst_node: np.ndarray
    tol_at_worst: float
    witness_b: np.ndarray | None = None

    def to_dict(self) -> dict:
        out = {
            "verdict": "psh" if self.psh else "not-psh",
            "worst_margin": float(self.worst_margin),
            "worst_node": [float(c) for c in self.worst_node],
            "tol_at_worst": float(self.tol_at_worst),
        }
        if self.witness_b is not None:
            out["witness_b_real"] = np.asarray(self.witness_b).real.tolist()
            out["witness_b_imag"] = np.asarray(self.witness_b).imag.tolist()
        return out


def psh_margin(u: ScalarField, sub: Subequation,
               tol: np.ndarray | float | None = None) -> PshReport:
    """Worst-case membership margin over interior nodes (ties resolved by
    lexicographic node order).  Negative margin beyond the node tolerance
    means the field is not psh."""
    margins, _, _, nodes = field_margins(u, sub)
    tols = default_field_tol(u, nodes) if tol is None else np.broadcast_to(
        np.asarray(tol, dtype=float), margins.shape)
    worst = int(np.argmin(margins))
    verdict = bool(np.all(margins >= -tols))
    return PshReport(verdict, float(margins[worst]),
                     u.domain.node_coords[nodes[worst]], float(tols[worst]))


# ---------------------------------------------------------------------------
# Slice restriction
# ---------------------------------------------------------------------------

def _embed(points: np.ndarray, d_ambient: int) -> np.ndarray:
    pts = np.atleast_2d(points)
    out = np.zeros((pts.shape[0], d_ambient))
    out[:, : pts.shape[1]] = pts
    return out


def induced_slice_structure(acx: AlmostComplexField, m: int) -> AlmostComplexField:
    """Structure induced on C^m x {0}: the generator is I + f_11 where f is
    the antilinear factor of the ambient normal form (valid when the slice
    is compatible, i.e. f_21 vanishes along it)."""
    if not 1 <= m < acx.n:
        raise PshError("slice dimension must satisfy 1 <= m < n")
    j0 = standard_j(acx.n)
    ds = 2 * m

    def gen(pts):
        amb = _embed(pts, acx.d)
        g = acx.g(amb)
        h = 0.5 * (g - np.einsum("ab,nbc,cd->nad", j0, g, j0))
        f1 = 0.5 * (g + np.einsum("ab,nbc,cd->nad", j0, g, j0))
        f = np.einsum("nab,nbc->nac", f1, np.linalg.inv(h))
        out = np.broadcast_to(np.eye(ds), (pts.shape[0], ds, ds)).copy()
        out += f[:, :ds, :ds]
        return out

    return AlmostComplexField(m, gen, name=f"{acx.name}|slice-{m}",
                              params=dict(acx.params, m=m))


@dataclass
class SliceCompatibility:
    compatible: bool
    f21_residual: float
    e_block_residual: float


def slice_compatible(acx: AlmostComplexField, m: int,
                     points: np.ndarray | None = None,
                     tol: float = 1e-7) -> SliceCompatibility:
    """True iff the antilinear factor has vanishing 21-block along the slice
    (the almost complex submanifold condition), double-checked through its
    analytic shadow: the first-order term built from purely-transverse
    covectors vanishes on slice directions."""
    if not 1 <= m < acx.n:
        raise PshError("slice dimension must satisfy 1 <= m < n")
    ds = 2 * m
    if points is None:
        ax = np.linspace(-1.0, 1.0, 5)
        mesh = np.meshgrid(*([ax] * ds), indexing="ij")
        points = np.stack([q.ravel() for q in mesh], axis=1)
    frame = acx.at(_embed(points, acx.d))
    worst_f21 = 0.0
    for gk in frame.g:
        _, f = antilinear_normalize_matrix(gk, acx.j0)
        worst_f21 = max(worst_f21, float(np.max(np.abs(f[ds:, :ds]))))
    worst_e = 0.0
    for p in np.eye(acx.d)[ds:]:
        worst_e = max(worst_e, float(np.max(np.abs(frame.e(p)[:, :ds, :ds]))))
    return SliceCompatibility(worst_f21 <= tol and worst_e <= tol,
                              worst_f21, worst_e)


@dataclass
class RestrictionReport:
    compatible: bool
    ambient_margin: float
    slice_margin: float
    ambient_psh: bool
    slice_psh: bool
    implication_holds: bool
    slack: float

    def to_dict(self) -> dict:
        return {
            "compatible": self.compatible,
            "ambient_margin": self.ambient_margin,
            "slice_margin": self.slice_margin,
            "ambient_psh": self.ambient_psh,
            "slice_psh": self.slice_psh,
            "implication_holds": self.implication_holds,
            "slack": self.slack,
        }


def restriction_check(u: ScalarField, sub: Subequation, m: int,
                      slack_coeff: float = 1.0) -> RestrictionReport:
    """Ambient-psh implies slice-psh, up to a consistency slack linear in h.

    The restriction statement concerns the homogeneous cone, so any
    right-hand side on ``sub`` is ignored here.  Incompatible slices are
    rejected; use :func:`slice_compatible` to diagnose.
    """
    acx = sub.acx
    u_slice = restrict_to_slice(u, m)
    comp = slice_compatible(acx, m,
                            points=u_slice.domain.node_coords)
    if not comp.compatible:
        raise PshError(
            "slice is not an almost complex submanifold: the antilinear "
            f"factor has f21 residual {comp.f21_residual:.3e} on the slice")
    hom = Subequation(acx)
    amb = psh_margin(u, hom)
    sub_s = Subequation(induced_slice_structure(acx, m))
    sli = psh_margin(u_slice, sub_s)
    slack = sli.tol_at_worst + slack_coeff * u.domain.h
    implication = (not amb.psh) or (sli.worst_margin >= -slack)
    return RestrictionReport(True, amb.worst_margin, sli.worst_margin,
                             amb.psh, sli.psh, bool(implication), slack)


# ---------------------------------------------------------------------------
# B-Laplacians
# ---------------------------------------------------------------------------

class OperatorFamily:
    """Monotone discretizations of the linear operators L_B on a stencil's
    interior nodes: one per fixed member B of ``family`` plus, when
    ``include_adapted``, the per-node adapted witness of a field.  L_B has
    the coefficient field S = g B_r g^T and the drift b_k = <S, E(e_k)>;
    the structure is evaluated once for the node set, in ``frame``."""

    def __init__(self, sub: Subequation, stencil: Stencil,
                 family: list[np.ndarray], include_adapted: bool = True):
        self.sub = sub
        self.stencil = stencil
        self.members = family
        self.include_adapted = include_adapted
        self.frame = sub.acx.at(stencil.domain.node_coords[stencil.nodes])
        self.fixed = [self._snap(real_form(b)) for b in family]
        self.bstar = None       # adapted witness of the last adapted_policy
        self._jets = None

    @staticmethod
    def coefficients(frame: StructureFrame, br, drift: bool = True):
        """(S, drift) for a real form B_r, constant (d, d) or per node
        (N, d, d).  On the flat structure S = B_r; the drift is None there
        and when not asked for."""
        if frame.flat:
            return (br[None] if br.ndim == 2 else br), None
        g = frame.g
        s = np.matmul(np.matmul(g, br), g.transpose(0, 2, 1))
        return s, np.einsum("nkab,nab->nk", frame.e_tensor, s) if drift else None

    def _snap(self, br):
        return snap_policy(self.stencil, *self.coefficients(self.frame, br))

    def adapted_policy(self, values: np.ndarray, jets=None):
        """Policy of the adapted witness B* of ``values`` (None when the
        family has no adapted member).  ``jets`` is (p, A) at the nodes;
        by default it is gathered through a JetTable built on first use."""
        if not self.include_adapted:
            return None
        if jets is None:
            if self._jets is None:
                self._jets = JetTable(self.stencil.domain, self.stencil.nodes)
            jets = self._jets.jets(values)
        hp = transformed_hermitian(self.frame, *jets)
        self.bstar = adapted_bstar(complexify_batch(hp))
        return self._snap(real_form_batch(self.bstar))

    def policies(self, adapted=None) -> list:
        return self.fixed if adapted is None else self.fixed + [adapted]

    def min_value(self, values: np.ndarray, adapted=None):
        """Per-node minimum of the member operators on ``values`` and the
        index of the active member (the adapted one comes last)."""
        stacked = np.stack([p.value(values) for p in self.policies(adapted)])
        active = np.argmin(stacked, axis=0)
        return stacked[active, np.arange(stacked.shape[1])], active


def blaplacian(u: ScalarField, sub: Subequation, node: int, b) -> float:
    """Monotone discretization of the linear operator attached to B:
    directional second differences along the (stencil-snapped)
    eigendirections of S = g B_r g^T plus an upwinded drift."""
    from .lattice import directional_second, upwind_first

    bmat = check_b_matrix(b)
    if 2 * bmat.shape[0] != sub.d:
        raise PshError("B has the wrong dimension for the structure")
    dom = u.domain
    if dom.node_class[node] != INTERIOR:
        raise PshError("B-Laplacian requires an interior node")
    x = dom.node_coords[node]
    g = sub.acx.g(x)
    s = g @ real_form(bmat) @ g.T
    st = Stencil(dom)
    row = st.node_row(node)
    vals, vecs = np.linalg.eigh(s)
    total = 0.0
    for k in range(dom.dim):
        scores = np.abs(st.units @ vecs[:, k])
        scores[~st.allowed[row]] = -1.0
        t = int(np.argmax(scores))
        total += max(vals[k], 0.0) * directional_second(u, node, st.dirs[t])
    if not sub.acx.constant_identity:
        drift = np.einsum("nkab,nab->nk", sub.acx.e_tensor(x[None]), s[None])
        total += upwind_first(u, node, drift[0])
    return float(total)


def blap_min_field(u: ScalarField, sub: Subequation,
                   family: list[np.ndarray] | None = None,
                   include_adapted: bool = True):
    """Minimum of the discretized family operators over interior nodes.

    Returns (values, witness_index, ops): witness_index < 0 flags the
    per-node adapted witness ``ops.bstar`` as the minimizer, otherwise it
    indexes ``ops.members``.
    """
    st = Stencil(u.domain)
    fam = default_b_family(sub.n) if family is None else [
        check_b_matrix(b) for b in family]
    ops = OperatorFamily(sub, st, fam, include_adapted)
    adapted = (ops.adapted_policy(u.values, fd_jets(u, st.nodes))
               if include_adapted else None)
    best, active = ops.min_value(u.values, adapted)
    return best, np.where(active == len(fam), -1, active), ops


def psh_via_blaplacians(u: ScalarField, sub: Subequation,
                        family: list[np.ndarray] | None = None,
                        tol: np.ndarray | float | None = None) -> PshReport:
    """Family characterization of the psh cone: psh iff every member
    operator is nonnegative.  The family always contains the identity and
    the per-node adapted witness, which guarantees detection of indefinite
    hessians; the verdict agrees with the direct margin up to the scheme
    tolerance."""
    fam = default_b_family(sub.n) if family is None else list(family)
    if not fam:
        raise PshError("B-family must be non-empty")
    has_id = any(np.max(np.abs(np.asarray(b) - np.eye(sub.n))) < 1e-12
                 for b in fam)
    if not has_id:
        raise PshError("B-family must contain the identity")
    best, witness, ops = blap_min_field(u, sub, fam)
    st_nodes = u.domain.interior_ids
    tols = default_field_tol(u, st_nodes) if tol is None else np.broadcast_to(
        np.asarray(tol, dtype=float), best.shape)
    worst = int(np.argmin(best))
    verdict = bool(np.all(best >= -tols))
    wit = None
    if not verdict:
        wit = (ops.members[witness[worst]] if witness[worst] >= 0
               else ops.bstar[worst])
    return PshReport(verdict, float(best[worst]),
                     u.domain.node_coords[st_nodes[worst]],
                     float(tols[worst]), wit)
