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
from functools import cached_property

import numpy as np

from .algebra import (
    COMPLEXIFY_SCALE,
    AlmostComplexField,
    StructureFrame,
    antilinear_normalize_matrix,
    hermitian_eigh,
    linear_antilinear_split,
    rep_complex,
)
from .discretize import Policy, Stencil, snap_policy, snap_units
from .lattice import (
    INTERIOR,
    JetTable,
    LatticeDomain,
    ScalarField,
    slice_lattice,
    unit_offsets,
)
from .subeq import Subequation, hermitian_forms, margins_for_forms


class PshError(ValueError):
    pass


# ---------------------------------------------------------------------------
# B-family plumbing
# ---------------------------------------------------------------------------

_BSTAR_FLOOR = 1e-8
_BSTAR_CLIP = 4.0   # anisotropy bound around the geometric mean


def real_form(b: np.ndarray) -> np.ndarray:
    """Real 2n x 2n form of a hermitian B (or of a stack of them),
    normalized so the associated operator pairs with the complexified
    hessian without extra factors: rep_complex(conj B) / 4, which is
    ``realify(B) / 16``."""
    return COMPLEXIFY_SCALE * rep_complex(np.conj(b))


def real_form_eigh(b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of ``real_form(b)`` for an (N, n, n) hermitian stack, in
    ``np.linalg.eigh``'s layout: eigenvalues (N, 2n) ascending and unit
    eigenvectors in the columns of (N, 2n, 2n).  Each eigenpair
    (lambda, v) of conj(B), from :func:`hermitian_eigh`, gives lambda / 4
    twice, on the interleaved real vectors of v and of i v, which are two
    columns of rep_complex(V); for n = 2 the closed form's phase rule
    fixes the basis of every doubled eigenplane."""
    vals, vecs = hermitian_eigh(np.conj(b))
    return np.repeat(COMPLEXIFY_SCALE * vals, 2, axis=1), rep_complex(vecs)


def check_b_matrix(b: np.ndarray) -> np.ndarray:
    b = np.asarray(b, dtype=complex)
    if not np.all(np.isfinite(b)):
        raise PshError("B must have finite entries")
    if np.max(np.abs(b - b.conj().T)) > 1e-8:
        raise PshError("B must be hermitian")
    w = np.linalg.eigvalsh(b)
    if w[0] <= 0:
        raise PshError("B must be positive definite")
    if abs(np.linalg.det(b).real - 1.0) > 1e-6:
        raise PshError("B must have unit determinant")
    return b


def adapted_bstar(ac: np.ndarray) -> np.ndarray:
    """Equality witness of the arithmetic-geometric determinant bound,
    B* = det(A)^{1/n} A^{-1}, with eigenvalues of A floored at 1e-8 and then
    clipped to a bounded band around their geometric mean before inversion.
    The floor keeps the witness defined at the degenerate edge; the clip
    bounds the witness's anisotropy, and with it the part of its operator
    that goes through the stencil snap.  Unit determinant holds by
    construction for any clipped spectrum.  The eigenpairs are
    :func:`hermitian_eigh`'s for every n (closed form for n = 2)."""
    n = ac.shape[-1]
    vals, vecs = hermitian_eigh(ac)
    floored = np.clip(vals, _BSTAR_FLOOR, None)
    gm = np.prod(floored, axis=-1) ** (1.0 / n)
    banded = np.clip(floored, gm[:, None] / _BSTAR_CLIP,
                     gm[:, None] * _BSTAR_CLIP)
    scale = np.prod(banded, axis=-1) ** (1.0 / n)
    inv = (scale[:, None] / banded)
    return np.einsum("nak,nk,nbk->nab", vecs, inv, vecs.conj())


# ---------------------------------------------------------------------------
# Direct hessian margin
# ---------------------------------------------------------------------------

class MarginContext:
    """The field-independent part of the direct margin of ``sub`` on
    ``domain``: its interior nodes (``nodes``), the jet table that
    differences a field there, the structure evaluated there once, in
    ``frame``, and, built on first use, the unit-box neighbours that the
    default tolerance reads.  Build it once for every field on the domain.
    The complex hessians of the last field read, through :meth:`forms`,
    are kept until a field with other values is read."""

    def __init__(self, sub: Subequation, domain: LatticeDomain):
        if domain.dim != sub.d:
            raise PshError("field dimension does not match the structure")
        self.sub = sub
        self.domain = domain
        self.nodes = domain.interior_ids
        self.table = JetTable(domain, self.nodes)
        self.frame = sub.acx.at(domain.node_coords[self.nodes])
        self._kept = None      # (values, forms) of the last forms call

    @cached_property
    def unit_box(self) -> np.ndarray:
        """Region ids of every node's unit box, -1 off the region."""
        return self.domain.neighbor_ids(self.nodes[:, None],
                                        unit_offsets(self.domain.dim))

    def forms(self, values: np.ndarray) -> np.ndarray:
        """Complex hessians A_C of the jets of ``values`` at the context's
        nodes, shape (N, n, n).  A repeat call with equal values returns
        the kept (read-only) array without differencing again."""
        if self._kept is not None and np.array_equal(self._kept[0], values):
            return self._kept[1]
        ac = hermitian_forms(self.frame, *self.table.jets(values))
        ac.flags.writeable = False
        self._kept = (np.array(values, dtype=float), ac)
        return ac


def field_margins(u: ScalarField, ctx: MarginContext):
    """Membership margins (margin, eig, det) of the finite-difference jets
    of ``u`` at the context's nodes."""
    ctx.table.check(u)
    return margins_for_forms(ctx.sub, ctx.frame, ctx.forms(u.values))


def default_field_tol(u: ScalarField, ctx: MarginContext) -> np.ndarray:
    """Consistency-matched tolerance 10 h^2 * (local field scale) at the
    context's nodes; the local scale is the sup of |u| over the node's unit
    box."""
    nb = ctx.unit_box
    near = np.where(nb >= 0, np.abs(u.values[nb]), 0.0).max(axis=1)
    scale = np.maximum(np.abs(u.values[ctx.nodes]), near)
    return 10.0 * ctx.domain.h ** 2 * np.maximum(scale, 1.0)


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


def _read(u: ScalarField, ctx: MarginContext, values: np.ndarray, tol):
    """(verdict, worst row, tolerances): per-node ``values`` at the
    context's nodes read against ``tol``, by default the field tolerance
    (ties resolved by lexicographic node order)."""
    tols = default_field_tol(u, ctx) if tol is None else np.broadcast_to(
        np.asarray(tol, dtype=float), values.shape)
    return bool(np.all(values >= -tols)), int(np.argmin(values)), tols


def margin_verdict(u: ScalarField, ctx: MarginContext,
                   tol: np.ndarray | float | None = None) -> PshReport:
    """Worst-case membership margin of ``u`` over the context's nodes.
    Negative margin beyond the node tolerance means the field is not psh."""
    margins, _, _ = field_margins(u, ctx)
    verdict, worst, tols = _read(u, ctx, margins, tol)
    return PshReport(verdict, float(margins[worst]),
                     u.domain.node_coords[ctx.nodes[worst]], float(tols[worst]))


def psh_margin(u: ScalarField, sub: Subequation,
               tol: np.ndarray | float | None = None) -> PshReport:
    """Worst-case membership margin over interior nodes.  To test many
    fields on one domain, build a :class:`MarginContext` once and call
    :func:`margin_verdict`."""
    return margin_verdict(u, MarginContext(sub, u.domain), tol)


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
    is compatible, i.e. f_21 vanishes along it).  Its derivative follows
    from f = f1 h^{-1} by the product rule: df = (df1 - f dh) h^{-1}, where
    (dh, df1) is the same split of the ambient dg along the slice.  One
    ambient evaluation serves both."""
    if not 1 <= m < acx.n:
        raise PshError("slice dimension must satisfy 1 <= m < n")
    ds = 2 * m

    def evaluate(pts):
        g, dg = acx.evaluate(_embed(pts, acx.d))
        h, f = antilinear_normalize_matrix(g, acx.j0)
        dh, df1 = linear_antilinear_split(dg[:, :ds], acx.j0)
        df = (df1 - f[:, None] @ dh) @ np.linalg.inv(h)[:, None]
        return np.eye(ds) + f[:, :ds, :ds], df[..., :ds, :ds]

    return AlmostComplexField(m, evaluate, name=f"{acx.name}|slice-{m}")


@dataclass
class SliceCompatibility:
    compatible: bool
    f21_residual: float
    e_block_residual: float


def slice_compatible(acx: AlmostComplexField, m: int,
                     points: np.ndarray) -> SliceCompatibility:
    """True iff the antilinear factor has vanishing 21-block, up to 1e-7, at
    the slice ``points`` of C^m (the almost complex submanifold condition),
    double-checked through its analytic shadow: the first-order term built
    from purely-transverse covectors vanishes on slice directions."""
    if not 1 <= m < acx.n:
        raise PshError("slice dimension must satisfy 1 <= m < n")
    ds = 2 * m
    frame = acx.at(_embed(points, acx.d))
    _, f = antilinear_normalize_matrix(frame.g, acx.j0)
    worst_f21 = float(np.max(np.abs(f[:, ds:, :ds])))
    worst_e = float(np.max(np.abs(frame.e_tensor[:, ds:, :ds, :ds])))
    return SliceCompatibility(worst_f21 <= 1e-7 and worst_e <= 1e-7,
                              worst_f21, worst_e)


@dataclass
class RestrictionReport:
    ambient_margin: float
    slice_margin: float
    ambient_psh: bool
    slice_psh: bool
    implication_holds: bool
    slack: float


class SliceRestriction:
    """The field-independent part of the restriction check of ``sub`` on
    ``domain`` to the slice C^m x {0}: the ambient node of each slice node
    (``ids``) and the margin contexts of the homogeneous ambient equation
    and of the induced slice structure on the slice domain.  Incompatible slices are rejected; use
    :func:`slice_compatible` to diagnose."""

    def __init__(self, sub: Subequation, domain: LatticeDomain, m: int):
        acx = sub.acx
        slice_domain, self.ids = slice_lattice(domain, m)
        compat = slice_compatible(acx, m, slice_domain.node_coords)
        if not compat.compatible:
            raise PshError(
                f"slice C^{m} x {{0}} is not an almost complex submanifold: "
                "the antilinear factor has f21 residual "
                f"{compat.f21_residual:.3e} on the slice")
        self.ambient = MarginContext(Subequation(acx), domain)
        self.slice = MarginContext(
            Subequation(induced_slice_structure(acx, m)), slice_domain)


def restriction_verdict(u: ScalarField,
                        rc: SliceRestriction) -> RestrictionReport:
    """Ambient-psh implies slice-psh, up to a consistency slack: the slice
    tolerance at the worst node plus h.

    The restriction statement concerns the homogeneous cone, so any
    right-hand side on the structure's equation is ignored here.
    """
    amb = margin_verdict(u, rc.ambient)
    sli = margin_verdict(u.take(rc.slice.domain, rc.ids), rc.slice)
    slack = sli.tol_at_worst + u.domain.h
    implication = (not amb.psh) or (sli.worst_margin >= -slack)
    return RestrictionReport(amb.worst_margin, sli.worst_margin,
                             amb.psh, sli.psh, bool(implication), slack)


def restriction_check(u: ScalarField, sub: Subequation,
                      m: int) -> RestrictionReport:
    """:func:`restriction_verdict` of ``u`` on a fresh
    :class:`SliceRestriction`; to check many fields on one domain, build
    that once."""
    return restriction_verdict(u, SliceRestriction(sub, u.domain, m))


# ---------------------------------------------------------------------------
# B-Laplacians
# ---------------------------------------------------------------------------

class OperatorFamily:
    """Monotone discretizations of the linear operators L_B on the interior
    nodes of ``domain``, through its :class:`Stencil` (``stencil``), for
    the members of the Bellman family: the identity (``identity``), which
    is the whole family for n = 1, where unit determinant forces B = 1,
    and gives tr A where the witness is clipped; and, for n > 1, per-node
    adapted witnesses B* of fields (``adapted_policy``).  The psh family
    test takes the minimum over the identity and the witness of the field
    under test; the Dirichlet solver keeps every witness it refreshes, so
    its minimum runs over the identity and a list of snapped witnesses
    (:meth:`min_value`).  L_B has the
    coefficient field S = g B_r g^T and the drift b_k = <S, E(e_k)>; the
    structure is evaluated once for the node set, in the frame of the
    family's margin context ``margins``, whose jet table the adapted
    witness reads.  Off the flat frame, the d columns every member shares,
    the snapped vectors g e_i (:attr:`columns`), are built with the
    family.  Build it once for every field on the domain."""

    def __init__(self, sub: Subequation, domain: LatticeDomain):
        self.sub = sub
        self.stencil = Stencil(domain)
        self.margins = MarginContext(sub, domain)
        self.frame = self.margins.frame
        self.identity = self._snap(np.eye(sub.n, dtype=complex)[None])

    @staticmethod
    def coefficients(frame: StructureFrame, br):
        """(S, drift) for a real form B_r, constant (d, d) or per node
        (N, d, d).  On the flat structure S = B_r and the drift is None."""
        if frame.flat:
            return (br[None] if br.ndim == 2 else br), None
        g = frame.g
        s = g @ br @ g.transpose(0, 2, 1)
        return s, np.einsum("nkab,nab->nk", frame.e_tensor, s)

    @cached_property
    def columns(self):
        """(dir_idx, norms2, basis) of the d columns every member of a
        non-flat family shares: per node the snapped directions w_i of the
        vectors g e_i, (N, d); their squared lengths |g e_i|^2, (N, d); and
        the inverse of the integer matrix W with columns w_i, which takes
        the drift to its coefficients along them, (N, d, d), inverted only
        where W is not I.  A singular W, two vectors g e_i snapped to one
        direction, is an error."""
        st = self.stencil
        g = self.frame.g
        norms2 = (g ** 2).sum(axis=1)
        dir_idx = snap_units(st, g / np.sqrt(norms2)[:, None])
        w = np.swapaxes(st.dirs[dir_idx], 1, 2).astype(float)
        basis = np.broadcast_to(np.eye(st.domain.dim), w.shape).copy()
        off = np.any(w != basis, axis=(1, 2))     # nodes where W is not I
        if np.any(np.abs(np.linalg.det(w[off])) < 0.5):   # integer dets
            raise PshError("the structure's frame vectors g e_i snap to "
                           "linearly dependent stencil directions")
        basis[off] = np.linalg.inv(w[off])
        return dir_idx, norms2, basis

    def _snap(self, b):
        """Policy of the member B, constant (1, n, n) or per node (N, n, n):
        :func:`snap_policy` of the eigenpairs of B_r = real_form(B) from
        :func:`real_form_eigh`, pushed through g with the shared
        :attr:`columns` off the flat frame, and the drift <S, E(e_k)> of the
        exact S by its coefficients W^{-1} b along those columns."""
        vals, vecs = real_form_eigh(b)
        if self.frame.flat:
            return snap_policy(self.stencil, vals, vecs)
        dir_idx, norms2, basis = self.columns
        _, drift = self.coefficients(self.frame, real_form(b))
        return snap_policy(self.stencil, vals, vecs,
                           (self.frame.g, dir_idx, norms2),
                           np.einsum("nij,nj->ni", basis, drift))

    def adapted_policy(self, values: np.ndarray):
        """Policy of the adapted witness B* of ``values`` (None for n = 1),
        from the complex hessians of ``margins``, which a margin read of
        the same values shares."""
        if self.sub.n == 1:
            return None
        return self._snap(adapted_bstar(self.margins.forms(values)))

    def min_value(self, values: np.ndarray, *members):
        """Per-node minimum of the operators of the identity and the
        policies ``members`` on ``values``, and the index of the active
        member per node: 0 for the identity, k for ``members[k - 1]``.  A
        tie goes to the lowest index."""
        best = self.identity.value(values)
        active = np.zeros(best.size, dtype=np.intp)
        for k, policy in enumerate(members, 1):
            other = policy.value(values)
            active[other < best] = k
            best = np.minimum(best, other)
        return best, active

    def active_policy(self, active: np.ndarray, *members) -> Policy:
        """One frozen policy taking at each node the columns of its active
        member, indexed as by ``min_value``; a member narrower than the
        widest is padded with zero-weight axis columns."""
        if not members:
            return self.identity
        rows = np.arange(active.size)
        pols = (self.identity, *members)
        width = max(p.dir_idx.shape[1] for p in pols)

        def pick(name, fill):
            return np.stack([
                np.pad(getattr(p, name),
                       ((0, 0), (0, width - p.dir_idx.shape[1])),
                       constant_values=fill)
                for p in pols])[active, rows]

        return Policy(self.stencil, pick("dir_idx", self.stencil.axes[0]),
                      pick("wplus", 0.0), pick("wminus", 0.0))


def blaplacian(u: ScalarField, sub: Subequation, node: int, b) -> float:
    """Monotone discretization of the linear operator attached to B, one
    node at a time, from the terms :class:`OperatorFamily` builds: with
    (mu_j, r_j) the eigenpairs of real_form(B) from :func:`real_form_eigh`
    (clipped at zero), the second differences along the stencil-snapped
    g e_i weighted by mu_1 |g e_i|^2 and along the snapped g r_j (j >= 2)
    weighted by (mu_j - mu_1) |g r_j|^2, each direction chosen by scoring
    every available one; and, off the flat frame, the drift
    <S, E(e_k)> of S = g B_r g^T upwinded along the snapped g e_i."""
    from .lattice import directional_second, upwind_first

    bmat = check_b_matrix(b)
    if 2 * bmat.shape[0] != sub.d:
        raise PshError("B has the wrong dimension for the structure")
    dom = u.domain
    if dom.node_class[node] != INTERIOR:
        raise PshError("B-Laplacian requires an interior node")
    frame = sub.acx.at(dom.node_coords[node])
    g = frame.g[0]
    vals, vecs = (x[0] for x in real_form_eigh(bmat[None]))
    vals = np.clip(vals, 0.0, None)
    st = Stencil(dom)
    allowed = st.allowed[st.node_row(node)]

    def snapped(q):
        scores = np.abs(st.units @ (q / np.linalg.norm(q)))
        scores[~allowed] = -1.0
        return st.dirs[int(np.argmax(scores))]

    total = 0.0
    shared = []
    for q in g.T:
        shared.append(snapped(q))
        total += vals[0] * (q @ q) * directional_second(u, node, shared[-1])
    for k in range(1, dom.dim):
        if vals[k] > vals[0]:
            q = g @ vecs[:, k]
            total += ((vals[k] - vals[0]) * (q @ q)
                      * directional_second(u, node, snapped(q)))
    if not frame.flat:
        s = g @ real_form(bmat) @ g.T
        drift = np.einsum("kab,ab->k", frame.e_tensor[0], s)
        w = np.array(shared)
        total += upwind_first(u, node, np.linalg.solve(w.T, drift), w)
    return float(total)


def blap_min_field(u: ScalarField, ops: OperatorFamily):
    """Minimum of the discretized family operators over interior nodes.

    Returns (values, adapted): ``adapted`` is 1 where the per-node adapted
    witness B* of ``u`` (n > 1) is the minimizer and 0 where the identity
    is.
    """
    ops.margins.table.check(u)
    fresh = () if ops.sub.n == 1 else (ops.adapted_policy(u.values),)
    return ops.min_value(u.values, *fresh)


def family_verdict(u: ScalarField, ops: OperatorFamily,
                   tol: np.ndarray | float | None = None) -> PshReport:
    """psh iff both member operators of ``ops`` are nonnegative on ``u`` at
    every interior node, up to the node tolerance; a failing report carries
    the minimizing member at the worst node, I or B*, as its witness; B*
    is rebuilt there from the complex hessians the family kept."""
    best, adapted = blap_min_field(u, ops)
    nodes = ops.stencil.nodes
    verdict, worst, tols = _read(u, ops.margins, best, tol)
    wit = None
    if not verdict:
        wit = (adapted_bstar(ops.margins.forms(u.values)[worst:worst + 1])[0]
               if adapted[worst] else np.eye(ops.sub.n, dtype=complex))
    return PshReport(verdict, float(best[worst]),
                     u.domain.node_coords[nodes[worst]],
                     float(tols[worst]), wit)


def psh_via_blaplacians(u: ScalarField, sub: Subequation,
                        tol: np.ndarray | float | None = None) -> PshReport:
    """Family characterization of the psh cone: psh iff every member
    operator is nonnegative.  The family is the identity and, for n > 1,
    the per-node adapted witness B* (for n = 1 the identity is the only
    unit-determinant form).  Inside the witness's clip band the verdict
    agrees with the direct margin up to the scheme tolerance.  Outside it
    an indefinite hessian can go undetected: B* has its eigenvalues within
    a factor _BSTAR_CLIP = 4 of their geometric mean, so for n = 2 a
    complex hessian with eigenvalues lambda_min < 0 < lambda_max reads psh
    once lambda_max >= 16 |lambda_min| (on the flat 9^4 box,
    a |z1|^2 + b |z2|^2 with (a, b) = (-0.05, 1) reads +0.05 here and
    -0.1 through :func:`psh_margin`; ROADMAP item 3).  To test many fields
    on one domain, build the family once with :class:`OperatorFamily` and
    call :func:`family_verdict`."""
    return family_verdict(u, OperatorFamily(sub, u.domain), tol)
