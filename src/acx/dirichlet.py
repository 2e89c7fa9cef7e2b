"""Dirichlet solver for the almost-complex Monge-Ampere equation.

The inhomogeneous equation is written as a Bellman minimum over positive
unit-determinant hermitian forms through the arithmetic-geometric
determinant representation

    det(A)^{1/n} = (1/n) inf { tr(A B) : B > 0 hermitian, det B = 1 },

so the residual at an interior node is

    Theta(u)(x) = min_B [ L_B u(x) - n (beta(x) f(x))^{1/n} ]

with the minimum running over a fixed net of forms plus the per-node
adapted equality witness.  Each L_B is discretized monotonically
(eigenvalue-weighted snapped directional second differences, upwinded
drift), and the solution is the fixed point of the damped Jacobi sweep
u <- u + tau Theta(u) from a constructed strictly-psh quadratic
subsolution, with boundary nodes pinned to the datum.  For f = 0 the same
minimum degenerates to the smallest-member Bellman form of the homogeneous
cone equation.

Sweeps are Jacobi: the residual is evaluated against the previous iterate
for all nodes and then applied, with fixed reduction order, so runs are
deterministic.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .discretize import Policy, Stencil, snap_policy  # noqa: F401 (re-export)
from .lattice import LatticeDomain, ScalarField, fd_jets
from .psh import OperatorFamily, default_b_family, default_field_tol, field_margins
from .subeq import Subequation, margins_for_jets


class SolveError(RuntimeError):
    pass


@dataclass
class SchemeOptions:
    tol_res: float | None = None        # None: consistency-matched default
    max_iterations: int = 400000
    b_unitaries: int = 2                # unitaries per diagonal profile
    policy_refresh: int = 8
    init_c0: float = 0.3
    init_doubling_cap: int = 20
    safety: float = 0.9
    initialization: str = "quadratic-subsolution"   # or "field"
    initial_values: np.ndarray | None = None


@dataclass
class DirichletProblem:
    domain: LatticeDomain
    sub: Subequation
    boundary: Callable[[np.ndarray], np.ndarray]
    scheme: SchemeOptions = field(default_factory=SchemeOptions)

    def __post_init__(self):
        if self.domain.dim != self.sub.d:
            raise SolveError("domain dimension does not match the structure")

    def tol_res(self) -> float:
        """Consistency-matched default: second order for flat structures,
        first order once the upwinded drift term is present."""
        if self.scheme.tol_res is not None:
            return self.scheme.tol_res
        h = self.domain.h
        if self.sub.acx.constant_identity:
            return 0.5 * h ** 2
        return max(0.5 * h ** 2, 0.05 * h)

    def boundary_values(self) -> np.ndarray:
        vals = np.asarray(
            self.boundary(self.domain.node_coords[self.domain.boundary_ids]),
            dtype=float)
        if not np.all(np.isfinite(vals)):
            raise SolveError("boundary datum must be finite")
        return vals


@dataclass
class SolveReport:
    converged: bool
    iterations: int
    residual: float
    subsolution_margin: float
    dual_margin: float
    wall_clock: float
    init_c: float
    init_certified: bool
    tol_res: float
    message: str = ""

    def to_dict(self) -> dict:
        return {
            "converged": self.converged,
            "iterations": self.iterations,
            "residual": self.residual,
            "subsolution_margin": self.subsolution_margin,
            "dual_margin": self.dual_margin,
            "wall_clock": self.wall_clock,
            "init_c": self.init_c,
            "init_certified": self.init_certified,
            "tol_res": self.tol_res,
            "message": self.message,
        }


class BellmanOperator:
    """Discrete Bellman residual over the operator family of the problem:
    frozen fixed-net policies and a refreshable adapted policy, less the
    right-hand side."""

    def __init__(self, problem: DirichletProblem):
        self.problem = problem
        dom, sub = problem.domain, problem.sub
        self.family = OperatorFamily(
            sub, Stencil(dom), default_b_family(sub.n, problem.scheme.b_unitaries),
            include_adapted=sub.n > 1)
        self.nodes = self.family.stencil.nodes
        if sub.homogeneous:
            self.rhs = np.zeros(self.nodes.size)
        else:
            frame = self.family.frame
            f = sub.f_at(frame.pts)
            self.rhs = sub.n * (sub.beta_of(frame) * f) ** (1.0 / sub.n)

    def adapted_policy(self, values: np.ndarray) -> Policy | None:
        return self.family.adapted_policy(values)

    def residual(self, values: np.ndarray, adapted: Policy | None = None):
        """(theta, tau): Bellman residual over interior nodes and the CFL
        damping bound of the active policies."""
        best, active = self.family.min_value(values, adapted)
        coeffs = np.stack([p.ucoeff for p in self.family.policies(adapted)])
        cmax = float(np.max(coeffs[active, np.arange(active.size)]))
        return best - self.rhs, self.problem.scheme.safety / cmax


def bellman_residual(u: ScalarField, problem: DirichletProblem, node: int) -> float:
    """Residual Theta(u)(x) at a single interior node (fresh adapted witness)."""
    op = BellmanOperator(problem)
    theta, _ = op.residual(u.values, op.adapted_policy(u.values))
    rows = np.flatnonzero(op.nodes == node)
    if rows.size != 1:
        raise SolveError("node is not interior")
    return float(theta[rows[0]])


def _quadratic_init(problem: DirichletProblem, op: BellmanOperator,
                    bvals: np.ndarray):
    """Subsolution initialization min(phi) + C (|x - x0|^2 - R^2) with C
    doubled from c0 until the discrete residual certificate holds."""
    dom = problem.domain
    if dom.kind == "ball":
        x0, rr = dom.center, dom.radius
    else:
        lo = dom.origin
        hi = dom.origin + dom.h * (np.array(dom.shape) - 1)
        x0 = 0.5 * (lo + hi)
        rr = float(np.linalg.norm(hi - x0))
    base = ((dom.node_coords - x0) ** 2).sum(axis=1) - rr ** 2
    phimin = float(np.min(bvals))
    c = problem.scheme.init_c0
    certified = False
    for _ in range(problem.scheme.init_doubling_cap + 1):
        vals = phimin + c * base
        theta, _ = op.residual(vals, op.adapted_policy(vals))
        if float(np.min(theta)) >= -1e-12:
            certified = True
            break
        c *= 2.0
    return phimin + c * base, c, certified


def solve(problem: DirichletProblem) -> tuple[ScalarField, SolveReport]:
    """Damped Bellman iteration to the discrete Perron solution.

    On convergence the output carries a subsolution certificate (membership
    margin of every interior jet above -10 tol_res) and a supersolution
    certificate (dual margin of the negated jets above -10 tol_res);
    boundary nodes hold the datum exactly.  Non-convergence is reported in
    the flag, never raised; NaN or overflow is a hard error.
    """
    t0 = time.perf_counter()
    dom = problem.domain
    scheme = problem.scheme
    tol_res = problem.tol_res()
    op = BellmanOperator(problem)
    bvals = problem.boundary_values()

    if scheme.initialization == "field":
        if scheme.initial_values is None:
            raise SolveError("field initialization requires initial_values")
        values = np.asarray(scheme.initial_values, dtype=float).copy()
        if values.shape != (dom.n_nodes,):
            raise SolveError("initial_values does not match the domain")
        init_c, certified = 0.0, True
    elif scheme.initialization == "quadratic-subsolution":
        values, init_c, certified = _quadratic_init(problem, op, bvals)
    else:
        raise SolveError(f"unknown initialization {scheme.initialization!r}")
    values[dom.boundary_ids] = bvals

    interior = dom.interior_ids
    adapted = op.adapted_policy(values)
    refresh = max(1, scheme.policy_refresh)
    converged = False
    residual = np.inf
    it = 0
    while it < scheme.max_iterations:
        if op.family.include_adapted and it % refresh == 0 and it > 0:
            adapted = op.adapted_policy(values)
        theta, tau = op.residual(values, adapted)
        residual = float(np.max(np.abs(theta)))
        if not np.isfinite(residual):
            raise SolveError("iteration produced NaN or overflow")
        if residual <= tol_res:
            if op.family.include_adapted:
                adapted = op.adapted_policy(values)
                theta, tau = op.residual(values, adapted)
                residual = float(np.max(np.abs(theta)))
            if residual <= tol_res:
                converged = True
                break
        values[interior] += tau * theta
        it += 1

    out = ScalarField(dom, values)
    # the family's frame holds the structure at exactly these nodes
    margins, _, _ = margins_for_jets(problem.sub, op.family.frame,
                                     *fd_jets(out, interior))
    sub_margin = float(np.min(margins))
    dual_margin = float(-np.max(margins))
    report = SolveReport(
        converged=converged,
        iterations=it,
        residual=residual,
        subsolution_margin=sub_margin,
        dual_margin=dual_margin,
        wall_clock=time.perf_counter() - t0,
        init_c=init_c,
        init_certified=certified,
        tol_res=tol_res,
        message="" if certified else
        "subsolution certificate not reached within the doubling cap",
    )
    return out, report


# ---------------------------------------------------------------------------
# Comparison and maximality harnesses
# ---------------------------------------------------------------------------

@dataclass
class ComparisonVerdict:
    status: str            # "pass" | "fail" | "inconclusive"
    max_violation: float
    detail: str = ""

    def to_dict(self) -> dict:
        return {"status": self.status, "max_violation": self.max_violation,
                "detail": self.detail}


def comparison_check(u: ScalarField, w: ScalarField,
                     problem: DirichletProblem,
                     nodes: np.ndarray | None = None) -> ComparisonVerdict:
    """Sub/supersolution comparison on a sub-domain K.

    Preconditions (verified; their failure yields "inconclusive"): the
    candidate w must fail strict admissibility at every interior node of K
    (its negated jets must be dual-admissible), and u <= w + tol on the
    boundary of K.  Passing means u <= w + tol_cmp on all of K with
    tol_cmp = 10 (tol_res + h).
    """
    dom = problem.domain
    tol_cmp = 10.0 * (problem.tol_res() + dom.h)
    if nodes is None:
        interior = dom.interior_ids
        bnd = dom.boundary_ids
        all_nodes = np.arange(dom.n_nodes)
    else:
        nodes = np.asarray(nodes)
        interior = nodes[dom.node_class[nodes] == 2]
        bnd = nodes[dom.node_class[nodes] == 1]
        all_nodes = nodes

    # supersolution admissibility: w's jets must not be strictly interior,
    # i.e. at every node either the psh slack or the determinant slack is
    # non-positive (within tolerance)
    p, a = fd_jets(w, interior)
    margins, _, _ = margins_for_jets(
        problem.sub, problem.sub.acx.at(dom.node_coords[interior]), p, a)
    if float(np.max(margins)) > tol_cmp:
        return ComparisonVerdict(
            "inconclusive", float(np.max(margins)),
            "candidate is not a supersolution on K")
    bgap = float(np.max(u.values[bnd] - w.values[bnd]))
    if bgap > tol_cmp:
        return ComparisonVerdict("inconclusive", bgap,
                                 "u exceeds w on the boundary of K")
    gap = float(np.max(u.values[all_nodes] - w.values[all_nodes]))
    if gap <= tol_cmp:
        return ComparisonVerdict("pass", gap)
    return ComparisonVerdict("fail", gap)


@dataclass
class MaximalityVerdict:
    status: str
    checked: int
    skipped: int
    max_violation: float

    def to_dict(self) -> dict:
        return {"status": self.status, "checked": self.checked,
                "skipped": self.skipped, "max_violation": self.max_violation}


def default_competitors(u: ScalarField, problem: DirichletProblem,
                        count: int = 5, seed: int = 2024) -> list[ScalarField]:
    """Battery of admissible competitors below u on the boundary: downward
    shifts and maxima with strictly-psh quadratic caps dominated there."""
    from .rng import CounterRng

    rng = CounterRng(seed)
    dom = problem.domain
    coords = dom.node_coords
    bnd = dom.boundary_ids
    out = [ScalarField(dom, u.values - 0.25)]
    for _ in range(count - 1):
        a = np.array([rng.uniform(-0.3, 0.3) for _ in range(dom.dim)])
        c = rng.uniform(0.5, 1.5)
        quad = c * ((coords - a) ** 2).sum(axis=1)
        delta = rng.uniform(0.05, 0.2)
        shift = float(np.min(u.values[bnd] - quad[bnd])) - delta
        out.append(ScalarField(dom, np.maximum(u.values - delta, quad + shift)))
    return out


def maximality_check(u: ScalarField, problem: DirichletProblem,
                     competitors: list[ScalarField] | None = None) -> MaximalityVerdict:
    """No admissible competitor below u on the boundary may exceed u inside
    (the homogeneous-solution maximality property).  Competitors violating
    the boundary hypothesis or failing the admissibility margin are skipped
    as inconclusive."""
    if not problem.sub.homogeneous:
        raise SolveError("maximality check applies to the homogeneous equation")
    dom = problem.domain
    tol_cmp = 10.0 * (problem.tol_res() + dom.h)
    if competitors is None:
        competitors = default_competitors(u, problem)
    checked = skipped = 0
    worst = -np.inf
    for v in competitors:
        bgap = float(np.max(v.values[dom.boundary_ids]
                            - u.values[dom.boundary_ids]))
        if bgap > 1e-12:
            skipped += 1
            continue
        margins, _, _, _ = field_margins(v, problem.sub)
        tols = default_field_tol(v, dom.interior_ids)
        if np.any(margins < -np.maximum(tols, tol_cmp)):
            skipped += 1
            continue
        checked += 1
        worst = max(worst, float(np.max(v.values - u.values)))
    status = "pass" if (checked > 0 and worst <= tol_cmp) else (
        "inconclusive" if checked == 0 else "fail")
    return MaximalityVerdict(status, checked, skipped,
                             worst if checked else 0.0)
