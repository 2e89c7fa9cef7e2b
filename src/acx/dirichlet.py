"""Dirichlet solver for the almost-complex Monge-Ampere equation.

The inhomogeneous equation is written as a Bellman minimum over positive
unit-determinant hermitian forms through the arithmetic-geometric
determinant representation

    det(A)^{1/n} = (1/n) inf { tr(A B) : B > 0 hermitian, det B = 1 },

so the residual at an interior node is

    Theta(u)(x) = min_B [ L_B u(x) - n (beta(x) f(x))^{1/n} ]

with the minimum running over a set of forms: the identity, which is the
whole family for n = 1 and gives tr A where the witness is clipped, and,
for n > 1, adapted equality witnesses.  Each L_B is discretized
monotonically: B's eigenpairs, pushed through the structure's frame g,
write its coefficient g B_r g^T as rank-one terms, each a second
difference along a snapped lattice direction, and the drift is upwinded
(see ``psh.OperatorFamily`` and ``acx.discretize``).  For f = 0 the minimum
does not reduce to the homogeneous cone equation lambda_min(A_C) = 0.
Where A_C is degenerate the infimum over unit-determinant B is not
attained, and the clipped adapted witness (``psh.adapted_bstar``) stops
short of it: for n = 2 and A_C of rank one it gives
lambda_max(A_C) / _BSTAR_CLIP, so the residual at the exact solution
|z1|^2 + Re(z1 z2) is 0.25 on every lattice, and homogeneous solves for
n >= 2 stall.  The open fix is the rank-one witness on the eigenvector of
lambda_min(A_C) (ROADMAP item 3).

The discrete equation is solved in stages.  Within a stage the control
set is fixed: the identity and every witness refreshed so far, each
snapped once into a policy and kept.  Howard's policy iteration
(Bokanowski, Maroso & Zidani, SIAM J. Numer. Anal. 47, 2009) runs on that
set until its residual is at most 0.1 tol_res; each step freezes the
active member per node into one policy and solves its linear equation to
0.1 tol_res.  Then the witness is refreshed once, at the stage's
solution, from its centered jets.  The solve stops once max |Theta| over
the set and the fresh witness is at most tol_res; otherwise that witness
joins the set and the next stage starts from the same values, whose
residual failed that check, so every stage takes at least one Howard step
and the step cap also caps the member count.

Howard's convergence claim holds for the fixed set of a stage: a minimum
of monotone operators over a fixed set is monotone.  A minimum over a set
that moves with u, a witness refreshed from u's own jets at every step,
is not (raising one node can lower Theta elsewhere), so the witnesses
only ever join the set.  A larger set gives a smaller minimum, so each
stage's solution is a subsolution of the next stage's equation.

Howard starts at the constant max(datum) with boundary nodes pinned to
the datum: every member operator vanishes on constants, lowering boundary
values only lowers L_B u, and the right-hand side is nonnegative, so the
start is a discrete supersolution.  The first stage's set is the identity
alone (the whole family for n = 1, so an n = 1 solve is one stage).
Every member is monotone, which keeps the step count nearly independent
of h.  Reductions have a fixed order, so runs are deterministic.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from typing import Callable

import numpy as np

from .discretize import KrylovError, Policy, solve_frozen
from .lattice import LatticeDomain, ScalarField
from .psh import MarginContext, OperatorFamily, default_field_tol, field_margins
from .subeq import Subequation


class SolveError(RuntimeError):
    pass


@dataclass
class SchemeOptions:
    tol_res: float | None = None        # None: consistency-matched default
    max_iterations: int = 100           # Howard steps, over all stages


@dataclass
class DirichletProblem:
    domain: LatticeDomain
    sub: Subequation
    boundary: Callable[[np.ndarray], np.ndarray]
    scheme: SchemeOptions = field(default_factory=SchemeOptions)

    def __post_init__(self):
        if self.domain.dim != self.sub.d:
            raise SolveError("domain dimension does not match the structure")
        tol = self.scheme.tol_res
        if tol is not None and not (np.isfinite(tol) and tol >= 0.0):
            raise SolveError(
                f"scheme.tol_res must be finite and >= 0, got {tol}")
        if self.scheme.max_iterations < 0:
            raise SolveError("scheme.max_iterations must be >= 0, got "
                             f"{self.scheme.max_iterations}")

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
    iterations: int                     # Howard steps (linear solves), all stages
    refreshes: int                      # adapted-witness refreshes
    members: int                        # last stage's set, identity included
    residual: float
    subsolution_margin: float
    dual_margin: float
    wall_clock: float
    tol_res: float
    message: str = ""

    def to_dict(self) -> dict:
        return asdict(self)


class BellmanOperator:
    """Discrete Bellman residual over the operator family of the problem:
    the minimum of the frozen identity policy and the given member
    policies (adapted witnesses, from ``adapted_policy``), less the
    right-hand side."""

    def __init__(self, problem: DirichletProblem):
        self.problem = problem
        dom, sub = problem.domain, problem.sub
        self.family = OperatorFamily(sub, dom)
        self.nodes = self.family.stencil.nodes
        if sub.homogeneous:
            self.rhs = np.zeros(self.nodes.size)
        else:
            frame = self.family.frame
            f = sub.f_at(frame.pts)
            self.rhs = sub.n * (sub.beta_of(frame) * f) ** (1.0 / sub.n)

    def adapted_policy(self, values: np.ndarray) -> Policy | None:
        return self.family.adapted_policy(values)

    def residual(self, values: np.ndarray, *members: Policy):
        """(theta, active): Bellman residual over interior nodes for the
        minimum over the identity and ``members``, and the index of the
        active member per node (0 the identity, k ``members[k - 1]``)."""
        best, active = self.family.min_value(values, *members)
        return best - self.rhs, active


def _max_abs(theta: np.ndarray) -> float:
    out = float(np.max(np.abs(theta)))
    if not np.isfinite(out):
        raise SolveError("iteration produced NaN or overflow")
    return out


def solve(problem: DirichletProblem) -> tuple[ScalarField, SolveReport]:
    """Howard policy iteration to the discrete Perron solution, in stages
    over a control set that only grows (see the module docstring).

    A solve is converged when its residual is at most tol_res and it
    carries both certificates: a subsolution certificate (membership margin
    of every interior jet at least -10 tol_res) and a supersolution
    certificate (dual margin of the negated jets at least -10 tol_res);
    boundary nodes hold the datum exactly.  Non-convergence (the step cap,
    a linear solve that breaks down or misses its tolerance, or a failed
    certificate, named with its margin) is reported in the flag and the
    message, never raised; NaN or overflow is a hard error.
    """
    t0 = time.perf_counter()
    dom = problem.domain
    tol_res = problem.tol_res()
    op = BellmanOperator(problem)
    bvals = problem.boundary_values()
    values = np.full(dom.n_nodes, float(np.max(bvals)))
    values[dom.boundary_ids] = bvals

    cap = problem.scheme.max_iterations
    members = []            # the stage's witnesses, each snapped once
    refreshes = it = 0
    message = ""
    converged = False
    theta, active = op.residual(values)
    while True:
        residual = _max_abs(theta)
        if residual > 0.1 * tol_res and it < cap:
            # a Howard step on the stage's fixed set
            try:
                values = solve_frozen(op.family.active_policy(active, *members),
                                      values, op.rhs, 0.1 * tol_res)
            except KrylovError as exc:
                message = str(exc)
                break
            it += 1
            theta, active = op.residual(values, *members)
            continue
        # the stage ends (solved, or at the step cap): refresh the witness
        # once, at its solution
        fresh = op.adapted_policy(values)
        if fresh is not None:
            refreshes += 1
            theta, active = op.residual(values, *members, fresh)
            residual = _max_abs(theta)
        if residual <= tol_res:
            converged = True
            break
        if it >= cap:
            break
        # the next stage starts from this minimum, above 0.1 tol_res, so
        # it takes a Howard step: the step cap bounds the member count
        members.append(fresh)

    out = ScalarField(dom, values)
    # the family's margin context holds the jets and the structure at
    # exactly these nodes
    margins, _, _ = field_margins(out, op.family.margins)
    sub_margin = float(np.min(margins))
    dual_margin = float(-np.max(margins))
    if converged:
        band = 10.0 * tol_res
        failed = [f"{name} certificate failed: margin {margin:.3e} below "
                  f"-{band:.3e}"
                  for name, margin in (("subsolution", sub_margin),
                                       ("supersolution", dual_margin))
                  if margin < -band]
        converged = not failed
        message = "; ".join(failed)
    report = SolveReport(
        converged=converged,
        iterations=it,
        refreshes=refreshes,
        members=1 + len(members),
        residual=residual,
        subsolution_margin=sub_margin,
        dual_margin=dual_margin,
        wall_clock=time.perf_counter() - t0,
        tol_res=tol_res,
        message=message,
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


def comparison_check(u: ScalarField, w: ScalarField,
                     problem: DirichletProblem) -> ComparisonVerdict:
    """Sub/supersolution comparison on the problem's domain.

    Preconditions (verified; their failure yields "inconclusive"): the
    candidate w must fail strict admissibility at every interior node (its
    negated jets must be dual-admissible), and u <= w + tol_cmp on the
    boundary nodes.  Passing means u <= w + tol_cmp at every node, with
    tol_cmp = 10 (tol_res + h).  Both fields must be on the problem's
    domain.
    """
    dom = problem.domain
    u.require_on(dom)
    tol_cmp = 10.0 * (problem.tol_res() + dom.h)
    # supersolution admissibility: w's jets must not be strictly interior,
    # i.e. at every node either the psh slack or the determinant slack is
    # non-positive (within tolerance); the context on the problem's domain
    # rejects a w on another domain
    margins, _, _ = field_margins(w, MarginContext(problem.sub, dom))
    if float(np.max(margins)) > tol_cmp:
        return ComparisonVerdict(
            "inconclusive", float(np.max(margins)),
            "candidate is not a supersolution")
    bnd = dom.boundary_ids
    bgap = float(np.max(u.values[bnd] - w.values[bnd]))
    if bgap > tol_cmp:
        return ComparisonVerdict("inconclusive", bgap,
                                 "u exceeds w on the boundary")
    gap = float(np.max(u.values - w.values))
    if gap <= tol_cmp:
        return ComparisonVerdict("pass", gap)
    return ComparisonVerdict("fail", gap)


@dataclass
class MaximalityVerdict:
    status: str
    checked: int
    skipped: int
    max_violation: float


def default_competitors(u: ScalarField,
                        problem: DirichletProblem) -> list[ScalarField]:
    """Battery of five admissible competitors below u on the boundary: a
    downward shift and maxima with strictly-psh quadratic caps dominated
    there, drawn from a fixed seed."""
    from .rng import CounterRng

    rng = CounterRng(2024)
    dom = problem.domain
    coords = dom.node_coords
    bnd = dom.boundary_ids
    out = [ScalarField(dom, u.values - 0.25)]
    for _ in range(4):
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
    as inconclusive.  u and every competitor must be on the problem's
    domain."""
    if not problem.sub.homogeneous:
        raise SolveError("maximality check applies to the homogeneous equation")
    dom = problem.domain
    u.require_on(dom)
    tol_cmp = 10.0 * (problem.tol_res() + dom.h)
    if competitors is None:
        competitors = default_competitors(u, problem)
    ctx = MarginContext(problem.sub, dom)   # one for every competitor
    checked = skipped = 0
    worst = -np.inf
    for v in competitors:
        v.require_on(dom)   # before its boundary values are read
        bgap = float(np.max(v.values[dom.boundary_ids]
                            - u.values[dom.boundary_ids]))
        if bgap > 1e-12:
            skipped += 1
            continue
        margins, _, _ = field_margins(v, ctx)
        tols = default_field_tol(v, ctx)
        if np.any(margins < -np.maximum(tols, tol_cmp)):
            skipped += 1
            continue
        checked += 1
        worst = max(worst, float(np.max(v.values - u.values)))
    status = "pass" if (checked > 0 and worst <= tol_cmp) else (
        "inconclusive" if checked == 0 else "fail")
    return MaximalityVerdict(status, checked, skipped,
                             worst if checked else 0.0)
