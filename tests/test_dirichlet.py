import numpy as np
import pytest

from acx.algebra import make_structure
from acx.dirichlet import (
    BellmanOperator,
    DirichletProblem,
    SchemeOptions,
    SolveError,
    bellman_residual,
    comparison_check,
    maximality_check,
    solve,
)
from acx.lattice import LatticeDomain, ScalarField
from acx.rng import CounterRng
from acx.subeq import Subequation, constant_rhs


def abs2(X):
    return (X ** 2).sum(axis=1)


def disc_problem(f=1.0, nodes=17, phi=abs2, acx=None, **scheme):
    acx = acx or make_structure("standard", n=1)
    sub = Subequation(acx, rhs=None if f is None else constant_rhs(f))
    dom = LatticeDomain.ball(np.zeros(2), 1.0, nodes)
    return DirichletProblem(dom, sub, phi, SchemeOptions(**scheme))


# ---------------------------------------------------------------------------
# residual
# ---------------------------------------------------------------------------

def test_residual_zero_at_exact_solution():
    prob = disc_problem(f=1.0)
    u = ScalarField.from_vectorized(prob.domain, abs2)
    node = prob.domain.node_at(np.zeros(2))
    assert bellman_residual(u, prob, node) == 0.0


def test_residual_zero_at_exact_solution_n2():
    dom = LatticeDomain.ball(np.zeros(4), 1.0, 9)
    sub = Subequation(make_structure("standard", n=2), rhs=constant_rhs(1.0))
    prob = DirichletProblem(dom, sub, abs2)
    u = ScalarField.from_vectorized(dom, abs2)
    node = dom.node_at(np.zeros(4))
    assert bellman_residual(u, prob, node) == pytest.approx(0.0, abs=1e-12)


def test_residual_vanishes_on_pluriharmonic_homogeneous():
    prob = disc_problem(f=None)
    u = ScalarField.from_vectorized(
        prob.domain, lambda X: X[:, 0] ** 2 - X[:, 1] ** 2)
    node = prob.domain.node_at(np.zeros(2))
    assert bellman_residual(u, prob, node) == 0.0


def test_residual_positive_when_overcurved():
    # strictly psh with determinant above the right-hand side
    prob = disc_problem(f=1.0)
    u = ScalarField.from_vectorized(prob.domain, lambda X: 2 * abs2(X))
    node = prob.domain.node_at(np.zeros(2))
    assert bellman_residual(u, prob, node) > 0.5


def test_scheme_monotone_in_neighbor_values():
    # degenerate-ellipticity contract with frozen policies: raising any
    # neighbor value never decreases the residual elsewhere
    dom = LatticeDomain.ball(np.zeros(4), 0.8, 9)
    sub = Subequation(make_structure("standard", n=2), rhs=constant_rhs(0.5))
    prob = DirichletProblem(dom, sub, abs2)
    op = BellmanOperator(prob)
    rng = CounterRng(7)
    values = abs2(dom.node_coords) + 0.1 * rng.normals((dom.n_nodes,))
    adapted = op.adapted_policy(values)
    theta0, _ = op.residual(values, adapted)
    for _ in range(12):
        k = int(rng.uniform(0, dom.n_nodes - 1e-9))
        bumped = values.copy()
        bumped[k] += rng.uniform(0.05, 0.4)
        theta1, _ = op.residual(bumped, adapted)
        rows = np.flatnonzero(op.nodes != k)
        assert np.min(theta1[rows] - theta0[rows]) >= -1e-12


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def test_solve_exact_quadratic_small():
    prob = disc_problem(f=1.0, nodes=17)
    u, rep = solve(prob)
    assert rep.converged
    err = np.max(np.abs(u.values - abs2(prob.domain.node_coords)))
    assert err <= 5e-2
    band = 10 * prob.tol_res()
    assert rep.subsolution_margin >= -band
    assert rep.dual_margin >= -band
    bnd = prob.domain.boundary_ids
    assert np.array_equal(u.values[bnd],
                          prob.boundary(prob.domain.node_coords[bnd]))


def test_solve_initialization_doubles_until_certified():
    prob = disc_problem(f=1.0, nodes=17)
    _, rep = solve(prob)
    # the quadratic needs unit determinant: 0.3 -> 0.6 -> 1.2
    assert rep.init_c == pytest.approx(1.2)
    assert rep.init_certified


def test_solve_nonconvergence_flag():
    prob = disc_problem(f=1.0, nodes=17, max_iterations=1)
    _, rep = solve(prob)
    assert not rep.converged and rep.iterations == 1


def test_solve_evaluates_the_structure_a_fixed_number_of_times():
    # the operator family evaluates the structure once for its node set;
    # every adapted refresh and the certificate margins read that
    # evaluation, so the generator runs once whatever the sweep count
    def generator_calls(max_iterations):
        acx = make_structure("antilinear-linear-eps", n=2, eps=0.1, generator=3)
        calls = []
        generator = acx.generator
        acx.generator = lambda pts: calls.append(1) or generator(pts)
        dom = LatticeDomain.ball(np.zeros(4), 1.0, 9)
        scheme = SchemeOptions(max_iterations=max_iterations, policy_refresh=1)
        _, rep = solve(DirichletProblem(
            dom, Subequation(acx, rhs=constant_rhs(1.0)), abs2, scheme))
        assert rep.iterations == max_iterations
        return len(calls)

    assert generator_calls(5) == generator_calls(20) == 1


def test_solve_n3_on_a_ball():
    # the smallest n = 3 solve: a 9^6 ball (245 interior nodes, none with
    # the whole radius-2 stencil) and a non-flat structure
    dom = LatticeDomain.ball(np.zeros(6), 1.0, 9)
    acx = make_structure("antilinear-slice-compatible", n=3, m=1, eps=0.05)
    prob = DirichletProblem(dom, Subequation(acx, rhs=constant_rhs(1.0)), abs2)
    u, rep = solve(prob)
    assert rep.converged and rep.init_certified
    band = 10 * prob.tol_res()
    assert rep.subsolution_margin >= -band
    assert rep.dual_margin >= -band
    bnd = dom.boundary_ids
    assert np.array_equal(u.values[bnd], abs2(dom.node_coords[bnd]))


def test_solve_rejects_bad_boundary():
    prob = disc_problem(f=1.0, phi=lambda X: np.full(X.shape[0], np.inf))
    with pytest.raises(SolveError):
        solve(prob)


def test_solve_field_initialization():
    prob = disc_problem(f=1.0, nodes=17)
    warm = abs2(prob.domain.node_coords) - 0.05
    prob.scheme.initialization = "field"
    prob.scheme.initial_values = warm
    u, rep = solve(prob)
    assert rep.converged
    assert np.max(np.abs(u.values - abs2(prob.domain.node_coords))) <= 5e-2


def test_mesh_refinement_errors_decrease():
    errs = []
    for nodes in (17, 33, 65):   # h = 1/8, 1/16, 1/32
        prob = disc_problem(f=1.0, nodes=nodes)
        u, rep = solve(prob)
        assert rep.converged
        errs.append(np.max(np.abs(u.values - abs2(prob.domain.node_coords))))
    assert errs[0] > errs[1] > errs[2]


def test_f_monotonicity():
    # more curvature pushes the solution down
    sols = {}
    for f in (0.0, 0.5, 1.0):
        prob = disc_problem(f=f, nodes=17)
        u, rep = solve(prob)
        assert rep.converged
        sols[f] = u.values
    tol_cmp = 10 * (disc_problem(f=1.0, nodes=17).tol_res() + 1 / 8)
    assert np.max(sols[1.0] - sols[0.5]) <= tol_cmp
    assert np.max(sols[0.5] - sols[0.0]) <= tol_cmp


# ---------------------------------------------------------------------------
# comparison and maximality
# ---------------------------------------------------------------------------

def test_comparison_examples():
    prob = disc_problem(f=1.0, nodes=17)
    u, _ = solve(prob)
    exact = ScalarField.from_vectorized(prob.domain, abs2)
    assert comparison_check(u, exact, prob).status == "pass"
    assert comparison_check(u, u, prob).status == "pass"


def test_comparison_zero_supersolution_homogeneous():
    prob = disc_problem(f=None, nodes=17)
    dom = prob.domain
    u = ScalarField.from_vectorized(dom, lambda X: abs2(X) - 1.0)
    w = ScalarField(dom, np.zeros(dom.n_nodes))
    assert comparison_check(u, w, prob).status == "pass"


def test_comparison_inconclusive_on_boundary_violation():
    prob = disc_problem(f=1.0, nodes=17)
    u, _ = solve(prob)
    w = ScalarField(prob.domain, u.values - 5.0)
    verdict = comparison_check(u, w, prob)
    assert verdict.status == "inconclusive"


def test_comparison_rejects_subsolution_candidate():
    # a strictly overcurved candidate is interior, hence not a supersolution
    prob = disc_problem(f=1.0, nodes=17)
    u, _ = solve(prob)
    w = ScalarField.from_vectorized(prob.domain, lambda X: 5 * abs2(X) + 10)
    assert comparison_check(u, w, prob).status == "inconclusive"


def test_maximality_battery():
    prob = disc_problem(f=None, nodes=17)
    u, rep = solve(prob)
    assert rep.converged
    verdict = maximality_check(u, prob)
    assert verdict.status == "pass"
    assert verdict.checked >= 1
    # a competitor above the boundary values must be skipped
    high = ScalarField(prob.domain, u.values + 0.5)
    verdict2 = maximality_check(u, prob, competitors=[high])
    assert verdict2.status == "inconclusive" and verdict2.skipped == 1


def test_maximality_requires_homogeneous():
    prob = disc_problem(f=1.0, nodes=17)
    u, _ = solve(prob)
    with pytest.raises(SolveError):
        maximality_check(u, prob)
