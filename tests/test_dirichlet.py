import numpy as np
import pytest

from acx.algebra import make_structure
from acx.dirichlet import (
    BellmanOperator,
    DirichletProblem,
    SchemeOptions,
    SolveError,
    comparison_check,
    maximality_check,
    solve,
)
from acx.lattice import LatticeDomain, LatticeError, ScalarField
from acx.psh import MarginContext, field_margins
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
    op = BellmanOperator(prob)
    theta, _ = op.residual(u.values)
    assert theta[op.nodes == prob.domain.node_at(np.zeros(2))] == 0.0


def test_residual_zero_at_exact_solution_n2():
    dom = LatticeDomain.ball(np.zeros(4), 1.0, 9)
    sub = Subequation(make_structure("standard", n=2), rhs=constant_rhs(1.0))
    prob = DirichletProblem(dom, sub, abs2)
    u = ScalarField.from_vectorized(dom, abs2)
    op = BellmanOperator(prob)
    theta, _ = op.residual(u.values, op.adapted_policy(u.values))
    assert theta[op.nodes == dom.node_at(np.zeros(4))] == pytest.approx(
        0.0, abs=1e-12)


def quadratic_n2(c):
    """|z|^2 + Re(c1 z1^2 + c2 z1 z2 + c3 z2^2): an exact solution of
    det = 1 on the flat n = 2 structure (the perturbation is
    pluriharmonic)."""
    def phi(X):
        z1, z2 = X[:, 0] + 1j * X[:, 1], X[:, 2] + 1j * X[:, 3]
        return abs2(X) + (c[0] * z1 ** 2 + c[1] * z1 * z2 + c[2] * z2 ** 2).real
    return phi


def anisotropic_n2(a):
    """a |z1|^2 + |z2|^2 / a: complex hessian diag(a, 1/a), an exact
    solution of det = 1 on the flat n = 2 structure that the identity
    member alone does not solve (tr A = a + 1/a > 2)."""
    def phi(X):
        return a * abs2(X[:, :2]) + abs2(X[:, 2:]) / a
    return phi


def ball_n2(nodes, phi=abs2, preset="antilinear-linear-eps", eps=0.1,
            **scheme):
    kw = {"eps": eps, "generator": 3} if preset != "standard" else {}
    sub = Subequation(make_structure(preset, n=2, **kw),
                      rhs=constant_rhs(1.0))
    dom = LatticeDomain.ball(np.zeros(4), 1.0, nodes)
    return DirichletProblem(dom, sub, phi, SchemeOptions(**scheme))


@pytest.mark.parametrize("nodes", [9, 13])
def test_adapted_member_is_consistent_at_an_exact_solution(nodes):
    # the adapted witness is isotropic there (complex hessian I), so its
    # operator must be exact on the quadratic: the isotropic part goes on
    # the axes, and nothing is left for the eigenvector snap
    phi = quadratic_n2((0.1 - 0.1j, -0.1 + 0.1j, 0.1 + 0.1j))
    dom = LatticeDomain.ball(np.zeros(4), 1.0, nodes)
    sub = Subequation(make_structure("standard", n=2), rhs=constant_rhs(1.0))
    prob = DirichletProblem(dom, sub, phi)
    op = BellmanOperator(prob)
    values = phi(dom.node_coords)
    adapted = op.adapted_policy(values)
    theta, active = op.residual(values, adapted)
    assert np.max(np.abs(theta)) <= 1e-12
    assert np.any(active == 1)   # the adapted member: index 1, after I
    _, rep = solve(prob)
    band = 10 * prob.tol_res()
    assert rep.converged
    assert rep.subsolution_margin >= -band and rep.dual_margin >= -band


def test_residual_vanishes_on_pluriharmonic_homogeneous():
    prob = disc_problem(f=None)
    u = ScalarField.from_vectorized(
        prob.domain, lambda X: X[:, 0] ** 2 - X[:, 1] ** 2)
    op = BellmanOperator(prob)
    theta, _ = op.residual(u.values)
    assert theta[op.nodes == prob.domain.node_at(np.zeros(2))] == 0.0


def test_residual_positive_when_overcurved():
    # strictly psh with determinant above the right-hand side
    prob = disc_problem(f=1.0)
    u = ScalarField.from_vectorized(prob.domain, lambda X: 2 * abs2(X))
    op = BellmanOperator(prob)
    theta, _ = op.residual(u.values)
    assert theta[op.nodes == prob.domain.node_at(np.zeros(2))] > 0.5


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


def test_solve_nonconvergence_flag():
    # n = 1 is linear and converges in one Howard step; a cap of 0 stops it
    # at the start, the constant max(datum) inside the boundary datum
    prob = disc_problem(f=1.0, nodes=17, max_iterations=0)
    u, rep = solve(prob)
    assert not rep.converged and rep.iterations == 0
    assert rep.residual > rep.tol_res
    dom = prob.domain
    datum = prob.boundary(dom.node_coords[dom.boundary_ids])
    assert np.all(u.values[dom.interior_ids] == np.max(datum))


def test_solve_reports_a_failed_linear_solve():
    # a zero tolerance is out of reach in floating point, so the first
    # linear solve misses it: a flag and a message, not a hang
    prob = disc_problem(f=1.0, nodes=17, tol_res=0.0)
    _, rep = solve(prob)
    assert not rep.converged and rep.iterations == 0
    assert "missed its tolerance" in rep.message


def test_howard_steps_do_not_grow_as_h_shrinks():
    steps = []
    for nodes in (33, 65, 129):
        _, rep = solve(disc_problem(f=1.0, nodes=nodes))
        assert rep.converged
        steps.append(rep.iterations)
    assert steps[0] == steps[1] == steps[2]
    acx = make_structure("antilinear-linear-eps", n=2, eps=0.1, generator=3)
    for nodes in (9, 13):
        dom = LatticeDomain.ball(np.zeros(4), 1.0, nodes)
        _, rep = solve(DirichletProblem(
            dom, Subequation(acx, rhs=constant_rhs(1.0)), abs2))
        assert rep.converged and rep.iterations <= 6


def test_solve_evaluates_the_structure_a_fixed_number_of_times():
    # the operator family evaluates the structure once for its node set;
    # every adapted refresh and the certificate margins read that
    # evaluation, so the structure is evaluated once whatever the Howard
    # step count (this solve needs 6 steps, so both caps stop it)
    def evaluations(max_iterations):
        prob = ball_n2(9, anisotropic_n2(2.0), max_iterations=max_iterations)
        calls = []
        evaluate = prob.sub.acx.evaluate
        prob.sub.acx.evaluate = lambda pts: calls.append(1) or evaluate(pts)
        _, rep = solve(prob)
        assert rep.iterations == max_iterations
        return len(calls)

    assert evaluations(1) == evaluations(2) == 1


def count_calls(monkeypatch, owner, name):
    calls = []
    method = getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda self, *a: calls.append(1)
                        or method(self, *a))
    return calls


def test_solve_snaps_each_witness_once(monkeypatch):
    # a stage keeps its set fixed; the witness is refreshed once per stage,
    # at its solution, and snapped once: it certifies the exit or joins the
    # set for good.  Every stage takes a Howard step, so the refreshes are
    # at most the steps plus one
    from acx.psh import OperatorFamily

    refreshes = count_calls(monkeypatch, BellmanOperator, "adapted_policy")
    snaps = count_calls(monkeypatch, OperatorFamily, "_snap")
    _, rep = solve(ball_n2(9, anisotropic_n2(2.0)))
    assert rep.converged and rep.refreshes > 1
    assert len(refreshes) == rep.refreshes <= rep.iterations + 1
    assert len(snaps) == 1 + rep.refreshes     # the identity, then witnesses
    assert rep.members == rep.refreshes        # all but the last joined


def test_solve_refresh_and_snap_counts(monkeypatch):
    # the 13^4 ball of the benchmark's isotropic datum: at most 2 refreshes
    # and 3 snaps (5 and 6 when the witness was refreshed every step)
    from acx.psh import OperatorFamily

    snaps = count_calls(monkeypatch, OperatorFamily, "_snap")
    _, rep = solve(ball_n2(13))
    assert rep.converged
    assert rep.refreshes <= 2 and len(snaps) <= 3
    # one step: not converged, and the set holds at most the identity and
    # one witness
    _, rep = solve(ball_n2(13, anisotropic_n2(2.0), max_iterations=1))
    assert not rep.converged and rep.iterations == 1
    assert rep.members <= 2 and rep.message == ""


@pytest.mark.parametrize("phi", [
    anisotropic_n2(3.0),
    quadratic_n2((0.2 - 0.2j, -0.2 + 0.2j, 0.2 + 0.2j)),
], ids=["anisotropic", "quadratic"])
def test_staged_solve_converges_with_certificates(phi):
    # two 17^4 solves that went wrong while the witness was refreshed at
    # every step and dropped at the next: the anisotropic one converged
    # with a subsolution margin of -1.88 against a band of 0.078, and the
    # quadratic one stopped at the 100-step cap (residual 1.44e-2 against
    # a tol_res of 7.81e-3)
    prob = ball_n2(17, phi)
    _, rep = solve(prob)
    band = 10 * prob.tol_res()
    assert rep.converged
    assert rep.subsolution_margin >= -band and rep.dual_margin >= -band


def hard_n2(X):
    """2|z1|^2 + |z2|^2/2 + Re(0.4(1 - i) z1 conj(z2)) + 0.3 Re(z1^2)
    + 0.2 x1^3: anisotropic, rotated and not quadratic, so a solve needs
    several stages."""
    z1, z2 = X[:, 0] + 1j * X[:, 1], X[:, 2] + 1j * X[:, 3]
    return (2 * np.abs(z1) ** 2 + np.abs(z2) ** 2 / 2
            + (0.4 * (1 - 1j) * z1 * np.conj(z2)).real
            + 0.3 * (z1 ** 2).real + 0.2 * X[:, 0] ** 3)


def rotated_n2(a):
    """z^* H z with H = U diag(a, 1/a) U^*, U the unitary QR factor of a
    seeded complex matrix: an exact solution of det = 1 on the flat n = 2
    structure whose eigenvectors no lattice direction follows."""
    u = np.linalg.qr(CounterRng(11).complex_normals((2, 2)))[0]
    hmat = u @ np.diag([a, 1.0 / a]) @ u.conj().T

    def phi(X):
        z = np.stack([X[:, 0] + 1j * X[:, 1], X[:, 2] + 1j * X[:, 3]], axis=1)
        return np.einsum("ni,ij,nj->n", z.conj(), hmat, z).real
    return phi


@pytest.mark.parametrize("nodes", [9, 13])
def test_non_flat_path_at_eps_zero_gives_the_flat_solve(nodes):
    # eps = 0 makes g = I and J = J0 through the non-flat code path: the
    # pushed terms are then the flat ones, so the solve and its report are
    # the standard structure's (the eigendecomposition of S took 70 steps
    # and 45 members on 13^4, 9.2e-3 away)
    flat_u, flat = solve(ball_n2(nodes, hard_n2, preset="standard"))
    sub = Subequation(make_structure("antilinear-linear-eps", n=2, eps=0.0,
                                     generator=3), rhs=constant_rhs(1.0))
    prob = DirichletProblem(LatticeDomain.ball(np.zeros(4), 1.0, nodes), sub,
                            hard_n2)
    u, rep = solve(prob)
    assert flat.converged and rep.converged and flat.members > 2
    assert np.max(np.abs(u.values - flat_u.values)) <= 1e-12
    for key in ("iterations", "refreshes", "members", "tol_res", "message"):
        assert getattr(rep, key) == getattr(flat, key)
    for key in ("residual", "subsolution_margin", "dual_margin"):
        assert abs(getattr(rep, key) - getattr(flat, key)) <= 1e-12


def test_hard_datum_certifies_on_a_perturbed_structure():
    # eps = 0.02 on 13^4: 20 steps, 12 members and a subsolution margin of
    # -0.785 against a band of 0.139 while S was diagonalized with eigh
    prob = ball_n2(13, hard_n2, eps=0.02)
    _, rep = solve(prob)
    band = 10 * prob.tol_res()
    assert rep.converged and rep.members <= 8
    assert rep.subsolution_margin >= -band and rep.dual_margin >= -band


def test_failed_certificate_is_not_converged():
    # the rotated a = 2 quadratic on the flat 17^4 ball meets its residual
    # but misses the subsolution band (-0.216 against 0.078): the snap of
    # its anisotropic witness (ROADMAP item 1)
    prob = ball_n2(17, rotated_n2(2.0), preset="standard")
    _, rep = solve(prob)
    band = 10 * prob.tol_res()
    assert rep.residual <= rep.tol_res
    assert rep.subsolution_margin < -band <= rep.dual_margin
    assert not rep.converged
    assert rep.message == (f"subsolution certificate failed: margin "
                           f"{rep.subsolution_margin:.3e} below -{band:.3e}")


@pytest.mark.parametrize("preset", ["standard", "antilinear-linear-eps"])
@pytest.mark.parametrize("field", ["converged-13", "noisy-9"])
def test_stage_residual_is_monotone(preset, field):
    # the scheme of a stage: raising one node never lowers the residual
    # over a fixed member set at another node (a witness refreshed from the
    # raised values would)
    if field == "converged-13":
        prob = ball_n2(13, preset=preset)
        u, rep = solve(prob)
        assert rep.converged
        values = u.values
    else:
        prob = ball_n2(9, preset=preset)
        values = (abs2(prob.domain.node_coords)
                  + 0.1 * CounterRng(7).normals((prob.domain.n_nodes,)))
    x = prob.domain.node_coords
    op = BellmanOperator(prob)
    members = (op.adapted_policy(values),
               op.adapted_policy(abs2(x) + 0.05 * x[:, 0] ** 3))
    theta0, active = op.residual(values, *members)
    assert set(np.unique(active)) >= {0, 1}
    rng = CounterRng(11)
    for raise_by in (1e-6, 1e-3):
        for _ in range(10):
            row = int(rng.uniform(0, op.nodes.size - 1e-9))
            raised = values.copy()
            raised[op.nodes[row]] += raise_by
            theta1, _ = op.residual(raised, *members)
            others = np.arange(op.nodes.size) != row
            assert np.min(theta1[others] - theta0[others]) >= -1e-12


def test_solve_n3_on_a_ball():
    # the smallest n = 3 solve: a 9^6 ball (245 interior nodes, none with
    # the whole radius-2 stencil) and a non-flat structure
    dom = LatticeDomain.ball(np.zeros(6), 1.0, 9)
    acx = make_structure("antilinear-slice-compatible", n=3, m=1, eps=0.05)
    prob = DirichletProblem(dom, Subequation(acx, rhs=constant_rhs(1.0)), abs2)
    u, rep = solve(prob)
    assert rep.converged
    band = 10 * prob.tol_res()
    assert rep.subsolution_margin >= -band
    assert rep.dual_margin >= -band
    bnd = dom.boundary_ids
    assert np.array_equal(u.values[bnd], abs2(dom.node_coords[bnd]))


def test_solve_rejects_bad_boundary():
    prob = disc_problem(f=1.0, phi=lambda X: np.full(X.shape[0], np.inf))
    with pytest.raises(SolveError):
        solve(prob)


@pytest.mark.parametrize("scheme,hint", [
    ({"tol_res": np.nan}, "tol_res"),
    ({"tol_res": np.inf}, "tol_res"),
    ({"tol_res": -1e-3}, "tol_res"),
    ({"max_iterations": -1}, "max_iterations"),
], ids=["nan-tol", "inf-tol", "negative-tol", "negative-cap"])
def test_problem_rejects_out_of_range_scheme(scheme, hint):
    # a NaN tolerance used to loop forever in solve, an infinite one to
    # report convergence at the constant start
    with pytest.raises(SolveError, match=hint):
        disc_problem(f=1.0, **scheme)


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


def test_comparison_fails_when_the_candidate_rises_above_w():
    # w = |x|^2 + 0.1 is a supersolution of f = 1; the candidate adds a bump
    # of height a inside |x| < 0.5, so the interior gap is a - 0.1 against
    # tol_cmp = 10 (tol_res + h), about 0.645 at h = 1/16
    prob = disc_problem(f=1.0, nodes=33)
    dom = prob.domain
    u = ScalarField.from_vectorized(dom, abs2)
    w = ScalarField(dom, u.values + 0.1)
    bump = np.maximum(0.0, 1.0 - abs2(dom.node_coords) / 0.25)
    tol_cmp = 10.0 * (prob.tol_res() + dom.h)
    for a, status in ((0.7, "pass"), (1.0, "fail")):
        verdict = comparison_check(ScalarField(dom, u.values + a * bump), w,
                                   prob)
        assert verdict.status == status
        assert verdict.max_violation == pytest.approx(a - 0.1)
        assert (verdict.max_violation <= tol_cmp) == (status == "pass")


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
    # below u on the boundary but strictly superharmonic: skipped as well
    r2 = abs2(prob.domain.node_coords)
    r2_bnd = float(np.min(r2[prob.domain.boundary_ids]))
    concave = ScalarField(prob.domain, u.values - 0.1 - 2.0 * (r2 - r2_bnd))
    verdict3 = maximality_check(u, prob, competitors=[concave])
    assert (verdict3.status, verdict3.checked, verdict3.skipped) == (
        "inconclusive", 0, 1)


def shifted_disc():
    """The 17-node disc shifted by 0.5: as many nodes as the problem's
    disc, so its values line up with the problem's nodes."""
    return LatticeDomain.ball(np.array([0.5, 0.0]), 1.0, 17)


def test_comparison_rejects_a_supersolution_on_a_shifted_disc():
    # read against the problem's nodes, |x|^2 sampled on the shifted disc
    # stays within tol_cmp of u (gap 0.75 < 1.33) and used to pass
    prob = disc_problem(f=1.0, nodes=17)
    u = ScalarField.from_vectorized(prob.domain, abs2)
    w = ScalarField.from_vectorized(shifted_disc(), abs2)
    with pytest.raises(LatticeError, match="domain"):
        comparison_check(u, w, prob)


def test_maximality_rejects_a_field_on_a_shifted_disc():
    # the default competitors are built on the problem's domain from u's
    # values, so a u sampled elsewhere used to pass
    prob = disc_problem(f=None, nodes=17)
    u = ScalarField.from_vectorized(shifted_disc(), abs2)
    with pytest.raises(LatticeError, match="domain"):
        maximality_check(u, prob)


def test_maximality_requires_homogeneous():
    prob = disc_problem(f=1.0, nodes=17)
    u, _ = solve(prob)
    with pytest.raises(SolveError):
        maximality_check(u, prob)


def test_maximality_evaluates_the_structure_once():
    # one margin context serves every competitor of the default battery
    prob = disc_problem(f=None, nodes=17)
    u, _ = solve(prob)
    calls = []
    evaluate = prob.sub.acx.evaluate
    prob.sub.acx.evaluate = lambda pts: calls.append(1) or evaluate(pts)
    verdict = maximality_check(u, prob)
    assert verdict.status == "pass" and verdict.checked == 5
    assert len(calls) == 1


def test_solve_builds_one_jet_table(monkeypatch):
    # the adapted refreshes and the certificate read the family's table
    from acx import lattice

    built = []
    init = lattice.JetTable.__init__
    monkeypatch.setattr(lattice.JetTable, "__init__",
                        lambda self, *a: built.append(1) or init(self, *a))
    _, rep = solve(ball_n2(9, anisotropic_n2(2.0)))
    assert rep.converged and rep.iterations > 1
    assert len(built) == 1


def test_solve_certificates_reuse_the_last_refresh(monkeypatch):
    # the certificate reads the complex hessians of the last adapted
    # refresh: one jet gathering per refresh, and the same margins, bit
    # for bit, as a fresh margin context
    from acx import lattice

    jets = count_calls(monkeypatch, lattice.JetTable, "jets")
    prob = ball_n2(9, anisotropic_n2(2.0))
    u, rep = solve(prob)
    assert rep.converged and rep.refreshes > 1
    assert len(jets) == rep.refreshes
    margins, _, _ = field_margins(u, MarginContext(prob.sub, prob.domain))
    assert rep.subsolution_margin == float(np.min(margins))
    assert rep.dual_margin == float(-np.max(margins))
