"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line.  Tolerances are pinned here, not configured elsewhere; the two
quantitative anchors are the spherical-metric surface Laplacian value
2 - 2C/r and the exact Monge-Ampere solution u = |z|^2 for constant unit
right-hand side on the unit ball."""

import time

import numpy as np

from acx.algebra import (
    complexify,
    make_structure,
    pullback,
    realify,
    standard_j,
)
from acx.dirichlet import (
    DirichletProblem,
    SchemeOptions,
    comparison_check,
    maximality_check,
    solve,
)
from acx.lattice import LatticeDomain, ScalarField
from acx.metrics import example95_report
from acx.rng import CounterRng
from acx.subeq import Subequation, constant_rhs
from acx.suite import (
    SuiteConfig,
    blaplacian_agreement_battery,
    linear_triangle_battery,
    regularization_case,
    restriction_battery,
)


def abs2(X):
    return (X ** 2).sum(axis=1)


def report(num, ok, detail):
    print(f"ACCEPTANCE {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_01_surface_laplacian_values():
    t0 = time.perf_counter()
    r1 = example95_report(2.0, 1.0)
    r2 = example95_report(1.0, 1.0)
    elapsed = time.perf_counter() - t0
    ok = (r1.deviation <= 1e-2 and abs(r1.reference_value + 2.0) < 1e-12
          and r2.deviation <= 1e-2 and abs(r2.reference_value) < 1e-12
          and elapsed < 5.0)
    report(1, ok, f"Delta_Sigma(0): {r1.laplace_beltrami_origin:.5f} vs -2, "
                  f"{r2.laplace_beltrami_origin:.5f} vs 0; {elapsed:.2f}s")


def test_criterion_02_exact_solution_n1():
    t0 = time.perf_counter()
    errs = {}
    for nodes in (65, 129):   # h = 1/32, 1/64
        dom = LatticeDomain.ball(np.zeros(2), 1.0, nodes)
        sub = Subequation(make_structure("standard", n=1),
                          rhs=constant_rhs(1.0))
        u, rep = solve(DirichletProblem(dom, sub, abs2))
        assert rep.converged
        errs[nodes] = float(np.max(np.abs(u.values - abs2(dom.node_coords))))
    elapsed = time.perf_counter() - t0
    ok = errs[65] <= 5e-2 and errs[129] < errs[65] and elapsed < 60.0
    report(2, ok, f"sup errors h=1/32: {errs[65]:.2e}, h=1/64: "
                  f"{errs[129]:.2e}; {elapsed:.1f}s")


def test_criterion_03_exact_solution_n2():
    t0 = time.perf_counter()
    dom = LatticeDomain.ball(np.zeros(4), 1.0, 25)   # within the 33-node cap
    sub = Subequation(make_structure("standard", n=2), rhs=constant_rhs(1.0))
    prob = DirichletProblem(dom, sub, abs2)
    u, rep = solve(prob)
    err = float(np.max(np.abs(u.values - abs2(dom.node_coords))))
    elapsed = time.perf_counter() - t0
    ok = rep.converged and err <= 1e-1 and elapsed < 600.0
    report(3, ok, f"sup error {err:.2e} on 25^4 lattice; {elapsed:.0f}s")


def _dense_harmonic_oracle(dom, bvals):
    """Independent linear solve of the same five-point harmonic system."""
    interior = dom.interior_ids
    col = {int(n): k for k, n in enumerate(interior)}
    amat = np.zeros((interior.size, interior.size))
    rhs = np.zeros(interior.size)
    for k, n in enumerate(interior):
        amat[k, k] = -4.0
        for off in ([1, 0], [-1, 0], [0, 1], [0, -1]):
            nb = int(dom.neighbor_ids(np.array([n]), np.array(off))[0])
            if nb in col:
                amat[k, col[nb]] += 1.0
            else:
                rhs[k] -= bvals[nb]
    out = np.full(dom.n_nodes, np.nan)
    out[interior] = np.linalg.solve(amat, rhs)
    out[dom.boundary_ids] = bvals[dom.boundary_ids]
    return out


def test_criterion_04_homogeneous_matches_independent_solve():
    t0 = time.perf_counter()
    dom = LatticeDomain.ball(np.zeros(2), 1.0, 33)
    sub = Subequation(make_structure("standard", n=1))
    data = [
        lambda X: np.real((X[:, 0] + 1j * X[:, 1]) ** 3),
        lambda X: np.imag((X[:, 0] + 1j * X[:, 1]) ** 2)
        + 0.5 * np.real((X[:, 0] + 1j * X[:, 1]) ** 4),
        lambda X: 1.0 + np.real((X[:, 0] + 1j * X[:, 1]) ** 2)
        - 0.3 * np.imag((X[:, 0] + 1j * X[:, 1]) ** 3),
    ]
    worst = 0.0
    for phi in data:
        prob = DirichletProblem(dom, sub, phi, SchemeOptions(tol_res=1e-6))
        u, rep = solve(prob)
        assert rep.converged
        bvals = np.full(dom.n_nodes, np.nan)
        bvals[dom.boundary_ids] = phi(dom.node_coords[dom.boundary_ids])
        oracle = _dense_harmonic_oracle(dom, bvals)
        worst = max(worst, float(np.max(np.abs(u.values - oracle))))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-3 and elapsed < 60.0
    report(4, ok, f"worst deviation from the independent harmonic solve "
                  f"{worst:.2e}; {elapsed:.1f}s")


def test_criterion_05_perturbed_structure_solves():
    acx = make_structure("antilinear-linear-eps", n=1, eps=0.1, generator=0)
    details = []
    ok = True
    for fconst in (0.0, 1.0):
        dom = LatticeDomain.ball(np.zeros(2), 1.0, 33)
        sub = Subequation(acx, rhs=None if fconst == 0.0
                          else constant_rhs(fconst))
        prob = DirichletProblem(dom, sub, abs2)
        u, rep = solve(prob)
        band = 10.0 * prob.tol_res()
        ok &= rep.converged
        ok &= rep.subsolution_margin >= -band
        ok &= rep.dual_margin >= -band
        # five verified supersolutions
        coords = dom.node_coords
        bnd = dom.boundary_ids
        rng = CounterRng(5150 + int(fconst))
        supers = [ScalarField(dom, u.values + 0.1),
                  ScalarField(dom, u.values + 0.5)]
        if fconst > 0:
            for c in (0.9, 0.6):
                quad = c * abs2(coords)
                shift = float(np.max(u.values[bnd] - quad[bnd])) + 1e-9
                supers.append(ScalarField(dom, quad + shift))
        else:
            for _ in range(2):
                ell = np.array([rng.uniform(-0.3, 0.3),
                                rng.uniform(-0.3, 0.3)])
                lin = coords @ ell
                shift = float(np.max(u.values[bnd] - lin[bnd])) + 1e-9
                supers.append(ScalarField(dom, lin + shift))
        ell = np.array([0.2, -0.1])
        lin = coords @ ell
        shift = float(np.max(u.values[bnd] - lin[bnd])) + 1e-9
        supers.append(ScalarField(dom, lin + shift))
        statuses = [comparison_check(u, w, prob).status for w in supers]
        ok &= all(s == "pass" for s in statuses)
        details.append(f"f={fconst}: margins=({rep.subsolution_margin:.1e},"
                       f"{rep.dual_margin:.1e})>=-{band:.1e}, "
                       f"comparisons={statuses}")
        if fconst == 0.0:
            verdict = maximality_check(u, prob)
            ok &= verdict.status == "pass"
            details.append(f"maximality={verdict.status} "
                           f"({verdict.checked} checked)")
    report(5, ok, "; ".join(details))


def test_criterion_06_restriction_suite():
    out = restriction_battery(SuiteConfig(seed=1, restriction_fields=20))
    ok = (out["all_pass"] and out["ambient_psh"] == 20
          and len(out["cases"]) == 20)
    report(6, ok, f"{out['ambient_psh']}/20 ambient-psh fields restricted "
                  "to slice-psh, no false implications")


def test_criterion_07_blaplacian_equivalence():
    out = blaplacian_agreement_battery(SuiteConfig(seed=1, quadratics=50))
    per = {r["n"]: r["agree"] for r in out["per_dimension"]}
    ok = out["all_pass"] and per[1] == 50 and per[2] == 50
    report(7, ok, f"verdict agreement {per[1]}/50 (n=1), {per[2]}/50 (n=2)")


def test_criterion_08_linear_triangle():
    cfg = SuiteConfig(seed=1, linear_fields=20, bumps=5, balls=3)
    tri = linear_triangle_battery(cfg)
    reg = regularization_case()
    n_cases = len(tri["cases"])
    ok = tri["all_pass"] and reg["all_pass"] and n_cases == 60
    report(8, ok, f"{n_cases} (field, operator) pairs agree, pairings "
                  "nonnegative on passes, masked spike regularized exactly")


def test_criterion_09_algebraic_identities():
    worst_pb = 0.0
    for n in (1, 2, 3):
        d = 2 * n
        j0 = standard_j(n)
        rng = CounterRng(900 + n)
        for _ in range(100):
            g = np.eye(d) + 0.3 * rng.normals((d, d))
            b = rng.symmetric(d)
            j = g @ j0 @ np.linalg.inv(g)
            lhs = pullback(b, g) + j0.T @ pullback(b, g) @ j0
            rhs = pullback(b + j.T @ b @ j, g)
            worst_pb = max(worst_pb, float(np.max(np.abs(lhs - rhs))))
    sign_ok = det_ok = True
    for n in (1, 2, 3):
        kappa = 16.0 ** n
        rng = CounterRng(950 + n)
        for _ in range(100):
            m = rng.hermitian(n)
            b = realify(m)
            sign_ok &= (np.sign(np.linalg.eigvalsh(b)[0])
                        == np.sign(np.linalg.eigvalsh(complexify(b))[0])
                        or abs(np.linalg.eigvalsh(b)[0]) < 1e-12)
            mp = m + 3 * np.eye(n)
            bp = realify(mp)
            det_ok &= abs(np.linalg.det(bp) - kappa
                          * np.linalg.det(complexify(bp)).real ** 2) \
                <= 1e-8 * max(1.0, abs(np.linalg.det(bp)))
    worst_j = 0.0
    presets = [("standard", {"n": 2}),
               ("antilinear-linear-eps", {"n": 1, "eps": 0.1, "generator": 0}),
               ("antilinear-linear-eps", {"n": 2, "eps": 0.1, "generator": 3}),
               ("antilinear-slice-compatible", {"n": 2, "m": 1, "eps": 0.1}),
               ("antilinear-slice-compatible", {"n": 3, "m": 1, "eps": 0.05})]
    rng = CounterRng(999)
    for preset, kwargs in presets:
        acx = make_structure(preset, **kwargs)
        worst_j = max(worst_j, acx.validate(0.5 * rng.normals((50, acx.d)),
                                            tol=1e-10))
    ok = worst_pb <= 1e-10 and sign_ok and det_ok and worst_j <= 1e-10
    report(9, ok, f"pullback residual {worst_pb:.1e}, positivity and "
                  f"determinant relations hold, J^2+I residual {worst_j:.1e}")


def test_criterion_10_determinism(tmp_path):
    from acx.cli import main

    outs = []
    for name in ("da", "db"):
        out = tmp_path / name
        code = main(["equivalence-suite", "--seed", "7",
                     "--out", str(out), "--quiet"])
        assert code == 0
        outs.append((out / "suite.json").read_bytes())
    ok = outs[0] == outs[1]
    report(10, ok, f"two seeded suite runs produced byte-identical reports "
                   f"({len(outs[0])} bytes)")
