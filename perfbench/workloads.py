"""The benchmark's seeded workloads.

Each workload draws its inputs from the workload seed: ``cycle(k)`` is the
short list of problems of the loop's k-th cycle, the same for every k
except on ``ball-n2``, whose seeded datum is drawn afresh per cycle so one
run averages over several draws.  A problem's ``key`` names its input;
ops with the same key must give the same report bytes.  The closed loop in
``run.py`` runs a cycle's ops one at a time; ``op`` is the timed program
work and ``check`` judges its output untimed.

An op *fails* when it does not deliver what was asked for: the solve does
not converge, a bound or certificate is missed, a battery does not pass,
or it raises.  An op is *incorrect* when the program broke a promise: it
claimed convergence with a missed bound or certificate, a battery failed,
it raised, or a repeat of the same input gave different report bytes.  A
solve that stops at its sweep cap and says so is failed but not incorrect:
``acx.dirichlet.solve`` reports non-convergence in its flag and promises
the certificates only on convergence.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

# Program calls go through the module attributes, so the traced run sees
# the wrappers that tracer.py installs on them.
from acx import algebra, dirichlet, lattice, serialize, subeq, suite


# ball-n2 sweep cap: about 4x the 131-136 sweeps the isotropic datum needs,
# so a stalled solve ends in bounded time and counts as failed.
BALL_SWEEP_CAP = 600
# Size of each real and imaginary part of the seeded ball-n2 coefficients
# (c1, c2, c3); the seed draws only their signs, so every datum is a corner
# of the box [-0.1, 0.1]^6.  The seeded op's cost depends on the datum's
# size: each sweep whose residual dips below tol_res costs one more adapted
# refresh, and smaller data dip often (78-135 refreshes, 9-16 s, for parts
# inside the box).  At the corners every draw stays above tol_res (residual
# 2.6e-2 to 4.3e-2) and takes 78 refreshes, none for dips.
BALL_C_PART = 0.1


def sup_err_bound(h: float) -> float:
    """DiscN1 sup-norm error bound against the exact solution.  Measured
    errors are about 0.3 h^2 (1.2e-3, 3.2e-4 and 1.4e-4 at 33, 65 and 97
    nodes per axis), so h^2 leaves a factor 3 and still checks that the
    scheme is second order."""
    return h ** 2


@dataclass
class Outcome:
    ok: bool            # the op delivered what was asked for
    honest: bool        # every promise the program made holds
    digest: str         # hash of the report bytes, compared across repeats
    note: str = ""
    stats: dict | None = None


def abs2(pts: np.ndarray) -> np.ndarray:
    return (pts ** 2).sum(axis=1)


def harmonic_poly_datum(coeffs):
    """``|z|^2`` plus the README's ``harmonic-poly`` rows ``[k, a_k, b_k]``
    (each adds ``a_k Re z^k + b_k Im z^k``).  With f = 1 on the standard
    structure the datum is the exact solution."""
    def phi(pts):
        z = pts[:, 0] + 1j * pts[:, 1]
        out = abs2(pts)
        for k, a, b in coeffs:
            zk = z ** k
            out = out + a * zk.real + b * zk.imag
        return out
    return phi


def quadratic_ball_datum(c):
    """``|z|^2 + Re(c1 z1^2 + c2 z1 z2 + c3 z2^2)`` on C^2."""
    c1, c2, c3 = c

    def phi(pts):
        z1 = pts[:, 0] + 1j * pts[:, 1]
        z2 = pts[:, 2] + 1j * pts[:, 3]
        return abs2(pts) + (c1 * z1 ** 2 + c2 * z1 * z2 + c3 * z2 ** 2).real
    return phi


def _solve_digest(u, rep) -> str:
    payload = rep.to_dict()
    payload.pop("wall_clock")
    h = hashlib.sha256(serialize.dumps_canonical(payload).encode())
    h.update(u.values.tobytes())
    return h.hexdigest()


def _solve_outcome(u, rep, bounds_ok: bool, note: str, stats: dict) -> Outcome:
    stats = {"iterations": rep.iterations, "residual": rep.residual,
             "tol_res": rep.tol_res, **stats}
    if not rep.converged:
        note = (f"no convergence within {rep.iterations} sweeps, residual "
                f"{rep.residual:.3e} > tol_res {rep.tol_res:.3e}; " + note)
    return Outcome(ok=rep.converged and bounds_ok,
                   honest=bounds_ok or not rep.converged,
                   digest=_solve_digest(u, rep), note=note, stats=stats)


class DiscN1:
    """n = 1 standard structure, f = 1, unit disc; the datum is |z|^2 plus
    a seeded harmonic polynomial, hence also the exact solution.  The
    problem of the scaling report, not a benchmark workload."""

    name = "disc-n1"

    def __init__(self, seed: int, nodes: int = 97):
        rng = np.random.default_rng(seed)
        coeffs = [[k, float(rng.uniform(-0.3, 0.3)),
                   float(rng.uniform(-0.3, 0.3))] for k in (1, 2, 3)]
        self.nodes = nodes
        self.problem = {"key": "harmonic-poly", "coefficients": coeffs}

    def cycle(self, k: int) -> list[dict]:
        return [self.problem]

    def op(self, problem):
        dom = lattice.LatticeDomain.ball(np.zeros(2), 1.0, self.nodes)
        sub = subeq.Subequation(algebra.make_structure("standard", n=1),
                                rhs=subeq.constant_rhs(1.0))
        phi = harmonic_poly_datum(problem["coefficients"])
        u, rep = dirichlet.solve(dirichlet.DirichletProblem(dom, sub, phi))
        return dom, phi, u, rep

    def check(self, problem, out) -> Outcome:
        dom, phi, u, rep = out
        err = float(np.max(np.abs(u.values - phi(dom.node_coords))))
        bound = sup_err_bound(dom.h)
        ok = err <= bound
        return _solve_outcome(
            u, rep, ok, "" if ok else f"sup_err {err:.3e} > {bound:.3e}",
            {"sup_err": err})


class BallN2:
    """n = 2 antilinear-linear-eps (eps 0.1, generator 3), f = 1, unit
    4-ball; ops alternate the isotropic datum and a seeded quadratic one
    whose coefficient signs are drawn afresh each cycle from (seed, cycle
    index), so one run averages over several draws."""

    name = "ball-n2"

    def __init__(self, seed: int, nodes: int = 13,
                 cap: int = BALL_SWEEP_CAP):
        self.seed = seed
        self.nodes = nodes
        self.cap = cap

    def cycle(self, k: int) -> list[dict]:
        rng = np.random.default_rng([self.seed, k])
        parts = BALL_C_PART * rng.choice([-1.0, 1.0], size=(3, 2))
        c = [complex(re, im) for re, im in parts]
        return [{"key": "abs2", "datum": "abs2", "max_iterations": self.cap},
                {"key": f"quadratic-{k}", "datum": "quadratic", "c": c,
                 "max_iterations": self.cap}]

    def op(self, problem):
        dom = lattice.LatticeDomain.ball(np.zeros(4), 1.0, self.nodes)
        structure = algebra.make_structure("antilinear-linear-eps", n=2,
                                           eps=0.1, generator=3)
        sub = subeq.Subequation(structure, rhs=subeq.constant_rhs(1.0))
        phi = (abs2 if problem["datum"] == "abs2"
               else quadratic_ball_datum(problem["c"]))
        scheme = dirichlet.SchemeOptions(
            max_iterations=problem["max_iterations"])
        return dirichlet.solve(dirichlet.DirichletProblem(dom, sub, phi,
                                                          scheme))

    def check(self, problem, out) -> Outcome:
        u, rep = out
        band = 10.0 * rep.tol_res
        ok = rep.subsolution_margin >= -band and rep.dual_margin >= -band
        note = "" if ok else (
            f"certificate margins ({rep.subsolution_margin:.3e}, "
            f"{rep.dual_margin:.3e}) below -{band:.3e}")
        return _solve_outcome(
            u, rep, ok, note,
            {"datum": problem["datum"],
             "subsolution_margin": rep.subsolution_margin,
             "dual_margin": rep.dual_margin})


class VerifySuite:
    """The seeded equivalence suite plus the restriction battery."""

    name = "verify-suite"

    def __init__(self, seed: int, **sizes):
        self.config = suite.SuiteConfig(seed=seed, **sizes)

    def cycle(self, k: int) -> list[dict]:
        return [{"key": f"suite-{self.config.seed}"}]

    def op(self, problem):
        return (suite.run_equivalence_suite(self.config),
                suite.restriction_battery(self.config))

    def check(self, problem, out) -> Outcome:
        equiv, restr = out
        cfg = self.config
        cases = len(equiv["linear_triangle"]["cases"])
        misses = []
        if not equiv["all_pass"]:
            misses.append("equivalence suite all_pass is false")
        if not restr["all_pass"]:
            misses.append("restriction battery all_pass is false")
        if restr["ambient_psh"] != cfg.restriction_fields:
            misses.append(f"ambient_psh {restr['ambient_psh']} != "
                          f"{cfg.restriction_fields}")
        if cases != 3 * cfg.linear_fields:
            misses.append(f"{cases} triangle cases != "
                          f"{3 * cfg.linear_fields}")
        text = serialize.dumps_canonical({"suite": equiv,
                                          "restriction": restr})
        ok = not misses
        return Outcome(ok=ok, honest=ok,
                       digest=hashlib.sha256(text.encode()).hexdigest(),
                       note="; ".join(misses),
                       stats={"triangle_cases": cases,
                              "ambient_psh": restr["ambient_psh"]})


# DiscN1 is not among them: it is the scaling report's problem (scaling.py).
WORKLOADS = {w.name: w for w in (BallN2, VerifySuite)}
