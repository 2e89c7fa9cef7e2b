"""Reproducible verification batteries.

Every battery draws from the counter-based generator, so a fixed seed
reproduces the identical battery (and hence a byte-identical report) on any
run.  Fields are constructed with decided margins: verdict boundaries are
avoided by building the expected sign into the field, which is what lets
the agreement checks demand exact verdict matches.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .algebra import make_structure, realify, standard_j
from .lattice import LatticeDomain, ScalarField
from .linpot import (
    BallReplacement,
    LinearOperator,
    TransposedBump,
    ViscosityScheme,
    bump_field,
    classical_subharmonic,
    default_ball_battery,
    diagonal_operator,
    distributional_pairing,
    ess_usc_regularize,
    laplacian,
    operator_from_structure,
    viscosity_subharmonic,
)
from .psh import (
    OperatorFamily,
    SliceRestriction,
    family_verdict,
    margin_verdict,
    restriction_verdict,
)
from .rng import CounterRng
from .subeq import Subequation


class SuiteError(ValueError):
    pass


@dataclass
class SuiteConfig:
    seed: int = 1
    linear_fields: int = 20
    bumps: int = 5
    balls: int = 3
    quadratics: int = 50
    restriction_fields: int = 20

    def __post_init__(self):
        if min(getattr(self, k) for k in SIZE_KEYS) <= 0:
            raise SuiteError("battery sizes must be positive")


# the battery sizes: every field but the seed
SIZE_KEYS = tuple(f.name for f in fields(SuiteConfig) if f.name != "seed")


# ---------------------------------------------------------------------------
# Linear equivalence triangle
# ---------------------------------------------------------------------------

def _triangle_operators() -> list[LinearOperator]:
    acx = make_structure("antilinear-linear-eps", n=1, eps=0.1, generator=0)
    return [
        laplacian(2),
        diagonal_operator([2.0, 0.5]),
        operator_from_structure(Subequation(acx), np.array([[1.0 + 0j]])),
    ]


def _triangle_field(dom: LatticeDomain, rng: CounterRng, sub_side: bool) -> ScalarField:
    c = rng.uniform(0.8, 2.0)
    amp = 0.02 * c
    k = rng.uniform(1.0, 2.0)
    sgn = 1.0 if sub_side else -1.0
    x = dom.node_coords
    vals = sgn * (c * (x ** 2).sum(axis=1)
                  + amp * np.sin(k * x[:, 0]) * np.cos(k * x[:, 1]))
    return ScalarField(dom, vals)


def linear_triangle_battery(config: SuiteConfig) -> dict:
    """Viscosity = classical on every (field, operator) pair, and viscosity
    passes imply nonnegative distributional pairings against the bumps.
    Each operator's viscosity scheme, ball replacements and transposed
    bumps are built once, for every field."""
    rng = CounterRng(config.seed * 7919 + 11)
    dom = LatticeDomain.box([-1, 1], 21, dim=2)
    balls = default_ball_battery(dom, config.balls,
                                 seed=config.seed * 104729 + 3)
    bumps = []
    for _ in range(config.bumps):
        center = np.array([rng.uniform(-0.25, 0.25), rng.uniform(-0.25, 0.25)])
        bumps.append(bump_field(dom, center, rng.uniform(0.35, 0.5)))
    per_op = [(op.provenance, ViscosityScheme(op, dom),
            [BallReplacement(op, dom, c, r) for c, r in balls],
            [TransposedBump(op, b) for b in bumps])
           for op in _triangle_operators()]

    cases = []
    all_ok = True
    for i in range(config.linear_fields):
        u = _triangle_field(dom, rng, sub_side=(i % 2 == 0))
        for name, scheme, battery, transposed in per_op:
            visc = viscosity_subharmonic(u, scheme)
            cls = classical_subharmonic(u, battery)
            agree = visc.subharmonic == cls.subharmonic
            pairings_ok = True
            pair_min = None
            if visc.subharmonic:
                vals = [distributional_pairing(u, lt) for lt in transposed]
                pair_min = min(vals)
                pairings_ok = pair_min >= -1e-8
            ok = agree and pairings_ok
            all_ok &= ok
            cases.append({
                "field": i, "operator": name,
                "viscosity": visc.subharmonic, "classical": cls.subharmonic,
                "agree": agree, "min_pairing": pair_min, "ok": ok,
            })
    return {"cases": cases, "all_pass": all_ok}


# ---------------------------------------------------------------------------
# B-Laplacian / direct-margin agreement on quadratics
# ---------------------------------------------------------------------------

def _quadratic_with_margin(n: int, rng: CounterRng, target: float) -> np.ndarray:
    """Real quadratic coefficient matrix whose membership margin under the
    flat structure is exactly ``target`` (margin = 2 min-eig of the
    complexified hessian), plus a pluriharmonic part invisible to it."""
    ac = rng.hermitian(n, scale=0.5)
    w = np.linalg.eigvalsh(ac)
    ac = ac + (target / 2.0 - w[0]) * np.eye(n)
    q = 0.5 * realify(ac)
    harm = rng.symmetric(2 * n, scale=0.3)
    j0 = standard_j(n)
    return q + 0.5 * (harm - j0.T @ harm @ j0)


def blaplacian_agreement_battery(config: SuiteConfig) -> dict:
    """Identical psh verdicts from the direct margin and the family route on
    quadratic fields with margins constructed outside the undecided band."""
    results = []
    all_ok = True
    for n in (1, 2):
        rng = CounterRng(config.seed * 31337 + n)
        dom = (LatticeDomain.box([-1, 1], 17, dim=2) if n == 1
               else LatticeDomain.box([-1, 1], 9, dim=4))
        sub = Subequation(make_structure("standard", n=n))
        # one family, and its margin context, for every field
        ops = OperatorFamily(sub, dom)
        band = 0.2 if n == 1 else 0.4
        agree = 0
        for i in range(config.quadratics):
            sgn = 1.0 if i % 2 == 0 else -1.0
            target = sgn * rng.uniform(band, band + 0.8)
            q = _quadratic_with_margin(n, rng, target)
            u = ScalarField(dom, 0.5 * np.einsum(
                "ni,ij,nj->n", dom.node_coords, q, dom.node_coords))
            # quadratics are differenced exactly, so the verdicts are read
            # at a tight tolerance; the undecided band is excluded by the
            # construction of the target margins
            direct = margin_verdict(u, ops.margins, tol=1e-9)
            family = family_verdict(u, ops, tol=1e-9)
            if direct.psh == family.psh == (target > 0):
                agree += 1
        results.append({"n": n, "agree": agree, "total": config.quadratics})
        all_ok &= agree == config.quadratics
    return {"per_dimension": results, "all_pass": all_ok}


# ---------------------------------------------------------------------------
# Regularization shadow
# ---------------------------------------------------------------------------

def regularization_case() -> dict:
    """Masked spike over the zero field must regularize to the zero field
    exactly."""
    dom = LatticeDomain.box([-1, 1], 11, dim=2)
    vals = np.zeros(dom.n_nodes)
    mask = np.zeros(dom.n_nodes, dtype=bool)
    spike = dom.node_at(np.zeros(2))
    vals[spike] = 1.0
    mask[spike] = True
    reg = ess_usc_regularize(ScalarField(dom, vals, mask))
    exact = float(np.max(np.abs(reg.values))) == 0.0
    return {"spike_regularized_exactly": exact, "all_pass": exact}


# ---------------------------------------------------------------------------
# Restriction battery
# ---------------------------------------------------------------------------

def restriction_battery(config: SuiteConfig) -> dict:
    """Ambient-psh fields on a slice-compatible structure restrict to
    slice-psh fields; smooth sums of squared complex-linear forms plus
    gentle maxima (small crease slope) keep every margin decided."""
    rng = CounterRng(config.seed * 48611 + 5)
    dom = LatticeDomain.ball(np.zeros(4), 0.8, 13)
    acx = make_structure("antilinear-slice-compatible", n=2, m=1, eps=0.1)
    restriction = SliceRestriction(Subequation(acx), dom, 1)
    x = dom.node_coords
    cases = []
    all_ok = True
    ambient_psh_count = 0
    for i in range(config.restriction_fields):
        c0 = rng.uniform(0.9, 1.6)
        vals = c0 * (x ** 2).sum(axis=1)
        for _ in range(2):
            l = rng.complex_normals((2,))
            a = np.array([rng.uniform(-0.2, 0.2) for _ in range(4)])
            m = realify(np.outer(l, l.conj())) / 4.0
            diff = x - a
            vals += rng.uniform(0.1, 0.4) * np.einsum(
                "ni,ij,nj->n", diff, m, diff)
        if i % 2 == 1:
            # gentle crease through the domain: the slope is kept well below
            # h so the kink's finite-difference noise stays inside the margin
            slope = np.array([rng.uniform(-1, 1) for _ in range(4)])
            slope *= 0.04 * dom.h / max(1e-9, np.linalg.norm(slope))
            vals = np.maximum(vals, vals + x @ slope)
        u = ScalarField(dom, vals)
        rep = restriction_verdict(u, restriction)
        ambient_psh_count += int(rep.ambient_psh)
        ok = rep.ambient_psh and rep.slice_psh and rep.implication_holds
        all_ok &= ok
        cases.append({"field": i, "ambient_margin": rep.ambient_margin,
                      "slice_margin": rep.slice_margin, "ok": ok})
    return {"cases": cases, "ambient_psh": ambient_psh_count,
            "total": config.restriction_fields, "all_pass": all_ok}


# ---------------------------------------------------------------------------
# Top level
# ---------------------------------------------------------------------------

def run_equivalence_suite(config: SuiteConfig) -> dict:
    out = {
        "schema": "acx/1",
        "seed": config.seed,
        "linear_triangle": linear_triangle_battery(config),
        "blaplacian_agreement": blaplacian_agreement_battery(config),
        "regularization": regularization_case(),
    }
    out["all_pass"] = all(
        section.get("all_pass", True) for key, section in out.items()
        if isinstance(section, dict))
    return out
