"""Command-line front door.

Commands: solve | check-psh | restrict-check | dual-check |
equivalence-suite | metric-demo | regularize.

Exit codes: 0 success / criterion met, 1 input or precondition error,
2 solver non-convergence, 3 verification failure (with witness in the
report).  Reports are canonical JSON (byte-identical for identical config
and seed); timings and timestamps go to the adjacent ``.meta`` file.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .algebra import make_structure
from .dirichlet import DirichletProblem, SchemeOptions, solve
from .lattice import (
    LatticeDomain,
    export_csv,
    import_csv,
    read_boundary_csv,
)
from .linpot import ess_usc_regularize
from .psh import psh_margin, psh_via_blaplacians, restriction_check, slice_compatible
from .serialize import write_report
from .subeq import (
    Subequation,
    constant_rhs,
    contains,
    dual_contains,
    jet_from_flat,
    radial_rhs,
)
from .suite import SuiteConfig, run_equivalence_suite


class InputError(ValueError):
    pass


def _load_config(path) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise InputError(f"config not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed JSON in {path}: {exc}") from exc


def _domain_from(cfg: dict) -> LatticeDomain:
    try:
        kind = cfg["kind"]
        nodes = int(cfg["nodes_per_axis"])
        rho = int(cfg.get("stencil_radius", 2))
        if kind == "ball":
            return LatticeDomain.ball(np.asarray(cfg["center"], dtype=float),
                                      float(cfg["radius"]), nodes,
                                      stencil_radius=rho)
        if kind == "box":
            return LatticeDomain.box(cfg["bounds"], nodes,
                                     dim=cfg.get("dim"), stencil_radius=rho)
    except KeyError as exc:
        raise InputError(f"domain config missing field {exc}") from exc
    raise InputError(f"unknown domain kind {cfg.get('kind')!r}")


def _structure_from(cfg: dict):
    try:
        preset = cfg["preset"]
        n = int(cfg["n"])
    except KeyError as exc:
        raise InputError(f"structure config missing field {exc}") from exc
    params = {k: v for k, v in cfg.items() if k not in ("preset", "n")}
    try:
        return make_structure(preset, n, **params)
    except (TypeError, ValueError) as exc:
        raise InputError(f"bad structure config: {exc}") from exc


def _rhs_from(cfg):
    if cfg is None:
        return None
    kind = cfg.get("kind")
    if kind == "constant":
        return constant_rhs(float(cfg["value"]))
    if kind == "radial-table":
        return radial_rhs(cfg["radii"], cfg["values"], cfg.get("center"))
    raise InputError(f"unknown rhs kind {kind!r}")


def _boundary_from(cfg: dict, domain: LatticeDomain):
    kind = cfg.get("kind")
    if kind == "expression":
        ident = cfg.get("id")
        if ident == "abs2":
            return lambda pts: (np.atleast_2d(pts) ** 2).sum(axis=1)
        if ident == "constant":
            c = float(cfg.get("value", 0.0))
            return lambda pts: np.full(np.atleast_2d(pts).shape[0], c)
        if ident == "harmonic-poly":
            coeffs = [(int(k), float(a), float(b))
                      for k, a, b in cfg["coefficients"]]
            if domain.dim != 2:
                raise InputError("harmonic-poly data requires a planar domain")

            def phi(pts):
                pts = np.atleast_2d(pts)
                z = pts[:, 0] + 1j * pts[:, 1]
                out = np.zeros(pts.shape[0])
                for k, a, b in coeffs:
                    zk = z ** k
                    out += a * zk.real + b * zk.imag
                return out

            return phi
        raise InputError(f"unknown boundary expression {ident!r}")
    if kind == "csv":
        table = read_boundary_csv(cfg["path"], domain)

        def phi(pts):
            pts = np.atleast_2d(pts)
            return np.array([table[domain.node_at(x)] for x in pts])

        return phi
    raise InputError(f"unknown boundary kind {kind!r}")


def _scheme_from(cfg: dict | None) -> SchemeOptions:
    if not cfg:
        return SchemeOptions()
    opts = SchemeOptions()
    for key in ("stencil_radius", "max_iterations", "b_unitaries",
                "policy_refresh", "init_doubling_cap"):
        if key in cfg:
            setattr(opts, key, int(cfg[key]))
    for key in ("tol_res", "init_c0", "safety"):
        if key in cfg:
            setattr(opts, key, float(cfg[key]))
    return opts


def _problem_from(cfg: dict) -> DirichletProblem:
    for key in ("domain", "structure", "boundary"):
        if key not in cfg:
            raise InputError(f"problem config missing field '{key}'")
    domain = _domain_from(cfg["domain"])
    acx = _structure_from(cfg["structure"])
    sub = Subequation(acx, rhs=_rhs_from(cfg.get("rhs")))
    boundary = _boundary_from(cfg["boundary"], domain)
    scheme = _scheme_from(cfg.get("scheme"))
    return DirichletProblem(domain, sub, boundary, scheme)


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_solve(args) -> int:
    cfg = _load_config(args.config)
    problem = _problem_from(cfg)
    u, report = solve(problem)
    out = _outdir(args)
    export_csv(u, out / "solution.csv")
    payload = {"schema": "acx/1", "command": "solve", **report.to_dict()}
    wall = payload.pop("wall_clock")
    write_report(out / "report.json", payload, meta={"wall_clock": wall})
    if not args.quiet:
        print(f"converged={report.converged} iterations={report.iterations} "
              f"residual={report.residual:.3e}")
    return 0 if report.converged else 2


def cmd_check_psh(args) -> int:
    cfg = _load_config(args.config)
    for key in ("field_csv", "domain", "structure"):
        if key not in cfg:
            raise InputError(f"check-psh config missing field '{key}'")
    domain = _domain_from(cfg["domain"])
    field = import_csv(cfg["field_csv"], domain)
    acx = _structure_from(cfg["structure"])
    sub = Subequation(acx, rhs=_rhs_from(cfg.get("rhs")))
    mode = cfg.get("mode", "hessian")
    tol = args.tol
    if mode == "hessian":
        report = psh_margin(field, sub, tol=tol)
    elif mode == "blaplacian":
        report = psh_via_blaplacians(field, sub, tol=tol)
    else:
        raise InputError(f"unknown check mode {mode!r}")
    payload = {"schema": "acx/1", "command": "check-psh", "mode": mode,
               **report.to_dict()}
    if args.out:
        write_report(_outdir(args) / "verdict.json", payload, meta={})
    if not args.quiet:
        print(f"verdict={payload['verdict']} worst_margin="
              f"{report.worst_margin:.6e} at {report.worst_node.tolist()}")
    return 0 if report.psh else 3


def cmd_restrict_check(args) -> int:
    cfg = _load_config(args.config)
    for key in ("field_csv", "domain", "structure", "slice_m"):
        if key not in cfg:
            raise InputError(f"restrict-check config missing field '{key}'")
    domain = _domain_from(cfg["domain"])
    field = import_csv(cfg["field_csv"], domain)
    acx = _structure_from(cfg["structure"])
    m = int(cfg["slice_m"])
    comp = slice_compatible(acx, m)
    if not comp.compatible:
        raise InputError(
            "slice is not an almost complex submanifold: the antilinear "
            f"factor's lower-left block has residual {comp.f21_residual:.3e} "
            "on the slice (it must vanish there)")
    report = restriction_check(field, Subequation(acx), m)
    payload = {"schema": "acx/1", "command": "restrict-check",
               **report.to_dict()}
    if args.out:
        write_report(_outdir(args) / "restriction.json", payload, meta={})
    if not args.quiet:
        print(f"ambient_margin={report.ambient_margin:.6e} "
              f"slice_margin={report.slice_margin:.6e} "
              f"implication={'PASS' if report.implication_holds else 'FAIL'}")
    return 0 if report.implication_holds else 3


def cmd_dual_check(args) -> int:
    cfg = _load_config(args.config)
    for key in ("structure", "point", "jet"):
        if key not in cfg:
            raise InputError(f"dual-check config missing field '{key}'")
    acx = _structure_from(cfg["structure"])
    sub = Subequation(acx, rhs=_rhs_from(cfg.get("rhs")))
    x = np.asarray(cfg["point"], dtype=float)
    jet = jet_from_flat(np.asarray(cfg["jet"], dtype=float), acx.d)
    tol = args.tol if args.tol is not None else 1e-9
    inside = contains(sub, x, jet, tol)
    dual = dual_contains(sub, x, jet, tol)
    payload = {
        "schema": "acx/1", "command": "dual-check",
        "contains": inside.inside, "margin": inside.margin,
        "dual_contains": dual.inside, "dual_margin": dual.margin,
    }
    if args.out:
        write_report(_outdir(args) / "dual.json", payload, meta={})
    if not args.quiet:
        print(f"contains={inside.inside} margin={inside.margin:.6e} "
              f"dual={dual.inside} dual_margin={dual.margin:.6e}")
    return 0


def cmd_equivalence_suite(args) -> int:
    cfg = _load_config(args.config) if args.config else {}
    sizes = {
        "linear_fields": int(cfg.get("linear_fields", 20)),
        "bumps": int(cfg.get("bumps", 5)),
        "balls": int(cfg.get("balls", 3)),
        "quadratics": int(cfg.get("quadratics", 50)),
        "restriction_fields": int(cfg.get("restriction_fields", 20)),
    }
    if min(sizes.values()) <= 0:
        raise InputError("battery sizes must be positive")
    config = SuiteConfig(seed=args.seed, inject_failure=bool(
        cfg.get("inject_failure", False)), **sizes)
    report = run_equivalence_suite(config)
    out = _outdir(args)
    write_report(out / "suite.json", report, meta={})
    if not args.quiet:
        print(f"equivalences {'hold' if report['all_pass'] else 'FAILED'}")
    return 0 if report["all_pass"] else 3


def cmd_metric_demo(args) -> int:
    from .metrics import MetricError, example95_report

    try:
        report = example95_report(args.C, args.r)
    except MetricError as exc:
        raise InputError(str(exc)) from exc
    payload = {"schema": "acx/1", "command": "metric-demo",
               **report.to_dict()}
    if args.out:
        write_report(_outdir(args) / "metric.json", payload, meta={})
    if not args.quiet:
        print(f"surface Laplacian at origin: {report.laplace_beltrami_origin:.6f} "
              f"(reference {report.reference_value:.6f}, "
              f"deviation {report.deviation:.2e})")
        print(f"hermitian-psh margin at origin: {report.hermitian_margin:.4f}"
              f"{'; standard psh fails along the sphere' if report.standard_psh_fails else ''}")
    return 0 if report.deviation <= 1e-2 else 3


def cmd_regularize(args) -> int:
    cfg = _load_config(args.config)
    for key in ("field_csv", "domain"):
        if key not in cfg:
            raise InputError(f"regularize config missing field '{key}'")
    domain = _domain_from(cfg["domain"])
    field = import_csv(cfg["field_csv"], domain)
    out = _outdir(args)
    reg = ess_usc_regularize(field)
    export_csv(reg, out / "regularized.csv")
    if not args.quiet:
        print(f"regularized field written ({int(np.sum(field.mask)) if field.mask is not None else 0} masked nodes resolved)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="acx",
        description="potential-theory toolkit for almost complex structures "
                    "in local coordinates")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, config_required=True, with_out=True):
        if config_required:
            p.add_argument("--config", required=True, help="JSON config path")
        else:
            p.add_argument("--config", default=None, help="JSON config path")
        if with_out:
            p.add_argument("--out", default="acx-out", help="output directory")
        p.add_argument("--seed", type=int, default=1)
        p.add_argument("--tol", type=float, default=None)
        p.add_argument("--quiet", action="store_true")

    common(sub.add_parser("solve", help="solve a Dirichlet problem"))
    p = sub.add_parser("check-psh", help="membership verdict for a field CSV")
    common(p)
    p = sub.add_parser("restrict-check", help="slice restriction verdict")
    common(p)
    p = sub.add_parser("dual-check", help="fibre and dual membership of a jet")
    common(p)
    p = sub.add_parser("equivalence-suite", help="run the shadow batteries")
    common(p, config_required=False)
    p = sub.add_parser("metric-demo", help="spherical-metric separation demo")
    p.add_argument("--C", type=float, required=True)
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--quiet", action="store_true")
    p = sub.add_parser("regularize", help="essential usc regularization")
    common(p)
    return ap


_COMMANDS = {
    "solve": cmd_solve,
    "check-psh": cmd_check_psh,
    "restrict-check": cmd_restrict_check,
    "dual-check": cmd_dual_check,
    "equivalence-suite": cmd_equivalence_suite,
    "metric-demo": cmd_metric_demo,
    "regularize": cmd_regularize,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, KeyError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
