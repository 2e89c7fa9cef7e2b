import json

import numpy as np
import pytest

from acx.cli import main
from acx.lattice import LatticeDomain, ScalarField, export_csv, import_csv
from acx.algebra import make_structure
from acx.subeq import Subequation, constant_rhs


def abs2(X):
    return (X ** 2).sum(axis=1)


DISC_DOMAIN = {"kind": "ball", "center": [0.0, 0.0], "radius": 1.0,
               "nodes_per_axis": 17}


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def solve_cfg(tmp_path):
    return write_json(tmp_path / "prob.json", {
        "domain": DISC_DOMAIN,
        "structure": {"preset": "standard", "n": 1},
        "rhs": {"kind": "constant", "value": 1.0},
        "boundary": {"kind": "expression", "id": "abs2"},
    })


def test_solve_exit_codes_and_outputs(tmp_path, solve_cfg):
    out = tmp_path / "run"
    assert main(["solve", "--config", solve_cfg, "--out", str(out),
                 "--quiet"]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["schema"] == "acx/1"
    assert report["converged"] is True
    assert report["residual"] <= report["tol_res"]
    assert "wall_clock" not in report        # timing lives in the meta block
    meta = json.loads((out / "report.json.meta").read_text())
    assert "wall_clock" in meta and "timestamp" in meta
    assert (out / "solution.csv").exists()


def test_solve_nonconvergence_exit_two(tmp_path, solve_cfg):
    cfg = json.loads(open(solve_cfg).read())
    cfg["scheme"] = {"max_iterations": 1}
    path = write_json(tmp_path / "p1.json", cfg)
    assert main(["solve", "--config", path, "--out", str(tmp_path / "r1"),
                 "--quiet"]) == 2


def test_solve_input_errors_exit_one(tmp_path):
    bad = write_json(tmp_path / "bad.json", {"domain": DISC_DOMAIN})
    assert main(["solve", "--config", bad, "--out", str(tmp_path / "x"),
                 "--quiet"]) == 1
    (tmp_path / "mal.json").write_text("{not json")
    assert main(["solve", "--config", str(tmp_path / "mal.json"),
                 "--out", str(tmp_path / "x"), "--quiet"]) == 1
    assert main(["solve", "--config", str(tmp_path / "missing.json"),
                 "--out", str(tmp_path / "x"), "--quiet"]) == 1


def test_check_psh_round_trip_margins(tmp_path, solve_cfg):
    out = tmp_path / "run"
    assert main(["solve", "--config", solve_cfg, "--out", str(out),
                 "--quiet"]) == 0
    report = json.loads((out / "report.json").read_text())
    # re-ingest the solution CSV and recompute the worst margin
    domain = LatticeDomain.ball(np.zeros(2), 1.0, 17)
    field = import_csv(out / "solution.csv", domain)
    sub = Subequation(make_structure("standard", n=1), rhs=constant_rhs(1.0))
    from acx.psh import field_margins
    margins, _, _, _ = field_margins(field, sub)
    assert abs(float(np.min(margins)) - report["subsolution_margin"]) <= 1e-12
    assert abs(float(-np.max(margins)) - report["dual_margin"]) <= 1e-12


def test_check_psh_exit_codes(tmp_path):
    domain = LatticeDomain.ball(np.zeros(2), 1.0, 17)
    good = ScalarField.from_vectorized(domain, abs2)
    export_csv(good, tmp_path / "good.csv")
    bad = ScalarField(domain, -good.values)
    export_csv(bad, tmp_path / "bad.csv")
    base = {"domain": DISC_DOMAIN,
            "structure": {"preset": "standard", "n": 1}}
    cfg_good = write_json(tmp_path / "cg.json",
                          dict(base, field_csv=str(tmp_path / "good.csv")))
    cfg_bad = write_json(tmp_path / "cb.json",
                         dict(base, field_csv=str(tmp_path / "bad.csv")))
    out = ["--out", str(tmp_path / "out"), "--quiet"]
    assert main(["check-psh", "--config", cfg_good, *out]) == 0
    assert main(["check-psh", "--config", cfg_bad, *out]) == 3
    cfg_blap = write_json(tmp_path / "cb2.json", dict(
        base, field_csv=str(tmp_path / "good.csv"), mode="blaplacian"))
    assert main(["check-psh", "--config", cfg_blap, *out]) == 0
    cfg_miss = write_json(tmp_path / "cm.json", base)
    assert main(["check-psh", "--config", cfg_miss, *out]) == 1


def test_restrict_check_exit_codes(tmp_path):
    domain = LatticeDomain.ball(np.zeros(4), 0.8, 9)
    u = ScalarField.from_vectorized(domain, abs2)
    export_csv(u, tmp_path / "amb.csv")
    dom_cfg = {"kind": "ball", "center": [0, 0, 0, 0], "radius": 0.8,
               "nodes_per_axis": 9}
    ok = write_json(tmp_path / "r1.json", {
        "field_csv": str(tmp_path / "amb.csv"), "domain": dom_cfg,
        "structure": {"preset": "antilinear-slice-compatible", "n": 2,
                      "m": 1, "eps": 0.1},
        "slice_m": 1})
    out = ["--out", str(tmp_path / "out"), "--quiet"]
    assert main(["restrict-check", "--config", ok, *out]) == 0
    incompatible = write_json(tmp_path / "r2.json", {
        "field_csv": str(tmp_path / "amb.csv"), "domain": dom_cfg,
        "structure": {"preset": "antilinear-linear-eps", "n": 2,
                      "eps": 0.1, "generator": 4},
        "slice_m": 1})
    assert main(["restrict-check", "--config", incompatible, *out]) == 1


def test_dual_check(tmp_path):
    cfg = write_json(tmp_path / "dual.json", {
        "structure": {"preset": "standard", "n": 1},
        "point": [0.0, 0.0],
        "jet": [0.0, 0.0, 2.0, 0.0, 2.0],
    })
    assert main(["dual-check", "--config", cfg, "--out", str(tmp_path / "out"),
                 "--quiet"]) == 0


def test_equivalence_suite_determinism_and_exits(tmp_path):
    cfg = write_json(tmp_path / "suite.json", {
        "linear_fields": 4, "bumps": 2, "balls": 2, "quadratics": 6,
        "restriction_fields": 2})
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["equivalence-suite", "--config", cfg, "--seed", "9",
                 "--out", str(a), "--quiet"]) == 0
    assert main(["equivalence-suite", "--config", cfg, "--seed", "9",
                 "--out", str(b), "--quiet"]) == 0
    assert (a / "suite.json").read_bytes() == (b / "suite.json").read_bytes()
    empty = write_json(tmp_path / "empty.json", {"linear_fields": 0})
    assert main(["equivalence-suite", "--config", empty,
                 "--out", str(tmp_path / "c"), "--quiet"]) == 1
    injected = write_json(tmp_path / "inj.json", {
        "linear_fields": 2, "bumps": 2, "balls": 2, "quadratics": 2,
        "restriction_fields": 2, "inject_failure": True})
    assert main(["equivalence-suite", "--config", injected, "--seed", "9",
                 "--out", str(tmp_path / "d"), "--quiet"]) == 3


def test_metric_demo_exits(tmp_path):
    assert main(["metric-demo", "--C", "2", "--r", "1", "--quiet"]) == 0
    assert main(["metric-demo", "--C", "1", "--r", "1", "--quiet"]) == 0
    assert main(["metric-demo", "--C", "-1", "--r", "1", "--quiet"]) == 1


def test_regularize_roundtrip(tmp_path):
    domain = LatticeDomain.box([-1, 1], 11, dim=2)
    vals = np.zeros(domain.n_nodes)
    mask = np.zeros(domain.n_nodes, dtype=bool)
    spike = domain.node_at(np.zeros(2))
    vals[spike], mask[spike] = 4.0, True
    export_csv(ScalarField(domain, vals, mask), tmp_path / "m.csv")
    cfg = write_json(tmp_path / "reg.json", {
        "field_csv": str(tmp_path / "m.csv"),
        "domain": {"kind": "box", "bounds": [[-1, 1], [-1, 1]],
                   "nodes_per_axis": 11}})
    out = tmp_path / "ro"
    assert main(["regularize", "--config", cfg, "--out", str(out),
                 "--quiet"]) == 0
    reg = import_csv(out / "regularized.csv",
                     LatticeDomain.box([-1, 1], 11, dim=2))
    assert np.max(np.abs(reg.values)) == 0.0


def test_solve_radial_rhs_and_csv_boundary(tmp_path):
    import csv as _csv

    domain = LatticeDomain.ball(np.zeros(2), 1.0, 17)
    bpath = tmp_path / "bnd.csv"
    with open(bpath, "w", newline="") as fh:
        w = _csv.writer(fh)
        w.writerow(["c0", "c1", "value"])
        for i in domain.boundary_ids:
            x = domain.node_coords[i]
            w.writerow([f"{x[0]:.17g}", f"{x[1]:.17g}",
                        f"{abs2(x[None])[0]:.17g}"])
    cfg = write_json(tmp_path / "p.json", {
        "domain": DISC_DOMAIN,
        "structure": {"preset": "standard", "n": 1},
        "rhs": {"kind": "radial-table", "radii": [0.0, 1.0],
                "values": [1.0, 1.0]},
        "boundary": {"kind": "csv", "path": str(bpath)},
    })
    out = tmp_path / "rt"
    assert main(["solve", "--config", cfg, "--out", str(out),
                 "--quiet"]) == 0
    # constant radial table of ones is the unit right-hand side, so the
    # solution is the sampled |z|^2 up to the residual tolerance scale
    u = import_csv(out / "solution.csv", domain)
    assert np.max(np.abs(u.values - abs2(domain.node_coords))) <= 5e-2


def test_solve_box_with_harmonic_poly_boundary(tmp_path):
    cfg = write_json(tmp_path / "pb.json", {
        "domain": {"kind": "box", "bounds": [[-1, 1], [-1, 1]],
                   "nodes_per_axis": 17},
        "structure": {"preset": "standard", "n": 1},
        "boundary": {"kind": "expression", "id": "harmonic-poly",
                     "coefficients": [[2, 1.0, 0.0], [1, 0.0, 0.5]]},
    })
    out = tmp_path / "hb"
    assert main(["solve", "--config", cfg, "--out", str(out),
                 "--quiet"]) == 0
    # harmonic polynomial data solve the homogeneous equation themselves
    domain = LatticeDomain.box([-1, 1], 17, dim=2)
    u = import_csv(out / "solution.csv", domain)
    z = domain.node_coords[:, 0] + 1j * domain.node_coords[:, 1]
    exact = np.real(z ** 2) + 0.5 * np.imag(z)
    assert np.max(np.abs(u.values - exact)) <= 1e-2

