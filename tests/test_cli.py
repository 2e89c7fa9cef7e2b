import json

import numpy as np
import pytest

from acx.cli import InputError, _problem_from, main
from acx.dirichlet import SolveError
from acx.lattice import LatticeDomain, ScalarField, export_csv, import_csv
from acx.algebra import make_structure
from acx.rng import CounterRng
from acx.subeq import Subequation, constant_rhs
from acx.suite import SIZE_KEYS, SuiteConfig, SuiteError


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


def test_solve_counts_go_to_the_meta_sidecar(tmp_path):
    # the witness refresh and member counts sit beside the wall clock, so
    # the canonical report keeps its keys
    cfg = write_json(tmp_path / "n2.json", {
        "domain": {"kind": "ball", "center": [0.0] * 4, "radius": 1.0,
                   "nodes_per_axis": 9},
        "structure": {"preset": "antilinear-linear-eps", "n": 2,
                      "eps": 0.1, "generator": 3},
        "rhs": {"kind": "constant", "value": 1.0},
        "boundary": {"kind": "expression", "id": "abs2"},
    })
    out = tmp_path / "run"
    assert main(["solve", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    report = json.loads((out / "report.json").read_text())
    assert set(report) == {"schema", "command", "converged", "iterations",
                           "residual", "subsolution_margin", "dual_margin",
                           "tol_res", "message"}
    meta = json.loads((out / "report.json.meta").read_text())
    assert set(meta) == {"wall_clock", "refreshes", "members", "timestamp"}
    assert meta["refreshes"] >= 1 and meta["members"] >= 1


def test_solve_nonconvergence_exit_two(tmp_path, solve_cfg):
    cfg = json.loads(open(solve_cfg).read())
    # n = 1 is linear and converges in one Howard step; a cap of 0 stops it
    cfg["scheme"] = {"max_iterations": 0}
    path = write_json(tmp_path / "p1.json", cfg)
    assert main(["solve", "--config", path, "--out", str(tmp_path / "r1"),
                 "--quiet"]) == 2


def test_solve_failed_certificate_exit_two(tmp_path, capsys):
    # the rotated a = 2 quadratic on the flat 13^4 ball meets its residual
    # but not its subsolution band: exit 2, and the message names the
    # certificate and its margin
    u = np.linalg.qr(CounterRng(11).complex_normals((2, 2)))[0]
    hmat = u @ np.diag([2.0, 0.5]) @ u.conj().T

    def phi(X):
        z = np.stack([X[:, 0] + 1j * X[:, 1], X[:, 2] + 1j * X[:, 3]], axis=1)
        return np.einsum("ni,ij,nj->n", z.conj(), hmat, z).real

    domain = LatticeDomain.ball(np.zeros(4), 1.0, 13)
    bnd = tmp_path / "bnd.csv"
    export_csv(ScalarField.from_vectorized(domain, phi), bnd)
    cfg = write_json(tmp_path / "rot.json", {
        "domain": {"kind": "ball", "center": [0.0] * 4, "radius": 1.0,
                   "nodes_per_axis": 13},
        "structure": {"preset": "standard", "n": 2},
        "rhs": {"kind": "constant", "value": 1.0},
        "boundary": {"kind": "csv", "path": str(bnd)},
    })
    out = tmp_path / "run"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 2
    report = json.loads((out / "report.json").read_text())
    assert report["converged"] is False
    assert report["residual"] <= report["tol_res"]
    margin = f"{report['subsolution_margin']:.3e}"
    assert report["message"].startswith("subsolution certificate failed: "
                                        f"margin {margin} below")
    assert report["message"] in capsys.readouterr().out


def test_solve_input_errors_exit_one(tmp_path):
    bad = write_json(tmp_path / "bad.json", {"domain": DISC_DOMAIN})
    assert main(["solve", "--config", bad, "--out", str(tmp_path / "x"),
                 "--quiet"]) == 1
    (tmp_path / "mal.json").write_text("{not json")
    assert main(["solve", "--config", str(tmp_path / "mal.json"),
                 "--out", str(tmp_path / "x"), "--quiet"]) == 1
    assert main(["solve", "--config", str(tmp_path / "missing.json"),
                 "--out", str(tmp_path / "x"), "--quiet"]) == 1


@pytest.mark.parametrize("change,hint", [
    ({"structure": {"preset": "standard", "n": 2}}, "dimension"),
    # json writes and reads a float NaN as the NaN literal
    ({"boundary": {"kind": "expression", "id": "constant",
                   "value": float("nan")}}, "finite"),
    ({"scheme": {"tol_res": None}}, "scheme.tol_res"),
    ({"domain": dict(DISC_DOMAIN, nodes_per_axis=None)},
     "domain.nodes_per_axis"),
    ({"rhs": {"kind": "constant", "value": [1]}}, "rhs.value"),
    ({"rhs": {"kind": "constant", "value": float("nan")}}, "finite"),
    ({"rhs": {"kind": "constant", "value": "nan"}}, "rhs.value"),
    ({"rhs": {"kind": "radial-table", "radii": [1.0, 0.0],
              "values": [2.0, 0.0]}}, "strictly increase"),
], ids=["dimension", "non-finite-boundary", "null-tol-res", "null-nodes",
        "list-rhs-value", "nan-rhs", "string-rhs-value",
        "reversed-radial-table"])
def test_solve_precondition_errors_exit_one(tmp_path, solve_cfg, capsys,
                                            change, hint):
    path = write_json(tmp_path / "p.json",
                      dict(json.loads(open(solve_cfg).read()), **change))
    assert main(["solve", "--config", path, "--out", str(tmp_path / "x"),
                 "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("input error:") and hint in err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("domain,hint", [
    ({"kind": "box", "bounds": [float("nan"), 1.0], "dim": 2},
     "domain origin must be finite, got [nan, nan]"),
    ({"kind": "box", "bounds": [float("-inf"), 1.0], "dim": 2},
     "domain origin must be finite, got [-inf, -inf]"),
    (dict(DISC_DOMAIN, radius=float("nan")),
     "domain radius must be finite, got nan"),
    (dict(DISC_DOMAIN, radius=float("inf")),
     "domain radius must be finite, got inf"),
    (dict(DISC_DOMAIN, center=[float("nan"), 0.0]),
     "domain center must be finite, got [nan, 0.0]"),
], ids=["nan-bound", "inf-bound", "nan-radius", "inf-radius", "nan-center"])
def test_non_finite_domain_geometry_exits_one(tmp_path, capsys, domain, hint):
    # json writes and reads NaN and Infinity literals; the domain names the
    # bad value before any grid is built
    path = write_json(tmp_path / "p.json", {
        "domain": dict(domain, nodes_per_axis=9),
        "structure": {"preset": "standard", "n": 1},
        "rhs": {"kind": "constant", "value": 1.0},
        "boundary": {"kind": "expression", "id": "abs2"},
    })
    assert main(["solve", "--config", path, "--out", str(tmp_path / "x"),
                 "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("input error:") and hint in err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("scheme", [
    {"tol_res": float("nan")}, {"tol_res": float("inf")}, {"tol_res": -1e-3},
    {"max_iterations": -1}], ids=["nan-tol", "inf-tol", "negative-tol",
                                  "negative-cap"])
def test_out_of_range_scheme_is_a_precondition_error(solve_cfg, scheme):
    # json reads NaN and Infinity literals; the problem is refused before
    # any solve (a SolveError, which main maps to exit 1), so a NaN
    # tolerance cannot reach the stage loop
    text = json.dumps(dict(json.loads(open(solve_cfg).read()), scheme=scheme))
    with pytest.raises(SolveError, match=next(iter(scheme))):
        _problem_from(json.loads(text))


def test_solve_rejects_unknown_scheme_options(tmp_path, solve_cfg, capsys):
    cfg = json.loads(open(solve_cfg).read())
    out = ["--out", str(tmp_path / "x"), "--quiet"]
    for scheme, hint in (({"tol_ress": 1e-3}, "tol_ress"),
                         ({"stencil_radius": 1}, "stencil_radius"),
                         ({"safety": 0.9}, "safety"),
                         ({"policy_refresh": 8}, "policy_refresh"),
                         ({"b_unitaries": 1}, "b_unitaries")):
        path = write_json(tmp_path / "p.json", dict(cfg, scheme=scheme))
        assert main(["solve", "--config", path, *out]) == 1
        assert hint in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_check_psh_round_trip_margins(tmp_path, solve_cfg):
    out = tmp_path / "run"
    assert main(["solve", "--config", solve_cfg, "--out", str(out),
                 "--quiet"]) == 0
    report = json.loads((out / "report.json").read_text())
    # re-ingest the solution CSV and recompute the worst margin
    domain = LatticeDomain.ball(np.zeros(2), 1.0, 17)
    field = import_csv(out / "solution.csv", domain)
    sub = Subequation(make_structure("standard", n=1), rhs=constant_rhs(1.0))
    from acx.psh import MarginContext, field_margins
    margins, _, _ = field_margins(field, MarginContext(sub, domain))
    assert abs(float(np.min(margins)) - report["subsolution_margin"]) <= 1e-12
    assert abs(float(-np.max(margins)) - report["dual_margin"]) <= 1e-12


def test_check_psh_exit_codes(tmp_path, capsys):
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
    # f > 0 is false for NaN, so a NaN rhs would pass as f = 0
    cfg_nan = write_json(tmp_path / "cn.json", dict(
        base, field_csv=str(tmp_path / "good.csv"),
        rhs={"kind": "constant", "value": float("nan")}))
    capsys.readouterr()
    assert main(["check-psh", "--config", cfg_nan, *out]) == 1
    assert "finite" in capsys.readouterr().err


def test_check_psh_blaplacian_writes_its_witness(tmp_path):
    # |z1|^2 - |z2|^2 / 2 is not psh; the adapted member B* at the worst
    # node is the witness, written as its real and imaginary parts
    domain = LatticeDomain.ball(np.zeros(4), 0.8, 9)
    field = ScalarField.from_vectorized(
        domain, lambda X: abs2(X[:, :2]) - 0.5 * abs2(X[:, 2:]))
    export_csv(field, tmp_path / "mixed.csv")
    cfg = write_json(tmp_path / "blap.json", {
        "field_csv": str(tmp_path / "mixed.csv"), "mode": "blaplacian",
        "domain": {"kind": "ball", "center": [0, 0, 0, 0], "radius": 0.8,
                   "nodes_per_axis": 9},
        "structure": {"preset": "standard", "n": 2}})
    out = tmp_path / "out"
    assert main(["check-psh", "--config", cfg, "--out", str(out),
                 "--quiet"]) == 3
    verdict = json.loads((out / "verdict.json").read_text())
    assert verdict["verdict"] == "not-psh" and verdict["mode"] == "blaplacian"
    b = (np.array(verdict["witness_b_real"])
         + 1j * np.array(verdict["witness_b_imag"]))
    assert b.shape == (2, 2)
    np.testing.assert_allclose(b, b.conj().T, atol=1e-12)
    assert np.linalg.det(b).real == pytest.approx(1.0)
    assert not np.allclose(b, np.eye(2))     # the adapted member, not I


def test_restrict_check_exit_codes(tmp_path, capsys):
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
    capsys.readouterr()
    assert main(["restrict-check", "--config", incompatible, *out]) == 1
    err = capsys.readouterr().err
    assert "slice C^1 x {0} is not an almost complex submanifold" in err


def test_dual_check(tmp_path, capsys):
    base = {"structure": {"preset": "standard", "n": 1},
            "point": [0.0, 0.0],
            "jet": [0.0, 0.0, 2.0, 0.0, 2.0]}
    cfg = write_json(tmp_path / "dual.json", base)
    out = ["--out", str(tmp_path / "out"), "--quiet"]
    assert main(["dual-check", "--config", cfg, *out]) == 0
    # a NaN jet entry or point is an input error, on every structure
    eps = {"preset": "antilinear-linear-eps", "n": 1, "eps": 0.1,
           "generator": 0}
    nan = float("nan")
    for change in ({"jet": [0.0, nan, 2.0, 0.0, 2.0]}, {"point": [nan, 0.0]},
                   {"point": [nan, 0.0], "structure": eps}):
        cfg = write_json(tmp_path / "dual.json", dict(base, **change))
        capsys.readouterr()
        assert main(["dual-check", "--config", cfg, *out]) == 1
        assert "finite" in capsys.readouterr().err


def test_equivalence_suite_determinism_and_exits(tmp_path, monkeypatch):
    cfg = write_json(tmp_path / "suite.json", {
        "linear_fields": 4, "bumps": 2, "balls": 2, "quadratics": 6,
        "restriction_fields": 2})
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["equivalence-suite", "--config", cfg, "--seed", "9",
                 "--out", str(a), "--quiet"]) == 0
    assert main(["equivalence-suite", "--config", cfg, "--seed", "9",
                 "--out", str(b), "--quiet"]) == 0
    assert (a / "suite.json").read_bytes() == (b / "suite.json").read_bytes()
    restriction = json.loads((a / "suite.json").read_text())["restriction"]
    assert restriction["total"] == 2 and restriction["all_pass"]
    empty = write_json(tmp_path / "empty.json", {"linear_fields": 0})
    assert main(["equivalence-suite", "--config", empty,
                 "--out", str(tmp_path / "c"), "--quiet"]) == 1
    # an unknown key (a misspelt size, the retired failure switch) is an
    # input error, not a silent default
    for key in ("linear_feilds", "inject_failure"):
        bad = write_json(tmp_path / "bad.json", {key: 1})
        assert main(["equivalence-suite", "--config", bad,
                     "--out", str(tmp_path / "c"), "--quiet"]) == 1
    # a failed battery exits 3 and still writes its report
    monkeypatch.setattr("acx.cli.run_equivalence_suite",
                        lambda config: {"schema": "acx/1", "all_pass": False})
    assert main(["equivalence-suite", "--config", cfg, "--seed", "9",
                 "--out", str(tmp_path / "d"), "--quiet"]) == 3
    assert json.loads((tmp_path / "d" / "suite.json").read_text())[
        "all_pass"] is False


_POLY = {"kind": "expression", "id": "harmonic-poly",
         "coefficients": [[2, 1.0, 0.0]]}


@pytest.mark.parametrize("key, change", [
    ("domain.nodes_per_axis", {"domain": dict(DISC_DOMAIN, nodes_per_axis=17.9)}),
    ("domain.nodes_per_axis", {"domain": dict(DISC_DOMAIN, nodes_per_axis=True)}),
    ("domain.stencil_radius", {"domain": dict(DISC_DOMAIN, stencil_radius=2.0)}),
    ("domain.radius", {"domain": dict(DISC_DOMAIN, radius="1")}),
    ("domain.dim", {"domain": {"kind": "box", "bounds": [-1, 1],
                               "nodes_per_axis": 17, "dim": True}}),
    ("structure.n", {"structure": {"preset": "standard", "n": True}}),
    ("structure.eps", {"structure": {"preset": "antilinear-linear-eps",
                                     "n": 1, "eps": True}}),
    ("structure.generator", {"structure": {"preset": "antilinear-linear-eps",
                                           "n": 1, "generator": 1.5}}),
    ("structure.m", {"structure": {"preset": "antilinear-slice-compatible",
                                   "n": 2, "m": True}}),
    ("scheme.max_iterations", {"scheme": {"max_iterations": 2.7}}),
    ("scheme.tol_res", {"scheme": {"tol_res": True}}),
    ("rhs.value", {"rhs": {"kind": "constant", "value": True}}),
    ("boundary.value", {"boundary": {"kind": "expression", "id": "constant",
                                     "value": "0"}}),
    ("boundary.coefficients",
     {"boundary": dict(_POLY, coefficients=[[2.5, 1.0, 0.0]])}),
    ("boundary.coefficients",
     {"boundary": dict(_POLY, coefficients=[[2, True, 0.0]])}),
])
def test_config_numbers_are_neither_truncated_nor_coerced(solve_cfg, key,
                                                          change):
    # a float where an integer belongs, or a bool where a number belongs,
    # is an input error naming the key, not a truncated or coerced value
    cfg = dict(json.loads(open(solve_cfg).read()), **change)
    with pytest.raises(InputError, match=key):
        _problem_from(cfg)


def test_slice_and_suite_sizes_must_be_integers(tmp_path, capsys):
    out = ["--out", str(tmp_path / "x"), "--quiet"]
    cfg = write_json(tmp_path / "r.json", {
        "field_csv": str(tmp_path / "none.csv"), "slice_m": 1.0,
        "domain": {"kind": "ball", "center": [0, 0, 0, 0], "radius": 0.8,
                   "nodes_per_axis": 9},
        "structure": {"preset": "antilinear-slice-compatible", "n": 2}})
    export_csv(ScalarField.from_vectorized(
        LatticeDomain.ball(np.zeros(4), 0.8, 9), abs2), tmp_path / "none.csv")
    assert main(["restrict-check", "--config", cfg, *out]) == 1
    assert "slice_m" in capsys.readouterr().err
    for value in (2.5, True):
        cfg = write_json(tmp_path / "s.json", {"balls": value})
        assert main(["equivalence-suite", "--config", cfg, *out]) == 1
        assert "balls must be an integer" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("key", SIZE_KEYS)
def test_suite_config_rejects_non_positive_sizes(key):
    with pytest.raises(SuiteError, match="battery sizes must be positive"):
        SuiteConfig(**{key: 0})


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



@pytest.mark.parametrize("command, text, needle", [
    ("solve", "", "no header"),
    ("solve", "c0,c1,value\n1,0,1\n0,1\n", "row 2"),
    ("check-psh", "", "no header"),
    ("check-psh", "c0,c1,value,class\n0,0\n", "row 1"),
])
def test_malformed_csv_is_an_input_error(tmp_path, capsys, command, text,
                                         needle):
    # an empty file or a row without its value column exits 1 with the
    # input-error message, never a traceback
    csv_path = tmp_path / "data.csv"
    csv_path.write_text(text)
    cfg = {"domain": DISC_DOMAIN, "structure": {"preset": "standard", "n": 1}}
    if command == "solve":
        cfg["boundary"] = {"kind": "csv", "path": str(csv_path)}
    else:
        cfg["field_csv"] = str(csv_path)
    path = write_json(tmp_path / "cfg.json", cfg)
    capsys.readouterr()
    assert main([command, "--config", path, "--out", str(tmp_path / "out"),
                 "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("input error:") and needle in err
