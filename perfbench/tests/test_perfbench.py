"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

acx = run.load_acx()

import tracer  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"]
         for m in BENCH["end_to_end"] + BENCH["per_layer"]}

TINY = {
    "ball-n2": lambda: workloads.BallN2(1, nodes=9, cap=40),
    "verify-suite": lambda: workloads.VerifySuite(
        1, linear_fields=2, bumps=1, balls=1, quadratics=2,
        restriction_fields=2),
}


def test_workloads_match_benchmark_json():
    names = [w["name"] for w in BENCH["workloads"]]
    assert names == list(workloads.WORKLOADS) == list(TINY)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(TINY))
def test_tiny_run_emits_every_metric_with_its_unit(name, trace):
    result, info = run.run_workload(TINY[name](), 0, trace, setup_s=0.5)
    expected = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for metric, entry in result["metrics"].items():
        assert entry["unit"] == UNITS[metric]
        assert isinstance(entry["value"], (int, float))
    assert result["attempted"] >= 1
    assert info["ops"] == result["attempted"]
    json.dumps(result)


def test_setup_is_timed_in_fresh_interpreters():
    median, times = run.measure_setup("ball-n2", 1, runs=1)
    assert len(times) == 1 and median == times[0] > 0


def _traced_op(wl):
    t = tracer.Tracer(run.TRACE_HOOKS)
    t.install(acx)
    try:
        out = wl.op(wl.cycle(0)[0])
    finally:
        t.uninstall()
    return t, out


def test_spans_nest_and_self_time_is_nonnegative():
    wl = TINY["ball-n2"]()
    t, (u, rep) = _traced_op(wl)
    spans = t.spans
    assert spans
    for i, s in enumerate(spans):
        assert s[tracer.START] <= s[tracer.END]
        p = s[tracer.PARENT]
        if p >= 0:
            assert p < i
            assert spans[p][tracer.START] <= s[tracer.START]
            assert s[tracer.END] <= spans[p][tracer.END]
    assert min(t.self_ns()) >= 0
    layers = t.layers()
    assert layers["dirichlet.solve"]["calls"] == 1
    assert layers["dirichlet.solve"]["extra"] == rep.iterations
    # snap_policy is reached through the names dirichlet and psh imported
    assert layers["discretize.snap_policy"]["calls"] > 0


def _attribute_snapshot():
    owners = [m for name, m in sys.modules.items()
              if name == "acx" or name.startswith("acx.")]
    owners += [obj for m in list(owners) for obj in vars(m).values()
               if isinstance(obj, type)]
    return {(id(o), attr): val
            for o in owners for attr, val in vars(o).items()}


def test_every_patched_attribute_is_restored():
    before = _attribute_snapshot()
    original = acx.psh.snap_policy
    t = tracer.Tracer()
    t.install(acx)
    patched = list(t.patched)
    try:
        assert acx.psh.snap_policy is not original
        assert acx.psh.snap_policy is acx.dirichlet.snap_policy
        assert acx.linpot.snap_policy is acx.discretize.snap_policy
    finally:
        t.uninstall()
    assert len(patched) > 100
    for owner, attr, value in patched:
        assert vars(owner)[attr] is value
    after = _attribute_snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_counts_repeat_exactly_for_a_seed():
    keys = ["dirichlet.sweeps", "dirichlet.refreshes", "algebra.dj.calls",
            "discretize.snap_policy.calls"]
    runs = [run.run_workload(TINY["ball-n2"](), 0, True)[0]["metrics"]
            for _ in range(2)]
    assert [runs[0][k] for k in keys] == [runs[1][k] for k in keys]
    assert runs[0]["dirichlet.sweeps"]["value"] > 0


class _Flaky:
    name = "flaky"

    def __init__(self):
        self.calls = 0

    def cycle(self, k):
        return [{"key": "same"}]

    def op(self, problem):
        self.calls += 1
        if self.calls == 1:
            raise FloatingPointError("boom")
        return self.calls

    def check(self, problem, out):
        return workloads.Outcome(True, True, digest=str(out))


def test_raising_and_nondeterministic_ops_fail_and_are_incorrect():
    loop = run.Loop(_Flaky())
    for k in range(3):
        loop.run_cycle(k)
    assert [o.ok for o in loop.outcomes] == [False, True, False]
    assert [o.honest for o in loop.outcomes] == [False, True, False]
    assert "boom" in loop.outcomes[0].note
    assert "differ" in loop.outcomes[2].note


def test_scaling_problem_solves_to_its_exact_datum():
    wl = workloads.DiscN1(1, nodes=17)
    problem = wl.cycle(0)[0]
    outcome = wl.check(problem, wl.op(problem))
    assert outcome.ok and outcome.stats["sup_err"] > 0


def test_stalled_solve_fails_but_is_not_incorrect():
    wl = workloads.BallN2(1, nodes=9, cap=3)
    problem = wl.cycle(0)[1]
    outcome = wl.check(problem, wl.op(problem))
    assert not outcome.ok and outcome.honest
    assert "no convergence within 3 sweeps" in outcome.note


def test_without_sources_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ball-n2",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
