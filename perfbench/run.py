#!/usr/bin/env python3
"""Seeded solve-and-verify benchmark for the acx package.

    python3 perfbench/run.py --workload ball-n2 --seed 1 --seconds 56 --trace 0

Runs one workload from this process in a closed loop (one op at a time),
checks every op's output, and prints as its last stdout line one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones (wall_s, setup_s,
peak_rss_mb); with ``--trace 1`` they are the per-layer ones, measured by
wrapping the acx modules from outside at run time (see tracer.py).  The
line before it is a JSON object with the machine facts, every op's time
and each failure's reason.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# set-up is timed in this many fresh interpreters; the median is reported
SETUP_RUNS = 11

# per-layer metric -> (span name, statistic, unit).  Statistics are per op:
# "calls" counts spans, "s" is inclusive seconds, "self_s" is seconds minus
# the time of traced children, "extra" sums the span hook's values.
LAYER_METRICS = {
    "dirichlet.sweeps": ("dirichlet.solve", "extra", "count"),
    "dirichlet.residual.self_s":
        ("dirichlet.BellmanOperator.residual", "self_s", "s"),
    "dirichlet.solve.self_s": ("dirichlet.solve", "self_s", "s"),
    "dirichlet.refreshes":
        ("dirichlet.BellmanOperator.adapted_policy", "calls", "count"),
    "discretize.value.calls": ("discretize.Policy.value", "calls", "count"),
    "discretize.value.s": ("discretize.Policy.value", "s", "s"),
    "discretize.snap_policy.calls":
        ("discretize.snap_policy", "calls", "count"),
    "discretize.snap_policy.s": ("discretize.snap_policy", "s", "s"),
    "discretize.snap_policy.score_mb":
        ("discretize.snap_policy", "extra", "MB"),
    "discretize.Stencil.s": ("discretize.Stencil.__init__", "s", "s"),
    "discretize.Policy.new_s": ("discretize.Policy.__init__", "s", "s"),
    "lattice.stencil_table.s":
        ("lattice.LatticeDomain.stencil_table", "s", "s"),
    "lattice.neighbor_ids.calls":
        ("lattice.LatticeDomain.neighbor_ids", "calls", "count"),
    "lattice.neighbor_ids.s": ("lattice.LatticeDomain.neighbor_ids", "s", "s"),
    "lattice.node_at.calls":
        ("lattice.LatticeDomain.node_at", "calls", "count"),
    "lattice.node_at.s": ("lattice.LatticeDomain.node_at", "s", "s"),
    "algebra.dj.calls": ("algebra.AlmostComplexField.dj", "calls", "count"),
    "algebra.dj.s": ("algebra.AlmostComplexField.dj", "s", "s"),
    "algebra.e_tensor.s": ("algebra.AlmostComplexField.e_tensor", "s", "s"),
    "algebra.e_form.s": ("algebra.AlmostComplexField.e_form", "s", "s"),
    "algebra.g.s": ("algebra.AlmostComplexField.g", "s", "s"),
    "lattice.JetTable.jets.s": ("lattice.JetTable.jets", "s", "s"),
    "subeq.transformed_hermitian.s":
        ("subeq.transformed_hermitian", "s", "s"),
    "psh.adapted_bstar.s": ("psh.adapted_bstar", "s", "s"),
    "lattice.fd_jets.s": ("lattice.fd_jets", "s", "s"),
    "subeq.margins_for_jets.s": ("subeq.margins_for_jets", "s", "s"),
    "psh.field_margins.s": ("psh.field_margins", "s", "s"),
    "psh.blap_min_field.s": ("psh.blap_min_field", "s", "s"),
    "psh.psh_margin.s": ("psh.psh_margin", "s", "s"),
    "psh.restriction_check.s": ("psh.restriction_check", "s", "s"),
    "psh.default_field_tol.s": ("psh.default_field_tol", "s", "s"),
    "linpot.harmonic_replacement.calls":
        ("linpot.harmonic_replacement", "calls", "count"),
    "linpot.harmonic_replacement.s":
        ("linpot.harmonic_replacement", "s", "s"),
    "linpot.subfield_on.s": ("linpot.subfield_on", "s", "s"),
    "linpot.classical_subharmonic.s":
        ("linpot.classical_subharmonic", "s", "s"),
    "linpot.distributional_pairing.s":
        ("linpot.distributional_pairing", "s", "s"),
    "suite.linear_triangle_battery.s":
        ("suite.linear_triangle_battery", "s", "s"),
    "suite.blaplacian_agreement_battery.s":
        ("suite.blaplacian_agreement_battery", "s", "s"),
    "suite.restriction_battery.s": ("suite.restriction_battery", "s", "s"),
}


def _snap_score_mb(args, kwargs, out) -> float:
    """Size of the direction-score array snap_policy fills, computed from
    the shapes (rows x d x directions x 8 B), not measured."""
    stencil = args[0]
    s_field = args[1] if len(args) > 1 else kwargs["s_field"]
    rows, d = s_field.shape[0], s_field.shape[1]
    return rows * d * stencil.dirs.shape[0] * 8 / 1e6


TRACE_HOOKS = {
    "dirichlet.solve": lambda args, kwargs, out: out[1].iterations,
    "discretize.snap_policy": _snap_score_mb,
}


def load_acx():
    """Import acx from the source tree next to this directory, never from
    an installed copy."""
    if not (SRC / "acx" / "__init__.py").is_file():
        raise SystemExit(f"error: acx sources not found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import acx
    if Path(acx.__file__).resolve().parent != (SRC / "acx").resolve():
        raise SystemExit(f"error: imported acx from {acx.__file__}")
    return acx


def machine_facts() -> dict:
    import numpy as np
    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": blas_name,
        "loadavg_at_start": list(os.getloadavg()),
    }


def measure_setup(workload: str, seed: int, runs: int = SETUP_RUNS) -> tuple:
    """Median wall time of fresh interpreters that import acx and generate
    the workload's inputs, then exit (interpreter start to first op)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           workload, "--seed", str(seed), "--setup-only"]
    times = []
    for _ in range(runs):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL)
        # a timer kills a hung child; Popen.wait(timeout) would instead poll
        # in sleeps of up to 50 ms and round every time up to that grid
        timer = threading.Timer(30.0, proc.kill)
        timer.start()
        try:
            code = proc.wait()
        finally:
            timer.cancel()
        times.append(time.perf_counter() - t0)
        if code != 0:
            raise subprocess.CalledProcessError(code, cmd)
    return statistics.median(times), times


class Loop:
    """Closed loop over whole cycles of a workload's problems."""

    def __init__(self, workload):
        self.workload = workload
        self.digests: dict[str, str] = {}
        self.outcomes = []
        self.cycles: list[list[float]] = []     # per cycle: op seconds

    def run_cycle(self, k: int) -> list[float]:
        from workloads import Outcome

        times = []
        for problem in self.workload.cycle(k):
            t0 = time.perf_counter()
            try:
                out, error = self.workload.op(problem), None
            except Exception:
                error = traceback.format_exc()
            times.append(time.perf_counter() - t0)
            if error is not None:
                print(error, file=sys.stderr)
                outcome = Outcome(False, False, "",
                                  error.strip().splitlines()[-1])
            else:
                outcome = self.workload.check(problem, out)
                first = self.digests.setdefault(problem["key"], outcome.digest)
                if first != outcome.digest:
                    outcome.ok = outcome.honest = False
                    outcome.note += "; report bytes differ from an earlier op"
            self.outcomes.append(outcome)
        self.cycles.append(times)
        return times

    def run_until(self, start: float, seconds: float, min_cycles: int,
                  same_inputs: bool = False):
        """Run cycles until the next one would end past ``seconds`` after
        ``start``, at least ``min_cycles``; with ``same_inputs`` every
        cycle repeats cycle 0's problems."""
        n = 0
        while True:
            times = self.run_cycle(0 if same_inputs else len(self.cycles))
            n += 1
            elapsed = time.perf_counter() - start
            if n >= min_cycles and elapsed + sum(times) > seconds:
                return


def per_op_wall(cycles) -> float:
    """Median over cycles of the cycle's mean op time."""
    return statistics.median(sum(c) / len(c) for c in cycles)


def layer_metrics(tracer, ops: int, overhead: float) -> dict:
    layers = tracer.layers()
    empty = {"calls": 0, "incl_ns": 0, "self_ns": 0, "extra": 0.0}
    out = {}
    for metric, (span, stat, unit) in LAYER_METRICS.items():
        row = layers.get(span, empty)
        value = {"calls": row["calls"], "s": row["incl_ns"] * 1e-9,
                 "self_s": row["self_ns"] * 1e-9, "extra": row["extra"]}[stat]
        out[metric] = {"value": value / ops, "unit": unit}
    hr = layers.get("linpot.harmonic_replacement", empty)["calls"]
    evals = tracer.child_calls("discretize.Policy.value",
                               "linpot.harmonic_replacement")
    # one value() per sweep plus the final converged check per replacement
    out["linpot.harmonic_replacement.sweeps"] = {
        "value": (evals - hr) / ops, "unit": "count"}
    out["trace_overhead"] = {"value": overhead, "unit": "s"}
    return out


def run_workload(workload, seconds: float, trace: bool,
                 setup_s: float | None = None) -> tuple[dict, dict]:
    """(result, info): the result object and the diagnostics line."""
    acx = load_acx()
    start = time.perf_counter()
    loop = Loop(workload)
    info = {"workload": workload.name, "seconds": seconds,
            "trace": int(trace), "ops_per_cycle": len(workload.cycle(0))}
    if not trace:
        loop.run_until(start, seconds, min_cycles=2)
        wall = per_op_wall(loop.cycles)
        metrics = {
            "wall_s": {"value": wall, "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                / 1024.0, "unit": "MB"},
        }
    else:
        from tracer import Tracer

        # the traced cycles repeat the untraced reference cycle's inputs,
        # so counts per op repeat exactly for a seed
        loop.run_cycle(0)
        untraced = per_op_wall(loop.cycles)
        tracer = Tracer(TRACE_HOOKS)
        try:
            tracer.install(acx)
            missing = {s for s, _, _ in LAYER_METRICS.values()} - tracer.names
            if missing:
                raise SystemExit(f"error: no such acx callables: {missing}")
            loop.run_until(start, seconds, min_cycles=1, same_inputs=True)
        finally:
            tracer.uninstall()
        traced_cycles = loop.cycles[1:]
        traced_ops = sum(len(c) for c in traced_cycles)
        overhead = per_op_wall(traced_cycles) - untraced
        metrics = layer_metrics(tracer, traced_ops, overhead)
        info["spans"] = len(tracer.spans)
        info["untraced_wall_s"] = untraced
    attempted = len(loop.outcomes)
    failed = sum(not o.ok for o in loop.outcomes)
    info.update({
        "ops": attempted,
        "fail_frac": failed / attempted,
        "op_seconds": [t for c in loop.cycles for t in c],
        "op_stats": [o.stats for o in loop.outcomes],
        "failures": [o.note for o in loop.outcomes if not o.ok],
    })
    result = {"correct": all(o.honest for o in loop.outcomes),
              "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, info


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=56.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    load_acx()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; "
                 f"choose from {sorted(WORKLOADS)}")
    make = WORKLOADS[args.workload]
    if args.setup_only:
        make(args.seed).cycle(0)
        return 0

    facts = machine_facts()
    setup_s, setup_times = (None, []) if args.trace else measure_setup(
        args.workload, args.seed)
    workload = make(args.seed)
    result, info = run_workload(workload, args.seconds, bool(args.trace),
                                setup_s)
    info.update({"seed": args.seed, "machine": facts,
                 "setup_runs_s": setup_times})
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
