#!/usr/bin/env python3
"""Sweep-count scaling of the disc-n1 problem (report only, never gates).

    python3 perfbench/scaling.py --seed 1

Solves disc-n1's seeded problem, and the plain ``|z|^2`` datum, at 33, 65
and 97 nodes per axis and prints the exact Jacobi sweep count and the wall
time of each solve.  The sweep count grows like h^-2; a solver change that
flattens it shows here first.  The last stdout line is one JSON object
with the rows and the machine facts.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from run import load_acx, machine_facts

SIZES = (33, 65, 97)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    load_acx()
    from workloads import DiscN1

    facts = machine_facts()
    rows = []
    print(f"{'datum':>8} {'nodes':>6} {'h':>9} {'sweeps':>7} {'sup_err':>10} "
          f"{'wall_s':>8}")
    for datum in ("abs2", "seeded"):
        for nodes in SIZES:
            wl = DiscN1(args.seed, nodes=nodes)
            problem = wl.cycle(0)[0]
            if datum == "abs2":
                problem = {"key": "abs2", "coefficients": []}
            t0 = time.perf_counter()
            out = wl.op(problem)
            wall = time.perf_counter() - t0
            outcome = wl.check(problem, out)
            dom = out[0]
            row = {"datum": datum, "nodes": nodes, "h": dom.h,
                   "sweeps": outcome.stats["iterations"],
                   "sup_err": outcome.stats["sup_err"], "wall_s": wall,
                   "ok": outcome.ok}
            rows.append(row)
            print(f"{datum:>8} {nodes:>6} {dom.h:>9.5f} {row['sweeps']:>7} "
                  f"{row['sup_err']:>10.3e} {wall:>8.2f}"
                  + ("" if outcome.ok else f"  FAILED: {outcome.note}"),
                  flush=True)
    print(json.dumps({"seed": args.seed, "machine": facts, "rows": rows}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
