#!/usr/bin/env python3
"""Unit-disc Monge-Ampere experiments: the Dirichlet problem with datum
|z|^2 and a constant right-hand side f over a resolution sweep, flat or
antilinear-perturbed, printing per resolution the Howard steps, the
residual, the sup error against |z|^2 (the exact solution for f = 1 on the
flat structure) and the wall clock."""

import argparse
import time

import numpy as np

from acx.algebra import make_structure
from acx.dirichlet import DirichletProblem, solve
from acx.lattice import LatticeDomain
from acx.subeq import Subequation, constant_rhs


def abs2(X):
    return (X ** 2).sum(axis=1)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--eps", type=float, default=0.0,
                    help="antilinear perturbation strength (0 = flat)")
    ap.add_argument("--f", type=float, default=1.0)
    ap.add_argument("--resolutions", type=int, nargs="+",
                    default=[17, 33, 65])
    args = ap.parse_args()

    if args.eps == 0.0:
        acx = make_structure("standard", n=1)
    else:
        acx = make_structure("antilinear-linear-eps", n=1, eps=args.eps,
                             generator=0)
    rhs = None if args.f == 0 else constant_rhs(args.f)

    print(f"structure={acx.name} f={args.f}")
    print(f"{'nodes':>6} {'h':>9} {'iters':>7} {'residual':>10} "
          f"{'sup err vs |z|^2':>17} {'time':>7}")
    for nodes in args.resolutions:
        dom = LatticeDomain.ball(np.zeros(2), 1.0, nodes)
        prob = DirichletProblem(dom, Subequation(acx, rhs=rhs), abs2)
        t0 = time.perf_counter()
        u, rep = solve(prob)
        err = np.max(np.abs(u.values - abs2(dom.node_coords)))
        note = "" if rep.converged else "  (no convergence)"
        print(f"{nodes:>6} {dom.h:>9.5f} {rep.iterations:>7} "
              f"{rep.residual:>10.2e} {err:>17.3e} "
              f"{time.perf_counter() - t0:>6.1f}s{note}")


if __name__ == "__main__":
    main()
