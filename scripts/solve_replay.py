#!/usr/bin/env python3
"""Record every linear solve of a short run, then replay it in process.

The run records each (A, b, x0, tol) that a `LaggedLU` solves, with the mesh
generation it belongs to.  The replay feeds that sequence to fresh
`generation_factors`, one set per recorded generation, and prints per
system the solve time, the Krylov iterations and the number of LU factors,
per step of the run.  Only the solve layer runs on fixed inputs, so a
solver change is measured apart from the rest of the step.

    python3 scripts/solve_replay.py --t-end 1.0 --repeat 5     # rect_fingering
    python3 scripts/solve_replay.py --history 1     # the previous solution alone
"""

import argparse
import statistics
import time

from egflow import linalg
from egflow.driver import make_config, run
from egflow.linalg import LaggedLU, generation_factors


def record(cfg):
    """[(generation, system, A, b, x0, tol)] of every solve, and the step count."""
    solves, generations = [], {}
    solve = LaggedLU.solve

    def recording(self, A, b, x0=None, tol=1e-10):
        # the shared order identifies the generation; holding it keeps ids unique
        gen = generations.setdefault(id(self.order), (len(generations), self.order))[0]
        solves.append((gen, self.name, A.copy(), b.copy(),
                       None if x0 is None else x0.copy(), tol))
        return solve(self, A, b, x0, tol)

    LaggedLU.solve = recording
    try:
        steps = len(run(cfg).records)
    finally:
        LaggedLU.solve = solve
    return solves, steps


def replay(solves):
    """{system: [seconds, iterations, factors]} over one replay of `solves`."""
    names = list(dict.fromkeys(name for _, name, *_ in solves))
    totals = {name: [0.0, 0, 0] for name in names}
    factored = [0]
    factor = linalg._factor

    def counting(A, order):
        factored[0] += 1
        return factor(A, order)

    linalg._factor = counting
    try:
        current, factors = None, None
        for gen, name, A, b, x0, tol in solves:
            if gen != current:
                current, factors = gen, generation_factors(*names)
            before = factored[0]
            t0 = time.perf_counter()
            out = factors[name].solve(A, b, x0=x0, tol=tol)
            totals[name][0] += time.perf_counter() - t0
            totals[name][1] += out.iterations
            totals[name][2] += factored[0] - before
    finally:
        linalg._factor = factor
    return totals


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--scenario", default="hele_shaw_rect")
    ap.add_argument("--t-end", type=float, default=1.0)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--history", type=int, default=linalg.HISTORY,
                    help="linalg.HISTORY during the replay")
    ap.add_argument("--repeat", type=int, default=3,
                    help="replays; the median time is printed")
    args = ap.parse_args()
    if args.history < 1:
        ap.error("--history must be at least 1: a lagged solve starts from it")

    cfg = make_config(args.scenario, t_end=args.t_end, seed=args.seed)
    solves, steps = record(cfg)
    linalg.HISTORY = args.history
    runs = [replay(solves) for _ in range(args.repeat)]

    print(f"{len(solves)} solves over {steps} steps, HISTORY = {args.history}")
    print(f"{'system':>10} {'ms/step':>9} {'iters/step':>11} {'factors':>8}")
    for name, (_, iterations, factors) in runs[0].items():
        ms = statistics.median(r[name][0] for r in runs) * 1e3 / steps
        print(f"{name:>10} {ms:>9.3f} {iterations / steps:>11.2f} {factors:>8}")


if __name__ == "__main__":
    main()
