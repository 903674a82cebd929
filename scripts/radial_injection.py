#!/usr/bin/env python3
"""Radial injection in a closed cell: point-like source at the center.

Tracks the invaded area (cells past a concentration threshold) and total
injected mass over time; with a high mobility ratio the radial front loses
symmetry and fingers.
"""

import argparse

import numpy as np

from egflow.driver import make_config, run


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--ratio", type=float, default=1000.0)
    ap.add_argument("--t-end", type=float, default=None,
                    help="override the preset horizon")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--threshold", type=float, default=0.5)
    ap.add_argument("--out", help="VTK/CSV output directory")
    args = ap.parse_args()

    extra = {} if args.t_end is None else {"t_end": args.t_end}
    cfg = make_config("hele_shaw_radial", ratio=args.ratio,
                      seed=args.seed, **extra)
    trace = []

    def hook(state):
        dm = state["dofmap"]
        means = dm.cell_means(state["C"])
        invaded = float(dm.mesh.cell_area[means >= args.threshold].sum())
        trace.append((state["step"], state["time"], invaded,
                      state["record"]["mass"], dm.mesh.n_active))

    run(cfg, outdir=args.out, step_hook=hook)

    print(f"{'step':>6} {'time':>8} {'invaded area':>13} {'mass':>12} {'cells':>6}")
    stride = max(1, len(trace) // 20)
    for step, t, area, mass, cells in trace[::stride] + [trace[-1]]:
        print(f"{step:>6} {t:>8.4g} {area:>13.5f} {mass:>12.5g} {cells:>6}")

    # effective front radius assuming a disk
    _, t, area, _, _ = trace[-1]
    print(f"\nfinal equivalent radius {np.sqrt(area / np.pi):.4f} at t={t:g}")


if __name__ == "__main__":
    main()
