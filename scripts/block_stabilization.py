#!/usr/bin/env python3
"""Stabilized vs unstabilized transport over the low-permeability block.

Runs the perm_block scenario twice (entropy stabilization on and off) and
reports the concentration overshoot/undershoot history, optionally dumping
VTK snapshots of both runs for side-by-side inspection.
"""

import argparse
import os

from egflow.driver import make_config, run


def overshoot(rec):
    return max(0.0, rec["cmax"] - 1.0) + max(0.0, -rec["cmin"])


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--dt", type=float, default=0.02)
    ap.add_argument("--t-end", type=float, default=2.0)
    ap.add_argument("--r-max", type=int, default=1)
    ap.add_argument("--out", help="write VTK/CSV under OUT/{stab,raw}")
    args = ap.parse_args()

    runs = {}
    for label, extra in (
        ("stab", {}),
        ("raw", {"lambda_lin": 0.0, "lambda_ent": 0.0}),
    ):
        cfg = make_config("perm_block", dt=args.dt, t_end=args.t_end,
                          r_max=args.r_max, **extra)
        outdir = os.path.join(args.out, label) if args.out else None
        runs[label] = run(cfg, outdir=outdir)
        print(f"{label}: {len(runs[label].records)} steps, "
              f"{runs[label].mesh.n_active} cells at the end")

    print(f"\n{'step':>6} {'time':>8} {'stabilized':>12} {'unstabilized':>13}")
    for rs, rr in zip(runs["stab"].records, runs["raw"].records):
        if rs["step"] % 10 == 0 or rs["step"] == len(runs["stab"].records):
            print(f"{rs['step']:>6} {rs['time']:>8.3f} "
                  f"{overshoot(rs):>12.5f} {overshoot(rr):>13.5f}")

    s, r = overshoot(runs["stab"].records[-1]), overshoot(runs["raw"].records[-1])
    print(f"\nfinal overshoot: stabilized {s:.5f}, unstabilized {r:.5f}, "
          f"ratio {r / s if s else float('inf'):.2f}")


if __name__ == "__main__":
    main()
