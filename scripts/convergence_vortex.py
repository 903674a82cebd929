#!/usr/bin/env python3
"""Grid-convergence study on the reversing single-vortex tracer.

The velocity reverses after half a period, so the exact solution at t = T_p
is the initial condition; the L2 return error measures the full scheme.
Runs a sequence of uniform meshes with dt halved alongside h and prints an
error/order table.
"""

import argparse

import numpy as np

from egflow.driver import make_config, run
from egflow.egspace import CELL_WEIGHTS


def l2_norm(ctx, coeffs):
    return float(np.sqrt(((ctx.cell_values(coeffs) ** 2) @ CELL_WEIGHTS) @ ctx.cell_area))


def return_error(n, dt, lam):
    cfg = make_config("single_vortex", nx=n, ny=n, dt=dt, t_end=2.0,
                      lambda_lin=lam, lambda_ent=lam)
    first = {}

    def hook(state):
        if state["step"] == 1:
            first["C0"] = state["C_n"].copy()

    res = run(cfg, step_hook=hook)
    return l2_norm(res.ctx, res.C - first["C0"])


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--levels", type=int, default=4,
                    help="number of refinements starting from n=4 (default 4)")
    ap.add_argument("--dt0", type=float, default=0.1,
                    help="time step on the coarsest mesh (default 0.1)")
    ap.add_argument("--lam", type=float, default=0.5,
                    help="stabilization constants lambda_lin = lambda_ent")
    args = ap.parse_args()

    print(f"{'n':>5} {'dt':>9} {'L2 return error':>17} {'order':>7}")
    prev = None
    for k in range(args.levels):
        n, dt = 4 * 2**k, args.dt0 / 2**k
        err = return_error(n, dt, args.lam)
        order = "" if prev is None else f"{np.log2(prev / err):7.2f}"
        print(f"{n:>5} {dt:>9.4g} {err:>17.6e} {order:>7}")
        prev = err


if __name__ == "__main__":
    main()
