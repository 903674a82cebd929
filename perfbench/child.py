"""One measured egflow run in a fresh interpreter; prints one JSON line.

    python3 perfbench/child.py --workload NAME --seed N --mode setup|run|trace [--out DIR]

Every mode first times the set-up `run()` does before step 1 (import egflow,
make_config, build_uniform + refine to r_min, EGDofMap, AssemblyContext).
`run` then times `egflow.driver.run` untraced; `trace` times it with every
layer wrapped in spans (see spans.py).  All checks on the result happen after
`run()` returns, outside the timed interval; run.py judges them.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import time

from spans import ADAPT_TAG, Tracer, install, layer_metrics
from workloads import WORKLOADS


def timed_setup(workload, seed):
    """Seconds from `import egflow` to a ready AssemblyContext, and the config."""
    t0 = time.perf_counter()
    import egflow  # noqa: F401
    from egflow.driver import make_config
    from egflow.egspace import AssemblyContext, EGDofMap
    from egflow.mesh import build_uniform

    spec = WORKLOADS[workload]
    cfg = make_config(spec["scenario"], seed=seed, **spec["overrides"])
    mesh = build_uniform(cfg.domain, cfg.nx, cfg.ny)
    for _ in range(cfg.marking.bounds.r_min):
        mesh = mesh.refine(mesh.cell_id)
    AssemblyContext(mesh, EGDofMap(mesh))
    return time.perf_counter() - t0, cfg


def versions():
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas}


def measured_run(cfg, outdir, tracer):
    """Run the simulation; returns the facts run.py checks and aggregates."""
    from egflow.driver import run
    from egflow.flow import local_conservation_residual
    from egflow.linalg import SolverError

    stamps, gens, stepped = [], [], set()
    last = {}
    n_steps = cfg.n_steps

    def hook(state):
        stamps.append(time.perf_counter())
        mesh = state["mesh"]
        gens.append(mesh.generation)
        if tracer is not None:
            stepped.add(getattr(mesh, ADAPT_TAG, None))
        if state["step"] == n_steps:
            last.update(state)

    error = None
    t0 = time.perf_counter()
    try:
        result = run(cfg, outdir=outdir, step_hook=hook)
    except SolverError as exc:
        result, error = None, f"SolverError: {exc}"
    wall = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    out = {"wall_s": wall, "n_steps": n_steps, "completed": len(stamps),
           "peak_rss_mb": peak_rss_mb, "error": error,
           "cell_max": cfg.marking.bounds.cell_max}
    csv = os.path.join(outdir, "diagnostics.csv")
    if os.path.exists(csv):
        with open(csv, "rb") as fh:
            out["csv_sha256"] = hashlib.sha256(fh.read()).hexdigest()
    if result is None:
        return out

    records = result.records
    intervals = [1e3 * (b - a) for a, b in zip(stamps, stamps[1:])]
    loop_s = stamps[-1] - stamps[0]
    loop_dofs = sum(r["dofs"] for r in records[1:])
    gens.append(result.mesh.generation)
    if tracer is not None:
        stepped.add(getattr(result.mesh, ADAPT_TAG, None))
        stepped.discard(None)

    nonfinite = next((r["step"] for r in records
                      if not all(math.isfinite(r[k]) for k in ("mass", "cmin", "cmax"))),
                     None)
    if nonfinite is None and not all(map(math.isfinite, result.C)):
        nonfinite = n_steps
    residual = None
    if last.get("kappa") is not None:     # pressure workloads only
        flux = last["flux"]
        r = local_conservation_residual(
            last["ctx"], flux, last["q_qp"], cfg.flow, cfg.dt,
            P_np1=last["P"], P_n=last["P_n"], P_nm1=last["P_nm1"], m=last["m"])
        mesh = last["mesh"]
        h = max(float(mesh.cell_hx.max()), float(mesh.cell_hy.max()))
        scale = cfg.flow.rho0 * float(abs(flux.face_un).max()) * h
        residual = float(abs(r).max()) / scale
    final = records[-1]
    out.update({
        "intervals_ms": intervals,
        "dof_steps_per_s": loop_dofs / loop_s if loop_s > 0 else None,
        "mesh_changes": sum(a != b for a, b in zip(gens, gens[1:])),
        "iters_flow": sum(r["gmres_flow"] for r in records) / len(records),
        "iters_transport": sum(r["gmres_transport"] for r in records) / len(records),
        "max_cells": max(r["cells"] for r in records),
        "final": {k: final[k] for k in ("cells", "dofs", "mass", "cmin", "cmax", "xtip")},
        "nonfinite_step": nonfinite,
        "residual": residual,
    })
    if tracer is not None:
        out["layers"] = layer_metrics(tracer, wall, n_steps, stepped)
        out["absent"] = tracer.absent
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "run", "trace"))
    ap.add_argument("--out", help="output directory of the run")
    args = ap.parse_args()

    setup_s, cfg = timed_setup(args.workload, args.seed)
    out = {"setup_s": setup_s, "versions": versions(), "n_steps": cfg.n_steps}
    if args.mode != "setup":
        tracer = None
        if args.mode == "trace":
            tracer = install(Tracer())
        out.update(measured_run(cfg, args.out, tracer))
    print(json.dumps(out))


if __name__ == "__main__":
    main()
