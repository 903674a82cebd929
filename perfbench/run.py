"""egflow benchmark: time to solution, per-step times and a per-layer trace.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout holding `src/egflow`.  Every simulation
runs in a fresh interpreter (perfbench/child.py) with the BLAS/OpenMP pools
pinned to one thread.  A run lasts about S seconds, its warm-up interpreter
included.  With --trace 0 each round starts one set-up-only interpreter and
one repeat of the workload (at least two rounds, then while at least half
of another fits in S seconds), and the end-to-end metrics are medians over
the run; with --trace 1 an untraced and a traced run alternate and the
per-layer metrics come from the traced ones.  Every run is checked against
the reference in workloads.py and every repeat against the first
(byte-identical diagnostics.csv, identical counts).  The last stdout line is
one JSON object: correct, attempted and failed (time steps), and metrics
(name -> value, unit).
"""

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import REFERENCE, WORKLOADS  # noqa: E402

DEADLINE_S = 170.0       # the whole benchmark must end within 180 s
MIN_REPEATS = 2          # the determinism self-check needs a pair
TAIL_CAP = 85            # higher step percentiles follow the host's bursts

# self-time groups used to name each workload's dominant layer
GROUPS = {
    "assembly": ("flow.assemble_ms", "transport.assemble_ms", "linalg.scatter_ms"),
    "solve": ("flow.solve_ms", "transport.solve_ms", "linalg.precond_setup_ms",
              "linalg.krylov_ms", "egspace.reduce_ms"),
    "mesh_amr_rebuild": ("mesh.adapt_ms", "amr.mark_ms", "amr.transfer_ms",
                         "egspace.dofmap_ms", "egspace.context_ms"),
    "flux": ("flow.flux_ms",),
    "stabilization": ("stabilization.indicator_ms", "stabilization.viscosity_ms"),
    "driver": ("driver.diagnostics_ms", "driver.io_ms", "driver.other_ms"),
}

# values every repeat of one workload and seed must reproduce exactly
EXACT = ("csv_sha256", "mesh_changes", "iters_flow", "iters_transport",
         "max_cells", "final")
EXACT_LAYERS = ("linalg.reduced_nnz", "mesh.adapt_calls_per_step",
                "mesh.adapt_useful_ratio", "driver.io_bytes")


def child_env():
    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env, nproc


def cache_sizes():
    """L2/L3 sizes as the kernel reports them for CPU 0 (empty if unknown)."""
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for idx in sorted(base.glob("index*")):
            level = (idx / "level").read_text().strip()
            if level in ("2", "3"):
                out[f"L{level}"] = (idx / "size").read_text().strip()
    except OSError:
        pass
    return out


class Bench:
    def __init__(self, workload, seed, env, tmp):
        self.workload, self.seed, self.env, self.tmp = workload, seed, env, tmp
        self.start = time.monotonic()
        self.n_children = 0

    def remaining(self):
        return DEADLINE_S - (time.monotonic() - self.start)

    def child(self, mode):
        """Run child.py once; returns (result dict or None, error or None)."""
        self.n_children += 1
        outdir = os.path.join(self.tmp, f"run{self.n_children}")
        cmd = [sys.executable, str(HERE / "child.py"), "--workload", self.workload,
               "--seed", str(self.seed), "--mode", mode, "--out", outdir]
        try:
            p = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True,
                               text=True, timeout=max(self.remaining(), 1.0))
        except subprocess.TimeoutExpired:
            return None, f"{mode} run timed out"
        finally:
            shutil.rmtree(outdir, ignore_errors=True)
        if p.returncode != 0:
            tail = p.stderr.strip().splitlines()[-1:] or ["no output"]
            return None, f"{mode} run exited {p.returncode}: {tail[0]}"
        return json.loads(p.stdout.strip().splitlines()[-1]), None


def check(res, ref, first, first_traced, n_steps):
    """Failed steps of one run and the reasons (empty when it passed).

    `first` and `first_traced` are the first good run and the first good
    traced run of this benchmark invocation, or None.
    """
    why = []
    failed = 0
    if res.get("error"):
        why.append(res["error"])
        failed = n_steps - res["completed"]
    if res.get("nonfinite_step") is not None:
        why.append(f"non-finite field at step {res['nonfinite_step']}")
        failed = max(failed, n_steps - res["nonfinite_step"] + 1)
    if failed:
        return failed, why
    for key, (value, tol) in ref["final"].items():
        got = res["final"][key]
        if not abs(got - value) <= tol:
            why.append(f"final {key} = {got!r}, reference {value!r} +- {tol!r}")
    if res["residual"] is not None and not res["residual"] <= ref["residual"]:
        why.append(f"conservation residual {res['residual']:.3e} > {ref['residual']:.1e}")
    if res["max_cells"] > res["cell_max"]:
        why.append(f"{res['max_cells']} cells exceed the budget {res['cell_max']}")
    if first is not None:
        for key in EXACT:
            if res.get(key) != first.get(key):
                why.append(f"not deterministic: {key} differs between repeats")
    if first_traced is not None and "layers" in res:
        for key in EXACT_LAYERS:
            if res["layers"][key] != first_traced["layers"][key]:
                why.append(f"not deterministic: {key} differs between traced runs")
    return (n_steps if why else 0), why


def tail_percentile(n):
    """Highest whole percentile, at most TAIL_CAP, with at least ten of n
    samples beyond it."""
    return max(50, min(TAIL_CAP, math.floor(100.0 - 1000.0 / n)))


def end_to_end(runs, setups):
    intervals = [x for r in runs for x in r["intervals_ms"]]
    p = tail_percentile(len(intervals))
    q = statistics.quantiles(intervals, n=100, method="inclusive")
    metrics = {
        "wall_s": statistics.median(r["wall_s"] for r in runs),
        "dof_steps_per_s": statistics.median(r["dof_steps_per_s"] for r in runs),
        "step_ms_p50": statistics.median(intervals),
        "step_ms_tail": q[p - 1],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
    }
    return metrics, {"tail_percentile": p, "step_samples": len(intervals),
                     "setup_samples": len(setups),
                     "walls_s": [r["wall_s"] for r in runs]}


def per_layer(plain, traced, n_steps):
    metrics = {k: statistics.median(r["layers"][k] for r in traced)
               for k in traced[0]["layers"]}
    metrics["linalg.iters_flow"] = traced[0]["iters_flow"]
    metrics["linalg.iters_transport"] = traced[0]["iters_transport"]
    metrics["amr.mesh_change_share"] = traced[0]["mesh_changes"] / n_steps
    metrics["trace_overhead"] = (statistics.median(r["wall_s"] for r in traced)
                                 / statistics.median(r["wall_s"] for r in plain) - 1.0)
    groups = {g: sum(metrics[k] for k in keys) for g, keys in GROUPS.items()}
    return metrics, {"groups_ms_per_step": groups,
                     "dominant_group": max(groups, key=groups.get),
                     "absent": traced[0]["absent"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # SIGTERM unwinds like an exception, so the running child interpreter is
    # killed and waited for and the temporary directory is removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "egflow" / "__init__.py").is_file():
        print(f"error: no egflow sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}

    env, nproc = child_env()
    tmp_root = ROOT / ".perfbench_tmp"
    tmp_root.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(dir=tmp_root)
    try:
        return measure(args, env, nproc, tmp, units)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp_root.rmdir()
        except OSError:
            pass


def measure(args, env, nproc, tmp, units):
    bench = Bench(args.workload, args.seed, env, tmp)
    ref = REFERENCE[args.workload]
    # warm-up: writes the bytecode caches and warms the file cache; discarded
    warm, err = bench.child("setup")
    notes = [err] if err else []
    versions = warm["versions"] if warm else {}
    n_steps = warm["n_steps"] if warm else 1

    plain, traced, setups = [], [], []
    attempted = failed = 0
    first = None
    last = 0.0
    while warm is not None:
        # the warm-up counts against --seconds, and a round starts while at
        # least half of it fits, so a run lasts about --seconds on average
        # even when a round is a large part of it
        elapsed = time.monotonic() - bench.start
        if 1.5 * last > bench.remaining():
            break
        enough = len(plain) >= (1 if args.trace else MIN_REPEATS)
        if enough and elapsed + last / 2 > args.seconds:
            break
        round_start = time.monotonic()
        if not args.trace:
            # one set-up-only interpreter per round spreads the set-up
            # samples over the whole run, as the repeats are
            res, err = bench.child("setup")
            if res is None:
                notes.append(err)
            else:
                setups.append(res["setup_s"])
        modes = ("run", "trace") if args.trace else ("run",)
        for mode in modes:
            res, err = bench.child(mode)
            attempted += n_steps
            if res is None:
                failed += n_steps
                notes.append(err)
                continue
            setups.append(res["setup_s"])
            bad, why = check(res, ref, first, traced[0] if traced else None,
                             n_steps)
            failed += bad
            notes.extend(why)
            if not res.get("error") and res.get("nonfinite_step") is None:
                first = first or res
                (traced if mode == "trace" else plain).append(res)
        last = time.monotonic() - round_start
        if failed and not (plain or traced):
            break

    if args.trace and plain and traced:
        metrics, detail = per_layer(plain, traced, n_steps)
    elif not args.trace and plain:
        metrics, detail = end_to_end(plain, setups)
    else:
        metrics, detail = {}, {}
    if metrics and set(metrics) != set(units):
        raise RuntimeError(f"metric names {sorted(metrics)} do not match "
                           f"BENCHMARK.json {sorted(units)}")
    attempted = max(attempted, 1)
    failed = max(failed, 0 if warm else 1)
    detail.update({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "runs": len(plain) + len(traced), "fail_rate": failed / attempted,
        "failures": notes,
        "env": {"nproc": nproc, "blas_threads": env["OPENBLAS_NUM_THREADS"],
                **versions, **cache_sizes()},
    })
    print("# " + json.dumps(detail))
    for name, value in metrics.items():
        print(f"{name:30s} {value:14.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0 and not notes and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
