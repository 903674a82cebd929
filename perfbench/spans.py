"""Span tracer for the traced benchmark run.

The tracer wraps public egflow functions at the name their caller looks up
(for example `egflow.flow.gmres`, which `solve_reduced` calls), so every call
becomes a span with a parent.  A span's self time is its duration minus the
durations of its direct children.  A patch target that no longer exists is
recorded in `absent` and skipped; its metric then reads 0.
"""

import functools
import os
import time
from collections import Counter, defaultdict

# attribute set on every mesh a QuadMesh.adapt call returns, holding the
# call's sequence number, so a step can tell which adapt produced its mesh
ADAPT_TAG = "_perfbench_adapt_call"


class Tracer:
    def __init__(self):
        self.spans = []            # [name, start, end, parent index or None]
        self.stack = []
        self.counts = Counter()
        self.absent = []
        self.last_assembly = None

    def _wrap(self, name, fn, after=None):
        """Wrap `fn` in a span; `name` may be a callable chosen per call."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name() if callable(name) else name
            idx = len(tracer.spans)
            parent = tracer.stack[-1] if tracer.stack else None
            span = [label, time.perf_counter(), None, parent]
            tracer.spans.append(span)
            tracer.stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer.stack.pop()
            if after is not None:
                after(out, args, kwargs)
            return out

        return wrapper

    def patch(self, owner, attr, name, after=None):
        """Replace owner.attr (module function or class method) by a span."""
        fn = getattr(owner, attr, None)
        if fn is None:
            self.absent.append(f"{owner.__name__}.{attr}")
            return
        setattr(owner, attr, self._wrap(name, fn, after))

    def self_times(self):
        """Total self time per span name, in seconds."""
        child = defaultdict(float)
        for _, t0, t1, parent in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        out = defaultdict(float)
        for i, (label, t0, t1, _) in enumerate(self.spans):
            out[label] += (t1 - t0) - child[i]
        return out

    def top_level_time(self):
        return sum(t1 - t0 for _, t0, t1, parent in self.spans if parent is None)


def install(tracer):
    """Patch every traced layer of egflow; returns the tracer."""
    import egflow.driver
    import egflow.egspace
    import egflow.flow
    import egflow.mesh
    import egflow.transport

    driver, flow, transport = egflow.driver, egflow.flow, egflow.transport

    def assembly(label):
        def name():
            tracer.last_assembly = label
            return label + ".assemble"
        return name

    def solve_name():
        # a solve belongs to the system assembled last; this holds whether
        # egflow.driver calls solve_reduced for both systems or a wrapper
        return ("transport" if tracer.last_assembly == "transport" else "flow") + ".solve"

    def count_nnz(out, args, kwargs):
        tracer.counts["reduce_calls"] += 1
        tracer.counts["reduced_nnz"] += int(out.nnz)

    def tag_adapt(out, args, kwargs):
        tracer.counts["adapt_calls"] += 1
        new_mesh = out[0]
        if new_mesh is not args[0]:
            setattr(new_mesh, ADAPT_TAG, tracer.counts["adapt_calls"])

    def count_bytes(out, args, kwargs):
        path = kwargs["path"] if "path" in kwargs else args[-1]
        tracer.counts["io_bytes"] += os.path.getsize(path)

    tracer.patch(driver, "assemble_pressure", assembly("flow"))
    tracer.patch(driver, "assemble_transport", assembly("transport"))
    tracer.patch(flow, "scatter_csr", "linalg.scatter")
    tracer.patch(transport, "scatter_csr", "linalg.scatter")
    tracer.patch(driver, "solve_reduced", solve_name)
    tracer.patch(driver, "solve_transport", solve_name)
    tracer.patch(flow, "block_diag_precondition", "linalg.precond_setup")
    tracer.patch(flow, "gmres", "linalg.krylov")
    tracer.patch(egflow.egspace.EGDofMap, "reduce_matrix", "egspace.reduce",
                 count_nnz)
    tracer.patch(egflow.egspace.EGDofMap, "__init__", "egspace.dofmap")
    tracer.patch(egflow.egspace.AssemblyContext, "__init__", "egspace.context")
    tracer.patch(driver, "reconstruct_flux", "flow.flux")
    tracer.patch(driver, "indicator", "stabilization.indicator")
    tracer.patch(driver, "viscosity", "stabilization.viscosity")
    tracer.patch(driver, "mark", "amr.mark")
    tracer.patch(driver, "adapt_and_transfer", "amr.transfer")
    tracer.patch(egflow.mesh.QuadMesh, "adapt", "mesh.adapt", tag_adapt)
    tracer.patch(driver, "finger_diagnostics", "driver.diagnostics")
    tracer.patch(driver, "write_vtk", "driver.io", count_bytes)
    tracer.patch(driver, "write_csv", "driver.io", count_bytes)
    return tracer


# per-layer metric -> span name whose self time (ms per step) it reports
SPAN_METRICS = {
    "flow.assemble_ms": "flow.assemble",
    "transport.assemble_ms": "transport.assemble",
    "linalg.scatter_ms": "linalg.scatter",
    "flow.solve_ms": "flow.solve",
    "transport.solve_ms": "transport.solve",
    "linalg.precond_setup_ms": "linalg.precond_setup",
    "linalg.krylov_ms": "linalg.krylov",
    "egspace.reduce_ms": "egspace.reduce",
    "egspace.dofmap_ms": "egspace.dofmap",
    "egspace.context_ms": "egspace.context",
    "flow.flux_ms": "flow.flux",
    "stabilization.indicator_ms": "stabilization.indicator",
    "stabilization.viscosity_ms": "stabilization.viscosity",
    "amr.mark_ms": "amr.mark",
    "amr.transfer_ms": "amr.transfer",
    "mesh.adapt_ms": "mesh.adapt",
    "driver.diagnostics_ms": "driver.diagnostics",
    "driver.io_ms": "driver.io",
}


def layer_metrics(tracer, run_wall_s, n_steps, stepped_adapts):
    """Per-step layer figures of one traced run.

    `stepped_adapts` is the set of adapt sequence numbers whose mesh a step
    (or the returned result) ran on.  Spans during run()'s own set-up are
    included, so the set-up share of egspace.dofmap_ms etc. shows.
    """
    self_s = tracer.self_times()
    out = {m: 1e3 * self_s.get(s, 0.0) / n_steps for m, s in SPAN_METRICS.items()}
    c = tracer.counts
    out["linalg.reduced_nnz"] = c["reduced_nnz"] / max(c["reduce_calls"], 1)
    out["mesh.adapt_calls_per_step"] = c["adapt_calls"] / n_steps
    out["mesh.adapt_useful_ratio"] = len(stepped_adapts) / max(c["adapt_calls"], 1)
    out["driver.io_bytes"] = c["io_bytes"] / n_steps
    out["driver.other_ms"] = 1e3 * (run_wall_s - tracer.top_level_time()) / n_steps
    return out
