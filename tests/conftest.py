"""Shared pytest plumbing and oracle helpers.

Passing tests have their stdout captured, so the per-criterion PASS/FAIL
lines would otherwise only survive for failures; collecting them here keeps
the whole checklist visible in plain `pytest -v` output.

The point evaluators evaluate an EG coefficient vector one cell and one
reference point at a time, straight from the shape functions, as an oracle
for the per-group tables of AssemblyContext.
"""

from egflow.egspace import q1_grads, q1_values

CRITERION_LINES = []


def cell_bbox(mesh, cid):
    """(x0, y0, x1, y1) of an active cell, read from the cell arrays."""
    n = mesh.index_of_id(cid)
    x0, y0 = mesh.cell_x0[n], mesh.cell_y0[n]
    return x0, y0, x0 + mesh.cell_hx[n], y0 + mesh.cell_hy[n]


def eval_point(mesh, dm, coeffs, cid, xi, eta):
    """Value of the EG function at reference point (xi, eta) of a cell."""
    return float(q1_values(xi, eta) @ coeffs[dm.cell_dofs[mesh.index_of_id(cid)]])


def eval_grad(mesh, dm, coeffs, cid, xi, eta):
    """Physical gradient of the EG function at a reference point of a cell."""
    n = mesh.index_of_id(cid)
    g = coeffs[dm.cell_dofs[n]] @ q1_grads(xi, eta)
    return g / (mesh.cell_hx[n], mesh.cell_hy[n])


def pytest_terminal_summary(terminalreporter):
    if CRITERION_LINES:
        terminalreporter.section("acceptance criteria")
        for line in CRITERION_LINES:
            terminalreporter.write_line(line)
