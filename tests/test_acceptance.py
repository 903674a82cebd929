"""End-to-end acceptance checks.

Each test exercises one headline behavior of the solver stack at its stated
tolerance and prints a single PASS/FAIL line with the measured numbers, so a
plain pytest run doubles as a results table.
"""

import numpy as np
import pytest

import conftest
from egflow.amr import MarkingPolicy, Marks, adapt_and_transfer, mark
from egflow.egspace import AssemblyContext, EGDofMap, dof_count, interpolate
from egflow.flow import (
    FlowBC,
    FlowParams,
    assemble_pressure,
    bdf_apply,
    local_conservation_residual,
    reconstruct_flux,
    solve_reduced,
)
from egflow.mesh import AdaptBounds, build_uniform
from egflow.driver import make_config, run, tip_profile
from egflow.physics import mobility
from egflow.transport import TransportBC, TransportParams, assemble_transport

UNIT = (0.0, 0.0, 1.0, 1.0)


def _report(num, name, ok, detail):
    line = f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    conftest.CRITERION_LINES.append(line)


def _l2(ctx, coeffs):
    vals = ctx.cell_values(coeffs)
    total = 0.0
    for g in ctx.cell_groups:
        total += float(((vals[g.idx] ** 2) @ g.wq).sum())
    return float(np.sqrt(total))


# ---------------------------------------------------------------------------
# 1, 2: dof bookkeeping
# ---------------------------------------------------------------------------

def test_criterion_01_dof_counts():
    expected = {4: 41, 8: 145, 16: 545, 32: 2113, 64: 8321}
    got = {n: dof_count(build_uniform(UNIT, n, n))[2] for n in expected}
    ok = got == expected
    _report(1, "uniform dof totals", ok, f"got {got}")
    assert got == expected


def test_criterion_02_dof_ratio_vs_dg():
    n = 64
    total = dof_count(build_uniform(UNIT, n, n))[2]
    ratio = total / (4.0 * n * n)
    ok = ratio <= 0.52
    _report(2, "enriched/dg dof ratio", ok, f"ratio {ratio:.4f} <= 0.52")
    assert ok


# ---------------------------------------------------------------------------
# 3: reversing-vortex convergence
# ---------------------------------------------------------------------------

def _vortex_return_error(n, dt):
    cfg = make_config("single_vortex", nx=n, ny=n, dt=dt, t_end=2.0)
    first = {}

    def hook(state):
        if state["step"] == 1:
            first["C0"] = state["C_n"].copy()

    res = run(cfg, step_hook=hook)
    return _l2(res.ctx, res.C - first["C0"])


def test_criterion_03_vortex_convergence():
    errs = [_vortex_return_error(4, 0.1),
            _vortex_return_error(8, 0.05),
            _vortex_return_error(16, 0.025)]
    order = float(np.log2(errs[1] / errs[2]))
    ok = errs[0] > errs[1] > errs[2] and order >= 0.9
    _report(3, "vortex return error", ok,
            f"errors {errs[0]:.3e} > {errs[1]:.3e} > {errs[2]:.3e}, "
            f"order {order:.2f} >= 0.9")
    assert errs[0] > errs[1] > errs[2]
    assert order >= 0.9


# ---------------------------------------------------------------------------
# 4: pressure exactness with hanging nodes
# ---------------------------------------------------------------------------

def test_criterion_04_manufactured_darcy_hanging():
    mesh = build_uniform(UNIT, 4, 4)
    mesh = mesh.refine([mesh.cell_id[i] for i in (0, 5, 10)])
    lvl1 = mesh.cell_id[mesh.cell_level == 1]
    mesh = mesh.refine(list(lvl1[:2]))
    dm = EGDofMap(mesh)
    ctx = AssemblyContext(mesh, dm)
    from egflow.mesh import HANGING_HIGH, HANGING_LOW
    assert np.isin(mesh.face_kind, (HANGING_LOW, HANGING_HIGH)).any()

    bc = FlowBC(dirichlet={"left": 1.0, "right": 0.0},
                neumann={"bottom": 0.0, "top": 0.0})
    params = FlowParams()
    kappa = np.ones(mesh.n_active)
    A, b = assemble_pressure(ctx, params, bc, kappa, m=2)
    P, _ = solve_reduced(dm, A, b, tol=1e-13)

    nodal = np.abs(P[: dm.n_cg] - (1.0 - dm.vertex_pos[:, 0])).max()
    const = np.abs(P[dm.n_cg:]).max()
    flux = reconstruct_flux(ctx, P, kappa, bc, params)
    resid = np.abs(local_conservation_residual(ctx, flux, 0.0, params, 1.0, m=2)).max()
    ok = nodal <= 1e-9 and const <= 1e-9 and resid <= 1e-9
    _report(4, "hanging-node pressure", ok,
            f"nodal {nodal:.2e}, const {const:.2e}, conservation {resid:.2e}, all <= 1e-9")
    assert nodal <= 1e-9
    assert const <= 1e-9
    assert resid <= 1e-9


# ---------------------------------------------------------------------------
# 5: local conservation through the heterogeneous run
# ---------------------------------------------------------------------------

def test_criterion_05_block_conservation():
    cfg = make_config("perm_block", r_max=1, t_end=0.5)   # 50 steps, h_min 0.05
    ratios = []

    def hook(state):
        r = local_conservation_residual(
            state["ctx"], state["flux"], state["q_qp"], cfg.flow, cfg.dt,
            P_np1=state["P"], P_n=state["P_n"], P_nm1=state["P_nm1"],
            m=state["m"])
        scale = cfg.flow.rho0 * np.abs(state["flux"].face_un).max()
        ratios.append(np.abs(r).max() / scale)

    run(cfg, step_hook=hook)
    worst = max(ratios)
    ok = len(ratios) == 50 and worst <= 1e-8
    _report(5, "per-step conservation", ok,
            f"worst residual/max-flux {worst:.2e} <= 1e-8 over {len(ratios)} steps")
    assert len(ratios) == 50
    assert worst <= 1e-8


# ---------------------------------------------------------------------------
# 6: compatibility of the theta = 0 pair
# ---------------------------------------------------------------------------

def test_criterion_06_compatibility_constant_state():
    # C0 = 0.5 with matching inflow over the blocked permeability field:
    # the discrete pair must keep the constant state to solver accuracy
    cfg = make_config("perm_block", r_max=1)
    mesh = build_uniform(UNIT, cfg.nx, cfg.ny)
    mesh = mesh.refine(mesh.cell_id)                      # h = 0.05 everywhere
    dm = EGDofMap(mesh)
    ctx = AssemblyContext(mesh, dm)

    cx = mesh.cell_x0 + 0.5 * mesh.cell_hx
    cy = mesh.cell_y0 + 0.5 * mesh.cell_hy
    K = np.where((cx > 3.0 / 8.0) & (cx < 5.0 / 8.0)
                 & (cy > 1.0 / 4.0) & (cy < 3.0 / 4.0), 1e-3, 1.0)

    bc = FlowBC(dirichlet={"left": 1.0, "right": 0.0},
                neumann={"bottom": 0.0, "top": 0.0})
    fparams = cfg.flow
    tparams = cfg.transport
    tbc = TransportBC(c_in=0.5)

    C = interpolate(lambda x, y: 0.5, ctx)
    C_prev = None
    P = np.zeros(dm.n_dofs)
    P_prev = None
    for step in range(20):
        m = 1 if C_prev is None else 2
        kappa = mobility(K, cfg.viscosity, np.clip(dm.cell_means(C), 0, 1))
        A, b = assemble_pressure(ctx, fparams, bc, kappa, P_n=P, P_nm1=P_prev,
                                 dt=cfg.dt, m=m)
        P_new, _ = solve_reduced(dm, A, b, x0_full=P, tol=1e-12)
        flux = reconstruct_flux(ctx, P_new, kappa, bc, fparams)
        A_t, b_t = assemble_transport(ctx, fparams, tparams, tbc, flux,
                                      np.zeros((mesh.n_active, 2, 2)),
                                      np.zeros(mesh.n_active),
                                      C, C_prev, dt=cfg.dt, m=m)
        C_new, _ = solve_reduced(dm, A_t, b_t, x0_full=C, tol=1e-12)
        P_prev, P = P, P_new
        C_prev, C = C, C_new

    drift = np.abs(ctx.cell_values(C) - 0.5).max()
    ok = drift <= 1e-8
    _report(6, "constant-state compatibility", ok, f"max|C-0.5| {drift:.3e} <= 1e-8")
    assert drift <= 1e-8


# ---------------------------------------------------------------------------
# 7, 8: stabilization efficacy and the viscosity-selection map
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def block_runs():
    """Stabilized vs unstabilized 100-step block runs (h_min = 0.05, t = 2)."""
    last = {}

    def hook(state):
        last.update(state)

    stab_cfg = make_config("perm_block", dt=0.02, t_end=2.0, r_max=1)
    stab = run(stab_cfg, step_hook=hook)
    raw_cfg = make_config("perm_block", dt=0.02, t_end=2.0, r_max=1,
                          lambda_lin=0.0, lambda_ent=0.0)
    raw = run(raw_cfg)
    return {"stab": stab, "raw": raw, "last": dict(last)}


def _overshoot(rec):
    return max(0.0, rec["cmax"] - 1.0) + max(0.0, -rec["cmin"])


def test_criterion_07_stabilization_efficacy(block_runs):
    stab = _overshoot(block_runs["stab"].records[-1])
    raw = _overshoot(block_runs["raw"].records[-1])
    ratio = raw / stab if stab > 0 else np.inf
    ok = raw >= 5.0 * stab and stab <= 0.02
    _report(7, "overshoot suppression", ok,
            f"stabilized {stab:.4f} <= 0.02, unstabilized {raw:.4f}, "
            f"ratio {ratio:.2f} >= 5")
    assert stab <= 0.02
    assert raw >= 5.0 * stab


def test_criterion_08_selection_map_near_contour(block_runs):
    last = block_runs["last"]
    ctx, C = last["ctx"], last["C"]
    mesh = ctx.mesh
    lin = np.flatnonzero(last["viscosity"].lin_selected)
    assert lin.size > 0

    # contour cells: both sides of any interior face whose means straddle 0.5
    means = ctx.dofmap.cell_means(C)
    interior = mesh.face_neighbor >= 0
    own = mesh.face_owner[interior]
    nb = mesh.face_neighbor[interior]
    straddle = (means[own] - 0.5) * (means[nb] - 0.5) <= 0.0
    seeds = np.zeros(mesh.n_active, dtype=bool)
    seeds[own[straddle]] = True
    seeds[nb[straddle]] = True

    # breadth-first growth over face adjacency, two hops
    near = seeds.copy()
    for _ in range(2):
        grow = near.copy()
        touch = near[own] | near[nb]
        grow[own[touch]] = True
        grow[nb[touch]] = True
        near = grow

    frac = float(near[lin].mean())
    ok = frac >= 0.9
    _report(8, "linear-branch selection map", ok,
            f"{near[lin].sum()}/{lin.size} selected cells within 2 of the "
            f"C=0.5 contour: {100 * frac:.1f}% >= 90%")
    assert frac >= 0.9


# ---------------------------------------------------------------------------
# 9: adaptation invariants under random marking
# ---------------------------------------------------------------------------

def test_criterion_09_amr_invariants():
    rng = np.random.default_rng(2024)
    mesh = build_uniform(UNIT, 4, 4)
    dm = EGDofMap(mesh)
    C = dm.distribute(rng.standard_normal(dm.n_dofs))
    cell = np.zeros(mesh.n_active)
    cell_max = 400
    policy = MarkingPolicy(AdaptBounds(r_max=4, r_min=0, cell_max=cell_max),
                           refine_fraction=0.25, coarsen_fraction=0.15)

    class _Ind:
        def __init__(self, er, gen):
            self.er, self.generation = er, gen

    worst_drift = 0.0
    for _ in range(1000):
        total0 = dm.total_integral(C)
        marks = mark(_Ind(rng.random(mesh.n_active), mesh.generation),
                     mesh, policy)
        mesh, dm, eg, cell = adapt_and_transfer(mesh, dm, C[None], cell, marks)
        C = eg[0]
        total1 = dm.total_integral(C)
        drift = abs(total1 - total0) / max(1.0, abs(total0))
        worst_drift = max(worst_drift, drift)
        assert mesh.balanced()
        assert mesh.n_active <= cell_max
        assert abs(mesh.total_area - 1.0) < 1e-12
    ok = worst_drift <= 1e-12
    _report(9, "randomized adaptation", ok,
            f"1000 rounds balanced, area exact, ≤ {cell_max} cells, "
            f"worst mass drift {worst_drift:.2e} <= 1e-12")
    assert worst_drift <= 1e-12


# ---------------------------------------------------------------------------
# 10: fingering trend across viscosity ratios
# ---------------------------------------------------------------------------

def _finger_run(ratio):
    cfg = make_config("hele_shaw_rect", ratio=ratio, t_end=4.0, seed=7)
    bins = cfg.ny * (1 << cfg.marking.bounds.r_max)
    trace = []

    def hook(state):
        prof = tip_profile(state["ctx"], state["C"], bins)
        trace.append((state["time"], float(prof.var())))

    res = run(cfg, step_hook=hook)
    onset = next((t for t, v in trace if v > 1e-3), None)
    maxvar = max(v for _, v in trace)
    window = [(r["time"], r["xtip"]) for r in res.records if 1.0 <= r["time"] <= 3.0]
    (t0, x0), (t1, x1) = window[0], window[-1]
    return {"onset": onset, "maxvar": maxvar, "tipvel": (x1 - x0) / (t1 - t0)}


def test_criterion_10_fingering_trend():
    flat = _finger_run(1.0)
    m25 = _finger_run(25.0)
    m100 = _finger_run(100.0)
    ok = (flat["maxvar"] <= 1e-4
          and m25["onset"] is not None and m100["onset"] is not None
          and m100["onset"] < m25["onset"]
          and m100["tipvel"] >= m25["tipvel"])
    _report(10, "viscous fingering trend", ok,
            f"M=1 var {flat['maxvar']:.2e} <= 1e-4; onset M=100 "
            f"{m100['onset']} < M=25 {m25['onset']}; tip velocity "
            f"{m100['tipvel']:.4f} >= {m25['tipvel']:.4f}")
    assert flat["maxvar"] <= 1e-4
    assert m25["onset"] is not None and m100["onset"] is not None
    assert m100["onset"] < m25["onset"]
    assert m100["tipvel"] >= m25["tipvel"]


# ---------------------------------------------------------------------------
# 11: time-differencing exactness
# ---------------------------------------------------------------------------

def test_criterion_11_bdf2_quadratic_exactness():
    worst = 0.0
    for dt, t, (a, b, c) in [(0.1, 0.3, (2.0, -1.0, 0.5)),
                             (0.01, 5.0, (-3.0, 0.25, 7.0)),
                             (0.5, -1.0, (1.0, 1.0, 1.0))]:
        u = lambda s: a * s**2 + b * s + c
        got = bdf_apply(2, dt, u(t + dt), u(t), u(t - dt))
        worst = max(worst, abs(got - (2.0 * a * (t + dt) + b)))
    ok = worst <= 1e-13
    _report(11, "quadratic time derivative", ok, f"max error {worst:.2e} <= 1e-13")
    assert worst <= 1e-13
