"""Scenario configs, diagnostics, file output, and the CLI entry point."""

import dataclasses
import gc
import os
import weakref
from pathlib import Path

import numpy as np
import pytest

import egflow.driver as driver
from egflow import linalg
from egflow.driver import (
    CSV_HEADER,
    ConfigError,
    FingerDiagnostics,
    ScenarioConfig,
    build_config,
    finger_diagnostics,
    load_config_file,
    main,
    make_config,
    run,
    tip_profile,
    write_csv,
    write_vtk,
)
from egflow.amr import mark
from egflow.egspace import AssemblyContext, EGDofMap, interpolate
from egflow.mesh import AdaptBounds, build_uniform

UNIT = (0.0, 0.0, 1.0, 1.0)


def _context(nx, ny):
    mesh = build_uniform(UNIT, nx, ny)
    dm = EGDofMap(mesh)
    return AssemblyContext(mesh, dm)


def _front_state(ctx, x_hi=0.3, x_lo=0.4):
    # piecewise linear in x: 1 for x <= x_hi, 0 for x >= x_lo
    dm = ctx.dofmap
    C = np.zeros(dm.n_dofs)
    x = dm.vertex_pos[:, 0]
    C[: dm.n_cg] = np.clip((x_lo - x) / (x_lo - x_hi), 0.0, 1.0)
    return dm.distribute(C)


def test_ramp_diagnostics():
    ctx = _context(10, 4)
    C = interpolate(lambda x, y: 1.0 - x, ctx.mesh, ctx.dofmap)
    fd = finger_diagnostics(ctx, C)
    assert fd.x_tip == pytest.approx(0.5, abs=1e-12)
    assert fd.x_lead == pytest.approx(0.9, abs=1e-12)
    assert fd.x_trail == pytest.approx(0.1, abs=1e-12)
    assert fd.mixing_length == pytest.approx(0.8, abs=1e-12)


def test_sharp_front_diagnostics():
    # front drops from 1 to 0 across [0.3, 0.4]: the 0.5 crossing is 0.35
    ctx = _context(10, 2)
    C = _front_state(ctx)
    fd = finger_diagnostics(ctx, C)
    assert fd.x_tip == pytest.approx(0.35, abs=1e-12)
    assert fd.x_lead == pytest.approx(0.39, abs=1e-12)
    assert fd.x_trail == pytest.approx(0.31, abs=1e-12)
    assert fd.mixing_length == pytest.approx(0.08, abs=1e-12)


def test_empty_field_diagnostics():
    ctx = _context(4, 4)
    C = np.zeros(ctx.dofmap.n_dofs)
    fd = finger_diagnostics(ctx, C)
    assert fd.x_tip == 0.0
    assert fd.x_lead == 0.0
    assert fd.x_trail == 0.0          # the 0.9 level is lost at the inlet
    assert fd.mixing_length == 0.0


def test_tip_profile():
    ctx = _context(10, 4)
    C = _front_state(ctx)
    prof = tip_profile(ctx, C, bins=4)
    assert prof.shape == (4,)
    assert np.allclose(prof, 0.35, atol=1e-12)
    assert np.all(tip_profile(ctx, np.zeros(ctx.dofmap.n_dofs), bins=4) == 0.0)


def test_vtk_snapshot_layout(tmp_path):
    mesh = build_uniform(UNIT, 1, 1)
    dm = EGDofMap(mesh)
    path = str(tmp_path / "snap.vtk")
    write_vtk(mesh, dm, cell_data={"c_const": np.array([1.0 / 3.0])},
              point_data={"p": np.arange(4, dtype=float) / 7.0}, path=path)
    lines = Path(path).read_text().splitlines()
    assert lines[0] == "# vtk DataFile Version 3.0"
    assert lines[1] == "egflow snapshot"
    assert lines[2] == "ASCII"
    assert lines[3] == "DATASET UNSTRUCTURED_GRID"
    assert lines[4] == "POINTS 4 double"
    assert sorted(lines[5:9]) == sorted(["0 0 0", "1 0 0", "0 1 0", "1 1 0"])
    assert lines[9] == "CELLS 1 5"
    quad = [int(s) for s in lines[10].split()]
    assert quad[0] == 4 and sorted(quad[1:]) == [0, 1, 2, 3]
    # counterclockwise: SW, SE, NE, NW in the dof layout
    sw, se, nw, ne = dm.cell_dofs[0, :4]
    assert quad[1:] == [sw, se, ne, nw]
    assert lines[11] == "CELL_TYPES 1"
    assert lines[12] == "9"
    assert lines[13] == "CELL_DATA 1"
    assert lines[14] == "SCALARS c_const double 1"
    assert lines[15] == "LOOKUP_TABLE default"
    assert lines[16] == "0.3333333333"            # ten significant digits
    assert lines[17] == "POINT_DATA 4"
    assert lines[18] == "SCALARS p double 1"
    assert lines[19] == "LOOKUP_TABLE default"
    assert lines[20] == "0"
    assert lines[21] == format(1.0 / 7.0, ".10g")


def test_csv_format_and_roundtrip(tmp_path):
    rec = {"step": 3, "time": 0.1 + 0.2, "cells": 16, "dofs": 41,
           "mass": 1.0 / 3.0, "cmin": -1e-17, "cmax": 1.0000000001,
           "xtip": 0.35, "tip_velocity": 0.0, "mixing_length": 0.08,
           "gmres_flow": 12, "gmres_transport": 7}
    path = str(tmp_path / "diag.csv")
    write_csv([rec], path)
    lines = Path(path).read_text().splitlines()
    assert lines[0] == CSV_HEADER
    cells = lines[1].split(",")
    cols = CSV_HEADER.split(",")
    assert cells[cols.index("step")] == "3"
    assert cells[cols.index("cells")] == "16"
    assert cells[cols.index("gmres_transport")] == "7"
    # 17 significant digits reproduce the double exactly
    assert float(cells[cols.index("mass")]) == 1.0 / 3.0
    assert float(cells[cols.index("time")]) == 0.1 + 0.2
    write_csv([rec], str(tmp_path / "diag2.csv"))
    assert Path(path).read_bytes() == (tmp_path / "diag2.csv").read_bytes()


def test_config_file_parsing(tmp_path):
    p = tmp_path / "case.cfg"
    p.write_text(
        "# comment line\n"
        "scenario = perm_block\n"
        "nx=8   # trailing comment\n"
        "\n"
        "dt = 0.02\n"
        "amr = false\n"
    )
    kv = load_config_file(str(p))
    assert kv == {"scenario": "perm_block", "nx": 8, "dt": 0.02, "amr": False}


def test_config_file_errors(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("nx 8\n")
    with pytest.raises(ConfigError):
        load_config_file(str(bad))
    unknown = tmp_path / "unknown.cfg"
    unknown.write_text("porosity_exponent=2\n")
    with pytest.raises(ConfigError):
        load_config_file(str(unknown))
    with pytest.raises(ConfigError):
        load_config_file(str(tmp_path / "missing.cfg"))


def test_make_config_overrides():
    cfg = make_config("perm_block", nx=4, dt=0.05)
    assert cfg.nx == 4
    assert cfg.dt == 0.05
    assert cfg.scenario == "perm_block"
    assert cfg.n_steps == 20
    with pytest.raises(ConfigError):
        make_config("perm_block", not_a_key=1)
    with pytest.raises(ConfigError):
        make_config("no_such_scenario")
    with pytest.raises(ConfigError):
        make_config("perm_block", dt="-0.1")


def test_preset_block_scenario_values():
    cfg = make_config("perm_block")
    assert cfg.domain == (0.0, 0.0, 1.0, 1.0)
    assert cfg.flow.c_F == pytest.approx(1e-8)
    assert cfg.entropy.kind == "log"
    assert cfg.entropy.lambda_lin == pytest.approx(0.5)
    assert cfg.marking.bounds.r_max == 2
    assert cfg.amr and cfg.stab


def test_manufactured_single_step():
    cfg = make_config("manufactured")
    seen = {}

    def hook(state):
        seen.update(state)

    res = run(cfg, step_hook=hook)
    ctx = seen["ctx"]
    # exact linear pressure drop and unit velocity
    vals = ctx.cell_values(seen["P"])
    for g in ctx.cell_groups:
        assert np.abs(vals[g.idx] - (1.0 - g.qx)).max() < 1e-9
    assert np.allclose(seen["flux"].center_velocity,
                       [1.0, 0.0], atol=1e-9)
    from egflow.flow import local_conservation_residual
    r = local_conservation_residual(ctx, seen["flux"], seen["q_qp"],
                                    cfg.flow, cfg.dt)
    assert np.abs(r).max() < 1e-10
    assert len(res.records) == 1
    assert res.records[0]["gmres_flow"] > 0


def test_run_is_deterministic(tmp_path):
    cfg = make_config("perm_block", nx=4, ny=4, dt=0.05, t_end=0.15,
                      r_max=1, cell_max=100)
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    run(cfg, outdir=out1)
    run(cfg, outdir=out2)
    csv1 = Path(os.path.join(out1, "diagnostics.csv")).read_bytes()
    csv2 = Path(os.path.join(out2, "diagnostics.csv")).read_bytes()
    assert csv1 == csv2
    assert csv1.splitlines()[0].decode() == CSV_HEADER


def test_budget_bound_run_is_deterministic(tmp_path):
    # r_max=3 against a 60-cell budget: mark truncates from step 3 on
    cfg = make_config("perm_block", nx=4, ny=4, dt=0.02, t_end=0.1,
                      r_max=3, cell_max=60)
    free = dataclasses.replace(cfg.marking,
                               bounds=AdaptBounds(r_max=3, cell_max=10**9))
    cut = []

    def hook(state):
        bound = mark(state["indicator"], state["mesh"], cfg.marking)
        unbound = mark(state["indicator"], state["mesh"], free)
        cut.append(len(unbound.refine) - len(bound.refine))

    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    run(cfg, outdir=out1, step_hook=hook)
    run(cfg, outdir=out2)
    assert max(cut) > 0
    csv1 = Path(os.path.join(out1, "diagnostics.csv")).read_bytes()
    csv2 = Path(os.path.join(out2, "diagnostics.csv")).read_bytes()
    assert csv1 == csv2


def test_cli_happy_path(tmp_path, capsys):
    out = str(tmp_path / "run")
    code = main(["--scenario", "manufactured", "--out", out])
    assert code == 0
    assert os.path.exists(os.path.join(out, "diagnostics.csv"))
    assert os.path.exists(os.path.join(out, "step_000001.vtk"))
    assert "completed" in capsys.readouterr().out


def test_cli_bad_config_exits_2(tmp_path, capsys):
    assert main([]) == 2                          # no scenario anywhere
    bad = tmp_path / "bad.cfg"
    bad.write_text("scenario=perm_block\nwhatever=1\n")
    assert main(["--config", str(bad)]) == 2
    assert main(["--scenario", "perm_block", "--dt", "nope"]) == 2


def test_cli_solver_failure_exits_3(capsys):
    code = main(["--scenario", "manufactured", "--flow-tol", "1e-30"])
    assert code == 3
    assert "solver failure" in capsys.readouterr().err


def test_cli_singular_system_exits_3(monkeypatch, capsys):
    assemble = driver.assemble_pressure

    def singular(*args, **kwargs):
        A, b = assemble(*args, **kwargs)
        return 0.0 * A, b

    monkeypatch.setattr(driver, "assemble_pressure", singular)
    assert main(["--scenario", "manufactured"]) == 3
    assert "singular" in capsys.readouterr().err


def test_factor_dies_with_its_generation(monkeypatch):
    # factors are kept once a mesh survives an adapt, and freed with it; so
    # is the column order the generation's two systems share
    factor = linalg._factor

    class Tracked:                      # SuperLU objects take no weak references
        def __init__(self, A, order):
            self.solve = factor(A, order).solve

    monkeypatch.setattr(linalg, "_factor", Tracked)
    kept, orders = [], []

    def hook(state):
        gen = state["mesh"].generation
        assert all(ref() is None for g, ref in kept + orders if g != gen)
        kept.extend((gen, weakref.ref(f.lu))
                    for f in state["factors"].values() if f.lu is not None)
        order = state["factors"]["flow"].order
        assert state["factors"]["transport"].order is order
        orders.extend([(gen, weakref.ref(order)), (gen, weakref.ref(order.q))])

    cfg = make_config("perm_block", nx=4, ny=4, dt=0.05, t_end=0.5, r_max=1)
    gc.disable()
    try:
        run(cfg, step_hook=hook)
    finally:
        gc.enable()
    assert len({g for g, _ in kept}) >= 2
    assert len({g for g, _ in orders}) >= 3


def test_config_validation_rules():
    with pytest.raises(ConfigError):
        make_config("manufactured", t_end="0.01")   # shorter than one step
    with pytest.raises(ConfigError):
        make_config("hele_shaw_rect", ratio="0.5")  # thin fluid displacing thick
    with pytest.raises(ConfigError):
        make_config("manufactured", nx="0")
    with pytest.raises(ConfigError, match="threads"):
        make_config("manufactured", threads=4)      # no such knob


def test_radial_preset_short_run():
    # sealed box with a center source: the flow solve must survive the pure
    # Neumann pressure system and the mass ledger must follow the source rate
    cfg = make_config("hele_shaw_radial", t_end="3e-4")  # three steps
    res = run(cfg)
    assert len(res.records) == 3
    rec = res.records[-1]
    assert rec["mass"] == pytest.approx(
        cfg.flow.rho0 * cfg.source_rate * 3e-4, rel=1e-9)
    assert rec["gmres_flow"] > 0
    assert rec["cells"] > cfg.nx * cfg.ny * 4   # refinement chased the front
