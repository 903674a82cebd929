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
    finger_diagnostics,
    load_config_file,
    main,
    make_config,
    run,
    tip_profile,
    write_csv,
    write_vtk,
)
from egflow.amr import MarkingPolicy, mark
from egflow.egspace import AssemblyContext, EGDofMap, interpolate
from egflow.flow import FlowParams
from egflow.mesh import AdaptBounds, build_uniform
from egflow.stabilization import EntropyConfig
from egflow.transport import TransportParams

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
    C = interpolate(lambda x, y: 1.0 - x, ctx)
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


def test_vtk_bytes_match_a_plain_formatter(tmp_path):
    # a two-level mesh with values whose shortest round trip exceeds 10 digits
    mesh = build_uniform((0.1, -0.3, 1.7, 0.9), 3, 2)
    mesh = mesh.refine([mesh.cell_id[2]])
    dm = EGDofMap(mesh)
    rng = np.random.default_rng(4)
    cells = {"c": rng.standard_normal(mesh.n_active) / 3.0,
             "level": mesh.cell_level.astype(float)}
    points = {"p": rng.standard_normal(dm.n_cg) * 1e-7}
    path = tmp_path / "snap.vtk"
    write_vtk(mesh, dm, cell_data=cells, point_data=points, path=str(path))

    fmt = "{:.10g}".format
    nc, n = mesh.n_active, dm.n_cg
    out = ["# vtk DataFile Version 3.0", "egflow snapshot", "ASCII",
           "DATASET UNSTRUCTURED_GRID", f"POINTS {n} double"]
    out += [f"{fmt(float(x))} {fmt(float(y))} 0" for x, y in dm.vertex_pos]
    out += [f"CELLS {nc} {5 * nc}"]
    out += ["4 " + " ".join(str(int(v)) for v in dm.cell_dofs[k, [0, 1, 3, 2]])
            for k in range(nc)]
    out += [f"CELL_TYPES {nc}"] + ["9"] * nc + [f"CELL_DATA {nc}"]
    for name, arr in cells.items():
        out += [f"SCALARS {name} double 1", "LOOKUP_TABLE default"]
        out += [fmt(float(v)) for v in arr]
    out += [f"POINT_DATA {n}"]
    for name, arr in points.items():
        out += [f"SCALARS {name} double 1", "LOOKUP_TABLE default"]
        out += [fmt(float(v)) for v in arr]
    assert path.read_bytes() == ("\n".join(out) + "\n").encode()


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
        "entropy = log\n"
    )
    kv = load_config_file(str(p))
    assert kv == {"scenario": "perm_block", "nx": 8, "dt": 0.02,
                  "entropy": "log"}


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
    # adaptive (r_max above r_min) and stabilized (both lambdas above 0)
    assert cfg.marking.bounds.r_min == 0
    assert cfg.entropy.lambda_ent == pytest.approx(0.5)


def _flat(obj, prefix=""):
    """A config dataclass as {dotted field name: value}, nested ones opened."""
    out = {}
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if dataclasses.is_dataclass(value):
            out.update(_flat(value, f"{prefix}{f.name}."))
        else:
            out[prefix + f.name] = value
    return out


# every resolved field of the manufactured preset, and per scenario the
# fields that differ from it; a changed default or preset value shows here
_MANUFACTURED = {
    "scenario": "manufactured", "domain": (0.0, 0.0, 1.0, 1.0), "nx": 4, "ny": 4,
    "dt": 0.1, "t_end": 0.1, "bdf_order": 2,
    "flow.phi": 1.0, "flow.rho0": 1.0, "flow.c_F": 0.0, "flow.alpha": 8.0,
    "transport.alpha_c": 2.0, "transport.alpha_s": 1.0,
    "entropy.kind": "power", "entropy.eps": 1e-4,
    "entropy.lambda_lin": 0.0, "entropy.lambda_ent": 0.0,
    "marking.bounds.r_max": 0, "marking.bounds.r_min": 0,
    "marking.bounds.cell_max": 1_000_000,
    "marking.refine_fraction": 0.2, "marking.coarsen_fraction": 0.1,
    "viscosity.mu_s": 1.0, "viscosity.mu_0": 1.0,
    "dispersion.d_m": 0.0, "dispersion.alpha_l": 0.0, "dispersion.alpha_t": 0.0,
    "t_period": 2.0, "n_centers": 40, "perturb": 0.0, "source_rate": 100.0,
    "inflow_speed": 0.05, "flow_tol": 1e-10, "transport_tol": 1e-10,
    "seed": 0, "stride": 1,
}
_PRESET_CHANGES = {
    "manufactured": {},
    "single_vortex": {
        "nx": 8, "ny": 8, "dt": 0.05, "t_end": 2.0,
        "entropy.lambda_lin": 0.5, "entropy.lambda_ent": 0.5, "stride": 10},
    "perm_block": {
        "nx": 10, "ny": 10, "dt": 0.01, "t_end": 1.0, "flow.c_F": 1e-8,
        "entropy.kind": "log", "entropy.lambda_lin": 0.5, "entropy.lambda_ent": 0.5,
        "marking.bounds.r_max": 2, "marking.bounds.cell_max": 20_000, "stride": 10},
    "random_perm_2d": {
        "nx": 10, "ny": 10, "dt": 0.01, "t_end": 1.0, "flow.c_F": 1e-8,
        "entropy.kind": "log", "entropy.lambda_lin": 0.5, "entropy.lambda_ent": 0.5,
        "marking.bounds.r_max": 2, "marking.bounds.r_min": 1,
        "marking.bounds.cell_max": 50_000, "dispersion.d_m": 1.8e-7,
        "dispersion.alpha_l": 1.8e-5, "dispersion.alpha_t": 1.8e-6, "stride": 10},
    "hele_shaw_rect": {
        "domain": (0.0, 0.0, 1.0, 0.25), "nx": 16, "dt": 0.01, "t_end": 10.0,
        "flow.rho0": 1000.0, "entropy.kind": "log", "entropy.lambda_lin": 1e-3,
        "entropy.lambda_ent": 1e-3, "marking.bounds.r_max": 2,
        "marking.bounds.r_min": 1, "marking.bounds.cell_max": 50_000,
        "viscosity.mu_s": 1e-3, "viscosity.mu_0": 0.1, "dispersion.d_m": 1.8e-8,
        "dispersion.alpha_l": 1.8e-8, "dispersion.alpha_t": 1.8e-9,
        "perturb": 1e-3, "stride": 10},
    "hele_shaw_radial": {
        "nx": 8, "ny": 8, "dt": 1e-4, "t_end": 0.01, "flow.rho0": 1000.0,
        "flow.c_F": 1e-8, "entropy.kind": "log", "entropy.lambda_lin": 1e-3,
        "entropy.lambda_ent": 1e-3, "marking.bounds.r_max": 3,
        "marking.bounds.r_min": 1, "marking.bounds.cell_max": 100_000,
        "viscosity.mu_s": 1e-3, "dispersion.d_m": 1.8e-8,
        "dispersion.alpha_l": 1.8e-5, "dispersion.alpha_t": 1.8e-6, "stride": 10},
}


@pytest.mark.parametrize("scenario", driver.SCENARIOS)
def test_presets_resolve_to_their_recorded_values(scenario):
    expect = dict(_MANUFACTURED, scenario=scenario, **_PRESET_CHANGES[scenario])
    got = _flat(make_config(scenario))
    assert got.keys() == expect.keys()
    assert {k: v for k, v in got.items() if v != expect[k]} == {}


def test_settings_defaults_are_the_parameter_class_defaults():
    # the library and the CLI share each default, cell_max included
    cfg = make_config("manufactured")
    assert cfg.flow == FlowParams()
    assert cfg.transport == TransportParams()
    assert cfg.entropy == EntropyConfig(lambda_lin=0.0, lambda_ent=0.0)  # pinned
    assert cfg.marking == MarkingPolicy(AdaptBounds(r_max=0))


def test_ratio_is_the_one_viscosity_contrast_key(capsys):
    assert make_config("perm_block", mu_s=0.5).viscosity.mu_0 == 0.5
    assert make_config("perm_block", mu_s=0.5, ratio=4.0).viscosity.mu_0 == 2.0
    with pytest.raises(ConfigError, match="mu_0"):
        make_config("perm_block", mu_0=2.0)
    assert main(["--scenario", "perm_block", "--mu-0", "2"]) == 2
    assert "unrecognized arguments: --mu-0" in capsys.readouterr().err
    assert main(["--scenario", "perm_block", "--ratio", "0"]) == 2
    assert "viscosities must be positive" in capsys.readouterr().err


def test_theta_is_not_a_key(tmp_path, capsys):
    # the pressure form is fixed at theta = 0, so a file or an option that
    # sets theta is a config error
    cfg = tmp_path / "theta.cfg"
    cfg.write_text("scenario=manufactured\ntheta = -1\n")
    assert main(["--config", str(cfg)]) == 2
    assert "unknown config key 'theta'" in capsys.readouterr().err
    assert main(["--scenario", "manufactured", "--theta", "-1"]) == 2
    assert "unrecognized arguments: --theta" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [("entropy_r", "0.5"),
                                        ("extrapolation", "lagged"),
                                        ("entropy_b", "4")])
def test_removed_entropy_settings_are_not_keys(tmp_path, capsys, key, value):
    # the power entropy is c^2/2 and the sensed state is always extrapolated
    cfg = tmp_path / "entropy.cfg"
    cfg.write_text(f"scenario=single_vortex\n{key} = {value}\n")
    assert main(["--config", str(cfg)]) == 2
    assert f"unknown config key {key!r}" in capsys.readouterr().err
    flag = "--" + key.replace("_", "-")
    assert main(["--scenario", "single_vortex", flag, value]) == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_kruzkov_entropy_is_a_config_error(capsys):
    assert main(["--scenario", "perm_block", "--entropy", "kruzkov"]) == 2
    err = capsys.readouterr().err
    assert "kruzkov" in err and "'power', 'log'" in err


# per key a valid value that random_perm_2d does not resolve to
_NON_PRESET = {
    "x0": -1.0, "y0": -1.0, "x1": 2.0, "y1": 2.0, "nx": 3, "ny": 5,
    "dt": 0.05, "t_end": 0.2, "phi": 0.3, "rho0": 2.0, "c_f": 1e-6,
    "alpha": 12.0, "alpha_c": 3.0, "alpha_s": 2.0, "bdf_order": 1,
    "entropy": "power", "entropy_eps": 1e-3, "lambda_lin": 0.25,
    "lambda_ent": 0.75, "r_max": 4, "r_min": 2, "cell_max": 1234,
    "refine_fraction": 0.3, "coarsen_fraction": 0.05, "mu_s": 2.0,
    "ratio": 3.0, "d_m": 1e-6, "alpha_l": 1e-5, "alpha_t": 1e-7,
    "t_period": 3.0, "n_centers": 7, "perturb": 1e-2, "source_rate": 5.0,
    "inflow_speed": 0.1, "flow_tol": 1e-8, "transport_tol": 1e-9, "seed": 5,
    "stride": 3,
}


def test_every_key_reaches_the_resolved_config():
    # a key whose field is gone would set nothing and fail here
    assert set(_NON_PRESET) == set(driver._KEYS) - {"scenario"}
    base = make_config("random_perm_2d")
    dead = [key for key, value in _NON_PRESET.items()
            if make_config("random_perm_2d", **{key: value}) == base]
    assert dead == []


def test_manufactured_single_step():
    cfg = make_config("manufactured")
    seen = {}

    def hook(state):
        seen.update(state)

    res = run(cfg, step_hook=hook)
    ctx = seen["ctx"]
    # exact linear pressure drop and unit velocity
    vals = ctx.cell_values(seen["P"])
    assert np.abs(vals - (1.0 - ctx.cell_qx)).max() < 1e-9
    assert np.allclose(seen["flux"].center_velocity,
                       [1.0, 0.0], atol=1e-9)
    from egflow.flow import local_conservation_residual
    r = local_conservation_residual(ctx, seen["flux"], seen["q_qp"],
                                    cfg.flow, cfg.dt, m=seen["m"])
    assert np.abs(r).max() < 1e-10
    assert len(res.records) == 1
    # the pressure solve ran, as one LU solve on the step's fresh factor
    assert seen["gmres_flow"].converged
    assert res.records[0]["gmres_flow"] == 0


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


def test_cli_option_errors_return_2_and_help_0(capsys):
    # argparse's own exits come back as main's return value, not SystemExit
    assert main(["--scenario", "nope"]) == 2
    assert main(["--scenario", "perm_block", "--dt"]) == 2
    assert "usage: simulate" in capsys.readouterr().err
    assert main(["--help"]) == 0
    assert "--scenario" in capsys.readouterr().out


def test_cli_bad_config_exits_2(tmp_path, capsys):
    assert main([]) == 2                          # no scenario anywhere
    bad = tmp_path / "bad.cfg"
    bad.write_text("scenario=perm_block\nwhatever=1\n")
    assert main(["--config", str(bad)]) == 2
    assert main(["--scenario", "perm_block", "--dt", "nope"]) == 2
    # values that would otherwise fail inside the run, or run until the
    # solver stalls, are rejected before it starts
    for argv in (["--seed", "-1"], ["--seed", "1.5"], ["--t-end", "inf"],
                 ["--alpha-c", "nan"], ["--t-end", "0.15"],
                 ["--t-end", "1e300", "--dt", "1e-10"],
                 ["--flow-tol", "0"], ["--transport-tol=-1e-10"]):
        assert main(["--scenario", "manufactured", *argv]) == 2
    assert main(["--scenario", "random_perm_2d", "--n-centers", "-1"]) == 2


def test_cli_solver_failure_exits_3(capsys):
    # the message names the system that failed
    code = main(["--scenario", "manufactured", "--flow-tol", "1e-30"])
    assert code == 3
    assert "solver failure: flow solve stalled at residual" in capsys.readouterr().err
    code = main(["--scenario", "single_vortex", "--transport-tol", "1e-30", "--t-end", "0.05"])
    assert code == 3
    assert "solver failure: transport solve stalled at residual" in capsys.readouterr().err


def test_cli_singular_system_exits_3(monkeypatch, capsys):
    assemble = driver.assemble_pressure

    def singular(*args, **kwargs):
        A, b = assemble(*args, **kwargs)
        return 0.0 * A, b

    monkeypatch.setattr(driver, "assemble_pressure", singular)
    assert main(["--scenario", "manufactured"]) == 3
    assert "flow solve failed: singular" in capsys.readouterr().err


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
    with pytest.raises(ConfigError, match="not finite"):
        make_config("manufactured", dt=float("nan"))
    with pytest.raises(ConfigError, match="non-negative"):
        make_config("manufactured", seed=-1)
    with pytest.raises(ConfigError, match="positive"):
        make_config("manufactured", transport_tol=0.0)
    # no silent truncation: a bool is not a number, and an int key takes
    # only whole numbers
    for key, value in (("nx", 2.7), ("nx", np.float64(4.5)), ("r_max", True),
                       ("dt", True), ("seed", np.True_), ("nx", float("inf"))):
        with pytest.raises(ConfigError, match=key):
            make_config("perm_block", **{key: value})
    assert make_config("perm_block", nx=8.0).nx == 8
    assert make_config("perm_block", nx=np.int64(6), ny=np.float64(6.0)).ny == 6
    assert make_config("perm_block", dt=np.float64(0.02)).dt == 0.02


def test_t_period_must_be_positive(capsys):
    argv = ["--scenario", "single_vortex", "--t-end", "0.1"]
    assert main(argv + ["--t-period", "0"]) == 2
    assert "t_period" in capsys.readouterr().err
    with pytest.raises(ConfigError, match="t_period"):
        make_config("perm_block", t_period=-1.0)


def test_refinement_levels_outside_the_quadtree_are_config_errors(capsys):
    with pytest.raises(ConfigError, match="level cap"):
        make_config("perm_block", r_max=31)
    with pytest.raises(ConfigError, match="negative"):
        make_config("perm_block", r_max=31, r_min=-3)
    with pytest.raises(ConfigError, match="negative"):
        make_config("perm_block", r_min=-3)
    assert main(["--scenario", "perm_block", "--r-max", "31"]) == 2
    assert "level cap" in capsys.readouterr().err


def test_bdf_order_outside_1_and_2_exits_2(capsys):
    assert make_config("perm_block", bdf_order=1).bdf_order == 1
    assert main(["--scenario", "perm_block", "--bdf-order", "3"]) == 2
    assert "bdf_order must be 1 or 2" in capsys.readouterr().err


def test_step_order_follows_the_config():
    # the first step has one history level, so it is first order either way
    def orders(**overrides):
        seen = []
        run(make_config("hele_shaw_rect", t_end=0.05, **overrides),
            step_hook=lambda state: seen.append(state["m"]))
        return seen

    assert orders(bdf_order=1) == [1] * 5
    assert orders() == [1, 2, 2, 2, 2]


def test_sealed_incompressible_box_with_a_source_exits_2(capsys):
    # with c_f = 0 the sealed box cannot store a net source: no solution exists
    with pytest.raises(ConfigError, match="c_f"):
        make_config("hele_shaw_radial", c_f=0.0)
    assert main(["--scenario", "hele_shaw_radial", "--c-f", "0"]) == 2
    assert "c_f" in capsys.readouterr().err
    # without a source the incompressible box is well posed, and runs
    res = run(make_config("hele_shaw_radial", c_f=0.0, source_rate=0.0, t_end=2e-4))
    assert len(res.records) == 2


def test_no_stabilization_is_zero_viscosity():
    # either coefficient at zero makes its branch of the min zero in every
    # cell, so both assemble the unstabilized system and give one record
    base = dict(nx=4, ny=4, dt=0.05, t_end=0.2, r_max=1)
    off = run(make_config("perm_block", lambda_lin=0.0, **base)).records
    assert off == run(make_config("perm_block", lambda_ent=0.0, **base)).records
    assert off != run(make_config("perm_block", **base)).records


def test_equal_level_bounds_freeze_the_mesh():
    # with r_max = r_min no cell may refine or coarsen: the run keeps the
    # initial mesh generation and its cell count on every step
    cfg = make_config("hele_shaw_rect", ratio=100.0, t_end=0.1, r_max=1)
    gens = []
    res = run(cfg, step_hook=lambda state: gens.append(state["mesh"].generation))
    assert len(set(gens)) == 1 and res.mesh.generation == gens[0]
    assert {rec["cells"] for rec in res.records} == {cfg.nx * cfg.ny * 4}


def test_t_end_must_be_a_whole_number_of_steps(capsys):
    # a t_end between two steps used to run round(t_end / dt) steps silently
    for t_end in ("0.035", "0.025"):
        with pytest.raises(ConfigError, match="whole number of steps"):
            make_config("perm_block", t_end=t_end)
    assert main(["--scenario", "perm_block", "--t-end", "0.035"]) == 2
    assert "whole number of steps" in capsys.readouterr().err
    # float quotients within 1e-9 of an integer count as whole
    assert make_config("perm_block", t_end=0.3).n_steps == 30
    assert make_config("perm_block", dt=0.1, t_end=0.7).n_steps == 7


def test_radial_preset_short_run():
    # sealed box with a center source: the flow solve must survive the pure
    # Neumann pressure system and the mass ledger must follow the source rate
    cfg = make_config("hele_shaw_radial", t_end="3e-4")  # three steps
    flow_solves = []
    res = run(cfg, step_hook=lambda state: flow_solves.append(state["gmres_flow"]))
    assert len(res.records) == 3
    rec = res.records[-1]
    assert rec["mass"] == pytest.approx(
        cfg.flow.rho0 * cfg.source_rate * 3e-4, rel=1e-9)
    assert len(flow_solves) == 3 and all(out.converged for out in flow_solves)
    assert rec["cells"] > cfg.nx * cfg.ny * 4   # refinement chased the front
