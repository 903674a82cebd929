"""Batch simulation driver.

Scenario presets, flat key=value configuration, the sequential per-step loop
(mobility -> pressure -> flux -> stabilization -> transport -> adapt), finger
diagnostics, and legacy-VTK / CSV output.  The module doubles as the CLI
entry point (``simulate``).
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from dataclasses import dataclass

import numpy as np

from .amr import FieldState, MarkingPolicy, adapt_and_transfer, mark
from .egspace import AssemblyContext, EGDofMap, interpolate
from .flow import (FlowBC, FlowParams, assemble_pressure, flux_from_velocity,
                   neutral_pressure_mode, reconstruct_flux, solve_reduced)
from .linalg import SolverError, generation_factors
from .mesh import AdaptBounds, build_uniform
from .physics import (DispersionParams, ViscosityModel, dispersion_tensor,
                      draw_centers, mobility, random_permeability,
                      single_vortex_velocity)
from .stabilization import EntropyConfig, extrapolate_star, indicator, viscosity
from .transport import (SourceField, TransportBC, TransportParams,
                        assemble_transport)

__all__ = [
    "ConfigError", "ScenarioConfig", "SCENARIOS", "make_config",
    "load_config_file", "run", "RunResult", "FingerDiagnostics",
    "finger_diagnostics", "tip_profile", "write_vtk", "write_csv",
    "CSV_HEADER", "main",
]

SCENARIOS = ("manufactured", "single_vortex", "perm_block", "random_perm_2d",
             "hele_shaw_rect", "hele_shaw_radial")

CSV_HEADER = ("step,time,cells,dofs,mass,cmin,cmax,xtip,tip_velocity,"
              "mixing_length,gmres_flow,gmres_transport")


class ConfigError(Exception):
    """Malformed or inconsistent configuration input."""


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def _as_bool(s):
    if isinstance(s, bool):
        return s
    v = str(s).strip().lower()
    if v in ("1", "true", "yes", "on"):
        return True
    if v in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


# key -> (coercion, help); every key is settable from file and CLI
_SCHEMA = {
    "scenario": (str, "benchmark preset name"),
    "x0": (float, "domain left edge"),
    "y0": (float, "domain bottom edge"),
    "x1": (float, "domain right edge"),
    "y1": (float, "domain top edge"),
    "nx": (int, "root cells in x"),
    "ny": (int, "root cells in y"),
    "dt": (float, "time step size"),
    "t_end": (float, "final time"),
    "phi": (float, "porosity"),
    "rho0": (float, "reference density"),
    "c_f": (float, "fluid compressibility"),
    "theta": (float, "interior penalty symmetrization (-1, 0, 1)"),
    "alpha": (float, "pressure penalty coefficient"),
    "alpha_c": (float, "transport jump penalty coefficient"),
    "alpha_s": (float, "stabilization jump penalty coefficient"),
    "bdf_order": (int, "backward-difference order (1 or 2)"),
    "entropy": (str, "entropy kind: power, log, kruzkov"),
    "entropy_b": (int, "exponent of the power entropy"),
    "entropy_eps": (float, "regularization of the log entropy"),
    "entropy_r": (float, "reference value of the kruzkov entropy"),
    "lambda_lin": (float, "first-order viscosity coefficient"),
    "lambda_ent": (float, "entropy viscosity coefficient"),
    "extrapolation": (str, "sensed state: extrapolated or lagged"),
    "r_max": (int, "maximum refinement level above the root grid"),
    "r_min": (int, "minimum refinement level (also initial level)"),
    "cell_max": (int, "active cell budget"),
    "refine_fraction": (float, "fraction of cells refined per step"),
    "coarsen_fraction": (float, "fraction of cells coarsened per step"),
    "mu_s": (float, "solvent (injected) viscosity"),
    "mu_0": (float, "resident viscosity"),
    "ratio": (float, "viscosity ratio M; when > 0 sets mu_0 = M*mu_s"),
    "d_m": (float, "molecular diffusivity"),
    "alpha_l": (float, "longitudinal dispersivity"),
    "alpha_t": (float, "transverse dispersivity"),
    "t_period": (float, "vortex reversal period"),
    "n_centers": (int, "random permeability bump count"),
    "perturb": (float, "inlet concentration noise amplitude"),
    "source_rate": (float, "radial injection rate q/rho0"),
    "inflow_speed": (float, "target initial inflow velocity"),
    "flow_tol": (float, "pressure solver relative tolerance"),
    "transport_tol": (float, "transport solver relative tolerance"),
    "seed": (int, "RNG seed"),
    "stride": (int, "output every k-th step"),
    "amr": (_as_bool, "enable adaptivity"),
    "stab": (_as_bool, "enable entropy stabilization"),
}

_DEFAULTS = dict(
    x0=0.0, y0=0.0, x1=1.0, y1=1.0, nx=8, ny=8, dt=0.01, t_end=1.0,
    phi=1.0, rho0=1.0, c_f=0.0, theta=0.0, alpha=8.0, alpha_c=2.0,
    alpha_s=1.0, bdf_order=2,
    entropy="power", entropy_b=2, entropy_eps=1e-4, entropy_r=0.5,
    lambda_lin=0.5, lambda_ent=0.5, extrapolation="extrapolated",
    r_max=0, r_min=0, cell_max=1_000_000,
    refine_fraction=0.2, coarsen_fraction=0.1,
    mu_s=1.0, mu_0=1.0, ratio=0.0,
    d_m=0.0, alpha_l=0.0, alpha_t=0.0,
    t_period=2.0, n_centers=40, perturb=0.0,
    source_rate=100.0, inflow_speed=0.05,
    flow_tol=1e-10, transport_tol=1e-10,
    seed=0, stride=10, amr=True, stab=True,
)

_PRESETS = {
    # steady unit-mobility channel; exact solution is the linear pressure drop
    "manufactured": dict(
        nx=4, ny=4, dt=0.1, t_end=0.1, c_f=0.0, r_max=2,
        lambda_lin=0.0, lambda_ent=0.0, amr=False, stab=False, stride=1,
    ),
    # reversing tracer advection with a prescribed analytic velocity
    "single_vortex": dict(
        nx=8, ny=8, dt=0.05, t_end=2.0, t_period=2.0, amr=False,
        lambda_lin=0.5, lambda_ent=0.5, entropy="power", entropy_b=2,
    ),
    # low-permeability obstruction, slightly compressible, unit viscosity
    "perm_block": dict(
        nx=10, ny=10, r_min=0, r_max=2, cell_max=20_000,
        dt=0.01, t_end=1.0, c_f=1e-8,
        lambda_lin=0.5, lambda_ent=0.5, entropy="log", entropy_eps=1e-4,
    ),
    # smooth random permeability bumps, same drive as perm_block
    "random_perm_2d": dict(
        nx=10, ny=10, r_min=1, r_max=2, cell_max=50_000,
        dt=0.01, t_end=1.0, c_f=1e-8,
        d_m=1.8e-7, alpha_l=1.8e-5, alpha_t=1.8e-6,
        lambda_lin=0.5, lambda_ent=0.5, entropy="log", entropy_eps=1e-4,
        n_centers=40,
    ),
    # rectilinear channel displacement, viscosity-ratio driven fingering
    "hele_shaw_rect": dict(
        x1=1.0, y1=0.25, nx=16, ny=4, r_min=1, r_max=2, cell_max=50_000,
        dt=0.01, t_end=10.0, rho0=1000.0, c_f=0.0,
        mu_s=0.001, ratio=100.0,
        lambda_lin=1.0, lambda_ent=1.0, entropy="log", entropy_eps=1e-4,
        d_m=1.8e-8, alpha_l=1.8e-8, alpha_t=1.8e-9,
        perturb=1e-3, inflow_speed=0.05,
    ),
    # closed box with a point-like injection at the center; the source pumps
    # 100 box volumes per unit time, so one volume has arrived by t = 0.01
    "hele_shaw_radial": dict(
        nx=8, ny=8, r_min=1, r_max=3, cell_max=100_000,
        dt=1e-4, t_end=0.01, rho0=1000.0, c_f=1e-8,
        mu_s=0.001, ratio=1000.0,
        lambda_lin=1.0, lambda_ent=1.0, entropy="log", entropy_eps=1e-4,
        d_m=1.8e-8, alpha_l=1.8e-5, alpha_t=1.8e-6,
        source_rate=100.0,
    ),
}


@dataclass(frozen=True)
class ScenarioConfig:
    """Fully resolved run description (preset + file + CLI overrides)."""

    scenario: str
    domain: tuple
    nx: int
    ny: int
    dt: float
    t_end: float
    flow: FlowParams
    transport: TransportParams
    entropy: EntropyConfig
    marking: MarkingPolicy
    viscosity: ViscosityModel
    dispersion: DispersionParams
    ratio: float
    t_period: float
    n_centers: int
    perturb: float
    source_rate: float
    inflow_speed: float
    flow_tol: float
    transport_tol: float
    seed: int
    stride: int
    amr: bool
    stab: bool

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ValueError(f"unknown scenario {self.scenario!r}")
        if not (self.dt > 0.0 and self.t_end > 0.0):
            raise ValueError("dt and t_end must be positive")
        x0, y0, x1, y1 = self.domain
        if not (x1 > x0 and y1 > y0):
            raise ValueError(f"empty domain {self.domain}")
        if self.nx < 1 or self.ny < 1:
            raise ValueError("nx, ny must be at least 1")
        if self.stride < 1:
            raise ValueError("stride must be at least 1")
        if self.n_steps < 1:
            raise ValueError("t_end shorter than one step")
        if self.scenario.startswith("hele_shaw") and self.viscosity.mobility_ratio < 1.0:
            raise ValueError("displacement scenarios need mu_0 >= mu_s")

    @property
    def n_steps(self) -> int:
        return int(round(self.t_end / self.dt))


def _coerce(key: str, value):
    if key not in _SCHEMA:
        raise ConfigError(f"unknown config key {key!r}")
    conv = _SCHEMA[key][0]
    try:
        return conv(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad value for {key}: {value!r} ({exc})") from exc


def load_config_file(path: str) -> dict:
    """Parse a flat key=value file (one pair per line, # comments)."""
    out = {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for ln, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{ln}: expected key=value, got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        out[key] = val if key == "scenario" else _coerce(key, val)
    return out


def build_config(flat: dict) -> ScenarioConfig:
    """Assemble the typed config from a complete flat key -> value map."""
    f = dict(flat)
    scenario = f.pop("scenario")
    if scenario not in SCENARIOS:
        raise ConfigError(
            f"unknown scenario {scenario!r}; choose one of {', '.join(SCENARIOS)}"
        )
    mu_0 = f["ratio"] * f["mu_s"] if f["ratio"] > 0.0 else f["mu_0"]
    try:
        model = ViscosityModel(mu_s=f["mu_s"], mu_0=mu_0)
        cfg = ScenarioConfig(
            scenario=scenario,
            domain=(f["x0"], f["y0"], f["x1"], f["y1"]),
            nx=f["nx"], ny=f["ny"], dt=f["dt"], t_end=f["t_end"],
            flow=FlowParams(phi=f["phi"], rho0=f["rho0"], c_F=f["c_f"],
                            theta=f["theta"], alpha=f["alpha"],
                            bdf_order=f["bdf_order"]),
            transport=TransportParams(phi=f["phi"], rho0=f["rho0"],
                                      alpha_c=f["alpha_c"], alpha_s=f["alpha_s"],
                                      bdf_order=f["bdf_order"]),
            entropy=EntropyConfig(kind=f["entropy"], b=f["entropy_b"],
                                  eps=f["entropy_eps"], r=f["entropy_r"],
                                  lambda_lin=f["lambda_lin"],
                                  lambda_ent=f["lambda_ent"],
                                  extrapolation=f["extrapolation"]),
            marking=MarkingPolicy(
                bounds=AdaptBounds(r_max=f["r_max"], r_min=f["r_min"],
                                   cell_max=f["cell_max"]),
                refine_fraction=f["refine_fraction"],
                coarsen_fraction=f["coarsen_fraction"]),
            viscosity=model,
            dispersion=DispersionParams(d_m=f["d_m"], alpha_l=f["alpha_l"],
                                        alpha_t=f["alpha_t"]),
            ratio=model.mobility_ratio,
            t_period=f["t_period"], n_centers=f["n_centers"],
            perturb=f["perturb"], source_rate=f["source_rate"],
            inflow_speed=f["inflow_speed"],
            flow_tol=f["flow_tol"], transport_tol=f["transport_tol"],
            seed=f["seed"], stride=f["stride"],
            amr=f["amr"], stab=f["stab"],
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return cfg


def make_config(scenario: str, **overrides) -> ScenarioConfig:
    """Preset + keyword overrides -> ScenarioConfig (the library entry)."""
    if scenario not in _PRESETS:
        raise ConfigError(
            f"unknown scenario {scenario!r}; choose one of {', '.join(SCENARIOS)}"
        )
    flat = dict(_DEFAULTS)
    flat.update(_PRESETS[scenario])
    flat["scenario"] = scenario
    for key, val in overrides.items():
        if key not in _SCHEMA:
            raise ConfigError(f"unknown config key {key!r}")
        flat[key] = val if key == "scenario" else _coerce(key, val)
    return build_config(flat)


# ---------------------------------------------------------------------------
# scenario runtime pieces
# ---------------------------------------------------------------------------

_BLOCK = (3.0 / 8.0, 5.0 / 8.0, 1.0 / 4.0, 3.0 / 4.0)    # obstruction extent
_BLOCK_PERM = 1e-3


class _Problem:
    """Boundary data, permeability, sources, and initial state per scenario."""

    def __init__(self, cfg: ScenarioConfig, rng: np.random.Generator):
        self.cfg = cfg
        s = cfg.scenario
        self.uses_pressure = s != "single_vortex"
        self.has_source = s == "hele_shaw_radial"
        self.centers = None

        x0, y0, x1, y1 = cfg.domain
        inflow = {"left": 1.0, "right": 0.0, "top": 0.0, "bottom": 0.0}
        if s == "manufactured":
            self.flow_bc = FlowBC(dirichlet={"left": 1.0, "right": 0.0},
                                  neumann={"top": 0.0, "bottom": 0.0})
            self.transport_bc = TransportBC(c_in=0.0)
        elif s == "single_vortex":
            self.flow_bc = None
            self.transport_bc = TransportBC(c_in=0.0)
        elif s in ("perm_block", "random_perm_2d"):
            self.flow_bc = FlowBC(dirichlet={"left": 1.0, "right": 0.0},
                                  neumann={"top": 0.0, "bottom": 0.0})
            self.transport_bc = TransportBC(c_in=inflow)
            if s == "random_perm_2d":
                self.centers = draw_centers(cfg.n_centers, cfg.domain, rng)
        elif s == "hele_shaw_rect":
            # Dirichlet pair sized so the undisturbed resident fluid moves at
            # the configured speed: (K/mu_0) * (p_in - p_out) / L = speed
            p_in = cfg.inflow_speed * cfg.viscosity.mu_0 * (x1 - x0)
            self.flow_bc = FlowBC(dirichlet={"left": p_in, "right": 0.0},
                                  neumann={"top": 0.0, "bottom": 0.0})
            self.transport_bc = TransportBC(c_in=inflow)
        elif s == "hele_shaw_radial":
            self.flow_bc = FlowBC(dirichlet={},
                                  neumann={"left": 0.0, "right": 0.0,
                                           "top": 0.0, "bottom": 0.0})
            self.transport_bc = TransportBC(c_in=0.0)

        if s == "single_vortex":
            r = 0.15
            self.c0 = lambda x, y: np.sqrt((x - 0.5) ** 2 + (y - 0.75) ** 2) - r
        else:
            self.c0 = lambda x, y: np.zeros_like(np.asarray(x, dtype=float))

    def rock_permeability(self, ctx: AssemblyContext) -> np.ndarray:
        """Cellwise K sampled at cell centers (kept sharp across the block)."""
        xc, yc = ctx.cell_center[:, 0], ctx.cell_center[:, 1]
        s = self.cfg.scenario
        if s == "perm_block":
            bx0, bx1, by0, by1 = _BLOCK
            inside = (xc > bx0) & (xc < bx1) & (yc > by0) & (yc < by1)
            return np.where(inside, _BLOCK_PERM, 1.0)
        if s == "random_perm_2d":
            return random_permeability(self.centers, xc, yc)
        return np.ones(ctx.mesh.n_active)

    def source_q(self, ctx: AssemblyContext):
        """Mass source per unit volume at quadrature points, or 0."""
        if not self.has_source:
            return 0.0
        mesh = ctx.mesh
        cid = mesh.locate(*_radial_source_point(self.cfg.domain))
        idx = mesh.index_of_id(cid)
        q = np.zeros((mesh.n_active, 9))
        q[idx] = self.cfg.source_rate * self.cfg.flow.rho0 / mesh.cell_area[idx]
        return q

    def initial_concentration(self, ctx: AssemblyContext,
                              rng: np.random.Generator) -> np.ndarray:
        C = interpolate(self.c0, ctx.mesh, ctx.dofmap)
        if self.cfg.perturb > 0.0:
            # noise on the constants of the first inflow-side cell column;
            # physical runs self-seed, a symmetric discrete system does not
            x0 = self.cfg.domain[0]
            strip = x0 + (self.cfg.domain[2] - x0) / (
                self.cfg.nx * (1 << self.cfg.marking.bounds.r_min))
            cells = np.nonzero(ctx.cell_center[:, 0] < strip)[0]
            noise = rng.uniform(0.0, self.cfg.perturb, size=cells.size)
            C[ctx.dofmap.cell_dofs[cells, 4]] += noise
        return C

    def velocity(self, t: float):
        cfg = self.cfg
        return lambda x, y: single_vortex_velocity(x, y, t, cfg.t_period)


def _radial_source_point(domain):
    x0, y0, x1, y1 = domain
    return 0.5 * (x0 + x1), 0.5 * (y0 + y1)


# ---------------------------------------------------------------------------
# finger diagnostics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FingerDiagnostics:
    x_tip: float
    x_lead: float
    x_trail: float
    mixing_length: float


def _edge_values(ctx: AssemblyContext, C):
    """Per cell and per horizontal quadrature row, the field value at the
    left/right cell edges.

    Within a cell the enriched field is linear in x along fixed y, so the
    two outer quadrature columns extrapolate to the edges exactly.  Yields
    (cell_idx, xL, xR, CL, CR) blocks of shape (m, 3).
    """
    vals = ctx.cell_values(C)
    for g in ctx.cell_groups:
        v = vals[g.idx].reshape(-1, 3, 3)       # [cell, x-column, y-row]
        x = g.qx[:, ::3]                        # (m, 3) distinct x abscissae
        xa, xb = x[:, :1], x[:, 2:3]
        slope = (v[:, 2, :] - v[:, 0, :]) / (xb - xa)
        xL = ctx.mesh.cell_x0[g.idx][:, None]
        xR = xL + g.hx
        CL = v[:, 0, :] + slope * (xL - xa)
        CR = v[:, 0, :] + slope * (xR - xa)
        yield g.idx, np.broadcast_to(xL, CL.shape), np.broadcast_to(xR, CR.shape), CL, CR


def _front_positions(xL, xR, CL, CR, threshold):
    """Rightmost x with C >= threshold on each linear row segment (nan: none)."""
    out = np.full(CL.shape, np.nan)
    cross = (CL >= threshold) & (CR < threshold)
    denom = np.where(CR != CL, CR - CL, 1.0)
    xc = xL + (threshold - CL) / denom * (xR - xL)
    out = np.where(cross, xc, out)
    return np.where(CR >= threshold, xR, out)


def _drop_positions(xL, xR, CL, CR, threshold):
    """Leftmost x where C falls below threshold on each segment (nan: none)."""
    out = np.full(CL.shape, np.nan)
    cross = (CL >= threshold) & (CR < threshold)
    denom = np.where(CR != CL, CR - CL, 1.0)
    xc = xL + (threshold - CL) / denom * (xR - xL)
    out = np.where(cross, xc, out)
    return np.where(CL < threshold, xL, out)


_TIP_LEVEL, _LEAD_LEVEL, _TRAIL_LEVEL = 0.5, 0.1, 0.9   # finger_diagnostics


def finger_diagnostics(ctx: AssemblyContext, C) -> FingerDiagnostics:
    """Front-tracking summary for displacement along +x.

    x_tip: rightmost point with C >= 0.5 (0 when the front is absent);
    x_lead: rightmost with C >= 0.1; x_trail: rightmost x such that C >= 0.9
    everywhere to its left; mixing_length = x_lead - x_trail.
    """
    tip = lead = -np.inf
    trail = np.inf
    for _, xL, xR, CL, CR in _edge_values(ctx, C):
        f = _front_positions(xL, xR, CL, CR, _TIP_LEVEL)
        if not np.all(np.isnan(f)):
            tip = max(tip, np.nanmax(f))
        f = _front_positions(xL, xR, CL, CR, _LEAD_LEVEL)
        if not np.all(np.isnan(f)):
            lead = max(lead, np.nanmax(f))
        d = _drop_positions(xL, xR, CL, CR, _TRAIL_LEVEL)
        if not np.all(np.isnan(d)):
            trail = min(trail, np.nanmin(d))
    tip = 0.0 if tip == -np.inf else float(tip)
    lead = 0.0 if lead == -np.inf else float(lead)
    trail = float(ctx.mesh.domain[2]) if trail == np.inf else float(trail)
    return FingerDiagnostics(x_tip=tip, x_lead=lead, x_trail=trail,
                             mixing_length=max(0.0, lead - trail))


def tip_profile(ctx: AssemblyContext, C, bins: int,
                threshold: float = 0.5) -> np.ndarray:
    """Per-transverse-bin front position (0 where no point reaches it)."""
    y0, y1 = ctx.mesh.domain[1], ctx.mesh.domain[3]
    prof = np.zeros(bins)
    for idx, xL, xR, CL, CR in _edge_values(ctx, C):
        f = _front_positions(xL, xR, CL, CR, threshold)
        rowmax = np.nanmax(np.where(np.isnan(f), -np.inf, f), axis=1)
        b = np.clip(((ctx.cell_center[idx, 1] - y0) / (y1 - y0) * bins
                     ).astype(int), 0, bins - 1)
        np.maximum.at(prof, b, np.where(rowmax == -np.inf, 0.0, rowmax))
    return prof


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------

def write_vtk(mesh, dofmap: EGDofMap, cell_data: dict, point_data: dict,
              path: str) -> None:
    """Legacy ASCII unstructured-grid snapshot (active cells as quads)."""
    n_pts, nc = dofmap.n_cg, mesh.n_active
    corners = dofmap.cell_dofs[:, [0, 1, 3, 2]]      # counterclockwise
    out = [
        "# vtk DataFile Version 3.0",
        "egflow snapshot",
        "ASCII",
        "DATASET UNSTRUCTURED_GRID",
        f"POINTS {n_pts} double",
    ]
    out.extend(f"{x:.10g} {y:.10g} 0" for x, y in dofmap.vertex_pos)
    out.append(f"CELLS {nc} {5 * nc}")
    out.extend("4 " + " ".join(map(str, quad)) for quad in corners)
    out.append(f"CELL_TYPES {nc}")
    out.extend(["9"] * nc)
    if cell_data:
        out.append(f"CELL_DATA {nc}")
        for name, arr in cell_data.items():
            out.append(f"SCALARS {name} double 1")
            out.append("LOOKUP_TABLE default")
            out.extend(f"{v:.10g}" for v in np.asarray(arr, dtype=float))
    if point_data:
        out.append(f"POINT_DATA {n_pts}")
        for name, arr in point_data.items():
            out.append(f"SCALARS {name} double 1")
            out.append("LOOKUP_TABLE default")
            out.extend(f"{v:.10g}" for v in np.asarray(arr, dtype=float))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(out) + "\n")


def write_csv(records, path: str) -> None:
    """Diagnostics table with a fixed header (deterministic formatting)."""
    cols = CSV_HEADER.split(",")
    ints = {"step", "cells", "dofs", "gmres_flow", "gmres_transport"}
    lines = [CSV_HEADER]
    for rec in records:
        lines.append(",".join(
            str(int(rec[c])) if c in ints else format(float(rec[c]), ".17g")
            for c in cols
        ))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# time loop
# ---------------------------------------------------------------------------

@dataclass
class RunResult:
    """Final state and per-step diagnostics of a simulation run."""

    config: ScenarioConfig
    records: list
    mesh: object
    dofmap: EGDofMap
    ctx: AssemblyContext
    P: np.ndarray
    C: np.ndarray


def run(config: ScenarioConfig, outdir: str | None = None,
        step_hook=None) -> RunResult:
    """Advance the coupled system from t=0 to t_end.

    Per step: mobility from the extrapolated concentration, pressure solve
    (skipped when the velocity is prescribed), conservative flux recovery,
    stabilization viscosity + indicator, transport solve, then mark/adapt
    with mean-preserving transfer.  ``step_hook(state)`` runs after the
    transport solve on the pre-adaptation mesh.
    """
    if outdir is not None:
        os.makedirs(outdir, exist_ok=True)
    rng = np.random.default_rng(config.seed)
    prob = _Problem(config, rng)

    mesh = build_uniform(config.domain, config.nx, config.ny)
    for _ in range(config.marking.bounds.r_min):
        mesh = mesh.refine(mesh.cell_id)
    dm = EGDofMap(mesh)
    ctx = AssemblyContext(mesh, dm)
    # LU factors of the two reduced systems and their shared column order,
    # owned by the mesh generation
    factors = generation_factors("flow", "transport")

    C_n = prob.initial_concentration(ctx, rng)
    C_nm1 = None
    P_n = np.zeros(dm.n_dofs)
    P_nm1 = None
    u_center = np.zeros((mesh.n_active, 2))
    tip_prev = None
    records = []

    try:
        for step in range(1, config.n_steps + 1):
            t = step * config.dt
            m = 1 if C_nm1 is None else config.transport.bdf_order

            # mobility from the extrapolated concentration, then pressure
            K_cells = prob.rock_permeability(ctx)
            q_qp = prob.source_q(ctx)
            if prob.uses_pressure:
                c_guess = np.clip(
                    dm.cell_means(extrapolate_star(config.entropy, C_n, C_nm1)),
                    0.0, 1.0)
                kappa = mobility(K_cells, config.viscosity, c_guess)
                A, b = assemble_pressure(ctx, config.flow, prob.flow_bc, kappa,
                                         P_n=P_n, P_nm1=P_nm1, q_field=q_qp,
                                         dt=config.dt, m=m)
                # a sealed box pressurizes without bound under net injection;
                # peel the level off so the solve only sees the gradients
                defl = None
                if not prob.flow_bc.dirichlet and config.flow.c_F > 0.0:
                    defl = neutral_pressure_mode(ctx, config.flow,
                                                 config.dt, m)
                P_np1, res_flow = solve_reduced(dm, A, b, x0_full=P_n,
                                                tol=config.flow_tol,
                                                deflate=defl,
                                                factor=factors["flow"])
                del A, b                # a solved system is not kept into the adapt
                flux = reconstruct_flux(ctx, P_np1, kappa, prob.flow_bc,
                                        config.flow)
            else:
                P_np1, res_flow, kappa = P_n, None, None
                flux = flux_from_velocity(ctx, prob.velocity(t))

            # entropy indicator and stabilization viscosity
            C_star = extrapolate_star(config.entropy, C_n, C_nm1)
            if prob.has_source:
                # injected concentration is 1, produced is the resident state
                q_tilde = np.maximum(q_qp, 0.0) + \
                    ctx.cell_values(C_star) * np.minimum(q_qp, 0.0)
            else:
                q_tilde = None
            ind = indicator(config.entropy, ctx, C_star, C_n, C_nm1, flux,
                            q_tilde, config.dt, m)
            visc = viscosity(config.entropy, ctx, ind, flux, C_star)
            mu_cells = visc.mu_stab if config.stab else None

            # dispersion lags one step; the first step uses its own flux
            if config.dispersion.pure_advection:
                D_cells = None
            else:
                u_src = flux.center_velocity if step == 1 else u_center
                D_cells = dispersion_tensor(config.dispersion, u_src)

            sources = SourceField(q=q_qp, c_q=1.0) if prob.has_source \
                else SourceField()
            A_t, b_t = assemble_transport(ctx, config.transport,
                                          prob.transport_bc, flux, D_cells,
                                          mu_cells, C_n, C_nm1,
                                          sources=sources, dt=config.dt, m=m)
            C_np1, res_tr = solve_reduced(dm, A_t, b_t, x0_full=C_n,
                                          tol=config.transport_tol,
                                          factor=factors["transport"])
            del A_t, b_t

            # diagnostics on the pre-adaptation mesh
            vals = ctx.cell_values(C_np1)
            fd = finger_diagnostics(ctx, C_np1)
            tip_v = 0.0 if tip_prev is None else (fd.x_tip - tip_prev) / config.dt
            tip_prev = fd.x_tip
            rec = {
                "step": step, "time": t,
                "cells": mesh.n_active, "dofs": dm.n_dofs,
                "mass": config.transport.phi * config.transport.rho0
                        * dm.total_integral(C_np1),
                "cmin": float(vals.min()), "cmax": float(vals.max()),
                "xtip": fd.x_tip, "tip_velocity": tip_v,
                "mixing_length": fd.mixing_length,
                "gmres_flow": 0 if res_flow is None else res_flow.iterations,
                "gmres_transport": res_tr.iterations,
            }
            records.append(rec)

            if outdir is not None and (step % config.stride == 0
                                       or step == config.n_steps):
                mu_used = mu_cells if mu_cells is not None \
                    else np.zeros(mesh.n_active)
                write_vtk(mesh, dm,
                          cell_data={"c_const": C_np1[dm.cell_dofs[:, 4]],
                                     "mu_stab": mu_used,
                                     "entropy_residual": ind.er,
                                     "level": mesh.cell_level.astype(float),
                                     "permeability": K_cells},
                          point_data={"p": P_np1[:dm.n_cg],
                                      "c": C_np1[:dm.n_cg]},
                          path=os.path.join(outdir, f"step_{step:06d}.vtk"))

            if step_hook is not None:
                step_hook({
                    "step": step, "time": t, "m": m, "config": config,
                    "mesh": mesh, "dofmap": dm, "ctx": ctx, "factors": factors,
                    "P": P_np1, "P_n": P_n, "P_nm1": P_nm1,
                    "C": C_np1, "C_n": C_n, "C_nm1": C_nm1,
                    "flux": flux, "kappa": kappa,
                    "q_qp": q_qp, "indicator": ind, "viscosity": visc,
                    "gmres_flow": res_flow, "gmres_transport": res_tr,
                    "record": rec,
                })

            # adapt and carry the history to the new mesh
            fields = [FieldState("P", "eg", P_np1),
                      FieldState("P_n", "eg", P_n),
                      FieldState("C", "eg", C_np1),
                      FieldState("C_n", "eg", C_n),
                      FieldState("ux", "cell", flux.center_velocity[:, 0].copy()),
                      FieldState("uy", "cell", flux.center_velocity[:, 1].copy())]
            mesh2, dm2 = mesh, dm
            if config.amr:
                marks = mark(ind, mesh, config.marking)
                mesh2, dm2, fields = adapt_and_transfer(mesh, dm, fields, marks)
            if mesh2 is mesh:
                # keep factors from here on: this mesh is likely to live on
                factors["flow"].keep = factors["transport"].keep = True
            else:
                # free the old generation before building the new one
                factors = ctx = None
                mesh, dm = mesh2, dm2
                ctx = AssemblyContext(mesh, dm)
                factors = generation_factors("flow", "transport")
            by_name = {f.name: f.data for f in fields}
            P_nm1, P_n = by_name["P_n"], by_name["P"]
            C_nm1, C_n = by_name["C_n"], by_name["C"]
            u_center = np.stack([by_name["ux"], by_name["uy"]], axis=1)
    finally:
        if outdir is not None:
            write_csv(records, os.path.join(outdir, "diagnostics.csv"))

    return RunResult(config=config, records=records, mesh=mesh, dofmap=dm,
                     ctx=ctx, P=P_n, C=C_n)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="simulate",
        description="Coupled pressure/transport benchmark runner.")
    p.add_argument("--scenario", choices=SCENARIOS,
                   help="benchmark preset (may also come from the config file)")
    p.add_argument("--config", metavar="FILE", help="key=value override file")
    p.add_argument("--out", metavar="DIR", help="output directory")
    p.add_argument("--seed", type=int, help="RNG seed override")
    p.add_argument("--no-amr", action="store_true", help="freeze the mesh")
    p.add_argument("--no-stab", action="store_true",
                   help="disable entropy stabilization")
    handled = {"scenario", "seed", "amr", "stab"}
    for key, (_, hlp) in _SCHEMA.items():
        if key not in handled:
            p.add_argument(f"--{key.replace('_', '-')}", dest=key,
                           metavar="V", help=hlp)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        file_kv = load_config_file(args.config) if args.config else {}
        scenario = args.scenario or file_kv.pop("scenario", None)
        if scenario is None:
            raise ConfigError("no scenario given (use --scenario or a "
                              "config file with a scenario= line)")
        file_kv.pop("scenario", None)
        overrides = dict(file_kv)
        for key in _SCHEMA:
            if key == "scenario":
                continue
            val = getattr(args, key, None)
            if val is not None:
                overrides[key] = _coerce(key, val)
        if args.seed is not None:
            overrides["seed"] = args.seed
        if args.no_amr:
            overrides["amr"] = False
        if args.no_stab:
            overrides["stab"] = False
        config = make_config(scenario, **overrides)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        result = run(config, outdir=args.out)
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3
    last = result.records[-1]
    print(f"completed {last['step']} steps to t={last['time']:g} "
          f"({last['cells']} cells, {last['dofs']} dofs)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
