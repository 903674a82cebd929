"""Batch simulation driver.

Scenario presets, flat key=value configuration, the sequential per-step loop
(mobility -> pressure -> flux -> stabilization -> transport -> adapt), finger
diagnostics, and legacy-VTK / CSV output.  The module doubles as the CLI
entry point (``simulate``).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .amr import MarkingPolicy, adapt_and_transfer, mark
from .egspace import AssemblyContext, EGDofMap, interpolate
from .flow import (FlowBC, FlowParams, assemble_pressure, flux_from_velocity,
                   neutral_pressure_mode, reconstruct_flux, solve_reduced)
from .linalg import SolverError, generation_factors
from .mesh import SIDES, AdaptBounds, build_uniform
from .physics import (DispersionParams, ViscosityModel, dispersion_tensor,
                      draw_centers, mobility, random_permeability,
                      single_vortex_velocity)
from .stabilization import EntropyConfig, extrapolate_star, indicator, viscosity
from .transport import TransportBC, TransportParams, assemble_transport

__all__ = [
    "ConfigError", "ScenarioConfig", "SCENARIOS", "make_config",
    "load_config_file", "run", "RunResult", "FingerDiagnostics",
    "finger_diagnostics", "tip_profile", "write_vtk", "write_csv",
    "CSV_HEADER", "main",
]

CSV_HEADER = ("step,time,cells,dofs,mass,cmin,cmax,xtip,tip_velocity,"
              "mixing_length,gmres_flow,gmres_transport")


class ConfigError(Exception):
    """Malformed or inconsistent configuration input."""


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

# key -> (coercion, default, help); every key is settable from file and CLI.
# A default that a parameter class declares is read off that class, so the
# CLI and the library cannot disagree on it.
_KEYS = {
    "scenario": (str, None, "benchmark preset name"),
    "x0": (float, 0.0, "domain left edge"),
    "y0": (float, 0.0, "domain bottom edge"),
    "x1": (float, 1.0, "domain right edge"),
    "y1": (float, 1.0, "domain top edge"),
    "nx": (int, 8, "root cells in x"),
    "ny": (int, 8, "root cells in y"),
    "dt": (float, 0.01, "time step size"),
    "t_end": (float, 1.0, "final time"),
    "phi": (float, FlowParams.phi, "porosity"),
    "rho0": (float, FlowParams.rho0, "reference density"),
    "c_f": (float, FlowParams.c_F, "fluid compressibility"),
    "theta": (float, FlowParams.theta, "interior penalty symmetrization (-1, 0, 1)"),
    "alpha": (float, FlowParams.alpha, "pressure penalty coefficient"),
    "alpha_c": (float, TransportParams.alpha_c, "transport jump penalty"),
    "alpha_s": (float, TransportParams.alpha_s, "stabilization jump penalty"),
    "bdf_order": (int, 2, "backward-difference order of both systems (1 or 2)"),
    "entropy": (str, EntropyConfig.kind, "entropy kind: power, log, kruzkov"),
    "entropy_b": (int, EntropyConfig.b, "exponent of the power entropy"),
    "entropy_eps": (float, EntropyConfig.eps, "regularization of the log entropy"),
    "entropy_r": (float, EntropyConfig.r, "reference value of the kruzkov entropy"),
    "lambda_lin": (float, EntropyConfig.lambda_lin, "first-order viscosity constant"),
    "lambda_ent": (float, EntropyConfig.lambda_ent, "entropy viscosity constant"),
    "extrapolation": (str, EntropyConfig.extrapolation,
                      "sensed state: extrapolated or lagged"),
    "r_max": (int, 0, "maximum refinement level above the root grid"),
    "r_min": (int, AdaptBounds.r_min, "minimum refinement level (also initial level)"),
    "cell_max": (int, AdaptBounds.cell_max, "active cell budget"),
    "refine_fraction": (float, MarkingPolicy.refine_fraction,
                        "fraction of cells refined per step"),
    "coarsen_fraction": (float, MarkingPolicy.coarsen_fraction,
                         "fraction of cells coarsened per step"),
    "mu_s": (float, 1.0, "solvent (injected) viscosity"),
    "ratio": (float, 1.0, "viscosity ratio M: the resident viscosity is M*mu_s"),
    "d_m": (float, 0.0, "molecular diffusivity"),
    "alpha_l": (float, 0.0, "longitudinal dispersivity"),
    "alpha_t": (float, 0.0, "transverse dispersivity"),
    "t_period": (float, 2.0, "vortex reversal period"),
    "n_centers": (int, 40, "random permeability bump count"),
    "perturb": (float, 0.0, "inlet concentration noise amplitude"),
    "source_rate": (float, 100.0, "radial injection rate q/rho0"),
    "inflow_speed": (float, 0.05, "target initial inflow velocity"),
    "flow_tol": (float, 1e-10, "pressure solver relative tolerance"),
    "transport_tol": (float, 1e-10, "transport solver relative tolerance"),
    "seed": (int, 0, "RNG seed"),
    "stride": (int, 10, "output every k-th step"),
}

_PRESETS = {
    # steady unit-mobility channel; exact solution is the linear pressure drop
    "manufactured": dict(
        nx=4, ny=4, dt=0.1, t_end=0.1, c_f=0.0,
        lambda_lin=0.0, lambda_ent=0.0, stride=1,
    ),
    # reversing tracer advection with a prescribed analytic velocity
    "single_vortex": dict(
        nx=8, ny=8, dt=0.05, t_end=2.0, t_period=2.0,
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
        lambda_lin=1e-3, lambda_ent=1e-3, entropy="log", entropy_eps=1e-4,
        d_m=1.8e-8, alpha_l=1.8e-8, alpha_t=1.8e-9,
        perturb=1e-3, inflow_speed=0.05,
    ),
    # closed box with a point-like injection at the center; the source pumps
    # 100 box volumes per unit time, so one volume has arrived by t = 0.01
    "hele_shaw_radial": dict(
        nx=8, ny=8, r_min=1, r_max=3, cell_max=100_000,
        dt=1e-4, t_end=0.01, rho0=1000.0, c_f=1e-8,
        mu_s=0.001, ratio=1000.0,
        lambda_lin=1e-3, lambda_ent=1e-3, entropy="log", entropy_eps=1e-4,
        d_m=1.8e-8, alpha_l=1.8e-5, alpha_t=1.8e-6,
        source_rate=100.0,
    ),
}

SCENARIOS = tuple(_PRESETS)


@dataclass(frozen=True)
class ScenarioConfig:
    """Fully resolved run description (preset + file + CLI overrides)."""

    scenario: str
    domain: tuple
    nx: int
    ny: int
    dt: float
    t_end: float
    bdf_order: int
    flow: FlowParams
    transport: TransportParams
    entropy: EntropyConfig
    marking: MarkingPolicy
    viscosity: ViscosityModel
    dispersion: DispersionParams
    t_period: float
    n_centers: int
    perturb: float
    source_rate: float
    inflow_speed: float
    flow_tol: float
    transport_tol: float
    seed: int
    stride: int

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ValueError(f"unknown scenario {self.scenario!r}")
        if not (self.dt > 0.0 and self.t_end > 0.0):
            raise ValueError("dt and t_end must be positive")
        if not math.isfinite(self.t_end / self.dt):
            raise ValueError("t_end / dt overflows")
        x0, y0, x1, y1 = self.domain
        if not (x1 > x0 and y1 > y0):
            raise ValueError(f"empty domain {self.domain}")
        if self.nx < 1 or self.ny < 1:
            raise ValueError("nx, ny must be at least 1")
        if self.stride < 1:
            raise ValueError("stride must be at least 1")
        if self.seed < 0 or self.n_centers < 0:
            raise ValueError("seed and n_centers must be non-negative")
        if not (self.flow_tol > 0.0 and self.transport_tol > 0.0):
            raise ValueError("flow_tol and transport_tol must be positive")
        if self.n_steps < 1:
            raise ValueError("t_end shorter than one step")
        if abs(self.t_end / self.dt - self.n_steps) > 1e-9 * self.n_steps:
            raise ValueError(f"t_end {self.t_end!r} is not a whole number of "
                             f"steps dt = {self.dt!r}")
        if self.bdf_order not in (1, 2):
            raise ValueError(f"bdf_order must be 1 or 2, got {self.bdf_order}")
        if self.scenario.startswith("hele_shaw") and self.viscosity.mobility_ratio < 1.0:
            raise ValueError("displacement scenarios need ratio >= 1")
        if (self.scenario == "hele_shaw_radial" and self.flow.c_F == 0.0
                and self.source_rate != 0.0):
            raise ValueError("hele_shaw_radial is a sealed box: a nonzero "
                             "source_rate needs c_f > 0")

    @property
    def n_steps(self) -> int:
        return int(round(self.t_end / self.dt))


def _coerce(key: str, value):
    if key not in _KEYS:
        raise ConfigError(f"unknown config key {key!r}")
    conv = _KEYS[key][0]
    try:
        out = conv(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad value for {key}: {value!r} ({exc})") from exc
    if conv is float and not math.isfinite(out):
        raise ConfigError(f"bad value for {key}: {value!r} (not finite)")
    return out


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
        out[key] = _coerce(key, val)
    return out


def make_config(scenario: str, **overrides) -> ScenarioConfig:
    """Preset + keyword overrides -> ScenarioConfig (the library entry)."""
    if scenario not in _PRESETS:
        raise ConfigError(
            f"unknown scenario {scenario!r}; choose one of {', '.join(SCENARIOS)}"
        )
    f = {key: default for key, (_, default, _) in _KEYS.items()}
    f.update(_PRESETS[scenario])
    f.update({key: _coerce(key, val) for key, val in overrides.items()})
    try:
        return ScenarioConfig(
            scenario=scenario,
            domain=(f["x0"], f["y0"], f["x1"], f["y1"]),
            nx=f["nx"], ny=f["ny"], dt=f["dt"], t_end=f["t_end"],
            bdf_order=f["bdf_order"],
            flow=FlowParams(phi=f["phi"], rho0=f["rho0"], c_F=f["c_f"],
                            theta=f["theta"], alpha=f["alpha"]),
            transport=TransportParams(alpha_c=f["alpha_c"], alpha_s=f["alpha_s"]),
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
            viscosity=ViscosityModel(mu_s=f["mu_s"],
                                     mu_0=f["ratio"] * f["mu_s"]),
            dispersion=DispersionParams(d_m=f["d_m"], alpha_l=f["alpha_l"],
                                        alpha_t=f["alpha_t"]),
            t_period=f["t_period"], n_centers=f["n_centers"],
            perturb=f["perturb"], source_rate=f["source_rate"],
            inflow_speed=f["inflow_speed"],
            flow_tol=f["flow_tol"], transport_tol=f["transport_tol"],
            seed=f["seed"], stride=f["stride"],
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


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

        if s == "hele_shaw_radial":
            # a sealed box
            self.flow_bc = FlowBC(dirichlet={}, neumann=dict.fromkeys(SIDES, 0.0))
        else:
            # a channel driven from the left by a unit drop; hele_shaw_rect
            # sizes it so the undisturbed resident fluid moves at the
            # configured speed: (K/mu_0) * (p_in - p_out) / L = speed
            x0, _, x1, _ = cfg.domain
            p_in = (cfg.inflow_speed * cfg.viscosity.mu_0 * (x1 - x0)
                    if s == "hele_shaw_rect" else 1.0)
            self.flow_bc = FlowBC(dirichlet={"left": p_in, "right": 0.0},
                                  neumann={"top": 0.0, "bottom": 0.0})
        displaces = s in ("perm_block", "random_perm_2d", "hele_shaw_rect")
        self.transport_bc = TransportBC(c_in={"left": 1.0} if displaces else 0.0)
        if s == "random_perm_2d":
            self.centers = draw_centers(cfg.n_centers, cfg.domain, rng)

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
        """Mass source per unit volume, one value per cell, or 0."""
        if not self.has_source:
            return 0.0
        mesh = ctx.mesh
        cid = mesh.locate(*_radial_source_point(self.cfg.domain))
        idx = mesh.index_of_id(cid)
        q = np.zeros(mesh.n_active)
        q[idx] = self.cfg.source_rate * self.cfg.flow.rho0 / ctx.cell_area[idx]
        return q

    def initial_concentration(self, ctx: AssemblyContext,
                              rng: np.random.Generator) -> np.ndarray:
        C = interpolate(self.c0, ctx)
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
    two outer quadrature columns extrapolate to the edges exactly.  Returns
    (xL, xR, CL, CR), each of shape (n_cells, 3).
    """
    v = ctx.cell_values(C).reshape(-1, 3, 3)     # [cell, x-column, y-row]
    xa, xb = ctx.cell_qx[:, :1], ctx.cell_qx[:, 6:]    # the outer x abscissae
    slope = (v[:, 2, :] - v[:, 0, :]) / (xb - xa)
    xL = ctx.mesh.cell_x0[:, None]
    xR = xL + ctx.cell_h[:, :1]
    CL = v[:, 0, :] + slope * (xL - xa)
    CR = v[:, 0, :] + slope * (xR - xa)
    return np.broadcast_to(xL, CL.shape), np.broadcast_to(xR, CR.shape), CL, CR


def _crossings(xL, xR, CL, CR, threshold, rightmost: bool):
    """Per linear row segment, the rightmost x with C >= threshold, or else
    the leftmost x where C falls below it (nan: none)."""
    cross = (CL >= threshold) & (CR < threshold)
    denom = np.where(CR != CL, CR - CL, 1.0)
    out = np.where(cross, xL + (threshold - CL) / denom * (xR - xL), np.nan)
    if rightmost:
        return np.where(CR >= threshold, xR, out)
    return np.where(CL < threshold, xL, out)


_TIP_LEVEL, _LEAD_LEVEL, _TRAIL_LEVEL = 0.5, 0.1, 0.9   # finger_diagnostics


def finger_diagnostics(ctx: AssemblyContext, C) -> FingerDiagnostics:
    """Front-tracking summary for displacement along +x.

    x_tip: rightmost point with C >= 0.5 (0 when the front is absent);
    x_lead: rightmost with C >= 0.1; x_trail: rightmost x such that C >= 0.9
    everywhere to its left; mixing_length = x_lead - x_trail.
    """
    edges = _edge_values(ctx, C)
    tip = _crossings(*edges, _TIP_LEVEL, rightmost=True)
    lead = _crossings(*edges, _LEAD_LEVEL, rightmost=True)
    trail = _crossings(*edges, _TRAIL_LEVEL, rightmost=False)
    tip = 0.0 if np.isnan(tip).all() else float(np.nanmax(tip))
    lead = 0.0 if np.isnan(lead).all() else float(np.nanmax(lead))
    trail = float(ctx.mesh.domain[2]) if np.isnan(trail).all() else float(np.nanmin(trail))
    return FingerDiagnostics(x_tip=tip, x_lead=lead, x_trail=trail,
                             mixing_length=max(0.0, lead - trail))


def tip_profile(ctx: AssemblyContext, C, bins: int,
                threshold: float = 0.5) -> np.ndarray:
    """Per-transverse-bin front position (0 where no point reaches it)."""
    y0, y1 = ctx.mesh.domain[1], ctx.mesh.domain[3]
    prof = np.zeros(bins)
    f = _crossings(*_edge_values(ctx, C), threshold, rightmost=True)
    rowmax = np.max(np.where(np.isnan(f), -np.inf, f), axis=1)
    b = np.clip(((ctx.cell_center[:, 1] - y0) / (y1 - y0) * bins).astype(int), 0, bins - 1)
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
    # Python scalars from tolist() format about twice as fast as numpy's
    out.extend(f"{x:.10g} {y:.10g} 0" for x, y in dofmap.vertex_pos.tolist())
    out.append(f"CELLS {nc} {5 * nc}")
    out.extend("4 " + " ".join(map(str, quad)) for quad in corners.tolist())
    out.append(f"CELL_TYPES {nc}")
    out.extend(["9"] * nc)
    if cell_data:
        out.append(f"CELL_DATA {nc}")
        for name, arr in cell_data.items():
            out.append(f"SCALARS {name} double 1")
            out.append("LOOKUP_TABLE default")
            out.extend(f"{v:.10g}" for v in np.asarray(arr, dtype=float).tolist())
    if point_data:
        out.append(f"POINT_DATA {n_pts}")
        for name, arr in point_data.items():
            out.append(f"SCALARS {name} double 1")
            out.append("LOOKUP_TABLE default")
            out.extend(f"{v:.10g}" for v in np.asarray(arr, dtype=float).tolist())
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
    transport solve on the pre-adaptation mesh; its ``q_qp`` is the step's
    source, one value per cell or the scalar 0.
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
            m = 1 if C_nm1 is None else config.bdf_order
            C_star = extrapolate_star(config.entropy, C_n, C_nm1)

            # mobility from the sensed concentration, then pressure
            K_cells = prob.rock_permeability(ctx)
            q_cells = prob.source_q(ctx)
            if prob.uses_pressure:
                c_guess = np.clip(dm.cell_means(C_star), 0.0, 1.0)
                kappa = mobility(K_cells, config.viscosity, c_guess)
                A, b = assemble_pressure(ctx, config.flow, prob.flow_bc, kappa,
                                         P_n=P_n, P_nm1=P_nm1, q_cells=q_cells,
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
            ind = indicator(config.entropy, ctx, C_star, C_n, C_nm1, flux,
                            q_cells, config.dt, m)
            visc = viscosity(config.entropy, ctx, ind, flux)

            # dispersion lags one step; the first step uses its own flux
            D_cells = dispersion_tensor(
                config.dispersion, flux.center_velocity if step == 1 else u_center)

            A_t, b_t = assemble_transport(ctx, config.flow, config.transport,
                                          prob.transport_bc, flux, D_cells,
                                          visc.mu_stab, C_n, C_nm1,
                                          q_cells=q_cells, dt=config.dt, m=m)
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
                "mass": config.flow.phi * config.flow.rho0
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
                write_vtk(mesh, dm,
                          cell_data={"c_const": C_np1[dm.cell_dofs[:, 4]],
                                     "mu_stab": visc.mu_stab,
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
                    "q_qp": q_cells, "indicator": ind, "viscosity": visc,
                    "gmres_flow": res_flow, "gmres_transport": res_tr,
                    "record": rec,
                })

            # adapt and carry the history to the new mesh
            eg = np.stack([P_np1, P_n, C_np1, C_n])
            marks = mark(ind, mesh, config.marking)
            new_mesh, dm, eg, u_center = adapt_and_transfer(
                mesh, dm, eg, flux.center_velocity, marks)
            if new_mesh is not mesh:
                # free the old generation before building the new one
                factors = ctx = None
                mesh = new_mesh
                ctx = AssemblyContext(mesh, dm)
                factors = generation_factors("flow", "transport")
            P_n, P_nm1, C_n, C_nm1 = eg
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
    for key, (_, _, hlp) in _KEYS.items():
        if key != "scenario":
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
        for key in _KEYS:
            if key == "scenario":
                continue
            val = getattr(args, key, None)
            if val is not None:
                overrides[key] = val
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
