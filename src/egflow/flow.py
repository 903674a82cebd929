"""Slightly compressible Darcy pressure solve and conservative flux recovery.

The pressure system uses the interior-penalty enriched Galerkin form with a
permeability-weighted average across faces: the gradient average on a face
takes weight beta = kappa_nb / (kappa_own + kappa_nb) on the owner side, and
the penalty carries the harmonic mean of the two permeabilities.
The nonsymmetric variant (theta = 0) is the default.  For every theta the
constant test functions reproduce an exact per-cell mass balance: a cell
constant has zero gradient, so the theta consistency term drops out of its
row.  The flux reconstruction turns that balance into a single-valued normal
flux per face.

Face normal fluxes are stored in the owner orientation at the three face
quadrature points.  The reconstruction applies the same weighted average as
the bilinear form so that the per-cell conservation residual vanishes to
solver tolerance, heterogeneous permeability included.

The compressible mass term takes its BDF order m from the caller: the step
loop hands the transport the same m, since a constant state survives only
when both use one discrete time derivative (the compatibility condition of
Dawson, Sun & Wheeler, *CMAME* 193 (2004) 2565).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .egspace import (
    CELL_TABLE,
    CELL_WEIGHTS,
    CELL_WN,
    FACE_WEIGHTS,
    AssemblyContext,
    fix_gauge,
)
from .linalg import GmresResult, LaggedLU, SolverError
from .mesh import SIDES

__all__ = [
    "FaceFlux",
    "FlowBC",
    "FlowParams",
    "assemble_pressure",
    "bdf_apply",
    "bdf_coefficients",
    "flux_from_velocity",
    "local_conservation_residual",
    "neutral_pressure_mode",
    "reconstruct_flux",
    "solve_reduced",
    "weights",
]

@dataclass(frozen=True)
class FlowParams:
    """Fluid/rock constants and discretization knobs for the pressure solve."""

    phi: float = 1.0          # porosity
    rho0: float = 1.0         # reference density
    c_F: float = 0.0          # fluid compressibility
    theta: float = 0.0        # 0 nonsymmetric, -1 symmetric, +1 antisymmetric
    alpha: float = 8.0        # face penalty

    def __post_init__(self):
        if not (0.0 < self.phi <= 1.0):
            raise ValueError(f"porosity must lie in (0, 1], got {self.phi}")
        if self.c_F < 0.0:
            raise ValueError(f"compressibility must be nonnegative, got {self.c_F}")
        if self.alpha <= 0.0:
            raise ValueError(f"penalty must be positive, got {self.alpha}")
        if self.theta not in (-1.0, 0.0, 1.0):
            raise ValueError(f"theta must be -1, 0, or 1, got {self.theta}")
        if self.rho0 <= 0.0:
            raise ValueError(f"reference density must be positive, got {self.rho0}")


def _check_side_data(label: str, data: dict) -> None:
    """Raise ValueError unless every key of a per-side map is one of the
    mesh's SIDES and every value a finite real number."""
    unknown = [side for side in data if side not in SIDES]
    if unknown:
        raise ValueError(f"{label}: unknown boundary sides {unknown}, "
                         f"the sides are {SIDES}")
    for side, value in data.items():
        if not (isinstance(value, numbers.Real) and np.isfinite(value)):
            raise ValueError(f"{label} on side {side!r} must be a finite real "
                             f"number, got {value!r}")


@dataclass(frozen=True)
class FlowBC:
    """Pressure / mass-flux data per boundary side.

    `dirichlet` maps side names to a pressure, `neumann` maps side names to
    an outward mass flux rho0 * u . n; each value is one float, constant
    along its side.  The names are the mesh's SIDES, and every side must
    appear in exactly one of the two maps; a side is Dirichlet when it is a
    key of `dirichlet`.
    """

    dirichlet: dict
    neumann: dict

    def __post_init__(self):
        _check_side_data("dirichlet", self.dirichlet)
        _check_side_data("neumann", self.neumann)
        double = set(self.dirichlet) & set(self.neumann)
        if double:
            raise ValueError(f"sides {sorted(double)} assigned two conditions")
        missing = set(SIDES) - set(self.dirichlet) - set(self.neumann)
        if missing:
            raise ValueError(f"boundary sides {sorted(missing)} have no condition")


@dataclass
class FaceFlux:
    """Single-valued normal flux per face plus cellwise velocity samples.

    face_un: (n_faces, 3) normal flux (velocity units) at the face quadrature
    points, oriented along the owner normal.  cell_velocity: (n_cells, 9, 2)
    at the volume quadrature points.  center_velocity: (n_cells, 2).
    """

    face_un: np.ndarray
    cell_velocity: np.ndarray
    center_velocity: np.ndarray

    @property
    def mean_un(self) -> np.ndarray:
        return self.face_un @ FACE_WEIGHTS


def bdf_coefficients(m: int, dt: float) -> tuple[float, float, float]:
    """(a0, a1, a2) with  d/dt u ~ a0 u^{n+1} + a1 u^n + a2 u^{n-1}."""
    if dt <= 0:
        raise ValueError(f"time step must be positive, got {dt}")
    if m == 1:
        return 1.0 / dt, -1.0 / dt, 0.0
    if m == 2:
        return 1.5 / dt, -2.0 / dt, 0.5 / dt
    raise ValueError(f"time stepping order must be 1 or 2, got {m}")


def bdf_apply(m: int, dt: float, u_np1, u_n, u_nm1=None):
    """Backward difference of order m; m=2 needs the second history level."""
    a0, a1, a2 = bdf_coefficients(m, dt)
    out = a0 * np.asarray(u_np1, dtype=float) + a1 * np.asarray(u_n, dtype=float)
    if m == 2:
        if u_nm1 is None:
            raise ValueError("second-order difference needs two history levels")
        out = out + a2 * np.asarray(u_nm1, dtype=float)
    return out


def weights(kappa_plus, kappa_minus) -> tuple[np.ndarray, np.ndarray]:
    """Face weight beta_e and harmonic permeability kappa_e.

    kappa_plus/kappa_minus are the two sides' scalar permeabilities (arrays
    allowed).  Returns beta_e = k_minus / (k_plus + k_minus) and kappa_e =
    their harmonic mean.
    """
    kp = np.asarray(kappa_plus, dtype=float)
    km = np.asarray(kappa_minus, dtype=float)
    if np.any(kp <= 0) or np.any(km <= 0):
        raise ValueError("permeabilities must be positive")
    beta = km / (kp + km)
    kappa_e = 2.0 * kp * km / (kp + km)
    return beta, kappa_e


def _per_cell(mesh, kappa_cells) -> np.ndarray:
    kappa_cells = np.asarray(kappa_cells, dtype=float)
    if kappa_cells.shape != (mesh.n_active,):
        raise ValueError(
            f"kappa must be per-cell, expected ({mesh.n_active},), got {kappa_cells.shape}"
        )
    return kappa_cells


def neutral_pressure_mode(ctx: AssemblyContext, params: FlowParams, dt: float,
                          m: int) -> tuple[np.ndarray, np.ndarray]:
    """Constant-pressure mode and its image under the sealed-box operator.

    With mass-flux data on every side the stiffness, consistency, and penalty
    terms all annihilate a spatially constant pressure, so the operator maps
    the constant function onto the compressible mass term alone:
    rho0 phi c_F a0 times the integral of each basis function.  Returns
    (z, w) in the full dof layout with z the vertex-dof representation of the
    constant 1 and w its exact operator image; both feed solve_reduced's
    deflation hook so the linear solve never carries the box pressure level,
    which grows without bound under net injection and otherwise drowns the
    pressure gradients in roundoff.
    """
    a0, _, _ = bdf_coefficients(m, dt)
    mass_coef = params.rho0 * params.phi * params.c_F
    if mass_coef <= 0.0:
        raise ValueError("constant-mode deflation needs a compressible mass term")
    dm = ctx.dofmap
    z = np.zeros(dm.n_dofs)
    z[:dm.n_cg] = 1.0
    w = (mass_coef * a0) * ctx.basis_integrals
    return z, w


def assemble_pressure(ctx: AssemblyContext, params: FlowParams, bc: FlowBC,
                      kappa_cells, P_n=None, P_nm1=None, q_cells=0.0,
                      dt: float = 1.0, *, m: int):
    """Assemble the reduced, pinned pressure system (see AssemblyContext.assemble).

    kappa_cells: (n_cells,) mobility kappa = K/mu evaluated per cell.
    q_cells: the mass source per unit volume, a scalar or (n_cells,).
    Returns (A, b) with A CSR over the reduced dofs but the pinned one.
    Cell constants are never constrained, so their test rows keep their
    exact per-cell balance.  Each local block is per-cell or per-face
    coefficients, the entity's sizes folded in, times the context's unit
    tables (layouts and factors at egspace.CELL_TABLE and in FaceGroup); theta
    enters as the coefficient of the transposed consistency rows.  The
    source and the side data are constants, weighed by the tables' constant
    columns: CELL_WN, and column 4 of boundary rows 0 and 2.
    """
    mesh = ctx.mesh
    a0, a1, a2 = bdf_coefficients(m, dt)
    rho0, alpha, theta = params.rho0, params.alpha, params.theta
    kappa_cells = _per_cell(mesh, kappa_cells)
    ni = ctx.n_interior

    mass_coef = rho0 * params.phi * params.c_F
    if mass_coef != 0.0 and P_n is None:
        raise ValueError("compressible mass term needs the previous pressure state")

    vals, views = ctx.block_buffer()
    blocks = iter(views)
    cd = ctx.dofmap.cell_dofs

    # mass; stiffness as the two diagonal diffusion rows
    coef = np.zeros((mesh.n_active, 5))
    coef[:, 0] = (mass_coef * a0) * ctx.cell_area
    rk = rho0 * kappa_cells
    coef[:, 1] = rk * ctx.diff_scale[0]
    coef[:, 4] = rk * ctx.diff_scale[3]
    np.matmul(coef, CELL_TABLE[:5], out=next(blocks))
    r = np.multiply.outer(q_cells, CELL_WN)
    if mass_coef != 0.0:
        hist = -a1 * P_n[cd]
        if m == 2:
            hist -= a2 * P_nm1[cd]
        r = r + mass_coef * (hist @ CELL_TABLE[0].reshape(5, 5))
    rhs = [r * ctx.cell_area[:, None]]

    # -(jump, avg grad) + theta (avg grad, jump) + penalty (jump, jump): the
    # penalty's 1 / h_e cancels the jump row's h_e
    ko, kn = kappa_cells[ctx.own[:ni]], kappa_cells[ctx.nb]
    beta, kap_e = weights(ko, kn)
    ratio = ctx.h_ratio[:ni]
    c_o, c_n = rho0 * beta * ko * ratio, rho0 * (1.0 - beta) * kn * ratio
    coef = np.column_stack([(alpha * rho0) * kap_e, -c_o, -c_n, theta * c_o, theta * c_n])
    for g in ctx.interior_groups:
        np.matmul(coef[g.sl], g.table[:5], out=next(blocks))

    for g in ctx.boundary_groups:
        out = next(blocks)
        if g.boundary in bc.dirichlet:
            gD = bc.dirichlet[g.boundary]
            ko = rho0 * kappa_cells[ctx.own[g.sl]]
            kr = ko * ctx.h_ratio[g.sl]
            np.matmul(np.column_stack([alpha * ko, -kr, theta * kr]), g.table[:3], out=out)
            r = (alpha * ko)[:, None] * (gD * g.table[0, 4::5])
            if theta != 0.0:
                r += theta * kr[:, None] * (gD * g.table[2, 4::5])
        else:
            # Neumann faces add no matrix entries; zeros keep the pattern fixed
            out[...] = 0.0
            r = -(bc.neumann[g.boundary] * g.table[0, 4::5]) * ctx.h_e[g.sl, None]
        rhs.append(r)

    return ctx.assemble(vals, rhs)


def solve_reduced(dm, A, b, x0_full=None, tol: float = 1e-10,
                  deflate=None, factor: LaggedLU | None = None
                  ) -> tuple[np.ndarray, GmresResult]:
    """Solve a reduced, pinned EG system and prolong it to the full layout.

    (A, b) come from an assembler on the dofmap's context (see
    AssemblyContext.assemble).  The solve uses a sparse LU of A (see
    linalg.LaggedLU): on a fresh factor one LU solve corrects the start
    x0_full, and GMRES preconditioned by the LU runs only on a lagged factor
    or when that misses tol; either stops on the true residual
    ||b - A x|| <= tol ||b||.  `factor` holds the LU of this system over the
    current mesh generation; without it every call factors afresh.  Raises
    SolverError on a stall or a singular factor.

    Gauge pin: a global constant lives both in the vertex part and in the
    cell constants, so z = (+1 on the free vertex dofs, -1 on the cell
    constants) represents the zero function and is an exact null vector of
    every reduced operator, from either side (b . z = 0 as well).  A complete
    LU of that singular matrix fails, so the assembled system holds the last
    reduced dof, a cell constant, at 0: its row and column are left out, and
    the start is shifted along z to match.  The result is then normalized by
    fix_gauge.

    deflate, if given, is the (z, w) pair from neutral_pressure_mode; the
    constant-mode amplitude is then read off the mass-balance row and only
    the fluctuation is handed to the linear solve.  Without it a sealed-box
    solution sits many orders above the data scale and the true residual
    floors out at ||A|| ||x|| eps, above any practical tolerance.

    Returns the prolonged full-layout solution and the solver report.
    """
    x0 = None if x0_full is None else dm.restrict(x0_full)
    shift, z_red = 0.0, None
    if deflate is not None:
        z_full, w_full = deflate
        z_red = dm.restrict(z_full)
        w_red = dm.P.T @ w_full
        zw = float(z_red @ w_red)
        if zw <= 0.0:
            raise SolverError("constant-mode deflation needs a positive mass weight")
        # z is 0 on the cell constants, so the pinned row adds nothing to z . b
        shift = float(z_red[:-1] @ b) / zw
        b = b - shift * w_red[:-1]
        if x0 is not None:
            # start from the zero-mean part of the previous state
            x0 = x0 - (float(w_red @ x0) / zw) * z_red
    # gauge pin: the last reduced dof is held at 0, the start moved along z
    if x0 is not None:
        z_gauge = np.ones(dm.n_reduced)
        z_gauge[dm.n_free_cg:] = -1.0
        x0 = (x0 + x0[-1] * z_gauge)[:-1]
    factor = LaggedLU() if factor is None else factor
    result = factor.solve(A, b, x0=x0, tol=tol)
    x_red = np.append(result.x, 0.0)
    if z_red is not None:
        x_red += shift * z_red
    # the constant split is only determined up to a global shift; normalize
    return fix_gauge(dm, dm.prolong(x_red)), result


def reconstruct_flux(ctx: AssemblyContext, P: np.ndarray, kappa_cells, bc: FlowBC,
                     params: FlowParams) -> FaceFlux:
    """Recover the single-valued conservative normal flux from a pressure solve.

    Interior faces combine the permeability-weighted gradient average with
    the penalty times the pressure jump, exactly as the bilinear form sees
    them; Neumann faces carry the prescribed mass flux over rho0; Dirichlet
    faces penalize the deviation from the boundary pressure.  The centre
    velocity is the Gauss mean of the cell's quadrature-point velocities,
    exact because the gradient of a bilinear function is linear in each
    coordinate.
    """
    mesh = ctx.mesh
    kappa_cells = _per_cell(mesh, kappa_cells)
    rho0, alpha = params.rho0, params.alpha

    cell_velocity = -kappa_cells[:, None, None] * ctx.cell_gradients(P)
    center_velocity = CELL_WEIGHTS @ cell_velocity

    # the interior faces first, then one slice per side
    vals, ders = ctx.face_traces(P)
    ni = ctx.n_interior
    ko = kappa_cells[ctx.own][:, None]
    alpha_h = (alpha / ctx.h_e)[:, None]
    un = np.empty((mesh.n_faces, 3))
    kn = kappa_cells[ctx.nb][:, None]
    beta, kap_e = weights(ko[:ni], kn)
    un[:ni] = -(beta * ko[:ni] * ders[:ni, 0] + (1.0 - beta) * kn * ders[:ni, 1]) \
        + alpha_h[:ni] * kap_e * (vals[:ni, 0] - vals[:ni, 1])
    for g in ctx.boundary_groups:
        f = g.sl
        if g.boundary in bc.dirichlet:
            gD = bc.dirichlet[g.boundary]
            un[f] = -ko[f] * ders[f, 0] + alpha_h[f] * ko[f] * (vals[f, 0] - gD)
        else:
            un[f] = bc.neumann[g.boundary] / rho0
    return FaceFlux(face_un=un, cell_velocity=cell_velocity,
                    center_velocity=center_velocity)


def flux_from_velocity(ctx: AssemblyContext, velocity) -> FaceFlux:
    """Build a FaceFlux by sampling an analytic velocity field (x, y) -> (..., 2)."""
    mesh = ctx.mesh
    cell_velocity = np.empty((mesh.n_active, 9, 2))
    cell_velocity[...] = velocity(ctx.cell_qx, ctx.cell_qy)
    center_velocity = np.asarray(
        velocity(ctx.cell_center[:, 0], ctx.cell_center[:, 1]), dtype=float
    )
    u = np.empty(ctx.face_qx.shape + (2,))
    u[...] = velocity(ctx.face_qx, ctx.face_qy)
    face_un = np.einsum("fqd,fd->fq", u, ctx.normal)
    return FaceFlux(face_un=face_un, cell_velocity=cell_velocity,
                    center_velocity=center_velocity)


def local_conservation_residual(ctx: AssemblyContext, flux: FaceFlux, q_cells,
                                params: FlowParams, dt: float,
                                P_np1=None, P_n=None, P_nm1=None, *,
                                m: int) -> np.ndarray:
    """Per-cell mass balance of the reconstructed flux.

    r_T = int_T rho0 phi c_F dP/dt + rho0 sum_faces sign int_e U.n - int_T q,
    which the flux construction drives to solver tolerance for every theta
    (the theta term vanishes on a cell constant); q_cells is the pressure
    solve's source.
    """
    mesh = ctx.mesh
    res = np.zeros(mesh.n_active)

    mass_coef = params.rho0 * params.phi * params.c_F
    if mass_coef != 0.0:
        dPdt = bdf_apply(m, dt, P_np1, P_n, P_nm1)
        res += mass_coef * ctx.dofmap.cell_means(dPdt) * ctx.cell_area

    res -= q_cells * ctx.cell_area
    ints = params.rho0 * flux.mean_un * ctx.h_e
    np.add.at(res, ctx.own, ints)
    np.add.at(res, ctx.nb, -ints[:ctx.n_interior])
    return res
