"""Slightly compressible Darcy pressure solve and conservative flux recovery.

The pressure system uses the interior-penalty enriched Galerkin form with a
permeability-weighted average across faces: the gradient average on a face
takes weight beta = kappa_nb / (kappa_own + kappa_nb) on the owner side, and
the penalty carries the harmonic mean of the two directional permeabilities.
The nonsymmetric variant (theta = 0) is the default; it makes the constant
test functions reproduce an exact per-cell mass balance, which is what the
flux reconstruction turns into a single-valued normal flux per face.

Face normal fluxes are stored in the owner orientation at the three face
quadrature points.  The reconstruction applies the same weighted average as
the bilinear form so that the per-cell conservation residual vanishes to
solver tolerance, heterogeneous permeability included.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .egspace import (
    AssemblyContext,
    cell_field_values,
    face_field_values,
    fix_gauge,
    gauss_face,
    q1_grads,
)
from .linalg import GmresResult, LaggedLU, SolverError

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

_SIDES = ("left", "right", "bottom", "top")


@dataclass(frozen=True)
class FlowParams:
    """Fluid/rock constants and discretization knobs for the pressure solve."""

    phi: float = 1.0          # porosity
    rho0: float = 1.0         # reference density
    c_F: float = 0.0          # fluid compressibility
    theta: float = 0.0        # 0 nonsymmetric, -1 symmetric, +1 antisymmetric
    alpha: float = 8.0        # face penalty
    bdf_order: int = 2

    def __post_init__(self):
        if not (0.0 < self.phi <= 1.0):
            raise ValueError(f"porosity must lie in (0, 1], got {self.phi}")
        if self.c_F < 0.0:
            raise ValueError(f"compressibility must be nonnegative, got {self.c_F}")
        if self.alpha <= 0.0:
            raise ValueError(f"penalty must be positive, got {self.alpha}")
        if self.theta not in (-1.0, 0.0, 1.0):
            raise ValueError(f"theta must be -1, 0, or 1, got {self.theta}")
        if self.bdf_order not in (1, 2):
            raise ValueError(f"time stepping order must be 1 or 2, got {self.bdf_order}")
        if self.rho0 <= 0.0:
            raise ValueError(f"reference density must be positive, got {self.rho0}")


@dataclass(frozen=True)
class FlowBC:
    """Pressure / mass-flux data per boundary side.

    `dirichlet` maps side names to pressure data, `neumann` maps side names
    to outward mass flux rho0 * u . n; values are scalars or callables
    f(x, y).  Every side must appear in exactly one of the two maps.
    """

    dirichlet: dict
    neumann: dict

    def __post_init__(self):
        seen = set(self.dirichlet) | set(self.neumann)
        double = set(self.dirichlet) & set(self.neumann)
        if double:
            raise ValueError(f"sides {sorted(double)} assigned two conditions")
        missing = set(_SIDES) - seen
        if missing:
            raise ValueError(f"boundary sides {sorted(missing)} have no condition")
        unknown = seen - set(_SIDES)
        if unknown:
            raise ValueError(f"unknown boundary sides {sorted(unknown)}")

    def is_dirichlet(self, side: str) -> bool:
        return side in self.dirichlet

    def value(self, side: str):
        return self.dirichlet[side] if side in self.dirichlet else self.neumann[side]


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
        return self.face_un @ gauss_face().weights


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


def weights(kappa_plus, kappa_minus, normal) -> tuple[np.ndarray, np.ndarray]:
    """Face weight beta_e and harmonic directional permeability kappa_e.

    kappa_plus/kappa_minus are the two sides' permeabilities (scalars or 2x2
    tensors, arrays allowed); the directional value is n^T kappa n.  Returns
    beta_e = k_minus / (k_plus + k_minus) and kappa_e = harmonic mean.
    """
    n = np.asarray(normal, dtype=float)

    def directional(k):
        k = np.asarray(k, dtype=float)
        if k.ndim >= 2 and k.shape[-2:] == (2, 2):
            return np.einsum("i,...ij,j->...", n, k, n)
        return k

    kp, km = directional(kappa_plus), directional(kappa_minus)
    if np.any(kp <= 0) or np.any(km <= 0):
        raise ValueError("directional permeabilities must be positive")
    beta = km / (kp + km)
    kappa_e = 2.0 * kp * km / (kp + km)
    return beta, kappa_e


def neutral_pressure_mode(ctx: AssemblyContext, params: FlowParams, dt: float,
                          m: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Constant-pressure mode and its image under the sealed-box operator.

    With mass-flux data on every side the stiffness, consistency, and penalty
    terms all annihilate a spatially constant pressure, so the operator maps
    the constant function onto the compressible mass term alone:
    rho0 phi c_F a0 times the integral of each basis function.  Returns
    (z, w) in the full dof layout with z the vertex-dof representation of the
    constant 1 and w its exact operator image; both feed solve_reduced's
    deflation hook so the Krylov solve never carries the box pressure level,
    which grows without bound under net injection and otherwise drowns the
    pressure gradients in roundoff.
    """
    m_eff = params.bdf_order if m is None else m
    a0, _, _ = bdf_coefficients(m_eff, dt)
    mass_coef = params.rho0 * params.phi * params.c_F
    if mass_coef <= 0.0:
        raise ValueError("constant-mode deflation needs a compressible mass term")
    dm = ctx.dofmap
    z = np.zeros(dm.n_dofs)
    z[:dm.n_cg] = 1.0
    w = (mass_coef * a0) * ctx.basis_integrals
    return z, w


def assemble_pressure(ctx: AssemblyContext, params: FlowParams, bc: FlowBC,
                      kappa_cells, P_n=None, P_nm1=None, q_field=0.0,
                      dt: float = 1.0, m: int | None = None):
    """Assemble the reduced, pinned pressure system (see AssemblyContext.assemble).

    kappa_cells: (n_cells,) mobility kappa = K/mu evaluated per cell.
    Returns (A, b) with A CSR over the reduced dofs but the pinned one.
    Cell constants are never constrained, so their test rows keep their
    exact per-cell balance.  Each local block is per-cell or per-face
    coefficients times the context's tables (layouts in egspace.CellGroup /
    FaceGroup); theta enters as the coefficient of the transposed
    consistency rows.
    """
    mesh = ctx.mesh
    m_eff = params.bdf_order if m is None else m
    a0, a1, a2 = bdf_coefficients(m_eff, dt)
    rho0, alpha, theta = params.rho0, params.alpha, params.theta
    kappa_cells = np.asarray(kappa_cells, dtype=float)
    if kappa_cells.shape != (mesh.n_active,):
        raise ValueError(
            f"kappa must be per-cell, expected ({mesh.n_active},), got {kappa_cells.shape}"
        )

    mass_coef = rho0 * params.phi * params.c_F
    if mass_coef != 0.0 and P_n is None:
        raise ValueError("compressible mass term needs the previous pressure state")

    q_qp = cell_field_values(ctx, q_field)
    vals, views = ctx.block_buffer()
    blocks, rhs = iter(views), []

    for g in ctx.cell_groups:
        coef = np.empty((g.idx.size, 2))
        coef[:, 0] = mass_coef * a0
        coef[:, 1] = rho0 * kappa_cells[g.idx]
        np.matmul(coef, g.table[:2], out=next(blocks))     # mass, stiffness
        r = q_qp[g.idx] @ g.wN
        if mass_coef != 0.0:
            hist = -a1 * P_n[g.dofs]
            if m_eff == 2:
                hist -= a2 * P_nm1[g.dofs]
            r += mass_coef * (hist @ g.table[0].reshape(5, 5))
        rhs.append(r)

    for g in ctx.interior_groups:
        ko, kn = kappa_cells[g.own], kappa_cells[g.nb]
        beta, kap_e = weights(ko, kn, g.normal)
        c_o, c_n = rho0 * beta * ko, rho0 * (1.0 - beta) * kn
        pen = (alpha / g.h_e) * rho0 * kap_e
        # -(jump, avg grad) + theta (avg grad, jump) + penalty (jump, jump)
        coef = np.column_stack([pen, -c_o, -c_n, theta * c_o, theta * c_n])
        np.matmul(coef, g.table[:5], out=next(blocks))

    for g in ctx.boundary_groups:
        if bc.is_dirichlet(g.boundary):
            gD = face_field_values(g, bc.dirichlet[g.boundary])
            ko = rho0 * kappa_cells[g.own]
            pen = (alpha / g.h_e) * ko
            np.matmul(np.column_stack([pen, -ko, theta * ko]), g.table[:3],
                      out=next(blocks))
            r = pen[:, None] * (gD @ g.wN)
            if theta != 0.0:
                r += theta * ko[:, None] * (gD @ g.wdN)
        else:
            # Neumann faces add no matrix entries; zeros keep the pattern fixed
            next(blocks)[...] = 0.0
            r = -(face_field_values(g, bc.neumann[g.boundary]) @ g.wN)
        rhs.append(r)

    return ctx.assemble(vals, rhs)


def solve_reduced(dm, A, b, x0_full=None, tol: float = 1e-10,
                  deflate=None, factor: LaggedLU | None = None
                  ) -> tuple[np.ndarray, GmresResult]:
    """Solve a reduced, pinned EG system and prolong it to the full layout.

    (A, b) come from an assembler on the dofmap's context (see
    AssemblyContext.assemble).  The solve is GMRES preconditioned by a
    sparse LU of A (see linalg.LaggedLU), started from x0_full and stopped
    on the true residual ||b - A x|| <= tol ||b||.  `factor` holds the LU of
    this system over the current mesh generation; without it every call
    factors afresh.  Raises SolverError on a stall or a singular factor.

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
    the fluctuation is handed to the Krylov solve.  Without it a sealed-box
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
    faces penalize the deviation from the boundary pressure.
    """
    mesh = ctx.mesh
    kappa_cells = np.asarray(kappa_cells, dtype=float)
    rho0, alpha = params.rho0, params.alpha

    grad = ctx.cell_gradients(P)                  # (nc, 9, 2)
    cell_velocity = -kappa_cells[:, None, None] * grad
    dNc = q1_grads(0.5, 0.5)                      # (5, 2) reference
    center_velocity = np.empty((mesh.n_active, 2))
    for g in ctx.cell_groups:
        dN = dNc.copy()
        dN[:, 0] /= g.hx
        dN[:, 1] /= g.hy
        gc = np.einsum("bd,mb->md", dN, P[g.dofs])
        center_velocity[g.idx] = -kappa_cells[g.idx][:, None] * gc

    face_un = np.empty((mesh.n_faces, 3))
    for g in ctx.face_groups:
        nrm = g.normal
        Po = np.einsum("qb,mb->mq", g.N_o, P[g.dofs[:, :5]])
        go = np.einsum("qbd,mb,d->mq", g.dN_o, P[g.dofs[:, :5]], nrm)
        if g.nb is not None:
            Pn = np.einsum("qb,mb->mq", g.N_n, P[g.dofs[:, 5:]])
            gn = np.einsum("qbd,mb,d->mq", g.dN_n, P[g.dofs[:, 5:]], nrm)
            ko, kn = kappa_cells[g.own], kappa_cells[g.nb]
            beta, kap_e = weights(ko, kn, nrm)
            un = -(beta[:, None] * ko[:, None] * go
                   + (1.0 - beta[:, None]) * kn[:, None] * gn) \
                + (alpha / g.h_e) * kap_e[:, None] * (Po - Pn)
        elif bc.is_dirichlet(g.boundary):
            gD = face_field_values(g, bc.dirichlet[g.boundary])
            ko = kappa_cells[g.own][:, None]
            un = -ko * go + (alpha / g.h_e) * ko * (Po - gD)
        else:
            gN = face_field_values(g, bc.neumann[g.boundary])
            un = gN / rho0
        face_un[g.idx] = un
    return FaceFlux(face_un=face_un, cell_velocity=cell_velocity,
                    center_velocity=center_velocity)


def flux_from_velocity(ctx: AssemblyContext, velocity) -> FaceFlux:
    """Build a FaceFlux by sampling an analytic velocity field (x, y) -> (..., 2)."""
    mesh = ctx.mesh
    cell_velocity = np.empty((mesh.n_active, 9, 2))
    for g in ctx.cell_groups:
        cell_velocity[g.idx] = np.asarray(velocity(g.qx, g.qy), dtype=float)
    center_velocity = np.asarray(
        velocity(ctx.cell_center[:, 0], ctx.cell_center[:, 1]), dtype=float
    )
    face_un = np.empty((mesh.n_faces, 3))
    for g in ctx.face_groups:
        u = np.asarray(velocity(g.qx, g.qy), dtype=float)
        face_un[g.idx] = u @ g.normal
    return FaceFlux(face_un=face_un, cell_velocity=cell_velocity,
                    center_velocity=center_velocity)


def local_conservation_residual(ctx: AssemblyContext, flux: FaceFlux, q_field,
                                params: FlowParams, dt: float,
                                P_np1=None, P_n=None, P_nm1=None,
                                m: int | None = None) -> np.ndarray:
    """Per-cell mass balance of the reconstructed flux.

    r_T = int_T rho0 phi c_F dP/dt + rho0 sum_faces sign int_e U.n - int_T q,
    which the flux construction drives to solver tolerance for theta = 0.
    """
    mesh = ctx.mesh
    res = np.zeros(mesh.n_active)

    mass_coef = params.rho0 * params.phi * params.c_F
    if mass_coef != 0.0:
        m_eff = params.bdf_order if m is None else m
        dPdt = bdf_apply(m_eff, dt, P_np1, P_n, P_nm1)
        res += mass_coef * ctx.dofmap.cell_means(dPdt) * mesh.cell_area

    q_qp = cell_field_values(ctx, q_field)
    for g in ctx.cell_groups:
        res[g.idx] -= q_qp[g.idx] @ g.wq

    for g in ctx.face_groups:
        ints = params.rho0 * (flux.face_un[g.idx] @ g.wq)
        np.add.at(res, g.own, ints)
        if g.nb is not None:
            np.add.at(res, g.nb, -ints)
    return res
