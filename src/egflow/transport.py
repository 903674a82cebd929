"""Upwinded EG transport of the injected-fluid concentration.

The advective terms are driven by the reconstructed face flux and the
quadrature-point cell velocities of the current pressure step, so the
discrete constant state is preserved exactly (up to the compressible mass
term): the volume advection, interior upwind term and dynamically classified
inflow/outflow boundary terms telescope against the pressure equation tested
with the same function.  Dispersion lags one step, D(U^n).  The entropy
dissipation form enters the matrix (implicit treatment), with the plain
average of the cellwise-constant stabilization viscosity on interior faces;
that viscosity is a diffusivity, so it carries rho0 like every other term.
Both coefficients always enter: a zero tensor is pure advection and a zero
viscosity is the unstabilized system, so there is one assembly path.  The
BDF order m is the caller's, the same as the pressure step's.

All face integrals here use the unweighted average; only the pressure system
uses permeability weighting.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .egspace import CELL_TABLE, CELL_WN, AssemblyContext
from .flow import FaceFlux, FlowParams, _check_side_data, bdf_coefficients
from .mesh import SIDES

__all__ = [
    "TransportBC",
    "TransportParams",
    "assemble_transport",
    "source_split",
    "upwind_value",
]


@dataclass(frozen=True)
class TransportParams:
    """Penalties of the concentration solve; the medium is the FlowParams'."""

    alpha_c: float = 2.0      # jump penalty
    alpha_s: float = 1.0      # stabilization-viscosity jump penalty

    def __post_init__(self):
        if self.alpha_c <= 0.0:
            raise ValueError(f"penalty must be positive, got {self.alpha_c}")
        if self.alpha_s < 0.0:
            raise ValueError(f"stab penalty must be nonnegative, got {self.alpha_s}")


@dataclass(frozen=True)
class TransportBC:
    """Inflow concentration; faces classify as inflow/outflow by flux sign.

    c_in is one float for every side, or a dict of floats keyed by the
    mesh's SIDES (a side left out takes 0); each is constant along its side,
    and an unknown side name is an error.  A boundary face is inflow when
    its mean normal flux is negative.
    """

    c_in: object = 0.0

    def __post_init__(self):
        _check_side_data("c_in", self.c_in if isinstance(self.c_in, dict)
                         else dict.fromkeys(SIDES, self.c_in))

    def side_value(self, side: str) -> float:
        if isinstance(self.c_in, dict):
            return self.c_in.get(side, 0.0)
        return self.c_in


def upwind_value(C_plus, C_minus, U_dot_n_plus):
    """Upwind trace: the plus-side value where U.n+ < 0, else the minus side."""
    return np.where(np.asarray(U_dot_n_plus, dtype=float) < 0.0, C_plus, C_minus)


def source_split(q):
    """(q^+, q^-) = (max(0, q), min(0, q)); the parts sum back to q."""
    q = np.asarray(q, dtype=float)
    return np.maximum(q, 0.0), np.minimum(q, 0.0)


def assemble_transport(ctx: AssemblyContext, medium: FlowParams,
                       params: TransportParams, bc: TransportBC, flux: FaceFlux,
                       D_cells, mu_cells, C_n, C_nm1=None, q_cells=0.0,
                       dt: float = 1.0, *, m: int):
    """Assemble the reduced, pinned concentration system (see
    AssemblyContext.assemble).

    medium: the pressure solve's parameters, read for phi and rho0.
    D_cells: (n_cells, 2, 2) cellwise-constant dispersion, zero for pure
    advection.  mu_cells: (n_cells,) cellwise stabilization viscosity, zero
    without stabilization; a diffusivity, so it enters as rho0 mu in the
    stiffness and the alpha_s face terms.  flux supplies both the face
    normal fluxes and the volume quadrature velocities.  q_cells is the
    pressure solve's mass source, a scalar or (n_cells,): q^+ injects the
    injected fluid, C = 1, weighed by CELL_WN, and q^- removes fluid at the
    resident concentration, a sink in the mass coefficient.  The side's
    inflow float weighs the per-point flux by column 4 of boundary rows 3:6.
    m is the BDF order.  Returns (A, b).
    """
    mesh = ctx.mesh
    a0, a1, a2 = bdf_coefficients(m, dt)
    rho0 = medium.rho0
    mass_coef = medium.phi * rho0

    if m == 2 and C_nm1 is None:
        raise ValueError("second-order time stepping needs two history levels")
    nc = mesh.n_active
    if flux.face_un.shape != (mesh.n_faces, 3):
        raise ValueError(
            f"flux has {flux.face_un.shape[0]} faces, mesh has {mesh.n_faces}"
        )
    D_cells = np.asarray(D_cells, dtype=float)
    if D_cells.shape != (nc, 2, 2):
        raise ValueError(f"dispersion must be ({nc}, 2, 2), got {D_cells.shape}")
    mu_cells = np.asarray(mu_cells, dtype=float)
    if mu_cells.shape != (nc,):
        raise ValueError(f"stab viscosity must be ({nc},), got {mu_cells.shape}")
    mu_cells = rho0 * mu_cells

    q_pos, q_neg = source_split(q_cells)
    vals, views = ctx.block_buffer()
    blocks = iter(views)
    cd = ctx.dofmap.cell_dofs
    area = ctx.cell_area

    coef = np.empty((nc, 23))
    # the sink at the resident concentration is a mass term
    coef[:, 0] = (mass_coef * a0 - q_neg) * area
    # dispersion per tensor entry; the viscosity's stiffness on the diagonal
    ds = ctx.diff_scale
    coef[:, 1:5] = mass_coef * D_cells.reshape(nc, 4) * ds
    coef[:, 1] += mu_cells * ds[0]
    coef[:, 4] += mu_cells * ds[3]
    # volume advection  -(rho0 U C, grad v), component d scaled by area / h_d
    coef[:, 5:] = (-rho0 * flux.cell_velocity * ctx.cell_h[:, None, ::-1]).reshape(nc, 18)
    np.matmul(coef, CELL_TABLE, out=next(blocks))
    hist = -a1 * C_n[cd]
    if m == 2:
        hist -= a2 * C_nm1[cd]
    rhs = [(mass_coef * (hist @ CELL_TABLE[0].reshape(5, 5))
            + np.multiply.outer(q_pos, CELL_WN)) * area[:, None]]

    ni = ctx.n_interior
    own, nb = ctx.own[:ni], ctx.nb
    un = flux.face_un[:ni]
    h_e = ctx.h_e[:ni, None]
    mo, mn = mu_cells[own], mu_cells[nb]
    # n . D of each side: two scaled rows, not a stacked 1x2 @ 2x2 matmul
    n = ctx.normal[:ni]
    nD_o = n[:, :1] * D_cells[own, 0] + n[:, 1:] * D_cells[own, 1]
    nD_n = n[:, :1] * D_cells[nb, 0] + n[:, 1:] * D_cells[nb, 1]
    coef = np.zeros((ni, 15))
    # the penalties' 1 / h_e cancels the jump row's h_e
    coef[:, 0] = params.alpha_c * rho0 + params.alpha_s * 0.5 * (mo + mn)
    coef[:, 1] = -0.5 * mo * ctx.h_ratio[:ni]
    coef[:, 2] = -0.5 * mn * ctx.h_ratio[:ni]
    # upwind: U.n splits onto the owner (U.n >= 0) or neighbor trace rows
    coef[:, 5:8] = rho0 * upwind_value(0.0, un, un) * h_e
    coef[:, 8:11] = rho0 * upwind_value(un, 0.0, un) * h_e
    coef[:, 11:13] = (-0.5 * mass_coef) * nD_o * ctx.h_lift[:ni]
    coef[:, 13:15] = (-0.5 * mass_coef) * nD_n * ctx.h_lift[:ni]
    for g in ctx.interior_groups:
        np.matmul(coef[g.sl], g.table, out=next(blocks))

    mean_un = flux.mean_un
    for g in ctx.boundary_groups:
        un = flux.face_un[g.sl]
        h_e = ctx.h_e[g.sl, None]
        out = (mean_un[g.sl] >= 0.0)[:, None]
        # outflow faces take the resident trace; inflow faces add zeros here
        np.matmul(rho0 * np.where(out, un, 0.0) * h_e, g.table[3:], out=next(blocks))
        if out.all():
            rhs.append(np.zeros((un.shape[0], 5)))
        else:
            cin = bc.side_value(g.boundary)
            rhs.append(-((rho0 * np.where(out, 0.0, un * cin)) @ g.table[3:, 4::5]) * h_e)

    return ctx.assemble(vals, rhs)
