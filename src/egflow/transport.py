"""Upwinded EG transport of the injected-fluid concentration.

The advective terms are driven by the reconstructed face flux and the
quadrature-point cell velocities of the current pressure step, so the
discrete constant state is preserved exactly (up to the compressible mass
term): the volume advection, interior upwind term and dynamically classified
inflow/outflow boundary terms telescope against the pressure equation tested
with the same function.  Dispersion lags one step, D(U^n).  The entropy
dissipation form enters the matrix (implicit treatment), with the plain
average of the cellwise-constant stabilization viscosity on interior faces.

All face integrals here use the unweighted average; only the pressure system
uses permeability weighting.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .egspace import AssemblyContext, cell_field_values, face_field_values
from .flow import FaceFlux, bdf_coefficients

__all__ = [
    "SourceField",
    "TransportBC",
    "TransportParams",
    "assemble_transport",
    "source_split",
    "upwind_value",
]


@dataclass(frozen=True)
class TransportParams:
    """Medium constants and penalties for the concentration solve."""

    phi: float = 1.0
    rho0: float = 1.0
    alpha_c: float = 2.0      # jump penalty
    alpha_s: float = 1.0      # stabilization-viscosity jump penalty
    bdf_order: int = 2

    def __post_init__(self):
        if not (0.0 < self.phi <= 1.0):
            raise ValueError(f"porosity must lie in (0, 1], got {self.phi}")
        if self.alpha_c <= 0.0:
            raise ValueError(f"penalty must be positive, got {self.alpha_c}")
        if self.alpha_s < 0.0:
            raise ValueError(f"stab penalty must be nonnegative, got {self.alpha_s}")
        if self.bdf_order not in (1, 2):
            raise ValueError(f"time stepping order must be 1 or 2, got {self.bdf_order}")
        if self.rho0 <= 0.0:
            raise ValueError(f"reference density must be positive, got {self.rho0}")


@dataclass(frozen=True)
class TransportBC:
    """Inflow concentration; faces classify as inflow/outflow by flux sign.

    c_in is a scalar, a callable f(x, y), or a per-side dict of either.
    A boundary face is inflow when its mean normal flux is negative.
    """

    c_in: object = 0.0

    def side_value(self, side: str):
        if isinstance(self.c_in, dict):
            return self.c_in.get(side, 0.0)
        return self.c_in


@dataclass(frozen=True)
class SourceField:
    """Volumetric source q (scalar, per-cell array, or callable) with injected
    concentration c_q; the sink side q^- removes fluid at the resident
    concentration and is folded into the system matrix."""

    q: object = 0.0
    c_q: float = 0.0

    def __post_init__(self):
        if not (0.0 <= self.c_q <= 1.0):
            raise ValueError(f"injected concentration must lie in [0,1], got {self.c_q}")


def upwind_value(C_plus, C_minus, U_dot_n_plus):
    """Upwind trace: the plus-side value where U.n+ < 0, else the minus side."""
    return np.where(np.asarray(U_dot_n_plus, dtype=float) < 0.0, C_plus, C_minus)


def source_split(q):
    """(q^+, q^-) = (max(0, q), min(0, q)); the parts sum back to q."""
    q = np.asarray(q, dtype=float)
    return np.maximum(q, 0.0), np.minimum(q, 0.0)


def assemble_transport(ctx: AssemblyContext, params: TransportParams,
                       bc: TransportBC, flux: FaceFlux, D_cells, mu_cells,
                       C_n, C_nm1=None, sources: SourceField = SourceField(),
                       dt: float = 1.0, m: int | None = None):
    """Assemble the reduced, pinned concentration system (see
    AssemblyContext.assemble).

    D_cells: (n_cells, 2, 2) cellwise-constant dispersion (None for pure
    advection).  mu_cells: (n_cells,) cellwise stabilization viscosity (None
    to disable).  flux supplies both the face normal fluxes and the volume
    quadrature velocities.  Returns (A, b).
    """
    mesh = ctx.mesh
    m_eff = params.bdf_order if m is None else m
    a0, a1, a2 = bdf_coefficients(m_eff, dt)
    rho0, phi = params.rho0, params.phi
    mass_coef = phi * rho0

    if m_eff == 2 and C_nm1 is None:
        raise ValueError("second-order time stepping needs two history levels")
    nc = mesh.n_active
    if flux.face_un.shape != (mesh.n_faces, 3):
        raise ValueError(
            f"flux has {flux.face_un.shape[0]} faces, mesh has {mesh.n_faces}"
        )
    if D_cells is not None:
        D_cells = np.asarray(D_cells, dtype=float)
        if D_cells.shape != (nc, 2, 2):
            raise ValueError(f"dispersion must be ({nc}, 2, 2), got {D_cells.shape}")
    if mu_cells is not None:
        mu_cells = np.asarray(mu_cells, dtype=float)
        if mu_cells.shape != (nc,):
            raise ValueError(f"stab viscosity must be ({nc},), got {mu_cells.shape}")

    q_qp = cell_field_values(ctx, sources.q)
    qp_pos, qp_neg = source_split(q_qp)
    vals, views = ctx.block_buffer()
    blocks, rhs = iter(views), []

    for g in ctx.cell_groups:
        nm = g.idx.size
        coef = np.zeros((nm, 33))
        coef[:, 0] = mass_coef * a0
        if mu_cells is not None:
            coef[:, 1] = mu_cells[g.idx]
        # volume advection  -(rho0 U C, grad v)
        coef[:, 2:20] = -rho0 * flux.cell_velocity[g.idx].reshape(nm, 18)
        if D_cells is not None:
            coef[:, 20:24] = mass_coef * D_cells[g.idx].reshape(nm, 4)
        # sink at resident concentration, folded into the matrix
        coef[:, 24:] = -qp_neg[g.idx]
        np.matmul(coef, g.table, out=next(blocks))

        hist = -a1 * C_n[g.dofs]
        if m_eff == 2:
            hist -= a2 * C_nm1[g.dofs]
        rhs.append(mass_coef * (hist @ g.table[0].reshape(5, 5))
                   + (sources.c_q * qp_pos[g.idx]) @ g.wN)

    for g in ctx.interior_groups:
        un = flux.face_un[g.idx]                                # (m, 3)
        coef = np.zeros((g.idx.size, 15))
        coef[:, 0] = (params.alpha_c / g.h_e) * rho0
        if mu_cells is not None:
            mo, mn = mu_cells[g.own], mu_cells[g.nb]
            coef[:, 0] += (params.alpha_s / g.h_e) * 0.5 * (mo + mn)
            coef[:, 1] = -0.5 * mo
            coef[:, 2] = -0.5 * mn
        # upwind: U.n splits onto the owner (U.n >= 0) or neighbor trace rows
        coef[:, 5:8] = rho0 * upwind_value(0.0, un, un)
        coef[:, 8:11] = rho0 * upwind_value(un, 0.0, un)
        if D_cells is not None:
            coef[:, 11:13] = (-0.5 * mass_coef) * (g.normal @ D_cells[g.own])
            coef[:, 13:15] = (-0.5 * mass_coef) * (g.normal @ D_cells[g.nb])
        np.matmul(coef, g.table, out=next(blocks))

    mean_un = flux.mean_un
    for g in ctx.boundary_groups:
        un = flux.face_un[g.idx]
        out = (mean_un[g.idx] >= 0.0)[:, None]
        # outflow faces take the resident trace; inflow faces add zeros here
        np.matmul(rho0 * np.where(out, un, 0.0), g.table[3:], out=next(blocks))
        if out.all():
            rhs.append(np.zeros((g.idx.size, 5)))
        else:
            cin = face_field_values(g, bc.side_value(g.boundary))
            rhs.append(-(rho0 * np.where(out, 0.0, un * cin)) @ g.wN)

    return ctx.assemble(vals, rhs)
