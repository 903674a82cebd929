"""Entropy-residual shock indicator and the min(linear, entropy) viscosity.

The residual of a convex entropy of the transported concentration acts as a
smoothness sensor: it is tiny where the solution is smooth and concentrates
near fronts.  Cells get a piecewise-constant artificial viscosity
mu_stab = min(mu_lin, mu_ent), where the first-order part scales like h|U|
and the entropy part like h^2 times the normalized residual, so smooth
regions keep the high-order scheme and fronts receive first-order damping.

Two entropies are available: the power entropy E = c^2/2, which the
single_vortex preset uses, and the log entropy E = -log(|c(1-c)| + eps),
which the displacement presets use; eps stays a setting because it sets
the log entropy's slope, about 1/eps, near c = 0 and c = 1.  The sensed
state is extrapolated in time, C* = 2 C^n - C^{n-1} (C^n on the first
step).

The same per-cell indicator (residual combined with the face jump term)
drives mesh adaptation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .egspace import CELL_WEIGHTS, AssemblyContext
from .flow import FaceFlux, bdf_coefficients
from .transport import source_split

__all__ = [
    "EntropyConfig",
    "IndicatorField",
    "ViscosityField",
    "entropy_eval",
    "extrapolate_star",
    "face_residual",
    "indicator",
    "viscosity",
]

_KINDS = ("power", "log")


@dataclass(frozen=True)
class EntropyConfig:
    """Entropy choice plus the two viscosity constants.

    kind "power" uses E = c^2/2 (the single_vortex preset); "log" uses
    E = -log(|c(1-c)| + eps), suited to fields valued in [0, 1] (the
    displacement presets).  eps stays a setting: the log entropy's slope
    near c = 0 and c = 1 is about 1/eps, so eps sets the indicator on a
    plateau, and studies of the bounds sweep it.  The sensed state is
    always the extrapolated one, extrapolate_star.
    """

    kind: str = "power"
    eps: float = 1e-4
    lambda_lin: float = 0.5
    lambda_ent: float = 0.5

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown entropy kind {self.kind!r}, pick from {_KINDS}")
        if self.kind == "log" and self.eps <= 0:
            raise ValueError(f"log entropy guard must be positive, got {self.eps}")
        if self.lambda_lin < 0 or self.lambda_ent < 0:
            raise ValueError("viscosity constants must be nonnegative")


@dataclass(frozen=True)
class IndicatorField:
    """Per-cell shock indicator (nonnegative) stamped with the mesh generation,
    with what the entropy viscosity divides by: norm = ||E - mean E||_inf of
    the sensed entropy E(C*) at the volume quadrature points, and scale =
    max(1, ||E||_inf), below 1e-14 times which the norm counts as 0."""

    er: np.ndarray
    generation: int
    norm: float
    scale: float


@dataclass(frozen=True)
class ViscosityField:
    """Per-cell stabilization viscosity and which branch of the min won."""

    mu_stab: np.ndarray
    mu_lin: np.ndarray
    mu_ent: np.ndarray
    lin_selected: np.ndarray   # mu_lin strictly below mu_ent


def entropy_eval(config: EntropyConfig, c):
    """(E(c), E'(c)) for the configured entropy, elementwise."""
    c = np.asarray(c, dtype=float)
    if config.kind == "power":
        return c * c / 2, c
    g = c * (1.0 - c)
    den = np.abs(g) + config.eps
    return -np.log(den), -np.sign(g) * (1.0 - 2.0 * c) / den


def extrapolate_star(C_n, C_nm1=None):
    """The sensed state: 2 C^n - C^{n-1}, or C^n when there is no history."""
    if C_nm1 is None:
        return np.asarray(C_n, dtype=float)
    return 2.0 * np.asarray(C_n, dtype=float) - np.asarray(C_nm1, dtype=float)


def _residual(config, ctx, C_star, C_n, C_nm1, U_qp, q_cells, dt, m):
    """Per-cell max over quadrature points of the entropy residual, and
    E(C*) at the volume quadrature points.

    R = d/dt E(C*) + U . E'(C*) grad C* - E'(C*) (q^+ + C* q^-), with the
    time derivative taken through the same backward difference as the
    transport step, over the sequence (E(C*), E(C^n), E(C^{n-1})).  The
    source q_cells, a scalar or one value per cell, is the transport's:
    injection at C = 1, production at the sensed state.
    """
    a0, a1, a2 = bdf_coefficients(m, dt)
    cs = ctx.cell_values(C_star)
    E, Ep = entropy_eval(config, cs)
    R = a0 * E + a1 * entropy_eval(config, ctx.cell_values(C_n))[0]
    if m == 2:
        R += a2 * entropy_eval(config, ctx.cell_values(C_nm1))[0]
    R += Ep * (np.asarray(U_qp, dtype=float) * ctx.cell_gradients(C_star)).sum(axis=2)
    q_pos, q_neg = source_split(np.expand_dims(q_cells, -1))
    R -= Ep * (q_pos + cs * q_neg)
    return np.abs(R).max(axis=1), E


def face_residual(config: EntropyConfig, ctx: AssemblyContext, C_star,
                  flux: FaceFlux) -> np.ndarray:
    """Per-face jump residual h_e^{-1} |U.n| |[E(C*)]|, zero on the boundary."""
    ni = ctx.n_interior
    E = entropy_eval(config, ctx.face_traces(C_star)[0][:ni])[0]
    un = flux.face_un[:ni]
    J = np.zeros(ctx.mesh.n_faces)
    J[:ni] = (np.abs(un) * np.abs(E[:, 0] - E[:, 1])).max(axis=1) / ctx.h_e[:ni]
    return J


def indicator(config: EntropyConfig, ctx: AssemblyContext, C_star, C_n, C_nm1,
              flux: FaceFlux, q_cells, dt: float, m: int) -> IndicatorField:
    """Combined per-cell indicator: max of the cell residual and the face
    jump residual over the cell's interior faces."""
    mesh = ctx.mesh
    er, E = _residual(config, ctx, C_star, C_n, C_nm1,
                      flux.cell_velocity, q_cells, dt, m)
    J = face_residual(config, ctx, C_star, flux)[:ctx.n_interior]
    np.maximum.at(er, ctx.own[:ctx.n_interior], J)
    np.maximum.at(er, ctx.nb, J)
    return IndicatorField(er=er, generation=mesh.generation,
                          norm=_normalization(ctx, E), scale=max(1.0, float(np.abs(E).max())))


def _normalization(ctx: AssemblyContext, E: np.ndarray) -> float:
    """Sup-norm over the domain of E(C*) minus its domain mean, from E(C*)
    at the volume quadrature points."""
    area = ctx.cell_area
    mean = float((E @ CELL_WEIGHTS * area).sum() / area.sum())
    return float(np.abs(E - mean).max())


def viscosity(config: EntropyConfig, ctx: AssemblyContext, ind: IndicatorField,
              flux: FaceFlux) -> ViscosityField:
    """Per-cell min(first-order, entropy) viscosity.

    mu_lin = lambda_lin * h_T * max|U| over the cell's quadrature points;
    mu_ent = lambda_ent * h_T^2 * ER_T / ||E - mean E||_inf, the indicator's
    norm.  A vanishing normalization (constant sensed state) switches the
    stabilization off.
    """
    if ind.generation != ctx.mesh.generation:
        raise ValueError("indicator was computed on a different mesh generation")
    speed = np.linalg.norm(flux.cell_velocity, axis=2).max(axis=1)
    h = ctx.cell_hmax
    mu_lin = config.lambda_lin * h * speed
    if ind.norm < 1e-14 * ind.scale:
        zero = np.zeros(ctx.mesh.n_active)
        return ViscosityField(mu_stab=zero, mu_lin=mu_lin,
                              mu_ent=zero.copy(), lin_selected=mu_lin < 0.0)
    mu_ent = config.lambda_ent * h**2 * ind.er / ind.norm
    return ViscosityField(
        mu_stab=np.minimum(mu_lin, mu_ent),
        mu_lin=mu_lin,
        mu_ent=mu_ent,
        lin_selected=mu_lin < mu_ent,
    )
