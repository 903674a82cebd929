"""Closure relations and benchmark field generators.

Velocity-dependent dispersion, quarter-power viscosity mixing, mobility
fields, the bump-sum random permeability, and the analytic single-vortex
velocity.  Everything here is a pure function of its arguments and
vectorizes over trailing numpy shapes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "DispersionParams",
    "ViscosityModel",
    "dispersion_tensor",
    "draw_centers",
    "mix_viscosity",
    "mobility",
    "random_permeability",
    "single_vortex_velocity",
]

_BUMP_WIDTH = 0.05
_PERM_LO, _PERM_HI = 0.01, 4.0


@dataclass(frozen=True)
class DispersionParams:
    """Molecular diffusivity plus longitudinal/transverse dispersivities."""

    d_m: float
    alpha_l: float
    alpha_t: float

    def __post_init__(self):
        vals = (self.d_m, self.alpha_l, self.alpha_t)
        if not (all(v > 0 for v in vals) or all(v == 0 for v in vals)):
            raise ValueError(
                f"dispersion coefficients must be all positive or all zero, got {vals}"
            )


def dispersion_tensor(params: DispersionParams, u) -> np.ndarray:
    """D(u) = d_m I + |u| (alpha_l E(u) + alpha_t (I - E(u))), E_ij = u_i u_j / |u|^2.

    Takes an (..., 2) stack of velocities; returns (..., 2, 2).  At u = 0
    the dispersivity terms vanish with |u| and D = d_m I.
    """
    u = np.asarray(u, dtype=float)
    norm = np.linalg.norm(u, axis=-1)
    eye = np.eye(2)
    # |u| E(u) = (u u^T)/|u|; safe at zero since the numerator is quadratic
    safe = np.where(norm > 0.0, norm, 1.0)
    outer_over_norm = u[..., :, None] * u[..., None, :] / safe[..., None, None]
    return (
        params.d_m * eye
        + params.alpha_l * outer_over_norm
        + params.alpha_t * (norm[..., None, None] * eye - outer_over_norm)
    )


@dataclass(frozen=True)
class ViscosityModel:
    """Solvent and resident viscosities for the quarter-power mixing rule."""

    mu_s: float
    mu_0: float

    def __post_init__(self):
        if self.mu_s <= 0 or self.mu_0 <= 0:
            raise ValueError(f"viscosities must be positive, got {self}")

    @property
    def mobility_ratio(self) -> float:
        return self.mu_0 / self.mu_s


def mix_viscosity(model: ViscosityModel, c):
    """Quarter-power mixing: (c mu_s^-1/4 + (1-c) mu_0^-1/4)^-4; c in [0,1]."""
    c = np.asarray(c, dtype=float)
    return (c * model.mu_s ** -0.25 + (1.0 - c) * model.mu_0 ** -0.25) ** -4.0


def mobility(K, model: ViscosityModel, c):
    """Scalar mobility K / mu(c)."""
    return np.asarray(K, dtype=float) / mix_viscosity(model, c)


def draw_centers(n: int, domain, rng: np.random.Generator) -> np.ndarray:
    """n uniformly random bump centers inside the rectangle (seeded RNG)."""
    x0, y0, x1, y1 = domain
    pts = rng.random((n, 2))
    pts[:, 0] = x0 + pts[:, 0] * (x1 - x0)
    pts[:, 1] = y0 + pts[:, 1] * (y1 - y0)
    return pts


def random_permeability(centers, x, y):
    """Clamped sum of Gaussian bumps of width 0.05 at the given centers.

    K = min(max(sum_i exp(-(|x - x_i| / 0.05)^2), 0.01), 4) at the points
    with coordinate arrays x and y.
    """
    centers = np.asarray(centers, dtype=float).reshape(-1, 2)
    px, py = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    d2 = (px[..., None] - centers[:, 0]) ** 2 + (py[..., None] - centers[:, 1]) ** 2
    s = np.exp(-d2 / _BUMP_WIDTH**2).sum(axis=-1)
    return np.clip(s, _PERM_LO, _PERM_HI)


def single_vortex_velocity(x, y, t: float, T_p: float):
    """Divergence-free vortex that reverses after half a period.

    u = (-2 sin(pi y) sin^2(pi x) cos(pi y), 2 sin(pi x) sin^2(pi y) cos(pi x))
    scaled by cos(pi t / T_p).  Returns an (..., 2) array.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    a = np.cos(np.pi * t / T_p)
    ux = -2.0 * np.sin(np.pi * y) * np.sin(np.pi * x) ** 2 * np.cos(np.pi * y) * a
    uy = 2.0 * np.sin(np.pi * x) * np.sin(np.pi * y) ** 2 * np.cos(np.pi * x) * a
    return np.stack([ux, uy], axis=-1)
