"""Fluid and rock property models."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from egflow.physics import (
    ViscosityModel,
    dispersion_tensor,
    DispersionParams,
    draw_centers,
    mix_viscosity,
    mobility,
    random_permeability,
    single_vortex_velocity,
)


DISP = DispersionParams(d_m=1e-3, alpha_l=1e-1, alpha_t=1e-2)


def test_dispersion_at_rest_is_molecular():
    D = dispersion_tensor(DISP, np.zeros(2))
    assert np.allclose(D, 1e-3 * np.eye(2))


def test_dispersion_axis_aligned():
    D = dispersion_tensor(DISP, np.array([2.0, 0.0]))
    # longitudinal along x: d_m + alpha_l |u|; transverse: d_m + alpha_t |u|
    assert np.allclose(D, np.diag([1e-3 + 0.2, 1e-3 + 0.02]), atol=1e-15)


def test_dispersion_rotation_equivariance():
    rng = np.random.default_rng(11)
    u = rng.standard_normal(2)
    th = 0.7
    R = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    D = dispersion_tensor(DISP, u)
    DR = dispersion_tensor(DISP, R @ u)
    assert np.allclose(DR, R @ D @ R.T, atol=1e-14)


@settings(max_examples=50, deadline=None)
@given(st.floats(-10, 10), st.floats(-10, 10))
def test_dispersion_spd(ux, uy):
    D = dispersion_tensor(DISP, np.array([ux, uy]))
    assert np.allclose(D, D.T)
    w = np.linalg.eigvalsh(D)
    assert np.all(w >= 1e-3 - 1e-12)


def test_dispersion_batched():
    u = np.array([[1.0, 0.0], [0.0, 2.0], [0.0, 0.0]])
    D = dispersion_tensor(DISP, u)
    assert D.shape == (3, 2, 2)
    assert np.allclose(D[0], dispersion_tensor(DISP, u[0]))
    assert np.allclose(D[2], 1e-3 * np.eye(2))


def test_quarter_power_mixing_oracles():
    model = ViscosityModel(mu_s=0.001, mu_0=1.0)
    assert mix_viscosity(model, 0.0) == pytest.approx(1.0, rel=1e-14)
    assert mix_viscosity(model, 1.0) == pytest.approx(0.001, rel=1e-14)
    # hand-evaluated quarter-power values
    assert mix_viscosity(model, 0.5) == pytest.approx(
        0.00831366598541183, rel=1e-13)
    assert mix_viscosity(model, 0.25) == pytest.approx(
        0.046293836101202815, rel=1e-13)


def test_mixing_is_monotone_decreasing():
    model = ViscosityModel(mu_s=0.001, mu_0=1.0)
    c = np.linspace(0.0, 1.0, 101)
    mu = mix_viscosity(model, c)
    assert np.all(np.diff(mu) < 0.0)
    assert model.mobility_ratio == pytest.approx(1000.0)


def test_mobility_scales_with_permeability():
    model = ViscosityModel(mu_s=0.5, mu_0=1.0)
    lam1 = mobility(2.0, model, 0.3)
    lam2 = mobility(4.0, model, 0.3)
    assert lam2 == pytest.approx(2.0 * lam1, rel=1e-14)
    assert lam1 == pytest.approx(2.0 / mix_viscosity(model, 0.3), rel=1e-14)


def test_vortex_point_values():
    # centerline points of the single-vortex field at t = 0
    u = single_vortex_velocity(0.25, 0.5, 0.0, T_p=2.0)
    assert u[0] == pytest.approx(0.0, abs=1e-14)
    assert u[1] == pytest.approx(1.0, rel=1e-14)
    u = single_vortex_velocity(0.5, 0.25, 0.0, T_p=2.0)
    assert u[0] == pytest.approx(-1.0, rel=1e-14)
    assert u[1] == pytest.approx(0.0, abs=1e-14)


def test_vortex_time_reversal():
    # cos(pi t / T) flips sign at t = T: the flow reverses
    a = single_vortex_velocity(0.3, 0.7, 0.25, T_p=2.0)
    b = single_vortex_velocity(0.3, 0.7, 1.75, T_p=2.0)
    assert np.allclose(a, -b, atol=1e-14)


def test_vortex_no_normal_flow_on_walls():
    for s in np.linspace(0.0, 1.0, 11):
        assert single_vortex_velocity(0.0, s, 0.3, 2.0)[0] == pytest.approx(0.0, abs=1e-14)
        assert single_vortex_velocity(1.0, s, 0.3, 2.0)[0] == pytest.approx(0.0, abs=1e-14)
        assert single_vortex_velocity(s, 0.0, 0.3, 2.0)[1] == pytest.approx(0.0, abs=1e-14)
        assert single_vortex_velocity(s, 1.0, 0.3, 2.0)[1] == pytest.approx(0.0, abs=1e-14)


def test_random_permeability_clamped_and_seeded():
    dom = (0.0, 0.0, 1.0, 1.0)
    c1 = draw_centers(40, dom, np.random.default_rng(42))
    c2 = draw_centers(40, dom, np.random.default_rng(42))
    assert np.allclose(c1, c2)
    x = np.linspace(0.0, 1.0, 64)
    X, Y = np.meshgrid(x, x)
    k = random_permeability(c1, X.ravel(), Y.ravel())
    assert k.min() >= 0.01 - 1e-15
    assert k.max() <= 4.0 + 1e-15
    # bumps actually move the field away from uniform
    assert k.max() - k.min() > 0.1
