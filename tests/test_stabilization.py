"""Entropy-residual shock sensing and the two-branch artificial viscosity."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from egflow.egspace import CELL_WEIGHTS, AssemblyContext, EGDofMap, interpolate
from egflow.flow import flux_from_velocity
from egflow.mesh import build_uniform
from egflow.stabilization import (
    EntropyConfig,
    IndicatorField,
    cell_residual,
    entropy_eval,
    extrapolate_star,
    face_residual,
    indicator,
    viscosity,
)

UNIT = (0.0, 0.0, 1.0, 1.0)


def _context(nx=4, ny=4):
    mesh = build_uniform(UNIT, nx, ny)
    dm = EGDofMap(mesh)
    return AssemblyContext(mesh, dm)


def _flux(ctx, ux=1.0, uy=0.0):
    return flux_from_velocity(ctx, lambda x, y: np.stack(
        [np.full_like(np.asarray(x, dtype=float), ux),
         np.full_like(np.asarray(y, dtype=float), uy)], axis=-1))


def test_power_entropy_values():
    cfg = EntropyConfig(kind="power", b=2)
    E, Ep = entropy_eval(cfg, 3.0)
    assert E == pytest.approx(4.5)
    assert Ep == pytest.approx(3.0)
    E, Ep = entropy_eval(cfg, -2.0)
    assert E == pytest.approx(2.0)
    assert Ep == pytest.approx(-2.0)
    cfg4 = EntropyConfig(kind="power", b=4)
    E, Ep = entropy_eval(cfg4, 2.0)
    assert E == pytest.approx(4.0)
    assert Ep == pytest.approx(8.0)


def test_log_entropy_values():
    cfg = EntropyConfig(kind="log", eps=1e-4)
    E, Ep = entropy_eval(cfg, 0.5)
    # -log(0.25 + 1e-4), symmetric minimum so the slope vanishes
    assert E == pytest.approx(1.3858944410985636, rel=1e-14)
    assert Ep == pytest.approx(0.0, abs=1e-14)
    # steep growth outside the well near the endpoints
    E0, _ = entropy_eval(cfg, 0.0)
    assert E0 == pytest.approx(-np.log(1e-4), rel=1e-13)
    _, Ep_low = entropy_eval(cfg, 0.01)
    assert Ep_low < 0.0


def test_kruzkov_entropy_values():
    cfg = EntropyConfig(kind="kruzkov", r=0.5)
    E, Ep = entropy_eval(cfg, 0.9)
    assert E == pytest.approx(0.4)
    assert Ep == pytest.approx(1.0)
    E, Ep = entropy_eval(cfg, 0.1)
    assert E == pytest.approx(0.4)
    assert Ep == pytest.approx(-1.0)


def test_config_validation():
    with pytest.raises(ValueError):
        EntropyConfig(kind="power", b=3)
    with pytest.raises(ValueError):
        EntropyConfig(kind="log", eps=0.0)
    with pytest.raises(ValueError):
        EntropyConfig(kind="cubic")
    with pytest.raises(ValueError):
        EntropyConfig(lambda_lin=-0.1)
    with pytest.raises(ValueError):
        EntropyConfig(extrapolation="forward")


@settings(max_examples=60, deadline=None)
@given(st.floats(-5, 5), st.floats(-5, 5))
def test_power_entropy_is_convex(a, b):
    cfg = EntropyConfig(kind="power", b=2)
    Ea, _ = entropy_eval(cfg, a)
    Eb, _ = entropy_eval(cfg, b)
    Em, _ = entropy_eval(cfg, 0.5 * (a + b))
    assert Em <= 0.5 * (Ea + Eb) + 1e-12


def test_extrapolation_modes():
    cn, cnm1 = np.array([2.0]), np.array([1.5])
    cfg = EntropyConfig()
    assert extrapolate_star(cfg, cn, cnm1)[0] == pytest.approx(2.5)
    assert extrapolate_star(cfg, cn, None)[0] == pytest.approx(2.0)
    lag = EntropyConfig(extrapolation="lagged")
    assert extrapolate_star(lag, cn, cnm1)[0] == pytest.approx(2.0)


def test_linear_viscosity_homogeneous_in_velocity():
    ctx = _context()
    cfg = EntropyConfig()
    C = interpolate(lambda x, y: x, ctx)
    for s in (1.0, 3.0):
        flux = _flux(ctx, s, 0.0)
        ind = indicator(cfg, ctx, C, C, C, flux, 0.0, dt=0.1, m=1)
        mu = viscosity(cfg, ctx, ind, flux)
        # mu_lin = lambda h max|U| = 0.5 * 0.25 * s on the uniform 4x4 mesh
        assert np.allclose(mu.mu_lin, 0.5 * 0.25 * s, atol=1e-14)


def test_constant_state_disables_stabilization():
    ctx = _context()
    cfg = EntropyConfig()
    C = interpolate(lambda x, y: 0.7, ctx)
    flux = _flux(ctx, 1.0, 0.0)
    ind = indicator(cfg, ctx, C, C, C, flux, 0.0, dt=0.1, m=1)
    mu = viscosity(cfg, ctx, ind, flux)
    assert np.all(mu.mu_stab == 0.0)
    assert not mu.lin_selected.any()
    # the linear branch itself is still reported for diagnostics
    assert mu.mu_lin.max() > 0.0


def test_steady_linear_profile_zero_residual():
    # C* = C^n = C^{n-1} = x with U = (0, 1): advection orthogonal to the
    # gradient, no time change, no source: the cell residual must vanish
    ctx = _context()
    cfg = EntropyConfig(kind="power", b=2)
    C = interpolate(lambda x, y: x, ctx)
    flux = _flux(ctx, 0.0, 1.0)
    r = cell_residual(cfg, ctx, C, C, C, flux.cell_velocity, 0.0, dt=0.1, m=2)
    assert np.abs(r).max() < 1e-12


def test_cell_residual_advection_term():
    # steady state C = x, U = (u, 0): R = E'(C) u dC/dx = u * x at the qp;
    # the per-cell max is u * (x0 + hx * max xi)
    ctx = _context(2, 2)
    cfg = EntropyConfig(kind="power", b=2)
    C = interpolate(lambda x, y: x, ctx)
    flux = _flux(ctx, 2.0, 0.0)
    r = cell_residual(cfg, ctx, C, C, C, flux.cell_velocity, 0.0, dt=0.1, m=2)
    xi_max = (1.0 + np.sqrt(0.6)) / 2.0
    expect = 2.0 * (ctx.mesh.cell_x0 + ctx.mesh.cell_hx * xi_max)
    assert np.allclose(r, expect, atol=1e-12)


def test_indicator_source_injects_one_and_produces_the_sensed_state():
    # steady C* = x under U = (u, 0) with E = c^2 / 2, so E'(C*) = x: the
    # sourceless residual is u x at every quadrature point, and a source
    # positive in some cells and negative in others subtracts
    # E'(C*) (q^+ + C* q^-); C* is continuous, so no face term enters
    ctx = _context(4, 4)
    cfg = EntropyConfig(kind="power", b=2)
    C = interpolate(lambda x, y: x, ctx)
    flux = _flux(ctx, 2.0, 0.0)
    q = np.random.default_rng(3).standard_normal(ctx.mesh.n_active)
    assert (q > 0.0).any() and (q < 0.0).any()
    x = ctx.cell_values(C)
    plain = indicator(cfg, ctx, C, C, C, flux, 0.0, dt=0.1, m=2).er
    assert np.allclose(plain, np.abs(2.0 * x).max(axis=1), rtol=1e-12)
    q_pos, q_neg = np.maximum(q, 0.0)[:, None], np.minimum(q, 0.0)[:, None]
    expect = np.abs(2.0 * x - x * (q_pos + x * q_neg)).max(axis=1)
    er = indicator(cfg, ctx, C, C, C, flux, q, dt=0.1, m=2).er
    assert np.allclose(er, expect, rtol=1e-12)


def test_face_residual_detects_enrichment_jump():
    ctx = _context(2, 1)
    cfg = EntropyConfig(kind="power", b=2)
    dm = ctx.dofmap
    C = np.zeros(dm.n_dofs)
    C[dm.n_cg] = 1.0              # constant enrichment on the left cell only
    C = dm.distribute(C)
    flux = _flux(ctx, 3.0, 0.0)
    J = face_residual(cfg, ctx, C, flux)
    interior = ctx.mesh.face_neighbor >= 0
    # jump of E across the shared face: E(1) - E(0) = 1/2, |U.n| = 3, h = 1
    assert J[interior].max() == pytest.approx(3.0 * 0.5 / 1.0, rel=1e-12)
    assert np.all(J[~interior] == 0.0)


def test_indicator_max_combines_face_jump():
    ctx = _context(2, 1)
    cfg = EntropyConfig(kind="power", b=2)
    dm = ctx.dofmap
    C = np.zeros(dm.n_dofs)
    C[dm.n_cg] = 1.0
    C = dm.distribute(C)
    flux = _flux(ctx, 3.0, 0.0)
    ind = indicator(cfg, ctx, C, C, C, flux, 0.0, dt=1e9, m=1)
    J = face_residual(cfg, ctx, C, flux)
    interior = ctx.mesh.face_neighbor >= 0
    jmax = J[interior].max()
    # both cells adjacent to the jump face carry at least the face term
    f = np.flatnonzero(interior & (J > 0.5 * jmax))[0]
    assert ind.er[ctx.mesh.face_owner[f]] >= jmax - 1e-12
    assert ind.er[ctx.mesh.face_neighbor[f]] >= jmax - 1e-12


def test_entropy_viscosity_formula():
    # isolate the entropy branch with a huge lambda_lin so the min picks mu_ent
    ctx = _context(4, 4)
    cfg = EntropyConfig(kind="power", b=2, lambda_lin=1e9, lambda_ent=0.7)
    C = interpolate(lambda x, y: x * x, ctx)
    flux = _flux(ctx, 1.0, 0.0)
    ind = indicator(cfg, ctx, C, C, C, flux, 0.0, dt=0.1, m=2)
    # ||E - mean E||_inf over the volume quadrature points
    E = entropy_eval(cfg, ctx.cell_values(C))[0]
    mean = (E @ CELL_WEIGHTS) @ ctx.mesh.cell_area / ctx.mesh.total_area
    norm = np.abs(E - mean).max()
    mu = viscosity(cfg, ctx, ind, flux)
    expect = 0.7 * ctx.cell_hmax**2 * ind.er / norm
    assert np.allclose(mu.mu_ent, expect, rtol=1e-13)
    assert np.allclose(mu.mu_stab, expect, rtol=1e-13)
    assert not mu.lin_selected.any()


def test_min_switches_to_linear_branch():
    ctx = _context(4, 4)
    cfg = EntropyConfig(kind="power", b=2, lambda_lin=1e-12, lambda_ent=0.5)
    C = interpolate(lambda x, y: x * x, ctx)
    flux = _flux(ctx, 1.0, 0.0)
    ind = indicator(cfg, ctx, C, C, C, flux, 0.0, dt=0.1, m=2)
    mu = viscosity(cfg, ctx, ind, flux)
    assert np.allclose(mu.mu_stab, mu.mu_lin)
    assert mu.lin_selected.all()


def test_stale_indicator_rejected():
    ctx = _context(2, 2)
    cfg = EntropyConfig()
    C = interpolate(lambda x, y: x, ctx)
    flux = _flux(ctx)
    stale = IndicatorField(er=np.zeros(ctx.mesh.n_active),
                           generation=ctx.mesh.generation + 1, norm=1.0, scale=1.0)
    with pytest.raises(ValueError):
        viscosity(cfg, ctx, stale, flux)
