"""Concentration solve: upwinding, sources, conservation, fixed points."""

import numpy as np
import pytest

from egflow.egspace import AssemblyContext, EGDofMap, interpolate
from egflow.flow import FlowParams, flux_from_velocity, local_conservation_residual, solve_reduced
from egflow.mesh import build_uniform
from egflow.transport import (
    TransportBC,
    TransportParams,
    assemble_transport,
    source_split,
    upwind_value,
)

UNIT = (0.0, 0.0, 1.0, 1.0)


def _context(nx=4, ny=4, refine=()):
    mesh = build_uniform(UNIT, nx, ny)
    if refine:
        mesh = mesh.refine(list(refine))
    dm = EGDofMap(mesh)
    return AssemblyContext(mesh, dm)


def _uniform_flux(ctx, ux=1.0, uy=0.0):
    return flux_from_velocity(ctx, lambda x, y: np.stack(
        [np.full_like(np.asarray(x, dtype=float), ux),
         np.full_like(np.asarray(y, dtype=float), uy)], axis=-1))


def _zero_coefficients(ctx):
    """Dispersion and stabilization viscosity that vanish in every cell."""
    nc = ctx.mesh.n_active
    return np.zeros((nc, 2, 2)), np.zeros(nc)


def test_upwind_picks_upstream_side():
    C_plus, C_minus = np.array([1.0, 1.0]), np.array([0.0, 0.0])
    un = np.array([-0.5, 0.5])
    # inflow to the plus side takes the plus trace, outflow the minus trace
    assert np.allclose(upwind_value(C_plus, C_minus, un), [1.0, 0.0])
    assert upwind_value(2.0, 3.0, 0.0) == pytest.approx(3.0)


def test_source_split():
    qp, qn = source_split(np.array([2.0, -1.5, 0.0]))
    assert np.allclose(qp, [2.0, 0.0, 0.0])
    assert np.allclose(qn, [0.0, -1.5, 0.0])
    assert np.allclose(qp + qn, [2.0, -1.5, 0.0])


def test_penalty_validation():
    with pytest.raises(ValueError):
        TransportParams(alpha_c=0.0)
    with pytest.raises(ValueError):
        TransportParams(alpha_c=-1.0)


def test_second_order_needs_history():
    ctx = _context(2, 2)
    flux = _uniform_flux(ctx)
    with pytest.raises(ValueError):
        assemble_transport(ctx, FlowParams(), TransportParams(), TransportBC(), flux,
                           *_zero_coefficients(ctx), np.zeros(ctx.dofmap.n_dofs),
                           dt=0.1, m=2)


def test_constant_state_is_fixed_point():
    # c = 0.4 everywhere with matching inflow: one step must return 0.4
    ctx = _context(4, 4, refine=(5,))
    dm = ctx.dofmap
    flux = _uniform_flux(ctx)
    C0 = interpolate(lambda x, y: 0.4, ctx)
    medium, params = FlowParams(), TransportParams()
    A, b = assemble_transport(ctx, medium, params, TransportBC(c_in=0.4), flux,
                              *_zero_coefficients(ctx), C0, C_nm1=C0, dt=0.05, m=2)
    C1, rep = solve_reduced(dm, A, b, tol=1e-13)
    assert rep.converged
    assert np.abs(ctx.cell_values(C1) - 0.4).max() < 1e-10


def test_global_mass_balance_pure_advection():
    # closed box (zero velocity): total solute mass is exactly conserved
    ctx = _context(5, 5, refine=(3,))
    dm = ctx.dofmap
    flux = _uniform_flux(ctx, 0.0, 0.0)
    rng = np.random.default_rng(12)
    C = dm.distribute(rng.random(dm.n_dofs))
    medium, params = FlowParams(), TransportParams()
    m0 = dm.total_integral(C)
    Cp = C
    for k in range(5):
        A, b = assemble_transport(ctx, medium, params, TransportBC(), flux,
                                  *_zero_coefficients(ctx), C, C_nm1=Cp, dt=0.02,
                                  m=1 if k == 0 else 2)
        Cn, _ = solve_reduced(dm, A, b, tol=1e-13)
        Cp, C = C, Cn
    assert dm.total_integral(C) == pytest.approx(m0, abs=1e-10)


def test_inflow_outflow_budget():
    # uniform rightward transport of a constant state: mass change equals
    # inflow minus outflow flux through the vertical sides
    ctx = _context(4, 4)
    dm = ctx.dofmap
    flux = _uniform_flux(ctx, 1.0, 0.0)
    C = interpolate(lambda x, y: 1.0, ctx)
    medium, params = FlowParams(), TransportParams()
    dt = 0.01
    A, b = assemble_transport(ctx, medium, params, TransportBC(c_in=1.0), flux,
                              *_zero_coefficients(ctx), C, C_nm1=C, dt=dt, m=2)
    C1, _ = solve_reduced(dm, A, b, tol=1e-13)
    # steady constant state: in = out, so the mass stays put
    assert dm.total_integral(C1) == pytest.approx(dm.total_integral(C), abs=1e-11)


def test_diffusion_decays_smooth_mode():
    # pure diffusion of cos(pi x): amplitude decays like exp(-d pi^2 t)
    # while the total mass (zero) is conserved
    ctx = _context(6, 6)
    dm = ctx.dofmap
    flux = _uniform_flux(ctx, 0.0, 0.0)
    C = interpolate(lambda x, y: np.cos(np.pi * x), ctx)
    D = np.broadcast_to(1e-2 * np.eye(2), (ctx.mesh.n_active, 2, 2)).copy()
    medium, params = FlowParams(), TransportParams()
    amp0 = np.abs(dm.cell_means(C)).max()
    Cp = C
    for k in range(10):
        A, b = assemble_transport(ctx, medium, params, TransportBC(), flux,
                                  D, np.zeros(ctx.mesh.n_active), C, C_nm1=Cp, dt=0.05,
                                  m=1 if k == 0 else 2)
        Cn, _ = solve_reduced(dm, A, b, tol=1e-13)
        Cp, C = C, Cn
    assert dm.total_integral(C) == pytest.approx(0.0, abs=1e-10)
    amp = np.abs(dm.cell_means(C)).max()
    decay = np.exp(-1e-2 * np.pi**2 * 0.5)
    assert amp < amp0
    assert amp == pytest.approx(amp0 * decay, rel=0.05)
    # the profile stays ordered left to right
    order = np.argsort(ctx.cell_center[:, 0], kind="stable")
    cols = dm.cell_means(C)[order].reshape(6, 6).mean(axis=1)
    assert np.all(np.diff(cols) < 0.0)


def test_injection_source_fills_domain():
    # injection brings the injected fluid, C = 1, into resident fluid C = 0
    ctx = _context(4, 4)
    dm = ctx.dofmap
    flux = _uniform_flux(ctx, 0.0, 0.0)
    C = np.zeros(dm.n_dofs)
    medium, params = FlowParams(), TransportParams()
    A, b = assemble_transport(ctx, medium, params, TransportBC(), flux, *_zero_coefficients(ctx),
                              C, C_nm1=C, dt=0.5, m=1, q_cells=1.0)
    C1, _ = solve_reduced(dm, A, b, tol=1e-13)
    # phi dc/dt = q^+ with c(0) = 0: one backward-Euler step lands on
    # c = dt q / phi exactly since the rhs does not involve c
    assert np.abs(dm.cell_means(C1) - 0.5).max() < 1e-10


@pytest.mark.parametrize("value", [lambda x, y: 0.5, float("nan"), "0.5"])
def test_transport_bc_takes_one_finite_float_per_side(value):
    for c_in in (value, {"left": value}):
        with pytest.raises(ValueError, match="finite real number"):
            TransportBC(c_in=c_in)


def test_mu_cells_shape_validation():
    ctx = _context(2, 2)
    flux = _uniform_flux(ctx)
    C = np.zeros(ctx.dofmap.n_dofs)
    with pytest.raises(ValueError):
        assemble_transport(ctx, FlowParams(), TransportParams(), TransportBC(), flux,
                           _zero_coefficients(ctx)[0], np.zeros(3), C, C_nm1=C,
                           dt=0.1, m=2)
