"""Pressure solve: time discretization, face weighting, flux reconstruction."""

import re

import numpy as np
import pytest

import egflow.driver as driver
from egflow import linalg
from egflow.egspace import AssemblyContext, EGDofMap, fix_gauge, interpolate
from egflow.linalg import LaggedLU, SolverError
from egflow.flow import (
    FlowBC,
    FlowParams,
    assemble_pressure,
    bdf_apply,
    bdf_coefficients,
    flux_from_velocity,
    local_conservation_residual,
    neutral_pressure_mode,
    reconstruct_flux,
    solve_reduced,
    weights,
)
from egflow.mesh import build_uniform

UNIT = (0.0, 0.0, 1.0, 1.0)
LEFT_RIGHT_FLOW = FlowBC(dirichlet={"left": 1.0, "right": 0.0},
                         neumann={"bottom": 0.0, "top": 0.0})


def _context(nx=4, ny=4, refine=()):
    mesh = build_uniform(UNIT, nx, ny)
    if refine:
        mesh = mesh.refine(list(refine))
    dm = EGDofMap(mesh)
    return AssemblyContext(mesh, dm)


def test_bdf_coefficient_oracles():
    assert bdf_coefficients(1, 0.25) == pytest.approx((4.0, -4.0, 0.0))
    a = bdf_coefficients(2, 0.5)
    assert a == pytest.approx((3.0, -4.0, 1.0))
    with pytest.raises(ValueError):
        bdf_coefficients(3, 0.1)
    with pytest.raises(ValueError):
        bdf_coefficients(1, 0.0)


def test_bdf2_exact_on_quadratics():
    dt, t = 0.05, 0.7
    u = lambda s: 3.0 * s**2 - 2.0 * s + 1.0
    du = bdf_apply(2, dt, u(t + dt), u(t), u(t - dt))
    assert du == pytest.approx(6.0 * (t + dt) - 2.0, abs=1e-11)


def test_bdf2_requires_history():
    with pytest.raises(ValueError):
        bdf_apply(2, 0.1, 1.0, 0.5)


def test_weight_oracles():
    beta, kap = weights(1e-3, 1.0)
    assert beta == pytest.approx(0.9990009990009991, rel=1e-15)
    assert kap == pytest.approx(0.0019980019980019984, rel=1e-15)
    # equal sides: arithmetic = harmonic, beta = 1/2
    beta, kap = weights(2.0, 2.0)
    assert beta == pytest.approx(0.5)
    assert kap == pytest.approx(2.0)


def test_weights_reject_nonpositive():
    with pytest.raises(ValueError):
        weights(0.0, 1.0)


def test_linear_pressure_exact_uniform():
    ctx = _context(4, 4)
    kappa = np.ones(ctx.mesh.n_active)
    A, b = assemble_pressure(ctx, FlowParams(), LEFT_RIGHT_FLOW, kappa, m=2)
    P, rep = solve_reduced(ctx.dofmap, A, b, tol=1e-13)
    exact = interpolate(lambda x, y: 1.0 - x, ctx)
    from egflow.egspace import fix_gauge
    assert np.allclose(P, fix_gauge(ctx.dofmap, exact), atol=1e-10)
    assert rep.converged


def test_linear_pressure_exact_hanging():
    # refining two cells leaves hanging faces; linears must survive untouched
    ctx = _context(4, 4, refine=(0, 9))
    kappa = np.ones(ctx.mesh.n_active)
    A, b = assemble_pressure(ctx, FlowParams(), LEFT_RIGHT_FLOW, kappa, m=2)
    P, _ = solve_reduced(ctx.dofmap, A, b, tol=1e-13)
    vals = ctx.cell_values(P)
    assert np.allclose(vals, 1.0 - ctx.cell_qx, atol=1e-9)


def test_pressure_invariant_under_mobility_scaling():
    # Dirichlet data pins P; scaling kappa by s leaves P and scales U by s
    ctx = _context(4, 4, refine=(5,))
    kappa = np.ones(ctx.mesh.n_active)
    params = FlowParams()
    A1, b1 = assemble_pressure(ctx, params, LEFT_RIGHT_FLOW, kappa, m=2)
    P1, _ = solve_reduced(ctx.dofmap, A1, b1, tol=1e-13)
    A2, b2 = assemble_pressure(ctx, params, LEFT_RIGHT_FLOW, 10.0 * kappa, m=2)
    P2, _ = solve_reduced(ctx.dofmap, A2, b2, tol=1e-13)
    assert np.allclose(P1, P2, atol=1e-9)
    U1 = reconstruct_flux(ctx, P1, kappa, LEFT_RIGHT_FLOW, params)
    U2 = reconstruct_flux(ctx, P2, 10.0 * kappa, LEFT_RIGHT_FLOW, params)
    assert np.allclose(U2.center_velocity, 10.0 * U1.center_velocity, atol=1e-8)


def test_reconstructed_flux_locally_conservative():
    # the balance holds on hanging faces too, under a log-normal mobility and
    # mixed boundary data
    ctx = _context(4, 4, refine=(3, 12))
    kappa = np.exp(np.random.default_rng(5).normal(0.0, 1.0, ctx.mesh.n_active))
    bc = FlowBC(dirichlet={"left": 1.0, "bottom": 0.3},
                neumann={"right": 0.2, "top": -0.1})
    params = FlowParams()
    A, b = assemble_pressure(ctx, params, bc, kappa, m=2)
    P, _ = solve_reduced(ctx.dofmap, A, b, tol=1e-13)
    flux = reconstruct_flux(ctx, P, kappa, bc, params)
    r = local_conservation_residual(ctx, flux, 0.0, params, dt=1.0, m=2)
    assert np.abs(r).max() < 1e-10


def test_flux_rejects_mobility_that_is_not_per_cell():
    ctx = _context(2, 2)
    P = np.zeros(ctx.dofmap.n_dofs)
    for kappa in (1.0, np.ones(ctx.mesh.n_active + 1), np.ones((ctx.mesh.n_active, 2, 2))):
        with pytest.raises(ValueError, match=r"kappa must be per-cell, expected \(4,\)"):
            reconstruct_flux(ctx, P, kappa, LEFT_RIGHT_FLOW, FlowParams())


@pytest.mark.parametrize("value", [lambda x, y: 1.0 - x, float("nan"), "1.0"])
def test_flow_bc_takes_one_finite_float_per_side(value):
    for dirichlet, neumann in (({"left": value, "right": 0.0}, {"bottom": 0.0, "top": 0.0}),
                               ({"left": 1.0, "right": 0.0}, {"bottom": 0.0, "top": value})):
        with pytest.raises(ValueError, match="finite real number"):
            FlowBC(dirichlet=dirichlet, neumann=neumann)


def test_flow_bc_names_every_side_once():
    with pytest.raises(ValueError, match=r"dirichlet: unknown boundary sides \['lef'\]"):
        FlowBC(dirichlet={"lef": 1.0, "right": 0.0}, neumann={"bottom": 0.0, "top": 0.0})
    with pytest.raises(ValueError, match="no condition"):
        FlowBC(dirichlet={"right": 0.0}, neumann={"bottom": 0.0, "top": 0.0})
    with pytest.raises(ValueError, match="two conditions"):
        FlowBC(dirichlet={"left": 1.0, "right": 0.0},
               neumann={"left": 0.0, "bottom": 0.0, "top": 0.0})


def test_conservation_detects_imbalance():
    # an analytic field with nonzero divergence must show up in the residual
    ctx = _context(4, 4)
    flux = flux_from_velocity(ctx, lambda x, y: np.stack([x, np.zeros_like(y)], axis=-1))
    r = local_conservation_residual(ctx, flux, 0.0, FlowParams(), dt=1.0, m=2)
    # div u = 1, so each cell should report its own area
    assert np.allclose(r, ctx.mesh.cell_area, atol=1e-12)


def test_flux_from_velocity_divergence_free():
    ctx = _context(5, 5, refine=(7,))
    flux = flux_from_velocity(ctx, lambda x, y: np.stack(
        [np.sin(np.pi * y) ** 2, np.cos(np.pi * x) ** 2], axis=-1))
    # quadrature-exactness is not expected for transcendental data, but the
    # per-cell imbalance of a divergence-free field must vanish fast
    r = local_conservation_residual(ctx, flux, 0.0, FlowParams(), dt=1.0, m=2)
    assert np.abs(r).max() < 1e-4


def test_gauge_independent_of_initial_guess():
    ctx = _context(3, 3)
    kappa = np.ones(ctx.mesh.n_active)
    A, b = assemble_pressure(ctx, FlowParams(), LEFT_RIGHT_FLOW, kappa, m=2)
    P1, _ = solve_reduced(ctx.dofmap, A, b, tol=1e-13)
    rng = np.random.default_rng(8)
    P2, _ = solve_reduced(ctx.dofmap, A, b,
                          x0_full=rng.standard_normal(ctx.dofmap.n_dofs),
                          tol=1e-13)
    assert np.allclose(P1, P2, atol=1e-9)


def test_start_at_the_solution_takes_no_iteration():
    # the previous state arrives in fix_gauge's gauge; shifted along the null
    # vector onto the pinned gauge it still solves the system
    ctx = _context(4, 4, refine=(5,))
    A, b = assemble_pressure(ctx, FlowParams(), LEFT_RIGHT_FLOW,
                             np.linspace(1.0, 2.0, ctx.mesh.n_active), m=2)
    P, _ = solve_reduced(ctx.dofmap, A, b, tol=1e-13)
    assert abs(P[-1]) > 1e-6                   # not already in the pinned gauge
    P2, rep = solve_reduced(ctx.dofmap, A, b, x0_full=P, tol=1e-10)
    assert rep.iterations == 0
    assert np.allclose(P2, P, atol=1e-12)


def test_solver_failure_raises():
    ctx = _context(3, 3)
    kappa = np.ones(ctx.mesh.n_active)
    A, b = assemble_pressure(ctx, FlowParams(), LEFT_RIGHT_FLOW, kappa, m=2)
    with pytest.raises(SolverError):
        solve_reduced(ctx.dofmap, A, b, tol=1e-30)


def test_reduced_partition_shapes():
    # the reduced layout is [free vertex dofs | cell constants], so the last
    # reduced dof, which the gauge pin holds at 0, is a cell constant
    dm = _context(2, 2, refine=(0,)).dofmap
    assert dm.n_reduced == dm.n_dofs - dm.constrained.size
    assert np.all(dm.free_dofs[:dm.n_free_cg] < dm.n_cg)
    assert np.all(dm.free_dofs[dm.n_free_cg:] >= dm.n_cg)
    assert dm.free_dofs[-1] == dm.n_dofs - 1


def _fixture_systems(monkeypatch):
    """(dofmap, A, b) of every solve in the first two steps of criterion 07's run."""
    systems = []
    solve = driver.solve_reduced

    def capture(dm, A, b, **kwargs):
        systems.append((dm, A, b))
        return solve(dm, A, b, **kwargs)

    monkeypatch.setattr(driver, "solve_reduced", capture)
    driver.run(driver.make_config("perm_block", dt=0.02, t_end=0.04, r_max=1))
    return systems


def test_gauge_pin_makes_the_factor_regular(monkeypatch):
    # the unpinned reduced operators are singular (tests/test_assembly.py,
    # test_gauge_vector_is_a_null_vector); the assembled, pinned ones factor
    systems = _fixture_systems(monkeypatch)
    dm, A, _ = systems[2]                       # first pressure solve on a hanging mesh
    assert dm.n_reduced == 343 and A.shape == (342, 342)
    for dm, A, _ in systems:
        assert A.shape == (dm.n_reduced - 1,) * 2
        linalg._factor(A, linalg.ColumnOrder())


def test_solve_matches_dense_least_squares(monkeypatch):
    for dm, A, b in _fixture_systems(monkeypatch):
        x = np.linalg.lstsq(A.toarray(), b, rcond=None)[0]
        ref = fix_gauge(dm, dm.prolong(np.append(x, 0.0)))
        P, _ = solve_reduced(dm, A, b, tol=1e-13)
        assert np.abs(P - ref).max() <= 1e-10 * np.abs(ref).max()


def test_lagged_factor_reused_within_generation(monkeypatch):
    calls = []
    factor = linalg._factor
    monkeypatch.setattr(linalg, "_factor",
                        lambda A, order: calls.append(1) or factor(A, order))
    ctx = _context(4, 4, refine=(5,))
    kappa = np.linspace(1.0, 3.0, ctx.mesh.n_active)
    lu = LaggedLU()
    A, b = assemble_pressure(ctx, FlowParams(), LEFT_RIGHT_FLOW, kappa, m=2)
    solve_reduced(ctx.dofmap, A, b, factor=lu)  # the first factor is dropped
    P1, _ = solve_reduced(ctx.dofmap, A, b, factor=lu)
    kappa[::2] *= 1.01                          # mobility drift of one step
    A2, b2 = assemble_pressure(ctx, FlowParams(), LEFT_RIGHT_FLOW, kappa, m=2)
    P2, rep = solve_reduced(ctx.dofmap, A2, b2, x0_full=P1, factor=lu)
    assert len(calls) == 2
    assert rep.iterations > 0
    # P2 in the pinned gauge: shifted along the null vector to a zero last dof
    dm = ctx.dofmap
    x = dm.restrict(P2)
    z = np.where(np.arange(dm.n_reduced) < dm.n_free_cg, 1.0, -1.0)
    x = (x + x[-1] * z)[:-1]
    assert np.linalg.norm(b2 - A2 @ x) <= 1e-10 * np.linalg.norm(b2)
    assert rep.residual <= 1e-10 * np.linalg.norm(b2)


def test_compressible_needs_history():
    ctx = _context(2, 2)
    kappa = np.ones(ctx.mesh.n_active)
    with pytest.raises(ValueError):
        assemble_pressure(ctx, FlowParams(c_F=1e-8), LEFT_RIGHT_FLOW, kappa, m=2)


ALL_NEUMANN = FlowBC(dirichlet={},
                     neumann={"left": 0.0, "right": 0.0,
                              "bottom": 0.0, "top": 0.0})


def _sealed_box_system(ctx, params, dt):
    # center-cell injection at the scale of the radial benchmark
    mesh = ctx.mesh
    idx = mesh.index_of_id(mesh.locate(0.53, 0.47))
    q = np.zeros(mesh.n_active)
    q[idx] = 100.0 * params.rho0 / mesh.cell_area[idx]
    kappa = np.ones(mesh.n_active)
    P_n = np.zeros(ctx.dofmap.n_dofs)
    A, b = assemble_pressure(ctx, params, ALL_NEUMANN, kappa, P_n=P_n,
                             q_cells=q, dt=dt, m=1)
    return A, b, q, kappa, P_n


def test_sealed_box_without_deflation_stalls():
    # the box pressure level sits ~1e12 above the gradient scale, so the
    # plain solve cannot verify a 1e-10 relative residual in double precision
    ctx = _context(8, 8)
    params = FlowParams(rho0=1000.0, c_F=1e-8)
    A, b, *_ = _sealed_box_system(ctx, params, dt=0.005)
    with pytest.raises(SolverError) as err:
        solve_reduced(ctx.dofmap, A, b, tol=1e-10)
    # a complete LU leaves nothing for more iterations to gain: fail at the cap
    iterations = int(re.search(r"after (\d+) iterations", str(err.value))[1])
    assert 0 < iterations <= linalg.RESTART


def test_sealed_box_deflated_solve():
    ctx = _context(8, 8, refine=(27,))
    params = FlowParams(rho0=1000.0, c_F=1e-8)
    dt = 0.005
    A, b, q, kappa, P_n = _sealed_box_system(ctx, params, dt)
    z, w = neutral_pressure_mode(ctx, params, dt, m=1)
    P, rep = solve_reduced(ctx.dofmap, A, b, tol=1e-10, deflate=(z, w))
    assert rep.converged

    # one backward step from rest stores all injected mass in compression:
    # integral of P = dt * integral of q / (rho0 phi c_F)
    mass_coef = params.rho0 * params.phi * params.c_F
    m_vec = w * (dt / mass_coef)           # integral of each basis function
    assert m_vec @ P == pytest.approx(dt * 100.0 * params.rho0 / mass_coef,
                                      rel=1e-10)

    flux = reconstruct_flux(ctx, P, kappa, ALL_NEUMANN, params)
    r = local_conservation_residual(ctx, flux, q, params, dt,
                                    P_np1=P, P_n=P_n, m=1)
    scale = params.rho0 * np.abs(flux.face_un).max()
    assert np.abs(r).max() <= 1e-8 * scale


def test_neutral_mode_needs_compressibility():
    ctx = _context(2, 2)
    with pytest.raises(ValueError):
        neutral_pressure_mode(ctx, FlowParams(), dt=0.1, m=2)
