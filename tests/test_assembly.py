"""Table assembly against the per-term einsum oracle; the shared CSR pattern."""

import gc
import weakref

import numpy as np
import pytest
import scipy.sparse as sp

from egflow import egspace
from egflow.driver import make_config, run
from egflow.egspace import (
    AssemblyContext,
    CSRPattern,
    EGDofMap,
    _unique_inverse,
    cell_field_values,
    face_field_values,
)
from egflow.flow import (
    FaceFlux,
    FlowBC,
    FlowParams,
    assemble_pressure,
    bdf_coefficients,
    neutral_pressure_mode,
    weights,
)
from egflow.mesh import BOUNDARY, HANGING_HIGH, HANGING_LOW, build_uniform
from egflow.transport import (
    SourceField,
    TransportBC,
    TransportParams,
    assemble_transport,
    source_split,
    upwind_value,
)

# ---------------------------------------------------------------------------
# oracle: one einsum per term over the face and cell groups


def _coo(rows, cols, vals, n):
    return sp.coo_matrix((np.concatenate(vals), (np.concatenate(rows),
                                                 np.concatenate(cols))),
                         shape=(n, n)).tocsr()


def _push(rows, cols, vals, dofs, contrib):
    rows.append(np.broadcast_to(dofs[:, :, None], contrib.shape).ravel())
    cols.append(np.broadcast_to(dofs[:, None, :], contrib.shape).ravel())
    vals.append(contrib.ravel())


def _oracle_pressure(ctx, params, bc, kappa_cells, P_n=None, P_nm1=None,
                     q_field=0.0, dt=1.0, m=None):
    dm = ctx.dofmap
    m_eff = params.bdf_order if m is None else m
    a0, a1, a2 = bdf_coefficients(m_eff, dt)
    rho0, alpha, theta = params.rho0, params.alpha, params.theta
    n = dm.n_dofs
    rows, cols, vals = [], [], []
    b = np.zeros(n)
    mass_coef = rho0 * params.phi * params.c_F
    q_qp = cell_field_values(ctx, q_field)
    for g in ctx.cell_groups:
        mloc = np.einsum("q,qa,qb->ab", g.wq, g.N, g.N)
        kloc = np.einsum("q,qad,qbd->ab", g.wq, g.dN, g.dN)
        contrib = (mass_coef * a0) * mloc[None, :, :] \
            + rho0 * kappa_cells[g.idx][:, None, None] * kloc[None, :, :]
        _push(rows, cols, vals, g.dofs, contrib)
        rhs = np.einsum("q,qa,mq->ma", g.wq, g.N, q_qp[g.idx])
        if mass_coef != 0.0:
            hist = -a1 * P_n[g.dofs]
            if m_eff == 2:
                hist -= a2 * P_nm1[g.dofs]
            rhs += mass_coef * np.einsum("ab,mb->ma", mloc, hist)
        np.add.at(b, g.dofs.ravel(), rhs.ravel())
    for g in ctx.face_groups:
        nrm = g.normal
        if g.nb is not None:
            ko, kn = kappa_cells[g.own], kappa_cells[g.nb]
            beta, kap_e = weights(ko, kn, nrm)
            jump = np.hstack([g.N_o, -g.N_n])
            go = np.einsum("qbd,d->qb", g.dN_o, nrm)
            gn = np.einsum("qbd,d->qb", g.dN_n, nrm)
            grad_avg = (beta * ko)[:, None, None] * np.pad(go, ((0, 0), (0, 5)))[None] \
                + ((1.0 - beta) * kn)[:, None, None] * np.pad(gn, ((0, 0), (5, 0)))[None]
            contrib = -rho0 * np.einsum("q,qa,mqb->mab", g.wq, jump, grad_avg)
            contrib += theta * rho0 * np.einsum("q,mqa,qb->mab", g.wq, grad_avg, jump)
            pen = (alpha / g.h_e) * rho0 * kap_e
            contrib += pen[:, None, None] * np.einsum("q,qa,qb->ab", g.wq, jump, jump)[None]
            _push(rows, cols, vals, g.dofs, contrib)
        elif bc.is_dirichlet(g.boundary):
            gD = face_field_values(g, bc.dirichlet[g.boundary])
            ko = kappa_cells[g.own]
            go = np.einsum("qbd,d->qb", g.dN_o, nrm)
            kgo = ko[:, None, None] * go[None]
            contrib = -rho0 * np.einsum("q,qa,mqb->mab", g.wq, g.N_o, kgo)
            contrib += theta * rho0 * np.einsum("q,mqa,qb->mab", g.wq, kgo, g.N_o)
            pen = (alpha / g.h_e) * rho0 * ko
            contrib += pen[:, None, None] * np.einsum("q,qa,qb->ab", g.wq, g.N_o, g.N_o)[None]
            rhs = pen[:, None] * np.einsum("q,qa,mq->ma", g.wq, g.N_o, gD)
            rhs += theta * rho0 * np.einsum("q,mqa,mq->ma", g.wq, kgo, gD)
            np.add.at(b, g.dofs.ravel(), rhs.ravel())
            _push(rows, cols, vals, g.dofs, contrib)
        else:
            gN = face_field_values(g, bc.neumann[g.boundary])
            rhs = -np.einsum("q,qa,mq->ma", g.wq, g.N_o, gN)
            np.add.at(b, g.dofs.ravel(), rhs.ravel())
    return _coo(rows, cols, vals, n), b


def _oracle_transport(ctx, params, bc, flux, D_cells, mu_cells, C_n,
                      C_nm1=None, sources=SourceField(), dt=1.0, m=None):
    dm = ctx.dofmap
    m_eff = params.bdf_order if m is None else m
    a0, a1, a2 = bdf_coefficients(m_eff, dt)
    rho0 = params.rho0
    mass_coef = params.phi * rho0
    qp_pos, qp_neg = source_split(cell_field_values(ctx, sources.q))
    n = dm.n_dofs
    rows, cols, vals = [], [], []
    b = np.zeros(n)
    for g in ctx.cell_groups:
        mloc = np.einsum("q,qa,qb->ab", g.wq, g.N, g.N)
        contrib = (mass_coef * a0) * np.broadcast_to(mloc, (g.idx.size, 5, 5)).copy()
        U = flux.cell_velocity[g.idx]
        contrib -= rho0 * np.einsum("q,qad,mqd,qb->mab", g.wq, g.dN, U, g.N)
        if D_cells is not None:
            contrib += mass_coef * np.einsum("q,qad,mde,qbe->mab", g.wq, g.dN,
                                             D_cells[g.idx], g.dN)
        if mu_cells is not None:
            kloc = np.einsum("q,qad,qbd->ab", g.wq, g.dN, g.dN)
            contrib += mu_cells[g.idx][:, None, None] * kloc[None]
        contrib -= np.einsum("q,qa,qb,mq->mab", g.wq, g.N, g.N, qp_neg[g.idx])
        _push(rows, cols, vals, g.dofs, contrib)
        hist = -a1 * C_n[g.dofs]
        if m_eff == 2:
            hist -= a2 * C_nm1[g.dofs]
        rhs = mass_coef * np.einsum("ab,mb->ma", mloc, hist)
        rhs += np.einsum("q,qa,mq->ma", g.wq, g.N, sources.c_q * qp_pos[g.idx])
        np.add.at(b, g.dofs.ravel(), rhs.ravel())
    mean_un = flux.mean_un
    for g in ctx.face_groups:
        un = flux.face_un[g.idx]
        if g.nb is not None:
            No_pad = np.pad(g.N_o, ((0, 0), (0, 5)))
            Nn_pad = np.pad(g.N_n, ((0, 0), (5, 0)))
            jump = No_pad - Nn_pad
            sel = upwind_value(Nn_pad[None], No_pad[None], un[:, :, None])
            contrib = rho0 * np.einsum("q,mq,qa,mqb->mab", g.wq, un, jump, sel)
            pen = (params.alpha_c / g.h_e) * rho0
            if mu_cells is not None:
                pen = pen + (params.alpha_s / g.h_e) * 0.5 * (mu_cells[g.own] + mu_cells[g.nb])
            pjj = np.einsum("q,qa,qb->ab", g.wq, jump, jump)
            contrib = contrib + np.asarray(pen)[..., None, None] * pjj[None]
            if D_cells is not None or mu_cells is not None:
                go = np.einsum("qbd,d->qb", g.dN_o, g.normal)
                gn = np.einsum("qbd,d->qb", g.dN_n, g.normal)
                G = np.zeros((g.idx.size, 3, 10))
                if D_cells is not None:
                    dno = np.einsum("d,mde,qbe->mqb", g.normal, D_cells[g.own], g.dN_o)
                    dnn = np.einsum("d,mde,qbe->mqb", g.normal, D_cells[g.nb], g.dN_n)
                    G += mass_coef * 0.5 * (np.pad(dno, ((0, 0), (0, 0), (0, 5)))
                                            + np.pad(dnn, ((0, 0), (0, 0), (5, 0))))
                if mu_cells is not None:
                    G += 0.5 * (mu_cells[g.own][:, None, None] * np.pad(go, ((0, 0), (0, 5)))[None]
                                + mu_cells[g.nb][:, None, None] * np.pad(gn, ((0, 0), (5, 0)))[None])
                contrib -= np.einsum("q,qa,mqb->mab", g.wq, jump, G)
            _push(rows, cols, vals, g.dofs, contrib)
        else:
            out = mean_un[g.idx] >= 0.0
            if np.any(out):
                sl = np.nonzero(out)[0]
                contrib = rho0 * np.einsum("q,mq,qa,qb->mab", g.wq, un[sl], g.N_o, g.N_o)
                _push(rows, cols, vals, g.dofs[sl], contrib)
            if np.any(~out):
                sl = np.nonzero(~out)[0]
                cin = face_field_values(g, bc.side_value(g.boundary))[sl]
                rhs = -rho0 * np.einsum("q,mq,mq,qa->ma", g.wq, un[sl], cin, g.N_o)
                np.add.at(b, g.dofs[sl].ravel(), rhs.ravel())
    return _coo(rows, cols, vals, n), b


# ---------------------------------------------------------------------------
# random hanging meshes and data


def _random_context(seed):
    rng = np.random.default_rng(seed)
    nx, ny = (int(v) for v in rng.integers(2, 5, 2))
    mesh = build_uniform((0.0, -0.3, 1.7, 0.9), nx, ny)
    # one interior refinement puts hanging faces on all four sides of a patch
    mesh = mesh.refine([mesh.locate(0.85, 0.3)])
    for _ in range(3):
        ok = mesh.cell_id[mesh.cell_level < 3]
        mesh, _ = mesh.adapt(rng.choice(ok, size=min(3, ok.size), replace=False),
                             rng.choice(mesh.cell_id, size=mesh.n_active // 4,
                                        replace=False))
    hang = np.isin(mesh.face_kind, (HANGING_LOW, HANGING_HIGH))
    for kind in (HANGING_LOW, HANGING_HIGH):
        assert set(mesh.face_dir[mesh.face_kind == kind].tolist()) == {0, 1, 2, 3}
    assert hang.any()
    return AssemblyContext(mesh, EGDofMap(mesh)), rng


def _random_flux(ctx, rng):
    mesh = ctx.mesh
    face_un = rng.standard_normal((mesh.n_faces, 3))
    bnd = np.flatnonzero(mesh.face_kind == BOUNDARY)
    mean = face_un[bnd] @ (np.array([5.0, 8.0, 5.0]) / 18.0)
    assert (mean < 0).any() and (mean >= 0).any()   # inflow and outflow faces
    vel = rng.standard_normal((mesh.n_active, 9, 2))
    return FaceFlux(face_un=face_un, cell_velocity=vel,
                    center_velocity=vel.mean(axis=1))


def _close(A, b, A_ref, b_ref):
    scale = abs(A_ref).max()
    assert abs(A - A_ref).max() <= 1e-13 * scale
    assert np.abs(b - b_ref).max() <= 1e-13 * max(np.abs(b_ref).max(), 1e-300)


SIDE_DATA = {"left": lambda x, y: 1.0 + 0.3 * y, "right": 0.2,
             "bottom": lambda x, y: np.sin(x), "top": -0.4}


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("theta", [-1.0, 0.0, 1.0])
@pytest.mark.parametrize("c_F,m", [(0.0, None), (0.05, 1), (0.05, 2)])
def test_pressure_matches_oracle(seed, theta, c_F, m):
    ctx, rng = _random_context(seed)
    nc, n = ctx.mesh.n_active, ctx.dofmap.n_dofs
    kappa = np.exp(rng.standard_normal(nc))
    bc = FlowBC(dirichlet={s: SIDE_DATA[s] for s in ("left", "bottom")},
                neumann={s: SIDE_DATA[s] for s in ("right", "top")})
    params = FlowParams(theta=theta, c_F=c_F, phi=0.3, rho0=2.0)
    args = dict(P_n=rng.standard_normal(n), P_nm1=rng.standard_normal(n),
                q_field=rng.standard_normal((nc, 9)), dt=0.1, m=m)
    A, b = assemble_pressure(ctx, params, bc, kappa, **args)
    _close(A, b, *_oracle_pressure(ctx, params, bc, kappa, **args))


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("with_D", [False, True])
@pytest.mark.parametrize("with_mu", [False, True])
@pytest.mark.parametrize("m", [1, 2])
def test_transport_matches_oracle(seed, with_D, with_mu, m):
    ctx, rng = _random_context(seed)
    nc, n = ctx.mesh.n_active, ctx.dofmap.n_dofs
    flux = _random_flux(ctx, rng)
    M = rng.standard_normal((nc, 2, 2))
    D = M @ M.transpose(0, 2, 1) + 0.1 * np.eye(2) if with_D else None
    mu = rng.random(nc) if with_mu else None
    params = TransportParams(phi=0.4, rho0=1.5, alpha_s=0.7)
    bc = TransportBC(c_in={"left": lambda x, y: 0.5 + 0.2 * y, "bottom": 0.9})
    src = SourceField(q=rng.standard_normal((nc, 9)), c_q=0.7)
    args = dict(C_n=rng.standard_normal(n), C_nm1=rng.standard_normal(n),
                sources=src, dt=0.05, m=m)
    A, b = assemble_transport(ctx, params, bc, flux, D, mu, **args)
    _close(A, b, *_oracle_transport(ctx, params, bc, flux, D, mu, **args))


def test_neutral_mode_matches_oracle():
    ctx, _ = _random_context(4)
    params = FlowParams(c_F=1e-3, rho0=3.0)
    z, w = neutral_pressure_mode(ctx, params, 0.1, m=2)
    z_ref, w_ref = np.zeros(ctx.dofmap.n_dofs), np.zeros(ctx.dofmap.n_dofs)
    for g in ctx.cell_groups:
        z_ref[g.dofs[:, :4]] = 1.0
        wloc = np.einsum("q,qa->a", g.wq, g.N)
        np.add.at(w_ref, g.dofs.ravel(), np.broadcast_to(wloc, g.dofs.shape).ravel())
    w_ref *= params.rho0 * params.phi * params.c_F * bdf_coefficients(2, 0.1)[0]
    assert np.array_equal(z, z_ref)
    assert np.abs(w - w_ref).max() <= 1e-14 * np.abs(w_ref).max()


# ---------------------------------------------------------------------------
# the pattern


def test_pressure_and_transport_share_the_pattern():
    ctx, rng = _random_context(5)
    nc, n = ctx.mesh.n_active, ctx.dofmap.n_dofs
    bc = FlowBC(dirichlet={"left": 1.0}, neumann={"right": 0.0, "bottom": 0.0, "top": 0.0})
    A_p, _ = assemble_pressure(ctx, FlowParams(), bc, np.ones(nc))
    A_t, _ = assemble_transport(ctx, TransportParams(), TransportBC(),
                                _random_flux(ctx, rng), None, None,
                                np.zeros(n), m=1)
    assert np.array_equal(A_p.indptr, A_t.indptr)
    assert np.array_equal(A_p.indices, A_t.indices)
    assert A_p.has_canonical_format and A_t.has_canonical_format
    # the union of all local blocks; boundary blocks add no entries
    ref = _coo([np.broadcast_to(g.dofs[:, :, None], (len(g.dofs),) + 2 * g.dofs.shape[1:]).ravel()
                for g in ctx.cell_groups + ctx.interior_groups],
               [np.broadcast_to(g.dofs[:, None, :], (len(g.dofs),) + 2 * g.dofs.shape[1:]).ravel()
                for g in ctx.cell_groups + ctx.interior_groups],
               [np.ones(len(g.dofs) * g.dofs.shape[1] ** 2)
                for g in ctx.cell_groups + ctx.interior_groups], n)
    assert np.array_equal(A_p.indptr, ref.indptr)
    assert np.array_equal(A_p.indices, ref.indices)


def test_pattern_sums_duplicates():
    rows = np.array([0, 1, 0, 1, 0])
    cols = np.array([0, 1, 1, 1, 0])
    vals = np.array([4.0, 1.0, 1.0, 2.0, -1.0])
    A = CSRPattern.from_triplets(rows, cols, (2, 2)).matrix(vals)
    ref = sp.coo_matrix((vals, (rows, cols)), shape=(2, 2)).toarray()
    assert np.allclose(A.toarray(), ref)
    assert A.has_canonical_format


def test_pattern_triplet_order_invariant():
    rng = np.random.default_rng(3)
    rows = rng.integers(0, 6, 40)
    cols = rng.integers(0, 6, 40)
    vals = rng.standard_normal(40)
    A = CSRPattern.from_triplets(rows, cols, (6, 6)).matrix(vals)
    p = rng.permutation(40)
    B = CSRPattern.from_triplets(rows[p], cols[p], (6, 6)).matrix(vals[p])
    assert np.allclose(A.toarray(), B.toarray())


@pytest.mark.parametrize("bound", [50, 2**62])
def test_unique_inverse_matches_numpy(bound):
    # a bound too large to pack a key with its position takes numpy's path
    key = np.random.default_rng(9).integers(0, 50, 300)
    uniq, inv = _unique_inverse(key, bound)
    ref_u, ref_inv = np.unique(key, return_inverse=True)
    assert np.array_equal(uniq, ref_u) and np.array_equal(inv, ref_inv)


def test_one_plan_per_context(monkeypatch):
    builds, contexts = [], []
    plan, init = egspace._assembly_pattern, AssemblyContext.__init__

    def counting_plan(*args):
        builds.append(1)
        return plan(*args)

    def counting_init(self, *args, **kwargs):
        contexts.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(egspace, "_assembly_pattern", counting_plan)
    monkeypatch.setattr(AssemblyContext, "__init__", counting_init)
    cfg = make_config("perm_block", r_max=2, t_end=0.06)
    res = run(cfg)
    assert len(contexts) >= 3                 # the mesh adapted during the run
    # one build per context, none per assembly call (two calls per step)
    assert len(builds) == len(contexts) < 2 * len(res.records)


def test_replaced_context_is_freed_without_gc():
    ctx, rng = _random_context(6)
    nc, n = ctx.mesh.n_active, ctx.dofmap.n_dofs
    bc = FlowBC(dirichlet={"left": 1.0}, neumann={"right": 0.0, "bottom": 0.0, "top": 0.0})
    assemble_pressure(ctx, FlowParams(), bc, np.ones(nc))
    assemble_transport(ctx, TransportParams(), TransportBC(), _random_flux(ctx, rng),
                       None, None, np.zeros(n), m=1)
    ref = weakref.ref(ctx)
    gc.disable()
    try:
        del ctx
        assert ref() is None       # no reference cycle holds the context
    finally:
        gc.enable()
