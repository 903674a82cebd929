"""Table assembly into the reduced, pinned system against the per-term einsum
oracle reduced by P^T A P; the shared plan, and the one-sort plan against
the full-layout plan it replaced; flux recovery and the entropy indicator,
evaluated through the context's tables, against the einsum evaluators."""

import gc
import weakref
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings, strategies as st

from egflow import egspace, stabilization
from egflow.driver import make_config, run
from egflow.egspace import (
    CELL_WEIGHTS,
    FACE_WEIGHTS,
    AssemblyContext,
    AssemblyPlan,
    EGDofMap,
    Scatter,
    _frozen_index,
    _index_type,
    _unique_inverse,
    interpolate,
    q1_grads,
    q1_values,
)
from egflow.flow import (
    FaceFlux,
    FlowBC,
    FlowParams,
    assemble_pressure,
    bdf_coefficients,
    neutral_pressure_mode,
    reconstruct_flux,
    weights,
)
from egflow.mesh import (BOUNDARY, CONFORMING, DIR_NORMAL, EAST, HANGING_HIGH, HANGING_LOW,
                         WEST, build_uniform)
from egflow.stabilization import EntropyConfig, entropy_eval, face_residual, indicator
from egflow.transport import (
    TransportBC,
    TransportParams,
    assemble_transport,
    source_split,
    upwind_value,
)

# ---------------------------------------------------------------------------
# oracle: one einsum per term over the face and cell groups


def _cells(ctx):
    """Every cell as one oracle group, with the context's arrays."""
    nc = ctx.mesh.n_active
    return [SimpleNamespace(cell=True, idx=np.arange(nc), dofs=ctx.dofmap.cell_dofs,
                            qx=ctx.cell_qx, qy=ctx.cell_qy, table=egspace.CELL_TABLE)]


def _unfolded(d, kind):
    """The (13, 100) or (5, 25) table of a face class before the fold: one
    column per local (row, col) entry."""
    if kind == BOUNDARY:
        return egspace._boundary_tables(d)[0]
    return egspace._interior_tables(d, kind)[0]


def _faces(ctx, groups=None):
    """Each face group of a context (or `groups`) as an oracle group, with
    its slice of the context's per-face arrays and its unfolded table."""
    out = []
    for g in ctx.face_groups if groups is None else groups:
        f = g.sl
        inner = g.boundary is None
        out.append(SimpleNamespace(
            cell=False, idx=np.arange(f.start, f.stop), own=ctx.own[f],
            nb=ctx.nb[f] if inner else None,
            dofs=ctx.face_dofs[f] if inner else ctx.face_dofs[f, :5],
            qx=ctx.face_qx[f], qy=ctx.face_qy[f], dir=g.dir, kind=g.kind,
            normal=DIR_NORMAL[g.dir], boundary=g.boundary, table=_unfolded(g.dir, g.kind)))
    return out


def _side_values(g, data):
    """(m, 3) values of one side's boundary datum at the quadrature points
    of oracle faces g."""
    return np.full(g.qx.shape, float(data))


def _source_values(ctx, q_cells):
    """(n_cells, 9) values of a scalar or per-cell source at the volume
    quadrature points."""
    out = np.empty((ctx.mesh.n_active, 9))
    out[...] = np.asarray(q_cells, dtype=float)[..., None]
    return out


def _shaped(ctx, groups):
    """The entities of each group, split by level, with the sizes and shape
    arrays the oracle reads.  Sizes come from the mesh at each cell's level
    (the owner's, for a face), never from the context: h = (hx, hy) and the
    physical weights wq everywhere, h_e on a face.  Shapes come from
    q1_values and q1_grads at the reference points, gradients physical: N,
    dN on a cell; N_o, dN_o on a face and N_n, dN_n on interior ones."""
    mesh = ctx.mesh
    for g in groups:
        cell = g.cell
        level = mesh.cell_level[g.idx if cell else g.own]
        for lev in np.unique(level).tolist():
            at = np.flatnonzero(level == lev)
            h = np.array(mesh._cell_size(lev))
            part = dict(idx=g.idx[at], dofs=g.dofs[at], qx=g.qx[at], qy=g.qy[at], h=h)
            if cell:
                pts = egspace._CELL_PTS
                yield SimpleNamespace(**part, wq=CELL_WEIGHTS * h[0] * h[1],
                                      N=q1_values(*pts.T), dN=q1_grads(*pts.T) / h)
                continue
            h_e = h[1] if g.dir in (EAST, WEST) else h[0]
            pts = egspace._face_ref_coords(g.dir, egspace._G3)
            shapes = dict(N_o=q1_values(*pts.T), dN_o=q1_grads(*pts.T) / h)
            if g.nb is not None:
                pts = egspace._neighbor_ref_coords(g.dir, g.kind, egspace._G3)
                scale = 1.0 if g.kind == CONFORMING else 2.0
                shapes.update(N_n=q1_values(*pts.T), dN_n=q1_grads(*pts.T) / (h * scale))
            yield SimpleNamespace(**part, **shapes, own=g.own[at],
                                  nb=None if g.nb is None else g.nb[at],
                                  dir=g.dir, kind=g.kind, normal=g.normal,
                                  boundary=g.boundary, h_e=h_e, wq=FACE_WEIGHTS * h_e)


def _coo(rows, cols, vals, n):
    return sp.coo_matrix((np.concatenate(vals), (np.concatenate(rows),
                                                 np.concatenate(cols))),
                         shape=(n, n)).tocsr()


def _push(rows, cols, vals, dofs, contrib):
    rows.append(np.broadcast_to(dofs[:, :, None], contrib.shape).ravel())
    cols.append(np.broadcast_to(dofs[:, None, :], contrib.shape).ravel())
    vals.append(contrib.ravel())


def _oracle_pressure(ctx, params, bc, kappa_cells, P_n=None, P_nm1=None,
                     q_cells=0.0, dt=1.0, *, m):
    dm = ctx.dofmap
    a0, a1, a2 = bdf_coefficients(m, dt)
    rho0, alpha = params.rho0, params.alpha
    n = dm.n_dofs
    rows, cols, vals = [], [], []
    b = np.zeros(n)
    mass_coef = rho0 * params.phi * params.c_F
    q_qp = _source_values(ctx, q_cells)
    for g in _shaped(ctx, _cells(ctx)):
        mloc = np.einsum("q,qa,qb->ab", g.wq, g.N, g.N)
        kloc = np.einsum("q,qad,qbd->ab", g.wq, g.dN, g.dN)
        contrib = (mass_coef * a0) * mloc[None, :, :] \
            + rho0 * kappa_cells[g.idx][:, None, None] * kloc[None, :, :]
        _push(rows, cols, vals, g.dofs, contrib)
        rhs = np.einsum("q,qa,mq->ma", g.wq, g.N, q_qp[g.idx])
        if mass_coef != 0.0:
            hist = -a1 * P_n[g.dofs]
            if m == 2:
                hist -= a2 * P_nm1[g.dofs]
            rhs += mass_coef * np.einsum("ab,mb->ma", mloc, hist)
        np.add.at(b, g.dofs.ravel(), rhs.ravel())
    for g in _shaped(ctx, _faces(ctx)):
        nrm = g.normal
        if g.nb is not None:
            ko, kn = kappa_cells[g.own], kappa_cells[g.nb]
            beta, kap_e = weights(ko, kn)
            jump = np.hstack([g.N_o, -g.N_n])
            go = np.einsum("qbd,d->qb", g.dN_o, nrm)
            gn = np.einsum("qbd,d->qb", g.dN_n, nrm)
            grad_avg = (beta * ko)[:, None, None] * np.pad(go, ((0, 0), (0, 5)))[None] \
                + ((1.0 - beta) * kn)[:, None, None] * np.pad(gn, ((0, 0), (5, 0)))[None]
            contrib = -rho0 * np.einsum("q,qa,mqb->mab", g.wq, jump, grad_avg)
            pen = (alpha / g.h_e) * rho0 * kap_e
            contrib += pen[:, None, None] * np.einsum("q,qa,qb->ab", g.wq, jump, jump)[None]
            _push(rows, cols, vals, g.dofs, contrib)
        elif g.boundary in bc.dirichlet:
            gD = _side_values(g, bc.dirichlet[g.boundary])
            ko = kappa_cells[g.own]
            go = np.einsum("qbd,d->qb", g.dN_o, nrm)
            kgo = ko[:, None, None] * go[None]
            contrib = -rho0 * np.einsum("q,qa,mqb->mab", g.wq, g.N_o, kgo)
            pen = (alpha / g.h_e) * rho0 * ko
            contrib += pen[:, None, None] * np.einsum("q,qa,qb->ab", g.wq, g.N_o, g.N_o)[None]
            rhs = pen[:, None] * np.einsum("q,qa,mq->ma", g.wq, g.N_o, gD)
            np.add.at(b, g.dofs.ravel(), rhs.ravel())
            _push(rows, cols, vals, g.dofs, contrib)
        else:
            gN = _side_values(g, bc.neumann[g.boundary])
            rhs = -np.einsum("q,qa,mq->ma", g.wq, g.N_o, gN)
            np.add.at(b, g.dofs.ravel(), rhs.ravel())
    return _coo(rows, cols, vals, n), b


def _oracle_transport(ctx, medium, params, bc, flux, D_cells, mu_cells, C_n,
                      C_nm1=None, q_cells=0.0, dt=1.0, *, m):
    dm = ctx.dofmap
    a0, a1, a2 = bdf_coefficients(m, dt)
    rho0 = medium.rho0
    mass_coef = medium.phi * rho0
    # the viscosity is a diffusivity: it enters with the density
    mu_cells = None if mu_cells is None else rho0 * mu_cells
    qp_pos, qp_neg = source_split(_source_values(ctx, q_cells))
    n = dm.n_dofs
    rows, cols, vals = [], [], []
    b = np.zeros(n)
    for g in _shaped(ctx, _cells(ctx)):
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
        if m == 2:
            hist -= a2 * C_nm1[g.dofs]
        rhs = mass_coef * np.einsum("ab,mb->ma", mloc, hist)
        rhs += np.einsum("q,qa,mq->ma", g.wq, g.N, qp_pos[g.idx])
        np.add.at(b, g.dofs.ravel(), rhs.ravel())
    mean_un = flux.mean_un
    for g in _shaped(ctx, _faces(ctx)):
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
                cin = _side_values(g, bc.side_value(g.boundary))[sl]
                rhs = -rho0 * np.einsum("q,mq,mq,qa->ma", g.wq, un[sl], cin, g.N_o)
                np.add.at(b, g.dofs[sl].ravel(), rhs.ravel())
    return _coo(rows, cols, vals, n), b


# ---------------------------------------------------------------------------
# plan oracle: the full-layout sort, then the reduction of its unique entries


def _expand(P, rows, cols):
    """Reduced pairs of full-layout entries (rows, cols) through the CSR
    matrix P, whose rows hold one entry per free dof, two per hanging one
    and none for the pinned one: entry i expands to every pair of its row's
    and its column's stencils.  Returns the entry of each pair, its reduced
    row and column, and its weight."""
    n_st = np.diff(P.indptr)
    i, j = np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1])
    e, k = np.nonzero((i < n_st[rows][:, None]) & (j < n_st[cols][:, None]))
    ri = P.indptr[rows[e]] + i[k]
    ci = P.indptr[cols[e]] + j[k]
    return e, P.indices[ri], P.indices[ci], P.data[ri] * P.data[ci]


def _union_slots(ascending, more, bound):
    """Sorted union of an ascending array of unique keys and more keys in
    [0, bound), and the position in it of the keys of each of the two.

    A stable sort of the two ascending runs is a merge."""
    more, _, inverse = _unique_inverse(more, bound)
    keys = np.concatenate([ascending, more])
    order = np.argsort(keys, kind="stable")
    srt = keys[order]
    new = np.ones(keys.size, dtype=bool)
    np.not_equal(srt[1:], srt[:-1], out=new[1:])
    slot = np.empty(keys.size, dtype=np.intp)
    slot[order] = np.cumsum(new) - 1
    return srt[new], slot[:ascending.size], slot[ascending.size:][inverse]


def _reduced_entries(dm, full):
    """The reduced, pinned pattern of the ascending full-layout entries
    `full` (keys row * n_dofs + col), as CSR (indptr, indices), and the
    Scatter that sums values given per full entry into it: one bin per
    entry that touches a hanging vertex, distributed onto its master pairs."""
    frow, fcol = np.divmod(full, dm.n_dofs)
    Pp = dm.P[:, :-1]          # each dof's reduced stencil, without the pinned dof
    n = Pp.shape[1]
    n_st = np.diff(Pp.indptr)
    red_of = dm.full_to_reduced
    cnt = n_st[frow] * n_st[fcol]
    one = np.flatnonzero(cnt == 1)
    hang = np.flatnonzero(cnt > 1)
    e, hr, hc, w = _expand(Pp, frow[hang], fcol[hang])
    keys, one_slot, pair_slot = _union_slots(red_of[frow[one]] * n + red_of[fcol[one]],
                                             hr.astype(np.int64) * n + hc, n * n)
    size, dropped = keys.size, keys.size + hang.size
    bin_of = np.full(full.size, dropped, dtype=np.intp)
    bin_of[one] = one_slot
    bin_of[hang] = np.arange(size, dropped)
    itype = _index_type((n, n))
    row = keys // n
    indptr = np.zeros(n + 1, dtype=itype)
    np.cumsum(np.bincount(row, minlength=n), out=indptr[1:])
    return (indptr, (keys - row * n).astype(itype),
            Scatter(size=size, bins=dropped + 1, slot=bin_of, src=size + e,
                    dst=pair_slot, w=w))


def _oracle_plan(dm, cells, interior, boundary):
    """The plan from one sort of every cell-block and live cross entry in
    the full layout, reduced afterwards (see _reduced_entries)."""
    n_full = dm.n_dofs
    cd = np.concatenate([g.dofs for g in cells])
    cd_key = cd.astype(_index_type((n_full, n_full)))
    pos = np.empty(len(cd), dtype=np.intp)
    pos[np.concatenate([g.idx for g in cells])] = np.arange(len(cd))
    so = pos[np.concatenate([g.own for g in interior] + [np.empty(0, np.intp)])]
    sn = pos[np.concatenate([g.nb for g in interior] + [np.empty(0, np.intp)])]
    sb = pos[np.concatenate([g.own for g in boundary] + [np.empty(0, np.intp)])]
    fo, fn = cd_key[so], cd_key[sn]
    nc, nf = len(cd), len(so)
    live = np.concatenate([np.broadcast_to(g.table.any(axis=0).reshape(2, 5, 2, 5),
                                           (g.idx.size, 2, 5, 2, 5)) for g in interior]
                          + [np.empty((0, 2, 5, 2, 5), dtype=bool)])
    x_on, x_no = live[:, 0, :, 1], live[:, 1, :, 0]
    key = np.concatenate([(cd_key[:, :, None] * n_full + cd_key[:, None, :]).ravel(),
                          (fo[:, :, None] * n_full + fn[:, None, :])[x_on],
                          (fn[:, :, None] * n_full + fo[:, None, :])[x_no]])
    full, _, primary = _unique_inverse(key, n_full * n_full)
    indptr, indices, by_full = _reduced_entries(dm, full)
    primary = by_full.slot[primary]
    dropped = by_full.bins - 1

    slot = np.empty(25 * nc + 100 * nf + 25 * len(sb), dtype=np.intp)
    cell = slot[:25 * nc].reshape(nc, 5, 5)
    cell[...] = primary[:25 * nc].reshape(nc, 5, 5)
    face = slot[25 * nc:25 * nc + 100 * nf].reshape(nf, 2, 5, 2, 5)  # [f, side, a, side, b]
    face[:, 0, :, 0] = cell[so]
    face[:, 1, :, 1] = cell[sn]
    for x, mask, start in ((face[:, 0, :, 1], x_on, 25 * nc),
                           (face[:, 1, :, 0], x_no, primary.size - np.count_nonzero(x_no))):
        cross = np.full(mask.shape, dropped, dtype=np.intp)
        cross[mask] = primary[start:start + np.count_nonzero(mask)]
        x[...] = cross
    slot[25 * nc + 100 * nf:].reshape(-1, 5, 5)[...] = cell[sb]
    matrix = Scatter(size=by_full.size, bins=by_full.bins, slot=slot,
                     src=by_full.src, dst=by_full.dst, w=by_full.w)

    # rhs rows: free dofs map 1:1, hanging ones onto their two masters
    n = indptr.size - 1
    red_of = dm.full_to_reduced
    hung = dm.constrained
    row_bin = np.full(n_full, n + hung.size, dtype=np.intp)      # dropped
    free = (red_of >= 0) & (red_of < n)
    row_bin[free] = red_of[free]
    row_bin[hung] = np.arange(n, n + hung.size)
    rhs = Scatter(size=n, bins=n + hung.size + 1,
                  slot=row_bin[np.concatenate([cd.ravel(), cd[sb].ravel()])],
                  src=np.repeat(row_bin[hung], 2), dst=red_of[dm.masters].ravel(),
                  w=np.full(2 * hung.size, 0.5))
    return AssemblyPlan(shape=(n, n), indptr=_frozen_index(indptr),
                        indices=_frozen_index(indices), matrix=matrix, rhs=rhs)


def _folded(ctx, ref):
    """The oracle plan `ref`, whose face blocks list every local entry, on
    the context's folded face layout: the entries that a group's fold sends
    to one column must share one bin, which is then that column's slot."""
    nc = ctx.mesh.n_active
    slot = ref.matrix.slot
    parts, at = [slot[:25 * nc]], 25 * nc
    for g in ctx.face_groups:
        m, k = g.sl.stop - g.sl.start, g.fold.size
        full = slot[at:at + m * k].reshape(m, k)
        at += m * k
        kept = np.flatnonzero(g.fold >= 0)
        first = np.array([np.flatnonzero(g.fold == t)[0] for t in range(g.table.shape[1])])
        assert np.array_equal(full[:, kept], full[:, first[g.fold[kept]]])
        parts.append(full[:, first].ravel())
    assert at == slot.size
    return replace(ref, matrix=replace(ref.matrix, slot=np.concatenate(parts)))


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


def _reduced(dm, A, b):
    """P^T A P and P^T b of a full-layout system."""
    return (dm.P.T @ A @ dm.P).tocsr(), dm.P.T @ b


def _pinned(dm, A, b):
    """The reduced system without the pinned last row and column."""
    A_red, b_red = _reduced(dm, A, b)
    return A_red[:-1, :-1], b_red[:-1]


def _close(A, b, A_ref, b_ref):
    assert A.shape == A_ref.shape and b.shape == b_ref.shape
    scale = abs(A_ref).max()
    assert abs(A - A_ref).max() <= 1e-13 * scale
    assert np.abs(b - b_ref).max() <= 1e-13 * max(np.abs(b_ref).max(), 1e-300)


SIDE_DATA = {"left": 1.3, "right": 0.2, "bottom": -0.7, "top": -0.4}


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("c_F,m", [(0.0, None), (0.05, 1), (0.05, 2)])
def test_pressure_matches_oracle(seed, c_F, m):
    # without compressibility no time derivative enters (m None): both orders
    ctx, rng = _random_context(seed)
    nc, n = ctx.mesh.n_active, ctx.dofmap.n_dofs
    kappa = np.exp(rng.standard_normal(nc))
    bc = FlowBC(dirichlet={s: SIDE_DATA[s] for s in ("left", "bottom")},
                neumann={s: SIDE_DATA[s] for s in ("right", "top")})
    params = FlowParams(c_F=c_F, phi=0.3, rho0=2.0)
    args = dict(P_n=rng.standard_normal(n), P_nm1=rng.standard_normal(n),
                q_cells=rng.standard_normal(nc), dt=0.1)
    for order in (1, 2) if m is None else (m,):
        A, b = assemble_pressure(ctx, params, bc, kappa, **args, m=order)
        ref = _oracle_pressure(ctx, params, bc, kappa, **args, m=order)
        _close(A, b, *_pinned(ctx.dofmap, *ref))


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
    medium = FlowParams(phi=0.4, rho0=1.5)
    params = TransportParams(alpha_s=0.7)
    bc = TransportBC(c_in={"left": 0.6, "bottom": 0.9})
    args = dict(C_n=rng.standard_normal(n), C_nm1=rng.standard_normal(n),
                q_cells=rng.standard_normal(nc), dt=0.05, m=m)
    # zero coefficients assemble the system the oracle builds without the terms
    A, b = assemble_transport(ctx, medium, params, bc, flux,
                              np.zeros((nc, 2, 2)) if D is None else D,
                              np.zeros(nc) if mu is None else mu, **args)
    _close(A, b, *_pinned(ctx.dofmap, *_oracle_transport(ctx, medium, params, bc, flux,
                                                         D, mu, **args)))


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_gauge_vector_is_a_null_vector(seed):
    # z = (+1 on free vertex dofs, -1 on cell constants) is the zero function,
    # so it is a null vector of both reduced operators from either side; the
    # assembled systems pin the last reduced dof because of it, so this is
    # checked on the oracle, which the assembled systems match
    ctx, rng = _random_context(seed)
    dm = ctx.dofmap
    nc, n = ctx.mesh.n_active, dm.n_dofs
    z = np.where(np.arange(dm.n_reduced) < dm.n_free_cg, 1.0, -1.0)
    bc = FlowBC(dirichlet={s: SIDE_DATA[s] for s in ("left", "bottom")},
                neumann={s: SIDE_DATA[s] for s in ("right", "top")})
    systems = [
        _oracle_pressure(ctx, FlowParams(c_F=0.05), bc, np.exp(rng.standard_normal(nc)),
                         P_n=rng.standard_normal(n), q_cells=rng.standard_normal(nc),
                         dt=0.1, m=1),
        _oracle_transport(ctx, FlowParams(), TransportParams(), TransportBC(c_in=0.7),
                          _random_flux(ctx, rng), None, rng.random(nc),
                          rng.standard_normal(n), m=1),
    ]
    for A, b in systems:
        A_red, b_red = _reduced(dm, A, b)
        scale = spla.norm(A_red) * np.linalg.norm(z)
        assert np.linalg.norm(A_red @ z) <= 1e-14 * scale
        assert np.linalg.norm(A_red.T @ z) <= 1e-14 * scale
        assert abs(b_red @ z) <= 1e-14 * np.linalg.norm(b_red) * np.linalg.norm(z)


def test_neutral_mode_matches_oracle():
    ctx, _ = _random_context(4)
    params = FlowParams(c_F=1e-3, rho0=3.0)
    z, w = neutral_pressure_mode(ctx, params, 0.1, m=2)
    z_ref, w_ref = np.zeros(ctx.dofmap.n_dofs), np.zeros(ctx.dofmap.n_dofs)
    for g in _shaped(ctx, _cells(ctx)):
        z_ref[g.dofs[:, :4]] = 1.0
        wloc = np.einsum("q,qa->a", g.wq, g.N)
        np.add.at(w_ref, g.dofs.ravel(), np.broadcast_to(wloc, g.dofs.shape).ravel())
    w_ref *= params.rho0 * params.phi * params.c_F * bdf_coefficients(2, 0.1)[0]
    assert np.array_equal(z, z_ref)
    assert np.abs(w - w_ref).max() <= 1e-14 * np.abs(w_ref).max()


# ---------------------------------------------------------------------------
# evaluation: flux recovery and the indicator against the einsum evaluators


def _oracle_cell_values(ctx, coeffs):
    out = np.empty((ctx.mesh.n_active, 9))
    for g in _shaped(ctx, _cells(ctx)):
        out[g.idx] = np.einsum("qb,mb->mq", g.N, coeffs[g.dofs])
    return out


def _oracle_cell_gradients(ctx, coeffs):
    out = np.empty((ctx.mesh.n_active, 9, 2))
    for g in _shaped(ctx, _cells(ctx)):
        out[g.idx] = np.einsum("qbd,mb->mqd", g.dN, coeffs[g.dofs])
    return out


def _oracle_flux(ctx, P, kappa_cells, bc, params):
    mesh = ctx.mesh
    rho0, alpha = params.rho0, params.alpha
    cell_velocity = -kappa_cells[:, None, None] * _oracle_cell_gradients(ctx, P)
    dNc = q1_grads(0.5, 0.5)
    center_velocity = np.empty((mesh.n_active, 2))
    for g in _shaped(ctx, _cells(ctx)):
        gc = np.einsum("bd,mb->md", dNc / g.h, P[g.dofs])
        center_velocity[g.idx] = -kappa_cells[g.idx][:, None] * gc
    face_un = np.empty((mesh.n_faces, 3))
    for g in _shaped(ctx, _faces(ctx)):
        nrm = g.normal
        Po = np.einsum("qb,mb->mq", g.N_o, P[g.dofs[:, :5]])
        go = np.einsum("qbd,mb,d->mq", g.dN_o, P[g.dofs[:, :5]], nrm)
        if g.nb is not None:
            Pn = np.einsum("qb,mb->mq", g.N_n, P[g.dofs[:, 5:]])
            gn = np.einsum("qbd,mb,d->mq", g.dN_n, P[g.dofs[:, 5:]], nrm)
            ko, kn = kappa_cells[g.own], kappa_cells[g.nb]
            beta, kap_e = weights(ko, kn)
            un = -(beta[:, None] * ko[:, None] * go
                   + (1.0 - beta[:, None]) * kn[:, None] * gn) \
                + (alpha / g.h_e) * kap_e[:, None] * (Po - Pn)
        elif g.boundary in bc.dirichlet:
            gD = _side_values(g, bc.dirichlet[g.boundary])
            ko = kappa_cells[g.own][:, None]
            un = -ko * go + (alpha / g.h_e) * ko * (Po - gD)
        else:
            un = _side_values(g, bc.neumann[g.boundary]) / rho0
        face_un[g.idx] = un
    return FaceFlux(face_un=face_un, cell_velocity=cell_velocity,
                    center_velocity=center_velocity)


def _oracle_face_residual(config, ctx, C_star, flux):
    J = np.zeros(ctx.mesh.n_faces)
    for g in _shaped(ctx, _faces(ctx, ctx.interior_groups)):
        Eo = entropy_eval(config, np.einsum("qb,mb->mq", g.N_o, C_star[g.dofs[:, :5]]))[0]
        En = entropy_eval(config, np.einsum("qb,mb->mq", g.N_n, C_star[g.dofs[:, 5:]]))[0]
        un = flux.face_un[g.idx]
        J[g.idx] = (np.abs(un) * np.abs(Eo - En)).max(axis=1) / g.h_e
    return J


def _rel_close(a, ref, tol=1e-13):
    assert a.shape == ref.shape
    assert np.abs(a - ref).max() <= tol * np.abs(ref).max()


FLOW_BC = FlowBC(dirichlet={s: SIDE_DATA[s] for s in ("left", "bottom")},
                 neumann={s: SIDE_DATA[s] for s in ("right", "top")})


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_flux_matches_oracle(seed):
    ctx, rng = _random_context(seed)
    P = ctx.dofmap.distribute(rng.standard_normal(ctx.dofmap.n_dofs))
    kappa = np.exp(rng.standard_normal(ctx.mesh.n_active))
    params = FlowParams(rho0=2.0, alpha=5.0)
    flux = reconstruct_flux(ctx, P, kappa, FLOW_BC, params)
    ref = _oracle_flux(ctx, P, kappa, FLOW_BC, params)
    _rel_close(flux.face_un, ref.face_un)
    _rel_close(flux.cell_velocity, ref.cell_velocity)
    _rel_close(flux.center_velocity, ref.center_velocity)
    _rel_close(ctx.cell_values(P), _oracle_cell_values(ctx, P))


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("kind", ["power", "log"])
def test_indicator_matches_oracle(seed, kind, monkeypatch):
    ctx, rng = _random_context(seed)
    dm = ctx.dofmap
    C_n, C_nm1 = (dm.distribute(rng.random(dm.n_dofs)) for _ in range(2))
    C_star = 2.0 * C_n - C_nm1
    flux = _random_flux(ctx, rng)
    q = rng.standard_normal(ctx.mesh.n_active)
    cfg = EntropyConfig(kind=kind)
    J = face_residual(cfg, ctx, C_star, flux)
    _rel_close(J, _oracle_face_residual(cfg, ctx, C_star, flux))
    er = indicator(cfg, ctx, C_star, C_n, C_nm1, flux, q, dt=0.1, m=2).er
    monkeypatch.setattr(ctx, "cell_values", lambda c: _oracle_cell_values(ctx, c))
    monkeypatch.setattr(ctx, "cell_gradients", lambda c: _oracle_cell_gradients(ctx, c))
    monkeypatch.setattr(stabilization, "face_residual", _oracle_face_residual)
    _rel_close(er, indicator(cfg, ctx, C_star, C_n, C_nm1, flux, q, dt=0.1, m=2).er)


@pytest.mark.parametrize("seed", [0, 1])
def test_center_velocity_of_bilinear_field(seed):
    # the Gauss mean of a bilinear function's gradient is its centre value
    ctx, rng = _random_context(seed)
    a, b, c, d = rng.standard_normal(4)
    P = interpolate(lambda x, y: a + b * x + c * y + d * x * y, ctx)
    kappa = np.exp(rng.standard_normal(ctx.mesh.n_active))
    flux = reconstruct_flux(ctx, P, kappa, FLOW_BC, FlowParams())
    xc, yc = ctx.cell_center.T
    exact = -kappa[:, None] * np.stack([b + d * yc, c + d * xc], axis=1)
    _rel_close(flux.center_velocity, exact, tol=1e-12)


# ---------------------------------------------------------------------------
# the pattern


def _level_cap_context():
    # 3x3 roots refined 30 times: vertex codes overflow int64 in the dof map
    mesh = build_uniform((0.0, 0.0, 1.0, 1.0), 3, 3)
    for _ in range(30):
        mesh = mesh.refine([mesh.locate(0.3, 0.3)])
    return AssemblyContext(mesh, EGDofMap(mesh))


def _adapted_context(seed):
    """A context on a mesh from a random sequence of refine/coarsen rounds."""
    rng = np.random.default_rng(seed)
    nx, ny = (int(v) for v in rng.integers(1, 5, 2))
    mesh = build_uniform((0.0, -0.3, 1.7, 0.9), nx, ny)
    for _ in range(int(rng.integers(0, 6))):
        ok = mesh.cell_id[mesh.cell_level < 4]
        mesh, _ = mesh.adapt(
            rng.choice(ok, size=min(int(rng.integers(1, 5)), ok.size), replace=False),
            rng.choice(mesh.cell_id, size=int(rng.integers(0, mesh.n_active + 1)),
                       replace=False))
    return AssemblyContext(mesh, EGDofMap(mesh)), rng


def _oracle_folded_plan(ctx):
    return _folded(ctx, _oracle_plan(ctx.dofmap, _cells(ctx), _faces(ctx, ctx.interior_groups),
                                     _faces(ctx, ctx.boundary_groups)))


def _assert_plan_matches_oracle(ctx, rng):
    plan = ctx.plan
    ref = _oracle_folded_plan(ctx)
    assert plan.shape == ref.shape
    for mine, theirs in ((plan.indptr, ref.indptr), (plan.indices, ref.indices)):
        assert mine.dtype == theirs.dtype and np.array_equal(mine, theirs)
    for field in ("size", "bins", "slot", "src", "dst", "w"):
        assert np.array_equal(getattr(plan.rhs, field), getattr(ref.rhs, field))
    # the reduced entries' bins are one numbering; the hanging bins are
    # numbered apart (the plan also bins the pinned dof's entries), but
    # every sum adds the same terms in the same order
    mine, theirs = plan.matrix.slot, ref.matrix.slot
    assert mine.size == theirs.size
    reduced = theirs < ref.matrix.size
    assert np.array_equal(mine[reduced], theirs[reduced])
    assert (mine[~reduced] >= plan.matrix.size).all()
    vals = rng.standard_normal(plan.matrix.slot.size)
    assert np.array_equal(plan.matrix(vals), ref.matrix(vals))


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_plan_matches_oracle(seed):
    ctx, rng = _random_context(seed)
    _assert_plan_matches_oracle(ctx, rng)


def test_plan_matches_oracle_at_level_cap():
    _assert_plan_matches_oracle(_level_cap_context(), np.random.default_rng(8))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_plan_matches_oracle_after_adapting(seed):
    _assert_plan_matches_oracle(*_adapted_context(seed))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_assembled_systems_match_the_oracle_plan(seed):
    ctx, rng = _random_context(seed)
    nc, n = ctx.mesh.n_active, ctx.dofmap.n_dofs
    kappa = np.exp(rng.standard_normal(nc))
    bc = FlowBC(dirichlet={s: SIDE_DATA[s] for s in ("left", "bottom")},
                neumann={s: SIDE_DATA[s] for s in ("right", "top")})
    flux = _random_flux(ctx, rng)
    M = rng.standard_normal((nc, 2, 2))
    D = M @ M.transpose(0, 2, 1) + 0.1 * np.eye(2)
    mu = rng.random(nc)
    p_args = dict(P_n=rng.standard_normal(n), q_cells=rng.standard_normal(nc),
                  dt=0.1, m=1)
    t_args = dict(C_n=rng.standard_normal(n), C_nm1=rng.standard_normal(n),
                  q_cells=rng.standard_normal(nc), dt=0.05, m=2)

    def systems():
        return [assemble_pressure(ctx, FlowParams(c_F=0.05, phi=0.3), bc, kappa, **p_args),
                assemble_transport(ctx, FlowParams(), TransportParams(),
                                   TransportBC(c_in=0.7), flux, D, mu, **t_args)]

    mine = systems()
    ctx.plan = _oracle_folded_plan(ctx)
    for (A, b), (A_ref, b_ref) in zip(mine, systems()):
        assert np.array_equal(A.indptr, A_ref.indptr)
        assert np.array_equal(A.indices, A_ref.indices)
        assert np.array_equal(A.data, A_ref.data) and np.array_equal(b, b_ref)


def test_pressure_and_transport_share_the_pattern():
    ctx, rng = _random_context(5)
    nc, n = ctx.mesh.n_active, ctx.dofmap.n_dofs
    bc = FlowBC(dirichlet={"left": 1.0}, neumann={"right": 0.0, "bottom": 0.0, "top": 0.0})
    A_p, _ = assemble_pressure(ctx, FlowParams(), bc, np.ones(nc), m=2)
    A_t, _ = assemble_transport(ctx, FlowParams(), TransportParams(), TransportBC(),
                                _random_flux(ctx, rng), np.zeros((nc, 2, 2)),
                                np.zeros(nc), np.zeros(n), m=1)
    assert np.array_equal(A_p.indptr, A_t.indptr)
    assert np.array_equal(A_p.indices, A_t.indices)
    assert A_p.has_canonical_format and A_t.has_canonical_format
    # the union of all local blocks, without the entries whose table column
    # is zero in every row, reduced and pinned; boundary blocks add no
    # entries, and nonnegative values cannot cancel
    groups = _cells(ctx) + _faces(ctx, ctx.interior_groups)
    full = _coo([np.broadcast_to(g.dofs[:, :, None], (len(g.dofs),) + 2 * g.dofs.shape[1:]).ravel()
                 for g in groups],
                [np.broadcast_to(g.dofs[:, None, :], (len(g.dofs),) + 2 * g.dofs.shape[1:]).ravel()
                 for g in groups],
                [np.broadcast_to(g.table.any(axis=0), (len(g.dofs), g.table.shape[1])).ravel()
                 .astype(float) for g in groups], n)
    ref, _ = _pinned(ctx.dofmap, full, np.zeros(n))
    ref.sort_indices()
    assert np.array_equal(A_p.indptr, ref.indptr)
    assert np.array_equal(A_p.indices, ref.indices)


@pytest.mark.parametrize("d,kind", sorted(egspace._FACE_TABLES))
def test_face_table_folds_onto_its_distinct_entries(d, kind):
    cls = egspace._FACE_TABLES[d, kind]
    table, fold = cls["table"], cls["fold"]
    full = _unfolded(d, kind)
    width = {CONFORMING: 16, HANGING_LOW: 45, HANGING_HIGH: 45, BOUNDARY: 15}[kind]
    assert table.shape == (full.shape[0], width)
    assert table.any(axis=0).all()
    assert np.array_equal(np.unique(fold[fold >= 0]), np.arange(width))
    assert (cls["rhs_weights"] is None) == (kind != BOUNDARY)
    # two local entries sit at one pair of dofs when a face of the class on
    # a context has the same row dof and the same column dof at both; the
    # fold sends each such set, and no other kept entry, to one column
    ctx, _ = _random_context(0)
    (i, g), = [(i, g) for i, g in enumerate(ctx.face_groups) if (g.dir, g.kind) == (d, kind)]
    dofs = ctx.face_dofs[g.sl.start, :5 if kind == BOUNDARY else 10]
    r, c = np.divmod(np.arange(fold.size), dofs.size)
    together = (dofs[r][:, None] == dofs[r]) & (dofs[c][:, None] == dofs[c])
    kept = fold >= 0
    assert np.array_equal((fold[:, None] == fold) & kept[:, None], together & kept[:, None])
    assert (fold[:, None] == fold)[together].all()
    # expanding the folded table back through the fold gives, at every kept
    # local entry, the sum of the unfolded columns at its pair of dofs; at a
    # dropped entry that sum is zero in every row, though the entry's own
    # column need not be
    summed = full @ together
    # at most 4 columns fold together, summed in either order
    assert np.abs(table[:, fold[kept]] - summed[:, kept]).max() \
        <= 4 * np.finfo(float).eps * np.abs(full).max()
    assert not summed[:, ~kept].any()
    # on the context, the group's block view has the folded width, and the
    # views tile the plan's values exactly
    vals, views = ctx.block_buffer()
    assert vals.size == ctx.plan.matrix.slot.size
    at = 0
    for v in views:
        assert v.__array_interface__["data"][0] == vals[at:].__array_interface__["data"][0]
        at += v.size
    assert at == vals.size
    assert views[1 + i].shape == (g.sl.stop - g.sl.start, width)


@pytest.mark.parametrize("d", sorted(egspace._DIRS))
def test_boundary_rhs_weights_are_the_unfolded_constant_column(d):
    # the fold drops local column 4 of the vertices off the face, so the
    # weights are read off the unfolded table
    cls = egspace._FACE_TABLES[d, BOUNDARY]
    assert (cls["fold"][4::5] < 0).any()
    w = cls["rhs_weights"]
    assert np.array_equal(w, _unfolded(d, BOUNDARY)[:, 4::5])
    # row 0: the integral of each shape on the unit face; row 1: N x (grad
    # 1 . n), zero; rows 2:5: each shape's weight per quadrature point
    N = q1_values(*egspace._face_ref_coords(d, egspace._G3).T)
    assert np.abs(w[0] - FACE_WEIGHTS @ N).max() <= 1e-15
    assert not w[1].any()
    assert np.abs(w[2:] - FACE_WEIGHTS[:, None] * N).max() <= 1e-15


def test_assembled_pattern_is_read_only():
    # every matrix of a context shares the plan's index arrays: an in-place
    # change to one must fail instead of corrupting the next assembly
    ctx, rng = _random_context(7)
    bc = FlowBC(dirichlet={"left": 1.0}, neumann={"right": 0.0, "bottom": 0.0, "top": 0.0})
    A, _ = assemble_pressure(ctx, FlowParams(), bc, np.ones(ctx.mesh.n_active), m=2)
    data = A.data.copy()
    A.data[:5] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        A.eliminate_zeros()
    A2, _ = assemble_pressure(ctx, FlowParams(), bc, np.ones(ctx.mesh.n_active), m=2)
    assert A2.nnz == data.size and np.array_equal(A2.data, data)


def test_scatter_sums_and_distributes():
    # bins 0-2 are reduced entries, bin 3 collects a hanging entry that goes
    # half to entry 0 and half to entry 2, bin 4 is dropped
    scatter = Scatter(size=3, bins=5, slot=np.array([0, 3, 1, 0, 4, 3, 2]),
                      src=np.array([3, 3]), dst=np.array([0, 2]), w=np.array([0.5, 0.5]))
    vals = np.array([4.0, 1.0, 1.0, 2.0, -7.0, 3.0, 0.25])
    assert np.array_equal(scatter(vals), [4.0 + 2.0 + 2.0, 1.0, 0.25 + 2.0])


@pytest.mark.parametrize("bound", [50, 2**62])
def test_unique_inverse_matches_numpy(bound):
    # a bound too large to pack a key with its position takes numpy's path
    key = np.random.default_rng(9).integers(0, 50, 300)
    got = _unique_inverse(key, bound)
    ref = np.unique(key, return_index=True, return_inverse=True)
    assert all(np.array_equal(a, b) for a, b in zip(got, ref))


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
    assemble_pressure(ctx, FlowParams(), bc, np.ones(nc), m=2)
    assemble_transport(ctx, FlowParams(), TransportParams(), TransportBC(),
                       _random_flux(ctx, rng), np.zeros((nc, 2, 2)), np.zeros(nc),
                       np.zeros(n), m=1)
    ref = weakref.ref(ctx)
    gc.disable()
    try:
        del ctx
        assert ref() is None       # no reference cycle holds the context
    finally:
        gc.enable()
