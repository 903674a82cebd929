"""Enriched space: dof layout, hanging constraints, quadrature, evaluation."""

import copy

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from egflow import egspace
from egflow.egspace import (
    AssemblyContext,
    CELL_WEIGHTS,
    FACE_WEIGHTS,
    EGDofMap,
    dof_count,
    fix_gauge,
    interpolate,
    q1_grads,
    q1_values,
)
from egflow.mesh import (
    CONFORMING,
    DIR_NORMAL,
    EAST,
    HANGING_HIGH,
    HANGING_LOW,
    NORTH,
    SOUTH,
    WEST,
    MeshError,
    build_uniform,
)
from conftest import cell_bbox, eval_grad, eval_point

UNIT = (0.0, 0.0, 1.0, 1.0)


def test_uniform_dof_count():
    # (n+1)^2 vertex dofs plus n^2 cell constants
    mesh = build_uniform(UNIT, 4, 4)
    assert dof_count(mesh) == (25, 16, 41)


def test_hanging_mesh_dof_count():
    # 2x1 cells on (0,2)x(0,1): 6 vertices.  Refining the left cell adds its
    # center plus 4 edge midpoints; the midpoint of the shared edge x=1 is a
    # hanging vertex.  11 vertices, 5 cells, one constraint.
    mesh = build_uniform((0.0, 0.0, 2.0, 1.0), 2, 1)
    mesh = mesh.refine([mesh.cell_id[0]])
    dm = EGDofMap(mesh)
    assert (dm.n_cg, dm.n_const, dm.n_dofs) == (11, 5, 16)
    n_reduced = dm.restrict(np.zeros(dm.n_dofs)).shape[0]
    assert n_reduced == 15


def test_cell_quadrature_exactness():
    # 3x3 Gauss on the reference square integrates x^4 y^2 exactly: 1/15
    x, y = egspace._CELL_PTS.T
    assert CELL_WEIGHTS.sum() == pytest.approx(1.0, abs=1e-15)
    assert CELL_WEIGHTS @ (x**4 * y**2) == pytest.approx(1.0 / 15.0, abs=1e-15)
    assert not CELL_WEIGHTS.flags.writeable


def test_face_quadrature_exactness():
    t = egspace._G3
    assert FACE_WEIGHTS.sum() == pytest.approx(1.0, abs=1e-15)
    assert FACE_WEIGHTS @ t**5 == pytest.approx(1.0 / 6.0, abs=1e-15)
    assert not FACE_WEIGHTS.flags.writeable


def test_q1_partition_of_unity():
    xi = np.array([0.0, 0.3, 1.0])
    eta = np.array([0.5, 0.9, 0.0])
    vals = q1_values(xi, eta)
    # 4 bilinear hats sum to one, the enrichment entry is the constant one
    assert np.allclose(vals[..., :4].sum(axis=-1), 1.0)
    assert np.allclose(vals[..., 4], 1.0)
    grads = q1_grads(xi, eta)
    assert np.allclose(grads[..., :4, :].sum(axis=-2), 0.0)
    assert np.allclose(grads[..., 4, :], 0.0)


def test_interpolate_reproduces_bilinear():
    mesh = build_uniform(UNIT, 2, 2).refine([0])
    dm = EGDofMap(mesh)
    f = lambda x, y: 2.0 * x * y - 3.0 * x + 0.5
    coeffs = interpolate(f, AssemblyContext(mesh, dm))
    rng = np.random.default_rng(0)
    for x, y in rng.random((30, 2)):
        cid = mesh.locate(x, y)
        x0, y0, x1, y1 = cell_bbox(mesh, cid)
        xi, eta = (x - x0) / (x1 - x0), (y - y0) / (y1 - y0)
        assert eval_point(mesh, dm, coeffs, cid, xi, eta) == pytest.approx(
            f(x, y), abs=1e-12)


def test_eval_grad_of_linear():
    mesh = build_uniform(UNIT, 3, 3)
    dm = EGDofMap(mesh)
    coeffs = interpolate(lambda x, y: 4.0 * x - 7.0 * y + 1.0, AssemblyContext(mesh, dm))
    g = eval_grad(mesh, dm, coeffs, mesh.cell_id[4], 0.25, 0.75)
    assert np.allclose(g, [4.0, -7.0], atol=1e-12)


def test_fix_gauge_preserves_function():
    mesh = build_uniform(UNIT, 2, 2).refine([0])
    dm = EGDofMap(mesh)
    rng = np.random.default_rng(1)
    coeffs = dm.distribute(rng.standard_normal(dm.n_dofs))
    fixed = fix_gauge(dm, coeffs)
    const = fixed[dm.n_cg:]
    assert const @ mesh.cell_area == pytest.approx(0.0, abs=1e-13)
    for x, y in rng.random((20, 2)):
        cid = mesh.locate(x, y)
        x0, y0, x1, y1 = cell_bbox(mesh, cid)
        xi, eta = (x - x0) / (x1 - x0), (y - y0) / (y1 - y0)
        a = eval_point(mesh, dm, coeffs, cid, xi, eta)
        b = eval_point(mesh, dm, fixed, cid, xi, eta)
        assert a == pytest.approx(b, abs=1e-12)


def test_restrict_prolong_roundtrip():
    mesh = build_uniform(UNIT, 2, 2).refine([0])
    dm = EGDofMap(mesh)
    rng = np.random.default_rng(2)
    xr = rng.standard_normal(dm.restrict(np.zeros(dm.n_dofs)).shape[0])
    assert np.allclose(dm.restrict(dm.prolong(xr)), xr, atol=1e-14)


def test_hanging_value_is_constrained_average():
    # the EG trace must be single valued across a hanging face for CG dofs
    mesh = build_uniform(UNIT, 2, 1)
    mesh = mesh.refine([mesh.cell_id[0]])
    dm = EGDofMap(mesh)
    coeffs = np.zeros(dm.n_dofs)
    coeffs[: dm.n_cg] = np.arange(dm.n_cg, dtype=float)
    coeffs = dm.distribute(coeffs)
    # evaluate the CG part on both sides of the shared edge x = 0.5
    eps = 0.0
    y = 0.5
    left_cell = mesh.locate(0.5 - 1e-9, y)
    right_cell = mesh.locate(0.5 + 1e-9, y)
    cl = coeffs.copy()
    cl[dm.n_cg:] = 0.0            # drop the discontinuous enrichment
    xa, ya, xb, yb = cell_bbox(mesh, left_cell)
    vl = eval_point(mesh, dm, cl, left_cell, 1.0, (y - ya) / (yb - ya))
    xa, ya, xb, yb = cell_bbox(mesh, right_cell)
    vr = eval_point(mesh, dm, cl, right_cell, 0.0, (y - ya) / (yb - ya))
    assert vl == pytest.approx(vr, abs=1e-12)


def test_context_means_and_integral():
    mesh = build_uniform(UNIT, 2, 2).refine([0])
    dm = EGDofMap(mesh)
    coeffs = interpolate(lambda x, y: x, AssemblyContext(mesh, dm))
    means = dm.cell_means(coeffs)
    centers_x = mesh.cell_x0 + 0.5 * mesh.cell_hx
    assert np.allclose(means, centers_x, atol=1e-13)
    assert dm.total_integral(coeffs) == pytest.approx(0.5, abs=1e-13)


def _three_level_context():
    """Levels 0-3 on a non-square root cell, with hanging faces of both kinds
    in every direction and at owner levels 1, 2 and 3."""
    mesh = build_uniform((0.0, -0.3, 1.7, 0.9), 4, 3)
    for _ in range(3):
        mesh = mesh.refine([mesh.locate(0.8, 0.3)])
    for kind in (HANGING_LOW, HANGING_HIGH):
        at = mesh.face_kind == kind
        assert set(mesh.face_dir[at].tolist()) == {EAST, NORTH, WEST, SOUTH}
        assert set(mesh.cell_level[mesh.face_owner[at]].tolist()) == {1, 2, 3}
    return AssemblyContext(mesh)


def test_groups_are_keyed_by_class_alone():
    # every level shares one face group per (dir, kind), and the groups
    # tile the mesh's face table in order
    ctx = _three_level_context()
    mesh = ctx.mesh
    keys = [(g.dir, g.kind) for g in ctx.face_groups]
    assert len(set(keys)) == len(keys) <= 14
    assert [g.sl.start for g in ctx.face_groups] + [mesh.n_faces] == \
        [0] + [g.sl.stop for g in ctx.face_groups]
    for g in ctx.face_groups:
        assert set(mesh.face_dir[g.sl].tolist()) == {g.dir}
        assert set(mesh.face_kind[g.sl].tolist()) == {g.kind}
    assert len(set(mesh.cell_level[ctx.own].tolist())) == 4


def test_bilinear_traces_and_gradients_at_every_level():
    ctx = _three_level_context()
    a, b, c, d = 0.3, -1.2, 0.7, 2.1

    def f(x, y):
        return a + b * x + c * y + d * x * y

    def grad(x, y):
        return np.stack(np.broadcast_arrays(b + d * y, c + d * x), axis=-1)

    coeffs = interpolate(f, ctx)
    assert np.abs(ctx.cell_gradients(coeffs) - grad(ctx.cell_qx, ctx.cell_qy)).max() < 1e-12
    vals, ders = ctx.face_traces(coeffs)
    level = ctx.mesh.cell_level[ctx.own]
    for grp in ctx.face_groups:
        x, y = ctx.face_qx[grp.sl], ctx.face_qy[grp.sl]
        dn = grad(x, y) @ DIR_NORMAL[grp.dir]
        sides = (0, 1) if grp.boundary is None else (0,)
        for lev in np.unique(level[grp.sl]).tolist():
            at = level[grp.sl] == lev
            for s in sides:
                assert np.abs(vals[grp.sl][at, s] - f(x, y)[at]).max() < 1e-12
                assert np.abs(ders[grp.sl][at, s] - dn[at]).max() < 1e-11
        if grp.boundary is not None:
            assert not vals[grp.sl, 1].any() and not ders[grp.sl, 1].any()
    assert set(level.tolist()) == {0, 1, 2, 3}


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 3), st.integers(0, 3))
def test_context_values_match_eval_point(i, j):
    mesh = build_uniform(UNIT, 2, 2)
    mesh = mesh.refine([mesh.cell_id[(i + j) % 4]])
    dm = EGDofMap(mesh)
    ctx = AssemblyContext(mesh, dm)
    rng = np.random.default_rng(i * 7 + j)
    coeffs = dm.distribute(rng.standard_normal(dm.n_dofs))
    vals = ctx.cell_values(coeffs)
    for lev in np.unique(mesh.cell_level).tolist():
        for idx in np.flatnonzero(mesh.cell_level == lev)[:2]:
            cid = mesh.cell_id[idx]
            for q in range(9):
                xi, eta = egspace._CELL_PTS[q]
                assert vals[idx, q] == pytest.approx(
                    eval_point(mesh, dm, coeffs, cid, xi, eta), abs=1e-12)


# ----------------------------------------------------------------------
# the dof map against a dict-based oracle: vertices keyed by (X, Y) tuples
# on the level-30 lattice, hanging constraints found per face and chains
# substituted until none is left

_VSCALE = 30


def _dict_dofmap(mesh):
    keys = set()
    for lev, i, j in mesh.cell_keys:
        s = _VSCALE - lev
        for di in (0, 1):
            for dj in (0, 1):
                keys.add(((i + di) << s, (j + dj) << s))
    vertex_keys = sorted(keys)
    vertex_index = {kk: n for n, kk in enumerate(vertex_keys)}
    n_cg = len(vertex_keys)
    n_dofs = n_cg + mesh.n_active

    x0, y0, x1, y1 = mesh.domain
    sx = (x1 - x0) / (mesh.nx * (1 << _VSCALE))
    sy = (y1 - y0) / (mesh.ny * (1 << _VSCALE))
    vk = np.array(vertex_keys, dtype=float).reshape(-1, 2)
    vertex_pos = np.stack([x0 + vk[:, 0] * sx, y0 + vk[:, 1] * sy], axis=1)

    cd = np.empty((mesh.n_active, 5), dtype=np.int64)
    for idx, (lev, i, j) in enumerate(mesh.cell_keys):
        s = _VSCALE - lev
        cd[idx, 0] = vertex_index[(i << s, j << s)]
        cd[idx, 1] = vertex_index[((i + 1) << s, j << s)]
        cd[idx, 2] = vertex_index[(i << s, (j + 1) << s)]
        cd[idx, 3] = vertex_index[((i + 1) << s, (j + 1) << s)]
        cd[idx, 4] = n_cg + idx

    raw = {}
    for f in range(mesh.n_faces):
        if mesh.face_kind[f] not in (HANGING_LOW, HANGING_HIGH):
            continue
        lev, i, j = mesh.cell_keys[mesh.face_owner[f]]
        d = int(mesh.face_dir[f])
        s = _VSCALE - lev
        if d in (EAST, WEST):
            cross = i + 1 if d == EAST else i
            mid = (cross << s, (2 * (j >> 1) + 1) << s)
            lo = (cross << s, (2 * (j >> 1)) << s)
            hi = (cross << s, (2 * (j >> 1) + 2) << s)
        else:
            cross = j + 1 if d == NORTH else j
            mid = ((2 * (i >> 1) + 1) << s, cross << s)
            lo = ((2 * (i >> 1)) << s, cross << s)
            hi = ((2 * (i >> 1) + 2) << s, cross << s)
        raw[vertex_index[mid]] = [(vertex_index[lo], 0.5), (vertex_index[hi], 0.5)]
    chained = any(m in raw for combo in raw.values() for m, _ in combo)
    for _ in range(64):
        changed = False
        for sl, combo in raw.items():
            if not any(m in raw for m, _ in combo):
                continue
            acc = {}
            for m, w in combo:
                if m in raw:
                    changed = True
                    for mm, ww in raw[m]:
                        acc[mm] = acc.get(mm, 0.0) + w * ww
                else:
                    acc[m] = acc.get(m, 0.0) + w
            raw[sl] = sorted(acc.items())
        if not changed:
            break

    mask = np.ones(n_dofs, dtype=bool)
    mask[np.array(sorted(raw), dtype=np.int64)] = False
    free_dofs = np.nonzero(mask)[0]
    full_to_reduced = np.full(n_dofs, -1, dtype=np.int64)
    full_to_reduced[free_dofs] = np.arange(free_dofs.size)
    rows, cols, vals = [], [], []
    for d in free_dofs:
        rows.append(d)
        cols.append(full_to_reduced[d])
        vals.append(1.0)
    for sl, combo in raw.items():
        for m, w in combo:
            rows.append(sl)
            cols.append(full_to_reduced[m])
            vals.append(w)
    P = sp.csr_matrix((vals, (rows, cols)), shape=(n_dofs, free_dofs.size))
    return dict(vertex_pos=vertex_pos, cell_dofs=cd, constraints=raw,
                chained=chained, free_dofs=free_dofs, P=P)


def _same(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)


def _assert_matches_oracle(mesh):
    dm, ref = EGDofMap(mesh), _dict_dofmap(mesh)
    assert not ref["chained"]                 # no master is itself constrained
    assert _same(dm.cell_dofs, ref["cell_dofs"])
    assert _same(dm.vertex_pos, ref["vertex_pos"])
    assert _same(dm.free_dofs, ref["free_dofs"])
    for part in ("data", "indices", "indptr"):
        assert _same(getattr(dm.P, part), getattr(ref["P"], part))
    assert dm.constrained.tolist() == sorted(ref["constraints"])
    assert dm.masters.tolist() == [[m for m, _ in ref["constraints"][s]]
                                   for s in sorted(ref["constraints"])]
    assert all(w == 0.5 for combo in ref["constraints"].values() for _, w in combo)
    return dm


def _random_balanced_mesh(domain, nx, ny, seed, rounds=3):
    """Two uniform levels, random refine rounds and coarsening rounds, then
    hanging faces on all four sides: splitting the cell at p and then its
    child at p leaves that child's neighbors all at its level, and the
    child is interior once its level is 2 or more."""
    rng = np.random.default_rng(seed)
    mesh = build_uniform(domain, nx, ny)
    mesh = mesh.refine(mesh.cell_id)
    mesh = mesh.refine(mesh.cell_id)
    for _ in range(rounds):
        pick = rng.random(mesh.n_active)
        refine = mesh.cell_id[(pick < 0.12) & (mesh.cell_level < 4)]
        mesh, _ = mesh.adapt(refine, mesh.cell_id[pick > 0.3])
        mesh, _ = mesh.adapt((), mesh.cell_id[rng.random(mesh.n_active) < 0.8])
    x0, y0, x1, y1 = domain
    p = (x0 + 0.4 * (x1 - x0), y0 + 0.4 * (y1 - y0))
    for _ in range(2):
        mesh = mesh.refine([mesh.locate(*p)])
    while mesh.key_of_id(mesh.locate(*p))[0] < 3:
        mesh = mesh.refine([mesh.locate(*p)])
    return mesh


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(0, 2**31 - 1))
def test_dofmap_matches_dict_oracle(nx, ny, seed):
    mesh = _random_balanced_mesh((-0.3, 0.1, 1.4, 0.77), nx, ny, seed)
    hanging = np.isin(mesh.face_kind, (HANGING_LOW, HANGING_HIGH))
    assert set(mesh.face_dir[hanging].tolist()) == {EAST, NORTH, WEST, SOUTH}
    _assert_matches_oracle(mesh)


def test_dofmap_matches_dict_oracle_at_level_cap():
    # vertex codes of 3x3 roots at level 30 exceed int64
    mesh = build_uniform(UNIT, 3, 3)
    for _ in range(30):
        mesh = mesh.refine([mesh.locate(0.3, 0.3)])
    dm = _assert_matches_oracle(mesh)
    assert dm.lattice_level == 30
    assert dm.find_vertices(30, *dm.vertex_ij.T).tolist() == list(range(dm.n_cg))


def test_find_vertices_across_levels():
    mesh = build_uniform(UNIT, 2, 2).refine([0])
    dm = EGDofMap(mesh)
    assert dm.lattice_level == 1
    # on the level-2 lattice (1/2, 1/4) is a vertex; (1/8, 1/8), the center
    # of a level-1 cell, and (1/4, 1/8), inside its edge, are not
    v = dm.find_vertices(2, [4, 1, 2], [2, 1, 1])
    assert dm.vertex_pos[v[0]].tolist() == [0.5, 0.25]
    assert v[1:].tolist() == [-1, -1]
    v = dm.find_vertices(0, [1, 2], [1, 2])
    assert dm.vertex_pos[v].tolist() == [[0.5, 0.5], [1.0, 1.0]]


def test_constrained_master_raises():
    # doctor a conforming level-1 face on x = 1/2 into a hanging one: the
    # vertex (1/2, 1/4) becomes constrained while it is a master of the
    # level-2 hanging face on (1/2, [1/4, 1/2])
    mesh = build_uniform(UNIT, 2, 2).refine([0])
    mesh = mesh.refine([mesh.locate(0.4, 0.3)])
    EGDofMap(mesh)
    f = np.flatnonzero((mesh.face_owner == mesh.cell_keys.index((1, 1, 0)))
                       & (mesh.face_dir == EAST))
    assert mesh.face_kind[f].tolist() == [CONFORMING]
    doctored = copy.copy(mesh)
    doctored.face_kind = mesh.face_kind.copy()
    doctored.face_kind[f] = HANGING_LOW
    with pytest.raises(MeshError, match="constrained"):
        EGDofMap(doctored)
