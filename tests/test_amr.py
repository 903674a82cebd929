"""Marking policy and mean-exact solution transfer under adaptation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from egflow.amr import MarkingPolicy, Marks, adapt_and_transfer, mark
from egflow.egspace import AssemblyContext, EGDofMap, interpolate, q1_values
from egflow.mesh import AdaptBounds, MeshError, QuadMesh, _parent_key, build_uniform
from conftest import cell_bbox, eval_point

UNIT = (0.0, 0.0, 1.0, 1.0)


class _Ind:
    def __init__(self, er, generation):
        self.er = np.asarray(er, dtype=float)
        self.generation = generation


def _policy(r_max=2, r_min=0, cell_max=10**9, refine=0.2, coarsen=0.1):
    return MarkingPolicy(AdaptBounds(r_max=r_max, r_min=r_min, cell_max=cell_max),
                         refine_fraction=refine, coarsen_fraction=coarsen)


def test_fraction_validation():
    with pytest.raises(ValueError):
        _policy(refine=0.7, coarsen=0.4)
    with pytest.raises(ValueError):
        _policy(refine=-0.1)
    with pytest.raises(ValueError):
        MarkingPolicy(AdaptBounds(r_max=1, r_min=2))


def test_marking_ranks_and_truncates():
    # 10 cells, fractions (0.2, 0.1): refine the top 2, coarsen the bottom 1
    mesh = build_uniform((0.0, 0.0, 5.0, 2.0), 5, 2)
    er = np.array([9.0, 1.0, 1.0, 7.0, 0.0, 3.0, 0.0, 0.0, 5.0, 2.0])
    marks = mark(_Ind(er, mesh.generation), mesh, _policy())
    assert marks.refine == (mesh.cell_id[0], mesh.cell_id[3])
    # level-0 cells cannot coarsen below r_min = 0
    assert marks.coarsen == ()


def test_marking_tie_break_by_cell_id():
    mesh = build_uniform((0.0, 0.0, 5.0, 1.0), 5, 1)
    er = np.array([3.0, 3.0, 3.0, 3.0, 3.0])
    marks = mark(_Ind(er, mesh.generation), mesh, _policy(refine=0.4))
    ids = sorted(mesh.cell_id)
    assert sorted(marks.refine) == ids[:2]


def test_marking_ties_break_by_creation_order_not_key():
    # a split numbers its children SW, SE, NW, NE, while key order is SW,
    # NW, SE, NE: of four tied children the top two by id are SW and SE
    mesh = build_uniform(UNIT, 4, 4).refine([5])
    kid = mesh.cell_level == 1
    sw, nw, se = (np.flatnonzero(kid & (mesh.cell_i == i) & (mesh.cell_j == j))[0]
                  for i, j in ((2, 2), (2, 3), (3, 2)))
    marks = mark(_Ind(kid.astype(float), mesh.generation), mesh,
                 _policy(refine=2.5 / mesh.n_active, coarsen=0.0))
    assert marks.refine == (mesh.cell_id[sw], mesh.cell_id[se])
    assert marks.refine != (mesh.cell_id[sw], mesh.cell_id[nw])


def test_marking_respects_level_cap():
    mesh = build_uniform(UNIT, 2, 2)
    er = np.array([5.0, 1.0, 1.0, 1.0])
    marks = mark(_Ind(er, mesh.generation), mesh, _policy(r_max=0, refine=0.5))
    assert marks.refine == ()


def _refine_closure(mesh, cell_ids):
    """Keys of every cell refine(cell_ids) splits, 2:1 closure included."""
    return set(mesh._walk(cell_ids).splits)


def test_budget_truncation_matches_brute_force():
    rng = np.random.default_rng(21)
    mesh = build_uniform(UNIT, 4, 4).refine([1, 6])
    for cell_max in (mesh.n_active, mesh.n_active + 3, mesh.n_active + 7,
                     mesh.n_active + 12, 10**9):
        er = rng.random(mesh.n_active)
        pol = _policy(r_max=3, cell_max=cell_max, refine=0.5, coarsen=0.0)
        got = mark(_Ind(er, mesh.generation), mesh, pol)
        order = sorted(range(mesh.n_active),
                       key=lambda i: (-er[i], mesh.cell_id[i]))
        eligible = [mesh.cell_id[i] for i in order[: int(0.5 * mesh.n_active)]
                    if mesh.cell_level[i] < 3]
        best = ()
        for k in range(len(eligible) + 1):
            extra = len(_refine_closure(mesh, eligible[:k])) if k else 0
            if mesh.n_active + 3 * extra <= cell_max:
                best = tuple(eligible[:k])
        assert got.refine == best


def _multilevel_mesh():
    # levels 0..3 with nested refinement, so refining a fine cell drags
    # closure splits across several coarser neighbors
    mesh = build_uniform(UNIT, 4, 4)
    for x, y in ((0.3, 0.3), (0.3, 0.3), (0.3, 0.3), (0.7, 0.55)):
        mesh = mesh.refine([mesh.locate(x, y)])
    return mesh


def test_budget_pass_matches_brute_force_on_cascading_closures():
    mesh = _multilevel_mesh()
    assert mesh.cell_level.max() == 3
    rng = np.random.default_rng(5)
    n = mesh.n_active
    er = rng.random(n) + 2.0 * mesh.cell_level   # fine cells rank first
    order = sorted(range(n), key=lambda i: (-er[i], mesh.cell_id[i]))
    eligible = [mesh.cell_id[i] for i in order[: int(0.4 * n)]
                if mesh.cell_level[i] < 4]
    sizes = [len(_refine_closure(mesh, eligible[:k]))
             for k in range(len(eligible) + 1)]
    # closures cascade: some single mark splits more than its own cell
    assert max(np.diff(sizes)) > 1
    kept = set()
    for cell_max in (n, n + 3 * sizes[1], n + 3 * sizes[3] + 2,
                     n + 3 * sizes[len(sizes) // 2],
                     n + 3 * sizes[-1] - 1, n + 3 * sizes[-1]):
        pol = _policy(r_max=4, cell_max=cell_max, refine=0.4, coarsen=0.0)
        got = mark(_Ind(er, mesh.generation), mesh, pol)
        best = max(k for k in range(len(eligible) + 1)
                   if n + 3 * sizes[k] <= cell_max)
        assert got.refine == tuple(eligible[:best])
        kept.add(best)
    assert len(kept) == 6 and 0 in kept and len(eligible) in kept


def test_mark_builds_no_mesh(monkeypatch):
    mesh = _multilevel_mesh()
    built = []
    finalize = QuadMesh._finalize
    monkeypatch.setattr(QuadMesh, "_finalize",
                        lambda self: built.append(1) or finalize(self))
    er = np.random.default_rng(9).random(mesh.n_active)
    marks = mark(_Ind(er, mesh.generation), mesh,
                 _policy(r_max=4, cell_max=mesh.n_active + 20, refine=0.5))
    assert marks.refine
    assert len(built) == 0


def test_stale_indicator_and_marks_rejected():
    mesh = build_uniform(UNIT, 2, 2)
    with pytest.raises(ValueError):
        mark(_Ind(np.zeros(4), mesh.generation + 1), mesh, _policy())
    with pytest.raises(ValueError):
        mark(_Ind(np.zeros(3), mesh.generation), mesh, _policy())
    dm = EGDofMap(mesh)
    stale = Marks(refine=(mesh.cell_id[0],), coarsen=(),
                  generation=mesh.generation + 5)
    with pytest.raises(ValueError):
        adapt_and_transfer(mesh, dm, np.zeros((1, dm.n_dofs)), np.zeros(4), stale)


def test_field_size_validation():
    mesh = build_uniform(UNIT, 2, 2)
    dm = EGDofMap(mesh)
    marks = Marks(refine=(mesh.cell_id[0],), coarsen=(), generation=mesh.generation)
    cell = np.zeros(mesh.n_active)
    for eg in (np.zeros((2, 3)), np.zeros(dm.n_dofs), np.zeros((dm.n_dofs, 2))):
        with pytest.raises(ValueError, match="eg has shape"):
            adapt_and_transfer(mesh, dm, eg, cell, marks)
    with pytest.raises(ValueError, match="cell has leading size"):
        adapt_and_transfer(mesh, dm, np.zeros((2, dm.n_dofs)), np.zeros(3), marks)


def test_noop_returns_same_objects():
    mesh = build_uniform(UNIT, 2, 2)
    dm = EGDofMap(mesh)
    eg, cell = np.zeros((2, dm.n_dofs)), np.zeros((mesh.n_active, 2))
    marks = Marks(refine=(), coarsen=(), generation=mesh.generation)
    m2, dm2, eg2, cell2 = adapt_and_transfer(mesh, dm, eg, cell, marks)
    assert m2 is mesh and dm2 is dm and eg2 is eg and cell2 is cell


def test_linear_field_transfers_exactly():
    mesh = build_uniform(UNIT, 3, 3)
    dm = EGDofMap(mesh)
    f = lambda x, y: 2.0 * x - y + 0.3
    C = interpolate(f, AssemblyContext(mesh, dm))
    marks = Marks(refine=(mesh.cell_id[0], mesh.cell_id[4]), coarsen=(),
                  generation=mesh.generation)
    mesh2, dm2, eg, _ = adapt_and_transfer(mesh, dm, C[None], np.zeros(9), marks)
    C2 = eg[0]
    rng = np.random.default_rng(17)
    for x, y in rng.random((40, 2)):
        cid = mesh2.locate(x, y)
        x0, y0, x1, y1 = cell_bbox(mesh2, cid)
        xi, eta = (x - x0) / (x1 - x0), (y - y0) / (y1 - y0)
        assert eval_point(mesh2, dm2, C2, cid, xi, eta) == pytest.approx(
            f(x, y), abs=1e-12)


def test_transfer_preserves_integral_on_refine():
    mesh = build_uniform(UNIT, 4, 4)
    dm = EGDofMap(mesh)
    rng = np.random.default_rng(19)
    C = dm.distribute(rng.standard_normal(dm.n_dofs))
    total0 = dm.total_integral(C)
    marks = Marks(refine=tuple(mesh.cell_id[[2, 7, 11]]), coarsen=(),
                  generation=mesh.generation)
    mesh2, dm2, eg, _ = adapt_and_transfer(mesh, dm, C[None], np.zeros(16), marks)
    total1 = dm2.total_integral(eg[0])
    assert total1 == pytest.approx(total0, abs=1e-12)
    assert mesh2.balanced()


def test_transfer_preserves_integral_on_coarsen():
    mesh = build_uniform(UNIT, 2, 2).refine([0])
    dm = EGDofMap(mesh)
    rng = np.random.default_rng(23)
    C = dm.distribute(rng.standard_normal(dm.n_dofs))
    total0 = dm.total_integral(C)
    kids = tuple(mesh.cell_id[mesh.cell_level == 1])
    assert len(kids) == 4
    marks = Marks(refine=(), coarsen=kids, generation=mesh.generation)
    mesh2, dm2, eg, _ = adapt_and_transfer(mesh, dm, C[None], np.zeros(7), marks)
    assert mesh2.n_active == 4
    total1 = dm2.total_integral(eg[0])
    assert total1 == pytest.approx(total0, abs=1e-12)


def test_marking_policy_coarsens_quartet():
    mesh = build_uniform(UNIT, 2, 2).refine([0])
    er = np.where(mesh.cell_level == 1, 0.0, 1.0)
    pol = _policy(r_max=2, r_min=0, refine=0.0, coarsen=4.0 / 7.0)
    marks = mark(_Ind(er, mesh.generation), mesh, pol)
    assert sorted(marks.coarsen) == sorted(mesh.cell_id[mesh.cell_level == 1])
    dm = EGDofMap(mesh)
    mesh2, *_ = adapt_and_transfer(mesh, dm, np.zeros((1, dm.n_dofs)), er, marks)
    assert mesh2.n_active == 4


def test_cell_kind_field_transfer():
    mesh = build_uniform(UNIT, 2, 2)
    dm = EGDofMap(mesh)
    data = np.array([1.0, 2.0, 3.0, 4.0])
    marks = Marks(refine=(mesh.cell_id[0],), coarsen=(), generation=mesh.generation)
    mesh2, dm2, _, out = adapt_and_transfer(
        mesh, dm, np.zeros((1, dm.n_dofs)), data, marks)
    assert out.shape == (7,)
    # the four children inherit the parent value; survivors keep theirs
    x0, y0 = mesh.cell_x0[0], mesh.cell_y0[0]
    for i in range(mesh2.n_active):
        cx = mesh2.cell_x0[i] + 0.5 * mesh2.cell_hx[i]
        cy = mesh2.cell_y0[i] + 0.5 * mesh2.cell_hy[i]
        expect = data[mesh.locate(cx, cy)]
        assert out[i] == pytest.approx(expect)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_random_adapt_preserves_integral(seed):
    rng = np.random.default_rng(seed)
    mesh = build_uniform(UNIT, 3, 3)
    dm = EGDofMap(mesh)
    C = dm.distribute(rng.standard_normal(dm.n_dofs))
    cell = np.zeros(mesh.n_active)
    for _ in range(3):
        total = dm.total_integral(C)
        er = rng.random(mesh.n_active)
        pol = _policy(r_max=3, cell_max=200, refine=0.3, coarsen=0.2)
        marks = mark(_Ind(er, mesh.generation), mesh, pol)
        mesh, dm, eg, cell = adapt_and_transfer(mesh, dm, C[None], cell, marks)
        C = eg[0]
        assert mesh.balanced()
        assert mesh.n_active <= 200
        assert dm.total_integral(C) == pytest.approx(
            total, abs=1e-11)


# ----------------------------------------------------------------------
# the transfer against a dict-based oracle: vertices keyed by (X, Y) tuples
# on the level-30 lattice, filled one coefficient vector at a time and parent
# by parent

def _vertex_index(mesh):
    keys = set()
    for lev, i, j in mesh.cell_keys:
        s = 30 - lev
        for di in (0, 1):
            for dj in (0, 1):
                keys.add(((i + di) << s, (j + dj) << s))
    return {k: n for n, k in enumerate(sorted(keys))}


def _dict_transfer(mesh, dofmap, old, cell, marks):
    """(new coefficient vector, new cell data) for one vector `old`."""
    new_mesh, report = mesh.adapt(marks.refine, marks.coarsen)
    if report.unchanged:
        return old, cell
    new_dm = EGDofMap(new_mesh)
    old_index, new_index = _vertex_index(mesh), _vertex_index(new_mesh)
    cell_index = {k: n for n, k in enumerate(mesh.cell_keys)}
    refined = sorted(report.refined)
    coarsened = set(report.coarsened)

    SAME, CHILD, MERGED = 0, 1, 2
    n_new = new_mesh.n_active
    tag = np.empty(n_new, dtype=np.int8)
    src = np.empty(n_new, dtype=np.int64)
    anchor_ref = np.zeros((n_new, 2))
    merged_children = {}
    for idx, key in enumerate(new_mesh.cell_keys):
        if key in coarsened:
            tag[idx] = MERGED
            kids = [(key[0] + 1, 2 * key[1] + di, 2 * key[2] + dj)
                    for di in (0, 1) for dj in (0, 1)]
            merged_children[idx] = [cell_index[k] for k in kids]
        elif key in cell_index:
            tag[idx] = SAME
            src[idx] = cell_index[key]
        else:
            tag[idx] = CHILD
            a = _parent_key(key)
            while a not in cell_index:
                a = _parent_key(a)
            src[idx] = cell_index[a]
            d = key[0] - a[0]
            anchor_ref[idx, 0] = (key[1] - (a[1] << d) + 0.5) / (1 << d)
            anchor_ref[idx, 1] = (key[2] - (a[2] << d) + 0.5) / (1 << d)

    same_or_child = tag != MERGED
    out = np.empty((n_new,) + cell.shape[1:], dtype=cell.dtype)
    out[same_or_child] = cell[src[same_or_child]]
    for idx, kids in merged_children.items():
        out[idx] = cell[kids].mean(axis=0)

    cg = np.zeros(new_dm.n_dofs)
    filled = np.zeros(new_dm.n_cg, dtype=bool)
    for vk, vi in new_index.items():
        oi = old_index.get(vk)
        if oi is not None:
            cg[vi] = old[oi]
            filled[vi] = True
    for lev, i, j in refined:
        s = 30 - (lev + 1)
        X = [(2 * i) << s, (2 * i + 1) << s, (2 * i + 2) << s]
        Y = [(2 * j) << s, (2 * j + 1) << s, (2 * j + 2) << s]
        v00, v10 = cg[new_index[(X[0], Y[0])]], cg[new_index[(X[2], Y[0])]]
        v01, v11 = cg[new_index[(X[0], Y[2])]], cg[new_index[(X[2], Y[2])]]
        for (kx, ky), val in (
            ((X[1], Y[0]), 0.5 * (v00 + v10)),
            ((X[0], Y[1]), 0.5 * (v00 + v01)),
            ((X[2], Y[1]), 0.5 * (v10 + v11)),
            ((X[1], Y[2]), 0.5 * (v01 + v11)),
            ((X[1], Y[1]), 0.25 * (v00 + v10 + v01 + v11)),
        ):
            vi = new_index[(kx, ky)]
            if not filled[vi]:
                cg[vi] = val
                filled[vi] = True
    cg = new_dm.distribute(cg)

    cd = dofmap.cell_dofs
    old_means = old[cd[:, :4]].mean(axis=1) + old[cd[:, 4]]
    target = np.empty(n_new)
    same = tag == SAME
    target[same] = old_means[src[same]]
    child = tag == CHILD
    if np.any(child):
        N = q1_values(anchor_ref[child, 0], anchor_ref[child, 1])[:, :4]
        corners = old[cd[src[child], :4]]
        target[child] = (N * corners).sum(axis=1) + old[cd[src[child], 4]]
    for idx, kids in merged_children.items():
        target[idx] = old_means[kids].mean()
    cg[new_dm.n_cg:] = target - cg[new_dm.cell_dofs[:, :4]].mean(axis=1)
    return cg, out


def _oracle_rounds(nx, ny, seed):
    """Six adapts of a stacked state, each row checked bitwise against the
    dict oracle applied to that row alone; returns how many rounds split,
    merged and left hanging vertices."""
    rng = np.random.default_rng(seed)
    mesh = build_uniform((-0.3, 0.1, 1.4, 0.77), nx, ny)
    mesh = mesh.refine(mesh.cell_id)
    dm = EGDofMap(mesh)
    # rows: two fields on their constraints and one off them
    eg = np.stack([dm.distribute(rng.standard_normal(dm.n_dofs)),
                   dm.distribute(rng.standard_normal(dm.n_dofs)),
                   rng.standard_normal(dm.n_dofs)])
    cell = rng.standard_normal((mesh.n_active, 2))
    pol = _policy(r_max=4, cell_max=300, refine=0.3, coarsen=0.3)
    splits = merges = hanging = 0
    for k in range(6):
        pick = rng.random(mesh.n_active)
        if k % 2:
            marks = mark(_Ind(pick, mesh.generation), mesh, pol)
        else:   # unranked marks: many more full quartets merge
            marks = Marks(refine=tuple(mesh.cell_id[(pick < 0.1) & (mesh.cell_level < 4)]),
                          coarsen=tuple(mesh.cell_id[pick > 0.3]),
                          generation=mesh.generation)
        # the last row off its constraints: hanging vertices that a split
        # frees keep their own old value
        eg[-1] += rng.random(dm.n_dofs)
        expect = [_dict_transfer(mesh, dm, row, cell, marks) for row in eg]
        report = mesh.adapt(marks.refine, marks.coarsen)[1]
        splits += bool(report.refined)
        merges += bool(report.coarsened)
        mesh, dm, eg, cell = adapt_and_transfer(mesh, dm, eg, cell, marks)
        hanging += dm.constrained.size > 0
        assert eg.shape == (3, dm.n_dofs)
        for got, (want, want_cell) in zip(eg, expect):
            assert np.array_equal(got, want)
            assert np.array_equal(cell, want_cell)
    return splits, merges, hanging


@settings(max_examples=15, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(0, 2**31 - 1))
def test_transfer_matches_dict_oracle(nx, ny, seed):
    splits, merges, _ = _oracle_rounds(nx, ny, seed)
    assert splits + merges > 0


def test_transfer_oracle_rounds_cover_hanging_splits_and_merges():
    assert all(_oracle_rounds(3, 2, 0))


def test_transfer_rejects_a_mesh_two_refinements_below(monkeypatch):
    # refining every cell twice is not one adapt: its cells have neither an
    # old key, nor an old parent, nor four old children
    mesh = build_uniform(UNIT, 2, 2)
    dm = EGDofMap(mesh)
    deep = mesh.refine(mesh.cell_id)
    deep = deep.refine(deep.cell_id)
    _, report = mesh.adapt(mesh.cell_id, ())
    monkeypatch.setattr(QuadMesh, "adapt", lambda self, r, c: (deep, report))
    marks = Marks(refine=tuple(mesh.cell_id), coarsen=(), generation=mesh.generation)
    with pytest.raises(MeshError, match="one adapt"):
        adapt_and_transfer(mesh, dm, np.zeros((1, dm.n_dofs)), np.zeros(4), marks)
