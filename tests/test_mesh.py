"""Quadtree mesh: structure, 2:1 balance, refine/coarsen, face enumeration."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from egflow.egspace import AssemblyContext
from egflow.mesh import (
    BOUNDARY,
    CONFORMING,
    EAST,
    HANGING_HIGH,
    HANGING_LOW,
    NORTH,
    SOUTH,
    WEST,
    MeshError,
    build_uniform,
)
from conftest import cell_bbox

UNIT = (0.0, 0.0, 1.0, 1.0)


def build_refined_corner():
    mesh = build_uniform(UNIT, 2, 2)
    return mesh.refine([mesh.cell_id[0]])


def test_uniform_counts():
    mesh = build_uniform(UNIT, 2, 2)
    assert mesh.n_active == 4
    # 4 interior faces (2 vertical + 2 horizontal) + 8 boundary faces
    assert mesh.n_faces == 12
    assert (mesh.face_neighbor >= 0).sum() == 4
    assert np.allclose(mesh.cell_area, 0.25)
    assert mesh.total_area == pytest.approx(1.0)


def test_uniform_rect_domain():
    mesh = build_uniform((0.0, 0.0, 2.0, 0.5), 4, 1)
    assert mesh.n_active == 4
    assert np.allclose(mesh.cell_hx, 0.5)
    assert np.allclose(mesh.cell_hy, 0.5)


def test_refine_one_cell_structure():
    mesh = build_uniform(UNIT, 2, 2)
    child = mesh.refine([mesh.cell_id[0]])
    assert child.n_active == 7
    assert child.total_area == pytest.approx(1.0)
    assert child.balanced()
    assert child.generation == mesh.generation + 1
    # the refined corner cell shares one coarse edge with each of two
    # neighbors; every shared coarse edge splits into two hanging sub-faces
    hang = np.isin(child.face_kind, (HANGING_LOW, HANGING_HIGH))
    assert hang.sum() == 4


def test_hanging_owner_is_finer():
    mesh = build_refined_corner()
    for f in range(mesh.n_faces):
        nb = mesh.face_neighbor[f]
        if nb < 0:
            assert mesh.face_kind[f] == BOUNDARY
            continue
        own = mesh.face_owner[f]
        assert mesh.cell_level[own] >= mesh.cell_level[nb]
        if mesh.face_kind[f] in (HANGING_LOW, HANGING_HIGH):
            assert mesh.cell_level[own] == mesh.cell_level[nb] + 1
        else:
            assert mesh.face_kind[f] == CONFORMING


def test_two_to_one_balance_forced():
    mesh = build_uniform(UNIT, 2, 2)
    mesh = mesh.refine([mesh.cell_id[0]])
    # keep refining the current smallest south-west cell; the 2:1 rule must
    # drag the coarse neighbors along
    for _ in range(2):
        centers_x = mesh.cell_x0 + 0.5 * mesh.cell_hx
        centers_y = mesh.cell_y0 + 0.5 * mesh.cell_hy
        sw = mesh.cell_id[np.lexsort((centers_y, centers_x))[0]]
        mesh = mesh.refine([sw])
    assert mesh.balanced()
    assert mesh.cell_level.max() - mesh.cell_level.min() >= 2


def test_locate_contains_point():
    mesh = build_refined_corner()
    rng = np.random.default_rng(3)
    for x, y in rng.random((50, 2)):
        cid = mesh.locate(x, y)
        x0, y0, x1, y1 = cell_bbox(mesh, cid)
        assert x0 <= x <= x1 and y0 <= y <= y1


def test_locate_outside_raises():
    mesh = build_uniform(UNIT, 2, 2)
    with pytest.raises(MeshError):
        mesh.locate(1.5, 0.5)


def test_coarsen_restores_quartet():
    mesh = build_uniform(UNIT, 2, 2)
    fine = mesh.refine([mesh.cell_id[0]])
    kids = fine.cell_id[fine.cell_level == 1]
    back, _ = fine.adapt((), kids)
    assert back.n_active == 4
    assert back.total_area == pytest.approx(1.0)


def test_coarsen_respects_balance():
    # with a level-2 quartet present, merging all level-1 quartets at once
    # must not break the 2:1 rule
    mesh = build_uniform(UNIT, 2, 2)
    mesh = mesh.refine(mesh.cell_id)
    deep = mesh.refine([mesh.cell_id[0]])
    lvl1 = deep.cell_id[deep.cell_level == 1]
    after, _ = deep.adapt((), lvl1)
    assert after.balanced()


def test_adapt_report_counts():
    mesh = build_uniform(UNIT, 4, 4)
    new, report = mesh.adapt([mesh.cell_id[5]], [])
    assert report.refined and not report.unchanged
    assert new.n_active == mesh.n_active + 3


def test_refine_unknown_id_raises():
    mesh = build_uniform(UNIT, 2, 2)
    with pytest.raises(MeshError):
        mesh.refine([10**9])


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 10**6), min_size=1, max_size=12),
       st.integers(0, 3))
def test_random_adapt_keeps_area_and_balance(picks, n_coarsen_rounds):
    mesh = build_uniform(UNIT, 3, 3)
    for p in picks:
        ok = mesh.cell_id[mesh.cell_level < 4]
        if ok.size == 0:
            break
        mesh = mesh.refine([ok[p % ok.size]])
    for _ in range(n_coarsen_rounds):
        ids = mesh.cell_id[mesh.cell_level > 0]
        if ids.size == 0:
            break
        mesh, _ = mesh.adapt((), ids[: max(1, ids.size // 2)])
    assert mesh.balanced()
    assert mesh.total_area == pytest.approx(1.0, rel=1e-12)
    assert np.all(mesh.cell_area > 0)


def test_face_partition_of_boundary():
    # boundary faces of each side tile the side exactly
    mesh = build_refined_corner()
    bnd = mesh.face_neighbor < 0
    length = np.where(np.isin(mesh.face_dir, (EAST, WEST)),
                      mesh.cell_hy[mesh.face_owner], mesh.cell_hx[mesh.face_owner])
    for d in (EAST, NORTH, WEST, SOUTH):
        assert length[bnd & (mesh.face_dir == d)].sum() == pytest.approx(1.0)


def test_refine_closure_matches_adapt_and_keeps_receiver():
    mesh = build_uniform(UNIT, 4, 4)
    for _ in range(3):
        mesh = mesh.refine([mesh.locate(0.3, 0.3)])
    rng = np.random.default_rng(4)
    before = (dict(mesh._active), dict(mesh._refined), mesh.face_owner.copy())
    for _ in range(10):
        ids = rng.choice(mesh.cell_id, size=rng.integers(1, 6), replace=False)
        _, report = mesh.adapt(ids, ())
        assert set(mesh._walk(ids).splits) == set(report.refined)
        counts = mesh.closure_counts(list(ids))
        assert counts[-1] == len(report.refined)
        assert np.all(np.diff(counts) >= 0)
    assert mesh._active == before[0] and mesh._refined == before[1]
    assert np.array_equal(mesh.face_owner, before[2])


# Reference face rule, one cell at a time in ascending key order, directions
# E, N, W, S: a side on the domain boundary is a BOUNDARY face; a same-level
# active neighbor gives a CONFORMING face, created only toward E and N; a
# refined same-level neighbor gives nothing (its children own the sub-faces);
# otherwise the neighbor's parent is active and the cell owns a hanging
# sub-face, LOW or HIGH by the parity of its coordinate along the face.
# h, the assembly context's h_e, is the owner's side length along the
# face: its level's cell size.
_STEP = {0: (1, 0), 1: (0, 1), 2: (-1, 0), 3: (0, -1)}


def _reference_faces(mesh):
    index = {k: n for n, k in enumerate(mesh.cell_keys)}
    rows = []
    for n, (lev, i, j) in enumerate(mesh.cell_keys):
        hx, hy = mesh._cell_size(lev)
        for d, (di, dj) in _STEP.items():
            h = hy if di else hx
            ni, nj = i + di, j + dj
            if not (0 <= ni < mesh.nx << lev and 0 <= nj < mesh.ny << lev):
                rows.append((n, -1, d, BOUNDARY, h))
            elif (lev, ni, nj) in index:
                if d in (0, 1):
                    rows.append((n, index[(lev, ni, nj)], d, CONFORMING, h))
            elif (lev - 1, ni >> 1, nj >> 1) in index:
                sub = (j if di else i) & 1
                rows.append((n, index[(lev - 1, ni >> 1, nj >> 1)], d,
                             HANGING_HIGH if sub else HANGING_LOW, h))
    # listed by class: interior (direction, kind), then the sides
    return sorted(rows, key=lambda r: (r[3] == BOUNDARY, r[2], r[3]))


def _face_rows(mesh):
    ctx = AssemblyContext(mesh)
    return list(zip(mesh.face_owner.tolist(), mesh.face_neighbor.tolist(),
                    mesh.face_dir.tolist(), mesh.face_kind.tolist(), ctx.h_e.tolist()))


def _random_mesh(seed):
    rng = np.random.default_rng(seed)
    nx, ny = (int(v) for v in rng.integers(1, 5, 2))
    mesh = build_uniform((0.0, -0.3, 1.7, 0.9), nx, ny)
    # one interior refinement puts hanging faces on all four sides of a patch
    mesh = mesh.refine([mesh.locate(0.85, 0.3)])
    for _ in range(4):
        ok = mesh.cell_id[mesh.cell_level < 4]
        mesh, _ = mesh.adapt(rng.choice(ok, size=min(3, ok.size), replace=False),
                             rng.choice(mesh.cell_id, size=mesh.n_active // 3,
                                        replace=False))
    return mesh


def _level_cap_mesh():
    mesh = build_uniform(UNIT, 3, 3)
    for _ in range(30):
        mesh = mesh.refine([mesh.locate(0.3, 0.3)])
    return mesh


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_face_table_matches_reference_rule(seed):
    mesh = _random_mesh(seed)
    assert _face_rows(mesh) == _reference_faces(mesh)
    for n in range(mesh.n_active):
        x0, y0, x1, y1 = mesh._bbox(mesh.cell_keys[n])
        assert (mesh.cell_x0[n], mesh.cell_y0[n]) == (x0, y0)
        assert (mesh.cell_hx[n], mesh.cell_hy[n]) == (x1 - x0, y1 - y0)
    assert mesh.balanced()


def test_hanging_faces_on_all_four_sides():
    mesh = build_uniform(UNIT, 3, 3)
    mesh = mesh.refine([mesh.locate(0.5, 0.5)])
    hang = np.isin(mesh.face_kind, (HANGING_LOW, HANGING_HIGH))
    assert set(mesh.face_dir[hang].tolist()) == {0, 1, 2, 3}
    assert _face_rows(mesh) == _reference_faces(mesh)


def test_face_table_at_level_cap():
    # key codes of 3x3 roots at level 30 exceed int64, so the face lookup
    # runs on Python integers
    mesh = _level_cap_mesh()
    assert mesh.cell_level.max() == 30 and mesh.balanced()
    assert _face_rows(mesh) == _reference_faces(mesh)
    with pytest.raises(MeshError):
        mesh.refine([mesh.locate(0.3, 0.3)])


def _assert_find_cells_matches_dict(mesh):
    # every active key, its parent, its children (one level past the finest
    # at the level cap) and its face neighbors (off the root grid at its edge)
    index = {k: n for n, k in enumerate(mesh.cell_keys)}
    queries = set()
    for lev, i, j in mesh.cell_keys:
        queries.add((lev - 1, i >> 1, j >> 1))
        queries.update((lev + 1, 2 * i + a, 2 * j + b) for a in (0, 1) for b in (0, 1))
        queries.update((lev, i + a, j + b) for a, b in _STEP.values())
    queries = sorted(queries.union(index))
    lev, i, j = (list(c) for c in zip(*queries))
    got = mesh.find_cells(lev, i, j)
    assert got.tolist() == [index.get(q, -1) for q in queries]
    assert (got >= 0).sum() == mesh.n_active


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_find_cells_matches_key_dict(seed):
    mesh = _random_mesh(seed)
    _assert_find_cells_matches_dict(mesh)
    for n in range(mesh.n_active):
        assert mesh.index_of_id(mesh.cell_id[n]) == n


def test_find_cells_at_level_cap():
    # key codes past int64 are Python integers
    _assert_find_cells_matches_dict(_level_cap_mesh())


def test_find_cells_off_the_mesh():
    mesh = build_refined_corner()        # 2 x 2 roots, finest level 1
    assert mesh.find_cells(1, 0, 0) >= 0
    assert mesh.find_cells(2, 0, 0) == -1            # above the finest level
    assert mesh.find_cells(40, 0, 0) == -1
    assert mesh.find_cells(-1, 0, 0) == -1           # negative level
    # outside the root grid on either side, in either direction
    lev, i, j = [0, 0, 0, 0, 1, 1], [-1, 2, 0, 0, 4, 0], [0, 0, -1, 2, 0, -1]
    assert mesh.find_cells(lev, i, j).tolist() == [-1] * 6
