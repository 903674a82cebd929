"""Quadtree mesh of axis-aligned rectangles with 2:1 balanced refinement.

Addressing: at refinement level L the domain is conceptually tiled by
(nx << L) x (ny << L) equal rectangles, so every cell is identified by the
triple (level, i, j).  Children of (L, i, j) live at (L+1, 2i+di, 2j+dj)
with the deterministic ordering SW, SE, NW, NE.  Only leaves are active;
refined interior nodes are retained so coarsening can reactivate them with
their original ids, while freshly created cells always receive fresh ids.

Faces are enumerated from the finer side: a conforming interior face is
created once, by the cell on its west/south side, while a refined region
facing a coarser cell contributes one sub-face per fine cell (integration
happens on the fine side).  Normals always point from the face owner toward
its neighbor, outward on the boundary, which fixes the sign convention for
stored normal fluxes.  The face table lists the faces by class: interior
faces by (direction, kind), then boundary faces by side, each class in
owner order, so a class is one contiguous run of faces.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "AdaptBounds",
    "AdaptReport",
    "BOUNDARY",
    "CONFORMING",
    "EAST",
    "HANGING_HIGH",
    "HANGING_LOW",
    "MeshError",
    "NORTH",
    "QuadMesh",
    "SIDES",
    "SOUTH",
    "WEST",
    "build_uniform",
]

EAST, NORTH, WEST, SOUTH = 0, 1, 2, 3
DIR_STEP = {EAST: (1, 0), NORTH: (0, 1), WEST: (-1, 0), SOUTH: (0, -1)}
DIR_NORMAL = {
    EAST: np.array([1.0, 0.0]),
    NORTH: np.array([0.0, 1.0]),
    WEST: np.array([-1.0, 0.0]),
    SOUTH: np.array([0.0, -1.0]),
}
BOUNDARY_NAME = {EAST: "right", NORTH: "top", WEST: "left", SOUTH: "bottom"}
SIDES = tuple(BOUNDARY_NAME.values())      # the names boundary data are keyed by
_DIRS = (EAST, NORTH, WEST, SOUTH)  # == range(4): face slot order per cell
_STEP = np.array([DIR_STEP[d] for d in _DIRS], dtype=np.int64)

# face kinds
CONFORMING, HANGING_LOW, HANGING_HIGH, BOUNDARY = 0, 1, 2, 3

LEVEL_CAP = 30     # the deepest refinement level a mesh allows


class MeshError(Exception):
    """Invalid mesh construction or adaptation request."""


@dataclass(frozen=True)
class AdaptBounds:
    """Refinement-level window and active-cell budget for adaptation."""

    r_max: int
    r_min: int = 0
    cell_max: int = 1_000_000

    def __post_init__(self):
        if self.r_min < 0:
            raise ValueError(f"r_min={self.r_min} is negative")
        if self.r_max > LEVEL_CAP:
            raise ValueError(f"r_max={self.r_max} exceeds the level cap {LEVEL_CAP}")
        if self.r_min > self.r_max:
            raise ValueError(f"r_min={self.r_min} exceeds r_max={self.r_max}")
        if self.cell_max < 1:
            raise ValueError("cell_max must be positive")


@dataclass
class AdaptReport:
    """Which parents were split / merged by one adapt() call (cell keys)."""

    refined: list = field(default_factory=list)
    coarsened: list = field(default_factory=list)

    @property
    def unchanged(self) -> bool:
        return not self.refined and not self.coarsened


def _parent_key(key):
    lev, i, j = key
    return (lev - 1, i >> 1, j >> 1)


def _child_keys(key):
    lev, i, j = key
    return [
        (lev + 1, 2 * i, 2 * j),        # SW
        (lev + 1, 2 * i + 1, 2 * j),    # SE
        (lev + 1, 2 * i, 2 * j + 1),    # NW
        (lev + 1, 2 * i + 1, 2 * j + 1),  # NE
    ]


def _key_coder(nx: int, ny: int, top: int):
    """Map cell keys (level <= top, i, j) to integers ascending in key order.

    Level L occupies the range offset[L] + [0, (nx << L) * (ny << L)); codes
    fall back to Python integers where they would overflow int64.
    """
    off = [0]
    for lev in range(top + 1):
        off.append(off[-1] + (nx << lev) * (ny << lev))
    dt = np.int64 if off[-1] < 2**62 else object
    off = np.array(off[:-1], dtype=dt)

    def code(lev, i, j):
        row = ny << lev.astype(dt, copy=False)
        return off[lev] + i.astype(dt, copy=False) * row + j
    return code


def _find(sorted_codes, q):
    """(hit, position) of each query code in an ascending code array."""
    at = np.minimum(np.searchsorted(sorted_codes, q), sorted_codes.size - 1)
    return sorted_codes[at] == q, at


class _ClosureWalk:
    """2:1 balanced refinement run on copies of a mesh's key dicts.

    split(key) first splits every coarser cell that would otherwise end up
    two levels above a face neighbor of key's children, then key itself;
    `splits` lists the split parents in order.  Every split is forced, so
    the set split for a group of marks is their minimal 2:1 closure, which
    does not depend on the order the marks are split in.
    """

    def __init__(self, mesh: "QuadMesh"):
        self.mesh = mesh
        self.active = dict(mesh._active)
        self.refined = dict(mesh._refined)
        self.next_id = mesh._next_id
        self.splits = []

    def split(self, key):
        active, refined = self.active, self.refined
        if key not in active:
            return  # already refined through closure
        lev, i, j = key
        if lev >= LEVEL_CAP:
            raise MeshError(f"refinement beyond level cap {LEVEL_CAP}")
        # 2:1 closure: every face neighbor must reach this cell's level first
        for d in (WEST, EAST, SOUTH, NORTH):
            di, dj = DIR_STEP[d]
            nk = (lev, i + di, j + dj)
            if not self.mesh._in_range(nk):
                continue
            while nk not in active and nk not in refined:
                cov = _parent_key(nk)
                while cov not in active and cov not in refined:
                    cov = _parent_key(cov)
                if cov in refined:
                    break
                self.split(cov)
        refined[key] = active.pop(key)
        for ck in _child_keys(key):
            active[ck] = self.next_id
            self.next_id += 1
        self.splits.append(key)


class QuadMesh:
    """Forest of quadtrees over a rectangle; instances are immutable.

    refine/adapt return new meshes and never mutate the receiver.
    """

    def __init__(self, domain, nx: int, ny: int, _state=None):
        x0, y0, x1, y1 = map(float, domain)
        if not (x1 > x0 and y1 > y0):
            raise MeshError(f"degenerate domain {domain!r}")
        if nx < 1 or ny < 1:
            raise MeshError(f"cell counts must be positive, got nx={nx} ny={ny}")
        self.domain = (x0, y0, x1, y1)
        self.nx = int(nx)
        self.ny = int(ny)
        if _state is None:
            self._active = {(0, i, j): i * ny + j for i in range(nx) for j in range(ny)}
            self._refined = {}
            self._next_id = nx * ny
            self.generation = 0
        else:
            self._active, self._refined, self._next_id, self.generation = _state
        self._finalize()

    # ------------------------------------------------------------------
    # geometry helpers

    def _cell_size(self, level):
        """(hx, hy) of a cell at `level`, an int or an int64 array: the root
        cell's sizes times 2^-level."""
        x0, y0, x1, y1 = self.domain
        return (x1 - x0) / (self.nx << level), (y1 - y0) / (self.ny << level)

    def _bbox(self, key) -> tuple[float, float, float, float]:
        lev, i, j = key
        hx, hy = self._cell_size(lev)
        x0, y0 = self.domain[0], self.domain[1]
        return (x0 + i * hx, y0 + j * hy, x0 + (i + 1) * hx, y0 + (j + 1) * hy)

    def _in_range(self, key) -> bool:
        lev, i, j = key
        return 0 <= i < (self.nx << lev) and 0 <= j < (self.ny << lev)

    # ------------------------------------------------------------------
    # finalization: index arrays and face enumeration

    def _finalize(self):
        keys = sorted(self._active)
        self.cell_keys = keys
        self._key_by_id = {self._active[k]: k for k in keys}
        self.n_active = len(keys)
        self.cell_id = np.array([self._active[k] for k in keys], dtype=np.int64)
        lev, ci, cj = np.array(keys, dtype=np.int64).T.copy()
        self.cell_level = lev.astype(np.int32)
        self.cell_i, self.cell_j = ci, cj
        self._top = int(lev.max())
        self._code = _key_coder(self.nx, self.ny, self._top)
        self._cell_codes = self._code(lev, ci, cj)  # ascending: keys are sorted

        x0, y0 = self.domain[:2]
        sx, sy = self._cell_size(lev)
        self.cell_x0 = x0 + ci * sx
        self.cell_y0 = y0 + cj * sy
        self.cell_hx = (x0 + (ci + 1) * sx) - self.cell_x0
        self.cell_hy = (y0 + (cj + 1) * sy) - self.cell_y0
        self.cell_area = self.cell_hx * self.cell_hy

        # one candidate face per (cell, direction), row-major in (idx, E/N/W/S)
        nl = lev[:, None]
        ni = ci[:, None] + _STEP[:, 0]
        nj = cj[:, None] + _STEP[:, 1]
        inside = (ni >= 0) & (nj >= 0) & (ni < (self.nx << nl)) & (nj < (self.ny << nl))
        same_at = self.find_cells(nl, ni, nj)
        par_at = self.find_cells(nl - 1, ni >> 1, nj >> 1)
        same = same_at >= 0
        hang = ~same & (par_at >= 0)
        # anything else must be covered by finer cells, which own the sub-faces
        gap = inside & ~same & ~hang
        if gap.any():
            ref = np.array(sorted(self._refined), dtype=np.int64).reshape(-1, 3)
            q = self._code(nl, ni, nj)[gap]
            if ref.size == 0 or not _find(self._code(*ref.T), q)[0].all():
                raise MeshError("internal error: mesh violates 2:1 balance")

        # conforming faces are created once, by the west/south cell
        keep = ~inside | (same & np.isin(_DIRS, (EAST, NORTH))) | hang
        sub = np.where(_STEP[:, 0] != 0, cj[:, None], ci[:, None]) & 1
        kind = np.where(~inside, BOUNDARY,
                        np.where(same, CONFORMING, HANGING_LOW + sub))
        neighbor = np.where(same, same_at, np.where(hang, par_at, -1))
        faces = np.flatnonzero(keep)
        # by class: interior (direction, kind) classes, then the sides
        code = np.where(kind == BOUNDARY, 16, kind) + 4 * np.arange(4)
        faces = faces[np.argsort(code.ravel()[faces], kind="stable")]
        self.face_owner = faces // 4
        self.face_neighbor = neighbor.ravel()[faces].astype(np.int64)
        self.face_dir = (faces % 4).astype(np.int8)
        self.face_kind = kind.ravel()[faces].astype(np.int8)
        self.n_faces = faces.size

    # ------------------------------------------------------------------
    # queries

    @property
    def total_area(self) -> float:
        return float(self.cell_area.sum())

    def key_of_id(self, cid: int):
        try:
            return self._key_by_id[cid]
        except KeyError:
            raise MeshError(f"cell id {cid} is not an active cell") from None

    def index_of_id(self, cid: int) -> int:
        return int(self.find_cells(*self.key_of_id(cid)))

    def find_cells(self, level, i, j) -> np.ndarray:
        """Index of the active cell with each key (level, i, j); -1 where no
        active cell has that key, including levels and positions off the
        mesh."""
        level, i, j = (np.asarray(a, dtype=np.int64) for a in (level, i, j))
        ok = (level >= 0) & (level <= self._top)
        lev = np.where(ok, level, 0)
        ok = ok & (i >= 0) & (j >= 0) & (i < (self.nx << lev)) & (j < (self.ny << lev))
        hit, at = _find(self._cell_codes,
                        self._code(lev, np.where(ok, i, 0), np.where(ok, j, 0)))
        return np.where(ok & hit, at, -1)

    def locate(self, x: float, y: float) -> int:
        """Active cell id containing (x, y); ties resolve to the upper cell."""
        x0, y0, x1, y1 = self.domain
        if not (x0 <= x <= x1 and y0 <= y <= y1):
            raise MeshError(f"point ({x}, {y}) outside domain")
        hx, hy = self._cell_size(0)
        i = min(int((x - x0) / hx), self.nx - 1)
        j = min(int((y - y0) / hy), self.ny - 1)
        key = (0, i, j)
        while key not in self._active:
            lev, i, j = key
            b = self._bbox(key)
            mx, my = 0.5 * (b[0] + b[2]), 0.5 * (b[1] + b[3])
            key = (lev + 1, 2 * i + (1 if x >= mx else 0), 2 * j + (1 if y >= my else 0))
        return self._active[key]

    def balanced(self) -> bool:
        """True when no interior face has a level jump above one."""
        lo = self.cell_level[self.face_owner]
        nb = self.face_neighbor
        ln = np.where(nb >= 0, self.cell_level[np.maximum(nb, 0)], lo)
        return bool(np.all(np.abs(lo.astype(int) - ln.astype(int)) <= 1))

    # ------------------------------------------------------------------
    # adaptation

    def refine(self, cell_ids) -> "QuadMesh":
        """Split the given active cells (plus 2:1 closure); returns a new mesh."""
        mesh, _ = self.adapt(cell_ids, ())
        return mesh

    def _walk(self, cell_ids) -> _ClosureWalk:
        walk = _ClosureWalk(self)
        for k in sorted(self.key_of_id(c) for c in set(cell_ids)):
            walk.split(k)
        return walk

    def closure_counts(self, cell_ids) -> np.ndarray:
        """Closure size of every prefix of `cell_ids`, without building a mesh.

        Entry k is the number of cells refine(cell_ids[:k + 1]) splits, 2:1
        closure included: the closure grows with the prefix, so one walk over
        the ids in order counts them all.
        """
        walk = _ClosureWalk(self)
        counts = np.empty(len(cell_ids), dtype=np.int64)
        for n, cid in enumerate(cell_ids):
            walk.split(self.key_of_id(cid))
            counts[n] = len(walk.splits)
        return counts

    def adapt(self, refine_ids, coarsen_ids) -> tuple["QuadMesh", AdaptReport]:
        """Apply refinement (with 2:1 closure) and then feasible coarsening.

        Refinement marks must reference active cells.  Coarsening marks are
        best effort: a sibling quartet merges only when all four children are
        marked, still active, and the merge keeps the mesh 2:1 balanced;
        anything else is dropped silently.  Returns (new_mesh, report); the
        receiver is returned unchanged when nothing happens.
        """
        walk = self._walk(refine_ids)
        coarsen_keys = []
        for c in set(coarsen_ids):
            k = self._key_by_id.get(c)
            if k is not None:
                coarsen_keys.append(k)
        active, refined = walk.active, walk.refined
        report = AdaptReport(refined=walk.splits)

        # group coarsening marks into full sibling quartets
        by_parent: dict = {}
        for k in coarsen_keys:
            if k[0] == 0 or k not in active:
                continue
            by_parent.setdefault(_parent_key(k), []).append(k)
        for pk in sorted(by_parent):
            kids = _child_keys(pk)
            if len(by_parent[pk]) != 4 or any(c not in active for c in kids):
                continue
            # merging must not leave a level-2 jump: no refined sibling-level
            # neighbor may touch the quartet from outside
            feasible = True
            for ck in kids:
                lev, i, j = ck
                for d in (EAST, NORTH, WEST, SOUTH):
                    di, dj = DIR_STEP[d]
                    nk = (lev, i + di, j + dj)
                    if _parent_key(nk) == pk or not self._in_range(nk):
                        continue
                    if nk in refined:
                        feasible = False
                        break
                if not feasible:
                    break
            if not feasible:
                continue
            for ck in kids:
                del active[ck]
            active[pk] = refined.pop(pk)
            report.coarsened.append(pk)

        if report.unchanged:
            return self, report
        state = (active, refined, walk.next_id, self.generation + 1)
        mesh = QuadMesh(self.domain, self.nx, self.ny, _state=state)
        return mesh, report


def build_uniform(domain, nx: int, ny: int) -> QuadMesh:
    """Uniform nx-by-ny mesh of rectangle `domain` = (x0, y0, x1, y1)."""
    return QuadMesh(domain, nx, ny)
