"""Enriched Galerkin function space on quadtree meshes.

The discrete space couples a continuous bilinear (Q1) nodal space with one
piecewise-constant enrichment dof per active cell.  Coefficient vectors are
laid out as [vertex dofs | cell constants].  Vertices are numbered by
integer codes of their coordinates on the lattice of the finest level
present, all in one np.unique.  On meshes with hanging nodes the vertex dof
at the midpoint of a coarse cell's edge is constrained to the average of
the edge's two endpoints, so the continuous part stays conforming; 2:1
balance guarantees those endpoints are never hanging themselves, so there
are no constraint chains.  Constrained dofs are kept in the full vector
(always consistent with their masters) and a sparse prolongation maps the
reduced, solvable unknowns to the full layout.

Reference cell is [0,1]^2 with corner ordering SW, SE, NW, NE; shape
function index 4 is the cell constant.  Quadrature: 3x3 Gauss per cell and
3-point Gauss per face, exact for every bilinear-form integrand that
appears here with cellwise-constant coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .mesh import (
    BOUNDARY,
    BOUNDARY_NAME,
    CONFORMING,
    DIR_NORMAL,
    EAST,
    HANGING_HIGH,
    HANGING_LOW,
    NORTH,
    SOUTH,
    WEST,
    MeshError,
    QuadMesh,
    _find,
)

__all__ = [
    "AssemblyContext",
    "AssemblyPlan",
    "CELL_TABLE",
    "CELL_WEIGHTS",
    "CELL_WN",
    "EGDofMap",
    "FACE_WEIGHTS",
    "fix_gauge",
    "interpolate",
    "q1_grads",
    "q1_values",
]

def _frozen(a) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=float)
    a.flags.writeable = False
    return a


def _frozen_index(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


# Gauss rules, read-only: 3 points on [0,1] and their 3x3 tensor product on
# [0,1]^2, exact through degree 5 per axis; the weights sum to 1
_G3 = 0.5 + 0.5 * np.array([-np.sqrt(3.0 / 5.0), 0.0, np.sqrt(3.0 / 5.0)])
FACE_WEIGHTS = _frozen(np.array([5.0, 8.0, 5.0]) / 18.0)
_CELL_PTS = _frozen(np.stack([np.repeat(_G3, 3), np.tile(_G3, 3)], axis=1))  # (9, 2)
CELL_WEIGHTS = _frozen(np.outer(FACE_WEIGHTS, FACE_WEIGHTS).ravel())


def q1_values(xi, eta) -> np.ndarray:
    """Shape values [SW, SE, NW, NE, const] at reference points; (..., 5)."""
    xi = np.asarray(xi, dtype=float)
    eta = np.asarray(eta, dtype=float)
    out = np.empty(xi.shape + (5,))
    out[..., 0] = (1 - xi) * (1 - eta)
    out[..., 1] = xi * (1 - eta)
    out[..., 2] = (1 - xi) * eta
    out[..., 3] = xi * eta
    out[..., 4] = 1.0
    return out


def q1_grads(xi, eta) -> np.ndarray:
    """Reference gradients of the five shape functions; (..., 5, 2)."""
    xi = np.asarray(xi, dtype=float)
    eta = np.asarray(eta, dtype=float)
    out = np.zeros(xi.shape + (5, 2))
    out[..., 0, 0] = -(1 - eta)
    out[..., 0, 1] = -(1 - xi)
    out[..., 1, 0] = 1 - eta
    out[..., 1, 1] = -xi
    out[..., 2, 0] = -eta
    out[..., 2, 1] = 1 - xi
    out[..., 3, 0] = eta
    out[..., 3, 1] = xi
    return out


# ----------------------------------------------------------------------
# dof map


class EGDofMap:
    """Vertex + cell-constant dof layout with hanging-node constraints.

    Vertices are numbered in ascending (x, y) order of `vertex_ij`, their
    coordinates on the lattice of `lattice_level`, the finest level present.
    Hanging vertex `constrained[k]` is the average of `masters[k]`.  A
    master that were hanging too would lie inside an edge of a cell two
    levels coarser than the cells across the edge, so balance rules out
    chains; the constructor checks it.
    """

    def __init__(self, mesh: QuadMesh):
        self.mesh = mesh
        lev, ci, cj = mesh.cell_level, mesh.cell_i, mesh.cell_j
        top = self.lattice_level = int(lev.max())
        # codes X * row + Y ascend in (X, Y); Python integers past int64
        self._row = (mesh.ny << top) + 1
        bound = ((mesh.nx << top) + 1) * self._row
        self._code_type = np.int64 if bound < 2**63 else object

        s = top - lev
        X = ((ci[:, None] + (0, 1, 0, 1)) << s[:, None]).ravel()  # SW, SE, NW, NE
        Y = ((cj[:, None] + (0, 0, 1, 1)) << s[:, None]).ravel()
        self._codes, _, inverse = _unique_inverse(self._code(X, Y), bound)
        self.n_cg = self._codes.size
        self.n_const = mesh.n_active
        self.n_dofs = self.n_cg + self.n_const

        vij = np.empty((self.n_cg, 2), dtype=np.int64)
        vij[inverse, 0], vij[inverse, 1] = X, Y
        self.vertex_ij = vij
        x0, y0, x1, y1 = mesh.domain
        sx = (x1 - x0) / (mesh.nx << top)
        sy = (y1 - y0) / (mesh.ny << top)
        self.vertex_pos = np.stack([x0 + vij[:, 0] * sx, y0 + vij[:, 1] * sy], axis=1)

        cd = np.empty((mesh.n_active, 5), dtype=np.int64)
        cd[:, :4] = inverse.reshape(-1, 4)
        cd[:, 4] = self.n_cg + np.arange(mesh.n_active)
        self.cell_dofs = cd

        # each hanging vertex once, from the low sub-face of its coarse edge
        f = np.flatnonzero(mesh.face_kind == HANGING_LOW)
        o, d = mesh.face_owner[f], mesh.face_dir[f]
        ew = (d == EAST) | (d == WEST)
        cross = np.where(ew, ci[o] + (d == EAST), cj[o] + (d == NORTH))
        along = np.where(ew, cj[o], ci[o]) & ~1

        def edge_point(k):
            a = along + k
            return self._index(np.where(ew, cross, a) << s[o],
                               np.where(ew, a, cross) << s[o])

        lo, mid, hi = edge_point(0), edge_point(1), edge_point(2)
        order = np.argsort(mid)
        self.constrained = mid[order]
        self.masters = np.stack([lo[order], hi[order]], axis=1)

        free = np.ones(self.n_dofs, dtype=bool)
        free[self.constrained] = False
        if not free[self.masters].all():
            raise MeshError("a hanging vertex's master is itself constrained: "
                            "the face table breaks 2:1 balance")
        self.free_dofs = np.flatnonzero(free)
        self.n_reduced = self.free_dofs.size
        self.n_free_cg = self.n_cg - self.constrained.size
        full_to_reduced = np.full(self.n_dofs, -1, dtype=np.int64)
        full_to_reduced[self.free_dofs] = np.arange(self.n_reduced)
        self.full_to_reduced = full_to_reduced

        # P: identity rows on free dofs, 1/2 on each master's column
        c, m = self.constrained, self.masters
        rows = np.concatenate([self.free_dofs, c, c])
        cols = full_to_reduced[np.concatenate([self.free_dofs, m[:, 0], m[:, 1]])]
        vals = np.repeat([1.0, 0.5], [self.n_reduced, 2 * c.size])
        self.P = sp.csr_matrix((vals, (rows, cols)), shape=(self.n_dofs, self.n_reduced))

    def _code(self, X, Y):
        return X.astype(self._code_type) * self._row + Y

    def _index(self, X, Y) -> np.ndarray:
        """Indices of vertices given by their coordinates on the lattice."""
        return np.searchsorted(self._codes, self._code(X, Y))

    def find_vertices(self, level: int, i, j) -> np.ndarray:
        """Index of the vertex at each point (i, j) of the level-`level`
        lattice; -1 where no vertex sits."""
        i, j = np.asarray(i, dtype=np.int64), np.asarray(j, dtype=np.int64)
        s = self.lattice_level - level
        if s >= 0:
            X, Y, on = i << s, j << s, True
        else:
            X, Y, on = i >> -s, j >> -s, ((i | j) & ((1 << -s) - 1)) == 0
        hit, at = _find(self._codes, self._code(X, Y))
        return np.where(on & hit, at, -1)

    # -- layout -------------------------------------------------------------

    def cell_means(self, coeffs: np.ndarray) -> np.ndarray:
        """Exact cell means: corner average of the CG part plus the constant.

        Coefficient vectors may be stacked as rows, (..., n_dofs)."""
        cd = self.cell_dofs
        return coeffs[..., cd[:, :4]].mean(axis=-1) + coeffs[..., cd[:, 4]]

    def total_integral(self, coeffs: np.ndarray) -> float:
        """Exact integral of the EG function over the domain."""
        return float((self.cell_means(coeffs) * self.mesh.cell_area).sum())

    # -- constraint handling ----------------------------------------------

    def distribute(self, x: np.ndarray) -> np.ndarray:
        """Overwrite constrained entries from their masters; returns a copy."""
        return self.P @ x[self.free_dofs]

    def prolong(self, x_red: np.ndarray) -> np.ndarray:
        return self.P @ x_red

    def restrict(self, x_full: np.ndarray) -> np.ndarray:
        return x_full[self.free_dofs]


# ----------------------------------------------------------------------
# gauge and interpolation


def fix_gauge(dofmap: EGDofMap, coeffs: np.ndarray) -> np.ndarray:
    """Normalize the redundant constant split of an enriched coefficient vector.

    A global constant is representable both in the vertex part and in the
    cell constants, so coefficient vectors are unique only up to that shift.
    This picks the representative whose area-weighted mean of cell constants
    vanishes; the represented function is unchanged.
    """
    mesh = dofmap.mesh
    const = coeffs[dofmap.n_cg:]
    alpha = float(const @ mesh.cell_area) / mesh.total_area
    out = np.array(coeffs, dtype=float)
    out[: dofmap.n_cg] += alpha
    out[dofmap.n_cg:] -= alpha
    return out


def interpolate(f, ctx: AssemblyContext) -> np.ndarray:
    """Interpolate a callable f(x, y) into the enriched space of a context.

    The continuous part takes vertex values (hanging vertices are then
    overwritten by their constraint averages); each cell constant is set so
    the cell mean of the interpolant matches the quadrature mean of f.
    """
    dm = ctx.dofmap
    coeffs = np.zeros(dm.n_dofs)
    coeffs[: dm.n_cg] = np.asarray(
        f(dm.vertex_pos[:, 0], dm.vertex_pos[:, 1]), dtype=float
    )
    coeffs = dm.distribute(coeffs)
    f_qp = np.broadcast_to(f(ctx.cell_qx, ctx.cell_qy), ctx.cell_qx.shape)
    coeffs[dm.n_cg:] = (f_qp - ctx.cell_values(coeffs)) @ CELL_WEIGHTS
    return coeffs


# ----------------------------------------------------------------------
# reference tables: the unit cell and the unit face, computed once


def _face_ref_coords(d: int, g: np.ndarray) -> np.ndarray:
    one, zero = np.ones_like(g), np.zeros_like(g)
    if d == EAST:
        return np.stack([one, g], 1)
    if d == WEST:
        return np.stack([zero, g], 1)
    if d == NORTH:
        return np.stack([g, one], 1)
    return np.stack([g, zero], 1)


_OPPOSITE = {EAST: WEST, WEST: EAST, NORTH: SOUTH, SOUTH: NORTH}


def _neighbor_ref_coords(d: int, kind: int, g: np.ndarray) -> np.ndarray:
    """The face points on the neighbor's opposite edge; a hanging neighbor,
    twice the owner's size, sees the face on its low or high half."""
    if kind != CONFORMING:
        g = (g + (0.0 if kind == HANGING_LOW else 1.0)) / 2.0
    return _face_ref_coords(_OPPOSITE[d], g)


def _side(a: np.ndarray, side: int) -> np.ndarray:
    """Embed a (3, 5, ...) trace table as the owner (0) or neighbor (1) half
    of the 10-dof interior-face layout."""
    out = np.zeros((a.shape[0], 10) + a.shape[2:])
    out[:, 5 * side:5 * side + 5] = a
    return out


def _transpose(t: np.ndarray, k: int) -> np.ndarray:
    return t.reshape(k, k).T.ravel()


_DIRS = (EAST, NORTH, WEST, SOUTH)
_INTERIOR_KINDS = (CONFORMING, HANGING_LOW, HANGING_HIGH)

_CELL_N = _frozen(q1_values(*_CELL_PTS.T))                      # (9, 5)
_CELL_DN = _frozen(q1_grads(*_CELL_PTS.T))                      # (9, 5, 2)
_FACE_PTS = {d: _frozen(_face_ref_coords(d, _G3)) for d in _DIRS}
_FACE_PTS_BY_DIR = _frozen(np.stack([_FACE_PTS[d] for d in range(4)]))
_NORMALS = _frozen(np.stack([DIR_NORMAL[d] for d in range(4)]))
_FACE_N = {d: _frozen(q1_values(*p.T)) for d, p in _FACE_PTS.items()}
_FACE_DN = {d: _frozen(q1_grads(*p.T)) for d, p in _FACE_PTS.items()}
_NB_PTS = {(d, k): _neighbor_ref_coords(d, k, _G3)
           for d in _DIRS for k in _INTERIOR_KINDS}
_NB_N = {dk: _frozen(q1_values(*p.T)) for dk, p in _NB_PTS.items()}
_NB_DN = {dk: _frozen(q1_grads(*p.T)) for dk, p in _NB_PTS.items()}

def _trace_table(N, dN, normal) -> np.ndarray:
    """(10, 12) map from the local dofs [owner | neighbor] to the values and
    normal derivatives of each side at the 3 face points: columns [values
    owner, neighbor | derivatives owner, neighbor], 3 each, for per-side
    shapes N (3, 5) and gradients dN (3, 5, 2).  A boundary face's
    neighbor columns are 0."""
    out = np.zeros((10, 12))
    for s in range(len(N)):
        out[5 * s:5 * s + 5, 3 * s:3 * s + 3] = N[s].T
        out[5 * s:5 * s + 5, 6 + 3 * s:9 + 3 * s] = (dN[s] @ normal).T
    return out


def _interior_tables(d: int, kind: int) -> tuple[np.ndarray, np.ndarray]:
    """(table, eval_table) of interior faces of direction d and kind `kind`
    on a unit owner, from the unit-face integrals jump x jump, jump x N per
    side and quadrature point, and jump x grad N per side and gradient
    component; a hanging neighbor is twice the owner's size."""
    nb = 1.0 if kind == CONFORMING else 2.0
    N, dN = (_FACE_N[d], _NB_N[d, kind]), (_FACE_DN[d], _NB_DN[d, kind] / nb)
    normal = DIR_NORMAL[d]
    jump = _side(N[0], 0) - _side(N[1], 1)
    jj = np.einsum("q,qa,qb->ab", FACE_WEIGHTS, jump, jump).ravel()
    up = [np.einsum("q,qa,qb->qab", FACE_WEIGHTS, jump, _side(N[s], s)).reshape(3, 100)
          for s in (0, 1)]
    f_o, f_n = (np.einsum("q,qa,qbe->eab", FACE_WEIGHTS, jump, _side(dN[s], s)).reshape(2, 100)
                for s in (0, 1))
    g_o, g_n = normal @ f_o, normal @ f_n
    table = np.vstack([jj, g_o, g_n, _transpose(g_o, 10), _transpose(g_n, 10),
                       *up, f_o, f_n])
    return _frozen(table), _frozen(_trace_table(N, dN, normal))


def _boundary_tables(d: int) -> tuple[np.ndarray, np.ndarray]:
    """(table, eval_table) of boundary faces of direction d on a unit owner,
    from the unit-face integrals N x N per quadrature point and
    N x grad N . n."""
    N, dN, normal = _FACE_N[d], _FACE_DN[d], DIR_NORMAL[d]
    nn = np.einsum("q,qa,qb->qab", FACE_WEIGHTS, N, N).reshape(3, 25)
    ndn = np.einsum("q,qa,qb->ab", FACE_WEIGHTS, N, dN @ normal).ravel()
    table = np.vstack([nn.sum(axis=0), ndn, _transpose(ndn, 5), nn])
    return _frozen(table), _frozen(_trace_table((N,), (dN,), normal)[:5])


_CORNERS = np.array([[0, 0], [1, 0], [0, 1], [1, 1]])     # SW, SE, NW, NE


def _twins(d: int, kind: int) -> np.ndarray:
    """The owner's local dof that each of the neighbor's 5 local dofs is on
    an interior face of direction d and kind `kind`, -1 where none: the
    neighbor's corners, placed in the owner's reference cell through the
    face points that both sides see, where they meet the owner's."""
    s = 1.0 if kind == CONFORMING else 2.0
    corners = np.rint(_FACE_PTS[d][0] - s * _NB_PTS[d, kind][0]) + s * _CORNERS
    hit = (corners[:, None] == _CORNERS).all(axis=2)
    return np.append(np.where(hit.any(axis=1), hit.argmax(axis=1), -1), -1)


def _fold(table: np.ndarray, eval_table: np.ndarray, twin: np.ndarray | None) -> dict:
    """The FaceGroup fields of a face class: its table folded onto the
    distinct entries of its local block (`table`, `fold`, `source`; see
    FaceGroup) and its `eval_table`.  Neighbor dof j is owner dof twin[j]
    where that is not -1; a boundary face has no neighbor (twin None).  The
    fold matrix F sums the columns of each source and drops a source whose
    columns are zero in every row."""
    k = 5 if twin is None else 10
    own, nb = np.arange(k), np.full(k, -1)
    if twin is not None:
        own[5:] = twin
        nb[5:] = np.arange(5)
        nb[twin[twin >= 0]] = np.flatnonzero(twin >= 0)
    r, c = np.divmod(np.arange(k * k), k)
    canon = np.where((own[r] >= 0) & (own[c] >= 0), 5 * own[r] + own[c],
                     np.where((nb[r] >= 0) & (nb[c] >= 0), 25 + 5 * nb[r] + nb[c],
                              50 + 10 * r + c))
    live = np.zeros(150, dtype=bool)
    live[canon[table.any(axis=0)]] = True
    source = np.flatnonzero(live)
    fold = np.where(live[canon], np.cumsum(live)[canon] - 1, -1)
    F = np.zeros((k * k, source.size))
    F[np.flatnonzero(fold >= 0), fold[fold >= 0]] = 1.0
    return dict(table=_frozen(table @ F), fold=_frozen_index(fold),
                source=_frozen_index(source), eval_table=eval_table)


# Tables on the unit cell hx = hy = 1, built once.  Every row is homogeneous
# in the cell size, so a cell or face of any level scales it by one product
# of its sizes, which the assemblers fold into their per-entity coefficient
# columns.  CELL_TABLE rows 0:23, each a flattened 5x5 local matrix: 0 mass,
# 1:5 diffusion per (d, e) tensor entry, 5:23 advection per (quadrature
# point, velocity component).  A cell of size hx x hy scales the mass row by
# its area, diffusion entry (d, e) by area / (h_d h_e)
# (AssemblyContext.diff_scale) and the advection rows of component d by
# area / h_d.  Shape 4 is the constant 1, so column 4 of a mass-type row
# holds the integral of each shape: CELL_WN, the weights of a cellwise
# constant source on the right-hand side.  _CELL_EVAL maps the 5 local dofs
# to the values at the 9 quadrature points (columns 0:9), then to the
# unit-cell gradients there (9:27, in (component, point) order), which a
# cell divides by (hx, hy).  Face tables: see FaceGroup.
CELL_TABLE = _frozen(np.vstack([
    np.einsum("q,qa,qb->ab", CELL_WEIGHTS, _CELL_N, _CELL_N).ravel(),
    np.einsum("q,qad,qbe->deab", CELL_WEIGHTS, _CELL_DN, _CELL_DN).reshape(4, 25),
    np.einsum("q,qad,qb->qdab", CELL_WEIGHTS, _CELL_DN, _CELL_N).reshape(18, 25)]))
CELL_WN = _frozen(CELL_TABLE[0].reshape(5, 5)[:, 4])
_CELL_EVAL = _frozen(np.hstack([_CELL_N.T, _CELL_DN[:, :, 0].T, _CELL_DN[:, :, 1].T]))
# the mesh lists a conforming face from its west or south cell only
_FACE_TABLES = {(d, k): _fold(*_interior_tables(d, k), _twins(d, k))
                for d in _DIRS for k in _INTERIOR_KINDS if k != CONFORMING or d in (EAST, NORTH)}
_FACE_TABLES.update({(d, BOUNDARY): _fold(*_boundary_tables(d), None) for d in _DIRS})


# ----------------------------------------------------------------------
# sparsity pattern


def _index_type(shape) -> type:
    """int32 while every row * n_cols + col key fits, else int64."""
    return np.int32 if shape[0] * shape[1] < 2**31 else np.int64


def _unique_inverse(key: np.ndarray, bound: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """np.unique(key, return_index=True, return_inverse=True) for keys in
    [0, bound): the sorted unique keys, the first position of each, and the
    position of each key's value among them.

    When each key and its position fit one int64 together, sorting the packed
    values replaces the slower argsort.
    """
    bits = max(int(key.size - 1).bit_length(), 1)
    if bound > (2**63 - 1) >> bits:
        return np.unique(key, return_index=True, return_inverse=True)
    spare = np.arange(key.size)                # positions, then ranks
    packed = np.left_shift(key, bits, dtype=np.int64)
    packed |= spare
    packed.sort()
    at = packed & ((1 << bits) - 1)
    packed >>= bits                            # the sorted keys
    step = np.empty(key.size, dtype=bool)
    step[:1] = True
    np.not_equal(packed[1:], packed[:-1], out=step[1:])
    starts = np.flatnonzero(step)
    uniq = packed[starts].astype(key.dtype)
    spare[:1] = 0
    np.cumsum(step[1:], out=spare[1:])
    inverse = packed                           # reused: the sorted keys are done
    inverse[at] = spare
    return uniq, at[starts], inverse


@dataclass(frozen=True)
class Scatter:
    """Sums values listed in assembly order into `size` reduced entries.

    Value k adds into bin `slot[k]`.  A bin below `size` is a reduced entry.
    A bin from `size` on collects one full-layout entry that touches a
    hanging vertex or the pinned dof; pair p then adds bin `src[p]` times
    `w[p]` into reduced entry `dst[p]`, over the entry's masters (deal.II's
    distribute_local_to_global).  A bin that no pair reads is dropped,
    which is how the pinned dof's row and column leave the reduced, pinned
    system.
    """

    size: int
    bins: int
    slot: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    w: np.ndarray

    def __call__(self, vals: np.ndarray) -> np.ndarray:
        acc = np.bincount(self.slot, weights=vals, minlength=self.bins)
        out = acc[:self.size]
        out += np.bincount(self.dst, weights=acc[self.src] * self.w, minlength=self.size)
        return out


@dataclass(frozen=True)
class AssemblyPlan:
    """Where local values land in the reduced, pinned system of a mesh.

    Reduced numbering drops the hanging vertices (`EGDofMap.full_to_reduced`)
    and then the last reduced dof, the cell constant that the gauge pin
    holds at 0.  `indptr`/`indices` are the CSR pattern of the reduced,
    pinned matrix, shared read-only by every matrix assembled on the plan;
    `matrix` sums the cell blocks and each face's folded entries (48
    conforming, 65 hanging, 21 boundary; see FaceGroup) into it, and `rhs`
    the rhs pieces.
    """

    shape: tuple[int, int]
    indptr: np.ndarray
    indices: np.ndarray
    matrix: Scatter
    rhs: Scatter


def _assembly_pattern(ctx: AssemblyContext) -> AssemblyPlan:
    """Reduced, pinned plan over every local block in assembly order.

    Blocks: 5x5 per cell in mesh order, then per face its group's folded
    entries (48 conforming, 65 hanging, 21 boundary), in face order.  Only
    the cell blocks and a face's entries between dofs of no common cell are
    keyed; every other face entry repeats a bin of its owner's or its
    neighbor's cell block, as the group's import-time `source` says (see
    FaceGroup).  Keys are reduced before the one sort: an entry
    between free dofs keys its reduced entry row * n + col.  Any other keys
    its full-layout entry above those, so that one bin collects it from
    every block, and lists the pairs of its row's and its column's reduced
    stencils, a hanging vertex's two masters at 1/2 and none for the pinned
    dof (deal.II's distribute_local_to_global); the pairs join the sort.
    Sorting gives the CSR pattern, every slot, and the reduced entry of
    every pair.
    """
    dm = ctx.dofmap
    n = dm.n_reduced - 1
    nn = n * n
    bound = nn + dm.n_dofs**2
    ktype = np.int32 if bound < 2**31 else np.int64
    # a key row * n + col of reduced dofs; n * n and up unless both are free
    red = dm.full_to_reduced
    free = (red >= 0) & (red < n)
    row_code = np.where(free, red * n, nn).astype(ktype)
    col_code = np.where(free, red, nn).astype(ktype)

    cd = dm.cell_dofs
    nc = len(cd)
    fd = ctx.face_dofs
    every = np.arange(25)
    parts = [(cd, every // 5, every % 5)]
    for g in ctx.interior_groups:
        parts.append((fd[g.sl],) + np.divmod(g.source[g.source >= 50] - 50, 10))
    key = np.empty(sum(d.shape[0] * i.size for d, i, _ in parts), dtype=ktype)
    spec, r, c, start = [], [], [], 0
    for dofs, i, j in parts:
        m, k = dofs.shape[0], i.size
        np.add(np.take(row_code[dofs], i, axis=1), np.take(col_code[dofs], j, axis=1),
               out=key[start:start + m * k].reshape(m, k))
        off = np.flatnonzero(key[start:start + m * k] >= nn)
        spec.append(start + off)
        f, e = np.divmod(off, k)
        r.append(dofs[f, i[e]])
        c.append(dofs[f, j[e]])
        start += m * k
    spec, r, c = (np.concatenate(a) for a in (spec, r, c))

    # the entries off the free block, and the pairs of those clear of the
    # pinned dof, entry by entry
    key[spec] = nn + r * dm.n_dofs + c
    spread = np.flatnonzero((r != dm.free_dofs[n]) & (c != dm.free_dofs[n]))
    spec, r, c = spec[spread], r[spread], c[spread]
    master = np.stack([red, red]).astype(ktype)
    master[:, dm.constrained] = red[dm.masters].T
    hang = (red < 0).astype(np.intp)
    n_col = 1 + hang[c]
    n_pairs = (1 + hang[r]) * n_col
    offset = np.cumsum(n_pairs) - n_pairs
    entry = np.repeat(np.arange(spec.size), n_pairs)
    a, b = np.divmod(np.arange(entry.size) - offset[entry], n_col[entry])
    pair_key = master[a, r[entry]] * n + master[b, c[entry]]

    uniq, first, inverse = _unique_inverse(np.concatenate([key, pair_key]), bound)
    size, bins = int(np.searchsorted(uniq, nn)), uniq.size
    keyed = inverse[:key.size]
    # the Scatter reads the pairs of each bin's first entry, in bin order
    entry_bin = keyed[spec]
    lead = np.flatnonzero(first[entry_bin] == spec)
    by_bin = np.full(bins - size, -1)
    by_bin[entry_bin[lead] - size] = lead
    lead = by_bin[by_bin >= 0]
    m = n_pairs[lead]
    pair = np.repeat(offset[lead] - (np.cumsum(m) - m), m) + np.arange(m.sum())
    src, dst = np.repeat(entry_bin[lead], m), inverse[key.size + pair]
    w = np.repeat(0.5 ** (hang[r] + hang[c])[lead], m)
    itype = _index_type((n, n))
    row = uniq[:size] // n
    indptr = np.zeros(n + 1, dtype=itype)
    np.cumsum(np.bincount(row, minlength=n), out=indptr[1:])
    indices = (uniq[:size] - row * n).astype(itype)
    del key, pair_key, uniq, first, inverse, row    # before the largest array

    groups = ctx.face_groups
    slot = np.empty(25 * nc + sum((g.sl.stop - g.sl.start) * g.source.size for g in groups),
                    dtype=np.intp)
    cell = slot[:25 * nc]
    cell[...] = keyed[:25 * nc]
    sb = ctx.own[ctx.n_interior:]
    sides = np.stack([ctx.own, np.concatenate([ctx.nb, sb])], axis=1)
    at, start = 25 * nc, 25 * nc
    for g in groups:
        m, width = g.sl.stop - g.sl.start, g.source.size
        held = g.source[g.source < 50]       # entries of a cell block
        k = width - held.size
        face = slot[at:at + m * width].reshape(m, width)
        face[:, :held.size] = cell[sides[g.sl][:, held // 25] * 25 + held % 25]
        face[:, held.size:] = keyed[start:start + m * k].reshape(m, k)
        at += m * width
        start += m * k
    matrix = Scatter(size=size, bins=bins, slot=slot, src=src, dst=dst, w=w)

    # rhs rows: free dofs map 1:1, hanging ones onto their two masters
    hung = dm.constrained
    row_bin = np.full(dm.n_dofs, n + hung.size, dtype=np.intp)      # dropped
    row_bin[free] = red[free]
    row_bin[hung] = np.arange(n, n + hung.size)
    rhs = Scatter(size=n, bins=n + hung.size + 1,
                  slot=row_bin[np.concatenate([cd.ravel(), cd[sb].ravel()])],
                  src=np.repeat(row_bin[hung], 2), dst=red[dm.masters].ravel(),
                  w=np.full(2 * hung.size, 0.5))
    return AssemblyPlan(shape=(n, n), indptr=_frozen_index(indptr),
                        indices=_frozen_index(indices), matrix=matrix, rhs=rhs)


# ----------------------------------------------------------------------
# assembly context: one face group per class, on the unit tables, with the
# per-entity sizes that scale them


@dataclass
class FaceGroup:
    """The faces of one direction and kind, at every level: the slice `sl`
    of the mesh's face table, whose faces are listed by class.

    Interior table rows, each a 10x10 local matrix over [owner dofs |
    neighbor dofs] on a unit owner: 0 jump x jump, 1/2 jump x (grad N . n)
    of the owner/neighbor side, 3/4 their transposes, 5:8 / 8:11 upwind
    jump x N_own / jump x N_nb per quadrature point, 11:13 / 13:15 jump x
    grad N per gradient component of the owner/neighbor side.  Boundary
    table rows, each a 5x5 over the owner's dofs: 0 N x N, 1 N x (grad N .
    n), 2 its transpose, 3:6 N x N per quadrature point.

    Each local matrix is folded onto its distinct entries once, at import
    (_fold): the owner and the neighbor share the face's vertices, so the
    entries at one pair of dofs sum into one column of `table`, and the
    entries that are zero in every row are dropped.  `fold` maps each
    flattened local entry (row * 10 + col, or row * 5 + col) to its column,
    -1 where dropped.  `source` names, per column in ascending order, the
    bin it shares: entry 0:25 of the owner's cell block, 25:50 of the
    neighbor's, or 50 + row * 10 + col for an entry between an owner-only
    and a neighbor-only dof, keyed on its own.  A conforming face keeps 48
    of 100 entries, a hanging one 65 and a boundary one 21 of 25.

    Shape 4 is the constant 1, so local column 4 of a boundary row
    (`rhs_weights`) holds the right-hand-side weights of data that is
    constant on the face: of row 0 the integral of each shape, of row 2
    that of its grad N . n, of rows 3:6 each shape's weight per quadrature
    point.  With its owner's sizes a face scales a row without a
    gradient by h_e; a row with grad N . n by h_e / h_n; and rows 11:15 by
    h_e / (hx, hy) per gradient component (AssemblyContext.h_e, h_ratio,
    h_lift).  eval_table maps the local dofs to the values at the 3
    quadrature points of the owner and neighbor sides (columns 0:3, 3:6),
    then to their normal derivatives (6:9, 9:12), both along the owner
    normal, which a face divides by its owner's h_n; a boundary face's
    neighbor columns are 0.
    """

    dir: int
    kind: int
    sl: slice
    boundary: str | None
    table: np.ndarray    # (15, 48) conforming, (15, 65) hanging, (6, 21) boundary
    fold: np.ndarray     # (100,) interior, (25,) boundary
    source: np.ndarray   # (table.shape[1],), ascending
    eval_table: np.ndarray  # (10, 12) interior, (5, 12) boundary

    @property
    def rhs_weights(self) -> np.ndarray:
        """(6, 5) local column 4 of every row of a boundary group's table."""
        return self.table[:, self.fold[4::5]]


class AssemblyContext:
    """Mesh + dofmap + the per-entity sizes, face groups and sparsity shared
    by all assemblers.

    Tables: every cell uses the module's CELL_TABLE, and a FaceGroup holds
    the tables of the faces of one class, folded at import onto the
    distinct entries of its local block: interior faces per (direction,
    kind), at most 10, then boundary faces per side, at most 4.  A source is
    one value per cell and boundary data one value per side, so every
    right-hand-side weight is the constant column of a table row (CELL_WN,
    and see FaceGroup).  All tables are on the unit cell, so no table
    depends on a mesh.  Each table row is homogeneous in the cell size, and
    a level is the root cell scaled by 2^-L, so an entity scales a row by a
    product of its sizes: `cell_h` (the mesh's sizes at each cell's
    level), `cell_area` and `diff_scale` for cells, and per face `h_e`,
    `h_ratio` and `h_lift`.  An
    assembler forms each coefficient column once over all cells, or over all
    interior faces, with those sizes folded in; its per-group work is a
    slice of the coefficients times the group's table, one matmul per group.

    Faces: the mesh lists its faces by class, the `n_interior` interior ones
    first, so group g holds faces g.sl of the mesh's face table.  Per face,
    in that order: `own`, `nb` (interior only), `normal`, the sizes,
    `face_dofs` ([owner dofs | neighbor dofs]; a boundary face repeats its
    owner's) and the quadrature points `face_qx`, `face_qy`.  `cell_qx`,
    `cell_qy` are the cells' quadrature points.

    Plan: `plan` maps every entry of the cell blocks and of the folded face
    blocks, in assembly order (the cell blocks, then `interior_groups`,
    then `boundary_groups`, each face its group's table width), into the
    reduced, pinned system that the solver factors (see AssemblyPlan), and
    does the same for the right-hand side pieces of cells and boundary
    faces.  Faces that contribute nothing (Neumann, inflow) still pass
    zeros, so the pattern does not depend on the data.  Pressure and
    transport share it.

    Evaluation: `cell_values`, `cell_gradients` and `face_traces` evaluate
    a coefficient vector through the tables, one matmul over all cells and
    one per face group.
    """

    def __init__(self, mesh: QuadMesh, dofmap: EGDofMap | None = None):
        self.mesh = mesh
        self.dofmap = dofmap if dofmap is not None else EGDofMap(mesh)
        dm = self.dofmap

        lev = mesh.cell_level.astype(np.int64)          # nx << 30 passes int32
        h = np.stack(mesh._cell_size(lev), axis=1)
        self.cell_h = h
        self.cell_area = h[:, 0] * h[:, 1]
        hx, hy = mesh._cell_size(0)
        self.diff_scale = np.array([hy / hx, 1.0, 1.0, hx / hy])   # on every level
        self.cell_qx = mesh.cell_x0[:, None] + _CELL_PTS[:, 0] * h[:, :1]
        self.cell_qy = mesh.cell_y0[:, None] + _CELL_PTS[:, 1] * h[:, 1:]

        kind, d = mesh.face_kind, mesh.face_dir
        self.n_interior = ni = int(np.count_nonzero(kind != BOUNDARY))
        self.own = own = mesh.face_owner
        self.nb = nb = mesh.face_neighbor[:ni]
        self.normal = _NORMALS[d]
        ew = (d == EAST) | (d == WEST)
        ho = h[own]
        self.h_e = np.where(ew, ho[:, 1], ho[:, 0])
        h_n = np.where(ew, ho[:, 0], ho[:, 1])
        self.h_ratio = self.h_e / h_n
        self.h_lift = self.h_e[:, None] / ho
        self.inv_h_n = 1.0 / h_n
        pts = _FACE_PTS_BY_DIR[d]
        self.face_qx = mesh.cell_x0[own][:, None] + pts[:, :, 0] * ho[:, :1]
        self.face_qy = mesh.cell_y0[own][:, None] + pts[:, :, 1] * ho[:, 1:]
        sides = np.stack([own, np.concatenate([nb, own[ni:]])], axis=1)
        self.face_dofs = dm.cell_dofs[sides].reshape(-1, 10)

        code = d * 4 + kind
        starts = np.flatnonzero(np.diff(code, prepend=-1))
        ends = np.append(starts[1:], code.size)
        groups = []
        for s, e in zip(starts.tolist(), ends.tolist()):
            fd, fk = int(d[s]), int(kind[s])
            groups.append(FaceGroup(
                dir=fd, kind=fk, sl=slice(s, e),
                boundary=BOUNDARY_NAME[fd] if fk == BOUNDARY else None,
                **_FACE_TABLES[fd, fk]))
        self.interior_groups = [g for g in groups if g.kind != BOUNDARY]
        self.boundary_groups = [g for g in groups if g.kind == BOUNDARY]
        self.face_groups = groups

        self.plan = _assembly_pattern(self)
        # integral of every basis function: the constant column of the mass table
        self.basis_integrals = np.bincount(
            dm.cell_dofs.ravel(), weights=(self.cell_area[:, None] * CELL_WN).ravel(),
            minlength=dm.n_dofs)

        self.cell_hmax = h.max(axis=1)
        self.cell_center = np.stack(
            [mesh.cell_x0 + 0.5 * mesh.cell_hx, mesh.cell_y0 + 0.5 * mesh.cell_hy],
            axis=1,
        )

    def block_buffer(self) -> tuple[np.ndarray, list[np.ndarray]]:
        """An uninitialized array for every local-block entry in assembly
        order, and its (n_cells, 25) view of the cell blocks, then its
        (m, 48), (m, 65) or (m, 21) view per conforming, hanging or
        boundary face group (its folded table's width, see FaceGroup), for
        an assembler to write its blocks into."""
        vals = np.empty(self.plan.matrix.slot.size)
        nc = self.mesh.n_active
        views, start = [vals[:25 * nc].reshape(nc, 25)], 25 * nc
        for g in self.face_groups:
            m, k = g.sl.stop - g.sl.start, g.table.shape[1]
            views.append(vals[start:start + m * k].reshape(m, k))
            start += m * k
        return vals, views

    def assemble(self, vals, rhs) -> tuple[sp.csr_matrix, np.ndarray]:
        """Reduced, pinned (A, b) from the filled block buffer and the rhs
        pieces: P^T A P and P^T b of the full-layout system without the last
        row and column (see AssemblyPlan).

        rhs: one (n_cells, 5) array for the cells, then one (m, 5) per
        boundary group.
        """
        plan = self.plan
        A = sp.csr_matrix((plan.matrix(vals), plan.indices, plan.indptr), shape=plan.shape)
        return A, plan.rhs(np.concatenate([v.ravel() for v in rhs]))

    # -- whole-field evaluations -------------------------------------------

    def cell_values(self, coeffs: np.ndarray) -> np.ndarray:
        """(n_cells, 9) values at the volume quadrature points."""
        return coeffs[self.dofmap.cell_dofs] @ _CELL_EVAL[:, :9]

    def cell_gradients(self, coeffs: np.ndarray) -> np.ndarray:
        """(n_cells, 9, 2) physical gradients at the volume quadrature points."""
        grad = (coeffs[self.dofmap.cell_dofs] @ _CELL_EVAL[:, 9:]).reshape(-1, 2, 9)
        grad /= self.cell_h[:, :, None]
        return grad.transpose(0, 2, 1)

    def face_traces(self, coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Values and normal derivatives at the face quadrature points.

        Returns two (n_faces, 2, 3) arrays: side 0 the owner and side 1 the
        neighbor, the derivatives along the owner normal; the neighbor side
        of a boundary face is 0.
        """
        c = coeffs[self.face_dofs]
        t = np.empty((self.mesh.n_faces, 12))
        for g in self.face_groups:
            np.matmul(c[g.sl, :g.eval_table.shape[0]], g.eval_table, out=t[g.sl])
        t[:, 6:] *= self.inv_h_n[:, None]
        t = t.reshape(-1, 2, 2, 3)
        return t[:, 0], t[:, 1]
