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
    "EGDofMap",
    "QuadratureRule",
    "cell_field_values",
    "dof_count",
    "eval_grad",
    "eval_point",
    "face_field_values",
    "fix_gauge",
    "gauss_cell",
    "gauss_face",
    "interpolate",
    "q1_grads",
    "q1_values",
]

# 3-point Gauss on [0,1]
_G3 = 0.5 + 0.5 * np.array([-np.sqrt(3.0 / 5.0), 0.0, np.sqrt(3.0 / 5.0)])
_W3 = np.array([5.0, 8.0, 5.0]) / 18.0


@dataclass(frozen=True)
class QuadratureRule:
    """Reference-domain quadrature; weights sum to the reference measure 1."""

    points: np.ndarray
    weights: np.ndarray


def gauss_cell() -> QuadratureRule:
    """Tensor 3x3 Gauss rule on [0,1]^2 (exact through degree 5 per axis)."""
    X, Y = np.meshgrid(_G3, _G3, indexing="ij")
    pts = np.stack([X.ravel(), Y.ravel()], axis=1)
    w = np.outer(_W3, _W3).ravel()
    return QuadratureRule(points=pts, weights=w)


def gauss_face() -> QuadratureRule:
    """3-point Gauss rule on [0,1] (exact through degree 5)."""
    return QuadratureRule(points=_G3.copy(), weights=_W3.copy())


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
        lev, ci, cj = np.array(mesh.cell_keys, dtype=np.int64).reshape(-1, 3).T
        top = self.lattice_level = int(lev.max())
        # codes X * row + Y ascend in (X, Y); Python integers past int64
        self._row = (mesh.ny << top) + 1
        bound = ((mesh.nx << top) + 1) * self._row
        self._code_type = np.int64 if bound < 2**63 else object

        s = top - lev
        X = ((ci[:, None] + (0, 1, 0, 1)) << s[:, None]).ravel()  # SW, SE, NW, NE
        Y = ((cj[:, None] + (0, 0, 1, 1)) << s[:, None]).ravel()
        self._codes, inverse = _unique_inverse(self._code(X, Y), bound)
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

    # -- counting / layout ------------------------------------------------

    def dof_count(self) -> tuple[int, int, int]:
        return self.n_cg, self.n_const, self.n_dofs

    def cell_means(self, coeffs: np.ndarray) -> np.ndarray:
        """Exact cell means: corner average of the CG part plus the constant."""
        cd = self.cell_dofs
        return coeffs[cd[:, :4]].mean(axis=1) + coeffs[cd[:, 4]]

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


def dof_count(mesh: QuadMesh) -> tuple[int, int, int]:
    """(continuous dofs, constant dofs, total) of the enriched space."""
    return EGDofMap(mesh).dof_count()


# ----------------------------------------------------------------------
# interpolation and point evaluation


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


def interpolate(f, mesh: QuadMesh, dofmap: EGDofMap | None = None) -> np.ndarray:
    """Interpolate a callable f(x, y) into the enriched space.

    The continuous part takes vertex values (hanging vertices are then
    overwritten by their constraint averages); each cell constant is set so
    the cell mean of the interpolant matches the quadrature mean of f.
    """
    dm = dofmap if dofmap is not None else EGDofMap(mesh)
    coeffs = np.zeros(dm.n_dofs)
    coeffs[: dm.n_cg] = np.asarray(
        f(dm.vertex_pos[:, 0], dm.vertex_pos[:, 1]), dtype=float
    )
    coeffs = dm.distribute(coeffs)

    rule = gauss_cell()
    N = q1_values(rule.points[:, 0], rule.points[:, 1])  # (9, 5)
    corners = coeffs[dm.cell_dofs[:, :4]]                # (nc, 4)
    qx = mesh.cell_x0[:, None] + rule.points[None, :, 0] * mesh.cell_hx[:, None]
    qy = mesh.cell_y0[:, None] + rule.points[None, :, 1] * mesh.cell_hy[:, None]
    fq = np.asarray(f(qx, qy), dtype=float)
    if fq.shape != qx.shape:
        fq = np.broadcast_to(fq, qx.shape)
    cgq = np.einsum("qa,ma->mq", N[:, :4], corners)
    coeffs[dm.n_cg:] = np.einsum("q,mq->m", rule.weights, fq - cgq)
    return coeffs


def _ref_point_check(xi: float, eta: float):
    if not (0.0 <= xi <= 1.0 and 0.0 <= eta <= 1.0):
        raise ValueError(f"reference point ({xi}, {eta}) outside [0,1]^2")


def eval_point(mesh: QuadMesh, dm: EGDofMap, coeffs: np.ndarray,
               cell_id: int, xi: float, eta: float) -> float:
    """Value of the EG function at reference point (xi, eta) of a cell."""
    _ref_point_check(xi, eta)
    idx = mesh.index_of_id(cell_id)
    loc = coeffs[dm.cell_dofs[idx]]
    return float(q1_values(xi, eta) @ loc)


def eval_grad(mesh: QuadMesh, dm: EGDofMap, coeffs: np.ndarray,
              cell_id: int, xi: float, eta: float) -> np.ndarray:
    """Physical gradient of the EG function at a reference point of a cell."""
    _ref_point_check(xi, eta)
    idx = mesh.index_of_id(cell_id)
    loc = coeffs[dm.cell_dofs[idx]]
    g = np.einsum("ad,a->d", q1_grads(xi, eta), loc)
    g[0] /= mesh.cell_hx[idx]
    g[1] /= mesh.cell_hy[idx]
    return g


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
    if kind == CONFORMING:
        return _face_ref_coords(_OPPOSITE[d], g)
    s = 0.0 if kind == HANGING_LOW else 1.0
    gc = (g + s) / 2.0
    one, zero = np.ones_like(gc), np.zeros_like(gc)
    if d == EAST:
        return np.stack([zero, gc], 1)
    if d == WEST:
        return np.stack([one, gc], 1)
    if d == NORTH:
        return np.stack([gc, zero], 1)
    return np.stack([gc, one], 1)


def _frozen(a) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=float)
    a.flags.writeable = False
    return a


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

_CELL_PTS = _frozen(gauss_cell().points)                        # (9, 2)
_CELL_W = _frozen(gauss_cell().weights)
_CELL_N = _frozen(q1_values(*_CELL_PTS.T))                      # (9, 5)
_CELL_DN = _frozen(q1_grads(*_CELL_PTS.T))                      # (9, 5, 2)
_FACE_PTS = {d: _frozen(_face_ref_coords(d, _G3)) for d in _DIRS}
_FACE_N = {d: _frozen(q1_values(*p.T)) for d, p in _FACE_PTS.items()}
_FACE_DN = {d: _frozen(q1_grads(*p.T)) for d, p in _FACE_PTS.items()}
_NB_PTS = {(d, k): _neighbor_ref_coords(d, k, _G3)
           for d in _DIRS for k in _INTERIOR_KINDS}
_NB_N = {dk: _frozen(q1_values(*p.T)) for dk, p in _NB_PTS.items()}
_NB_DN = {dk: _frozen(q1_grads(*p.T)) for dk, p in _NB_PTS.items()}

# unit-cell integrals; a level's tables scale them by hx, hy
_REF_MASS = _frozen(np.einsum("q,qa,qb->ab", _CELL_W, _CELL_N, _CELL_N).ravel())
_REF_DIFF = _frozen(np.einsum("q,qad,qbe->deab", _CELL_W, _CELL_DN,
                              _CELL_DN).reshape(2, 2, 25))
_REF_ADV = _frozen(np.einsum("q,qad,qb->qdab", _CELL_W, _CELL_DN,
                             _CELL_N).reshape(9, 2, 25))
_REF_SINK = _frozen(np.einsum("q,qa,qb->qab", _CELL_W, _CELL_N,
                              _CELL_N).reshape(9, 25))
_REF_WN = _frozen(_CELL_W[:, None] * _CELL_N)


def _interior_reference(d: int, kind: int):
    """Unit-face integrals of an interior face: jump x jump, the upwind pair
    jump x N_own / jump x N_nb per quadrature point, and jump x grad N per
    side and gradient component."""
    jump = _side(_FACE_N[d], 0) - _side(_NB_N[d, kind], 1)
    jj = np.einsum("q,qa,qb->ab", _W3, jump, jump).ravel()
    up = np.stack([np.einsum("q,qa,qb->qab", _W3, jump, _side(N, s)).reshape(3, 100)
                   for s, N in enumerate((_FACE_N[d], _NB_N[d, kind]))])
    flux = np.stack([np.einsum("q,qa,qbe->eab", _W3, jump, _side(dN, s)).reshape(2, 100)
                     for s, dN in enumerate((_FACE_DN[d], _NB_DN[d, kind]))])
    return _frozen(jj), _frozen(up), _frozen(flux)


def _boundary_reference(d: int):
    """Unit-face integrals of a boundary face: N x N per quadrature point,
    N x grad N per gradient component, and the weighted traces w N, w grad N."""
    N, dN = _FACE_N[d], _FACE_DN[d]
    nn = np.einsum("q,qa,qb->qab", _W3, N, N).reshape(3, 25)
    ndn = np.einsum("q,qa,qbe->eab", _W3, N, dN).reshape(2, 25)
    return (_frozen(nn), _frozen(ndn), _frozen(_W3[:, None] * N),
            _frozen(_W3[:, None, None] * dN))


_INTERIOR_REF = {(d, k): _interior_reference(d, k)
                 for d in _DIRS for k in _INTERIOR_KINDS}
_BOUNDARY_REF = {d: _boundary_reference(d) for d in _DIRS}


# ----------------------------------------------------------------------
# sparsity pattern


def _index_type(shape) -> type:
    """int32 while every row * n_cols + col key fits, else int64."""
    return np.int32 if shape[0] * shape[1] < 2**31 else np.int64


def _unique_inverse(key: np.ndarray, bound: int) -> tuple[np.ndarray, np.ndarray]:
    """np.unique(key, return_inverse=True) for keys in [0, bound).

    When each key and its position fit one int64 together, sorting the packed
    values replaces the slower argsort.
    """
    bits = max(int(key.size - 1).bit_length(), 1)
    if bound > (2**63 - 1) >> bits:
        return np.unique(key, return_inverse=True)
    packed = key.astype(np.int64)
    packed <<= bits
    packed |= np.arange(key.size)
    packed.sort()
    srt = packed >> bits
    first = np.empty(key.size, dtype=bool)
    first[:1] = True
    np.not_equal(srt[1:], srt[:-1], out=first[1:])
    uniq = srt[first].astype(key.dtype)
    del srt
    rank = first.astype(np.intp)
    np.cumsum(rank, out=rank)
    rank -= 1
    packed &= (1 << bits) - 1
    inverse = np.empty(key.size, dtype=np.intp)
    inverse[packed] = rank
    return uniq, inverse


@dataclass(frozen=True)
class Scatter:
    """Sums values listed in assembly order into `size` reduced entries.

    Value k adds into bin `slot[k]`.  A bin below `size` is a reduced entry.
    A bin from `size` on collects one full-layout entry that touches a
    hanging vertex; pair p then adds bin `src[p]` times `w[p]` into reduced
    entry `dst[p]`, over the entry's masters (deal.II's
    distribute_local_to_global).  The last bin takes what the reduced,
    pinned system drops: the pinned dof's row and column, and the entries
    that are zero by construction.
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


def _frozen_index(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class AssemblyPlan:
    """Where local values land in the reduced, pinned system of a mesh.

    Reduced numbering drops the hanging vertices (`EGDofMap.full_to_reduced`)
    and then the last reduced dof, the cell constant that the gauge pin
    holds at 0.  `indptr`/`indices` are the CSR pattern of the reduced,
    pinned matrix, shared read-only by every matrix assembled on the plan;
    `matrix` and `rhs` sum local block entries and rhs pieces into it.
    """

    shape: tuple[int, int]
    indptr: np.ndarray
    indices: np.ndarray
    matrix: Scatter
    rhs: Scatter


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


def _union_slots(ascending: np.ndarray, more: np.ndarray,
                 bound: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sorted union of an ascending array of unique keys and more keys in
    [0, bound), and the position in it of the keys of each of the two.

    A stable sort of the two ascending runs is a merge."""
    more, inverse = _unique_inverse(more, bound)
    keys = np.concatenate([ascending, more])
    order = np.argsort(keys, kind="stable")
    srt = keys[order]
    new = np.ones(keys.size, dtype=bool)
    np.not_equal(srt[1:], srt[:-1], out=new[1:])
    slot = np.empty(keys.size, dtype=np.intp)
    slot[order] = np.cumsum(new) - 1
    return srt[new], slot[:ascending.size], slot[ascending.size:][inverse]


def _reduced_entries(dm: EGDofMap, full: np.ndarray):
    """The reduced, pinned pattern of the ascending full-layout entries
    `full` (keys row * n_dofs + col), as CSR (indptr, indices), and the
    Scatter that sums values given per full entry into it.

    An entry between two free dofs maps 1:1 onto its reduced entry, and the
    reduced numbering keeps the order of the free dofs, so only the master
    pairs of entries that touch a hanging vertex are merged in.  Each of
    those gets a bin of its own, distributed onto its master pairs; entries
    of the pinned dof are dropped.
    """
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


def _assembly_pattern(dm: EGDofMap, cells, interior, boundary) -> AssemblyPlan:
    """Reduced, pinned plan over every local block in assembly order.

    Blocks: 5x5 per cell, 10x10 per interior face, 5x5 per boundary face.
    Only the cell blocks and the owner/neighbor cross blocks of interior
    faces are sorted, in the full layout; the other face blocks repeat bins
    of cell blocks.  Cross entries whose table column is zero in every row
    are zero by construction and left out.  The sorted entries then map onto
    the reduced, pinned system (see _reduced_entries).
    """
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
    full, primary = _unique_inverse(key, n_full * n_full)
    del key
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
    del primary, cross
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


# ----------------------------------------------------------------------
# assembly context: cell groups and face classes with precomputed tables


@dataclass
class CellGroup:
    """All active cells of one refinement level (identical geometry).

    table rows, each a flattened 5x5 local matrix: 0 mass, 1 stiffness,
    2:20 advection per (quadrature point, velocity component), 20:24
    diffusion per (d, e) tensor entry, 24:33 mass per quadrature point.
    """

    level: int
    idx: np.ndarray
    dofs: np.ndarray
    hx: float
    hy: float
    N: np.ndarray        # (9, 5)
    dN: np.ndarray       # (9, 5, 2) physical gradients
    wq: np.ndarray       # (9,) physical weights (sum = cell area)
    qx: np.ndarray       # (m, 9)
    qy: np.ndarray
    table: np.ndarray    # (33, 25)
    wN: np.ndarray       # (9, 5) rhs weights wq * N


@dataclass
class FaceGroup:
    """Faces sharing direction, kind and owner level (identical trace maps).

    Interior table rows, each a flattened 10x10 local matrix over
    [owner dofs | neighbor dofs]: 0 jump x jump, 1/2 jump x (grad N . n) of
    the owner/neighbor side, 3/4 their transposes, 5:8 / 8:11 upwind
    jump x N_own / jump x N_nb per quadrature point, 11:13 / 13:15
    jump x grad N per gradient component of the owner/neighbor side.
    Boundary table rows, each a flattened 5x5: 0 N x N, 1 N x (grad N . n),
    2 its transpose, 3:6 N x N per quadrature point.
    """

    dir: int
    kind: int
    level: int
    idx: np.ndarray
    own: np.ndarray
    nb: np.ndarray | None
    dofs: np.ndarray     # (m, 10) interior, (m, 5) boundary
    N_o: np.ndarray      # (3, 5)
    dN_o: np.ndarray     # (3, 5, 2) physical
    N_n: np.ndarray | None
    dN_n: np.ndarray | None
    wq: np.ndarray       # (3,) physical weights (sum = h_e)
    h_e: float
    normal: np.ndarray
    boundary: str | None
    qx: np.ndarray       # (m, 3)
    qy: np.ndarray
    table: np.ndarray    # (15, 100) interior, (6, 25) boundary
    wN: np.ndarray | None = None     # (3, 5) boundary rhs weights wq * N
    wdN: np.ndarray | None = None    # (3, 5) boundary rhs weights wq * grad N . n


class AssemblyContext:
    """Mesh + dofmap + precomputed tables and sparsity shared by all assemblers.

    Tables: every cell group (one level) and face group (one direction, face
    kind and owner level) holds its local matrices as rows of `table`, built
    once from unit-cell/unit-face integrals scaled by hx, hy and h_e (row
    layouts in CellGroup and FaceGroup).  An assembler writes each local block
    as one matmul of per-cell or per-face coefficients against `table`.

    Plan: `plan` maps every local-block entry, in assembly order (cell
    groups, then `interior_groups`, then `boundary_groups`), into the reduced,
    pinned system that the solver factors (see AssemblyPlan), and does the
    same for the right-hand side pieces of cells and boundary faces.  Faces
    that contribute nothing (Neumann, inflow) still pass zeros, so the
    pattern does not depend on the data.  Pressure and transport share it.
    """

    def __init__(self, mesh: QuadMesh, dofmap: EGDofMap | None = None):
        self.mesh = mesh
        self.dofmap = dofmap if dofmap is not None else EGDofMap(mesh)
        dm = self.dofmap

        self.cell_groups: list[CellGroup] = []
        for lev in np.unique(mesh.cell_level):
            idx = np.nonzero(mesh.cell_level == lev)[0]
            hx = float(mesh.cell_hx[idx[0]])
            hy = float(mesh.cell_hy[idx[0]])
            area, inv = hx * hy, np.array([1.0 / hx, 1.0 / hy])
            diff = area * np.outer(inv, inv)[:, :, None] * _REF_DIFF
            table = np.vstack([area * _REF_MASS, diff[0, 0] + diff[1, 1],
                               (area * inv[:, None] * _REF_ADV).reshape(18, 25),
                               diff.reshape(4, 25), area * _REF_SINK])
            self.cell_groups.append(CellGroup(
                level=int(lev), idx=idx, dofs=dm.cell_dofs[idx], hx=hx, hy=hy,
                N=_CELL_N, dN=_CELL_DN / np.array([hx, hy]),
                wq=_CELL_W * hx * hy,
                qx=mesh.cell_x0[idx, None] + _CELL_PTS[None, :, 0] * hx,
                qy=mesh.cell_y0[idx, None] + _CELL_PTS[None, :, 1] * hy,
                table=table, wN=area * _REF_WN,
            ))

        # face classes in (direction, kind, owner level) order
        own_level = mesh.cell_level[mesh.face_owner].astype(np.int64)
        n_lev = int(own_level.max(initial=0)) + 1
        code = (mesh.face_dir.astype(np.int64) * 4 + mesh.face_kind) * n_lev + own_level
        order = np.argsort(code, kind="stable")
        codes, starts = np.unique(code[order], return_index=True)
        ends = np.append(starts[1:], order.size)
        self.interior_groups: list[FaceGroup] = []
        self.boundary_groups: list[FaceGroup] = []
        for c, s, e in zip(codes.tolist(), starts, ends):
            d, kind, lev = c // (4 * n_lev), (c // n_lev) % 4, c % n_lev
            faces = order[s:e]
            own = mesh.face_owner[faces]
            hx, hy = mesh._cell_size(lev)
            h_e = hy if d in (EAST, WEST) else hx
            inv = np.array([1.0 / hx, 1.0 / hy])
            normal = DIR_NORMAL[d].copy()
            common = dict(
                dir=d, kind=kind, level=lev, idx=faces, own=own,
                N_o=_FACE_N[d], dN_o=_FACE_DN[d] / np.array([hx, hy]),
                wq=_W3 * h_e, h_e=h_e, normal=normal,
                qx=mesh.cell_x0[own][:, None] + _FACE_PTS[d][None, :, 0] * hx,
                qy=mesh.cell_y0[own][:, None] + _FACE_PTS[d][None, :, 1] * hy,
            )
            if kind == BOUNDARY:
                nn, ndn, wN, wdN = _BOUNDARY_REF[d]
                ndn = h_e * ((normal * inv) @ ndn)
                table = np.vstack([h_e * nn.sum(axis=0), ndn,
                                   _transpose(ndn, 5), h_e * nn])
                self.boundary_groups.append(FaceGroup(
                    nb=None, dofs=dm.cell_dofs[own], N_n=None, dN_n=None,
                    boundary=BOUNDARY_NAME[d], table=table, wN=h_e * wN,
                    wdN=h_e * (wdN @ (normal * inv)), **common,
                ))
            else:
                nb = mesh.face_neighbor[faces]
                scale = 1.0 if kind == CONFORMING else 2.0
                jj, up, flux = _INTERIOR_REF[d, kind]
                f_o = h_e * inv[:, None] * flux[0]
                f_n = (h_e / scale) * inv[:, None] * flux[1]
                g_o, g_n = normal @ f_o, normal @ f_n
                table = np.vstack([h_e * jj, g_o, g_n, _transpose(g_o, 10),
                                   _transpose(g_n, 10), h_e * up.reshape(6, 100),
                                   f_o, f_n])
                self.interior_groups.append(FaceGroup(
                    nb=nb, dofs=np.hstack([dm.cell_dofs[own], dm.cell_dofs[nb]]),
                    N_n=_NB_N[d, kind],
                    dN_n=_NB_DN[d, kind] / np.array([hx * scale, hy * scale]),
                    boundary=None, table=table, **common,
                ))
        self.face_groups = self.interior_groups + self.boundary_groups

        self.plan = _assembly_pattern(
            dm, self.cell_groups, self.interior_groups, self.boundary_groups)
        # integral of every basis function: the constant column of the mass tables
        self.basis_integrals = np.bincount(
            np.concatenate([g.dofs.ravel() for g in self.cell_groups]),
            weights=np.concatenate([
                np.broadcast_to(g.table[0].reshape(5, 5)[:, 4], g.dofs.shape).ravel()
                for g in self.cell_groups]),
            minlength=dm.n_dofs)

        self.cell_hmax = np.maximum(mesh.cell_hx, mesh.cell_hy)
        self.cell_center = np.stack(
            [mesh.cell_x0 + 0.5 * mesh.cell_hx, mesh.cell_y0 + 0.5 * mesh.cell_hy],
            axis=1,
        )

    def block_buffer(self) -> tuple[np.ndarray, list[np.ndarray]]:
        """An uninitialized array for every local-block entry in assembly
        order, and its (m, 25) or (m, 100) view per cell, interior and
        boundary group, for an assembler to write its blocks into."""
        vals = np.empty(self.plan.matrix.slot.size)
        views, start = [], 0
        for g in self.cell_groups + self.face_groups:
            m, k = g.idx.size, g.table.shape[1]
            views.append(vals[start:start + m * k].reshape(m, k))
            start += m * k
        return vals, views

    def assemble(self, vals, rhs) -> tuple[sp.csr_matrix, np.ndarray]:
        """Reduced, pinned (A, b) from the filled block buffer and the rhs
        pieces: P^T A P and P^T b of the full-layout system without the last
        row and column (see AssemblyPlan).

        rhs: one (m, 5) array per cell group, then per boundary group.
        """
        plan = self.plan
        A = sp.csr_matrix((plan.matrix(vals), plan.indices, plan.indptr), shape=plan.shape)
        return A, plan.rhs(np.concatenate([v.ravel() for v in rhs]))

    # -- whole-field evaluations -------------------------------------------

    def cell_values(self, coeffs: np.ndarray) -> np.ndarray:
        """(n_cells, 9) values at the volume quadrature points."""
        out = np.empty((self.mesh.n_active, 9))
        for g in self.cell_groups:
            out[g.idx] = np.einsum("qb,mb->mq", g.N, coeffs[g.dofs])
        return out

    def cell_gradients(self, coeffs: np.ndarray) -> np.ndarray:
        """(n_cells, 9, 2) physical gradients at the volume quadrature points."""
        out = np.empty((self.mesh.n_active, 9, 2))
        for g in self.cell_groups:
            out[g.idx] = np.einsum("qbd,mb->mqd", g.dN, coeffs[g.dofs])
        return out


def cell_field_values(ctx: AssemblyContext, field) -> np.ndarray:
    """(n_cells, 9) values of a coefficient field at the volume quadrature points.

    `field` may be a scalar, a per-cell array (constant within each cell), or
    a callable f(x, y).
    """
    nc = ctx.mesh.n_active
    if callable(field):
        out = np.empty((nc, 9))
        for g in ctx.cell_groups:
            out[g.idx] = np.asarray(field(g.qx, g.qy), dtype=float)
        return out
    field = np.asarray(field, dtype=float)
    if field.ndim == 0:
        return np.broadcast_to(field, (nc, 9)).copy()
    if field.shape == (nc,):
        return np.repeat(field[:, None], 9, axis=1)
    if field.shape == (nc, 9):
        return field
    raise ValueError(f"cannot map field of shape {field.shape} onto {nc} cells")


def face_field_values(grp: FaceGroup, data) -> np.ndarray:
    """(m, 3) values of boundary data on one face group's quadrature points."""
    if callable(data):
        return np.asarray(data(grp.qx, grp.qy), dtype=float)
    return np.full(grp.qx.shape, float(data))
