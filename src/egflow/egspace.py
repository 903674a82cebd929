"""Enriched Galerkin function space on quadtree meshes.

The discrete space couples a continuous bilinear (Q1) nodal space with one
piecewise-constant enrichment dof per active cell.  Coefficient vectors are
laid out as [vertex dofs | cell constants].  On meshes with hanging nodes
the vertex dof at an edge midpoint is constrained to the average of the edge
endpoints, so the continuous part stays conforming; constrained dofs are
kept in the full vector (always consistent with their masters) and a sparse
prolongation maps the reduced, solvable unknowns to the full layout.

Reference cell is [0,1]^2 with corner ordering SW, SE, NW, NE; shape
function index 4 is the cell constant.  Quadrature: 3x3 Gauss per cell and
3-point Gauss per face, exact for every bilinear-form integrand that
appears here with cellwise-constant coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

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
    QuadMesh,
)

__all__ = [
    "AssemblyContext",
    "CSRPattern",
    "EGDofMap",
    "QuadratureRule",
    "cell_field_values",
    "cell_means",
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

_VSCALE = 30  # vertex keys live on the integer lattice at level 30

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
    """Vertex + cell-constant dof layout with hanging-node constraints."""

    def __init__(self, mesh: QuadMesh, k: int = 1):
        if k != 1:
            raise ValueError("only the bilinear enriched space (k=1) is implemented")
        self.mesh = mesh
        self.k = k

        keys = set()
        for lev, i, j in mesh.cell_keys:
            s = _VSCALE - lev
            for di in (0, 1):
                for dj in (0, 1):
                    keys.add(((i + di) << s, (j + dj) << s))
        self.vertex_keys = sorted(keys)
        self.vertex_index = {kk: n for n, kk in enumerate(self.vertex_keys)}
        self.n_cg = len(self.vertex_keys)
        self.n_const = mesh.n_active
        self.n_dofs = self.n_cg + self.n_const

        x0, y0, x1, y1 = mesh.domain
        sx = (x1 - x0) / (mesh.nx * (1 << _VSCALE))
        sy = (y1 - y0) / (mesh.ny * (1 << _VSCALE))
        vk = np.array(self.vertex_keys, dtype=float).reshape(-1, 2)
        self.vertex_pos = np.stack([x0 + vk[:, 0] * sx, y0 + vk[:, 1] * sy], axis=1)

        cd = np.empty((mesh.n_active, 5), dtype=np.int64)
        for idx, (lev, i, j) in enumerate(mesh.cell_keys):
            s = _VSCALE - lev
            cd[idx, 0] = self.vertex_index[(i << s, j << s)]
            cd[idx, 1] = self.vertex_index[((i + 1) << s, j << s)]
            cd[idx, 2] = self.vertex_index[(i << s, (j + 1) << s)]
            cd[idx, 3] = self.vertex_index[((i + 1) << s, (j + 1) << s)]
            cd[idx, 4] = self.n_cg + idx
        self.cell_dofs = cd

        self.constraints = self._build_constraints()
        slaves = np.array(sorted(self.constraints), dtype=np.int64)
        mask = np.ones(self.n_dofs, dtype=bool)
        mask[slaves] = False
        self.free_dofs = np.nonzero(mask)[0]
        self.n_reduced = self.free_dofs.size
        self.n_free_cg = int((self.free_dofs < self.n_cg).sum())
        full_to_reduced = np.full(self.n_dofs, -1, dtype=np.int64)
        full_to_reduced[self.free_dofs] = np.arange(self.n_reduced)
        self.full_to_reduced = full_to_reduced

        rows, cols, vals = [], [], []
        for d in self.free_dofs:
            rows.append(d)
            cols.append(full_to_reduced[d])
            vals.append(1.0)
        for s, combo in self.constraints.items():
            for m, w in combo:
                rows.append(s)
                cols.append(full_to_reduced[m])
                vals.append(w)
        self.P = sp.csr_matrix(
            (vals, (rows, cols)), shape=(self.n_dofs, self.n_reduced)
        )

    def _build_constraints(self) -> dict:
        mesh = self.mesh
        raw: dict[int, list[tuple[int, float]]] = {}
        for f in range(mesh.n_faces):
            kind = mesh.face_kind[f]
            if kind not in (HANGING_LOW, HANGING_HIGH):
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
            sl = self.vertex_index[mid]
            raw[sl] = [(self.vertex_index[lo], 0.5), (self.vertex_index[hi], 0.5)]

        # resolve chains: a master that is itself constrained gets substituted
        for _ in range(64):
            changed = False
            for sl, combo in raw.items():
                if not any(m in raw for m, _ in combo):
                    continue
                acc: dict[int, float] = {}
                for m, w in combo:
                    if m in raw:
                        changed = True
                        for mm, ww in raw[m]:
                            acc[mm] = acc.get(mm, 0.0) + w * ww
                    else:
                        acc[m] = acc.get(m, 0.0) + w
                raw[sl] = sorted(acc.items())
            if not changed:
                return raw
        raise RuntimeError("hanging-node constraint chains did not resolve")

    # -- counting / layout ------------------------------------------------

    def dof_count(self) -> tuple[int, int, int]:
        return self.n_cg, self.n_const, self.n_dofs

    def const_dof(self, cell_idx) -> np.ndarray:
        return self.n_cg + np.asarray(cell_idx)

    # -- constraint handling ----------------------------------------------

    def distribute(self, x: np.ndarray) -> np.ndarray:
        """Overwrite constrained entries from their masters; returns a copy."""
        return self.P @ x[self.free_dofs]

    def reduce_vector(self, b: np.ndarray) -> np.ndarray:
        return self.P.T @ b

    def reduce_matrix(self, A):
        return (self.P.T @ A @ self.P).tocsr()

    def prolong(self, x_red: np.ndarray) -> np.ndarray:
        return self.P @ x_red

    def restrict(self, x_full: np.ndarray) -> np.ndarray:
        return x_full[self.free_dofs]


def cell_means(dofmap: EGDofMap, coeffs: np.ndarray) -> np.ndarray:
    """Exact cell means: corner average of the CG part plus the constant."""
    cd = dofmap.cell_dofs
    return coeffs[cd[:, :4]].mean(axis=1) + coeffs[cd[:, 4]]


def dof_count(mesh: QuadMesh, k: int = 1) -> tuple[int, int, int]:
    """(continuous dofs, constant dofs, total) of the enriched space."""
    return EGDofMap(mesh, k).dof_count()


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
    rank = first.astype(np.intp)
    np.cumsum(rank, out=rank)
    rank -= 1
    packed &= (1 << bits) - 1
    inverse = np.empty(key.size, dtype=np.intp)
    inverse[packed] = rank
    return srt[first].astype(key.dtype), inverse


@dataclass(frozen=True)
class CSRPattern:
    """Canonical CSR sparsity of a list of (row, col) triplets.

    `slot[k]` is the position of triplet k in `indices`; `matrix(vals)` adds
    every value into its triplet's slot, so duplicate triplets are summed in
    triplet order.
    """

    shape: tuple[int, int]
    indptr: np.ndarray
    indices: np.ndarray
    slot: np.ndarray

    @classmethod
    def from_triplets(cls, rows, cols, shape) -> "CSRPattern":
        n_rows, n_cols = shape
        itype = _index_type(shape)
        key = np.multiply(rows, n_cols, dtype=itype).ravel()
        key += np.ravel(cols)
        uniq, slot = _unique_inverse(key, n_rows * n_cols)
        row = uniq // n_cols
        indptr = np.zeros(n_rows + 1, dtype=itype)
        np.cumsum(np.bincount(row, minlength=n_rows), out=indptr[1:])
        return cls(shape=(n_rows, n_cols), indptr=indptr,
                   indices=uniq - row * n_cols, slot=slot)

    @property
    def nnz(self) -> int:
        return self.indices.size

    def matrix(self, vals: np.ndarray) -> sp.csr_matrix:
        data = np.bincount(self.slot, weights=vals, minlength=self.nnz)
        return sp.csr_matrix((data, self.indices, self.indptr), shape=self.shape)


def _assembly_pattern(n: int, cells, interior, boundary) -> tuple[CSRPattern, np.ndarray]:
    """Pattern over every local block in assembly order, and the rhs rows.

    Blocks: 5x5 per cell, 10x10 per interior face, 5x5 per boundary face.
    Only the cell blocks and the owner/neighbor cross blocks of interior
    faces are sorted; the other face blocks repeat slots of cell blocks.
    """
    cd = np.concatenate([g.dofs for g in cells])
    cd_key = cd.astype(_index_type((n, n)))
    pos = np.empty(len(cd), dtype=np.intp)
    pos[np.concatenate([g.idx for g in cells])] = np.arange(len(cd))
    own = np.concatenate([g.own for g in interior] + [np.empty(0, np.intp)])
    nb = np.concatenate([g.nb for g in interior] + [np.empty(0, np.intp)])
    bown = np.concatenate([g.own for g in boundary] + [np.empty(0, np.intp)])
    fo, fn = cd_key[pos[own]], cd_key[pos[nb]]
    nc, nf = len(cd), len(own)

    rows = np.concatenate([np.broadcast_to(r[:, :, None], (len(r), 5, 5))
                           for r in (cd_key, fo, fn)])
    cols = np.concatenate([np.broadcast_to(c[:, None, :], (len(c), 5, 5))
                           for c in (cd_key, fn, fo)])
    base = CSRPattern.from_triplets(rows, cols, (n, n))
    cell = base.slot[:25 * nc].reshape(nc, 5, 5)
    cross = base.slot[25 * nc:].reshape(2, nf, 5, 5)
    face = np.empty((nf, 2, 5, 2, 5), dtype=base.slot.dtype)  # [f, side, a, side, b]
    face[:, 0, :, 0] = cell[pos[own]]
    face[:, 1, :, 1] = cell[pos[nb]]
    face[:, 0, :, 1] = cross[0]
    face[:, 1, :, 0] = cross[1]
    slot = np.concatenate([cell.ravel(), face.ravel(), cell[pos[bown]].ravel()])
    rhs_rows = np.concatenate([cd.ravel(), cd[pos[bown]].ravel()])
    return replace(base, slot=slot), rhs_rows


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

    Pattern: `pattern` maps every local-block entry, in assembly order (cell
    groups, then `interior_groups`, then `boundary_groups`), onto a CSR data
    slot; boundary blocks fall inside their owner's cell block, and faces that
    contribute nothing (Neumann, inflow) still pass zeros, so the pattern does
    not depend on the data.  `rhs_rows` does the same for the right-hand side
    pieces of cells and boundary faces.  Pressure and transport share both.
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

        self.pattern, self.rhs_rows = _assembly_pattern(
            dm.n_dofs, self.cell_groups, self.interior_groups, self.boundary_groups)
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

    def assemble(self, blocks, rhs) -> tuple[sp.csr_matrix, np.ndarray]:
        """(A, b) from local blocks and rhs pieces listed in assembly order.

        blocks: one (m, 25) or (m, 100) array per cell, interior and boundary
        group; rhs: one (m, 5) array per cell group, then per boundary group.
        """
        A = self.pattern.matrix(np.concatenate([v.ravel() for v in blocks]))
        b = np.bincount(self.rhs_rows, weights=np.concatenate([v.ravel() for v in rhs]),
                        minlength=self.dofmap.n_dofs)
        return A, b

    # -- whole-field evaluations -------------------------------------------

    def cell_means(self, coeffs: np.ndarray) -> np.ndarray:
        """Exact cell means: corner average of the CG part plus the constant."""
        return cell_means(self.dofmap, coeffs)

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

    def face_traces(self, coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Owner and neighbor traces at the face quadrature points.

        Returns (own, nb), each (n_faces, 3); on boundary faces the neighbor
        trace repeats the owner trace.
        """
        own = np.empty((self.mesh.n_faces, 3))
        nb = np.empty((self.mesh.n_faces, 3))
        for g in self.face_groups:
            vo = np.einsum("qb,mb->mq", g.N_o, coeffs[g.dofs[:, :5]])
            own[g.idx] = vo
            if g.nb is None:
                nb[g.idx] = vo
            else:
                nb[g.idx] = np.einsum("qb,mb->mq", g.N_n, coeffs[g.dofs[:, 5:]])
        return own, nb

    def total_integral(self, coeffs: np.ndarray) -> float:
        """Exact integral of the EG function over the domain."""
        return float((self.cell_means(coeffs) * self.mesh.cell_area).sum())


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
