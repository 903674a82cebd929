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
    QuadMesh,
)

__all__ = [
    "AssemblyContext",
    "EGDofMap",
    "QuadratureRule",
    "build_dofmap",
    "cell_field_values",
    "cell_means",
    "dof_count",
    "eval_grad",
    "eval_point",
    "face_field_values",
    "face_jump_avg",
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


def build_dofmap(mesh: QuadMesh, k: int = 1) -> EGDofMap:
    return EGDofMap(mesh, k)


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
# assembly context: cell groups and face classes with precomputed traces


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


@dataclass
class CellGroup:
    """All active cells of one refinement level (identical geometry)."""

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


@dataclass
class FaceGroup:
    """Faces sharing direction, kind and owner level (identical trace maps)."""

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


class AssemblyContext:
    """Mesh + dofmap + precomputed basis tables shared by all assemblers."""

    def __init__(self, mesh: QuadMesh, dofmap: EGDofMap | None = None):
        self.mesh = mesh
        self.dofmap = dofmap if dofmap is not None else EGDofMap(mesh)
        dm = self.dofmap

        rule = gauss_cell()
        Nc = q1_values(rule.points[:, 0], rule.points[:, 1])
        dNc = q1_grads(rule.points[:, 0], rule.points[:, 1])

        self.cell_groups: list[CellGroup] = []
        for lev in np.unique(mesh.cell_level):
            idx = np.nonzero(mesh.cell_level == lev)[0]
            hx = float(mesh.cell_hx[idx[0]])
            hy = float(mesh.cell_hy[idx[0]])
            dN = dNc.copy()
            dN[:, :, 0] /= hx
            dN[:, :, 1] /= hy
            qx = mesh.cell_x0[idx, None] + rule.points[None, :, 0] * hx
            qy = mesh.cell_y0[idx, None] + rule.points[None, :, 1] * hy
            self.cell_groups.append(CellGroup(
                level=int(lev), idx=idx, dofs=dm.cell_dofs[idx], hx=hx, hy=hy,
                N=Nc, dN=dN, wq=rule.weights * hx * hy, qx=qx, qy=qy,
            ))

        g = _G3
        self.face_groups: list[FaceGroup] = []
        self._face_slot = np.full((mesh.n_faces, 2), -1, dtype=np.int64)
        classes: dict = {}
        for f in range(mesh.n_faces):
            key = (int(mesh.face_dir[f]), int(mesh.face_kind[f]),
                   int(mesh.cell_level[mesh.face_owner[f]]))
            classes.setdefault(key, []).append(f)
        for key in sorted(classes):
            d, kind, lev = key
            faces = np.array(classes[key], dtype=np.int64)
            own = mesh.face_owner[faces]
            hx, hy = mesh._cell_size(lev)
            h_e = hy if d in (EAST, WEST) else hx
            oref = _face_ref_coords(d, g)
            N_o = q1_values(oref[:, 0], oref[:, 1])
            dN_o = q1_grads(oref[:, 0], oref[:, 1])
            dN_o[:, :, 0] /= hx
            dN_o[:, :, 1] /= hy
            qx = mesh.cell_x0[own][:, None] + oref[None, :, 0] * hx
            qy = mesh.cell_y0[own][:, None] + oref[None, :, 1] * hy
            if kind == BOUNDARY:
                grp = FaceGroup(
                    dir=d, kind=kind, level=lev, idx=faces, own=own, nb=None,
                    dofs=dm.cell_dofs[own], N_o=N_o, dN_o=dN_o,
                    N_n=None, dN_n=None, wq=_W3 * h_e, h_e=h_e,
                    normal=DIR_NORMAL[d].copy(), boundary=BOUNDARY_NAME[d],
                    qx=qx, qy=qy,
                )
            else:
                nb = mesh.face_neighbor[faces]
                nref = _neighbor_ref_coords(d, kind, g)
                N_n = q1_values(nref[:, 0], nref[:, 1])
                dN_n = q1_grads(nref[:, 0], nref[:, 1])
                scale = 1.0 if kind == CONFORMING else 2.0
                dN_n[:, :, 0] /= hx * scale
                dN_n[:, :, 1] /= hy * scale
                grp = FaceGroup(
                    dir=d, kind=kind, level=lev, idx=faces, own=own, nb=nb,
                    dofs=np.hstack([dm.cell_dofs[own], dm.cell_dofs[nb]]),
                    N_o=N_o, dN_o=dN_o, N_n=N_n, dN_n=dN_n,
                    wq=_W3 * h_e, h_e=h_e, normal=DIR_NORMAL[d].copy(),
                    boundary=None, qx=qx, qy=qy,
                )
            slot = len(self.face_groups)
            self.face_groups.append(grp)
            self._face_slot[faces, 0] = slot
            self._face_slot[faces, 1] = np.arange(faces.size)

        self.cell_hmax = np.maximum(mesh.cell_hx, mesh.cell_hy)
        self.cell_center = np.stack(
            [mesh.cell_x0 + 0.5 * mesh.cell_hx, mesh.cell_y0 + 0.5 * mesh.cell_hy],
            axis=1,
        )

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


def face_jump_avg(ctx: AssemblyContext, coeffs: np.ndarray, face_index: int,
                  delta: float = 0.5) -> tuple[np.ndarray, np.ndarray]:
    """Jump and weighted average of a scalar EG field on one face.

    Jump is the vector-valued  v_own * n_own + v_nb * n_nb  at the three face
    quadrature points, shape (3, 2); the average is  delta * v_own +
    (1 - delta) * v_nb, shape (3,).  On boundary faces the jump is v * n and
    the average is the trace itself.
    """
    slot, pos = ctx._face_slot[face_index]
    g = ctx.face_groups[slot]
    vo = g.N_o @ coeffs[g.dofs[pos, :5]]
    if g.nb is None:
        jump = vo[:, None] * g.normal[None, :]
        return jump, vo
    vn = g.N_n @ coeffs[g.dofs[pos, 5:]]
    jump = (vo - vn)[:, None] * g.normal[None, :]
    return jump, delta * vo + (1.0 - delta) * vn
