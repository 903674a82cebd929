"""Indicator-driven marking and solution transfer across mesh adaptation.

Marking ranks cells by the entropy indicator: the top fraction refines
(level cap permitting, budget-truncated from the low-indicator end with the
2:1 closure counted exactly), the bottom fraction coarsens where a full
sibling quartet is marked and the merge keeps the mesh balanced.

Transfer keeps every transported quantity's cell means exact.  Continuous
dofs copy where the vertex survives; vertices created by a split take the
parent's bilinear trace (edge midpoints average the edge endpoints, centers
average the four corners).  The old-to-new vertex map and these stencils
are found once per adapt from the dof maps' integer vertex lattices, level
by level with parents first; each new cell finds its old counterpart by
key-code lookups of its own key, its parent's and its four children's.  The
step's coefficient vectors travel as one stacked array, so every gather,
stencil, constraint fix and cell-mean target runs once for all of them.
After re-imposing the hanging constraints (a hanging vertex is the average
of its coarse edge's endpoints, which 2:1 balance keeps free), each new
cell's constant is set so the cell mean matches the old function's mean
over that region: unchanged cells keep their mean, children of a split
inherit the parent function's quadrant means, and a merged parent takes the
equal-area average of its children's means.  Total integrals of transferred
fields are bitwise-stable up to float roundoff under this rule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .egspace import EGDofMap, q1_values
from .mesh import AdaptBounds, MeshError, QuadMesh

__all__ = [
    "MarkingPolicy",
    "Marks",
    "adapt_and_transfer",
    "mark",
]


@dataclass(frozen=True)
class MarkingPolicy:
    """Refine/coarsen fractions plus the level and cell-count budgets."""

    bounds: AdaptBounds
    refine_fraction: float = 0.20
    coarsen_fraction: float = 0.10

    def __post_init__(self):
        ok = (0.0 <= self.refine_fraction <= 1.0
              and 0.0 <= self.coarsen_fraction <= 1.0
              and self.refine_fraction + self.coarsen_fraction <= 1.0)
        if not ok:
            raise ValueError(
                f"invalid marking fractions ({self.refine_fraction}, "
                f"{self.coarsen_fraction}): each in [0,1], sum at most 1"
            )


@dataclass(frozen=True)
class Marks:
    """Cell ids to refine / coarsen."""

    refine: tuple
    coarsen: tuple
    generation: int


def mark(ind, mesh: QuadMesh, policy: MarkingPolicy) -> Marks:
    """Rank cells by indicator and emit budgeted refine/coarsen marks.

    Ties break by cell id, so marking is deterministic.  Ids follow creation
    order, not key order (a split numbers its children SW, SE, NW, NE), and
    results depend on it: a key-order tie-break changes adaptive runs'
    meshes, rect_fingering's final dof count among them.  The refine list is
    cut to its longest high-indicator prefix whose refinement, with the 2:1
    closure included, keeps the active count within the cell budget.  The
    minimal closure grows with the prefix, so one walk over the ranked marks
    (`QuadMesh.closure_counts`) counts every prefix's splits on copies of
    the key dicts, and no trial mesh is built.  Coarsening credit is
    deliberately not counted, so the budget holds even when no quartet
    turns out to be mergeable.
    """
    er = np.asarray(ind.er, dtype=float)
    if ind.generation != mesh.generation:
        raise ValueError("indicator was computed on a different mesh generation")
    n = mesh.n_active
    if er.shape != (n,):
        raise ValueError(f"indicator covers {er.shape} cells, mesh has {n}")
    b = policy.bounds

    order = np.lexsort((mesh.cell_id, -er))
    k_ref = int(policy.refine_fraction * n)
    k_coa = int(policy.coarsen_fraction * n)
    refine = [mesh.cell_id[i] for i in order[:k_ref]
              if mesh.cell_level[i] < b.r_max]
    coarsen = [mesh.cell_id[i] for i in order[n - k_coa:]
               if mesh.cell_level[i] > b.r_min]

    # longest high-indicator prefix whose closure fits the budget
    sizes = mesh.closure_counts(refine)
    refine = refine[:int(np.count_nonzero(n + 3 * sizes <= b.cell_max))]
    return Marks(refine=tuple(refine), coarsen=tuple(coarsen),
                 generation=mesh.generation)


def adapt_and_transfer(mesh: QuadMesh, dofmap: EGDofMap, eg: np.ndarray,
                       cell: np.ndarray, marks: Marks):
    """Execute the marked adaptation and transfer the step state.

    `eg` stacks coefficient vectors as rows, (k, n_dofs); `cell` holds
    per-cell data, (n_cells, ...).  Returns (new_mesh, new_dofmap, new_eg,
    new_cell); everything is returned unchanged (same objects) when no cell
    actually refines or coarsens.
    """
    if marks.generation != mesh.generation:
        raise ValueError("marks were computed on a different mesh generation")
    if eg.ndim != 2 or eg.shape[1] != dofmap.n_dofs:
        raise ValueError(f"eg has shape {eg.shape}, expected (k, {dofmap.n_dofs})")
    if cell.shape[0] != mesh.n_active:
        raise ValueError(f"cell has leading size {cell.shape[0]}, "
                         f"expected {mesh.n_active}")

    new_mesh, report = mesh.adapt(marks.refine, marks.coarsen)
    if report.unchanged:
        return mesh, dofmap, eg, cell
    new_dm = EGDofMap(new_mesh)

    # each new cell kept its old key (SAME), split off an old active parent
    # (CHILD) or merged four old active children (MERGED): old 2:1 balance
    # makes every split cell an old active one
    n_new = new_mesh.n_active
    lev, i, j = new_mesh.cell_level, new_mesh.cell_i, new_mesh.cell_j
    same = mesh.find_cells(lev, i, j)
    parent = mesh.find_cells(lev - 1, i >> 1, j >> 1)
    kids = mesh.find_cells(lev[:, None] + 1, 2 * i[:, None] + (0, 0, 1, 1),
                           2 * j[:, None] + (0, 1, 0, 1))   # SW, NW, SE, NE
    is_same, child = same >= 0, parent >= 0
    merged = (kids >= 0).all(axis=1)
    if np.any(is_same.astype(int) + child + merged != 1):
        raise MeshError("new mesh is not one adapt away from the old mesh")
    kids = kids[merged]
    src = np.maximum(same, parent)              # old cell of a SAME/CHILD cell

    new_cell = np.empty((n_new,) + cell.shape[1:], dtype=cell.dtype)
    new_cell[~merged] = cell[src[~merged]]
    new_cell[merged] = cell[kids].mean(axis=1)

    kept, kept_from, stencils = _vertex_transfer(dofmap, new_dm, sorted(report.refined))
    cg = np.zeros((eg.shape[0], new_dm.n_dofs))
    cg[:, kept] = eg[:, kept_from]
    for edge, ends, center, corners in stencils:
        v = cg[:, ends]
        cg[:, edge] = 0.5 * (v[..., 0] + v[..., 1])
        v = cg[:, corners]
        cg[:, center] = 0.25 * (v[..., 0] + v[..., 1] + v[..., 2] + v[..., 3])
    # distribute works on columns; rows come back contiguous for the solves
    cg = np.ascontiguousarray(new_dm.distribute(cg.T).T)

    # constants enforce exact per-region means of the old function
    cd = dofmap.cell_dofs
    old_means = dofmap.cell_means(eg)
    target = np.empty((eg.shape[0], n_new))
    target[:, is_same] = old_means[:, same[is_same]]
    if np.any(child):
        # center of a child inside its parent, in the parent's reference square
        N = q1_values(((i[child] & 1) + 0.5) / 2, ((j[child] & 1) + 0.5) / 2)[:, :4]
        target[:, child] = (N * eg[:, cd[src[child], :4]]).sum(axis=-1) \
            + eg[:, cd[src[child], 4]]
    target[:, merged] = old_means[:, kids].mean(axis=-1)
    cg[:, new_dm.n_cg:] = target - cg[:, new_dm.cell_dofs[:, :4]].mean(axis=-1)
    return new_mesh, new_dm, cg, new_cell


def _vertex_transfer(old_dm: EGDofMap, new_dm: EGDofMap, refined):
    """(kept, kept_from, stencils): new vertices `kept` copy old vertices
    `kept_from`; the others are edge midpoints and centers of split parents.
    One (edge, ends, center, corners) tuple per parent level, coarsest
    first, since a level reads only its parents' corners.  An edge shared by
    two parents appears once.
    """
    source = old_dm.find_vertices(new_dm.lattice_level, *new_dm.vertex_ij.T)
    filled = source >= 0
    keys = np.array(refined, dtype=np.int64).reshape(-1, 3)
    # the 3 x 3 child-level lattice points of a parent, row by row from SW
    a, b = np.tile(np.arange(3), 3), np.repeat(np.arange(3), 3)
    stencils = []
    for lev in np.unique(keys[:, 0]).tolist():
        _, i, j = keys[keys[:, 0] == lev].T
        v = new_dm.find_vertices(lev + 1, 2 * i[:, None] + a, 2 * j[:, None] + b)
        edge = v[:, [1, 3, 5, 7]].ravel()
        ends = v[:, [0, 2, 0, 6, 2, 8, 6, 8]].reshape(-1, 2)
        edge, first = np.unique(edge, return_index=True)
        new = ~filled[edge]
        edge, ends = edge[new], ends[first[new]]
        center, corners = v[:, 4], v[:, [0, 2, 6, 8]]
        filled[edge] = filled[center] = True
        stencils.append((edge, ends, center, corners))
    kept = np.flatnonzero(source >= 0)
    return kept, source[kept], stencils
