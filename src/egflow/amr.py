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
by level with parents first, and every field then applies them as gathers.
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
from .mesh import AdaptBounds, QuadMesh, _parent_key

__all__ = [
    "FieldState",
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
    """Cell ids to refine / coarsen; unpacks as (refine, coarsen)."""

    refine: tuple
    coarsen: tuple
    generation: int

    def __iter__(self):
        return iter((self.refine, self.coarsen))


@dataclass(frozen=True)
class FieldState:
    """A named solution array: kind "eg" (dof vector) or "cell" (per-cell)."""

    name: str
    kind: str
    data: np.ndarray

    def __post_init__(self):
        if self.kind not in ("eg", "cell"):
            raise ValueError(f"unknown field kind {self.kind!r}")


def mark(ind, mesh: QuadMesh, policy: MarkingPolicy) -> Marks:
    """Rank cells by indicator and emit budgeted refine/coarsen marks.

    Ties break by cell id, so marking is deterministic.  The refine list is
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


def adapt_and_transfer(mesh: QuadMesh, dofmap: EGDofMap, fields, marks: Marks,
                       ) -> tuple[QuadMesh, EGDofMap, list]:
    """Execute the marked adaptation and transfer the given FieldStates.

    Returns (new_mesh, new_dofmap, new_fields); everything is returned
    unchanged (same objects) when no cell actually refines or coarsens.
    """
    if marks.generation != mesh.generation:
        raise ValueError("marks were computed on a different mesh generation")
    for f in fields:
        expected = dofmap.n_dofs if f.kind == "eg" else mesh.n_active
        if f.data.shape[0] != expected:
            raise ValueError(
                f"field {f.name!r} has leading size {f.data.shape[0]}, "
                f"expected {expected}"
            )

    new_mesh, report = mesh.adapt(marks.refine, marks.coarsen)
    if report.unchanged:
        return mesh, dofmap, list(fields)
    new_dm = EGDofMap(new_mesh)

    refined = sorted(report.refined)            # level-ascending: parents first
    coarsened = set(report.coarsened)

    # classify each new cell against the old mesh
    SAME, CHILD, MERGED = 0, 1, 2
    n_new = new_mesh.n_active
    tag = np.empty(n_new, dtype=np.int8)
    src = np.empty(n_new, dtype=np.int64)       # old cell index (SAME/CHILD anchor)
    anchor_ref = np.zeros((n_new, 2))           # center of the new cell inside anchor
    merged_children = {}
    for idx, key in enumerate(new_mesh.cell_keys):
        if key in coarsened:
            tag[idx] = MERGED
            kids = [(key[0] + 1, 2 * key[1] + di, 2 * key[2] + dj)
                    for di in (0, 1) for dj in (0, 1)]
            merged_children[idx] = [mesh.cell_index[k] for k in kids]
        elif key in mesh.cell_index:
            tag[idx] = SAME
            src[idx] = mesh.cell_index[key]
        else:
            tag[idx] = CHILD
            a = _parent_key(key)
            while a not in mesh.cell_index:
                a = _parent_key(a)
            src[idx] = mesh.cell_index[a]
            d = key[0] - a[0]
            anchor_ref[idx, 0] = (key[1] - (a[1] << d) + 0.5) / (1 << d)
            anchor_ref[idx, 1] = (key[2] - (a[2] << d) + 0.5) / (1 << d)

    kept, kept_from, stencils = _vertex_transfer(dofmap, new_dm, refined)
    new_fields = []
    for f in fields:
        if f.kind == "cell":
            out = np.empty((n_new,) + f.data.shape[1:], dtype=f.data.dtype)
            same_or_child = tag != MERGED
            out[same_or_child] = f.data[src[same_or_child]]
            for idx, kids in merged_children.items():
                out[idx] = f.data[kids].mean(axis=0)
            new_fields.append(FieldState(f.name, "cell", out))
            continue

        old = f.data
        cg = np.zeros(new_dm.n_dofs)
        cg[kept] = old[kept_from]
        for edge, ends, center, corners in stencils:
            v = cg[ends]
            cg[edge] = 0.5 * (v[:, 0] + v[:, 1])
            v = cg[corners]
            cg[center] = 0.25 * (v[:, 0] + v[:, 1] + v[:, 2] + v[:, 3])
        cg = new_dm.distribute(cg)

        # constants enforce exact per-region means of the old function
        old_means = dofmap.cell_means(old)
        target = np.empty(n_new)
        same = tag == SAME
        target[same] = old_means[src[same]]
        child = tag == CHILD
        if np.any(child):
            N = q1_values(anchor_ref[child, 0], anchor_ref[child, 1])[:, :4]
            corners = old[dofmap.cell_dofs[src[child], :4]]
            target[child] = (N * corners).sum(axis=1) \
                + old[dofmap.cell_dofs[src[child], 4]]
        for idx, kids in merged_children.items():
            target[idx] = old_means[kids].mean()
        cg[new_dm.n_cg:] = target - cg[new_dm.cell_dofs[:, :4]].mean(axis=1)
        new_fields.append(FieldState(f.name, "eg", cg))

    return new_mesh, new_dm, new_fields


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
