"""Sparse linear algebra: a sparse LU, kept over a mesh generation, with GMRES
as the fallback.

A reduced system is factored completely by SuperLU's supernodal LU (`splu`;
Li, *ACM TOMS* 31 (2005) 302) in symmetric mode with a relaxed diagonal
pivot threshold.  A solve on a fresh factor is one LU solve, correcting the
start, and a check of the true residual; a complete LU is exact up to
roundoff, so that meets tol unless the system is too ill-conditioned for it.
Only a solve that misses tol there, or one on a lagged factor, runs GMRES
with the factor as the preconditioner (`_gmres`, a compact kernel with a
preallocated basis), for at most `RESTART` iterations.  `LaggedLU` holds
one system's factor over one mesh generation: it drops the factor of its
first solve, so a mesh that lives for one step holds none, and keeps the
factor from its second solve on, which only a mesh that survived an adapt
sees.  Later solves reuse it while it keeps the Krylov iteration count under
`REFACTOR_ITERS`, which is how a factor of a matrix that drifts slowly from
step to step stays a good preconditioner (Saad, *Iterative Methods for
Sparse Linear Systems*, 2nd ed., ch. 9-10).  It also keeps the generation's
last `HISTORY` solutions: a solve on a lagged factor starts from their
combination with the least residual, which holds most of the next solution
of a slowly drifting system, while a solve on a fresh factor starts from the
given start (zero without one).  The lagged path ignores the given start:
the caller's start is the previous solution, which the history holds.
Convergence is always judged on the true residual ||b - A x||_2 <= tol ||b||_2.

The fill-reducing order is computed once per mesh generation: the first
factor on a `ColumnOrder` runs SuperLU's minimum-degree order on the pattern
of A^T + A and records it, and every later factor sharing that `ColumnOrder`
(the generation's other system, lagged refactors) is handed A[q][:, q] with
the natural order (Davis, *Direct Methods for Sparse Linear Systems*, SIAM
2006, ch. 7).  A factor never sees explicit zeros, which would count as
fill-producing entries.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import splu

__all__ = ["ColumnOrder", "GmresResult", "LaggedLU", "SolverError",
           "generation_factors"]

RESTART = 20          # GMRES basis size and iteration cap of a solve
REFACTOR_ITERS = 10   # refactor once a solve on a lagged factor takes more
HISTORY = 4           # solutions a lagged solve starts from (at least 1)


class SolverError(Exception):
    """Linear solver stall or singular factorization."""


@dataclass
class GmresResult:
    """Solution plus convergence report."""

    x: np.ndarray
    iterations: int
    residual: float
    converged: bool


class ColumnOrder:
    """The fill-reducing order shared by the factors of one mesh generation.

    `q` is None until the first factor records it; a matrix A is then
    factored as A[q][:, q] with `qinv` = argsort(q) mapping back.
    """

    def __init__(self):
        self.q = None
        self.qinv = None


class _LU:
    """SuperLU factor of A[q][:, q] (of A while q is None), solving with A."""

    def __init__(self, superlu, q):
        self.superlu = superlu
        self.q = q

    def solve(self, b):
        if self.q is None:
            return self.superlu.solve(b)
        x = np.empty_like(b)
        x[self.q] = self.superlu.solve(b[self.q])
        return x


def _factor(A, order: ColumnOrder) -> _LU:
    """Complete LU of a CSR matrix A, in `order` or recording it.

    The factor's input is the one copy made: A, permuted when the order is
    known, in CSC and without explicit zeros.
    """
    q = order.q
    if q is None:
        B = A.tocsc()
    else:
        B = A[q]                               # row i of A[q][:, q] is row q[i] of A,
        B.indices = order.qinv[B.indices]      # its columns relabeled by qinv
        B = B.tocsc()                          # which also sorts them
    B.eliminate_zeros()
    try:
        lu = splu(B, permc_spec="MMD_AT_PLUS_A" if q is None else "NATURAL",
                  diag_pivot_thresh=0.1, options={"SymmetricMode": True})
    except RuntimeError as exc:      # SuperLU signals singularity this way
        raise SolverError(f"singular reduced system: {exc}") from exc
    if q is None:
        order.q = np.argsort(lu.perm_c).astype(A.indices.dtype)
        order.qinv = np.argsort(order.q).astype(A.indices.dtype)
    return _LU(lu, q)


def _projected(A, b, history):
    """The combination of the kept solutions with the least residual.

    The successive-solution projection of Fischer (*CMAME* 163 (1998) 193):
    with the history as the columns of V, c minimizes ||b - A V c||_2 by a
    least-squares solve on W = A V that drops the directions below 1e-12 of
    its largest singular value, since successive solutions are close to
    dependent.  The combination is returned only if its true residual is no
    larger than that of the newest solution, read off W, so the start is
    never worse than the previous solution, by rounding either.
    """
    V = np.stack(history, axis=1)
    W = A @ V
    x = V @ np.linalg.lstsq(W, b, rcond=1e-12)[0]
    if np.linalg.norm(b - A @ x) <= np.linalg.norm(b - W[:, -1]):
        return x
    return history[-1]


def _gmres(A, b, x0, lu, tol: float) -> GmresResult:
    """LU-preconditioned GMRES from x0; `converged` tests the true residual.

    GMRES (Saad & Schultz, *SIAM J. Sci. Stat. Comput.* 7 (1986) 856) on
    M^-1 A x = M^-1 b, M the LU, in one Arnoldi cycle of at most RESTART
    iterations: classical Gram-Schmidt with one re-orthogonalization, as two
    matrix-vector products per pass over a preallocated basis, and Givens
    rotations on Python floats.  Once the rotated preconditioned residual,
    scaled by ||r0|| / ||M^-1 r0|| of the start's residual r0, meets
    tol ||b||, the iterate is formed and its true residual checked; a miss
    scales that target by the ratio the check found and the cycle goes on,
    keeping its basis.  It runs after a solve on a fresh factor missed tol,
    or on a lagged factor.  A fresh complete LU converges in one or two
    iterations, so running past RESTART iterations only delays a failure,
    and a lagged factor that misses tol is replaced.  The result carries the
    true residual of its x.
    """
    target = tol * float(np.linalg.norm(b))
    r = b - A @ x0
    rnorm = float(np.linalg.norm(r))
    if rnorm <= target:
        return GmresResult(x0, 0, rnorm, True)
    V = np.empty((RESTART + 1, b.shape[0]))
    V[0] = lu.solve(r)
    beta = float(np.linalg.norm(V[0]))
    V[0] /= beta
    estimate = beta * target / rnorm      # preconditioned residual that should meet tol
    g, R, rotations = [beta], [], []
    for j in range(RESTART):
        w = lu.solve(A @ V[j])
        h = V[:j + 1] @ w
        w -= h @ V[:j + 1]
        h2 = V[:j + 1] @ w
        w -= h2 @ V[:j + 1]
        col = (h + h2).tolist()
        hnext = float(np.linalg.norm(w))
        for k, (c, s) in enumerate(rotations):
            col[k], col[k + 1] = c * col[k] + s * col[k + 1], c * col[k + 1] - s * col[k]
        d = math.hypot(col[j], hnext)
        c, s = col[j] / d, hnext / d
        col[j] = d
        rotations.append((c, s))
        R.append(col)
        g.append(-s * g[j])
        g[j] *= c
        if abs(g[j + 1]) <= estimate or j + 1 == RESTART:
            y = [0.0] * (j + 1)
            for i in range(j, -1, -1):
                y[i] = (g[i] - sum(R[m][i] * y[m] for m in range(i + 1, j + 1))) / R[i][i]
            x = x0 + np.array(y) @ V[:j + 1]
            rnorm = float(np.linalg.norm(b - A @ x))
            if rnorm <= target or j + 1 == RESTART or not hnext:
                return GmresResult(x, j + 1, rnorm, rnorm <= target)
            estimate = abs(g[j + 1]) * target / rnorm
        V[j + 1] = w / hnext


def _direct(A, b, x0, lu, tol: float) -> GmresResult:
    """One LU solve for the correction to x0, 0 iterations."""
    x = x0 + lu.solve(b - A @ x0)
    r = float(np.linalg.norm(b - A @ x))
    return GmresResult(x, 0, r, r <= tol * np.linalg.norm(b))


class LaggedLU:
    """One system's sparse LU over the solves of one mesh generation.

    A solve reuses the held factor unless the previous solve on it took more
    than REFACTOR_ITERS iterations.  On a fresh factor it is one LU solve
    and 0 iterations, continued by GMRES only if the true residual misses
    tol; on a lagged factor it is GMRES from the projection onto `history`,
    the last HISTORY solutions, retried once on a fresh factor from x0 if it
    fails.  A missing x0 is zero.  The factor of the first solve is dropped
    and every later one is kept: a mesh generation gets new LaggedLUs, so a
    second solve means the mesh survived an adapt and is likely to live on,
    while a mesh that lives for one step holds no factor.  Every factor uses
    `order`, which generation_factors shares between systems.  `name` names
    the system in a SolverError.
    """

    def __init__(self, name: str = "linear"):
        self.name = name
        self.lu = None
        self.iterations = 0
        self.solves = 0
        self.order = ColumnOrder()
        self.history = deque(maxlen=HISTORY)

    def _fresh(self, A, b, x0, tol: float) -> GmresResult:
        self.lu = None               # free the old factor before the new one
        try:
            self.lu = _factor(A, self.order)
        except SolverError as exc:
            raise SolverError(f"{self.name} solve failed: {exc}") from exc
        out = _direct(A, b, x0, self.lu, tol)
        return out if out.converged else _gmres(A, b, out.x, self.lu, tol)

    def solve(self, A, b, x0=None, tol: float = 1e-10) -> GmresResult:
        x0 = np.zeros(b.shape) if x0 is None else x0
        if self.lu is not None and self.iterations <= REFACTOR_ITERS:
            out = _gmres(A, b, _projected(A, b, self.history), self.lu, tol)
            if not out.converged:
                out = self._fresh(A, b, x0, tol)
        else:
            out = self._fresh(A, b, x0, tol)
        self.iterations = out.iterations
        self.solves += 1
        if self.solves == 1:
            self.lu = None
        if not out.converged:
            raise SolverError(
                f"{self.name} solve stalled at residual {out.residual:.3e} "
                f"after {out.iterations} iterations"
            )
        self.history.append(out.x)
        return out


def generation_factors(*systems: str) -> dict[str, LaggedLU]:
    """A LaggedLU per named system of one mesh generation, sharing one order."""
    order = ColumnOrder()
    factors = {name: LaggedLU(name) for name in systems}
    for lu in factors.values():
        lu.order = order
    return factors
