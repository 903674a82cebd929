"""Sparse linear algebra: a sparse LU, kept over a mesh generation, with GMRES
as the fallback.

A reduced system is factored completely by SuperLU's supernodal LU (`splu`;
Li, *ACM TOMS* 31 (2005) 302) in symmetric mode with a relaxed diagonal
pivot threshold.  A solve on a fresh factor is one LU solve, correcting the
start, and a check of the true residual; a complete LU is exact up to
roundoff, so that meets tol unless the system is too ill-conditioned for it.
Only a solve that misses tol there, or one on a lagged factor, runs scipy's
GMRES with the factor as the preconditioner, for at most `RESTART`
iterations, restarts included.  `LaggedLU` holds one system's factor over
one mesh generation: it drops the factor of its first solve, so a mesh that
lives for one step holds none, and keeps the factor from its second solve
on, which only a mesh that survived an adapt sees.  Later solves reuse it
while it keeps the Krylov iteration count under `REFACTOR_ITERS`, which is
how a factor of a matrix that drifts slowly from step to step stays a good
preconditioner (Saad, *Iterative Methods for Sparse Linear Systems*, 2nd
ed., ch. 9-10).
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

from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import LinearOperator, gmres, splu

__all__ = ["ColumnOrder", "GmresResult", "LaggedLU", "SolverError",
           "generation_factors"]

RESTART = 20          # GMRES restart length and iteration cap of a solve
REFACTOR_ITERS = 10   # refactor once a solve on a lagged factor takes more


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


def _gmres(A, b, x0, lu, tol: float) -> GmresResult:
    """LU-preconditioned GMRES from x0; `converged` tests the true residual.

    It runs after a solve on a fresh factor missed tol, or on a lagged
    factor.  A fresh complete LU converges in one or two iterations, so
    running past RESTART iterations only delays a failure, and a lagged
    factor that misses tol is replaced.  A restart within that budget still
    happens when the preconditioned residual passes and the true one does
    not.
    """
    count = [0]

    def tick(_):
        count[0] += 1

    # callback_type "legacy" makes maxiter count iterations, not cycles
    x, _ = gmres(A, b, x0=x0, rtol=tol, atol=0.0, restart=RESTART, maxiter=RESTART,
                 M=LinearOperator(A.shape, lu.solve, dtype=float),
                 callback=tick, callback_type="legacy")
    return _checked(A, b, x, count[0], tol)


def _checked(A, b, x, iterations: int, tol: float) -> GmresResult:
    r = float(np.linalg.norm(b - A @ x))
    return GmresResult(x, iterations, r, r <= tol * np.linalg.norm(b))


def _direct(A, b, x0, lu, tol: float) -> GmresResult:
    """One LU solve for the correction to x0 (to 0 without one), 0 iterations."""
    x = lu.solve(b) if x0 is None else x0 + lu.solve(b - A @ x0)
    return _checked(A, b, x, 0, tol)


class LaggedLU:
    """One system's sparse LU over the solves of one mesh generation.

    A solve reuses the held factor unless the previous solve on it took more
    than REFACTOR_ITERS iterations.  On a fresh factor it is one LU solve
    and 0 iterations, continued by GMRES only if the true residual misses
    tol; on a lagged factor it is GMRES, retried once on a fresh factor if
    it fails.  The factor of the first solve is dropped and every later one
    is kept: a mesh generation gets new LaggedLUs, so a second solve means
    the mesh survived an adapt and is likely to live on, while a mesh that
    lives for one step holds no factor.  Every factor uses `order`, which
    generation_factors shares between systems.
    """

    def __init__(self):
        self.lu = None
        self.iterations = 0
        self.solves = 0
        self.order = ColumnOrder()

    def _fresh(self, A, b, x0, tol: float) -> GmresResult:
        self.lu = None               # free the old factor before the new one
        self.lu = _factor(A, self.order)
        out = _direct(A, b, x0, self.lu, tol)
        return out if out.converged else _gmres(A, b, out.x, self.lu, tol)

    def solve(self, A, b, x0=None, tol: float = 1e-10) -> GmresResult:
        if self.lu is not None and self.iterations <= REFACTOR_ITERS:
            out = _gmres(A, b, x0, self.lu, tol)
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
                f"linear solve stalled at residual {out.residual:.3e} "
                f"after {out.iterations} iterations"
            )
        return out


def generation_factors(*systems: str) -> dict[str, LaggedLU]:
    """A LaggedLU per named system of one mesh generation, sharing one order."""
    order = ColumnOrder()
    factors = {name: LaggedLU() for name in systems}
    for lu in factors.values():
        lu.order = order
    return factors
