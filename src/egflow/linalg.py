"""Sparse linear algebra: a sparse LU reused as the preconditioner of GMRES.

A reduced system is factored completely by SuperLU's supernodal LU (`splu`;
Li, *ACM TOMS* 31 (2005) 302) in symmetric mode with a relaxed diagonal
pivot threshold, and solved by scipy's GMRES with that factor as the
preconditioner, for at most `RESTART` iterations, restarts included.
`LaggedLU` holds one system's factor over one mesh generation: later solves
on the same mesh reuse it while it keeps the Krylov iteration count under
`REFACTOR_ITERS`, which is how a factor of a matrix that drifts slowly from
step to step stays a good preconditioner (Saad, *Iterative Methods for
Sparse Linear Systems*, 2nd ed., ch. 9-10).
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
    """Solution plus convergence report; unpacks as (x, iterations, residual)."""

    x: np.ndarray
    iterations: int
    residual: float
    converged: bool

    def __iter__(self):
        return iter((self.x, self.iterations, self.residual))


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
    """LU-preconditioned GMRES; `converged` tests the true residual.

    A fresh complete LU converges in one or two iterations, so running past
    RESTART iterations only delays a failure, and a lagged factor that
    misses tol is replaced.  A restart within that budget still happens when
    the preconditioned residual passes and the true one does not.
    """
    count = [0]

    def tick(_):
        count[0] += 1

    # callback_type "legacy" makes maxiter count iterations, not cycles
    x, _ = gmres(A, b, x0=x0, rtol=tol, atol=0.0, restart=RESTART, maxiter=RESTART,
                 M=LinearOperator(A.shape, lu.solve, dtype=float),
                 callback=tick, callback_type="legacy")
    r = float(np.linalg.norm(b - A @ x))
    return GmresResult(x, count[0], r, r <= tol * np.linalg.norm(b))


class LaggedLU:
    """One system's sparse LU over the solves of one mesh generation.

    A solve reuses the held factor unless the previous solve on it took more
    than REFACTOR_ITERS iterations; a lagged solve that fails is retried once
    on a fresh factor.  The factor is dropped after every solve until `keep`
    is set, which the driver does once the mesh has survived an adapt
    unchanged, so a mesh that lives for one step holds no factor.  Every
    factor uses `order`, which generation_factors shares between systems.
    """

    def __init__(self, keep: bool = False):
        self.keep = keep
        self.lu = None
        self.iterations = 0
        self.order = ColumnOrder()

    def _refactor(self, A) -> None:
        self.lu = None               # free the old factor before the new one
        self.lu = _factor(A, self.order)

    def solve(self, A, b, x0=None, tol: float = 1e-10) -> GmresResult:
        lagged = self.lu is not None and self.iterations <= REFACTOR_ITERS
        if not lagged:
            self._refactor(A)
        out = _gmres(A, b, x0, self.lu, tol)
        if lagged and not out.converged:
            self._refactor(A)
            out = _gmres(A, b, x0, self.lu, tol)
        self.iterations = out.iterations
        if not self.keep:
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
