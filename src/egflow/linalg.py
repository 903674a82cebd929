"""Sparse linear algebra: a sparse LU reused as the preconditioner of GMRES.

A reduced system is factored completely by SuperLU (minimum-degree order on
the pattern of A^T + A, symmetric mode with a relaxed diagonal pivot
threshold) and solved by scipy's GMRES with that factor as the
preconditioner, for at most `RESTART` iterations, restarts included.
`LaggedLU` holds one system's factor over one mesh generation: later solves
on the same mesh reuse it while it keeps the Krylov iteration count under
`REFACTOR_ITERS`, which is how a factor of a matrix that drifts slowly from
step to step stays a good preconditioner (Saad, *Iterative Methods for
Sparse Linear Systems*, 2nd ed., ch. 9-10).
Convergence is always judged on the true residual ||b - A x||_2 <= tol ||b||_2.

The factor comes from SuperLU's incomplete-LU driver (`spilu`) with a zero
drop tolerance and only the basic drop rule, which drops nothing: it is the
complete LU.  `splu` reserves 30 nnz(A) entries for L and for U up front;
freeing such blocks on every mesh change raises glibc's dynamic mmap
threshold, after which freed factor memory stays in the heap (on Linux,
15-20 % more peak RSS for a 5k-dof run that refactors every step).
`spilu` starts from FILL nnz(A) and grows on demand.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import LinearOperator, gmres, spilu

__all__ = ["GmresResult", "LaggedLU", "SolverError"]

RESTART = 20          # GMRES restart length and iteration cap of a solve
REFACTOR_ITERS = 10   # refactor once a solve on a lagged factor takes more
FILL = 4              # initial room for the factor, in multiples of nnz(A)


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


def _factor(A):
    try:
        return spilu(A.tocsc(), drop_tol=0.0, fill_factor=FILL,
                     permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.1,
                     options={"SymmetricMode": True, "ILU_DropRule": "basic"})
    except RuntimeError as exc:      # SuperLU signals singularity this way
        raise SolverError(f"singular reduced system: {exc}") from exc


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
    unchanged, so a mesh that lives for one step holds no factor.
    """

    def __init__(self, keep: bool = False):
        self.keep = keep
        self.lu = None
        self.iterations = 0

    def _refactor(self, A) -> None:
        self.lu = None               # free the old factor before the new one
        self.lu = _factor(A)

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
