"""Sparse linear algebra: restarted GMRES and a block preconditioner.

System matrices are scipy CSR.  The Krylov solver is a restarted GMRES with
modified Gram-Schmidt and Givens rotations, right-preconditioned so the
recurrence residual equals the true residual ||b - A x||_2.  The
preconditioner solves the two diagonal blocks of the (continuous, constant)
dof partition independently, each by an incomplete LU factorization.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

__all__ = [
    "BlockILU",
    "BlockPartition",
    "GmresResult",
    "SolverError",
    "block_diag_precondition",
    "gmres",
]


class SolverError(Exception):
    """Linear solver breakdown, non-convergence, or singular preconditioner."""


@dataclass(frozen=True)
class BlockPartition:
    """Contiguous (continuous, constant) dof ranges partitioning [0, n)."""

    cg_range: tuple[int, int]
    const_range: tuple[int, int]

    def __post_init__(self):
        a0, a1 = self.cg_range
        b0, b1 = self.const_range
        if not (0 <= a0 <= a1 == b0 <= b1):
            raise ValueError(
                f"ranges {self.cg_range}, {self.const_range} must be contiguous "
                "and disjoint with the constant block following the continuous one"
            )

    @property
    def n(self) -> int:
        return self.const_range[1]


class BlockILU:
    """Block-diagonal preconditioner; each diagonal block gets an ILU solve."""

    def __init__(self, A: sp.spmatrix, partition: BlockPartition,
                 drop_tol: float = 1e-5, fill_factor: float = 10.0):
        if A.shape[0] != A.shape[1]:
            raise ValueError(f"matrix must be square, got {A.shape}")
        if partition.n != A.shape[0]:
            raise ValueError(
                f"partition covers {partition.n} dofs, matrix has {A.shape[0]}"
            )
        self.partition = partition
        A = A.tocsc()
        self._factors = []
        for s, e in (partition.cg_range, partition.const_range):
            if e == s:
                self._factors.append(None)
                continue
            block = A[s:e, s:e]
            try:
                self._factors.append(
                    spla.spilu(block, drop_tol=drop_tol, fill_factor=fill_factor)
                )
            except RuntimeError as exc:  # SuperLU signals singularity this way
                raise SolverError(f"singular diagonal block [{s}:{e}]: {exc}") from exc

    def solve(self, r: np.ndarray) -> np.ndarray:
        z = np.empty_like(r)
        for (s, e), f in zip(
            (self.partition.cg_range, self.partition.const_range), self._factors
        ):
            if f is not None:
                z[s:e] = f.solve(r[s:e])
        return z


def block_diag_precondition(A, partition: BlockPartition) -> BlockILU:
    return BlockILU(A, partition)


@dataclass
class GmresResult:
    """Solution plus convergence report; unpacks as (x, iterations, residual)."""

    x: np.ndarray
    iterations: int
    residual: float
    converged: bool
    history: list[float] = field(default_factory=list)

    def __iter__(self):
        return iter((self.x, self.iterations, self.residual))


def _precond_apply(M, r):
    if M is None:
        return r
    if hasattr(M, "solve"):
        return M.solve(r)
    return M(r)


def gmres(A, b, x0=None, tol: float = 1e-10, restart: int = 100,
          max_iter: int = 2000, preconditioner=None) -> GmresResult:
    """Right-preconditioned restarted GMRES.

    Stops when ||b - A x||_2 <= tol * ||b||_2.  Raises SolverError on a
    serious breakdown (stagnant zero Krylov vector away from the solution);
    non-convergence within max_iter is reported via the result flag.
    """
    b = np.asarray(b, dtype=float)
    n = b.size
    if A.shape != (n, n):
        raise ValueError(f"shape mismatch: A {A.shape}, b {n}")
    x = np.zeros(n) if x0 is None else np.asarray(x0, dtype=float).copy()
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return GmresResult(np.zeros(n), 0, 0.0, True, [0.0])
    target = tol * bnorm

    history: list[float] = []
    total = 0
    while True:
        r = b - A @ x
        beta = np.linalg.norm(r)
        history.append(beta)
        if beta <= target:
            return GmresResult(x, total, beta, True, history)
        if total >= max_iter:
            return GmresResult(x, total, beta, False, history)

        m = min(restart, max_iter - total)
        V = np.zeros((m + 1, n))
        H = np.zeros((m + 1, m))
        cs = np.zeros(m)
        sn = np.zeros(m)
        g = np.zeros(m + 1)
        V[0] = r / beta
        g[0] = beta
        j_used = 0
        solved = False
        for j in range(m):
            w = A @ _precond_apply(preconditioner, V[j])
            for i in range(j + 1):
                H[i, j] = w @ V[i]
                w -= H[i, j] * V[i]
            hj = np.linalg.norm(w)
            H[j + 1, j] = hj
            # previously computed rotations, then a new one for this column
            for i in range(j):
                t = cs[i] * H[i, j] + sn[i] * H[i + 1, j]
                H[i + 1, j] = -sn[i] * H[i, j] + cs[i] * H[i + 1, j]
                H[i, j] = t
            denom = np.hypot(H[j, j], H[j + 1, j])
            if denom == 0.0:
                raise SolverError("GMRES breakdown: zero Hessenberg column")
            cs[j], sn[j] = H[j, j] / denom, H[j + 1, j] / denom
            H[j, j] = denom
            H[j + 1, j] = 0.0
            g[j + 1] = -sn[j] * g[j]
            g[j] = cs[j] * g[j]
            total += 1
            j_used = j + 1
            res = abs(g[j + 1])
            history.append(res)
            if res <= target:
                solved = True
                break
            if hj <= 1e-14 * beta:
                raise SolverError(
                    "GMRES breakdown: zero Krylov vector before convergence"
                )
            V[j + 1] = w / hj

        y = np.zeros(j_used)
        for i in range(j_used - 1, -1, -1):
            y[i] = (g[i] - H[i, i + 1:j_used] @ y[i + 1:j_used]) / H[i, i]
        x = x + _precond_apply(preconditioner, V[:j_used].T @ y)
        if solved or total >= max_iter:
            r = np.linalg.norm(b - A @ x)
            if r <= target or total >= max_iter:
                return GmresResult(x, total, r, r <= target, history)
            # the rotation recurrence can undershoot the attainable residual;
            # keep restarting while the true residual still makes headway
            if r >= 0.5 * beta:
                return GmresResult(x, total, r, False, history)
