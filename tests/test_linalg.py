"""Sparse helpers and the preconditioned GMRES driver."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from egflow.linalg import (
    BlockILU,
    BlockPartition,
    GmresResult,
    block_diag_precondition,
    gmres,
)


def test_gmres_small_oracle():
    # [[4,1],[1,3]] x = (1,2)  ->  x = (1/11, 7/11)
    A = sp.csr_matrix(np.array([[4.0, 1.0], [1.0, 3.0]]))
    x, iters, res = gmres(A, np.array([1.0, 2.0]))
    assert np.allclose(x, [1.0 / 11.0, 7.0 / 11.0], atol=1e-12)
    assert iters <= 2


def test_gmres_result_fields():
    A = sp.identity(4, format="csr")
    out = gmres(A, np.ones(4))
    assert isinstance(out, GmresResult)
    assert out.converged
    assert out.residual <= 1e-10
    assert len(out.history) >= 1


def test_gmres_monotone_history():
    rng = np.random.default_rng(5)
    Q = np.linalg.qr(rng.standard_normal((30, 30)))[0]
    A = sp.csr_matrix(Q @ np.diag(np.linspace(1.0, 50.0, 30)) @ Q.T)
    out = gmres(A, rng.standard_normal(30), tol=1e-12)
    h = np.asarray(out.history)
    assert out.converged
    assert np.all(np.diff(h) <= 1e-13)


def test_gmres_nonconvergence_flag():
    rng = np.random.default_rng(6)
    Q = np.linalg.qr(rng.standard_normal((40, 40)))[0]
    A = sp.csr_matrix(Q @ np.diag(np.geomspace(1e-6, 1.0, 40)) @ Q.T)
    out = gmres(A, rng.standard_normal(40), tol=1e-14, restart=3, max_iter=3)
    assert not out.converged


def test_partition_validation():
    p = BlockPartition((0, 5), (5, 8))
    assert p.n == 8
    with pytest.raises(ValueError):
        BlockPartition((0, 5), (6, 8))


def _spd_block_system(n_cg, n_const, seed):
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((n_cg + n_const, n_cg + n_const))
    A = sp.csr_matrix(M @ M.T + (n_cg + n_const) * np.eye(n_cg + n_const))
    return A, rng.standard_normal(n_cg + n_const)


def test_block_ilu_accelerates():
    A, b = _spd_block_system(25, 9, 7)
    part = BlockPartition((0, 25), (25, 34))
    plain = gmres(A, b, tol=1e-10)
    pre = gmres(A, b, tol=1e-10, preconditioner=BlockILU(A, part))
    assert pre.converged
    assert pre.iterations <= plain.iterations
    assert np.allclose(pre.x, plain.x, atol=1e-8)


def test_block_diag_preconditioner_exact_blocks():
    # block-diagonal matrix: the block preconditioner is exact, so GMRES
    # converges in a handful of iterations independent of conditioning
    A11 = np.diag(np.geomspace(1.0, 1e4, 10))
    A22 = np.diag(np.geomspace(1.0, 1e3, 4))
    A = sp.csr_matrix(np.block([
        [A11, np.zeros((10, 4))],
        [np.zeros((4, 10)), A22],
    ]))
    part = BlockPartition((0, 10), (10, 14))
    M = block_diag_precondition(A, part)
    out = gmres(A, np.ones(14), tol=1e-12, preconditioner=M)
    assert out.converged
    assert out.iterations <= 3


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 12), st.integers(0, 2**31 - 1))
def test_gmres_matches_dense_solve(n, seed):
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((n, n))
    A = M @ M.T + n * np.eye(n)
    b = rng.standard_normal(n)
    out = gmres(sp.csr_matrix(A), b, tol=1e-12)
    assert out.converged
    assert np.allclose(out.x, np.linalg.solve(A, b), atol=1e-7)
