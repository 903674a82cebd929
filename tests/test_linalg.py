"""LU-preconditioned GMRES and the factor kept over a mesh generation."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from egflow import linalg
from egflow.linalg import GmresResult, LaggedLU, SolverError


def _counting_factor(monkeypatch):
    calls = []
    factor = linalg._factor

    def counting(A):
        calls.append(A.shape)
        return factor(A)

    monkeypatch.setattr(linalg, "_factor", counting)
    return calls


def test_gmres_small_oracle():
    # [[4,1],[1,3]] x = (1,2)  ->  x = (1/11, 7/11)
    A = sp.csr_matrix(np.array([[4.0, 1.0], [1.0, 3.0]]))
    x, iters, res = LaggedLU().solve(A, np.array([1.0, 2.0]))
    assert np.allclose(x, [1.0 / 11.0, 7.0 / 11.0], atol=1e-12)
    assert iters <= 2


def test_gmres_result_fields():
    A = sp.identity(4, format="csr")
    out = LaggedLU().solve(A, np.ones(4))
    assert isinstance(out, GmresResult)
    assert out.converged
    assert out.residual <= 1e-10


def test_gmres_nonconvergence_flag():
    rng = np.random.default_rng(6)
    Q = np.linalg.qr(rng.standard_normal((40, 40)))[0]
    A = sp.csr_matrix(Q @ np.diag(np.geomspace(1e-6, 1.0, 40)) @ Q.T)
    b = rng.standard_normal(40)
    out = linalg._gmres(A, b, None, linalg._factor(A), tol=1e-30)
    assert not out.converged
    assert out.residual == pytest.approx(np.linalg.norm(b - A @ out.x))
    assert out.iterations <= linalg.RESTART        # the cap counts restarts too
    with pytest.raises(SolverError, match="stalled"):
        LaggedLU().solve(A, b, tol=1e-30)


def test_fresh_factor_converges_at_once():
    # a complete LU is an exact preconditioner: GMRES converges in one or two
    # iterations whatever the conditioning
    rng = np.random.default_rng(5)
    Q = np.linalg.qr(rng.standard_normal((30, 30)))[0]
    A = sp.csr_matrix(Q @ np.diag(np.geomspace(1.0, 1e5, 30)) @ Q.T)
    out = LaggedLU().solve(A, rng.standard_normal(30))
    assert out.iterations <= 2


def _perturbed_pair(n, seed, eps):
    rng = np.random.default_rng(seed)
    A = sp.random(n, n, density=0.2, random_state=seed, format="csr") \
        + n * sp.identity(n, format="csr")
    E = sp.random(n, n, density=0.2, random_state=seed + 1, format="csr")
    return A.tocsr(), (A + eps * E).tocsr(), rng.standard_normal(n)


def test_lagged_factor_accelerates(monkeypatch):
    calls = _counting_factor(monkeypatch)
    A, A2, b = _perturbed_pair(60, 7, 0.5)
    lu = LaggedLU(keep=True)
    lu.solve(A, b)
    plain = sp.linalg.gmres(A2, b, rtol=1e-10, atol=0.0, restart=20)[0]
    out = lu.solve(A2, b)
    assert len(calls) == 1                    # the second solve reused the factor
    assert 0 < out.iterations <= linalg.REFACTOR_ITERS
    assert np.linalg.norm(b - A2 @ out.x) <= 1e-10 * np.linalg.norm(b)
    assert np.allclose(out.x, plain, atol=1e-8)


def test_factor_dropped_unless_kept(monkeypatch):
    calls = _counting_factor(monkeypatch)
    A, _, b = _perturbed_pair(30, 3, 0.1)
    lu = LaggedLU()
    lu.solve(A, b)
    assert lu.lu is None
    lu.solve(A, b)
    assert len(calls) == 2


def test_iteration_cap_triggers_refactor(monkeypatch):
    calls = _counting_factor(monkeypatch)
    A, A2, b = _perturbed_pair(60, 11, 6.0)
    lu = LaggedLU(keep=True)
    lu.solve(A, b)
    lu.solve(A2, b)                           # lagged, over the cap
    assert len(calls) == 1
    assert lu.iterations > linalg.REFACTOR_ITERS
    out = lu.solve(A2, b)                     # so this one refactors first
    assert len(calls) == 2
    assert out.iterations <= 2


def test_failed_lagged_solve_refactors(monkeypatch):
    calls = _counting_factor(monkeypatch)
    A, A2, b = _perturbed_pair(60, 13, 20.0)
    lu = LaggedLU(keep=True)
    lu.solve(A, b)
    monkeypatch.setattr(linalg, "RESTART", 2)
    out = lu.solve(A2, b)                     # the stale factor stalls: retry
    assert len(calls) == 2
    assert np.linalg.norm(b - A2 @ out.x) <= 1e-10 * np.linalg.norm(b)


def test_singular_matrix_raises():
    A = sp.csr_matrix(np.array([[1.0, 2.0], [2.0, 4.0]]))
    with pytest.raises(SolverError, match="singular"):
        LaggedLU().solve(A, np.array([1.0, 2.0]))


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 12), st.integers(0, 2**31 - 1))
def test_gmres_matches_dense_solve(n, seed):
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((n, n))
    A = M @ M.T + n * np.eye(n)
    b = rng.standard_normal(n)
    out = LaggedLU().solve(sp.csr_matrix(A), b, tol=1e-12)
    assert out.converged
    assert np.allclose(out.x, np.linalg.solve(A, b), atol=1e-7)
