"""LU-preconditioned GMRES, the factor kept over a mesh generation and the
column order its two systems share."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

import egflow.driver as driver
from egflow import linalg
from egflow.linalg import (ColumnOrder, GmresResult, LaggedLU, SolverError,
                           generation_factors)


def _counting_factor(monkeypatch):
    calls = []
    factor = linalg._factor

    def counting(A, order):
        calls.append(A.shape)
        return factor(A, order)

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
    out = linalg._gmres(A, b, None, linalg._factor(A, ColumnOrder()), tol=1e-30)
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


# ---------------------------------------------------------------------------
# one fill-reducing order per mesh generation


def _spy_orders(monkeypatch):
    """Records the permc_spec of every SuperLU factorization."""
    specs = []
    splu = linalg.splu

    def spy(A, permc_spec, **kwargs):
        specs.append(permc_spec)
        return splu(A, permc_spec=permc_spec, **kwargs)

    monkeypatch.setattr(linalg, "splu", spy)
    return specs


def _driver_systems(monkeypatch, **overrides):
    """(generation, A, b) of every solve of a perm_block run."""
    systems = []
    solve = driver.solve_reduced

    def capture(dm, A, b, **kwargs):
        systems.append((dm.mesh.generation, A, b))
        return solve(dm, A, b, **kwargs)

    monkeypatch.setattr(driver, "solve_reduced", capture)
    driver.run(driver.make_config("perm_block", **overrides))
    return systems


def test_one_minimum_degree_order_per_generation(monkeypatch):
    specs = _spy_orders(monkeypatch)
    orders = []                         # held, so that no two share an id
    factor = linalg._factor

    def tagged(A, order):
        orders.append(order)
        return factor(A, order)

    monkeypatch.setattr(linalg, "_factor", tagged)
    systems = _driver_systems(monkeypatch, r_max=2, t_end=0.06)
    generations = {g for g, _, _ in systems}
    assert len(generations) >= 3                         # the mesh adapted
    assert len(specs) == len(orders) >= 2 * len(generations)
    distinct = {id(order): order for order in orders}
    for key in distinct:
        mine = [spec for order, spec in zip(orders, specs) if id(order) == key]
        assert mine[0] == "MMD_AT_PLUS_A"
        assert set(mine[1:]) <= {"NATURAL"}
    # one order per generation: as many orders as generations
    assert specs.count("MMD_AT_PLUS_A") == len(distinct) == len(generations)


def _last_pair(monkeypatch):
    """The flow and transport systems of the last step of a short adaptive run."""
    (g_f, A_f, b_f), (g_t, A_t, b_t) = _driver_systems(monkeypatch, r_max=2,
                                                       t_end=0.04)[-2:]
    assert g_f == g_t and A_f.shape == A_t.shape and A_f.shape[0] > 500
    return A_f, b_f, A_t, b_t


def test_second_system_reuses_the_order(monkeypatch):
    A_f, b_f, A_t, b_t = _last_pair(monkeypatch)
    specs = _spy_orders(monkeypatch)
    factors = generation_factors("flow", "transport")
    for f in factors.values():
        f.keep = True
    factors["flow"].solve(A_f, b_f)
    order = factors["flow"].order
    assert factors["transport"].order is order and order.q is not None
    q = order.q.copy()
    out = factors["transport"].solve(A_t, b_t, tol=1e-10)
    assert specs == ["MMD_AT_PLUS_A", "NATURAL"]
    assert np.array_equal(order.q, q) and factors["transport"].lu.q is order.q
    assert np.linalg.norm(b_t - A_t @ out.x) <= 1e-10 * np.linalg.norm(b_t)
    own = linalg._factor(A_t, ColumnOrder())
    assert factors["transport"].lu.superlu.nnz <= 1.05 * own.superlu.nnz


def test_recorded_order_keeps_the_fill():
    # q = argsort(perm_c) in the natural order reproduces the minimum-degree
    # fill of the same matrix; perm_c itself, the inverse, does not
    rng = np.random.default_rng(2)
    n = 400
    A = (sp.random(n, n, density=0.004, random_state=2)
         + sp.diags(rng.uniform(1.0, 2.0, n))).tocsr()
    A = (A + A.T).tocsr()
    order = ColumnOrder()
    mmd = linalg._factor(A, order)
    again = linalg._factor(A, order)
    assert again.superlu.nnz <= 1.01 * mmd.superlu.nnz
    wrong = ColumnOrder()
    wrong.q, wrong.qinv = order.qinv, order.q
    assert linalg._factor(A, wrong).superlu.nnz > 1.5 * mmd.superlu.nnz
    b = rng.standard_normal(n)
    for lu in (mmd, again):
        assert np.allclose(A @ lu.solve(b), b, atol=1e-10)


def test_explicit_zeros_do_not_reach_the_factor():
    A = sp.csr_matrix(np.array([[2.0, 0.0, 1.0], [0.0, 3.0, 0.0], [1.0, 0.0, 4.0]]))
    B = sp.csr_matrix((np.where(np.arange(9) % 2 == 1, 0.0, A.toarray().ravel()),
                       np.tile(np.arange(3), 3), np.arange(0, 10, 3)), shape=(3, 3))
    assert B.nnz == 9 and abs(A - B).max() == 0.0
    assert linalg._factor(B, ColumnOrder()).superlu.nnz == \
        linalg._factor(A, ColumnOrder()).superlu.nnz
