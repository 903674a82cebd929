"""The LU solve on a fresh factor, LU-preconditioned GMRES on a lagged one or
after a miss, started from the projection onto the generation's recent
solutions, the factor kept over a mesh generation and the column order its
two systems share."""

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
    out = LaggedLU().solve(A, np.array([1.0, 2.0]))
    assert np.allclose(out.x, [1.0 / 11.0, 7.0 / 11.0], atol=1e-12)
    assert out.iterations <= 2


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
    out = linalg._gmres(A, b, np.zeros(40), linalg._factor(A, ColumnOrder()), tol=1e-30)
    assert not out.converged
    assert out.residual == pytest.approx(np.linalg.norm(b - A @ out.x))
    assert out.iterations <= linalg.RESTART        # the cap counts restarts too
    # on a fresh factor the LU solve misses, GMRES takes over and stalls
    with pytest.raises(SolverError, match="stalled") as err:
        LaggedLU().solve(A, b, tol=1e-30)
    iterations = int(str(err.value).split("after ")[1].split()[0])
    assert 0 < iterations <= linalg.RESTART


def _spy_gmres(monkeypatch):
    calls = []
    gmres = linalg._gmres

    def spy(*args, **kwargs):
        calls.append(1)
        return gmres(*args, **kwargs)

    monkeypatch.setattr(linalg, "_gmres", spy)
    return calls


def _fresh_solve(monkeypatch, start):
    # a complete LU is exact up to roundoff: one LU solve meets tol whatever
    # the conditioning, with or without a start to correct, and no GMRES runs
    calls = _spy_gmres(monkeypatch)
    rng = np.random.default_rng(5)
    Q = np.linalg.qr(rng.standard_normal((30, 30)))[0]
    A = sp.csr_matrix(Q @ np.diag(np.geomspace(1.0, 1e5, 30)) @ Q.T)
    b = rng.standard_normal(30)
    out = LaggedLU().solve(A, b, x0=rng.standard_normal(30) if start else None)
    assert out.iterations == 0 and out.converged and not calls
    assert out.residual == pytest.approx(np.linalg.norm(b - A @ out.x))
    assert out.residual <= 1e-10 * np.linalg.norm(b)


def test_fresh_factor_converges_at_once(monkeypatch):
    _fresh_solve(monkeypatch, start=False)


def test_fresh_factor_corrects_the_start(monkeypatch):
    _fresh_solve(monkeypatch, start=True)


def test_fresh_factor_miss_goes_on_into_gmres(monkeypatch):
    # a factor whose solve is off by 1e-6 relative misses tol at once, and
    # GMRES preconditioned by it converges from the LU solve's result
    calls = _spy_gmres(monkeypatch)
    solve = linalg._LU.solve
    monkeypatch.setattr(linalg._LU, "solve", lambda lu, b: solve(lu, b) * (1.0 + 1e-6))
    A, _, b = _perturbed_pair(60, 7, 0.5)
    out = LaggedLU().solve(A, b)
    assert calls == [1]
    assert out.converged and 0 < out.iterations <= 3
    assert np.linalg.norm(b - A @ out.x) <= 1e-10 * np.linalg.norm(b)


def _perturbed_pair(n, seed, eps):
    rng = np.random.default_rng(seed)
    A = sp.random(n, n, density=0.2, random_state=seed, format="csr") \
        + n * sp.identity(n, format="csr")
    E = sp.random(n, n, density=0.2, random_state=seed + 1, format="csr")
    return A.tocsr(), (A + eps * E).tocsr(), rng.standard_normal(n)


def test_lagged_factor_accelerates(monkeypatch):
    calls = _counting_factor(monkeypatch)
    A, A2, b = _perturbed_pair(60, 7, 0.5)
    lu = _keeping(A, b)
    plain = sp.linalg.gmres(A2, b, rtol=1e-10, atol=0.0, restart=20)[0]
    out = lu.solve(A2, b)
    assert len(calls) == 2                    # the third solve reused the factor
    assert 0 < out.iterations <= linalg.REFACTOR_ITERS
    assert np.linalg.norm(b - A2 @ out.x) <= 1e-10 * np.linalg.norm(b)
    assert np.allclose(out.x, plain, atol=1e-8)


def _keeping(A, b):
    """A LaggedLU that has solved A x = b twice, so it holds a kept factor."""
    lu = LaggedLU()
    lu.solve(A, b)
    lu.solve(A, b)
    return lu


def test_factor_kept_from_the_second_solve(monkeypatch):
    calls = _counting_factor(monkeypatch)
    A, A2, b = _perturbed_pair(30, 3, 0.1)
    lu = LaggedLU()
    lu.solve(A, b)
    assert lu.lu is None and len(calls) == 1     # the first factor is dropped
    lu.solve(A, b)
    assert lu.lu is not None and len(calls) == 2
    kept = lu.lu
    out = lu.solve(A2, b)
    assert lu.lu is kept and len(calls) == 2     # the third reuses it
    assert out.converged and out.iterations > 0


def test_iteration_cap_triggers_refactor(monkeypatch):
    calls = _counting_factor(monkeypatch)
    A, A2, b = _perturbed_pair(60, 11, 6.0)
    lu = _keeping(A, b)
    lu.solve(A2, b)                           # lagged, over the cap
    assert len(calls) == 2
    assert lu.iterations > linalg.REFACTOR_ITERS
    out = lu.solve(A2, b)                     # so this one refactors first
    assert len(calls) == 3
    assert out.iterations == 0


def test_failed_lagged_solve_refactors(monkeypatch):
    calls = _counting_factor(monkeypatch)
    A, A2, b = _perturbed_pair(60, 13, 20.0)
    lu = _keeping(A, b)
    monkeypatch.setattr(linalg, "RESTART", 2)
    out = lu.solve(A2, b)                     # the stale factor stalls: retry
    assert len(calls) == 3
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


def _nonsymmetric(n, seed):
    A = sp.random(n, n, density=0.1, random_state=seed) + 4.0 * sp.identity(n)
    return A.tocsr()


def _scipy_gmres(A, b, x0, lu, tol):
    """scipy's GMRES with the same preconditioner, cap and true-residual target."""
    count = []
    M = sp.linalg.LinearOperator(A.shape, lu.solve, dtype=float)
    x, info = sp.linalg.gmres(A, b, x0=x0, rtol=tol, atol=0.0, restart=linalg.RESTART,
                              maxiter=linalg.RESTART, M=M, callback=count.append,
                              callback_type="legacy")
    return x, info, len(count)


@pytest.mark.parametrize("seed", range(6))
def test_kernel_agrees_with_scipy_gmres(seed):
    # a preconditioner off by a perturbation of A, as a lagged factor is:
    # both meet tol on the true residual, in about as many iterations
    rng = np.random.default_rng(seed)
    n, tol = 80, 1e-10
    A = _nonsymmetric(n, seed)
    E = sp.random(n, n, density=0.05, random_state=seed + 100)
    lu = linalg._factor((A + 0.3 * E).tocsr(), ColumnOrder())
    b, x0 = rng.standard_normal(n), rng.standard_normal(n)
    out = linalg._gmres(A, b, x0, lu, tol)
    x, info, iterations = _scipy_gmres(A, b, x0, lu, tol)
    assert info == 0 and out.converged and out.iterations > 2
    assert out.residual == np.linalg.norm(b - A @ out.x)
    assert out.residual <= tol * np.linalg.norm(b)
    assert np.linalg.norm(A @ (out.x - x)) <= 2.0 * tol * np.linalg.norm(b)
    assert abs(out.iterations - iterations) <= 1


class _Jacobi:
    def __init__(self, d):
        self.d = d

    def solve(self, v):
        return v / self.d


@pytest.mark.parametrize("seed", range(3))
def test_kernel_goes_on_when_the_estimate_misleads(seed):
    # with a diagonal preconditioner on a widely scaled matrix the ratio of
    # true to preconditioned residual drifts within the cycle: the scaled
    # estimate meets tol before the true residual does, and the cycle goes on
    rng = np.random.default_rng(seed)
    d = np.geomspace(1.0, 1e4, 40)
    A = (sp.diags(d) + 7.0 * sp.random(40, 40, density=0.1, random_state=seed)).tocsr()
    b = rng.standard_normal(40)
    out = linalg._gmres(A, b, np.zeros(40), _Jacobi(A.diagonal()), 1e-10)
    assert out.converged and out.iterations <= linalg.RESTART
    assert np.linalg.norm(b - A @ out.x) <= 1e-10 * np.linalg.norm(b)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 40), st.integers(0, 5), st.integers(0, 2**31 - 1),
       st.sampled_from(["zero", "random", "near", "exact"]))
def test_projected_start_never_raises_the_residual(n, k, seed, newest):
    # histories with repeated, scaled and exact solutions make W rank-deficient;
    # the newest solution is the start the projection must not make worse
    rng = np.random.default_rng(seed)
    A = _nonsymmetric(n, seed % 1000)
    b = rng.standard_normal(n)
    x = np.linalg.solve(A.toarray(), b)
    pool = [rng.standard_normal(n), x, 2.0 * x, x + 1e-9 * rng.standard_normal(n)]
    history = [pool[i] for i in rng.integers(0, len(pool), k)]
    history.append({"zero": np.zeros(n), "random": rng.standard_normal(n),
                    "near": x + 1e-14 * rng.standard_normal(n), "exact": x}[newest])
    r0 = np.linalg.norm(b - A @ history[-1])
    assert np.linalg.norm(b - A @ linalg._projected(A, b, history)) <= r0


def test_projection_finds_a_solution_in_the_span():
    rng = np.random.default_rng(4)
    A = _nonsymmetric(50, 4)
    b = rng.standard_normal(50)
    x = np.linalg.solve(A.toarray(), b)
    u = rng.standard_normal(50)
    start = linalg._projected(A, b, [x + u, 3.0 * u])
    assert np.linalg.norm(b - A @ start) <= 1e-12 * np.linalg.norm(b)


def test_history_keeps_the_last_solutions():
    factors = generation_factors("flow", "transport")
    assert all(len(f.history) == 0 for f in factors.values())
    A, _, b = _perturbed_pair(30, 3, 0.1)
    flow = factors["flow"]
    xs = [flow.solve(A + 0.01 * k * sp.identity(30, format="csr"), b).x
          for k in range(linalg.HISTORY + 3)]
    assert len(flow.history) == linalg.HISTORY
    assert all(h is x for h, x in zip(flow.history, xs[-linalg.HISTORY:]))
    assert len(factors["transport"].history) == 0
    assert all(len(f.history) == 0
               for f in generation_factors("flow", "transport").values())


def test_lagged_solves_start_from_the_history(monkeypatch):
    # a system drifting along one direction: its last solutions span most of
    # the next one, so a lagged solve from their projection takes fewer
    # iterations than one from the previous solution alone (HISTORY = 1)
    A, A2, b = _perturbed_pair(60, 7, 0.5)
    E = A2 - A

    def iterations(history):
        monkeypatch.setattr(linalg, "HISTORY", history)
        lu, x, counts = LaggedLU(), None, []
        for t in np.linspace(0.0, 0.3, 8):
            out = lu.solve((A + t * E).tocsr(), b, x0=x)
            x, counts = out.x, counts + [out.iterations]
        return sum(counts)

    assert iterations(4) < iterations(1)


def test_fresh_factor_solve_is_not_projected():
    rng = np.random.default_rng(8)
    A, A2, b = _perturbed_pair(60, 11, 6.0)
    lu = _keeping(A, b)
    lu.iterations = linalg.REFACTOR_ITERS + 1       # so the next solve refactors
    x0 = rng.standard_normal(60)
    out = lu.solve(A2, b, x0=x0)
    direct = linalg._direct(A2, b, x0, linalg._factor(A2, lu.order), 1e-10)
    assert out.iterations == 0 and direct.converged
    assert np.array_equal(out.x, direct.x)


def test_failures_name_the_system():
    A = sp.csr_matrix(np.array([[1.0, 2.0], [2.0, 4.0]]))
    with pytest.raises(SolverError, match="^transport solve failed: singular"):
        generation_factors("flow", "transport")["transport"].solve(A, np.ones(2))
    rng = np.random.default_rng(6)
    Q = np.linalg.qr(rng.standard_normal((40, 40)))[0]
    A = sp.csr_matrix(Q @ np.diag(np.geomspace(1e-6, 1.0, 40)) @ Q.T)
    with pytest.raises(SolverError, match="^flow solve stalled at residual"):
        LaggedLU("flow").solve(A, rng.standard_normal(40), tol=1e-30)


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


def test_budget_bound_run_pays_once_per_generation(monkeypatch):
    # with the cell budget binding, nearly every step starts a mesh
    # generation: it builds one context and one minimum-degree factor, and
    # a fresh factor solves without GMRES
    specs = _spy_orders(monkeypatch)
    contexts, solves = [], []
    init, solve, gmres = driver.AssemblyContext.__init__, LaggedLU.solve, linalg._gmres

    def counting_init(self, mesh, *args, **kwargs):
        contexts.append(mesh.generation)
        init(self, mesh, *args, **kwargs)

    def spying_solve(self, *args, **kwargs):
        fresh = self.lu is None or self.iterations > linalg.REFACTOR_ITERS
        solves.append({"fresh": fresh, "gmres": 0})
        return solve(self, *args, **kwargs)

    def spying_gmres(*args, **kwargs):
        solves[-1]["gmres"] += 1
        return gmres(*args, **kwargs)

    monkeypatch.setattr(driver.AssemblyContext, "__init__", counting_init)
    monkeypatch.setattr(LaggedLU, "solve", spying_solve)
    monkeypatch.setattr(linalg, "_gmres", spying_gmres)
    systems = _driver_systems(monkeypatch, r_max=4, cell_max=1500, t_end=0.15)
    generations = [g for g, _, _ in systems]
    assert len(set(generations)) >= 6                   # the mesh kept changing
    assert sorted(contexts) == sorted(set(contexts)) and set(generations) <= set(contexts)
    assert specs.count("MMD_AT_PLUS_A") == len(set(generations))
    assert len(solves) == len(systems)
    assert not [s for s in solves if s["fresh"] and s["gmres"]]


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
    factors["flow"].solve(A_f, b_f)
    order = factors["flow"].order
    assert factors["transport"].order is order and order.q is not None
    q = order.q.copy()
    factors["transport"].solve(A_t, b_t, tol=1e-10)      # its factor is dropped
    out = factors["transport"].solve(A_t, b_t, tol=1e-10)
    assert specs == ["MMD_AT_PLUS_A", "NATURAL", "NATURAL"]
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
