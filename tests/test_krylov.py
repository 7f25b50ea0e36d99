import tracemalloc

import numpy as np

from conftest import to_dense
from icir.factor import FactorStats, IcFactor, ic_attempt
from icir.gallery import dense_to_sparse, poisson2d, random_spd, tridiag
from icir.krylov import CONVERGED, MAX_ITERATIONS, gmres, pcg
from icir.precision import get_format
from icir.sparse import l2_scale, matvec_f64
from icir.trisolve import apply_preconditioner
from test_factor import full_pattern

FP64 = get_format("fp64")
IDENT = lambda r: r


def exact_preconditioner(A):
    vals = ic_attempt(A, full_pattern(A.n), 1e-20, FP64, safe_checks=False)
    L = IcFactor(full_pattern(A.n), vals, FP64, 0.0, FactorStats(0, 0, 0))
    return lambda r: apply_preconditioner(L, r)


class TestPcg:
    def test_identity_one_iteration(self):
        A = dense_to_sparse(np.eye(5))
        out = pcg(A, IDENT, np.arange(1.0, 6.0), 1e-10, 100)
        assert out.status == CONVERGED and out.iterations == 1
        assert np.allclose(out.solution, np.arange(1.0, 6.0))

    def test_zero_rhs(self):
        A = tridiag(5)
        out = pcg(A, IDENT, np.zeros(5), 1e-10, 100)
        assert out.status == CONVERGED and out.iterations == 0

    def test_exact_preconditioner_two_iterations(self):
        A = random_spd(30, seed=0)
        b = np.random.default_rng(0).standard_normal(30)
        out = pcg(A, exact_preconditioner(A), b, 1e-10, 100)
        assert out.status == CONVERGED and out.iterations <= 2

    def test_diag_spectrum_bound(self):
        n = 20
        A = dense_to_sparse(np.diag(np.arange(1.0, n + 1)))
        b = np.ones(n)
        out = pcg(A, IDENT, b, 1e-12, n + 5)
        assert out.status == CONVERGED and out.iterations <= n + 5
        assert np.allclose(out.solution, b / np.arange(1.0, n + 1), rtol=1e-8)

    def test_maxit(self):
        A = random_spd(40, seed=1, dominance=0.5)
        b = np.ones(40)
        out = pcg(A, IDENT, b, 1e-30, 3)
        assert out.status == MAX_ITERATIONS and out.iterations == 3

    def test_small_curvature_on_indefinite(self):
        D = np.diag(np.array([1.0, -1.0, 2.0, 3.0]))
        D[1, 0] = D[0, 1] = 0.0
        A = dense_to_sparse(D)
        out = pcg(A, IDENT, np.array([1.0, 1.0, 1.0, 1.0]), 1e-12, 50)
        assert out.status in ("small_curvature", CONVERGED)

    def test_residual_orthogonality(self):
        A = random_spd(25, seed=3)
        b = np.random.default_rng(1).standard_normal(25)
        # track explicit residuals of successive iterates
        xs = []
        M = IDENT
        for k in range(1, 6):
            out = pcg(A, M, b, 1e-30, k)
            xs.append(out.solution.copy())
        rs = [b - matvec_f64(A, x) for x in xs]
        for i in range(len(rs)):
            for j in range(i):
                ip = abs(np.dot(rs[i], rs[j]))
                assert ip <= 1e-8 * np.linalg.norm(rs[i]) * np.linalg.norm(rs[j])

    def test_determinism(self):
        A = random_spd(30, seed=4)
        b = np.ones(30)
        o1 = pcg(A, IDENT, b, 1e-10, 100)
        o2 = pcg(A, IDENT, b, 1e-10, 100)
        assert np.array_equal(o1.solution, o2.solution)
        assert o1.iterations == o2.iterations


class TestGmres:
    def test_identity_one_iteration(self):
        A = dense_to_sparse(np.eye(5))
        out = gmres(A, IDENT, np.arange(1.0, 6.0), 1e-12, 100)
        assert out.status == CONVERGED and out.iterations == 1
        assert np.allclose(out.solution, np.arange(1.0, 6.0))

    def test_2x2_dimension_bound(self):
        A = dense_to_sparse(np.array([[4.0, 2.0], [2.0, 4.0]]))
        out = gmres(A, IDENT, np.array([6.0, 6.0]), 1e-14, 10)
        assert out.status == CONVERGED and out.iterations <= 2
        assert np.allclose(out.solution, [1.0, 1.0], rtol=1e-10)

    def test_zero_rhs(self):
        out = gmres(tridiag(4), IDENT, np.zeros(4), 1e-10, 10)
        assert out.status == CONVERGED and out.iterations == 0

    def test_agrees_with_cg_within_factor_two(self):
        A = random_spd(50, seed=5, dominance=1.0)
        b = np.random.default_rng(2).standard_normal(50)
        M = exact_preconditioner(A)
        c = pcg(A, M, b, 1e-8, 200)
        g = gmres(A, M, b, 1e-8, 200)
        assert c.status == CONVERGED and g.status == CONVERGED
        assert g.iterations <= 2 * c.iterations + 1
        assert c.iterations <= 2 * g.iterations + 1

    def test_monotone_residuals(self):
        A = random_spd(40, seed=6, dominance=0.8)
        b = np.ones(40)
        # residual norms via increasing basis sizes
        norms = []
        for k in range(1, 12):
            out = gmres(A, IDENT, b, 1e-30, k)
            norms.append(np.linalg.norm(b - matvec_f64(A, out.solution)))
        for a, c in zip(norms, norms[1:]):
            assert c <= a * (1 + 1e-10)

    def test_solution_accuracy(self):
        A = random_spd(35, seed=7)
        D = to_dense(A)
        b = np.random.default_rng(3).standard_normal(35)
        out = gmres(A, IDENT, b, 1e-13, 200)
        assert np.allclose(out.solution, np.linalg.solve(D, b), rtol=1e-8)

    def test_determinism(self):
        A = random_spd(30, seed=8)
        b = np.ones(30)
        o1 = gmres(A, IDENT, b, 1e-10, 100)
        o2 = gmres(A, IDENT, b, 1e-10, 100)
        assert np.array_equal(o1.solution, o2.solution)

    def test_memory_grows_with_the_basis(self):
        # a (maxit + 1) x maxit Hessenberg matrix alone would take 30.5 MB
        A, _ = l2_scale(poisson2d(60))
        tracemalloc.start()
        try:
            out = gmres(A, IDENT, np.ones(A.n), 1e-4, 2000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.status == CONVERGED and out.iterations == 79
        assert peak < 8 * 2 ** 20
