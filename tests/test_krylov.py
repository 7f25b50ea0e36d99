import tracemalloc

import numpy as np
import pytest

import icir.krylov as krylov
from conftest import ic_attempt_on, to_dense
from icir.factor import FactorStats, IcFactor, shifted_ic
from icir.gallery import dense_to_sparse, poisson2d, random_spd, tridiag
from icir.krylov import (CONVERGED, MAX_ITERATIONS, MEMORY_BUDGET, SMALL_CURVATURE,
                         STAGNATED, gmres, pcg)
from icir.precision import get_format
from icir.refine import ic_krylov_ir
from icir.sparse import l2_scale, matvec_f64
from icir.symbolic import ic_pattern
from icir.trisolve import apply_preconditioner
from oracles import gmres_reference, pcg_reference
from test_factor import full_pattern

FP16 = get_format("fp16")
FP64 = get_format("fp64")
IDENT = lambda r: r


def exact_preconditioner(A):
    vals = ic_attempt_on(A, full_pattern(A.n), 1e-20, FP64)
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

    def test_small_curvature_from_the_preconditioner(self):
        A = dense_to_sparse(np.eye(2))
        # r.Mr = -|b|^2 at the start
        out = pcg(A, lambda r: -r, np.array([1.0, 0.5]), 1e-12, 50)
        assert (out.status, out.iterations) == (SMALL_CURVATURE, 0)
        assert not out.solution.any()
        # an indefinite M: r.Mr = 0.75, then -0.48 after the first step
        out = pcg(A, lambda r: r * np.array([1.0, -1.0]), np.array([1.0, 0.5]), 1e-12, 50)
        assert (out.status, out.iterations) == (SMALL_CURVATURE, 1)

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


def _nan_after(calls):
    """A preconditioner that is the identity for its first calls, then NaN."""
    count = [0]

    def M(r):
        count[0] += 1
        return r * np.nan if count[0] > calls else r.copy()
    return M


def _zero_after(calls):
    """A preconditioner that is the identity for its first calls, then zero."""
    count = [0]

    def M(r):
        count[0] += 1
        return r * 0.0 if count[0] > calls else r.copy()
    return M


def _ic_preconditioner(m):
    Ahat, _ = l2_scale(poisson2d(m))
    L = shifted_ic(Ahat, ic_pattern(Ahat, 0), f=FP16)
    return Ahat, lambda r: apply_preconditioner(L, r)


def _gmres_cases():
    """(id, A, make_M, b, tol, maxit, status): make_M() gives a fresh M."""
    ident = lambda: IDENT
    poisson, _ = l2_scale(poisson2d(60))
    ic_A, ic_M = _ic_preconditioner(20)
    rng = np.random.default_rng(11)
    diag = dense_to_sparse(np.diag([1.0, 2.0, 2.0, 3.0, 5.0]))
    return [
        # the basis grows 32 -> 64 -> 128
        ("past-64", poisson, ident, np.ones(poisson.n), 1e-4, 2000, CONVERGED),
        ("past-32-maxit", random_spd(120, seed=3, dominance=0.3), ident,
         rng.standard_normal(120), 1e-30, 50, MAX_ITERATIONS),
        ("maxit-64", random_spd(100, seed=4, dominance=0.3), ident,
         rng.standard_normal(100), 1e-30, 64, MAX_ITERATIONS),
        # A b = 2 b: w is exactly zero after one step
        ("happy-breakdown", diag, ident, np.array([0.0, 3.0, 0.0, 0.0, 0.0]),
         1e-300, 10, CONVERGED),
        ("nan-residual", random_spd(40, seed=5), lambda: _nan_after(4),
         np.ones(40), 1e-12, 40, STAGNATED),
        ("zero-preconditioner", random_spd(20, seed=6), lambda: _zero_after(1),
         np.ones(20), 1e-12, 20, STAGNATED),
        ("zero-rhs", tridiag(6), ident, np.zeros(6), 1e-10, 10, CONVERGED),
        ("ic", ic_A, lambda: ic_M, rng.standard_normal(ic_A.n), 1e-12, 400, CONVERGED),
        ("ic-maxit", ic_A, lambda: ic_M, rng.standard_normal(ic_A.n), 1e-30, 40,
         MAX_ITERATIONS),
    ]


def _pcg_cases():
    """(id, A, M, b, tol, maxit, status, iterations)."""
    ic_A, ic_M = _ic_preconditioner(20)
    rng = np.random.default_rng(12)
    return [
        ("converged", ic_A, ic_M, rng.standard_normal(ic_A.n), 1e-10, 400, CONVERGED, 27),
        # an indefinite M: r.Mr = 0.75, then -0.48 after the first step
        ("small-curvature", dense_to_sparse(np.eye(2)), lambda r: r * np.array([1.0, -1.0]),
         np.array([1.0, 0.5]), 1e-12, 50, SMALL_CURVATURE, 1),
        ("max-iterations", random_spd(40, seed=1, dominance=0.5), IDENT,
         rng.standard_normal(40), 1e-30, 12, MAX_ITERATIONS, 12),
    ]


@pytest.mark.parametrize("case", _pcg_cases(), ids=lambda c: c[0])
def test_pcg_matches_reference(case):
    _, A, M, b, tol, maxit, status, iterations = case
    want = pcg_reference(A, M, b, tol, maxit)
    got = pcg(A, M, b, tol, maxit)
    assert (got.status, got.iterations) == (want.status, want.iterations) == (status, iterations)
    assert got.solution.tobytes() == want.solution.tobytes()


@pytest.mark.parametrize("case", _gmres_cases(), ids=lambda c: c[0])
def test_gmres_matches_reference(case):
    _, A, make_M, b, tol, maxit, status = case
    with np.errstate(all="ignore"):   # the reference's NaN scalars would warn
        want = gmres_reference(A, make_M(), b, tol, maxit)
        got = gmres(A, make_M(), b, tol, maxit)
    assert got.status == want.status == status
    assert got.iterations == want.iterations
    assert got.solution.tobytes() == want.solution.tobytes()


def test_gmres_case_shapes():
    # each case reaches the path it is named after
    its = {name: gmres(A, make_M(), b, tol, maxit).iterations
           for name, A, make_M, b, tol, maxit, _ in _gmres_cases()}
    assert its["past-64"] > 64 and its["past-32-maxit"] == 50 and its["maxit-64"] == 64
    assert its["happy-breakdown"] == 1 and its["zero-preconditioner"] == 0
    assert its["nan-residual"] == 4
    assert its["zero-rhs"] == 0 and its["ic-maxit"] == 40


def test_gmres_memory_budget(monkeypatch):
    # n = 3600: V of 65 rows takes 1.8 MiB, of 129 rows 3.5 MiB
    A, _ = l2_scale(poisson2d(60))
    b = np.ones(A.n)
    monkeypatch.setattr(krylov, "V_BYTES", 2 * 2 ** 20)
    out = gmres(A, IDENT, b, 1e-4, 2000)
    assert (out.iterations, out.status) == (64, MEMORY_BUDGET)
    # the solution of the basis it has: that of a 64-step solve
    want = gmres_reference(A, IDENT, b, 1e-4, 64)
    assert want.status == MAX_ITERATIONS
    assert out.solution.tobytes() == want.solution.tobytes()
    # a budget below the first 33 rows stops at the first grow step
    monkeypatch.setattr(krylov, "V_BYTES", 0)
    assert gmres(A, IDENT, b, 1e-4, 2000).iterations == 32
    # which a solve that never grows does not reach
    assert gmres(A, IDENT, b, 1e-4, 20).status == MAX_ITERATIONS


def test_refinement_carries_on_after_memory_budget(monkeypatch):
    Ahat, _ = l2_scale(poisson2d(30))
    L = shifted_ic(Ahat, ic_pattern(Ahat, 0), f=FP16)
    b = matvec_f64(Ahat, np.ones(Ahat.n))
    monkeypatch.setattr(krylov, "V_BYTES", 0)
    rep = ic_krylov_ir(Ahat, b, L, method="gmres", delta_krylov=1e-15)
    assert rep.per_outer[0] == (32, MEMORY_BUDGET)
    assert rep.iouter == len(rep.per_outer) > 1
    assert rep.converged
