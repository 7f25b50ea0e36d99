from unittest import mock

import numpy as np
import pytest

from conftest import ic_attempt_on, to_dense
from icir import refine, trisolve
from icir.factor import FactorStats, IcFactor, shifted_ic
from icir.gallery import dense_to_sparse, poisson2d, random_spd, tridiag, wathen
from icir.precision import get_format
from icir.refine import (DELTA_DEFAULT, DELTA_KRYLOV_DEFAULT, DIVERGENCE_THRESHOLD,
                         backward_error, ic_krylov_ir, ic_lu_ir)
from icir.sparse import SparseSpd, l2_scale, matvec_f64
from icir.symbolic import ic_pattern
from icir.trisolve import CAST_F64, NATIVE_LOW
from test_factor import full_pattern
from test_trisolve import make_factor

FP16 = get_format("fp16")
FP64 = get_format("fp64")


def exact_factor(A):
    vals = ic_attempt_on(A, full_pattern(A.n), 1e-20, FP64)
    return IcFactor(full_pattern(A.n), vals, FP64, 0.0, FactorStats(0, 0, 0))


class TestBackwardError:
    def test_defaults(self):
        assert DELTA_DEFAULT == pytest.approx(1e3 * 2.0 ** -53)
        assert DELTA_KRYLOV_DEFAULT == pytest.approx((2.0 ** -53) ** 0.25)

    def test_consistent_rhs_is_tiny(self):
        A = random_spd(30, seed=0)
        x = np.random.default_rng(0).standard_normal(30)
        b = matvec_f64(A, x)
        assert backward_error(A, x, b) <= 4 * 2.0 ** -53

    def test_zero_solution(self):
        A = random_spd(5, seed=1)
        b = np.ones(5)
        assert backward_error(A, np.zeros(5), b) == 1.0

    def test_all_zero(self):
        A = random_spd(5, seed=1)
        assert backward_error(A, np.zeros(5), np.zeros(5)) == 0.0

    def test_precomputed_residual(self):
        A = random_spd(10, seed=2)
        x = np.ones(10)
        b = np.arange(10.0)
        r = b - matvec_f64(A, x)
        assert backward_error(A, x, b, r=r) == backward_error(A, x, b)


class TestLuIr:
    def test_exact_factor_converges_fast(self):
        A = random_spd(40, seed=3)
        b = np.random.default_rng(1).standard_normal(40)
        rep = ic_lu_ir(A, b, exact_factor(A))
        assert rep.converged and rep.iouter <= 2
        assert rep.totits == 0
        assert rep.resfinal <= DELTA_DEFAULT
        assert np.allclose(rep.solution, np.linalg.solve(to_dense(A), b),
                           rtol=1e-8)

    def test_fp16_factor_poisson(self):
        A = poisson2d(12)
        Ahat, _ = l2_scale(A)
        L = shifted_ic(Ahat, ic_pattern(Ahat, 0), f=FP16)
        b = matvec_f64(Ahat, np.ones(A.n))
        rep = ic_lu_ir(Ahat, b, L)
        assert rep.converged
        assert rep.resfinal <= DELTA_DEFAULT
        assert rep.iouter >= 1

    def test_itmax_respected(self):
        A = poisson2d(12)
        Ahat, _ = l2_scale(A)
        L = shifted_ic(Ahat, ic_pattern(Ahat, 0), f=FP16)
        b = matvec_f64(Ahat, np.ones(A.n))
        rep = ic_lu_ir(Ahat, b, L, itmax=1)
        assert not rep.converged and rep.iouter == 1

    def test_non_increasing_residual(self):
        A = poisson2d(10)
        Ahat, _ = l2_scale(A)
        L = shifted_ic(Ahat, ic_pattern(Ahat, 1), f=FP16)
        b = matvec_f64(Ahat, np.ones(A.n))
        prev = None
        for it in range(0, 6):
            rep = ic_lu_ir(Ahat, b, L, itmax=it)
            if prev is not None:
                assert rep.resfinal <= prev * 1.5
            prev = rep.resfinal
            if rep.converged:
                break

    def test_native_low_only_in_half_width_formats(self):
        A = random_spd(20, seed=3)
        b = np.ones(20)
        modes = []

        def apply(L, r, mode):
            modes.append(mode)
            return trisolve.apply_preconditioner(L, r, mode)

        with mock.patch.object(refine, "apply_preconditioner", apply):
            for f, mode in ((FP16, NATIVE_LOW), (get_format("fp32"), CAST_F64),
                            (FP64, CAST_F64)):
                ic_lu_ir(A, b, shifted_ic(A, ic_pattern(A, 0), f=f), itmax=2)
                assert set(modes) == {mode}
                modes.clear()

    def test_native_overflow_fallback_counted(self):
        # tiny fp16 pivot: dividing a unit-norm rhs by it overflows, so the
        # native solve signals and the fp64 fallback is used instead
        Ld = np.array([[2.0 ** -17, 0.0], [0.0, 1.0]])
        L = make_factor(Ld, FP16)
        A = dense_to_sparse(Ld @ Ld.T)
        b = np.array([1.0, 0.5])
        rep = ic_lu_ir(A, b, L)
        assert rep.overflow_fallbacks >= 1
        assert rep.converged


class TestKrylovIr:
    def test_identity_system(self):
        A = dense_to_sparse(np.eye(6))
        L = make_factor(np.eye(6))
        b = np.arange(1.0, 7.0)
        rep = ic_krylov_ir(A, b, L, method="cg")
        assert rep.converged and rep.iouter == 1 and rep.totits == 1
        assert rep.resinit <= 4 * 2.0 ** -53
        assert np.allclose(rep.solution, b)

    def test_exact_factor_cg(self):
        A = random_spd(40, seed=4)
        b = np.random.default_rng(2).standard_normal(40)
        rep = ic_krylov_ir(A, b, exact_factor(A), method="cg")
        assert rep.converged
        assert rep.totits <= 3 * max(rep.iouter, 1)
        assert rep.totits == sum(c for c, _ in rep.per_outer)

    def test_cg_and_gmres_agree(self):
        A = poisson2d(10)
        Ahat, _ = l2_scale(A)
        L = shifted_ic(Ahat, ic_pattern(Ahat, 0), f=FP16)
        b = matvec_f64(Ahat, np.ones(A.n))
        for method in ("cg", "gmres"):
            rep = ic_krylov_ir(Ahat, b, L, method=method)
            assert rep.converged
            assert rep.resfinal <= DELTA_DEFAULT
            x_ref = np.linalg.solve(to_dense(Ahat), b)
            assert np.allclose(rep.solution, x_ref, rtol=1e-6)

    def test_unknown_method(self):
        A = dense_to_sparse(np.eye(2))
        with pytest.raises(ValueError):
            ic_krylov_ir(A, np.ones(2), make_factor(np.eye(2)), method="sor")

    def test_invariants(self):
        A = wathen(8, 6, seed=0)
        Ahat, _ = l2_scale(A)
        L = shifted_ic(Ahat, ic_pattern(Ahat, 0), f=FP16)
        b = matvec_f64(Ahat, np.ones(A.n))
        rep = ic_krylov_ir(Ahat, b, L, method="cg")
        assert rep.totits == sum(c for c, _ in rep.per_outer)
        assert len(rep.per_outer) == rep.iouter or not rep.converged
        assert rep.converged == (rep.resfinal <= DELTA_DEFAULT)
        assert rep.maxbasis == max(c for c, _ in rep.per_outer)

    def test_itmax_respected(self):
        A = poisson2d(12)
        Ahat, _ = l2_scale(A)
        L = shifted_ic(Ahat, ic_pattern(Ahat, 0), f=FP16)
        b = matvec_f64(Ahat, np.ones(A.n))
        rep = ic_krylov_ir(Ahat, b, L, method="cg", itmax=0)
        assert not rep.converged and rep.iouter == 0 and rep.totits == 0

    def test_determinism(self):
        A = wathen(8, 6, seed=5)
        Ahat, _ = l2_scale(A)
        L = shifted_ic(Ahat, ic_pattern(Ahat, 0), f=FP16)
        b = matvec_f64(Ahat, np.ones(A.n))
        r1 = ic_krylov_ir(Ahat, b, L, method="cg")
        r2 = ic_krylov_ir(Ahat, b, L, method="cg")
        assert np.array_equal(r1.solution, r2.solution)
        assert r1.per_outer == r2.per_outer


class TestOuterLoop:
    """The loop both drivers share, on an indefinite 3x3 whose fp16 factor
    needs the shift alpha = 1.024 after 11 B1 restarts."""

    @pytest.fixture
    def indefinite(self):
        A = SparseSpd.from_coo(3, [0, 1, 2, 1], [0, 1, 2, 0], [4, -1, 4, 0.5])
        Ahat, _ = l2_scale(A)
        L = shifted_ic(Ahat, ic_pattern(Ahat, 0), f=FP16)
        assert L.alpha == 1.024 and L.stats.nmod == 11 and L.stats.restarts == 11
        assert [kind for _, kind, _ in L.stats.history] == ["B1"] * 11
        return Ahat, matvec_f64(Ahat, np.ones(3)), L

    def test_small_curvature_is_the_last_correction(self, indefinite):
        Ahat, b, L = indefinite
        rep = ic_krylov_ir(Ahat, b, L, method="cg")
        assert rep.iouter == 1
        assert rep.per_outer == [(0, "small_curvature")]
        assert not rep.converged and not rep.diverged
        assert rep.resfinal == 1.0
        assert np.array_equal(rep.solution, np.zeros(3))

    def test_lu_ir_divergence_stops(self, indefinite):
        # I - (L L^T)^-1 A has an eigenvalue near 10, so the residual grows
        # about tenfold per step until it passes DIVERGENCE_THRESHOLD
        Ahat, b, L = indefinite
        rep = ic_lu_ir(Ahat, b, L)
        assert rep.diverged and not rep.converged
        assert 250 < rep.iouter < 1000
        r = b - matvec_f64(Ahat, rep.solution)
        assert np.abs(r).max() >= DIVERGENCE_THRESHOLD

    def test_gmres_converges(self, indefinite):
        Ahat, b, L = indefinite
        rep = ic_krylov_ir(Ahat, b, L, method="gmres")
        assert rep.converged and rep.resfinal <= DELTA_DEFAULT
        assert rep.totits == sum(c for c, _ in rep.per_outer)


class TestNanResidual:
    """A factor fp16 can hold whose fp64 substitution grows about 1e12 per
    column and overflows: the iterate becomes inf and the residual NaN,
    which both drivers count as divergence, without a RuntimeWarning (the
    suite turns one into an error)."""

    @pytest.fixture
    def overflowing(self):
        n = 40
        Ld = np.diag(np.full(n, 2.0 ** -24)) + np.diag(np.full(n - 1, -65504.0), -1)
        A = tridiag(n)
        return A, matvec_f64(A, np.ones(n)), make_factor(Ld, FP16)

    def test_lu_ir_diverges(self, overflowing):
        A, b, L = overflowing
        rep = ic_lu_ir(A, b, L, itmax=5)
        assert rep.diverged and not rep.converged
        assert rep.iouter == 0 and rep.overflow_fallbacks == 1
        assert np.isnan(rep.resfinal)

    @pytest.mark.parametrize("method, status", [("cg", "small_curvature"),
                                                ("gmres", "stagnated")], ids=["cg", "gmres"])
    def test_krylov_ir_diverges(self, overflowing, method, status):
        A, b, L = overflowing
        rep = ic_krylov_ir(A, b, L, method=method, itmax=3, inner_maxit=50)
        assert rep.diverged and not rep.converged
        assert rep.iouter == 1 and len(rep.per_outer) == 1
        # the inner solve stops at the first NaN instead of running to inner_maxit
        (its, got), = rep.per_outer
        assert its <= 1 and got == status
        assert np.isnan(rep.resfinal)


class TestZeroPivot:
    """A fp16 or bf16 factor with a zero pivot, l_11 = 0, which its fp64
    substitution divides by: as in TestNanResidual, both drivers count the
    NaN residual as divergence, without a RuntimeWarning; LU-IR's native_low
    solve overflows at the pivot and falls back."""

    @pytest.fixture(params=["fp16", "bf16"])
    def zero_pivot(self, request):
        L = make_factor(np.eye(2), get_format(request.param))
        L.values[L.pattern.col_ptr[1]] = 0.0
        return tridiag(2), np.ones(2), L

    def test_lu_ir_diverges(self, zero_pivot):
        rep = ic_lu_ir(*zero_pivot, itmax=5)
        assert rep.diverged and rep.iouter == 0 and rep.overflow_fallbacks == 1

    @pytest.mark.parametrize("method, status", [("cg", "small_curvature"),
                                                ("gmres", "stagnated")], ids=["cg", "gmres"])
    def test_krylov_ir_diverges(self, zero_pivot, method, status):
        rep = ic_krylov_ir(*zero_pivot, method=method, itmax=3, inner_maxit=50)
        assert rep.diverged and rep.per_outer == [(1, status)]


class TestWorkCounts:
    """Each driver computes its first vectors once: b reaches the
    preconditioner once, and refine forms one residual per iterate plus
    the one of x_p."""

    @pytest.fixture
    def system(self):
        A, _ = l2_scale(poisson2d(10))
        L = shifted_ic(A, ic_pattern(A, 0), f=FP16)
        return A, matvec_f64(A, np.ones(A.n)), L

    @staticmethod
    def counted(run):
        """run()'s report, the arguments of refine's preconditioner calls and
        the number of refine's matvecs."""
        args, matvecs = [], []

        def apply(L, r, mode):
            args.append(np.array(r))
            return trisolve.apply_preconditioner(L, r, mode)

        def matvec(A, x):
            matvecs.append(x)
            return matvec_f64(A, x)

        with mock.patch.object(refine, "apply_preconditioner", apply), \
                mock.patch.object(refine, "matvec_f64", matvec):
            rep = run()
        return rep, args, len(matvecs)

    @pytest.mark.parametrize("method", ["cg", "gmres"])
    @pytest.mark.parametrize("signed_zero", [False, True], ids=["b", "b with -0.0"])
    def test_krylov_ir_applies_the_preconditioner_to_b_once(self, system, method, signed_zero):
        A, b, L = system
        if signed_zero:
            b[3] = -0.0
        rep, args, _ = self.counted(lambda: ic_krylov_ir(A, b, L, method=method))
        assert rep.converged and rep.iouter >= 2
        assert len(args) == sum(count + 1 for count, _ in rep.per_outer)
        assert [r.tobytes() for r in args].count(b.tobytes()) == 1

    @pytest.mark.parametrize("driver", [
        lambda A, b, L: ic_lu_ir(A, b, L),
        lambda A, b, L: ic_lu_ir(A, b, L, itmax=0),
        lambda A, b, L: ic_krylov_ir(A, b, L, method="cg"),
        lambda A, b, L: ic_krylov_ir(A, b, L, method="gmres"),
        lambda A, b, L: ic_krylov_ir(A, b, L, method="cg", itmax=0),
    ], ids=["lu-ir", "lu-ir itmax 0", "cg", "gmres", "cg itmax 0"])
    def test_one_matvec_per_iterate_and_one_for_xp(self, system, driver):
        A, b, L = system
        rep, _, matvecs = self.counted(lambda: driver(A, b, L))
        assert matvecs == rep.iouter + 1
