import numpy as np
import pytest

from conftest import ic_attempt_on
from icir.factor import (Breakdown, FactorizationError, ShiftRestartError,
                         default_tau, shifted_ic)
from icir.gallery import dense_to_sparse, random_spd, tridiag, wathen
from icir.precision import FpFormat, get_format, quantize
from icir.sparse import SparseSpd, SqueezeReport, l2_scale, squeeze
from icir.symbolic import FillPattern, ic_pattern

FP16 = get_format("fp16")
FP64 = get_format("fp64")


def full_pattern(n):
    cols = [np.arange(j, n) for j in range(n)]
    cp = np.zeros(n + 1, dtype=np.int64)
    cp[1:] = np.cumsum([len(c) for c in cols])
    return FillPattern(n, cp, np.concatenate(cols))


def spd_dense(n, seed):
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((n, n))
    return B @ B.T + n * np.eye(n)


class TestIcAttempt:
    def test_identity(self):
        n = 6
        pat = FillPattern(n, np.arange(n + 1), np.arange(n))
        A = dense_to_sparse(np.eye(n))
        vals = ic_attempt_on(A, pat, 1e-20, FP64)
        assert not isinstance(vals, Breakdown)
        assert np.array_equal(vals, np.ones(n))

    def test_b1_indefinite(self):
        A = dense_to_sparse(np.array([[1.0, 2.0], [2.0, 1.0]]))
        out = ic_attempt_on(A, full_pattern(2), 1e-20, FP64)
        assert isinstance(out, Breakdown)
        assert out == Breakdown("B1", 1)

    def test_matches_dense_cholesky(self):
        for seed in (0, 1):
            n = 40
            D = spd_dense(n, seed)
            A = dense_to_sparse(D)
            vals = ic_attempt_on(A, full_pattern(n), 1e-20, FP64)
            L = np.zeros((n, n))
            pat = full_pattern(n)
            for j in range(n):
                L[pat.row_idx[pat.col_ptr[j]:pat.col_ptr[j + 1]], j] = \
                    vals[pat.col_ptr[j]:pat.col_ptr[j + 1]]
            ref = np.linalg.cholesky(D)
            assert np.abs(L - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_b2_tiny_pivot_large_entry(self):
        # pivot sqrt ~ 3.5e-4, column entry 30 > pivot * x_max ~ 22.7
        d0 = float(np.float16(1.2e-7))
        A = dense_to_sparse(np.array([[d0, 30.0], [30.0, 1.0]]))
        out = ic_attempt_on(A, full_pattern(2), 1e-7, FP16)
        assert isinstance(out, Breakdown) and out.kind == "B2" and out.k == 0

    def test_b3_update_overflow(self):
        # scaled column entries ~ 63000; their product overflows the update
        d0 = float(np.float16(4e-7))
        D = np.array([[d0, 40.0, 40.0], [40.0, 1.0, 0.0], [40.0, 0.0, 1.0]])
        A = dense_to_sparse(D)
        out = ic_attempt_on(A, full_pattern(3), 1e-7, FP16)
        assert isinstance(out, Breakdown) and out.kind == "B3" and out.k == 0

    def test_fp64_b2_without_overflow(self):
        # 1e300 / sqrt(1e-20) overflows fp64; the rejected column is divided, silently
        A = dense_to_sparse([[1e-20, 1e300], [1e300, 1.0]])
        assert ic_attempt_on(A, full_pattern(2), 1e-30, FP64) == Breakdown("B2", 0)

    @pytest.mark.parametrize("D", [
        # the guard product 1e160 * 1e160 overflows fp64 to inf
        [[1.0, 1e160, 1e160], [1e160, 1.0, 0.0], [1e160, 0.0, 1.0]],
        # -1.5e308 - 1e154 * 1e154 overflows fp64 to -inf
        [[1.0, 1e154, 0.0], [1e154, -1.5e308, 0.0], [0.0, 0.0, 1.0]]])
    def test_fp64_b3_without_overflow(self, D):
        assert ic_attempt_on(dense_to_sparse(D), full_pattern(3), 1e-20, FP64) == Breakdown("B3", 0)

    def test_tau_must_be_representable(self):
        A = tridiag(3)
        with pytest.raises(ValueError):
            ic_attempt_on(A, ic_pattern(A, 0), 1e-9, FP16)

    def test_pattern_must_cover_structure(self):
        A = tridiag(4)
        narrow = FillPattern(4, np.arange(5), np.arange(4))  # diagonal only
        with pytest.raises(ValueError):
            ic_attempt_on(A, narrow, 1e-20, FP64)


class TestDefaultTau:
    def test_values(self):
        assert default_tau(FP16) == 1e-5
        assert default_tau(get_format("bf16")) == 1e-5
        assert default_tau(get_format("fp32")) == 1e-20
        assert default_tau(FP64) == 1e-20

    def test_narrow_exponent_half_width_formats(self):
        # 1e-5 is below the smallest subnormal, 2^-9, of a format with a
        # 4-bit exponent and significand, and below x_min = 2^-2 of one
        # with a 3-bit exponent and no subnormals
        e4m3 = FpFormat("e4m3-ish", 4, 4)
        assert default_tau(e4m3) == 4.0 * e4m3.x_s_min == 2.0 ** -7
        e3m5 = FpFormat("e3m5-ish", 6, 3, supports_subnormals=False)
        assert default_tau(e3m5) == 4.0 * e3m5.x_min == 1.0
        Ahat, _ = l2_scale(tridiag(30))
        L = shifted_ic(Ahat, ic_pattern(Ahat, 0), f=e4m3)
        assert L.alpha == 0.0 and np.all(np.abs(L.values) <= e4m3.x_max)


class TestShiftedIc:
    def test_m_matrix_no_shift(self):
        A = tridiag(30)  # 1-D Laplacian, M-matrix
        Ahat, _ = l2_scale(A)
        for fmt in (FP16, FP64):
            L = shifted_ic(Ahat, ic_pattern(Ahat, 0), f=fmt)
            assert L.alpha == 0.0
            assert L.stats.restarts == 0 and L.stats.nmod == 0 and L.stats.nofl == 0

    def test_single_restart(self):
        # indefinite at alpha=0, fine at alpha=1e-3
        D = np.array([[1.0, 1.0], [1.0, 0.9999]])
        A = dense_to_sparse(D)
        L = shifted_ic(A, ic_pattern(A, 0), f=FP64)
        assert L.alpha == 1e-3
        assert L.stats.nmod == 1 and L.stats.restarts == 1

    def test_shift_doubling_sequence(self):
        # needs alpha > 5e-3, so fails at 0, 1e-3, 2e-3, 4e-3
        D = np.array([[1.0, 1.0], [1.0, 0.99]])
        A = dense_to_sparse(D)
        with pytest.raises(ShiftRestartError) as exc:
            shifted_ic(A, ic_pattern(A, 0), f=FP64, max_restarts=4)
        assert [a for a, _ in exc.value.history] == [0.0, 1e-3, 2e-3, 4e-3]
        L = shifted_ic(A, ic_pattern(A, 0), f=FP64)
        assert L.alpha == 8e-3 and L.stats.nmod == 4 and L.stats.restarts == 4

    @pytest.mark.parametrize("kwargs, message", [
        ({"f": None}, "target format required"),
        ({"f": FP16, "max_restarts": 0}, "max_restarts must be at least 1"),
    ])
    def test_bad_arguments(self, kwargs, message):
        A = tridiag(3)
        with pytest.raises(ValueError, match=message):
            shifted_ic(A, ic_pattern(A, 0), **kwargs)

    def test_shifted_diagonal_overflow(self):
        # column 1 breaks down (B1) until the shift, doubled from 1e-3, takes
        # column 0's 65504 past fp16's x_max at alpha = 16.384
        A = dense_to_sparse(np.diag([65504.0, -1000.0]))
        with pytest.raises(FactorizationError, match="shifted diagonal overflows"):
            shifted_ic(A, ic_pattern(A, 0), f=FP16)

    def test_alpha_in_doubling_set(self):
        D = np.array([[1.0, 1.0], [1.0, 0.99]])
        A = dense_to_sparse(D)
        L = shifted_ic(A, ic_pattern(A, 0), f=FP64)
        assert L.alpha in {0.0} | {1e-3 * 2.0 ** k for k in range(40)}

    def test_squeeze_report_kept(self):
        # 1e-9 rounds to zero in fp16 and 1e-6 to a subnormal
        A = SparseSpd.from_coo(3, [0, 1, 2, 1, 2], [0, 1, 2, 0, 1], [1, 1, 1, 1e-9, 1e-6])
        L = shifted_ic(A, ic_pattern(A, 0), f=FP16)
        assert L.stats.squeeze == SqueezeReport(kept=3, dropped_underflow=1,
                                                flushed_subnormal=1)
        assert L.stats.squeeze == squeeze(A, FP16)[1]

    def test_diagonally_dominant_no_breakdown(self):
        A = random_spd(40, seed=7)
        Ahat, _ = l2_scale(A)
        L = shifted_ic(Ahat, ic_pattern(Ahat, 1), f=FP16)
        assert L.stats.nmod == 0 and L.stats.nofl == 0 and L.alpha == 0.0

    def test_fp16_values_bounded(self):
        A = wathen(10, 8, seed=3)
        Ahat, _ = l2_scale(A)
        for lev in (0, 2):
            L = shifted_ic(Ahat, ic_pattern(Ahat, lev), f=FP16)
            assert np.all(np.isfinite(L.values))
            assert np.abs(L.values).max() <= FP16.x_max
            # values are exactly representable in fp16
            rounded, over = quantize(L.values, FP16)
            assert not over.any()
            assert np.array_equal(rounded, L.values)

    def test_diagonal_at_least_sqrt_tau(self):
        A = wathen(6, 5, seed=1)
        Ahat, _ = l2_scale(A)
        L = shifted_ic(Ahat, ic_pattern(Ahat, 0), f=FP16)
        dpos = L.pattern.col_ptr[:-1]
        assert np.all(L.values[dpos] > 0)

    def test_determinism(self):
        A = wathen(8, 6, seed=2)
        Ahat, _ = l2_scale(A)
        L1 = shifted_ic(Ahat, ic_pattern(Ahat, 1), f=FP16)
        L2 = shifted_ic(Ahat, ic_pattern(Ahat, 1), f=FP16)
        assert np.array_equal(L1.values, L2.values)
        assert L1.stats == L2.stats and L1.alpha == L2.alpha
