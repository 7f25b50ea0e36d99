import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icir.precision import (FpFormat, get_format, quantize, safe_scale_check,
                            safe_update_many)
from oracles import round_to, safe_update, sim_op

FP16 = get_format("fp16")
BF16 = get_format("bf16")
FP32 = get_format("fp32")
FP64 = get_format("fp64")


def sig3(x):
    return float(f"{x:.3g}")


class TestFormatConstants:
    def test_fp16(self):
        assert sig3(FP16.u) == 4.88e-4
        assert sig3(FP16.x_s_min) == 5.96e-8
        assert sig3(FP16.x_min) == 6.10e-5
        assert FP16.x_max == 65504.0

    def test_bf16(self):
        assert sig3(BF16.u) == 3.91e-3
        assert sig3(BF16.x_min) == 1.18e-38
        assert sig3(BF16.x_max) == 3.39e38
        assert BF16.x_s_min is None
        assert not BF16.supports_subnormals

    def test_fp32(self):
        assert sig3(FP32.u) == 5.96e-8
        assert sig3(FP32.x_s_min) == 1.40e-45
        assert sig3(FP32.x_min) == 1.18e-38
        assert sig3(FP32.x_max) == 3.40e38

    def test_fp64(self):
        assert sig3(FP64.u) == 1.11e-16
        assert sig3(FP64.x_min) == 2.23e-308
        assert sig3(FP64.x_max) == 1.80e308

    def test_lookup_aliases(self):
        assert get_format("bfloat16") is BF16
        with pytest.raises(ValueError):
            get_format("fp8")

    def test_custom_format(self):
        f = FpFormat("e4m3-ish", significand_bits=4, exponent_bits=4)
        assert f.u == 2.0 ** -4
        assert f.x_min == 2.0 ** -6
        # largest finite = (2 - 2^-3) * 2^7
        assert f.x_max == (2 - 2.0 ** -3) * 2.0 ** 7


class TestRoundTo:
    def test_exact_value_unchanged(self):
        out = round_to(1.0, FP16)
        assert out.value == 1.0 and not out.flags

    def test_overflow_tie(self):
        # 65520 is the tie between 65504 and 65536; nearest-even goes up
        out = round_to(65520.0, FP16)
        assert out.overflow and out.value is None

    def test_just_under_overflow_tie(self):
        assert round_to(65519.999, FP16).value == 65504.0

    def test_xmin_neighborhood(self):
        # 6.10e-5 sits just below x_min = 6.1035e-5; nearest representable is
        # the top subnormal, one quantum below x_min (hardware cast agrees)
        out = round_to(6.10e-5, FP16)
        assert out.value == float(np.float16(6.10e-5))
        assert abs(out.value - FP16.x_min) <= FP16.x_s_min

    def test_underflow(self):
        out = round_to(2.0e-8, FP16)
        assert out.value == 0.0 and "underflow_to_zero" in out.flags

    def test_subnormal_flagged(self):
        out = round_to(1.0e-6, FP16)
        assert out.value != 0.0
        assert "became_subnormal" in out.flags
        assert abs(out.value) < FP16.x_min

    def test_bf16_no_subnormals(self):
        f = BF16
        # below half of x_min rounds to zero, above goes up to x_min
        assert round_to(0.49 * f.x_min, f).value == 0.0
        assert round_to(0.51 * f.x_min, f).value == f.x_min
        # exact tie x_min/2 rounds to the even endpoint, zero
        assert round_to(0.5 * f.x_min, f).value == 0.0

    def test_fp64_identity(self):
        x = 0.1 + 0.2
        assert round_to(x, FP64).value == x

    def test_negative_preserved(self):
        assert round_to(-1.5, FP16).value == -1.5

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            round_to(float("inf"), FP16)


class TestBitwiseOracle:
    """round_to must agree bit-for-bit with the hardware fp16 conversion."""

    def _check(self, xs):
        with np.errstate(over="ignore"):
            ref = xs.astype(np.float16)
        y, over = quantize(xs, FP16)
        ref_over = np.isinf(ref)
        assert np.array_equal(over, ref_over)
        ok = ~over
        back = ref[ok].astype(np.float64)
        assert np.array_equal(y[ok], back)
        # signed zeros too
        assert np.array_equal(np.signbit(y[ok]), np.signbit(back))

    def test_normals(self):
        rng = np.random.default_rng(42)
        xs = rng.uniform(-70000, 70000, 200000)
        self._check(xs)

    def test_log_spread(self):
        rng = np.random.default_rng(43)
        mag = 10.0 ** rng.uniform(-12, 6, 200000)
        xs = mag * rng.choice([-1.0, 1.0], 200000)
        self._check(xs)

    def test_ties(self):
        rng = np.random.default_rng(44)
        base = rng.uniform(-65504, 65504, 100000).astype(np.float16)
        with np.errstate(over="ignore"):
            nxt = np.nextafter(base, np.float16(np.inf))
        mid = (base.astype(np.float64) + nxt.astype(np.float64)) / 2.0
        mid = mid[np.isfinite(nxt)]
        self._check(mid)

    def test_subnormal_range(self):
        rng = np.random.default_rng(45)
        xs = rng.uniform(-1e-4, 1e-4, 200000)
        self._check(xs)

    def test_scalar_vector_paths_match(self):
        rng = np.random.default_rng(46)
        xs = 10.0 ** rng.uniform(-10, 5, 2000) * rng.choice([-1, 1], 2000)
        y, over = quantize(xs, FP16)
        for x, yv, ov in zip(xs, y, over):
            out = round_to(float(x), FP16)
            if ov:
                assert out.overflow
            else:
                assert out.value == yv

    @pytest.mark.parametrize("f, span", [(FP16, (-9, 5)), (FP32, (-47, 39))])
    def test_cast_and_frexp_paths_match(self, f, span):
        # an array with an overflowing value takes the frexp path, one
        # without takes the cast to float16 / float32
        rng = np.random.default_rng(47)
        xs = 10.0 ** rng.uniform(*span, 20000) * rng.choice([-1, 1], 20000)
        top = np.nextafter(f.over_at, 0.0)
        xs = np.concatenate([xs, [0.0, -0.0, top, -top, f.over_at, -f.over_at]])
        y, over = quantize(xs, f)
        assert over.any() and not over[-6:-2].any() and over[-2:].all()
        y_cast, none = quantize(xs[~over], f)
        assert not none.any()
        assert np.array_equal(y_cast, y[~over])
        assert np.array_equal(np.signbit(y_cast), np.signbit(y[~over]))
        assert y_cast[-2] == f.x_max


class TestSimOp:
    def test_add(self):
        assert sim_op("add", 1.0, 1.0, FP16).value == 2.0

    def test_mul_overflow(self):
        assert sim_op("mul", 256.0, 256.0, FP16).overflow

    def test_half_ulp_absorbed(self):
        assert sim_op("add", 1.0, 2.0 ** -12, FP16).value == 1.0

    def test_div_sqrt(self):
        assert sim_op("div", 1.0, 3.0, FP16).value == np.float64(np.float16(1.0 / 3.0))
        assert sim_op("sqrt", 2.0, f=FP16).value == np.float64(np.float16(math.sqrt(2.0)))

    def test_sqrt_negative_rejected(self):
        with pytest.raises(ValueError):
            sim_op("sqrt", -1.0, f=FP16)


class TestSafeScaleCheck:
    def test_pivot_at_least_one(self):
        assert safe_scale_check(1.0, 65504.0, FP16)

    def test_small_pivot_ok(self):
        assert safe_scale_check(1e-3, 60.0, FP16)  # 60/65504 ~ 9.2e-4 <= 1e-3

    def test_small_pivot_overflow(self):
        assert not safe_scale_check(1e-4, 60.0, FP16)

    def test_elementwise(self):
        d = np.array([1.0, 1e-3, 1e-4, 1e-4])
        a = np.array([65504.0, 60.0, 60.0, 6.0])
        assert safe_scale_check(d, a, FP16).tolist() == [True, True, False, True]

    def test_guarantee(self):
        rng = np.random.default_rng(7)
        for _ in range(2000):
            d = float(np.float16(10.0 ** rng.uniform(-4, 0)))
            a = float(np.abs(np.float16(10.0 ** rng.uniform(-2, 4.8))))
            if d <= 0 or a > FP16.x_max:
                continue
            if safe_scale_check(d, a, FP16):
                assert a / d <= FP16.x_max * (1 + 1e-12)


class TestSafeUpdate:
    def test_zeros(self):
        assert safe_update(0.0, 0.0, 0.0, FP16) == 0.0

    def test_product_overflow(self):
        assert safe_update(0.0, 300.0, 300.0, FP16) is None

    def test_subtraction_overflow(self):
        assert safe_update(-60000.0, 100.0, 100.0, FP16) is None

    def test_small_values(self):
        assert safe_update(100.0, 2.0, 3.0, FP16) == 94.0

    def test_boundary_rejected(self):
        # exact a - b*c = 65520 > x_max although each test in fp16
        # arithmetic would pass; the exact-product guard must reject it
        a, b, c = 32.0, 256.0, -255.875
        assert float(np.float16(a)) == a and float(np.float16(c)) == c
        assert abs(a - b * c) > FP16.x_max
        assert safe_update(a, b, c, FP16) is None

    def test_vector_matches_scalar(self):
        rng = np.random.default_rng(8)
        t = np.float16(rng.uniform(-300, 300, (500, 3))).astype(np.float64)
        v, unsafe = safe_update_many(t[:, 0], t[:, 1], t[:, 2], FP16)
        for i in range(500):
            s = safe_update(t[i, 0], t[i, 1], t[i, 2], FP16)
            if unsafe[i]:
                assert s is None
            else:
                assert s == v[i]


class TestProperties:
    @given(st.floats(min_value=-1e9, max_value=1e9, allow_nan=False))
    @settings(max_examples=300, deadline=None)
    def test_idempotent(self, x):
        out = round_to(x, FP16)
        if not out.overflow:
            again = round_to(out.value, FP16)
            assert again.value == out.value and not again.overflow

    @given(st.floats(min_value=-6e4, max_value=6e4, allow_nan=False),
           st.floats(min_value=-6e4, max_value=6e4, allow_nan=False))
    @settings(max_examples=300, deadline=None)
    def test_monotone(self, x, y):
        if x > y:
            x, y = y, x
        a = round_to(x, FP16)
        b = round_to(y, FP16)
        assert a.value <= b.value

    @given(st.floats(min_value=-1e38, max_value=1e38, allow_nan=False))
    @settings(max_examples=200, deadline=None)
    def test_bf16_idempotent(self, x):
        out = round_to(x, BF16)
        if not out.overflow:
            assert round_to(out.value, BF16).value == out.value
