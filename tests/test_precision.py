import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icir import precision
from icir.precision import (FpFormat, _round_scalar, _round_unchecked, get_format, quantize,
                            safe_scale_check, safe_update_many)
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

    def test_every_format_but_fp64_has_a_split(self):
        # wider than 51 significand or 10 exponent bits, Veltkamp's split
        # overflows or loses its exactness; only fp64 needs no rounding
        for p, e in ((8, 11), (52, 9)):
            with pytest.raises(ValueError, match="at most 51 significand and 10 exponent"):
                FpFormat("wide", p, e)
        f = FpFormat("p51-e10", 51, 10)
        assert f.split == 5.0 and f.grid == 1.5 * 2.0 ** (53 - 510 - 51)
        assert FpFormat("double", 53, 11).is_double and FP64.split is None


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
    def test_cast_and_split_paths_match(self, f, span):
        # an array with an overflowing value takes quantize's split of
        # min(|x|, x_max), one without takes the cast to float16 / float32
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


def _rounding_corpus(f: FpFormat, rng) -> np.ndarray:
    """Both signs of every exact tie at each exponent from below x_min to
    past x_max, with both nextafter neighbours (a sample of 64 significands an
    exponent where p > 12), and of ±0.0, values in (0, x_min), x_min / 2,
    over_at with its neighbours and 1.79e308."""
    p = f.significand_bits
    e_max = 2 ** (f.exponent_bits - 1) - 1
    if p <= 12:
        m = np.arange(2.0 ** (p - 1), 2.0 ** p)
    else:
        m = np.concatenate([rng.integers(2 ** (p - 1), 2 ** p, 62).astype(np.float64),
                            [2.0 ** (p - 1), 2.0 ** p - 1]])
    exps = np.arange(1 - e_max - 2, e_max + 3)
    ties = [np.ldexp(m + 0.5, e - p + 1) for e in exps]
    if f.supports_subnormals:
        ties.append((m - 2.0 ** (p - 1) + 0.5) * f.x_s_min)
    ties = np.concatenate(ties)
    ties = ties[np.isfinite(ties)]
    special = np.array([f.x_min / 2, f.over_at, 1.79e308])
    xs = np.concatenate([ties, special, rng.uniform(0.0, f.x_min, 200)])
    xs = np.concatenate([xs, np.nextafter(xs, 0.0), np.nextafter(xs, np.inf), [0.0]])
    return np.concatenate([xs, -xs])


@st.composite
def formats_and_doubles(draw):
    """Any format FpFormat accepts besides fp64, with doubles of any
    magnitude, NaN, ±inf and ±0, and values m * 2^k of p + 2 bits (ties
    among them) or their neighbours, from below x_s_min to past over_at."""
    p, e = draw(st.integers(2, 51)), draw(st.integers(2, 10))
    f = FpFormat(f"p{p}-e{e}", p, e, supports_subnormals=draw(st.booleans()))
    e_max = 2 ** (e - 1) - 1
    near = st.builds(lambda m, k, to: math.nextafter(math.ldexp(m, k), to),
                     st.integers(-2 ** (p + 1), 2 ** (p + 1)),
                     st.integers(-e_max - p - 2, e_max - p + 2),
                     st.sampled_from([0.0, -math.inf, math.inf]))
    return f, draw(st.lists(st.floats() | near, min_size=1, max_size=32))


class TestIndependentOracle:
    """quantize and _round_scalar against round_to, which is built on a
    frozen copy of the frexp rounding icir.precision once had and does not
    move with it."""

    @pytest.mark.parametrize("f", [FP16, BF16, FP32, FpFormat("e4m3-ish", 4, 4)],
                             ids=lambda f: f.name)
    def test_every_path_matches_round_to(self, f):
        xs = _rounding_corpus(f, np.random.default_rng(48))
        # value bits, NaN where the flag is up; the scalar path's beside them
        ref, scalar = np.full(len(xs), math.nan), np.full(len(xs), math.nan)
        ref_over, scalar_over, raises = (np.zeros(len(xs), dtype=bool) for _ in range(3))
        for i, x in enumerate(xs.tolist()):
            try:
                out = round_to(x, f)
            except OverflowError:   # math.ldexp past 2^1024, far past over_at
                raises[i] = True
                assert _round_scalar(x, f) == (math.copysign(f.over_at, x), True)
                continue
            ref_over[i] = out.overflow
            if not out.overflow:
                ref[i] = out.value
            y, scalar_over[i] = _round_scalar(x, f)
            if not scalar_over[i]:
                scalar[i] = y
        assert not np.any(raises & (np.abs(xs) <= f.over_at))
        assert np.array_equal(scalar_over, ref_over)
        assert np.array_equal(scalar.view(np.int64), ref.view(np.int64))
        ax = np.abs(xs)
        # quantize's split of min(|x|, x_max) with the grid or flush on
        # overflows, zeros and underflows, the cast and the split
        for keep in (ax >= 0.0, ax < f.over_at, (ax > 0.0) & (ax < f.over_at),
                     (ax >= f.x_min) & (ax < f.over_at)):
            y, over = quantize(xs[keep], f)
            assert np.array_equal(over, ref_over[keep] | raises[keep])
            ok = ~over
            assert np.array_equal(y[ok].view(np.int64), ref[keep][ok].view(np.int64))

    @settings(max_examples=300, deadline=None)
    @given(formats_and_doubles())
    def test_every_accepted_format_matches_round_to(self, case):
        # an overflow, NaN and ±inf among them, is ±over_at, flagged
        f, xs = case
        want, want_over = [], []
        for x in xs:
            try:
                out = round_to(x, f)
            except (ValueError, OverflowError):   # not finite; math.ldexp past 2^1024
                out = None
            want_over.append(out is None or out.overflow)
            want.append(math.copysign(f.over_at, x) if want_over[-1] else out.value)
        scalar, scalar_over = zip(*(_round_scalar(x, f) for x in xs))
        xs, want, want_over = np.array(xs), np.array(want), np.array(want_over)
        assert list(scalar_over) == want_over.tolist()
        assert np.array_equal(np.array(scalar).view(np.int64), want.view(np.int64))
        ax = np.abs(xs)
        # quantize's split of min(|x|, x_max) with the grid or flush and
        # over_at, and its split alone
        inside = (ax < f.over_at) & ((ax >= f.x_min) | (ax == 0.0))
        for keep in (np.ones(len(xs), dtype=bool), inside):
            y, over = quantize(xs[keep], f)
            assert np.array_equal(over, want_over[keep])
            assert np.array_equal(y.view(np.int64), want[keep].view(np.int64))


@settings(max_examples=300, deadline=None)
@given(formats_and_doubles())
def test_round_unchecked_given_ax_is_quantize_below_over_at(case):
    # every accepted format, with ±0, values across the subnormal range (or
    # the flushed range) and both signs of the tie x_min/2 and its neighbours
    f, xs = case
    tie = f.x_min / 2
    edge = [0.0, -0.0, tie, -tie, math.nextafter(tie, 0.0), math.nextafter(tie, 1.0),
            f.x_min / 3, -f.x_min * 0.75, math.nextafter(f.x_min, 0.0)]
    if f.supports_subnormals:
        edge += [f.x_s_min, -f.x_s_min / 2, 1.5 * f.x_s_min, -2.5 * f.x_s_min]
    x = np.array(xs + edge)
    x = x[np.abs(x) < f.over_at]
    for x in (x, x[np.abs(x) >= f.x_min]):
        y = _round_unchecked(x, f, np.abs(x))
        assert np.array_equal(y.view(np.int64), quantize(x, f)[0].view(np.int64))


class TestSubnormalGrid:
    """_round_unchecked in a cast format given |x| with a value below x_min:
    the split from x_min up and the subnormal grid below, bit for bit and
    sign for sign the cast's and the frozen ruler's."""

    @pytest.mark.parametrize("f", [FP16, FP32], ids=lambda f: f.name)
    def test_matches_cast_and_round_to(self, f):
        rng = np.random.default_rng(49)
        xs = _rounding_corpus(f, rng)
        edge = [f.x_min, np.nextafter(f.x_min, 0.0), np.nextafter(f.x_min, 1.0)]
        normals = np.exp2(rng.uniform(math.log2(f.x_min), math.log2(f.x_max), 20000))
        xs = np.concatenate([xs, edge, normals, -normals])
        xs = rng.permutation(xs[np.abs(xs) < f.over_at])   # the unchecked domain
        for x in (xs, xs[:1000], np.array([-0.0, 0.0, f.x_min / 2, 1.0])):
            ax = np.abs(x)
            assert ax.min() < f.x_min and ax.max() >= f.x_min
            y = _round_unchecked(x, f, ax)
            assert np.array_equal(y.view(np.int64), x.astype(f.cast).astype(np.float64).view(np.int64))
            ruler = np.array([round_to(v, f).value for v in x.tolist()])
            assert np.array_equal(y.view(np.int64), ruler.view(np.int64))


class TestTopOfFp64:
    """quantize past over_at, up to the largest doubles: a finite magnitude
    above x_max, flagged as overflow, and no warning (the suite turns
    RuntimeWarning into an error)."""

    E4M3 = FpFormat("e4m3-ish", 4, 4)

    @pytest.mark.parametrize("f", [FP16, BF16, FP32, E4M3], ids=lambda f: f.name)
    def test_largest_doubles_overflow_finite(self, f):
        xs = np.array([1.79e308, -1.79e308, np.finfo(np.float64).max, f.over_at])
        y, over = quantize(xs, f)
        assert over.all() and np.all(np.isfinite(y)) and np.all(np.abs(y) > f.x_max)
        assert np.array_equal(np.signbit(y), np.signbit(xs))
        for x in xs.tolist():
            v, flag = _round_scalar(x, f)
            assert flag and math.isfinite(v) and abs(v) > f.x_max

    def test_scalar_past_ldexp_range(self):
        # the significand rounds up to 2^1024, where a rounding by
        # math.ldexp would raise
        assert _round_scalar(1.79e308, self.E4M3) == (self.E4M3.over_at, True)
        assert _round_scalar(-1.79e308, self.E4M3) == (-self.E4M3.over_at, True)

    @pytest.mark.parametrize("f", [FP16, FP32, E4M3], ids=lambda f: f.name)
    def test_subnormals_beside_the_largest_doubles(self, f):
        # the subnormal grid, which only the small entries may meet
        xs = np.array([f.x_s_min * 1.5, -f.x_s_min * 0.25, 1e305, 1.0])
        y, over = quantize(xs, f)
        assert over.tolist() == [False, False, True, False]
        for x, v in zip(xs[~over].tolist(), y[~over].tolist()):
            assert np.float64(v).view(np.int64) == np.float64(round_to(x, f).value).view(np.int64)

    @pytest.mark.parametrize("f", [FP16, BF16, FP32, E4M3], ids=lambda f: f.name)
    def test_non_finite_flagged(self, f):
        # NaN and ±inf come back as ±over_at, flagged, from both paths, with
        # no exception and no warning of any kind
        xs = [math.nan, -math.nan, math.inf, -math.inf]
        want = [math.copysign(f.over_at, x) for x in xs]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            y, over = quantize(np.array(xs + [1.0]), f)
            assert over.tolist() == [True] * 4 + [False]
            assert y.tolist() == want + [1.0]
            assert [_round_scalar(x, f) for x in xs] == [(v, True) for v in want]

    def test_fp16_small_and_large(self):
        y, over = quantize([1e-9, 1e305], FP16)
        assert over.tolist() == [False, True]
        assert y[0] == 0.0 and y[1] == FP16.over_at
        # a scalar takes the same path
        assert [tuple(quantize(x, FP16)) for x in (1e-9, -1e305)] == [(0.0, False),
                                                                      (-FP16.over_at, True)]


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


BOUND_FORMATS = [FP16, BF16, FP32, FP64, FpFormat("e4m3-ish", 4, 4)]
BOUND_CASES = ["under", "at", "just-over", "non-finite"]


def _check_against_scalar(a, b, c, f):
    """safe_update_many against oracles.safe_update element by element, value
    and None/mask, a NaN a's NaN included."""
    v, unsafe = safe_update_many(a, b, c, f)
    for i in range(len(a)):
        where = (f.name, i, a[i], b[i], c[i])
        s = safe_update(a[i], b[i], c[i], f)
        assert bool(unsafe[i]) == (s is None), where
        if s is not None:
            assert v[i] == s or math.isnan(v[i]) and math.isnan(s), where


def _bound_case(f, case, size=400):
    """(a, b, c) in f for a bound case: random values of every magnitude from
    the smallest positive one with |a| <= x_max/8 and |b*c| <= x_max/8,
    zeros of both signs among them, and in the first pair the case's edge."""
    rng = np.random.default_rng(22)
    tiny = math.log2(f.x_s_min if f.supports_subnormals else f.x_min)

    def draw(top):
        x = np.exp2(rng.uniform(tiny, math.log2(top), size)) * rng.choice([-1.0, 1.0], size)
        x[rng.integers(0, size, 8)] = 0.0
        x[rng.integers(0, size, 8)] = -0.0
        return quantize(x, f)[0]

    quarter = f.x_max / 4   # representable, as is x_max / 2
    root = math.sqrt(f.x_max / 8)
    a, b, c = draw(f.x_max / 8), draw(root), draw(root)
    if case == "at":   # max|a| + max|w| == x_max / 2; a - w = -x_max / 2
        a[0], b[0], c[0] = -quarter, quarter, 1.0
    elif case == "just-over":   # a - w is one ulp of x_max/4 past x_max / 2
        ulp = math.ldexp(1.0, math.frexp(quarter)[1] - f.significand_bits)
        a[0], b[0], c[0] = quarter + ulp, quarter, -1.0
        a[1], b[1], c[1] = f.x_max, 1.0, -f.x_min   # unsafe, though it rounds to x_max
    elif case == "non-finite":
        a[0:6] = [math.nan, math.nan, math.inf, math.inf, -math.inf, -math.inf]
        c[0:6] = [1.0, -1.0] * 3   # w of both signs for each
        b[0:6] = 0.5
    return a, b, c


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
        """fp16 draws within ±300, then in every format arrays with max|a| +
        max|b*c| under, at and just over x_max/2, and with NaN or inf in a,
        which the bound sends to the pairwise guards."""
        rng = np.random.default_rng(8)
        t = np.float16(rng.uniform(-300, 300, (500, 3))).astype(np.float64)
        _check_against_scalar(t[:, 0], t[:, 1], t[:, 2], FP16)
        for f in BOUND_FORMATS:
            for case in BOUND_CASES:
                _check_against_scalar(*_bound_case(f, case), f)

    @pytest.mark.parametrize("f", [FP16, FP32], ids=lambda f: f.name)
    def test_cast_formats_round_under_the_bound_without_quantize(self, f):
        """The bound's path for a cast format calls quantize on neither
        rounding; a call that fails the bound calls it on both."""
        for case, calls in zip(BOUND_CASES, [0, 0, 2, 2]):
            a, b, c = _bound_case(f, case)
            with mock.patch.object(precision, "quantize", wraps=precision.quantize) as q:
                safe_update_many(a, b, c, f)
            assert q.call_count == calls, case

    def test_fp16_products_below_x_min_take_the_grid(self):
        """Under the bound, an fp16 call whose products b*c hold a subnormal
        rounds them by the split and the subnormal grid (np.where picks
        between the two), and one whose products hold none by the cast."""
        a = np.array([1.0, -2.0, 2.0 ** -14, 0.0])
        b = np.array([0.5, -0.25, 2.0 ** -8, 3.0])
        for c, grid in ((2.0 ** -10, True), (2.0 ** -4, False)):
            with mock.patch.object(np, "where", wraps=np.where) as where:
                v, unsafe = safe_update_many(a, b, c, FP16)
            assert where.call_count == int(grid) and not unsafe.any()
            assert (np.abs(b * c) < FP16.x_min).any() == grid
            assert v.tolist() == [safe_update(*abc, FP16) for abc in zip(a, b, [c] * 4)]


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
