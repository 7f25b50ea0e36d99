"""Simulation of reduced-precision IEEE-style binary floating point on fp64 carriers.

Every simulated value is stored in a native double whose value is exactly
representable in the target format.  An arithmetic operation is evaluated
exactly (or correctly rounded) in fp64 and the result is then rounded once
into the target format with round-to-nearest, ties-to-even.

Why a single final rounding is exact simulation: for +, -, *, / and sqrt the
fp64 evaluation of format-f operands is itself correctly rounded to 53 bits.
If the target significand has p bits with 2p + 2 <= 53, rounding that 53-bit
result to p bits gives the same answer as rounding the exact result directly
(the classical double-rounding bound; see Figueroa, "When is double rounding
innocuous?").  This holds for fp16 (p=11), bfloat16 (p=8) and fp32 (p=24).
For +, -, * the fp64 result of fp16/bf16/fp32 operands is actually exact,
which is stronger still.

Overflow is reported through a flag or mask, never by producing an infinity:
carriers must stay finite.  No fused multiply-add anywhere; every multiply and subtract
rounds separately.

_round_unchecked rounds with no range test: fp16 and fp32 by NumPy's cast
to float16 / float32 (nearest-even, subnormals included), exact for |x| <
over_at; every other format but fp64 by Veltkamp's split (Dekker 1971), c =
x * (2^(53-p) + 1), y = c - (c - x), which without fp64 overflow or
underflow is x rounded to p bits, nearest-even (Boldo 2006 for the ties):
exact for ±0 and x_min <= |x| < over_at if p <= 51 with at most 10 exponent
bits, which FpFormat asks of every format but fp64.  NumPy's cast rounds a
subnormal result in software, some 30 times slower than a normal one, and
the split rounds no value below x_min, so a caller may pass ax = |x|: an x
with some ax below x_min is then rounded from x_min up by the split, and
below x_min on the subnormal grid, as (ax + C) - C with C = FpFormat.grid =
1.5 * 2^52 * x_s_min (Higham & Pranesh 2019), or without subnormals to 0 or
x_min, the tie x_min/2 to 0 (even), np.copysign restoring the sign, -0.0
included.  The grid is exact for p <= 52: ax < x_min = 2^(p-1) * x_s_min
puts ax + C in [2^52, 2^53) * x_s_min, where the spacing is x_s_min, so the
sum rounds ax once to a multiple of x_s_min, ties to even since C / x_s_min
is even, and subtracting C is exact (Sterbenz).  _rounds_exactly is the
domain of the cast or split; quantize rounds an array inside it so, fp64 by
a copy, and any other as x with |x| clipped to x_max, given that ax, and
±over_at in its overflowed slots, inf and NaN among them.  _round_scalar
rounds one double as quantize does: a zero as it is, any other value by
quantize.  TestBitwiseOracle in tests/test_precision.py pins the paths to
each other, TestIndependentOracle to the frozen frexp rounding of
tests/oracles.py, TestSubnormalGrid the split-and-grid branch to both.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "FpFormat",
    "get_format",
    "quantize",
    "safe_scale_check",
    "safe_update_many",
]


@dataclass(frozen=True)
class FpFormat:
    """A binary floating-point format described by its bit widths.

    significand_bits counts the implicit leading bit, so fp64 has 53.
    Derived constants follow the IEEE bias convention e_max =
    2^(exponent_bits-1) - 1, e_min = 1 - e_max (locals, not fields), and are
    computed once, since the factor and the solves read them once per column.
    """

    name: str
    significand_bits: int
    exponent_bits: int
    supports_subnormals: bool = True
    u: float = field(init=False, repr=False, compare=False)
    x_min: float = field(init=False, repr=False, compare=False)
    x_s_min: float | None = field(init=False, repr=False, compare=False)
    x_max: float = field(init=False, repr=False, compare=False)
    is_double: bool = field(init=False, repr=False, compare=False)
    half_width: bool = field(init=False, repr=False, compare=False)
    cast: type | None = field(init=False, repr=False, compare=False)
    over_at: float = field(init=False, repr=False, compare=False)
    split: float | None = field(init=False, repr=False, compare=False)
    grid: float | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        p, bits = self.significand_bits, self.exponent_bits
        if p < 2 or bits < 2:
            raise ValueError("format needs at least 2 significand and 2 exponent bits")
        is_double = (p, bits) == (53, 11)
        if not is_double and (p > 51 or bits > 10):   # no split; see the module docstring
            raise ValueError("format must be fp64 or have at most 51 significand and "
                             "10 exponent bits")
        e_max = 2 ** (bits - 1) - 1
        e_min = 1 - e_max
        u = 2.0 ** -p  # unit roundoff = 2^-p for round-to-nearest
        cast = {(11, 5, True): np.float16, (24, 8, True): np.float32}.get(
            (p, bits, self.supports_subnormals))
        # frozen: the derived fields go straight into the instance dict
        self.__dict__.update(
            u=u,
            x_min=2.0 ** e_min,
            x_s_min=2.0 ** (e_min - (p - 1)) if self.supports_subnormals else None,
            x_max=(2.0 - 2.0 ** (1 - p)) * 2.0 ** e_max,
            # wide enough that quantization of a double is the identity
            is_double=is_double,
            # fp16 / bf16: native LU-IR solves and the larger pivot threshold
            half_width=u >= 1e-4,
            # IEEE binary16 and binary32, which NumPy's cast rounds into
            cast=cast,
            # x_max plus half an ulp: magnitudes from here on round past x_max
            over_at=(2.0 - 2.0 ** -p) * 2.0 ** e_max,
            # Veltkamp's constant 2^(53-p) + 1, for every format but fp64; see
            # the module docstring
            split=None if is_double else 2.0 ** (53 - p) + 1,
            # the subnormal grid constant 1.5 * 2^52 * x_s_min; see the module docstring
            grid=1.5 * 2.0 ** (53 + e_min - p) if self.supports_subnormals else None,
        )


_FORMATS = {
    "fp16": FpFormat("fp16", 11, 5, supports_subnormals=True),
    "bf16": FpFormat("bf16", 8, 8, supports_subnormals=False),
    "fp32": FpFormat("fp32", 24, 8, supports_subnormals=True),
    "fp64": FpFormat("fp64", 53, 11, supports_subnormals=True),
}
_FORMATS["bfloat16"] = _FORMATS["bf16"]
_FORMATS["half"] = _FORMATS["fp16"]
_FORMATS["single"] = _FORMATS["fp32"]
_FORMATS["double"] = _FORMATS["fp64"]


def get_format(name: str) -> FpFormat:
    try:
        return _FORMATS[name.lower()]
    except KeyError:
        raise ValueError(f"unknown format {name!r}; expected one of fp16, bf16, fp32, fp64")


def _round_scalar(x: float, f: FpFormat):
    """Round one double into format f as quantize does: (value, overflow),
    value exactly representable in f or ±over_at."""
    if x == 0.0:
        return x, False  # preserves signed zero
    y, over = quantize(x, f)
    return float(y), bool(over)


def _round_unchecked(x: np.ndarray, f: FpFormat, ax: np.ndarray | None = None) -> np.ndarray:
    """x rounded into f's cast or split with no range test (see the module
    docstring); f is not fp64.  Given ax = |x| with a value below x_min, x
    goes to the split, and those values to the subnormal grid, or without
    subnormals to 0 or x_min (the tie x_min/2 to 0, even)."""
    small = ax is not None and ax.min(initial=f.x_min) < f.x_min
    if f.cast is not None and not small:
        return x.astype(f.cast).astype(np.float64)
    c = x * f.split
    y = c - (c - x)
    if not small:
        return y
    t = ((ax + f.grid) - f.grid if f.supports_subnormals
         else np.where(ax > 0.5 * f.x_min, f.x_min, 0.0))
    return np.where(ax < f.x_min, np.copysign(t, x), y)


def _rounds_exactly(ax: np.ndarray, f: FpFormat) -> bool:
    """True iff f has a cast and every |x| in ax is below over_at, or no
    cast and every |x| is 0 or in [x_min, over_at).  NaN fails, an empty ax passes."""
    if f.cast is None and ax.min(initial=f.x_min) < f.x_min and ax[ax < f.x_min].any():
        return False
    return np.count_nonzero(ax < f.over_at) == ax.size


def quantize(x: np.ndarray, f: FpFormat):
    """Vectorized rounding of an array of doubles into f.

    Returns (y, overflow_mask).  Overflowed slots, inf and NaN among them,
    hold ±over_at, finite and too large; callers must honor the mask before
    using them.  fp64 is copied, with nothing flagged.
    """
    x = np.asarray(x, dtype=np.float64)
    if f.is_double:
        return x.copy(), np.zeros(x.shape, dtype=bool)
    ax = np.abs(x)
    if _rounds_exactly(ax, f):
        return _round_unchecked(x, f), np.zeros(x.shape, dtype=bool)
    # fmin: no inf for the split, and no NaN to hide a small value from its test
    m = np.fmin(ax, f.x_max)
    over = ~(ax < f.over_at)
    y = _round_unchecked(np.copysign(m, x), f, m)
    return np.where(over, np.copysign(f.over_at, x), y), over


def safe_scale_check(d, a, f: FpFormat):
    """True iff dividing any column entry of magnitude <= a by the pivot d cannot overflow.

    Safe when d >= 1 (quotients only shrink) or d >= a / x_max, tested as
    min(d, 1) * x_max >= a, which cannot overflow fp64.  Both operands are
    representable in f, so up to fp32 the product is exact in fp64 and the
    test is the exact predicate.  d and a may be aligned arrays, tested
    elementwise.
    """
    return np.minimum(d, 1.0) * f.x_max >= a


@np.errstate(over="ignore")
def safe_update_many(a: np.ndarray, b: np.ndarray, c, f: FpFormat):
    """Guarded updates v = a - b*c in format f over aligned arrays (c may be scalar).

    Returns (v, unsafe_mask); entries of v under the mask are invalid.  The
    guards test the fp64 product w = b*c, exact up to fp32, for the reason
    the B3 discussion in factor.py gives; tests/oracles.py holds the
    reference.  Only in fp64 can b*c or a - b*c overflow; the inf is silent,
    and the guards reject it.

    One bound first decides the whole call: max|a| + max|w| <= x_max / 2,
    which NaN, inf and the over_at a failed attempt leaves fail.  Under it
    no pair trips a guard, and neither rounding overflows: |w| <= x_max/2
    and |a - round(w)| <= x_max, since x_max/2 is representable and
    rounding is monotone.  So the call returns round(a - round(w)) with
    nothing flagged, fp64 a - w, any other format rounding by
    _round_unchecked, whose domain that is, given |w| and, without a cast,
    |a - round(w)|; any other call runs the guards pair by pair.
    TestSafeUpdate pins both paths to the scalar guard of tests/oracles.py.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    w = b * c
    aw = np.abs(w)
    if np.abs(a).max(initial=0.0) + aw.max(initial=0.0) <= 0.5 * f.x_max:
        if f.is_double:
            v = a - w
        else:
            v = a - _round_unchecked(w, f, aw)
            v = _round_unchecked(v, f, None if f.cast else np.abs(v))
        return v, np.zeros(v.shape, dtype=bool)
    xmax = f.x_max
    ab = np.abs(b)
    ac = np.abs(c)
    unsafe = ~((ab <= 1.0) | (ac <= 1.0) | (ab * ac <= xmax))
    neg_a = a < 0.0
    bad_pos = ~neg_a & ~((w >= 0.0) | (xmax - a >= -w))
    bad_neg = neg_a & ~((w < 0.0) | (xmax + a >= w))
    unsafe |= bad_pos | bad_neg
    wr, over_w = quantize(w, f)
    v, over_v = quantize(a - wr, f)
    unsafe |= over_w | over_v
    return v, unsafe
