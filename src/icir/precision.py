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

_round_scalar, the scalar twin of quantize, stays for the native_low solves'
single values, where a one-element quantize costs about eight times as
much.  TestBitwiseOracle.test_scalar_vector_paths_match
in tests/test_precision.py pins the two bit for bit.

For fp16 and fp32, quantize casts to float16 / float32, which rounds a
double once to nearest-even, subnormals included, at about half the cost of
the frexp path on short arrays.  An array with a value that would overflow
takes the frexp path, so overflowed slots keep their finite rounded
magnitude.  test_02 in tests/test_acceptance.py and
TestBitwiseOracle.test_cast_and_frexp_paths_match pin the paths to each other.
"""

from __future__ import annotations

import math
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
    Derived constants follow the IEEE bias convention:
    e_max = 2^(exponent_bits-1) - 1, e_min = 1 - e_max.  They are computed
    once here, since the factor and the solves read them once per column.
    """

    name: str
    significand_bits: int
    exponent_bits: int
    supports_subnormals: bool = True
    e_max: int = field(init=False, repr=False, compare=False)
    e_min: int = field(init=False, repr=False, compare=False)
    u: float = field(init=False, repr=False, compare=False)
    x_min: float = field(init=False, repr=False, compare=False)
    x_s_min: float | None = field(init=False, repr=False, compare=False)
    x_max: float = field(init=False, repr=False, compare=False)
    is_double: bool = field(init=False, repr=False, compare=False)
    half_width: bool = field(init=False, repr=False, compare=False)
    cast: type | None = field(init=False, repr=False, compare=False)
    over_at: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.significand_bits < 2 or self.exponent_bits < 2:
            raise ValueError("format needs at least 2 significand and 2 exponent bits")
        if self.significand_bits > 53 or self.exponent_bits > 11:
            raise ValueError("format must be no wider than fp64")
        p = self.significand_bits
        e_max = 2 ** (self.exponent_bits - 1) - 1
        e_min = 1 - e_max
        u = math.ldexp(1.0, -p)  # unit roundoff = 2^-p for round-to-nearest
        # frozen: the derived fields go straight into the instance dict
        self.__dict__.update(
            e_max=e_max,
            e_min=e_min,
            u=u,
            x_min=math.ldexp(1.0, e_min),
            x_s_min=math.ldexp(1.0, e_min - (p - 1)) if self.supports_subnormals else None,
            x_max=(2.0 - math.ldexp(1.0, 1 - p)) * math.ldexp(1.0, e_max),
            # wide enough that quantization of a double is the identity
            is_double=p == 53 and self.exponent_bits == 11,
            # fp16 / bf16: native LU-IR solves and the larger pivot threshold
            half_width=u >= 1e-4,
            # IEEE binary16 and binary32, which NumPy's cast rounds into
            cast={(11, 5, True): np.float16, (24, 8, True): np.float32}.get(
                (p, self.exponent_bits, self.supports_subnormals)),
            # x_max plus half an ulp: magnitudes from here on round past x_max
            over_at=(2.0 - math.ldexp(1.0, -p)) * math.ldexp(1.0, e_max),
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
    """Round one finite double into format f.

    Returns (value, overflow) where value is a double exactly representable
    in f.  Mirrors quantize()'s frexp path operation-for-operation so scalar
    and vector paths are bit-identical.
    """
    if x == 0.0:
        return x, False  # preserves signed zero
    ax = abs(x)
    p = f.significand_bits
    if ax >= f.x_min:
        m, e = math.frexp(ax)  # ax = m * 2^e, m in [0.5, 1)
        q = round(math.ldexp(m, p))  # banker's rounding on an exact scale
        y = math.ldexp(float(q), e - p)
    elif f.supports_subnormals:
        q = round(ax / f.x_s_min)  # division by a power of two is exact
        y = q * f.x_s_min
    else:
        # no subnormals: nearest of {0, x_min}; the tie x_min/2 goes to 0 (even)
        y = f.x_min if ax > 0.5 * f.x_min else 0.0
    if y > f.x_max:
        return math.copysign(y, x), True
    return math.copysign(y, x), False


def quantize(x: np.ndarray, f: FpFormat):
    """Vectorized rounding of an array of finite doubles into f.

    Returns (y, overflow_mask).  Overflowed slots keep their (finite, too
    large) rounded magnitude; callers must honor the mask before using them.
    """
    x = np.asarray(x, dtype=np.float64)
    if f.is_double:
        return x.copy(), np.zeros(x.shape, dtype=bool)
    if f.cast is not None:
        over = np.abs(x) >= f.over_at
        if not over.any():
            return x.astype(f.cast).astype(np.float64), over
    p = f.significand_bits
    ax = np.abs(x)
    m, e = np.frexp(ax)
    q = np.rint(np.ldexp(m, p))  # ties to even
    y = np.ldexp(q, e - p)
    small = ax < f.x_min
    if small.any():
        if f.supports_subnormals:
            ysub = np.rint(ax / f.x_s_min) * f.x_s_min
        else:
            ysub = np.where(ax > 0.5 * f.x_min, f.x_min, 0.0)
        y = np.where(small, ysub, y)
    over = y > f.x_max
    return np.copysign(y, x), over


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
    guards test the fp64 product b*c, exact up to fp32, for the reason the
    B3 discussion in factor.py gives; tests/oracles.py holds the reference.
    Only in fp64 can b*c or a - b*c overflow; the inf is silent, and the
    guards reject it.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    xmax = f.x_max
    ab = np.abs(b)
    ac = np.abs(c)
    unsafe = ~((ab <= 1.0) | (ac <= 1.0) | (ab * ac <= xmax))
    w = b * c
    neg_a = a < 0.0
    bad_pos = ~neg_a & ~((w >= 0.0) | (xmax - a >= -w))
    bad_neg = neg_a & ~((w < 0.0) | (xmax + a >= w))
    unsafe |= bad_pos | bad_neg
    wr, over_w = quantize(w, f)
    v, over_v = quantize(a - wr, f)
    unsafe |= over_w | over_v
    return v, unsafe
