from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import icir.precision as precision
import icir.trisolve as trisolve
import oracles
from conftest import ic_attempt_on
from icir.factor import FactorStats, IcFactor, shifted_ic
from icir.gallery import poisson2d, random_spd, wathen
from icir.precision import FpFormat, _round_scalar, get_format, quantize
from icir.sparse import l2_scale, matvec_f64
from icir.symbolic import FillPattern, _column_levels, ic_pattern
from icir.trisolve import (CAST_F64, NATIVE_LOW, OverflowSignal,
                           apply_preconditioner, backward_solve, forward_solve)
from test_factor import full_pattern

FP16 = get_format("fp16")
FP64 = get_format("fp64")


def make_factor(Ldense, f=FP64):
    """IcFactor directly from a dense lower-triangular array."""
    n = Ldense.shape[0]
    cols = []
    rows = []
    vals = []
    for j in range(n):
        nz = np.nonzero(Ldense[:, j])[0]
        nz = nz[nz >= j]
        assert nz[0] == j
        rows.append(nz)
        vals.append(Ldense[nz, j])
        cols.append(len(nz))
    cp = np.zeros(n + 1, dtype=np.int64)
    cp[1:] = np.cumsum(cols)
    pat = FillPattern(n, cp, np.concatenate(rows))
    return IcFactor(pat, np.concatenate(vals), f, 0.0, FactorStats(0, 0, 0))


class TestForwardBackward:
    def test_identity(self):
        L = make_factor(np.eye(4), FP16)
        w = np.array([1.0, -2.0, 3.0, 0.5])
        for mode in (CAST_F64, NATIVE_LOW):
            assert np.array_equal(forward_solve(L, w, mode), w)
            assert np.array_equal(backward_solve(L, w, mode), w)

    def test_2x2_hand(self):
        L = make_factor(np.array([[2.0, 0.0], [1.0, 1.0]]))
        w = np.array([2.0, 2.0])
        assert np.array_equal(forward_solve(L, w), [1.0, 1.0])
        assert np.array_equal(backward_solve(L, w), [0.0, 2.0])

    def test_roundtrip_matches_dense_solve(self):
        n = 30
        A = random_spd(n, seed=5)
        vals = ic_attempt_on(A, full_pattern(n), 1e-20, FP64)
        L = IcFactor(full_pattern(n), vals, FP64, 0.0, FactorStats(0, 0, 0))
        rng = np.random.default_rng(0)
        w = rng.standard_normal(n)
        from conftest import to_dense
        x_ref = np.linalg.solve(to_dense(A), w)
        x = backward_solve(L, forward_solve(L, w))
        assert np.allclose(x, x_ref, rtol=1e-10)

    def test_dimension_mismatch(self):
        L = make_factor(np.eye(3))
        with pytest.raises(ValueError):
            forward_solve(L, np.ones(4))

    def test_bad_mode(self):
        L = make_factor(np.eye(3))
        with pytest.raises(ValueError):
            forward_solve(L, np.ones(3), "fp16")

    def test_native_overflow_forward(self):
        # y1 = 60000, l21 = 2 -> product 120000 > x_max
        L = make_factor(np.array([[1.0, 0.0], [2.0, 1.0]]), FP16)
        with pytest.raises(OverflowSignal):
            forward_solve(L, np.array([60000.0, 60000.0]), NATIVE_LOW)
        # y1 = 30000, l21 = -2 -> 60000 - (-60000) = 120000 > x_max
        L = make_factor(np.array([[1.0, 0.0], [-2.0, 1.0]]), FP16)
        with pytest.raises(OverflowSignal):
            forward_solve(L, np.array([30000.0, 60000.0]), NATIVE_LOW)

    def test_native_overflow_division(self):
        L = make_factor(np.array([[2.0 ** -14, 0.0], [0.0, 1.0]]), FP16)
        for solve in (forward_solve, backward_solve):
            with pytest.raises(OverflowSignal):
                solve(L, np.array([8.0, 0.0]), NATIVE_LOW)

    def test_native_overflow_backward(self):
        L = make_factor(np.array([[1.0, 0.0], [2.0, 1.0]]), FP16)
        with pytest.raises(OverflowSignal):
            backward_solve(L, np.array([60000.0, 60000.0]), NATIVE_LOW)
        # y2 = 30000, l21 = -2 -> 60000 - (-60000) = 120000 > x_max
        L = make_factor(np.array([[1.0, 0.0], [-2.0, 1.0]]), FP16)
        with pytest.raises(OverflowSignal):
            backward_solve(L, np.array([60000.0, 30000.0]), NATIVE_LOW)

    def test_zero_diagonal(self):
        # the division by a zero pivot gives inf, which overflows
        L = make_factor(np.array([[1.0, 0.0], [2.0, 1.0]]), FP16)
        L.values[L.pattern.col_ptr[1]] = 0.0
        for solve in (forward_solve, backward_solve):
            with pytest.raises(OverflowSignal):
                solve(L, np.ones(2), NATIVE_LOW)

    def test_cast_f64_ignores_declared_format(self):
        Ld = np.array([[2.0, 0.0], [0.5, 1.5]])
        w = np.array([3.0, 1.0])
        a = forward_solve(make_factor(Ld, FP64), w, CAST_F64)
        b = forward_solve(make_factor(Ld, FP16), w, CAST_F64)
        assert np.array_equal(a, b)


@st.composite
def native_systems(draw):
    """(L, w): a fp16 or bf16 shifted_ic factor, at IC(0) or IC(3), of an
    l2-scaled random_spd (n <= 30, some indefinite), wathen(2-5, 2-5) or
    poisson2d(3-8), whose levels hold several columns; now and then with one
    or two zeroed pivots; and a representable right-hand side with zero
    entries of either sign, scaled up to near x_max."""
    f = get_format(draw(st.sampled_from(["fp16", "bf16"])))
    seed = draw(st.integers(0, 2 ** 16))
    kind = draw(st.sampled_from(["random", "wathen", "poisson"]))
    if kind == "random":
        A = random_spd(draw(st.integers(1, 30)), seed=seed, density=draw(st.floats(0.05, 1.0)),
                       dominance=draw(st.floats(0.1, 1.2)))
    elif kind == "wathen":
        A = wathen(draw(st.integers(2, 5)), draw(st.integers(2, 5)), seed=seed)
    else:
        A = poisson2d(draw(st.integers(3, 8)))
    A, _ = l2_scale(A)
    n = A.n
    L = shifted_ic(A, ic_pattern(A, draw(st.sampled_from([0, 3]))), f=f)
    rng = np.random.default_rng(seed)
    if rng.random() < 0.15:
        L.values[L.pattern.col_ptr[rng.integers(n, size=rng.integers(1, 3))]] = 0.0
    w = rng.choice([-1.0, 1.0], n) * f.x_max * 10.0 ** -rng.uniform(0.0, 2.0, n)
    zeros = rng.random(n) < 0.3
    w[zeros] = rng.choice([0.0, -0.0], int(zeros.sum()))
    event(kind)
    return L, quantize(w, f)[0]


RAW_FORMATS = [get_format("fp16"), get_format("bf16"), FpFormat("e4m3-ish", 4, 4),
               FpFormat("p3-no-subnormals", 3, 3, supports_subnormals=False)]


@st.composite
def raw_systems(draw):
    """(L, w): a random lower-triangular pattern (n <= 8) in one of
    RAW_FORMATS, its values and right-hand side drawn entry by entry near 1,
    near x_max, near x_min or anywhere in the format's range, so that
    products pass x_max or fall below x_min and into the subnormals; zeros
    of either sign, and zero pivots now and then."""
    f = draw(st.sampled_from(RAW_FORMATS))
    n = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    present = np.tril(rng.random((n, n)) < rng.uniform(0.1, 1.0), -1)
    rows = [np.concatenate([[j], np.flatnonzero(present[:, j])]) for j in range(n)]
    col_ptr = np.concatenate([[0], np.cumsum([len(r) for r in rows])])
    pattern = FillPattern(n, col_ptr, np.concatenate(rows))
    e_max = 2 ** (f.exponent_bits - 1) - 1
    lo, hi = max(1 - e_max - f.significand_bits - 2, -1074), min(e_max + 2, 1023)

    def entries(size):
        ranges = np.array([(-3, 3), (hi - 6, hi), (lo, lo + 8), (lo, hi)])
        e = ranges[rng.choice(4, size, p=[0.5, 0.15, 0.15, 0.2])]
        x = rng.uniform(1.0, 2.0, size) * np.exp2(rng.integers(e[:, 0], e[:, 1] + 1))
        x, over = quantize(rng.choice([-1.0, 1.0], size) * x, f)
        x[over] = np.copysign(f.x_max, x[over])
        zeros = rng.random(size) < 0.1
        x[zeros] = rng.choice([0.0, -0.0], int(zeros.sum()))
        return x

    values = entries(pattern.nnz)
    diag = col_ptr[:-1]
    values[diag] = np.where(rng.random(n) < 0.5, 1.0, np.abs(values[diag]))
    values[diag[rng.random(n) < 0.05]] = 0.0
    event(f.name)
    return IcFactor(pattern, values, f, 0.0, FactorStats(0, 0, 0)), entries(n)


def _inside_event(L):
    """Record whether a group of L's solves holds inside updates."""
    groups = trisolve._records(L.pattern, True)[2] + trisolve._records(L.pattern, False)[2]
    event(f"inside updates: {any(group[6] is not None for group in groups)}")


def _outcome(solve, *args):
    """solve's result as int64 views, or "raised" if it raised OverflowSignal
    or ZeroDivisionError (a zero pivot of the reference)."""
    try:
        return solve(*args).view(np.int64).tolist()
    except (OverflowSignal, ZeroDivisionError):
        return "raised"


@settings(max_examples=200, deadline=None)
@given(native_systems())
def test_native_solves_match_scalar_reference(system):
    L, w = system
    _inside_event(L)
    args = (L.pattern.col_ptr, L.pattern.row_idx, L.values, w, L.format)
    for solve, reference in ((forward_solve, oracles.native_forward_solve),
                             (backward_solve, oracles.native_backward_solve)):
        want = _outcome(reference, *args)
        event(f"{solve.__name__}: {want if want == 'raised' else 'solved'}")
        assert _outcome(solve, L, w, NATIVE_LOW) == want


@settings(max_examples=400, deadline=None)
@given(raw_systems())
def test_raw_solves_match_scalar_reference(system):
    """Every format kind native_low runs in: the cast (fp16) and the split
    alone (bf16, e4m3-ish, p3-no-subnormals)."""
    L, w = system
    _inside_event(L)
    args = (L.pattern.col_ptr, L.pattern.row_idx, L.values, w, L.format)
    for solve, reference in ((forward_solve, oracles.native_forward_solve),
                             (backward_solve, oracles.native_backward_solve)):
        with np.errstate(all="ignore"):
            got = _outcome(solve, L, w, NATIVE_LOW)
            want = _outcome(reference, *args)
        event(f"{solve.__name__}: {want if want == 'raised' else 'solved'}")
        assert got == want


def test_lowest_numbered_failure_of_a_step():
    # columns 0 and 1 form one level, 2 and 3 the next: the forward
    # multiplies by y_0 and y_1 in one step, the backward by y_2 and y_3 in
    # one level, and both products overflow; the loop fails first at the
    # product of column 0 forward, of column 1 backward, and the pass raises
    L = make_factor(np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0],
                              [2.0, 0.0, 1.0, 0.0], [0.0, 2.0, 0.0, 1.0]]), FP16)
    args = (L.pattern.col_ptr, L.pattern.row_idx, L.values)
    assert _column_levels(L.pattern)[0].tolist() == [0, 0, 1, 1]
    for solve, reference, w, column in (
            (forward_solve, oracles.native_forward_solve, [60000.0, 60000.0, 0.0, 0.0], 0),
            (backward_solve, oracles.native_backward_solve, [0.0, 0.0, 60000.0, 60000.0], 1)):
        w = np.array(w)
        with pytest.raises(OverflowSignal, match=f"^product overflow at column {column}$"):
            reference(*args, w, FP16)
        with pytest.raises(OverflowSignal):
            solve(L, w, NATIVE_LOW)


def test_underflowed_quotient_still_updates():
    # y_0 = 2^-24 / 4 rounds to +0, but y_0 was nonzero, so column 0 still
    # subtracts its product -1 * +0 = -0 from y_1 = -0, which gives +0
    L = make_factor(np.array([[4.0, 0.0], [-1.0, 1.0]]), FP16)
    w = np.array([2.0 ** -24, -0.0])
    want = _outcome(oracles.native_forward_solve, L.pattern.col_ptr, L.pattern.row_idx,
                    L.values, w, FP16)
    assert want == [0, 0]
    assert _outcome(forward_solve, L, w, NATIVE_LOW) == want


BF16 = get_format("bf16")
FP32 = get_format("fp32")
E4M3 = FpFormat("e4m3-ish", 4, 4)   # x_min 2^-6, x_s_min 2^-9, x_max 240
TINY = 2.0 ** -126                  # the bf16 x_min


@pytest.mark.parametrize("Ld, w, f, entry, want", [
    # 0.75 * 2^-126 rounds up to x_min: bf16 has no subnormals
    ([[1.0, 0.0], [0.75 * 2.0 ** -66, 1.0]], [2.0 ** -60, 0.0], BF16, None,
     [2.0 ** -60, -TINY]),
    # y_0 = x_min / 4 rounds to +0 but was nonzero, so column 0 still updates
    ([[4.0, 0.0], [-1.0, 1.0]], [TINY, -0.0], BF16, None, [0.0, 0.0]),
    ([[1.0, 0.0], [2.0, 1.0]], [60000.0, 60000.0], FP16, None, "product overflow at column 0"),
    ([[1.0, 0.0], [-2.0, 1.0]], [30000.0, 60000.0], FP16, None,
     "subtraction overflow at column 0"),
    ([[2.0 ** -14, 0.0], [0.0, 1.0]], [8.0, 0.0], FP16, None, "division overflow at column 0"),
    ([[1.0, 0.0], [2.0, 1.0]], [1.0, 1.0], FP16, (2, 0.0), "zero diagonal at column 1"),
    # y_1 = 2 - 2 = 0 skips the zeroed pivot
    ([[1.0, 0.0], [2.0, 1.0]], [1.0, 2.0], FP16, (2, 0.0), [1.0, 0.0]),
    # a stored -0.0: y_1 = -0 - (-0 * 3) = +0
    ([[1.0, 0.0], [1.0, 1.0]], [3.0, -0.0], FP16, (1, -0.0), [3.0, 0.0]),
    ([[2.0, 0.0, 0.0], [1.0, 1.0, 0.0], [1.0, 1.0, 4.0]], [0.0, -0.0, 0.0], BF16, None,
     [0.0, -0.0, 0.0]),
    ([[2.0]], [3.0], BF16, None, [1.5]),
    ([[2.0]], [-0.0], FP16, None, [-0.0]),
    ([[1.0, 0.0], [16.0, 1.0]], [16.0, 0.0], E4M3, None, "product overflow at column 0"),
    # 2^-4 * 3 * 2^-6 = 1.5 x_s_min, a tie that goes to 2 x_s_min
    ([[1.0, 0.0], [2.0 ** -4, 1.0]], [3 * 2.0 ** -6, 0.0], E4M3, None,
     [3 * 2.0 ** -6, -(2.0 ** -8)]),
    # the split leaves that product at 1.5 x_s_min, and 9 - 1.5 would round
    # to 8 x_s_min: the product is taken again, 9 - 2 = 7 x_s_min
    ([[1.0, 0.0], [2.0 ** -4, 1.0]], [3 * 2.0 ** -6, 9 * 2.0 ** -9], E4M3, None,
     [3 * 2.0 ** -6, 7 * 2.0 ** -9]),
], ids=["bf16-product-below-x_min", "bf16-quotient-below-x_min", "fp16-product",
        "fp16-subtraction", "fp16-division", "zero-pivot", "zero-pivot-skipped",
        "negative-zero-entry", "all-zero-rhs", "n1", "n1-zero", "e4m3-product",
        "e4m3-subnormal-tie", "e4m3-subnormal-product"])
def test_forward_matches_scalar_reference(Ld, w, f, entry, want):
    """The forward gives the scalar reference's bits, or raises
    OverflowSignal where the reference fails first as want says; entry is a
    (position, value) set in L."""
    _matches_reference(forward_solve, oracles.native_forward_solve, Ld, w, f, entry, want)


def _matches_reference(solve, reference, Ld, w, f, entry, want):
    L = make_factor(np.array(Ld), f)
    if entry is not None:
        L.values[entry[0]] = entry[1]
    w = np.array(w)
    args = (L.pattern.col_ptr, L.pattern.row_idx, L.values, w, f)
    if isinstance(want, str):   # the reference's first failure
        with pytest.raises((OverflowSignal, ZeroDivisionError), match=f"^{want}$"):
            reference(*args)
        with pytest.raises(OverflowSignal):
            solve(L, w, NATIVE_LOW)
        return
    got = _outcome(solve, L, w, NATIVE_LOW)
    assert got == _outcome(reference, *args)
    if want is not None:
        assert got == np.array(want).view(np.int64).tolist()


@pytest.mark.parametrize("Ld, w, f, entry, want", [
    # the batch's product 2 * 60000 is inf in fp16, and 1 - inf would
    # overflow the chain's subtraction: the product's failure is the lower
    ([[1.0, 0.0], [2.0, 1.0]], [1.0, 60000.0], FP16, None, "product overflow at column 0"),
    # the split leaves 4 * 2^127 finite, above x_max
    ([[1.0, 0.0], [4.0, 1.0]], [1.0, 2.0 ** 127], BF16, None, "product overflow at column 0"),
    # every product in range, and 60000 - (-5520) is over_at, the least
    # magnitude that rounds past x_max
    ([[1.0, 0.0], [-1.0, 1.0]], [60000.0, 5520.0], FP16, None,
     "subtraction overflow at column 0"),
    # column 0's subtraction of -2 * 30000 overflows before its chain reads
    # the product 2 * 60000, whose failure is the lower
    ([[1.0, 0.0, 0.0], [-2.0, 1.0, 0.0], [2.0, 0.0, 1.0]], [60000.0, 30000.0, 60000.0], FP16,
     None, "product overflow at column 0"),
    ([[2.0 ** -14, 0.0], [0.0, 1.0]], [8.0, 0.0], FP16, None, "division overflow at column 0"),
    ([[1.0, 0.0], [2.0, 1.0]], [1.0, 1.0], FP16, (2, 0.0), "zero diagonal at column 1"),
    # column 1, solved first, overflows its division: the zero test of
    # column 0 comes later and is not reached
    ([[1.0, 0.0], [1.0, 2.0 ** -14]], [1.0, 8.0], FP16, (0, 0.0),
     "division overflow at column 1"),
    # 0.75 * 2^-126 rounds up to x_min: bf16 has no subnormals
    ([[1.0, 0.0], [0.75 * 2.0 ** -66, 1.0]], [0.0, 2.0 ** -60], BF16, None,
     [-TINY, 2.0 ** -60]),
    # y_1 = x_min; 2^-14 + 3 * 2^-24 - 2^-14 and its half, 1.5 * 2^-24, are
    # fp16 subnormals, the second a tie that goes to 2^-23
    ([[2.0, 0.0], [1.0, 1.0]], [2.0 ** -14 + 3 * 2.0 ** -24, 2.0 ** -14], FP16, None,
     [2.0 ** -23, 2.0 ** -14]),
    # a stored -0.0: the product -0 * 3 is skipped, so y_0 = -0 / 1 = -0
    ([[1.0, 0.0], [1.0, 1.0]], [-0.0, 3.0], FP16, (1, -0.0), [-0.0, 3.0]),
    ([[2.0, 0.0, 0.0], [1.0, 1.0, 0.0], [1.0, 1.0, 4.0]], [0.0, -0.0, 0.0], BF16, None,
     [0.0, -0.0, 0.0]),
    ([[1.0, 0.0], [16.0, 1.0]], [0.0, 16.0], E4M3, None, "product overflow at column 0"),
    # 2^-4 * 3 * 2^-6 = 1.5 x_s_min, a tie that goes to 2 x_s_min
    ([[1.0, 0.0], [2.0 ** -4, 1.0]], [0.0, 3 * 2.0 ** -6], E4M3, None,
     [-(2.0 ** -8), 3 * 2.0 ** -6]),
    ([[1.0, 0.0], [2.0 ** -4, 1.0]], [9 * 2.0 ** -9, 3 * 2.0 ** -6], E4M3, None,
     [7 * 2.0 ** -9, 3 * 2.0 ** -6]),
], ids=["fp16-product-read-as-inf", "bf16-product", "fp16-subtraction",
        "fp16-product-after-a-subtraction", "fp16-division",
        "zero-pivot", "zero-pivot-after-a-failure", "bf16-product-below-x_min",
        "fp16-subnormal-chain", "negative-zero-entry", "all-zero-rhs", "e4m3-product",
        "e4m3-subnormal-tie", "e4m3-subnormal-product"])
def test_backward_matches_scalar_reference(Ld, w, f, entry, want):
    """The backward gives the scalar reference's bits, or raises
    OverflowSignal where the reference fails first as want says; entry is a
    (position, value) set in L."""
    _matches_reference(backward_solve, oracles.native_backward_solve, Ld, w, f, entry, want)


def _rounding_calls(run):
    """run's result, and its calls of quantize (from any module) and of _round_scalar."""
    with mock.patch.object(precision, "quantize", wraps=quantize) as q, \
            mock.patch.object(trisolve, "quantize", wraps=quantize) as tq, \
            mock.patch.object(trisolve, "_round_scalar", wraps=_round_scalar) as r:
        got = run()
    return got, (q.call_count + tq.call_count, r.call_count), r.call_args_list


def test_in_range_solves_round_only_in_batches_and_chains():
    # every product, subtraction and division of an in-range bf16 solve is
    # exact in its batch or by the inline split: no quantize, no _round_scalar
    A, _ = l2_scale(wathen(4, 3, seed=1))
    L = shifted_ic(A, ic_pattern(A, 0), f=BF16)
    w = quantize(np.linspace(-1.0, 1.0, L.n), BF16)[0]
    args = (L.pattern.col_ptr, L.pattern.row_idx, L.values, w, BF16)
    for solve, reference in ((forward_solve, oracles.native_forward_solve),
                             (backward_solve, oracles.native_backward_solve)):
        got, calls, _ = _rounding_calls(lambda: _outcome(solve, L, w, NATIVE_LOW))
        assert calls == (0, 0)
        assert got == _outcome(reference, *args) and isinstance(got, list)


def _subnormal_product(n):
    """An n x n identity with l_{n-1,0} = 2^-20, and w with w_0 = 2^-4, the
    rest 1: both solves form one product, 2^-20 * 2^-4 forward and 2^-20 * 1
    backward, both fp16 subnormals."""
    Ld = np.eye(n)
    Ld[-1, 0] = 2.0 ** -20
    w = np.ones(n)
    w[0] = 2.0 ** -4
    return make_factor(Ld, FP16), w


def _round_scalar_calls(L, w):
    """The _round_scalar calls of each native_low solve of L and w, once each
    gives its scalar reference's bits."""
    args = (L.pattern.col_ptr, L.pattern.row_idx, L.values, w, FP16)
    counts = []
    for solve, reference in ((forward_solve, oracles.native_forward_solve),
                             (backward_solve, oracles.native_backward_solve)):
        got, calls, _ = _rounding_calls(lambda: _outcome(solve, L, w, NATIVE_LOW))
        assert got == _outcome(reference, *args) and isinstance(got, list)
        counts.append(calls[1])
    return counts


def test_subnormal_product_is_exact_in_a_cast_batch():
    # column 0's level holds more than GROUP_COLUMNS columns, so columns 0
    # and n - 1 fall in different groups and the product is an outside
    # update, rounded in its batch by the cast, exactly: _round_scalar does
    # not take it again
    assert _round_scalar_calls(*_subnormal_product(2 + trisolve.GROUP_COLUMNS)) == [0, 0]


def test_subnormal_product_inside_a_group_is_exact_on_the_grid():
    # columns 0 and 1 form one group: the product is an inside update,
    # rounded in the chain, on the subnormal grid below x_min
    assert _round_scalar_calls(*_subnormal_product(2)) == [0, 0]


@pytest.mark.parametrize("Ld, w, f, product", [
    ([[1.0, 0.0], [2.0, 1.0]], [60000.0, 1.0], FP16, 120000.0),
    # the split leaves 4 * 2^127 finite, above x_max
    ([[1.0, 0.0], [4.0, 1.0]], [2.0 ** 127, 1.0], BF16, 2.0 ** 129),
    ([[1.0, 0.0], [16.0, 1.0]], [16.0, 1.0], E4M3, 256.0),
], ids=["fp16", "bf16", "e4m3"])
def test_overflowed_product_is_rounded_by_round_scalar(Ld, w, f, product):
    # the forward multiplies by y_0, the backward by y_1: w reversed
    L = make_factor(np.array(Ld), f)
    for solve, reference, w in ((forward_solve, oracles.native_forward_solve, w),
                                (backward_solve, oracles.native_backward_solve, w[::-1])):
        w = np.array(w)
        got, _, args = _rounding_calls(lambda: _outcome(solve, L, w, NATIVE_LOW))
        assert got == _outcome(reference, L.pattern.col_ptr, L.pattern.row_idx, L.values, w, f)
        assert got == "raised"
        assert mock.call(product, f) in args


def _same_group(L, forward, j, k):
    """Whether columns j and k fall in one group of the direction."""
    return any({j, k} <= set(group[0].tolist())
               for group in trisolve._records(L.pattern, forward)[2])


def test_overflowed_batch_product_alone_fails_the_pass():
    # columns 0 and n - 1 fall in different groups, so l_{n-1,0} = 2 is an
    # outside update, whose product with 60000 overflows in its batch; the
    # subtraction 60000 - over_at after it is in range, so only the
    # product's own flag makes the pass raise
    n = 2 + trisolve.GROUP_COLUMNS
    L, w = _overflow_case(n, [(n - 1, 0, 2.0)], [(0, 60000.0), (n - 1, 60000.0)])
    for forward, solve, reference in ((True, forward_solve, oracles.native_forward_solve),
                                      (False, backward_solve, oracles.native_backward_solve)):
        assert not _same_group(L, forward, 0, n - 1)
        with pytest.raises(OverflowSignal, match="^product overflow at column 0$"):
            reference(L.pattern.col_ptr, L.pattern.row_idx, L.values, w, FP16)
        with pytest.raises(OverflowSignal):
            solve(L, w, NATIVE_LOW)


def _overflow_case(n, entries, w):
    """A fp16 factor: the n x n identity with the given (row, column, value)
    entries, and w with the given (index, value) entries, zero elsewhere."""
    Ld = np.eye(n)
    for i, j, value in entries:
        Ld[i, j] = value
    y = np.zeros(n)
    for i, value in w:
        y[i] = value
    return make_factor(Ld, FP16), y


G = trisolve.GROUP_COLUMNS
# forward: columns 0..G form a level wider than GROUP_COLUMNS; column G + 1
# reads column 1, and column G + 2 reads column 0 (outside its group) and
# column G + 1 (inside it)
_FORWARD = [(G + 1, 1, 2.0 ** -10), (G + 2, 0, None), (G + 2, G + 1, 2.0)]
# backward: column 0 reads row 1 (inside its group) and row 2 (outside it),
# as rows 2..G + 2 form a level wider than GROUP_COLUMNS, which read row 1
_BACKWARD = [(1, 0, None), (2, 0, None)] + [(i, 1, 2.0 ** -14) for i in range(2, G + 3)]


def _fill(entries, *values):
    values = iter(values)
    return [(i, j, next(values) if v is None else v) for i, j, v in entries]


@pytest.mark.parametrize("forward, n, entries, w, inside, message", [
    # a 2 x 2 factor is one group: its one update is inside
    (True, 2, [(1, 0, 2.0)], [(0, 60000.0), (1, 1.0)], (1, 0), "product overflow at column 0"),
    (True, 2, [(1, 0, -2.0)], [(0, 30000.0), (1, 60000.0)], (1, 0),
     "subtraction overflow at column 0"),
    (False, 2, [(1, 0, 2.0)], [(0, 1.0), (1, 60000.0)], (0, 1), "product overflow at column 0"),
    (False, 2, [(1, 0, -2.0)], [(0, 60000.0), (1, 30000.0)], (0, 1),
     "subtraction overflow at column 0"),
    # the outside subtraction of source 0 (operation 2) comes before the
    # inside product of source G + 1
    (True, G + 3, _fill(_FORWARD, -1.0), [(0, 40000.0), (G + 1, 60000.0), (G + 2, 40000.0)],
     (G + 2, G + 1), "subtraction overflow at column 0"),
    (True, G + 3, _fill(_FORWARD, 1.0), [(0, 1.0), (G + 1, 60000.0), (G + 2, 1.0)],
     (G + 2, G + 1), f"product overflow at column {G + 1}"),
    # column 0's products come before its subtractions, whichever runs first:
    # an inside product with an outside subtraction, an inside subtraction
    # with an outside product
    (False, G + 3, _fill(_BACKWARD, 2.0, -1.0), [(0, 40000.0), (1, 60000.0), (2, 40000.0)],
     (0, 1), "product overflow at column 0"),
    (False, G + 3, _fill(_BACKWARD, -1.0, 2.0), [(0, 40000.0), (1, 40000.0), (2, 60000.0)],
     (0, 1), "product overflow at column 0"),
], ids=["forward-product", "forward-subtraction", "backward-product", "backward-subtraction",
        "forward-outside-first", "forward-inside", "backward-inside-product",
        "backward-outside-product"])
def test_overflow_on_an_inside_update(forward, n, entries, w, inside, message):
    L, w = _overflow_case(n, entries, w)
    assert _same_group(L, forward, *inside)
    if n > 2:   # column 0 and row 2 (backward) or column 0 and G + 2 (forward) do not
        assert not _same_group(L, forward, 0, 2 if not forward else G + 2)
    solve, reference = ((forward_solve, oracles.native_forward_solve) if forward
                        else (backward_solve, oracles.native_backward_solve))
    with pytest.raises(OverflowSignal, match=f"^{message}$"):
        reference(L.pattern.col_ptr, L.pattern.row_idx, L.values, w, FP16)
    with pytest.raises(OverflowSignal):
        solve(L, w, NATIVE_LOW)


@pytest.mark.parametrize("f", [FP32, FP64], ids=lambda f: f.name)
def test_native_low_refuses_formats_it_does_not_run_in(f):
    # fp32 and fp64 are not half-width
    L = make_factor(np.array([[2.0, 0.0], [1.0, 1.0]]), f)
    for solve in (forward_solve, backward_solve, apply_preconditioner):
        with pytest.raises(ValueError, match=f"not {f.name}$"):
            solve(L, np.ones(2), NATIVE_LOW)
        assert np.all(np.isfinite(solve(L, np.ones(2), CAST_F64)))


def test_one_level_record_serves_both_modes():
    pattern = ic_pattern(poisson2d(6), 1)
    values = np.full(pattern.nnz, -0.25)
    values[pattern.col_ptr[:-1]] = 2.0
    L = IcFactor(pattern, values, FP16, 0.0, FactorStats(0, 0, 0))
    r = np.linspace(-1.0, 1.0, L.n)
    assert pattern.schedule is None
    with mock.patch.object(trisolve, "_steps", wraps=trisolve._steps) as steps:
        v = apply_preconditioner(L, r, NATIVE_LOW)
        s = pattern.schedule
        record = s.solves[True], s.solves[False]
        assert steps.call_count == 2   # both directions, once
        for _ in range(2):
            apply_preconditioner(L, r, CAST_F64)
        assert np.array_equal(apply_preconditioner(L, r, NATIVE_LOW), v)
    assert steps.call_count == 2 and pattern.schedule is s
    assert s.solves[True] is record[0] and s.solves[False] is record[1]


def _binding_case():
    """An l2-scaled wathen(4, 3) and its IC(0) pattern, whose solve groups
    of both directions hold inside updates."""
    A, _ = l2_scale(wathen(4, 3, seed=1))
    pattern = ic_pattern(A, 0)
    for forward in (True, False):
        assert any(group[6] is not None for group in trisolve._records(pattern, forward)[2])
    return A, pattern


def _oracle_apply(L, r, mode):
    """apply_preconditioner(L, r, mode) by tests/oracles.py's column loops."""
    args = (L.pattern.col_ptr, L.pattern.row_idx, L.values)
    if mode == CAST_F64:
        return np.array(oracles.backward_solve(*args, np.array(oracles.forward_solve(*args, r))))
    nr = np.abs(r).max()
    w, _ = quantize(r / nr, L.format)
    y = oracles.native_forward_solve(*args, w, L.format)
    return oracles.native_backward_solve(*args, y, L.format) * nr


def _same_bits(got, want):
    return np.array_equal(got.view(np.int64), want.view(np.int64))


def test_shifted_ic_binds_nothing_and_a_solve_its_own_direction_and_mode():
    A, pattern = _binding_case()
    L = shifted_ic(A, pattern, f=FP16)
    assert L.bound == {} and "bound" not in repr(L)
    w = quantize(np.linspace(-1.0, 1.0, L.n), FP16)[0]
    args = (L.pattern.col_ptr, L.pattern.row_idx, L.values, w)
    assert _same_bits(forward_solve(L, w), np.array(oracles.forward_solve(*args)))
    assert set(L.bound) == {(True, CAST_F64)}
    assert _same_bits(backward_solve(L, w, NATIVE_LOW),
                      oracles.native_backward_solve(*args, FP16))
    assert set(L.bound) == {(True, CAST_F64), (False, NATIVE_LOW)}


@pytest.mark.parametrize("mode, other", [(CAST_F64, NATIVE_LOW), (NATIVE_LOW, CAST_F64)])
def test_an_apply_binds_both_directions_of_its_mode_only(mode, other):
    A, pattern = _binding_case()
    L = shifted_ic(A, pattern, f=FP16)
    r = np.linspace(-1.0, 1.0, L.n)
    got = apply_preconditioner(L, r, mode)
    assert set(L.bound) == {(True, mode), (False, mode)}
    bound = dict(L.bound)
    assert _same_bits(apply_preconditioner(L, r, mode), got)
    assert _same_bits(got, _oracle_apply(L, r, mode))
    # a second apply reads the same bound values; the other mode binds its own
    assert all(L.bound[key] is value for key, value in bound.items())
    assert _same_bits(apply_preconditioner(L, r, other), _oracle_apply(L, r, other))
    assert set(L.bound) == {(True, mode), (False, mode), (True, other), (False, other)}


def test_factors_of_one_pattern_keep_their_own_bound_values():
    # an fp16 and a bf16 factor of one pattern share its schedule and solve
    # records; applied interleaved in both modes, each gives a fresh
    # factor's bits, which are the oracle's
    A, pattern = _binding_case()
    factors = [shifted_ic(A, pattern, f=f) for f in (FP16, BF16)]
    assert not np.array_equal(factors[0].values, factors[1].values)
    rng = np.random.default_rng(5)
    for r in (rng.standard_normal(A.n) for _ in range(3)):
        for mode in (CAST_F64, NATIVE_LOW):
            for L in factors:
                got = apply_preconditioner(L, r, mode)
                fresh = shifted_ic(A, pattern, f=L.format)
                assert _same_bits(got, apply_preconditioner(fresh, r, mode))
                assert _same_bits(got, _oracle_apply(L, r, mode))
    assert factors[0].bound.keys() == factors[1].bound.keys()
    assert all(factors[0].bound[key] is not factors[1].bound[key] for key in factors[0].bound)


class TestApplyPreconditioner:
    def test_identity(self):
        L = make_factor(np.eye(5), FP16)
        r = np.arange(5.0)
        for mode in (CAST_F64, NATIVE_LOW):
            assert np.allclose(apply_preconditioner(L, r, mode), r)

    def test_zero_rhs(self):
        L = make_factor(np.eye(5), FP16)
        assert np.array_equal(apply_preconditioner(L, np.zeros(5), NATIVE_LOW),
                              np.zeros(5))

    def test_cross_mode_agreement(self):
        A = wathen(5, 4, seed=0)
        Ahat, _ = l2_scale(A)
        L = shifted_ic(Ahat, ic_pattern(Ahat, 0), f=FP16)
        rng = np.random.default_rng(1)
        r = rng.standard_normal(A.n)
        v_lo = apply_preconditioner(L, r, NATIVE_LOW)
        v_hi = apply_preconditioner(L, r, CAST_F64)
        rel = np.linalg.norm(v_lo - v_hi) / np.linalg.norm(v_hi)
        assert rel <= 10 * FP16.u * np.sqrt(A.n)

    def test_complete_factor_inverts_matvec(self):
        n = 40
        A = random_spd(n, seed=9)
        vals = ic_attempt_on(A, full_pattern(n), 1e-20, FP64)
        L = IcFactor(full_pattern(n), vals, FP64, 0.0, FactorStats(0, 0, 0))
        rng = np.random.default_rng(2)
        for _ in range(3):
            r = rng.standard_normal(n)
            back = matvec_f64(A, apply_preconditioner(L, r, CAST_F64))
            assert np.linalg.norm(back - r) <= 1e-10 * np.linalg.norm(r)

    def test_native_never_nonfinite(self):
        A = wathen(6, 5, seed=4)
        Ahat, _ = l2_scale(A)
        L = shifted_ic(Ahat, ic_pattern(Ahat, 1), f=FP16)
        rng = np.random.default_rng(3)
        for scale in (1.0, 1e6, 1e-6):
            r = rng.standard_normal(A.n) * scale
            try:
                v = apply_preconditioner(L, r, NATIVE_LOW)
                assert np.all(np.isfinite(v))
            except OverflowSignal:
                pass


def _outcome_of(fn, *args):
    """The bytes fn returns, or "raised" if it raises OverflowSignal."""
    try:
        return fn(*args).tobytes()
    except OverflowSignal:
        return "raised"


def _two_solves(L, r, mode):
    """apply_preconditioner as one forward_solve and one backward_solve."""
    if mode == CAST_F64:
        return backward_solve(L, forward_solve(L, r, mode), mode)
    nr = np.abs(r).max()
    if nr == 0.0:
        return np.zeros(L.n)
    rs, _ = quantize(r / nr, L.format)
    return backward_solve(L, forward_solve(L, rs, mode), mode) * nr


@settings(max_examples=60, deadline=None)
@given(native_systems(), st.sampled_from([CAST_F64, NATIVE_LOW]))
def test_apply_preconditioner_is_the_two_solves(system, mode):
    L, w = system
    r = w.copy()
    with np.errstate(all="ignore"):   # cast_f64 divides by a zeroed pivot
        got = _outcome_of(apply_preconditioner, L, r, mode)
        want = _outcome_of(_two_solves, L, w, mode)
    assert r.tobytes() == w.tobytes()   # the input is left as it was
    event(f"{mode} {want if want == 'raised' else 'solved'}")
    assert got == want


@pytest.mark.parametrize("Ld, r, message", [
    ([[1.0, 0.0], [2.0, 1.0]], [1.0, 1.0], "zero diagonal at column 1"),
    ([[1.0, 0.0], [40000.0, 1.0]], [2.0, 1.0], "product overflow at column 0"),
    # y = (1, 255), then y_2 = 1 + 256 + 256 * 255 = 65537
    ([[1.0, 0.0, 0.0], [-256.0, 1.0, 0.0], [-256.0, -256.0, 1.0]], [1.0, -1.0, 1.0],
     "subtraction overflow at column 1"),
    ([[2.0 ** -14, 0.0], [0.0, 1.0]], [8.0, 0.0], "division overflow at column 0"),
], ids=["zero", "product", "subtraction", "division"])
def test_apply_preconditioner_native_failures(Ld, r, message):
    # message is the first failure of the references' forward and backward
    # on the apply's scaled and rounded input
    L = make_factor(np.array(Ld), FP16)
    if message.startswith("zero"):
        L.values[L.pattern.col_ptr[1]] = 0.0
    r = np.array(r)
    args = (L.pattern.col_ptr, L.pattern.row_idx, L.values)
    with pytest.raises((OverflowSignal, ZeroDivisionError), match=f"^{message}$"):
        w = quantize(r / np.abs(r).max(), FP16)[0]
        oracles.native_backward_solve(*args, oracles.native_forward_solve(*args, w, FP16), FP16)
    got = _outcome_of(apply_preconditioner, L, r, NATIVE_LOW)
    assert got == _outcome_of(_two_solves, L, r, NATIVE_LOW) == "raised"
