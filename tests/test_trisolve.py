import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import oracles
from conftest import ic_attempt_on
from icir.factor import FactorStats, IcFactor, shifted_ic
from icir.gallery import random_spd, wathen
from icir.precision import get_format, quantize
from icir.sparse import l2_scale, matvec_f64
from icir.symbolic import FillPattern, ic_pattern
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
    pat = FillPattern(n, cp, np.concatenate(rows), level=0)
    return IcFactor(pat, np.concatenate(vals), f, 0.0, FactorStats(0, 0, 0))


class TestForwardBackward:
    def test_identity(self):
        L = make_factor(np.eye(4))
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
        with pytest.raises(OverflowSignal, match="product overflow"):
            forward_solve(L, np.array([60000.0, 60000.0]), NATIVE_LOW)
        # y1 = 30000, l21 = -2 -> 60000 - (-60000) = 120000 > x_max
        L = make_factor(np.array([[1.0, 0.0], [-2.0, 1.0]]), FP16)
        with pytest.raises(OverflowSignal, match="subtraction overflow"):
            forward_solve(L, np.array([30000.0, 60000.0]), NATIVE_LOW)

    def test_native_overflow_division(self):
        L = make_factor(np.array([[2.0 ** -14, 0.0], [0.0, 1.0]]), FP16)
        for solve in (forward_solve, backward_solve):
            with pytest.raises(OverflowSignal, match="division overflow"):
                solve(L, np.array([8.0, 0.0]), NATIVE_LOW)

    def test_native_overflow_backward(self):
        L = make_factor(np.array([[1.0, 0.0], [2.0, 1.0]]), FP16)
        with pytest.raises(OverflowSignal, match="product overflow"):
            backward_solve(L, np.array([60000.0, 60000.0]), NATIVE_LOW)
        # y2 = 30000, l21 = -2 -> 60000 - (-60000) = 120000 > x_max
        L = make_factor(np.array([[1.0, 0.0], [-2.0, 1.0]]), FP16)
        with pytest.raises(OverflowSignal, match="subtraction overflow"):
            backward_solve(L, np.array([60000.0, 30000.0]), NATIVE_LOW)

    def test_zero_diagonal(self):
        L = make_factor(np.array([[1.0, 0.0], [2.0, 1.0]]), FP16)
        L.values[L.pattern.col_ptr[1]] = 0.0
        for solve in (forward_solve, backward_solve):
            with pytest.raises(ZeroDivisionError):
                solve(L, np.ones(2), NATIVE_LOW)

    def test_cast_f64_ignores_declared_format(self):
        Ld = np.array([[2.0, 0.0], [0.5, 1.5]])
        w = np.array([3.0, 1.0])
        a = forward_solve(make_factor(Ld, FP64), w, CAST_F64)
        b = forward_solve(make_factor(Ld, FP16), w, CAST_F64)
        assert np.array_equal(a, b)


@st.composite
def native_systems(draw):
    """(L, w): a fp16 or bf16 shifted_ic factor of an l2-scaled random_spd,
    some indefinite, at IC(0) or IC(3), now and then with a zeroed pivot,
    and a representable right-hand side with zero entries, scaled up to near
    x_max."""
    f = get_format(draw(st.sampled_from(["fp16", "bf16"])))
    seed = draw(st.integers(0, 2 ** 16))
    n = draw(st.integers(1, 30))
    A, _ = l2_scale(random_spd(n, seed=seed, density=draw(st.floats(0.05, 1.0)),
                               dominance=draw(st.floats(0.1, 1.2))))
    L = shifted_ic(A, ic_pattern(A, draw(st.sampled_from([0, 3]))), f=f)
    rng = np.random.default_rng(seed)
    if rng.random() < 0.1:
        L.values[L.pattern.col_ptr[rng.integers(n)]] = 0.0
    w = rng.choice([-1.0, 1.0], n) * f.x_max * 10.0 ** -rng.uniform(0.0, 2.0, n)
    w[rng.random(n) < 0.3] = 0.0
    return L, quantize(w, f)[0]


def _outcome(solve, *args):
    """solve's result as int64 views, or its exception's type and message."""
    try:
        return solve(*args).view(np.int64).tolist()
    except (OverflowSignal, ZeroDivisionError) as exc:
        return type(exc).__name__, str(exc)


@settings(max_examples=200, deadline=None)
@given(native_systems())
def test_native_solves_match_scalar_reference(system):
    L, w = system
    args = (L.pattern.col_ptr, L.pattern.row_idx, L.values, w, L.format)
    for solve, reference in ((forward_solve, oracles.native_forward_solve),
                             (backward_solve, oracles.native_backward_solve)):
        want = _outcome(reference, *args)
        kind = want[1].split(" at")[0] if isinstance(want, tuple) else "solved"
        event(f"{solve.__name__}: {kind}")
        assert _outcome(solve, L, w, NATIVE_LOW) == want


class TestApplyPreconditioner:
    def test_identity(self):
        L = make_factor(np.eye(5))
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
