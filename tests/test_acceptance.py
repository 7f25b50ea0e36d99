"""Top-level acceptance gate.

Each test pins one externally-stated requirement of the artifact: format
constants, the rounding and safe-update guarantees, oracle equivalence of the
numeric and symbolic kernels, reproduction of the reference iteration counts
on the benchmark matrices, and the global breakdown-safety invariant.

Benchmark matrices are SuiteSparse Matrix Market files; tests that need one
skip when it is absent (see scripts/fetch_matrices.py).  The wathen120
experiments additionally run on a locally generated Wathen matrix of the same
dimensions, asserting only the properties that are stable across random
element weights.
"""

import time

import numpy as np
import pytest

from conftest import ic_attempt_on, matrix_path, pattern_set, require_matrix
from icir.cli import RunConfig, run_experiment
from icir.factor import shifted_ic
from icir.gallery import (dense_to_sparse, poisson2d, random_spd, tridiag,
                          wathen)
from icir.precision import get_format, quantize, safe_update_many
from icir.refine import DELTA_DEFAULT, ic_krylov_ir, ic_lu_ir
from icir.sparse import l2_scale, matvec_f64
from icir.symbolic import ic_pattern
from icir.trisolve import NATIVE_LOW, OverflowSignal, apply_preconditioner
from test_factor import full_pattern
from test_symbolic import level_oracle, random_structure

FP16 = get_format("fp16")
FP64 = get_format("fp64")


def sig3(x):
    return float(f"{x:.3g}")


def within(value, target, frac):
    return abs(value - target) <= frac * target


# ---------------------------------------------------------------------------
# shared generated-Wathen pipeline (same dimensions as the wathen120 benchmark)

_wathen_cache = {}


def wathen_run(level, solver="cg", delta_krylov=None):
    key = (level, solver, delta_krylov)
    if key in _wathen_cache:
        return _wathen_cache[key]
    if "matrix" not in _wathen_cache:
        A = wathen(120, 100, seed=0)
        Ahat, S = l2_scale(A)
        b = matvec_f64(A, np.ones(A.n)) / S.s
        _wathen_cache["matrix"] = (Ahat, b)
    Ahat, b = _wathen_cache["matrix"]
    fkey = ("factor", level)
    if fkey not in _wathen_cache:
        _wathen_cache[fkey] = shifted_ic(Ahat, ic_pattern(Ahat, level), f=FP16)
    L = _wathen_cache[fkey]
    kwargs = {} if delta_krylov is None else {"delta_krylov": delta_krylov}
    if solver == "lu-ir":
        rep = ic_lu_ir(Ahat, b, L)
    else:
        rep = ic_krylov_ir(Ahat, b, L, method=solver, **kwargs)
    _wathen_cache[key] = (rep, L)
    return rep, L


# ---------------------------------------------------------------------------


def test_01_format_constants():
    t0 = time.perf_counter()
    fp16, bf16 = FP16, get_format("bf16")
    fp32, fp64 = get_format("fp32"), FP64
    assert sig3(fp16.u) == 4.88e-4
    assert sig3(fp16.x_min) == 6.10e-5
    assert sig3(fp16.x_s_min) == 5.96e-8
    assert fp16.x_max == 65504.0
    assert sig3(bf16.u) == 3.91e-3
    assert sig3(bf16.x_min) == 1.18e-38
    assert sig3(bf16.x_max) == 3.39e38
    assert bf16.x_s_min is None and not bf16.supports_subnormals
    assert sig3(fp32.u) == 5.96e-8
    assert sig3(fp32.x_min) == 1.18e-38
    assert sig3(fp32.x_max) == 3.40e38
    assert sig3(fp32.x_s_min) == 1.40e-45
    assert sig3(fp64.u) == 1.11e-16
    assert sig3(fp64.x_min) == 2.23e-308
    assert sig3(fp64.x_max) == 1.80e308
    assert time.perf_counter() - t0 < 1.0


def test_02_rounding_bitwise_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    n = 10 ** 6
    parts = [
        rng.uniform(-70000, 70000, n // 4),                       # normal+overflow
        rng.uniform(-1, 1, n // 4) * 10.0 ** rng.uniform(-9, 5, n // 4),
        rng.uniform(-7e-5, 7e-5, n // 4),                          # subnormal band
        # exact ties: midpoints between adjacent fp16 values
        None,
    ]
    with np.errstate(over="ignore"):
        lo = rng.uniform(-65504, 65504, n - 3 * (n // 4)).astype(np.float16)
        hi = np.nextafter(lo, np.float16(np.inf))
        parts[3] = (lo.astype(np.float64) + hi.astype(np.float64)) / 2
        x = np.concatenate([np.asarray(p, dtype=np.float64) for p in parts])
        ref = x.astype(np.float16)      # independent hardware rounding
    y, over = quantize(x, FP16)
    assert np.array_equal(over, np.isinf(ref.astype(np.float64)))
    ok = ~over
    assert np.array_equal(y[ok].astype(np.float16).view(np.uint16),
                          ref[ok].view(np.uint16))
    assert time.perf_counter() - t0 < 10.0


def test_03_safe_update_soundness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    n = 10 ** 6

    def representable(raw):
        with np.errstate(over="ignore"):
            v = raw.astype(np.float16).astype(np.float64)
        return np.where(np.isfinite(v), v, 0.0)

    a = representable(rng.uniform(-1, 1, n) * 10.0 ** rng.uniform(-8, 4.9, n))
    b = representable(rng.uniform(-1, 1, n) * 10.0 ** rng.uniform(-8, 4.9, n))
    c = representable(rng.uniform(-1, 1, n) * 10.0 ** rng.uniform(-8, 4.9, n))

    # boundary grid near +-x_max
    edge = np.float16(65504.0)
    grid = [float(edge), float(np.nextafter(edge, np.float16(0)))]
    grid += [65472.0, 32768.0, 256.0, 255.875, 32.0, 1.0, 0.5, 0.0]
    grid = np.array(grid)
    grid = np.concatenate([grid, -grid])
    ga, gb, gc = np.meshgrid(grid, grid, grid, indexing="ij")
    a = np.concatenate([a, ga.ravel()])
    b = np.concatenate([b, gb.ravel()])
    c = np.concatenate([c, gc.ravel()])

    v, unsafe = safe_update_many(a, b, c, FP16)
    admitted = ~unsafe
    exact = a[admitted] - b[admitted] * c[admitted]
    violations = np.abs(exact) > FP16.x_max
    assert violations.sum() == 0
    assert np.all(np.abs(v[admitted]) <= FP16.x_max)
    assert np.all(np.isfinite(v[admitted]))
    assert time.perf_counter() - t0 < 30.0


def test_04_complete_factor_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    for trial in range(100):
        n = int(rng.integers(5, 101))
        B = rng.standard_normal((n, n))
        D = B @ B.T + n * np.eye(n)
        A = dense_to_sparse(D)
        pat = full_pattern(n)
        vals = ic_attempt_on(A, pat, 1e-20, FP64)
        L = np.zeros((n, n))
        for j in range(n):
            L[pat.row_idx[pat.col_ptr[j]:pat.col_ptr[j + 1]], j] = \
                vals[pat.col_ptr[j]:pat.col_ptr[j + 1]]
        ref = np.linalg.cholesky(D)
        assert np.abs(L - ref).max() <= 1e-12 * np.abs(ref).max(), trial
    assert time.perf_counter() - t0 < 30.0


def test_05_symbolic_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(5)
    for trial in range(200):
        n = int(rng.integers(5, 61))
        D = random_structure(n, seed=1000 + trial,
                             density=float(rng.uniform(0.05, 0.3)))
        A = dense_to_sparse(D)
        prev = set()
        for lev in range(5):
            cur = pattern_set(ic_pattern(A, lev))
            assert cur == level_oracle(D, lev), (trial, lev)
            assert prev <= cur        # monotone in the fill level
            prev = cur
    assert time.perf_counter() - t0 < 30.0


# ---------------------------------------------------------------------------
# benchmark reproduction

DELTA = DELTA_DEFAULT

WELL_CONDITIONED = {
    # name: (iouter, totits level 0, totits level 3)
    "bcsstk27": (3, 35, 11),
    "nasa2146": (3, 24, 11),
    "wathen120": (3, 17, 6),
}


@pytest.mark.parametrize("name", sorted(WELL_CONDITIONED))
def test_06_well_conditioned_reproduction(name):
    path = require_matrix(name)
    iouter_ref, tot0_ref, tot3_ref = WELL_CONDITIONED[name]
    t0 = time.perf_counter()
    r0 = run_experiment(RunConfig(matrix_path=path, level=0))
    r3 = run_experiment(RunConfig(matrix_path=path, level=3))
    for rec in (r0, r3):
        assert rec.status == "converged"
        assert rec.resfinal <= DELTA
        assert rec.iouter == iouter_ref
    assert within(r0.totits, tot0_ref, 0.30)
    assert within(r3.totits, tot3_ref, 0.30)
    assert time.perf_counter() - t0 < 120.0


def test_06_wathen_generated_instance():
    # Same dimensions as the wathen120 benchmark but freshly generated random
    # element weights, so only instance-stable facts are asserted.
    t0 = time.perf_counter()
    rep3, L3 = wathen_run(3)
    assert rep3.converged and rep3.resfinal <= DELTA
    assert rep3.iouter == 3
    assert within(rep3.totits, 6, 0.30)
    assert L3.nnz == pytest.approx(8.30e5, rel=0.05)
    rep0, L0 = wathen_run(0)
    assert rep0.converged and rep0.resfinal <= DELTA
    assert L0.nnz == pytest.approx(3.01e5, rel=0.05)
    assert rep3.totits < rep0.totits
    assert time.perf_counter() - t0 < 120.0


ILL_CONDITIONED = {
    # name: totits at level 3
    "msc01050": 125,
    "bcsstk11": 265,
}


@pytest.mark.parametrize("name", sorted(ILL_CONDITIONED))
def test_07_ill_conditioned_reproduction(name):
    path = require_matrix(name)
    t0 = time.perf_counter()
    rec = run_experiment(RunConfig(matrix_path=path, level=3))
    assert rec.status == "converged"
    assert rec.iouter == 3
    assert within(rec.totits, ILL_CONDITIONED[name], 0.40)
    if name == "msc01050":
        assert rec.nmod + rec.nofl > 0
    assert time.perf_counter() - t0 < 120.0


def test_08_lu_ir_bcsstk27():
    path = require_matrix("bcsstk27")
    rec = run_experiment(RunConfig(matrix_path=path, level=3, solver="lu-ir"))
    assert rec.status == "converged"
    assert rec.resfinal <= 1e-13
    assert within(rec.iouter, 13, 0.30)


def test_08_lu_ir_apache1_stalls():
    path = require_matrix("apache1")
    t0 = time.perf_counter()
    rec = run_experiment(RunConfig(matrix_path=path, level=3, solver="lu-ir"))
    assert rec.status != "converged"
    assert rec.iouter >= 1000
    # Wall bound, scaled by nnz(L) because the native_low apply runs over the
    # entries of L: one IC(3) fp16 apply on gallery.wathen(120, 100), nnz(L) =
    # 832,101, took 0.48 s (median of 5 on a 2-core host, Python 3.11, NumPy
    # 2.4).  1,000 such steps at this run's nnz(L), 3x for a slower host, plus
    # 600 s to read, scale and factor.
    per_entry = 0.48 / 832_101
    assert time.perf_counter() - t0 < 3 * 1000 * per_entry * rec.nnz_L + 600.0


TOLERANCE_ROW = [2, 2, 2, 2, 2, 2, 3, 3, 6, 6]  # deltas 1e-10 ... 1e-1


def test_09_tolerance_sweep():
    t0 = time.perf_counter()
    path = matrix_path("wathen120")
    deltas = [10.0 ** -k for k in range(10, 0, -1)]
    iouters = []
    if path is not None:
        for d in deltas:
            rec = run_experiment(RunConfig(matrix_path=str(path), level=3,
                                           delta_krylov=d))
            assert rec.status == "converged"
            iouters.append(rec.iouter)
    else:
        for d in deltas:
            rep, _ = wathen_run(3, delta_krylov=d)
            assert rep.converged
            iouters.append(rep.iouter)
    assert all(b >= a for a, b in zip(iouters, iouters[1:]))
    assert all(abs(got - ref) <= 1 for got, ref in zip(iouters, TOLERANCE_ROW))
    assert time.perf_counter() - t0 < 120.0


def test_10_level_sweep_property():
    path = matrix_path("bcsstk27")
    if path is not None:
        r0 = run_experiment(RunConfig(matrix_path=str(path), level=0))
        r3 = run_experiment(RunConfig(matrix_path=str(path), level=3))
        assert r3.totits < r0.totits
    else:
        rep0, _ = wathen_run(0)
        rep3, _ = wathen_run(3)
        assert rep3.totits < rep0.totits


# ---------------------------------------------------------------------------
# breakdown safety


def _corpus():
    mats = [
        wathen(8, 6, seed=0),
        wathen(12, 9, seed=1),
        poisson2d(15),
        tridiag(50),
        random_spd(60, seed=2),
        random_spd(40, seed=3, dominance=0.6),
    ]
    # badly scaled variants
    rng = np.random.default_rng(4)
    A = random_spd(40, seed=5)
    v = A.values * 10.0 ** rng.uniform(-8, 8, A.nnz)
    dp = A.diag_positions()
    v[dp] = np.abs(v[dp]) + 1e6
    mats.append(A.with_values(v))
    w = wathen(6, 5, seed=6)
    mats.append(w.with_values(w.values * 1e-7))
    mats.append(w.with_values(w.values * 1e7))
    return mats


def test_11_breakdown_safety_sweep():
    t0 = time.perf_counter()
    rng = np.random.default_rng(99)
    for mi, A in enumerate(_corpus()):
        Ahat, _ = l2_scale(A)
        for lev in (0, 3):
            L = shifted_ic(Ahat, ic_pattern(Ahat, lev), f=FP16)
            assert np.all(np.isfinite(L.values)), (mi, lev)
            assert np.abs(L.values).max() <= FP16.x_max, (mi, lev)
            for scale in (1.0, 1e5, 1e-5):
                r = rng.standard_normal(A.n) * scale
                try:
                    v = apply_preconditioner(L, r, NATIVE_LOW)
                except OverflowSignal:
                    continue
                assert np.all(np.isfinite(v)), (mi, lev, scale)
    assert time.perf_counter() - t0 < 120.0
