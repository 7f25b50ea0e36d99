#!/usr/bin/env python3
"""Build cost of the per-pattern analysis, and the cost of the solves that use it.

    python3 scripts/analysis_cost.py

A first table gives, for each pattern below (the four benchmark patterns
and the Baseline wathen(120, 100) of ROADMAP.md), its elimination levels,
the groups of its forward and backward solves, and their inside updates
(the updates whose source lies in the target's group, which the solves run
one by one in Python; see icir.trisolve).

The second table prints one row per part and pattern:
icir.symbolic._schedule, with the elimination levels it finds;
icir.factor._step_plan, with the dataflow steps it finds from the
schedule's forward order (icir.factor._step_times); and the solve levels,
the forward and backward records that both solve modes read, with the
groups icir.trisolve._steps finds, built by icir.trisolve._records.  Each runs
on a freshly built pattern, so a part's figures include the schedule it
builds on first use.  Two more rows run shifted_ic in fp16 and one
preconditioner apply, cast_f64 or native_low, on an l2-scaled matrix.  The
last two bind such a factor's values into both directions' groups of one
mode (icir.trisolve._bound, which an apply runs on the factor's first
solve of each direction and mode), on a pattern whose records and chains
are built: ms is the median of 7 binds, kept what the factor keeps of one.

  ms       median of 7 builds, each on a fresh pattern, untraced
  kept     tracemalloc bytes still allocated after one more build, with its
           result held (for the shifted_ic rows, only what the pattern keeps)
  peak     tracemalloc peak of that build

A third table times the applies on the same patterns, factored by
shifted_ic in fp16 and in bf16 on the l2-scaled matrix: one cast_f64
apply_preconditioner, one native_low forward_solve and one native_low
backward_solve, each the median of 21 calls after an untimed first one.
The native_low input is a random vector scaled to |w| <= 1 and rounded
into the format, the backward's the forward's result (as in an apply).
A cell reads "overflow" where the solve raises OverflowSignal.  The
_round_scalar column counts the icir.precision._round_scalar calls of one
native_low forward and one backward, the values their batches and inline
splits do not round exactly.  The last column, in the fp16 rows, gives the
share of the factor's update products b*c, over every attempt of its
shifted_ic, that are fp16 subnormals (0 < |b*c| < x_min): the products
safe_update_many rounds by the split and the subnormal grid where it would
otherwise pay for NumPy's software float16 cast.

A fourth table runs shifted_ic on the cases of the badscale-restart
workload of benchmark/workloads.py at seed 7, l2-scaled, each in its format,
where every case restarts: ms, kept and peak as in the second table (kept
holds the factor), then the update pairs its plan keeps by its last attempt
(icir.factor keeps every step's pairs from the first breakdown on) and
their bytes a pair.  The peak holds them.

A run takes three to four minutes on a 2-core host, most of it on the
Baseline patterns.
"""

from __future__ import annotations

import gc
import statistics
import sys
import time
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "benchmark"))

import workloads  # noqa: E402
from icir import factor, gallery, trisolve
from icir.factor import _step_plan, ic_attempt, shifted_ic
from icir.precision import get_format, quantize, safe_update_many
from icir.sparse import SparseSpd, l2_scale
from icir.symbolic import _schedule, ic_pattern
from icir.trisolve import (CAST_F64, NATIVE_LOW, OverflowSignal, _bound, _records,
                           apply_preconditioner, backward_solve, forward_solve)

PATTERNS = [
    ("wathen(40, 30) IC(3)", lambda: gallery.wathen(40, 30, seed=0), 3),
    ("poisson2d(50) IC(0)", lambda: gallery.poisson2d(50), 0),
    ("wathen(10, 8) IC(0)", lambda: gallery.wathen(10, 8, seed=0), 0),
    ("random_spd(100) IC(0)", lambda: gallery.random_spd(100, seed=0, density=0.3), 0),
    ("random_spd(100) IC(3)", lambda: gallery.random_spd(100, seed=0, density=0.3), 3),
    ("wathen(120, 100) IC(0)", lambda: gallery.wathen(120, 100, seed=0), 0),
    ("wathen(120, 100) IC(3)", lambda: gallery.wathen(120, 100, seed=0), 3),
]


def _factor_and_apply(mode):
    def run(A, pattern):
        L = shifted_ic(A, pattern, f=get_format("fp16"))
        apply_preconditioner(L, np.linspace(-1.0, 1.0, A.n), mode)
    return run


def _solve_levels(A, pattern):
    return _records(pattern, True), _records(pattern, False)


PARTS = [
    ("_schedule", lambda A, pattern: _schedule(pattern)),
    ("_step_plan", lambda A, pattern: _step_plan(pattern)),
    ("solve levels", _solve_levels),
    ("shifted_ic + cast_f64 apply", _factor_and_apply(CAST_F64)),
    ("shifted_ic + native_low apply", _factor_and_apply(NATIVE_LOW)),
]

MIB = 1 << 20


def _seconds(build, A, level):
    pattern = ic_pattern(A, level)
    t0 = time.perf_counter()
    build(A, pattern)
    return time.perf_counter() - t0


def _bytes(build, A, level):
    """(kept, peak) tracemalloc bytes of one build on a fresh pattern."""
    pattern = ic_pattern(A, level)
    gc.collect()
    tracemalloc.start()
    try:
        result = build(A, pattern)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del result, pattern
    return kept, peak


def _bind_cells(A, level, mode):
    """(ms, kept, peak bytes) of binding an fp16 shifted_ic factor's values
    into both directions' groups of mode."""
    L = shifted_ic(A, ic_pattern(A, level), f=get_format("fp16"))

    def bind():
        L.bound.clear()
        for forward in (True, False):
            _bound(L, forward, mode)

    bind()   # the records and chains
    times = []
    for _ in range(7):
        t0 = time.perf_counter()
        bind()
        times.append(time.perf_counter() - t0)
    L.bound.clear()
    gc.collect()
    tracemalloc.start()
    try:
        bind()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return 1e3 * statistics.median(times), kept, peak


def _restart_cells(A, level, f):
    """The cells of one row of the restarts table: shifted_ic's restarts, ms,
    kept and peak MiB, and the pairs its plan keeps by the end with their
    bytes a pair."""
    def run(A, pattern):
        return shifted_ic(A, pattern, f=f)

    ms = 1e3 * statistics.median(_seconds(run, A, level) for _ in range(7))
    kept, peak = _bytes(run, A, level)
    plans = []

    def attempt(vals, plan, tau, g):
        plans.append(plan)
        return ic_attempt(vals, plan, tau, g)

    with mock.patch.object(factor, "ic_attempt", attempt):
        L = shifted_ic(A, ic_pattern(A, level), f=f)
    found = list((plans[-1].found or {}).values())
    pairs = sum(len(b) for b, _, _ in found)
    size = sum(a.nbytes for arrays in found for a in arrays)
    return [str(L.stats.restarts), f"{ms:.1f}", f"{kept / MIB:.2f}", f"{peak / MIB:.2f}",
            f"{pairs:,}", f"{size / max(pairs, 1):.1f}"]


def _group_cells(A, level):
    """The cells of one row of the groups table."""
    pattern = ic_pattern(A, level)
    groups = [_records(pattern, forward)[2] for forward in (True, False)]
    inside = [sum(len(g[6][0]) for g in gs if g[6] is not None) for gs in groups]
    return [f"{len(_schedule(pattern).levels):,}", f"{len(groups[0]):,} / {len(groups[1]):,}",
            f"{inside[0]:,} / {inside[1]:,}"]


def main() -> None:
    print("| pattern | levels | groups forward / backward | inside updates forward / backward |")
    print("|---|---|---|---|")
    for label, make, level in PATTERNS:
        A, _ = l2_scale(make())
        print(f"| {label} | {' | '.join(_group_cells(A, level))} |", flush=True)
    print()
    print("| pattern | n | off-diagonals | part | ms | kept MiB | peak MiB |")
    print("|---|---|---|---|---|---|---|")
    for label, make, level in PATTERNS:
        A, _ = l2_scale(make())
        pattern = ic_pattern(A, level)
        off = pattern.nnz - pattern.n
        for name, build in PARTS:
            ms = 1e3 * statistics.median(_seconds(build, A, level) for _ in range(7))
            kept, peak = _bytes(build, A, level)
            print(f"| {label} | {A.n:,} | {off:,} | {name} | {ms:.1f} | {kept / MIB:.2f} | "
                  f"{peak / MIB:.2f} |", flush=True)
        for mode in (CAST_F64, NATIVE_LOW):
            ms, kept, peak = _bind_cells(A, level, mode)
            print(f"| {label} | {A.n:,} | {off:,} | {mode} bound values | {ms:.1f} | "
                  f"{kept / MIB:.2f} | {peak / MIB:.2f} |", flush=True)
    print()
    print("| pattern | format | cast_f64 apply ms | native_low forward ms | "
          "native_low backward ms | _round_scalar calls | subnormal update products |")
    print("|---|---|---|---|---|---|---|")
    for label, make, level in PATTERNS:
        A, _ = l2_scale(make())
        for name in ("fp16", "bf16"):
            print(f"| {label} | {name} | {' | '.join(_apply_ms(A, level, get_format(name)))} |",
                  flush=True)
    print()
    print("| badscale-restart case, seed 7 | n | restarts | ms | kept MiB | peak MiB | "
          "kept pairs | bytes a pair |")
    print("|---|---|---|---|---|---|---|---|")
    for case in workloads.build("badscale-restart", 7):
        A, _ = l2_scale(SparseSpd(case.n, np.searchsorted(case.cols, np.arange(case.n + 1)),
                                  case.rows, case.vals))
        cells = _restart_cells(A, case.level, get_format(case.fmt))
        print(f"| {case.label} | {A.n:,} | {' | '.join(cells)} |", flush=True)


def _apply_ms(A, level, f):
    """The cells of one row of the apply table."""
    products = []   # (subnormal, all) update products of each safe_update_many call

    def count(a, b, c, g):
        w = np.abs(np.multiply(b, c))
        products.append((np.count_nonzero((w > 0.0) & (w < g.x_min)), w.size))
        return safe_update_many(a, b, c, g)

    with mock.patch.object(factor, "safe_update_many", count):
        L = shifted_ic(A, ic_pattern(A, level), f=f)
    subnormal, total = np.sum(products, axis=0, dtype=np.int64) if products else (0, 0)
    r = np.random.default_rng(0).standard_normal(A.n)
    w, _ = quantize(r / np.abs(r).max(), f)
    try:
        y = forward_solve(L, w, NATIVE_LOW)
    except OverflowSignal:
        y = w
    return [_median_ms(lambda: apply_preconditioner(L, r, CAST_F64)),
            _median_ms(lambda: forward_solve(L, w, NATIVE_LOW)),
            _median_ms(lambda: backward_solve(L, y, NATIVE_LOW)),
            f"{_slow_calls(lambda: forward_solve(L, w, NATIVE_LOW))} / "
            f"{_slow_calls(lambda: backward_solve(L, y, NATIVE_LOW))}",
            f"{subnormal / max(total, 1):.1%} of {total:,}" if f.name == "fp16" else "-"]


def _slow_calls(run) -> int:
    """The _round_scalar calls of one run."""
    with mock.patch.object(trisolve, "_round_scalar", wraps=trisolve._round_scalar) as calls:
        try:
            run()
        except OverflowSignal:
            pass
    return calls.call_count


def _median_ms(run):
    """Median ms of 21 calls of run after an untimed one, or "overflow"."""
    try:
        run()
    except OverflowSignal:
        return "overflow"
    times = []
    for _ in range(21):
        t0 = time.perf_counter()
        run()
        times.append(time.perf_counter() - t0)
    return f"{1e3 * statistics.median(times):.2f}"


if __name__ == "__main__":
    main()
