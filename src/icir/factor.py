"""Numeric incomplete Cholesky factorization in a simulated format.

ic_attempt runs an incomplete Cholesky factorization of values stored in a
fill pattern's order, with every operation rounded into the target format.
Its guards run in every format and report a Breakdown (kind, column):

  B1 -- pivot below the threshold tau (or negative);
  B2 -- scaling the column by the pivot could overflow;
  B3 -- an outer-product update a - b*c could overflow.

The B2/B3 guards are evaluated on exact fp64 quantities (products of
format-representable values are exact in fp64 for formats up to fp32).
Running the guard comparisons in the low format itself is unsound: rounding
the product b*c in fp16 can move it across the x_max boundary and admit an
update whose exact value overflows, e.g. a=32, b*c exactly -65488 rounds to
-65472 and passes the format-precision test although a - b*c = 65520 > x_max.
The exact-valued guards admit a strict superset of obviously-safe updates and
never admit an overflow.

In fp64 the guard products round, so near x_max a guard could admit a value
just past it; l2-scaled input (entries at most 1) keeps fp64's factor far
from x_max, and the final check still rejects a non-finite or larger value.

Entry (i, j) of the factor takes one update a - l_ik l_jk from every column
k < j with (i, k) and (j, k) in the pattern, rounded after each, in
ascending k; then column j takes its pivot (B1 test, rounded square root,
B2 test, scaled column): the order of the right-looking column loop that
tests/oracles.py keeps as the reference (column_factor).

The kernel runs a dataflow schedule of tasks and pivots.  A task (j, k) is
one off-diagonal l_jk: column j takes its update from source column k on
every present (i, j) with i >= j, the pairs the column loop scatters from
column k, leaving out those whose b or c is zero as the loop does.  The
r-th task of target j (sources k ascending) runs at step T_r =
max(T_{r-1} + 1, P(k_r) + 1), and the pivot of j at P(j) = T_last (0
without tasks), so every entry sees the column loop's order.  A step runs
its tasks as one vectorised safe_update_many call, then its pivots.  The
step times are found level by level of the elimination schedule
(icir.schedule), one segmented running maximum per level.  The plan holds
the pattern, its position keys and, per step, int32 positions and counts:
the tasks with their pair counts and the pivot columns with their
off-diagonals.  ic_attempt factors the values it is given against the plan
it is given and stores nothing.

The kernel returns the column loop's first breakdown, though it meets
breakdowns in step order.  Number the operations: the pivot of column k is
2k, the scatter from source column k (all of its tasks) 2k + 1.  An
operation reads only results of lower-numbered ones, so the lowest-numbered
failing operation reads clean inputs and is the column loop's first
breakdown, of the same kind and column.  After a failure the kernel skips
every operation numbered above the lowest failure so far, whose inputs may
hold failed results, and stops once the plan's rest[s], the lowest
operation number at step s or later, exceeds it.  A step's B3 is its lowest
source k with an unsafe pair, operation 2k + 1 whatever step it is met in.

shifted_ic wraps ic_attempt in the global-shift loop (Manteuffel, Math.
Comp. 1980): on breakdown the diagonal shift alpha is doubled (starting from
alpha_s) and the factorization restarts.  Only the diagonal changes between
attempts, so the squeeze, the plan and the scatter of A_low into pattern
order (which checks that the pattern covers A's structure) run once per
call, an analyse-once, factorize-many split.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .precision import FpFormat, quantize, safe_scale_check, safe_update_many
from .schedule import _off_diagonals, _split, schedule
from .sparse import SparseSpd, SqueezeReport, squeeze
from .symbolic import FillPattern

__all__ = [
    "Breakdown",
    "FactorStats",
    "IcFactor",
    "FactorizationError",
    "ShiftRestartError",
    "default_tau",
    "ic_attempt",
    "shifted_ic",
]


class FactorizationError(RuntimeError):
    """An overflowing shift, or a factor value past x_max the guards missed."""


@dataclass(frozen=True)
class Breakdown:
    """A detected breakdown; normal control flow, not an error."""

    kind: str  # "B1" | "B2" | "B3"
    k: int     # column at which it occurred


@dataclass(frozen=True)
class FactorStats:
    nmod: int      # B1 occurrences across all attempts
    nofl: int      # B3 occurrences across all attempts
    restarts: int  # attempts - 1
    history: tuple = ()  # (alpha, kind, k) of every failed attempt
    squeeze: SqueezeReport | None = None  # entries squeeze dropped and flushed


@dataclass
class IcFactor:
    """Incomplete Cholesky factor L with S{L} = pattern.

    values are fp64 carriers of format-representable numbers, column-major
    with the diagonal first in each column.
    """

    pattern: FillPattern
    values: np.ndarray
    format: FpFormat
    alpha: float
    stats: FactorStats

    @property
    def n(self) -> int:
        return self.pattern.n

    @property
    def nnz(self) -> int:
        return self.pattern.nnz


class ShiftRestartError(RuntimeError):
    """Restart budget exhausted; carries (alpha, Breakdown) history."""

    def __init__(self, history):
        self.history = list(history)
        tried = ", ".join(f"alpha={a:g}:{b.kind}@{b.k}" for a, b in self.history)
        super().__init__(f"shifted factorization failed after {len(self.history)} attempts ({tried})")


def default_tau(f: FpFormat) -> float:
    """Pivot threshold: 1e-5 for half-width formats, 1e-20 otherwise."""
    if f.half_width:
        return 1e-5
    return max(1e-20, 4.0 * f.x_min)


class _StepPlan(NamedTuple):
    pattern: FillPattern
    keys: np.ndarray   # col * n + row of every pattern position, ascending
    steps: list        # one tuple of int32 arrays per step
    rest: np.ndarray   # rest[s]: the lowest operation number at step s or later


def _step_plan(pattern: FillPattern) -> _StepPlan:
    """The step kernel's plan for the pattern.

    A step's (task, pairs, shift) describe its tasks: the position of l_jk
    of every task (j, k), its pair count (the positions from l_jk to the end
    of column k, those of the l_ik), and the shift that puts those positions
    at shift + their index among the step's pairs.  (diag, below, off)
    describe its pivots in ascending column: their diagonal positions,
    off-diagonal counts and off-diagonal positions.  The step times are found
    level by level, since a task's time needs its source's pivot time.
    """
    n, cp, ri = pattern.n, pattern.col_ptr, pattern.row_idx
    sched = schedule(pattern)
    level = sched.level
    pos, col = _off_diagonals(pattern)
    keys = col * np.int64(n) + ri
    # tasks by level of their target column, then by target, sources ascending
    tgt = ri[pos]
    order = np.lexsort((tgt, level[tgt]))
    task, tgt = pos[order].astype(np.int32), tgt[order]
    src = col[task]
    del pos, order
    first = np.flatnonzero(np.diff(tgt, prepend=-1))
    sizes = np.diff(first, append=len(task))
    # T_r = r + max_{s <= r} (P(k_s) + 1 - s) for the r-th task (from 1) of a
    # target; one running maximum per level, with the targets kept apart by
    # offsets wider than the values' range (P < 2n)
    w = np.repeat(first.astype(np.int64) * (4 * n) + first, sizes)
    w -= np.arange(1, len(task) + 1)
    del first, sizes
    P = np.zeros(n, dtype=np.int64)
    T = np.empty(len(task), dtype=np.int64)
    for sl in _split(np.bincount(level[tgt], minlength=sched.depth)):
        if sl.start == sl.stop:
            continue
        v = P[src[sl]] + w[sl]
        np.maximum.accumulate(v, out=v)
        T[sl] = v - w[sl] + 1
        np.maximum.at(P, tgt[sl], T[sl])
    del w, tgt
    steps = int(P.max(initial=-1)) + 1
    # pivot j is operation 2j, the scatter from source k operation 2k + 1
    rest = np.full(steps, 2 * n, dtype=np.int64)
    np.minimum.at(rest, T, 2 * src.astype(np.int64) + 1)   # ufunc.at is slow when it casts
    np.minimum.at(rest, P, 2 * np.arange(n))
    rest = np.minimum.accumulate(rest[::-1])[::-1].copy()
    by_step = np.argsort(T, kind="stable")
    task = task[by_step]
    pairs = (cp[src[by_step] + 1] - task).astype(np.int32)
    del src, by_step
    per_step = np.bincount(T, minlength=steps)
    # a task's pair positions, from l_jk to the end of column k, are its
    # shift plus the pairs' index within the step
    before = np.cumsum(pairs) - pairs
    step_first = np.repeat(np.cumsum(per_step) - per_step, per_step)
    shift = (task - before + before[step_first]).astype(np.int32)
    del before, step_first
    pivots = np.argsort(P, kind="stable")
    diag = cp[pivots].astype(np.int32)
    below = (cp[pivots + 1] - 1 - diag).astype(np.int32)
    # every off-diagonal, column by column in pivot order
    off = np.arange(len(task)) + np.repeat(diag + 1 - np.cumsum(below) + below, below)
    off = off.astype(np.int32)
    psplit = _split(np.bincount(P, minlength=steps))
    osplit = _split(np.bincount(P[pivots], below, minlength=steps).astype(np.int64))
    return _StepPlan(pattern, keys, [(task[a], pairs[a], shift[a], diag[b], below[b], off[o])
                                     for a, b, o in zip(_split(per_step), psplit, osplit)], rest)


def _scatter_into_pattern(Alow: SparseSpd, plan: _StepPlan) -> np.ndarray:
    """Alow's values in pattern order, zero at the fill positions."""
    keys = plan.keys
    vals = np.zeros(len(keys), dtype=np.float64)
    akeys = Alow.entry_col * np.int64(Alow.n) + Alow.row_idx
    pos = np.searchsorted(keys, akeys)
    if np.any(pos >= len(keys)) or np.any(keys[np.minimum(pos, len(keys) - 1)] != akeys):
        raise ValueError("pattern does not cover the matrix structure")
    vals[pos] = Alow.values
    return vals


def ic_attempt(vals: np.ndarray, plan: _StepPlan, tau: float, f: FpFormat):
    """One guarded factorization attempt of the pattern-ordered vals, in
    place, step by step, in any format.  Returns vals on success, else the
    first Breakdown (kind, column) in column order."""
    smallest = f.x_s_min if f.supports_subnormals else f.x_min
    if not tau > smallest:
        raise ValueError("tau must exceed the smallest positive representable value")
    pattern, keys = plan.pattern, plan.keys
    n, cp, ri = pattern.n, pattern.col_ptr, pattern.row_idx
    # the lowest failing operation found so far (2n: none) and its Breakdown
    first, outcome = 2 * n, None
    for s, (task, pairs, shift, diag, below, off) in enumerate(plan.steps):
        if first < 2 * n and plan.rest[s] > first:
            break
        if len(task):
            # target (i, j) = (row of b, row of c), b = l_ik, c = l_jk
            c = np.repeat(task, pairs)
            b = np.arange(len(c)) + np.repeat(shift, pairs)
            if first < 2 * n:
                # skip the scatters numbered above the failure, those from
                # the columns from (first + 1) // 2 on, pair by pair, since
                # shift places every task's pairs within the step
                kept = np.repeat(task < cp[(first + 1) // 2], pairs)
                b, c = b[kept], c[kept]
            bv = vals[b]
            cv = vals[c]
            live = (bv != 0.0) & (cv != 0.0)
            if not live.all():
                b, c, bv, cv = b[live], c[live], bv[live], cv[live]
            tkeys = ri[c] * np.int64(n) + ri[b]
            # no key exceeds the last one, that of (n - 1, n - 1)
            t = np.searchsorted(keys, tkeys)
            present = keys[t] == tkeys
            if not present.all():
                t, c, bv, cv = t[present], c[present], bv[present], cv[present]
            v, bad = safe_update_many(vals[t], bv, cv, f)
            if bad.any():
                # the lowest source with an unsafe pair (c ascends with it)
                k = int(np.searchsorted(cp, c[bad].min(), side="right")) - 1
                if 2 * k + 1 < first:
                    first, outcome = 2 * k + 1, Breakdown("B3", k)
            vals[t] = v
        if first < 2 * n:
            # and the pivots of those columns, a tail as they ascend
            m = int(np.searchsorted(diag, cp[(first + 1) // 2]))
            diag, below, off = diag[:m], below[:m], off[:int(below[:m].sum())]
        if len(diag):
            # the step's pivots, ascending; on a failure, only those before it
            d = vals[diag]
            low = d < tau                                 # B1; such a root goes unused
            droot, _ = quantize(np.sqrt(np.maximum(d, tau)), f)
            dr = np.repeat(droot, below)
            colv = vals[off]
            # B2: some entry of a column exceeds droot * x_max while droot < 1
            bad = ~safe_scale_check(dr, np.abs(colv), f)
            if low.any() or bad.any():
                ends = np.cumsum(below)
                low[np.searchsorted(ends, np.flatnonzero(bad), side="right")] = True
                i = int(np.argmax(low))
                j, lo = int(ri[diag[i]]), int(ends[i] - below[i])
                first, outcome = 2 * j, Breakdown("B1" if d[i] < tau else "B2", j)
                diag, droot, off, colv, dr = diag[:i], droot[:i], off[:lo], colv[:lo], dr[:lo]
            vals[diag] = droot
            # quotients only before a failure: a rejected column's may overflow fp64
            vals[off], _ = quantize(colv / dr, f)
    if outcome is not None:
        return outcome
    if not np.all(np.abs(vals) <= f.x_max):
        raise FactorizationError("stored factor value is not finite or exceeds x_max")
    return vals


def shifted_ic(Ahat: SparseSpd, pattern: FillPattern, tau: float | None = None,
               alpha_s: float = 1e-3, f: FpFormat = None,
               max_restarts: int = 40) -> IcFactor:
    """Squeeze, plan and scatter once, then factorize A_low + alpha*I,
    doubling alpha on each breakdown until an attempt succeeds."""
    if f is None:
        raise ValueError("target format required")
    if tau is None:
        tau = default_tau(f)
    if max_restarts < 1:
        raise ValueError("max_restarts must be at least 1")

    Alow, squeezed = squeeze(Ahat, f)
    plan = _step_plan(pattern)
    base = _scatter_into_pattern(Alow, plan)
    diag = pattern.col_ptr[:-1]

    alpha = 0.0
    history = []
    for attempt in range(max_restarts):
        vals = base.copy()
        if alpha != 0.0:
            alpha_f, over = quantize(alpha, f)
            if over:
                raise FactorizationError("shift overflows the target format")
            vals[diag], over = quantize(base[diag] + alpha_f, f)
            if np.any(over):
                raise FactorizationError("shifted diagonal overflows the target format")
        result = ic_attempt(vals, plan, tau, f)
        if not isinstance(result, Breakdown):
            kinds = [b.kind for _, b in history]
            return IcFactor(pattern, result, f, alpha, FactorStats(
                kinds.count("B1"), kinds.count("B3"), attempt,
                tuple((a, b.kind, b.k) for a, b in history), squeezed))
        history.append((alpha, result))
        alpha = max(2.0 * alpha, alpha_s)
    raise ShiftRestartError(history)
