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
never admit an overflow.  A step's updates first meet one bound,
max|a| + max|b*c| <= x_max/2 (safe_update_many), under which no pair can
trip a guard and neither rounding can overflow: |b*c| <= x_max/2 and
|a - round(b*c)| <= x_max, since x_max/2 is representable and rounding is
monotone.  Such a step is rounded with no guard; only a step that fails the
bound, as NaN, inf and a failed attempt's over_at do, is guarded pair by
pair, with the same values and flags.

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
column k, leaving out those whose b or c is zero as the loop does.  Every
task and pivot runs at the earliest step its inputs allow (_step_times,
from the forward order of the pattern's schedule), so every entry sees the
column loop's order.  A step runs its tasks as one vectorised
safe_update_many call, then its pivots.  The plan holds the pattern, its
position keys and, per step, int32 positions and counts: the tasks with
their pair counts and the pivot columns with their off-diagonals.
ic_attempt factors the values it is given against the plan it is given.  It
writes nothing else but the plan's found, where that is a dict: the pairs
of each step it finds.

The kernel returns the column loop's first breakdown, though it meets
breakdowns in step order.  Number the operations: the pivot of column k is
2k, the scatter from source column k (all of its tasks) 2k + 1.  An
operation reads only results of lower-numbered ones, so the lowest-numbered
failing operation reads clean inputs and is the column loop's first
breakdown, of the same kind and column.  The kernel records a failure only
below the lowest so far.  An operation that reads a failed result is
numbered above that failure and cannot lower it, so it runs on, silently
(np.errstate), until the plan's rest[s], the lowest operation number at
step s or later, exceeds the lowest failure.  A step's B3 is its lowest
source k with an unsafe pair, operation 2k + 1 whatever step it is met in.

shifted_ic wraps ic_attempt in the global-shift loop (Manteuffel, Math.
Comp. 1980): on breakdown the diagonal shift alpha is doubled (starting from
alpha_s) and the factorization restarts.  Only the diagonal changes between
attempts, so the squeeze, the plan and the scatter of A_low into pattern
order (which checks that the pattern covers A's structure) run once per
call, an analyse-once, factorize-many split.  A step's update pairs are
found once per call too, from the first breakdown on: shifted_ic then gives
the plan a found dict, and each later attempt keeps there every step's
present pairs with their targets, (b, c, t), as it first finds them and
reuses those it holds.  Only the live filter (b and c nonzero) reads values,
and it runs on every attempt; filtering by presence first leaves the same
pairs in the same order.  Most restarts break down at the same early column
as the one before and repeat its steps, while a call that never restarts
has nothing to reuse: it keeps no pairs.  Those kept (20 bytes a pair) go
with the plan when the call returns.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .precision import FpFormat, quantize, safe_scale_check, safe_update_many
from .sparse import SparseSpd, SqueezeReport, squeeze
from .symbolic import FillPattern, _schedule, _split

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
    steps: int = 0  # steps of the attempts' dataflow schedule


@dataclass
class IcFactor:
    """Incomplete Cholesky factor L with S{L} = pattern.

    values are fp64 carriers of format-representable numbers, column-major
    with the diagonal first in each column.  They must not change once the
    factor has been solved with: its first solve of each direction and mode
    binds them into that direction's solve groups (icir.trisolve).
    """

    pattern: FillPattern
    values: np.ndarray
    format: FpFormat
    alpha: float
    stats: FactorStats
    # the values bound into the solve groups, by (forward, exec mode),
    # filled by icir.trisolve on each one's first solve
    bound: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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
        super().__init__(
            f"shifted factorization failed after {len(self.history)} attempts ({tried})")


def default_tau(f: FpFormat) -> float:
    """Pivot threshold: 1e-5 for half-width formats and 1e-20 for the others,
    or, where larger, four times the format's smallest positive value (the
    smallest subnormal of a half-width format that has them) or x_min."""
    if f.half_width:
        return max(1e-5, 4.0 * (f.x_s_min if f.supports_subnormals else f.x_min))
    return max(1e-20, 4.0 * f.x_min)


@dataclass(eq=False)
class _StepPlan:
    pattern: FillPattern
    keys: np.ndarray   # col * n + row of every pattern position, ascending
    steps: list        # one tuple of int32 arrays per step
    rest: np.ndarray   # rest[s]: the lowest operation number at step s or later
    # step -> its present update pairs (b, c, t), kept by the attempts after
    # the shifted_ic call's first breakdown; None before it
    found: dict | None


def _step_times(tgt: np.ndarray, src: np.ndarray, levels: list, n: int):
    """The dataflow step of every task and pivot of the n columns, found level
    by level in the forward order (targets tgt, sources src, per-level slices
    levels): the r-th task (j, k) of target j, an off-diagonal l_jk, runs at
    T_r = max(T_{r-1} + 1, P(k_r) + 1), sources k ascending, and the pivot of
    j at P(j) = T_last (0 without tasks).
    Returns the tasks' forward indices by step, the task count of every step,
    the columns by step (ascending within one) and the pivot count of every
    step."""
    first = np.flatnonzero(np.diff(tgt, prepend=-1))
    sizes = np.diff(first, append=len(tgt))
    # T_r = r + max_{s <= r} (P(k_s) + 1 - s) for the r-th task (from 1) of a
    # target; one running maximum per level, with the targets kept apart by
    # offsets wider than the values' range (P < 2n)
    w = np.repeat(first.astype(np.int64) * (4 * n) + first, sizes)
    w -= np.arange(1, len(tgt) + 1)
    P = np.zeros(n, dtype=np.int64)
    T = np.empty(len(tgt), dtype=np.int64)
    for sl in levels:
        v = P[src[sl]] + w[sl]
        np.maximum.accumulate(v, out=v)
        T[sl] = v - w[sl] + 1
        np.maximum.at(P, tgt[sl], T[sl])
    del w
    steps = int(P.max(initial=-1)) + 1
    return (np.argsort(T, kind="stable"), np.bincount(T, minlength=steps),
            np.argsort(P, kind="stable"), np.bincount(P, minlength=steps))


def _step_plan(pattern: FillPattern) -> _StepPlan:
    """The step kernel's plan for the pattern, from the dataflow steps of
    its schedule's forward order.

    A step's (task, pairs, shift) describe its tasks: the position of l_jk
    of every task (j, k), its pair count (the positions from l_jk to the end
    of column k, those of the l_ik), and the shift that puts those positions
    at shift + their index among the step's pairs.  (diag, below, off)
    describe its pivots in ascending column: their diagonal positions,
    off-diagonal counts and off-diagonal positions.
    """
    n, cp = pattern.n, pattern.col_ptr
    s = _schedule(pattern)
    by_step, task_counts, pivots, pivot_counts = _step_times(pattern.row_idx[s.pos], s.src,
                                                             s.order, n)
    task, src, steps = s.pos[by_step], s.src[by_step], len(task_counts)
    del by_step
    P = np.repeat(np.arange(steps), pivot_counts)
    # pivot j is operation 2j, the scatter from source k operation 2k + 1
    rest = np.full(steps, 2 * n, dtype=np.int64)
    np.minimum.at(rest, np.repeat(np.arange(steps), task_counts), 2 * src + 1)
    np.minimum.at(rest, P, 2 * pivots)
    rest = np.minimum.accumulate(rest[::-1])[::-1].copy()
    diag = cp[pivots].astype(np.int32)
    below = (cp[pivots + 1] - 1 - diag).astype(np.int32)
    # every off-diagonal, column by column in pivot order
    off = np.arange(len(task)) + np.repeat(diag + 1 - np.cumsum(below) + below, below)
    off = off.astype(np.int32)
    pairs = (cp[src + 1] - task).astype(np.int32)
    del src
    # a task's pair positions, from l_jk to the end of column k, are its
    # shift plus the pairs' index within the step
    before = np.concatenate(([0], np.cumsum(pairs)))   # the pairs before each task, and all
    shift = np.repeat(before[np.cumsum(task_counts) - task_counts], task_counts)
    shift = (shift - before[:-1] + task).astype(np.int32)
    task = task.astype(np.int32)
    keys = np.repeat(np.arange(n, dtype=np.int64) * n, np.diff(cp)) + pattern.row_idx
    splits = zip(_split(task_counts), _split(pivot_counts),
                 _split(np.bincount(P, below, minlength=steps).astype(np.int64)))
    return _StepPlan(pattern, keys, [(task[a], pairs[a], shift[a], diag[b], below[b], off[o])
                                     for a, b, o in splits], rest, None)


def _step_pairs(plan: _StepPlan, task, pairs, shift):
    """A step's update pairs whose target is in the pattern, in the step's
    order: the positions b of l_ik, c of l_jk and t of the target (i, j)."""
    n, ri, keys = plan.pattern.n, plan.pattern.row_idx, plan.keys
    c = np.repeat(task, pairs)
    b = np.arange(len(c)) + np.repeat(shift, pairs)
    tkeys = ri[c] * np.int64(n) + ri[b]
    # no key exceeds the last one, that of (n - 1, n - 1)
    t = np.searchsorted(keys, tkeys)
    present = keys[t] == tkeys
    if not present.all():
        b, c, t = b[present], c[present], t[present]
    return b, c, t


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


@np.errstate(all="ignore")
def ic_attempt(vals: np.ndarray, plan: _StepPlan, tau: float, f: FpFormat):
    """One guarded factorization attempt of the pattern-ordered vals, in
    place, step by step, in any format.  Returns vals on success, else the
    first Breakdown (kind, column) in column order."""
    smallest = f.x_s_min if f.supports_subnormals else f.x_min
    if not tau > smallest:
        raise ValueError("tau must exceed the smallest positive representable value")
    pattern, found = plan.pattern, plan.found
    n, cp, ri = pattern.n, pattern.col_ptr, pattern.row_idx
    # the lowest failing operation so far (2n: none) and its Breakdown; those
    # above it may read failed values (a rejected column's quotients overflow)
    first, outcome = 2 * n, None
    for s, (task, pairs, shift, diag, below, off) in enumerate(plan.steps):
        if plan.rest[s] > first:
            break
        if len(task):
            if found is not None and s in found:
                b, c, t = found[s]
            else:
                b, c, t = _step_pairs(plan, task, pairs, shift)
                if found is not None:
                    found[s] = b, c, t
            bv = vals[b]
            cv = vals[c]
            live = (bv != 0.0) & (cv != 0.0)
            all_live = live.all()
            if not all_live:
                t, bv, cv = t[live], bv[live], cv[live]
            v, bad = safe_update_many(vals[t], bv, cv, f)
            if bad.any():
                if not all_live:
                    c = c[live]
                # the lowest source with an unsafe pair (c ascends with it)
                k = int(np.searchsorted(cp, c[bad].min(), side="right")) - 1
                if 2 * k + 1 < first:
                    first, outcome = 2 * k + 1, Breakdown("B3", k)
            vals[t] = v
        if len(diag):
            # the step's pivots, ascending
            d = vals[diag]
            low = d < tau                                 # B1; such a root goes unused
            droot, _ = quantize(np.sqrt(np.maximum(d, tau)), f)
            dr = np.repeat(droot, below)
            colv = vals[off]
            # B2: some entry of a column exceeds droot * x_max while droot < 1
            bad = ~safe_scale_check(dr, np.abs(colv), f)
            if low.any() or bad.any():
                low[np.searchsorted(np.cumsum(below), np.flatnonzero(bad), side="right")] = True
                i = int(np.argmax(low))
                j = int(ri[diag[i]])
                if 2 * j < first:
                    first, outcome = 2 * j, Breakdown("B1" if d[i] < tau else "B2", j)
            vals[diag] = droot
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
    del Alow   # the attempts read only base
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
                tuple((a, b.kind, b.k) for a, b in history), squeezed, len(plan.steps)))
        history.append((alpha, result))
        if plan.found is None:
            plan.found = {}   # the restarts keep the pairs they find
        alpha = max(2.0 * alpha, alpha_s)
    raise ShiftRestartError(history)
