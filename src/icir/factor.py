"""Numeric incomplete Cholesky factorization in a simulated format.

ic_attempt runs an incomplete Cholesky factorization restricted to a given
fill pattern, with every operation rounded into the target format.  Three
breakdown modes are detected:

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

Entry (i, j) of the factor takes one update a - l_ik l_jk from every column
k < j with (i, k) and (j, k) in the pattern, rounded after each, in
ascending k; then column j takes its pivot (B1 test, rounded square root,
B2 test, scaled column).  Two kernels keep that order, so they give the
same bits:

  column -- right-looking, one Python step per column: pivot column k, then
            scatter its updates into the columns to its right;
  steps  -- a dataflow schedule of tasks and pivots.  A task (j, k) is one
            off-diagonal l_jk of the pattern: column j takes its update from
            source column k, a - l_ik l_jk on every present (i, j) with
            i >= j, the pairs the column loop scatters from column k.  Each
            step runs its tasks as one vectorised safe_update_many call, with
            the updates whose b or c is zero left out as the column kernel
            does, then the pivots of the columns whose last task has run.

Each task runs at the earliest step its inputs allow.  For the r-th task of
target column j (sources k ascending), T_r = max(T_{r-1} + 1, P(k_r) + 1),
and the pivot of column j runs at P(j) = T_last, or at step 0 when j has no
tasks.  A step thus holds at most one task per target column, every task
runs after its source's pivot, and every pivot after its column's last
update: the column kernel's order on every entry.  One step can mix work of
many levels of the elimination schedule (icir.schedule), whose levels order
the computation of the step times, one segmented running maximum per level.
The step plan holds int32 positions and counts only, never one entry per
update: per step the tasks with their pair counts, and the pivot columns
with their off-diagonals.  It is built once per pattern and kept on the
schedule while shifted_ic runs, so restart attempts reuse it; shifted_ic
drops it when it returns or raises.

The pattern needs S steps, at most 2n, and a step costs about as much as
one or two column steps.  ic_attempt runs the steps when
S <= STEPS_PER_COLUMN_MAX * n, a rule that depends only on the pattern.
Above it, as on dense patterns (S = n), the column loop is as fast, and an
attempt that breaks down pays for the column loop anyway.  A pivot runs at
least one step after each of its sources, so S is at least the depth of the
schedule, and a deeper pattern takes the column loop without a plan.

The steps meet their breakdowns in step order, not column order.  So when
they meet any breakdown or overflow, the attempt is rerun with the column
kernel, which returns the first breakdown in column order (or raises the
FactorizationError), as it always did: the breakdown kind, column and
detail, and with them nmod/nofl, the restart history and alpha, do not
depend on the kernel.  Every operation of the steps is one the column
kernel makes on the same values, so an attempt the steps complete the
column kernel also completes, with the same values.

shifted_ic wraps ic_attempt in the usual global-shift loop: on breakdown the
diagonal shift alpha is doubled (starting from alpha_s) and the factorization
restarts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .precision import (FpFormat, _round_scalar, quantize, safe_scale_check,
                        safe_update_many)
from .schedule import _off_diagonals, _split, schedule
from .sparse import SparseSpd, squeeze
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

# the step kernel runs when the pattern's steps number at most this many per
# column (see the module docstring)
STEPS_PER_COLUMN_MAX = 0.5


class FactorizationError(RuntimeError):
    """Unexpected numerical failure (e.g. overflow with safety checks disabled)."""


@dataclass(frozen=True)
class Breakdown:
    """A detected breakdown; normal control flow, not an error."""

    kind: str  # "B1" | "B2" | "B3"
    k: int     # column at which it occurred
    detail: tuple = ()


@dataclass(frozen=True)
class FactorStats:
    nmod: int      # B1 occurrences across all attempts
    nofl: int      # B3 occurrences across all attempts
    restarts: int  # attempts - 1


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


def _scatter_into_pattern(Alow: SparseSpd, pattern: FillPattern, keys: np.ndarray) -> np.ndarray:
    vals = np.zeros(pattern.nnz, dtype=np.float64)
    akeys = Alow.entry_col * np.int64(Alow.n) + Alow.row_idx
    pos = np.searchsorted(keys, akeys)
    if np.any(pos >= len(keys)) or np.any(keys[np.minimum(pos, len(keys) - 1)] != akeys):
        raise ValueError("pattern does not cover the matrix structure")
    vals[pos] = Alow.values
    return vals


def _triangular_pairs(m: int):
    """Index pairs (t, s) with s >= t for a column of m off-diagonal entries."""
    counts = m - np.arange(m)
    t = np.repeat(np.arange(m), counts)
    group_start = np.repeat(np.cumsum(counts) - counts, counts)
    s = np.arange(len(t)) - group_start + t
    return t, s


def ic_attempt(Alow: SparseSpd, pattern: FillPattern, tau: float, f: FpFormat,
               safe_checks: bool):
    """One factorization attempt.  Returns the value array on success, else a Breakdown.

    With safe_checks=False only the B1 pivot test is performed (the intended
    mode for fp32/fp64, where the scaled problem cannot overflow).
    """
    smallest = f.x_s_min if f.supports_subnormals else f.x_min
    if not tau > smallest:
        raise ValueError("tau must exceed the smallest positive representable value")

    sched = schedule(pattern)
    vals = _scatter_into_pattern(Alow, pattern, sched.keys)
    most = STEPS_PER_COLUMN_MAX * pattern.n
    # S >= depth, so a deep pattern fails the rule without a plan
    if sched.depth <= most:
        if sched.factor_plan is None:
            sched.factor_plan = _step_plan(pattern)
        if len(sched.factor_plan) <= most:
            if _step_factor(vals, sched.factor_plan, pattern, sched.keys, tau, f, safe_checks):
                return vals
            # a breakdown or overflow: the column loop finds the first one in its order
            vals = _scatter_into_pattern(Alow, pattern, sched.keys)
    return _column_factor(vals, pattern, sched.keys, tau, f, safe_checks)


def _step_plan(pattern: FillPattern) -> list:
    """The step kernel's plan for the pattern, one tuple of int32 arrays per step.

    A step's (task, pairs, shift) describe its tasks: the position of l_jk
    of every task (j, k) that runs at the step, its pair count (the
    positions from l_jk to the end of column k, those of the l_ik), and the
    shift that puts those positions at shift + their index among the step's
    pairs.  (diag, below, off) describe its pivots: the diagonal positions
    of the columns whose pivot runs at the step, their off-diagonal counts
    and their off-diagonal positions.  The step times are found level by
    level, since a task's time needs its source's pivot time.
    """
    n, cp, ri = pattern.n, pattern.col_ptr, pattern.row_idx
    sched = schedule(pattern)
    level = sched.level
    pos, col = _off_diagonals(pattern)
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
    return [(task[a], pairs[a], shift[a], diag[b], below[b], off[o])
            for a, b, o in zip(_split(per_step), psplit, osplit)]


def _step_factor(vals: np.ndarray, steps: list, pattern: FillPattern, keys: np.ndarray,
                 tau: float, f: FpFormat, safe_checks: bool) -> bool:
    """Factor vals in place step by step.  False at the first breakdown or
    overflow of any kind, leaving vals partly factored."""
    n, ri = pattern.n, pattern.row_idx
    x_max = f.x_max
    for task, pairs, shift, diag, below, off in steps:
        if len(task):
            # target (i, j) = (row of b, row of c), b = l_ik, c = l_jk
            c = np.repeat(task, pairs)
            b = np.arange(len(c)) + np.repeat(shift, pairs)
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
                t, bv, cv = t[present], bv[present], cv[present]
            a = vals[t]
            if safe_checks:
                v, bad = safe_update_many(a, bv, cv, f)
            else:
                w, bad = quantize(bv * cv, f)
                v, over_v = quantize(a - w, f)
                bad |= over_v | ~np.isfinite(v)
            if bad.any():
                return False
            vals[t] = v
        if not len(diag):
            continue
        d = vals[diag]
        if (d < tau).any():
            return False
        droot, _ = quantize(np.sqrt(d), f)
        dr = np.repeat(droot, below)
        colv = vals[off]
        # B2 for a column is some entry above droot * x_max while droot < 1
        if safe_checks and ((dr < 1.0) & (dr * x_max < np.abs(colv))).any():
            return False
        q, over = quantize(colv / dr, f)
        if over.any() or not np.isfinite(q).all():
            return False
        vals[diag] = droot
        vals[off] = q
    return True


def _column_factor(vals: np.ndarray, pattern: FillPattern, keys: np.ndarray, tau: float,
                   f: FpFormat, safe_checks: bool):
    """Factor vals in place column by column (right-looking).  Returns vals or
    the first Breakdown in column order."""
    n = pattern.n
    col_ptr = pattern.col_ptr
    rows_all = pattern.row_idx
    nnz = len(vals)

    for k in range(n):
        s0, e0 = col_ptr[k], col_ptr[k + 1]
        d = vals[s0]
        if d < tau:
            return Breakdown("B1", k, (d,))
        droot, _ = _round_scalar(math.sqrt(d), f)
        colv = vals[s0 + 1:e0]
        m = e0 - 1 - s0
        if safe_checks and droot < 1.0:
            a = float(np.max(np.abs(colv))) if m else 0.0
            if not safe_scale_check(droot, a, f):
                return Breakdown("B2", k, (droot, a))
        q, over = quantize(colv / droot, f)
        if np.any(over) or not np.all(np.isfinite(q)):
            if safe_checks:  # unreachable given the guard; stay conservative
                return Breakdown("B2", k, (droot,))
            raise FactorizationError(f"column scaling overflowed at k={k} without safe checks")
        vals[s0] = droot
        vals[s0 + 1:e0] = q
        if m == 0:
            continue

        rows = rows_all[s0 + 1:e0]
        t, s = _triangular_pairs(m)
        c = q[t]   # l_jk for target column j = rows[t]
        b = q[s]   # l_ik for target row i = rows[s]
        live = (b != 0.0) & (c != 0.0)
        if not np.any(live):
            continue
        t, s, b, c = t[live], s[live], b[live], c[live]
        qkeys = rows[t] * np.int64(n) + rows[s]
        pos = np.searchsorted(keys, qkeys)
        present = (pos < nnz)
        pos_c = np.minimum(pos, nnz - 1)
        present &= keys[pos_c] == qkeys
        if not np.any(present):
            continue
        pos = pos_c[present]
        b = b[present]
        c = c[present]
        a = vals[pos]
        if safe_checks:
            v, unsafe = safe_update_many(a, b, c, f)
            if np.any(unsafe):
                bad = int(np.argmax(unsafe))
                return Breakdown("B3", k, (a[bad], b[bad], c[bad]))
            vals[pos] = v
        else:
            w, over_w = quantize(b * c, f)
            v, over_v = quantize(a - w, f)
            if np.any(over_w) or np.any(over_v) or not np.all(np.isfinite(v)):
                raise FactorizationError(f"update overflowed at k={k} without safe checks")
            vals[pos] = v

    if np.any(np.abs(vals) > f.x_max):
        raise FactorizationError("stored factor value exceeds x_max")  # defensive
    return vals


def shifted_ic(Ahat: SparseSpd, pattern: FillPattern, tau: float | None = None,
               alpha_s: float = 1e-3, f: FpFormat = None,
               max_restarts: int = 40) -> IcFactor:
    """Squeeze the scaled matrix into f once, then factorize A_low + alpha*I,
    doubling alpha on each breakdown until an attempt succeeds."""
    if f is None:
        raise ValueError("target format required")
    if tau is None:
        tau = default_tau(f)
    if max_restarts < 1:
        raise ValueError("max_restarts must be at least 1")

    Alow, _ = squeeze(Ahat, f)
    diag_pos = Alow.diag_positions()
    base_diag = Alow.values[diag_pos].copy()

    alpha = 0.0
    nmod = nofl = 0
    history = []
    try:
        for attempt in range(max_restarts):
            work = Alow
            if alpha != 0.0:
                alpha_f, over = _round_scalar(alpha, f)
                if over:
                    raise FactorizationError("shift overflows the target format")
                shifted, over_d = quantize(base_diag + alpha_f, f)
                if np.any(over_d):
                    raise FactorizationError("shifted diagonal overflows the target format")
                v = Alow.values.copy()
                v[diag_pos] = shifted
                work = Alow.with_values(v)
            result = ic_attempt(work, pattern, tau, f, f.half_width)  # full guards in half width
            if not isinstance(result, Breakdown):
                return IcFactor(pattern, result, f, alpha,
                                FactorStats(nmod=nmod, nofl=nofl, restarts=attempt))
            history.append((alpha, result))
            if result.kind == "B1":
                nmod += 1
            elif result.kind == "B3":
                nofl += 1
            alpha = max(2.0 * alpha, alpha_s)
    finally:
        # the restarts are over, and only ic_attempt reads the step plan
        if pattern.schedule is not None:
            pattern.schedule.factor_plan = None
    raise ShiftRestartError(history)
