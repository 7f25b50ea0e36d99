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
  level  -- left-looking over the levels of the pattern's elimination
            schedule (icir.schedule).  Within a level, the updates come in
            rounds: round r applies the r-th update of every target entry of
            the level as one vectorised safe_update_many call, with the
            updates whose b or c is zero left out as the column kernel does.
            Then all pivots of the level are taken at once.

A round costs about half a column step.  The diagonal (j, j) receives an
update from every k in row j, so the level kernel takes R rounds, the sum
over the levels of the largest row count among each level's columns.
ic_attempt runs it when R <= ROUNDS_PER_COLUMN_MAX * n; the two kernels cost
about the same at R of 1.5n to 2n.  The rule depends only on the pattern.
The level kernel's update plan is built once per pattern and kept on the
schedule, so restart attempts reuse it.

A level kernel meets its breakdowns in level order, not column order.  So
when it meets any breakdown or overflow, the attempt is rerun with the
column kernel, which returns the first breakdown in column order (or raises
the FactorizationError), as it always did: the breakdown kind, column and
detail, and with them nmod/nofl, the restart history and alpha, do not
depend on the kernel.  Every operation of the level kernel is one the column
kernel makes on the same values, so an attempt the level kernel completes
the column kernel also completes, with the same values.

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

# the level kernel runs when its update rounds number at most this many per
# column (see the module docstring)
ROUNDS_PER_COLUMN_MAX = 1.0


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
    if sched.rounds <= ROUNDS_PER_COLUMN_MAX * pattern.n:
        if _level_factor(vals, _level_plan(pattern), tau, f, safe_checks):
            return vals
        # a breakdown or overflow: the column loop finds the first one in its order
        vals = _scatter_into_pattern(Alow, pattern, sched.keys)
    return _column_factor(vals, pattern, sched.keys, tau, f, safe_checks)


def _level_plan(pattern: FillPattern) -> list:
    """The level kernel's steps for the pattern, built once and kept on its schedule.

    Step l holds the update rounds of level l, each a triple of position
    arrays (target (i, j), b = l_ik, c = l_jk), then the diagonal and
    off-diagonal positions of the level's columns and their off-diagonal
    counts.  Round r holds the r-th update, in ascending k, of every target
    of the level that has one.
    """
    sched = schedule(pattern)
    if sched.factor_plan is not None:
        return sched.factor_plan
    n, cp, ri = pattern.n, pattern.col_ptr, pattern.row_idx
    level, depth, keys = sched.level, sched.depth, sched.keys
    pos, col = _off_diagonals(pattern)
    # every pair (j, k), (i, k) with j <= i below diagonal k, in the column loop's order
    counts = cp[col[pos] + 1] - pos
    c = np.repeat(pos, counts)
    b = c + np.arange(len(c)) - np.repeat(np.cumsum(counts) - counts, counts)
    tkeys = ri[c] * np.int64(n) + ri[b]
    t = np.minimum(np.searchsorted(keys, tkeys), len(keys) - 1)
    present = keys[t] == tkeys
    del counts, tkeys
    t, b, c = t[present], b[present], c[present]
    # a stable sort by target keeps each target's sources ascending; the
    # rank of an update within its target is its round
    order = np.argsort(t, kind="stable")
    t, b, c = t[order], b[order], c[order]
    first = np.flatnonzero(np.diff(t, prepend=-1))
    rank = np.arange(len(t)) - np.repeat(first, np.diff(first, append=len(t)))
    width = int(rank.max()) + 1 if len(t) else 1
    key = level[col[t]].astype(np.int64) * width + rank
    order = np.argsort(key, kind="stable")
    t, b, c, key = t[order], b[order], c[order], key[order]
    first = np.flatnonzero(np.diff(key, prepend=-1))
    rounds = [[] for _ in range(depth)]
    for lv, s, e in zip((key[first] // width).tolist(), first.tolist(),
                        np.append(first[1:], len(key)).tolist()):
        rounds[lv].append((t[s:e], b[s:e], c[s:e]))
    # columns and their off-diagonals in level order
    corder = np.argsort(level, kind="stable")
    diag = cp[:-1][corder].astype(np.intp)
    below = (np.diff(cp) - 1)[corder]
    off = pos[np.argsort(level[col[pos]], kind="stable")]
    cols = _split(np.bincount(level, minlength=depth))
    offs = _split(np.bincount(level[col[off]], minlength=depth))
    sched.factor_plan = [(r, diag[sc], off[so], below[sc]) for r, sc, so in zip(rounds, cols, offs)]
    return sched.factor_plan


def _level_factor(vals: np.ndarray, steps: list, tau: float, f: FpFormat,
                  safe_checks: bool) -> bool:
    """Factor vals in place level by level.  False at the first breakdown or
    overflow of any kind, leaving vals partly factored."""
    x_max = f.x_max
    for rounds, diag, off, below in steps:
        for t, b, c in rounds:
            bv = vals[b]
            cv = vals[c]
            live = (bv != 0.0) & (cv != 0.0)
            if not live.all():
                t, bv, cv = t[live], bv[live], cv[live]
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
        d = vals[diag]
        if np.any(d < tau):
            return False
        droot, _ = quantize(np.sqrt(d), f)
        dr = np.repeat(droot, below)
        colv = vals[off]
        # B2 for a column is some entry above droot * x_max while droot < 1
        if safe_checks and np.any((dr < 1.0) & (dr * x_max < np.abs(colv))):
            return False
        q, over = quantize(colv / dr, f)
        if np.any(over) or not np.all(np.isfinite(q)):
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
    raise ShiftRestartError(history)
