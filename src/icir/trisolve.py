"""Triangular solves with the incomplete factor.

Two execution modes:

  cast_f64   -- the stored (format-representable) entries are promoted to
                fp64 and the substitution runs in double precision; cannot
                overflow.
  native_low -- every divide/multiply/subtract is rounded into the factor's
                format; a result past x_max raises OverflowSignal.  The
                right-hand side is expected to be format-representable
                (apply_preconditioner scales it by its inf-norm first).

Both slice the arrays of the pattern's schedule (icir.symbolic._schedule);
a mode's kernel is built on its first solve and kept by mode in the
pattern's solve_kernel slot, so a run that uses one mode builds one.  cast_f64
walks the elimination levels, forward in order, backward in reverse: a
level is one np.subtract.at of its updates (a level of one column one
ordered np.subtract.reduce), then one division.
The order is fixed, so results do not depend on the BLAS build: unknown j
of L y = w takes its updates l_jk y_k in ascending column k, of L^T y = w
its updates l_ij y_i in descending row i.

native_low gives the bits of the column loops in tests/oracles.py.  The
forward runs the factor's dataflow steps (icir.symbolic._step_times): a
step's tasks, less those whose source y_k was zero at its pivot (the loop
skips that column), round their products l_jk y_k as one batch and their
subtractions as another, a target taking at most one; then each of its
pivots with y_j nonzero divides by l_jj.  The backward walks the levels in
reverse: one rounded batch of the products l_ij y_i of the level's columns,
in the schedule's backward order (rows descending), then per column the
subtractions of its nonzero products, walked back to ascending row, and the
division, each one scalar rounding: Veltkamp's split inline for a result in
[x_min, over_at), icir.precision._round_scalar for any other.

Each direction runs one pass unchecked first (_tested_once): the forward
rounds all its batches, the backward its product batches, by
icir.precision._round_unchecked, and keeps them unrounded for one
_rounds_exactly test at the end; unless all were exact (a zero pivot's
quotient is not), y is restored and the pass rerun checked, by quantize.
An unchecked pass's own failure counts only once that test has passed: an
overflowed unchecked product reaches its chain as inf, where the chain
would report a subtraction.  The chains are checked in both passes; fp16
chains pass through the subnormals, where the split is inexact, so a
deferred test of theirs would fail and rerun too often to pay.

Operations are numbered in the loops' order: forward, 3k is the zero test
and division of column k, 3k + 1 its products, 3k + 2 its subtractions;
backward, with m = n - 1 - j, 4m is the zero test of column j, 4m + 1 its
products, 4m + 2 its subtractions, 4m + 3 its division.  An operation reads
only lower-numbered results, so a checked pass's lowest-numbered failure is
the loop's first, raised with no further rerun.  Operations after it run on
silently (np.errstate), and the backward skips the chains numbered above it.

quantize copies fp64 and flags nothing, so a fp64 native_low solve raises
no OverflowSignal: a result past 2^1024 is left in y as inf or NaN.
icir.refine.ic_lu_ir runs native_low only in the half-width formats, fp16
and bf16.
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np

from .factor import IcFactor
from .precision import _round_scalar, _round_unchecked, _rounds_exactly, quantize
from .sparse import inf_norm_vector
from .symbolic import FillPattern, _schedule, _split

__all__ = ["OverflowSignal", "forward_solve", "backward_solve", "apply_preconditioner"]

CAST_F64 = "cast_f64"
NATIVE_LOW = "native_low"

class OverflowSignal(ArithmeticError):
    """A native_low substitution step overflowed the factor's format."""


def _solve_input(L: IcFactor, w: np.ndarray, exec_mode: str) -> np.ndarray:
    """A fp64 copy of the right-hand side w, once it and exec_mode are checked."""
    if exec_mode not in (CAST_F64, NATIVE_LOW):
        raise ValueError(f"unknown exec mode {exec_mode!r}")
    w = np.asarray(w, dtype=np.float64)
    if w.shape != (L.n,):
        raise ValueError("dimension mismatch")
    return w.copy()


class _LevelKernel:
    """cast_f64 substitution one level at a time, on the schedule's arrays.

    Each step of fsteps (levels in order) and bsteps (levels in reverse)
    holds the level's columns, the slice of their diagonals in diag, and its
    updates' targets and sources and the slice of their values in fpos or
    bpos, in the order np.subtract.at applies them.  A level of one column
    holds its column and diagonal as integers and no targets.  cast_f64
    rounds nothing, so f, the factor's format, goes unused.
    """

    def __init__(self, pattern: FillPattern):
        s = _schedule(pattern)
        fw, bw = s.forward, s.backward
        self.diag, self.fpos, self.bpos = s.diag, fw.pos, bw.pos
        # forward: target row j, source column k; backward: target column k, source row j
        self.fsteps = [_step(s.cols, c, fw.rows, fw.cols, u) for c, u in zip(s.levels, fw.levels)]
        self.bsteps = [_step(s.cols, c, bw.cols, bw.rows, u)
                       for c, u in zip(s.levels[::-1], bw.levels[::-1])]

    def forward(self, v: np.ndarray, y: np.ndarray, f=None) -> None:
        _level_sweep(self.fsteps, v[self.diag], v[self.fpos], y)

    def backward(self, v: np.ndarray, y: np.ndarray, f=None) -> None:
        _level_sweep(self.bsteps, v[self.diag], v[self.bpos], y)


def _step(order, c: slice, tgt, src, vs: slice):
    """The step of the level whose columns are order[c] and whose updates
    are the slice vs of tgt and src."""
    if c.stop - c.start == 1:
        return int(order[c.start]), c.start, None, src[vs], vs
    return order[c], c, tgt[vs], src[vs], vs


def _level_sweep(steps, d: np.ndarray, vals: np.ndarray, y: np.ndarray) -> None:
    for cols, ds, tgt, src, vs in steps:
        if tgt is None:   # one column: its updates in order, then its division
            y[cols] = np.subtract.reduce(vals[vs] * y[src], initial=y[cols]) / d[ds]
            continue
        if len(tgt):
            np.subtract.at(y, tgt, vals[vs] * y[src])
        y[cols] /= d[ds]


class _NativeSteps:
    """native_low substitution: forward by the factor's steps, backward by levels in reverse."""

    def __init__(self, pattern: FillPattern):
        s = _schedule(pattern)
        bw, diag = s.backward, pattern.col_ptr[s.pivots]
        src, tgt, pos = s.src.astype(np.intp), pattern.row_idx[s.task], s.task.astype(np.intp)
        self.fsteps = [(src[t], tgt[t], pos[t], s.pivots[p], diag[p])
                       for t, p in zip(_split(s.task_counts), _split(s.pivot_counts))]
        ends = np.cumsum(s.below)   # each column's chain: its slice of the level's products
        self.bsteps = [(s.cols[c].tolist(), s.cols[c], s.diag[c], bw.pos[o], bw.rows[o],
                        (ends[c] - s.below[c] - o.start).tolist(), (ends[c] - o.start).tolist())
                       for c, o in zip(s.levels[::-1], bw.levels[::-1])]

    def forward(self, vals: np.ndarray, y: np.ndarray, f) -> None:
        _tested_once(self._forward, vals, y, f)

    def backward(self, vals: np.ndarray, y: np.ndarray, f) -> None:
        _tested_once(self._backward, vals, y, f)

    def _forward(self, vals: np.ndarray, y: np.ndarray, f, kept):
        """One pass, unchecked with the unrounded arrays appended to the list
        kept, or with kept None checked; returns the lowest failure."""
        def rounded(x):
            if kept is None:
                return quantize(x, f)
            kept.append(x)
            return _round_unchecked(x, f), False
        live = np.empty(len(y), dtype=bool)   # y_j was nonzero at its pivot
        fail = (3 * len(y), "", 0)            # the lowest failure: number, kind, column
        for src, tgt, pos, cols, diag in self.fsteps:
            if len(src):
                keep, lk = live[src], vals[pos]
                if np.count_nonzero(keep) < len(keep):
                    src, tgt, lk = src[keep], tgt[keep], lk[keep]
                p, over = rounded(lk * y[src])
                if np.count_nonzero(over):
                    fail = min(fail, (3 * (k := int(src[over].min())) + 1, "product", k))
                y[tgt], over = rounded(y[tgt] - p)
                if np.count_nonzero(over):
                    fail = min(fail, (3 * (k := int(src[over].min())) + 2, "subtraction", k))
            if len(cols):
                yj, d = y[cols], vals[diag]
                live[cols] = nz = yj != 0.0
                if np.count_nonzero(nz) < len(nz):
                    cols, yj, d = cols[nz], yj[nz], d[nz]
                # y_j / 0 is infinite, so a zero diagonal overflows as well
                y[cols], over = rounded(yj / d)
                if np.count_nonzero(over):
                    j = int(cols[i := int(np.argmax(over))])
                    fail = min(fail, (3 * j, "division" if d[i] else "zero", j))
        return fail

    def _backward(self, vals: np.ndarray, y: np.ndarray, f, kept):
        """One pass, its product batches unchecked and appended to the list
        kept, or with kept None checked; the chains are checked either way.
        Returns the lowest failure."""
        n, s = len(y), f.split
        # where the split rounds exactly; with no split, an empty range
        lo, hi = (f.x_min, f.over_at) if s else (0.0, 0.0)
        fail = (4 * n, "", 0)
        for cols, ci, diag, pos, rows, starts, ends in self.bsteps:
            x = vals[pos] * y[rows]
            if kept is None:
                p, over = quantize(x, f)
                if np.count_nonzero(over):   # the highest column with an overflowed product
                    j = cols[bisect_right(ends, int(np.flatnonzero(over)[-1]))]
                    fail = min(fail, (4 * (n - 1 - j) + 1, "product", j))
            else:
                kept.append(x)
                p = _round_unchecked(x, f)
            p = p.tolist()
            for j, a, b, acc, d in zip(cols, starts, ends, y[ci].tolist(), vals[diag].tolist()):
                m = 4 * (n - 1 - j)
                if d == 0.0:
                    fail = min(fail, (m, "zero", j))
                elif m + 2 < fail[0]:   # else a lower failure is known, or this is one
                    for q in reversed(p[a:b]):   # rows ascending
                        if q != 0.0:
                            t = acc - q
                            if lo <= abs(t) < hi:   # _round_scalar's split, inline
                                c = t * s
                                acc = c - (c - t)
                                continue
                            acc, over = _round_scalar(t, f)
                            if over:
                                fail = (m + 2, "subtraction", j)
                                break
                    else:
                        t = acc / d
                        if lo <= abs(t) < hi:
                            c = t * s
                            y[j] = c - (c - t)
                        else:
                            y[j], over = _round_scalar(t, f)
                            if over:
                                fail = (m + 3, "division", j)
        return fail


@np.errstate(all="ignore")
def _tested_once(run, vals: np.ndarray, y: np.ndarray, f) -> None:
    """Run the pass run unchecked and test all it kept once; unless every
    rounding was exact, restore y and rerun it checked.  Raise the failure
    of the pass that stands, the unchecked one only if its test passed."""
    if f.cast or f.split:
        w, kept = y.copy(), [np.empty(0)]
        fail = run(vals, y, f, kept)
        ax = np.concatenate(kept)   # with kept, 16 bytes an element until the test
        if _rounds_exactly(np.abs(ax, out=ax), f):
            _raise(*fail)
            return
        y[:] = w
    _raise(*run(vals, y, f, None))


def _raise(number: int, kind: str, j: int) -> None:
    """Raise the failure of kind at column j, if there is one."""
    if kind == "zero":
        raise ZeroDivisionError(f"zero diagonal at column {j}")
    if kind:
        raise OverflowSignal(f"{kind} overflow at column {j}")


def _solve_kernel(pattern: FillPattern, exec_mode: str):
    """The pattern's kernel for exec_mode, built on the mode's first solve."""
    kernels = pattern.solve_kernel = pattern.solve_kernel or {}
    if exec_mode not in kernels:
        kernels[exec_mode] = (_LevelKernel if exec_mode == CAST_F64 else _NativeSteps)(pattern)
    return kernels[exec_mode]


def forward_solve(L: IcFactor, w: np.ndarray, exec_mode: str = CAST_F64) -> np.ndarray:
    """Solve L y = w by substitution."""
    y = _solve_input(L, w, exec_mode)
    _solve_kernel(L.pattern, exec_mode).forward(L.values, y, L.format)
    return y


def backward_solve(L: IcFactor, w: np.ndarray, exec_mode: str = CAST_F64) -> np.ndarray:
    """Solve L^T y = w; column j of L supplies the updates of unknown j."""
    y = _solve_input(L, w, exec_mode)
    _solve_kernel(L.pattern, exec_mode).backward(L.values, y, L.format)
    return y


def apply_preconditioner(L: IcFactor, r: np.ndarray, exec_mode: str = CAST_F64) -> np.ndarray:
    """Apply (L L^T)^-1 to r.

    Both solves run in place on one fp64 copy of r.  native_low first
    scales that copy by its inf-norm and rounds it into the factor's format,
    so that the solve input is representable, then rescales the result in
    fp64.
    """
    y = _solve_input(L, r, exec_mode)
    if exec_mode == NATIVE_LOW:
        nr = inf_norm_vector(y)
        if nr == 0.0:
            return np.zeros(L.n)
        y, _ = quantize(y / nr, L.format)   # |y| <= 1 < 3 <= every x_max
    kernel = _solve_kernel(L.pattern, exec_mode)
    kernel.forward(L.values, y, L.format)
    kernel.backward(L.values, y, L.format)
    return y if exec_mode == CAST_F64 else y * nr
