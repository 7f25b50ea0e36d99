"""Triangular solves with the incomplete factor.

Two execution modes:

  cast_f64   -- the stored (format-representable) entries are promoted to
                fp64 and the substitution runs in double precision; cannot
                overflow.
  native_low -- every divide/multiply/subtract is rounded into the factor's
                format; a result past x_max raises OverflowSignal.  The
                right-hand side is expected to be format-representable
                (apply_preconditioner scales it by its inf-norm first).

Both run from the pattern's schedule (icir.symbolic), with index arrays
built on a mode's first solve and kept by mode in the pattern's
solve_kernel slot, so a run that uses one mode builds one.  cast_f64
walks the elimination levels, forward in order, backward in reverse: a
level is one np.subtract.at of its updates (a level of one column one
ordered np.subtract.reduce), then one division.
The order is fixed, so results do not depend on the BLAS build: unknown j
of L y = w takes its updates l_jk y_k in ascending column k, of L^T y = w
its updates l_ij y_i in descending row i.

native_low gives the bits of the column loops in tests/oracles.py.  The
forward runs the factor's dataflow steps (icir.symbolic._steps): a
step's tasks, less those whose source y_k was zero at its pivot (the loop
skips that column), round their products l_jk y_k as one batch and their
subtractions as another, a target taking at most one; then each of its
pivots with y_j nonzero divides by l_jj.  The backward walks the levels in
reverse: one rounded batch of the products l_ij y_i of the level's columns,
then per column the subtractions of its nonzero products in ascending row,
one scalar rounding each, and the division.

The forward runs its steps unchecked first, each batch rounded by
icir.precision._round_unchecked, and tests the unrounded batches once at
the end with _rounds_exactly; unless all were exact (a zero pivot's
quotient is not), it restores y and reruns the steps checked, by quantize.

Operations are numbered in the loops' order: forward, 3k is the zero test
and division of column k, 3k + 1 its products, 3k + 2 its subtractions;
backward, with m = n - 1 - j, 4m is the zero test of column j, 4m + 1 its
products, 4m + 2 its subtractions, 4m + 3 its division.  An operation reads
only lower-numbered results, so a checked pass's lowest-numbered failure is
the loop's first, raised with no further rerun.  Operations after it run on
silently (np.errstate), and the backward skips the chains numbered above it.
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np

from .factor import IcFactor
from .precision import _round_scalar, _round_unchecked, _rounds_exactly, quantize
from .sparse import inf_norm_vector
from .symbolic import FillPattern, _off_diagonals, _split, _steps

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
    """cast_f64 substitution one level at a time.

    Each step of fsteps (levels in order) and bsteps (levels in reverse)
    holds the level's columns, the slice of their diagonals in level order,
    and its updates' targets and sources and the slice of their values in
    fpos or bpos order, in the order np.subtract.at applies them.  A level
    of one column holds its column and diagonal as integers and no targets.
    Index arrays are np.intp, which indexing and ufunc.at take as they are;
    f, the factor's format, goes unused, since cast_f64 rounds nothing.
    """

    def __init__(self, pattern: FillPattern):
        n, ri, level, depth = pattern.n, pattern.row_idx, pattern.column_level, pattern.depth
        order = np.argsort(level, kind="stable")
        self.diag = pattern.col_ptr[:-1][order].astype(np.intp)
        rank = np.empty(n, dtype=np.int32)
        rank[order] = np.arange(n, dtype=np.int32)
        pos, col = _off_diagonals(pattern)
        # forward: target row i, source column k; CSC order has k ascending
        self.fpos = pos[np.argsort(rank[ri[pos]], kind="stable")]
        ftgt = ri[self.fpos].astype(np.intp)
        fsrc = col[self.fpos].astype(np.intp)
        # backward: target column j, source row i; reversed CSC order has i descending
        pos = pos[::-1]
        self.bpos = pos[np.argsort(rank[col[pos]], kind="stable")]
        del pos, rank
        btgt = col[self.bpos].astype(np.intp)
        bsrc = ri[self.bpos].astype(np.intp)
        del col
        levels = _split(np.bincount(level, minlength=depth))
        fsplit = _split(np.bincount(level[ftgt], minlength=depth))
        bsplit = _split(np.bincount(level[btgt], minlength=depth))
        self.fsteps = [_step(order, c, ftgt, fsrc, f) for c, f in zip(levels, fsplit)]
        self.bsteps = [_step(order, c, btgt, bsrc, b) for c, b in zip(levels, bsplit)][::-1]

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
    """native_low substitution, the forward from the factor's steps, the
    backward from the levels in reverse; index arrays are np.intp."""

    def __init__(self, pattern: FillPattern):
        cp, ri, level = pattern.col_ptr, pattern.row_idx, pattern.column_level
        task, src, T, P = _steps(pattern)
        pos, src, tgt = task.astype(np.intp), src.astype(np.intp), ri[task].astype(np.intp)
        cols = np.argsort(P, kind="stable")
        diag = cp[cols].astype(np.intp)
        split = [_split(np.bincount(t, minlength=int(P.max(initial=-1)) + 1)) for t in (T, P)]
        self.fsteps = [(src[t], tgt[t], pos[t], cols[p], diag[p]) for t, p in zip(*split)]
        cols = np.argsort(level, kind="stable")
        diag = cp[cols].astype(np.intp)
        below = cp[cols + 1] - 1 - diag
        ends = np.cumsum(below)
        pos = (np.arange(below.sum()) + np.repeat(diag + 1 - ends + below, below)).astype(np.intp)
        rows = ri[pos].astype(np.intp)
        self.bsteps = []
        for c in _split(np.bincount(level, minlength=pattern.depth))[::-1]:
            o = slice(int(ends[c.start] - below[c.start]), int(ends[c.stop - 1]))
            e = ends[c] - o.start
            self.bsteps.append((cols[c].tolist(), cols[c], diag[c], pos[o], rows[o],
                                (e - below[c]).tolist(), e.tolist()))

    @np.errstate(all="ignore")
    def forward(self, vals: np.ndarray, y: np.ndarray, f) -> None:
        if f.cast or f.split:   # unchecked, then checked unless every rounding was exact
            w, kept = y.copy(), [np.empty(0)]
            self._forward(vals, y, f, kept)
            ax = np.concatenate(kept)   # with kept, about 32 bytes a task until the test
            if _rounds_exactly(np.abs(ax, out=ax), f):
                return
            y[:] = w
        self._forward(vals, y, f, None)

    def _forward(self, vals: np.ndarray, y: np.ndarray, f, kept) -> None:
        """One pass, unchecked with the unrounded arrays appended to the list
        kept, or with kept None checked, raising the lowest failure."""
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
        _raise(*fail)

    @np.errstate(all="ignore")
    def backward(self, vals: np.ndarray, y: np.ndarray, f) -> None:
        n = len(y)
        fail = (4 * n, "", 0)
        for cols, ci, diag, pos, rows, starts, ends in self.bsteps:
            p, over = quantize(vals[pos] * y[rows], f)
            if np.count_nonzero(over):   # the highest column with an overflowed product
                j = cols[bisect_right(ends, int(np.flatnonzero(over)[-1]))]
                fail = min(fail, (4 * (n - 1 - j) + 1, "product", j))
            p = p.tolist()
            for j, a, b, acc, d in zip(cols, starts, ends, y[ci].tolist(), vals[diag].tolist()):
                m = 4 * (n - 1 - j)
                if d == 0.0:
                    fail = min(fail, (m, "zero", j))
                elif m + 2 < fail[0]:   # else a lower failure is known, or this is one
                    for q in p[a:b]:
                        if q != 0.0:
                            acc, over = _round_scalar(acc - q, f)
                            if over:
                                fail = (m + 2, "subtraction", j)
                                break
                    else:
                        y[j], over = _round_scalar(acc / d, f)
                        if over:
                            fail = (m + 3, "division", j)
        _raise(*fail)


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
