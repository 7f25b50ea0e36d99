"""Triangular solves with the incomplete factor.

Two execution modes:

  cast_f64   -- the stored (format-representable) entries are promoted to
                fp64 on the fly and the substitution runs entirely in double
                precision using one temporary vector; cannot overflow.
  native_low -- every divide/multiply/subtract is rounded into the factor's
                format; one rule, _checked, raises OverflowSignal for any
                result past x_max, the overflow the factor's guards test.
                The right-hand side is expected to be format-representable
                (apply_preconditioner scales it by its inf-norm first).

cast_f64 runs from the pattern's elimination schedule (icir.schedule), the
same column levels the factor ran from, cached on the FillPattern.  Its
gather lists are built on the first cast_f64 solve and kept on the
schedule.  All columns of one level are independent, so each level is one
vectorised step: an np.subtract.at that applies the level's pending
updates, then one division by the diagonals.  The forward solve walks the
levels in order, the backward solve walks them in reverse.

The summation order is fixed, so cast_f64 results do not depend on the
BLAS build: unknown j of L y = w takes its updates l_jk y_k in ascending
source column k, and unknown j of L^T y = w takes its updates l_ij y_i in
descending source row i.  Each update is one rounded product and one
rounded subtraction.  The forward order is that of a column-oriented
substitution and the backward order that of a row-oriented one.

A level step costs about eight NumPy calls, which loses to a plain
column-by-column substitution when the levels hold about one column each.
The solve therefore picks its kernel from the mean level width n / depth:
level steps from LEVEL_WIDTH_MIN up, otherwise a forward column scatter and
a backward row scatter over per-column and per-row views built once.  Both
kernels carry out the same operations in the same order, so their results
are identical apart from the sign of an exact zero.
"""

from __future__ import annotations

import numpy as np

from .factor import IcFactor
from .precision import _round_scalar, quantize
from .schedule import _off_diagonals, _split, schedule
from .sparse import inf_norm_vector
from .symbolic import FillPattern

__all__ = ["OverflowSignal", "forward_solve", "backward_solve", "apply_preconditioner"]

CAST_F64 = "cast_f64"
NATIVE_LOW = "native_low"

# mean level width n / depth from which the level kernel beats the column
# kernel; the two cost about the same at widths 1.6-1.9
LEVEL_WIDTH_MIN = 2.0


class OverflowSignal(ArithmeticError):
    """A native_low substitution step overflowed the factor's format."""


def _checked(rounded, op: str, j: int):
    value, over = rounded
    if over is True or over is not False and over.any():   # a bool or a mask
        raise OverflowSignal(f"{op} overflow at column {j}")
    return value


def _solve_input(L: IcFactor, w: np.ndarray, exec_mode: str) -> np.ndarray:
    """A fp64 copy of the right-hand side w, once it and exec_mode are checked."""
    if exec_mode not in (CAST_F64, NATIVE_LOW):
        raise ValueError(f"unknown exec mode {exec_mode!r}")
    w = np.asarray(w, dtype=np.float64)
    if w.shape != (L.n,):
        raise ValueError("dimension mismatch")
    return w.copy()


class _LevelKernel:
    """Substitution one level at a time.

    Each step of fsteps (levels in order) and bsteps (levels in reverse)
    holds the level's columns, the slice of their diagonals in level order,
    and the level's gather list: targets, sources, and the slice of their
    values in the kernel's value order (fpos, bpos).  Forward targets take
    their sources in ascending column order, backward targets in descending
    row order, and np.subtract.at applies them in that order.  Index arrays
    are np.intp, which fancy indexing and ufunc.at use without a conversion.
    """

    def __init__(self, pattern: FillPattern, level: np.ndarray, depth: int):
        n, ri = pattern.n, pattern.row_idx
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
        self.fsteps = [(order[c], c, ftgt[f], fsrc[f], f) for c, f in zip(levels, fsplit)]
        self.bsteps = [(order[c], c, btgt[b], bsrc[b], b) for c, b in zip(levels, bsplit)][::-1]

    def forward(self, v: np.ndarray, y: np.ndarray) -> None:
        _level_sweep(self.fsteps, v[self.diag], v[self.fpos], y)

    def backward(self, v: np.ndarray, y: np.ndarray) -> None:
        _level_sweep(self.bsteps, v[self.diag], v[self.bpos], y)


def _level_sweep(steps, d: np.ndarray, vals: np.ndarray, y: np.ndarray) -> None:
    for cols, ds, tgt, src, vs in steps:
        if len(tgt):
            np.subtract.at(y, tgt, vals[vs] * y[src])
        y[cols] /= d[ds]


class _ColumnKernel:
    """Substitution one column at a time, for schedules too narrow for levels.

    The forward solve scatters each finished unknown down its column of L,
    the backward solve scatters it along its row, which gives the same
    update order as the level kernel.  below[j] and left[i] are views of the
    rows below diagonal j and of the columns left of diagonal i, with the
    slice of their values in CSC and in row (rpos) order, or None where
    there are none.
    """

    def __init__(self, pattern: FillPattern):
        n, cp = pattern.n, pattern.col_ptr
        ri = pattern.row_idx.astype(np.intp, copy=False)
        self.diag = cp[:-1].astype(np.intp)
        ptr = cp.tolist()
        self.below = [(ri[s + 1:e], slice(s + 1, e)) if e > s + 1 else None
                      for s, e in zip(ptr[:-1], ptr[1:])]
        pos, col = _off_diagonals(pattern)
        # row order of the strict lower triangle; columns ascend within a row
        self.rpos = pos[np.argsort(ri[pos], kind="stable")]
        del pos
        rcols = col[self.rpos].astype(np.intp)
        self.left = [(rcols[sl], sl) if sl.stop > sl.start else None
                     for sl in _split(np.bincount(ri[self.rpos], minlength=n))]

    def forward(self, v: np.ndarray, y: np.ndarray) -> None:
        _scatter_sweep(range(len(y)), self.below, v[self.diag].tolist(), v, y)

    def backward(self, v: np.ndarray, y: np.ndarray) -> None:
        _scatter_sweep(range(len(y) - 1, -1, -1), self.left, v[self.diag].tolist(),
                       v[self.rpos], y)


def _scatter_sweep(order, views, d: list, vals: np.ndarray, y: np.ndarray) -> None:
    for j in order:
        yj = y[j] / d[j]
        y[j] = yj
        view = views[j]
        if view is not None:
            idx, vs = view
            y[idx] -= vals[vs] * yj


def _solve_kernel(pattern: FillPattern):
    """The cast_f64 kernel of the pattern's schedule, built on first use."""
    sched = schedule(pattern)
    if sched.solve_kernel is None:
        if pattern.n >= LEVEL_WIDTH_MIN * sched.depth:
            sched.solve_kernel = _LevelKernel(pattern, sched.level, sched.depth)
        else:
            sched.solve_kernel = _ColumnKernel(pattern)
    return sched.solve_kernel


def forward_solve(L: IcFactor, w: np.ndarray, exec_mode: str = CAST_F64) -> np.ndarray:
    """Solve L y = w by substitution."""
    y = _solve_input(L, w, exec_mode)
    vals = L.values
    if exec_mode == CAST_F64:
        _solve_kernel(L.pattern).forward(vals, y)
        return y

    cp = L.pattern.col_ptr
    rows_all = L.pattern.row_idx
    f = L.format
    for j in range(L.n):
        s, e = cp[j], cp[j + 1]
        yj = y[j]
        if yj == 0.0:
            continue
        d = vals[s]
        if d == 0.0:
            raise ZeroDivisionError(f"zero diagonal at column {j}")
        y[j] = yj = _checked(_round_scalar(yj / d, f), "division", j)
        if e > s + 1:
            prod = _checked(quantize(vals[s + 1:e] * yj, f), "product", j)
            idx = rows_all[s + 1:e]
            y[idx] = _checked(quantize(y[idx] - prod, f), "subtraction", j)
    return y


def backward_solve(L: IcFactor, w: np.ndarray, exec_mode: str = CAST_F64) -> np.ndarray:
    """Solve L^T y = w; column j of L supplies the updates of unknown j."""
    y = _solve_input(L, w, exec_mode)
    vals = L.values
    if exec_mode == CAST_F64:
        _solve_kernel(L.pattern).backward(vals, y)
        return y

    cp = L.pattern.col_ptr
    rows_all = L.pattern.row_idx
    f = L.format
    for j in range(L.n - 1, -1, -1):
        s, e = cp[j], cp[j + 1]
        d = vals[s]
        if d == 0.0:
            raise ZeroDivisionError(f"zero diagonal at column {j}")
        acc = y[j]
        if e > s + 1:
            prod = _checked(quantize(vals[s + 1:e] * y[rows_all[s + 1:e]], f), "product", j)
            # sequential accumulation in storage (ascending row) order
            for p in prod.tolist():
                if p != 0.0:
                    acc = _checked(_round_scalar(acc - p, f), "subtraction", j)
        y[j] = _checked(_round_scalar(acc / d, f), "division", j)
    return y


def apply_preconditioner(L: IcFactor, r: np.ndarray, exec_mode: str = CAST_F64) -> np.ndarray:
    """Apply (L L^T)^-1 to r.

    native_low scales the right-hand side by its inf-norm so that the solve
    input is representable, then rescales the result in fp64.
    """
    r = _solve_input(L, r, exec_mode)
    if exec_mode == CAST_F64:
        return backward_solve(L, forward_solve(L, r, CAST_F64), CAST_F64)
    nr = inf_norm_vector(r)
    if nr == 0.0:
        return np.zeros(L.n)
    rs, _ = quantize(r / nr, L.format)   # |rs| <= 1 < 3 <= every x_max
    return backward_solve(L, forward_solve(L, rs, NATIVE_LOW), NATIVE_LOW) * nr
