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

cast_f64 runs from the pattern's elimination levels (icir.symbolic), the
same column levels the factor ran from.  Its gather lists are built on the
first cast_f64 solve and kept in the pattern's solve_kernel slot.  All
columns of one level are independent, so each level is one vectorised
step: an np.subtract.at that applies the level's pending updates, then one
division by the diagonals.  A level of one column runs its updates as one
np.subtract.reduce instead, which performs the same subtractions in the
same order in fewer NumPy calls.  The forward solve walks the levels
in order, the backward solve walks them in reverse.

The summation order is fixed, so cast_f64 results do not depend on the
BLAS build: unknown j of L y = w takes its updates l_jk y_k in ascending
source column k, and unknown j of L^T y = w takes its updates l_ij y_i in
descending source row i.  Each update is one rounded product and one
rounded subtraction.  The forward order is that of a column-oriented
substitution and the backward order that of a row-oriented one.
"""

from __future__ import annotations

import numpy as np

from .factor import IcFactor
from .precision import _round_scalar, quantize
from .sparse import inf_norm_vector
from .symbolic import FillPattern, _off_diagonals, _split

__all__ = ["OverflowSignal", "forward_solve", "backward_solve", "apply_preconditioner"]

CAST_F64 = "cast_f64"
NATIVE_LOW = "native_low"

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
    row order, and np.subtract.at applies them in that order.  A level of
    one column holds its column and diagonal as integers and no targets.
    Index arrays are np.intp, which fancy indexing and ufunc.at use without
    a conversion.
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

    def forward(self, v: np.ndarray, y: np.ndarray) -> None:
        _level_sweep(self.fsteps, v[self.diag], v[self.fpos], y)

    def backward(self, v: np.ndarray, y: np.ndarray) -> None:
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


def _solve_kernel(pattern: FillPattern) -> _LevelKernel:
    """The pattern's cast_f64 kernel, built on first use."""
    if pattern.solve_kernel is None:
        pattern.solve_kernel = _LevelKernel(pattern)
    return pattern.solve_kernel


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
