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

native_low gives the bits of the column loops in tests/oracles.py in one
checked pass per direction, by the same levels.  A level rounds its
products l_jk y_k (forward) or l_ij y_i (backward) as one batch by
icir.precision._round_unchecked, in the schedule's order; then each of its
columns runs a Python chain over its products, sources ascending, and its
division.  A chain's subtractions and division are scalar roundings:
Veltkamp's split inline for a result in [x_min, over_at), else
icir.precision._round_scalar.  The chain checks a product q as it reads
it: q is exact if qmin <= |q| <= x_max, qmin being x_s_min for a cast
(fp16, fp32) and fp64 (no rounding), x_min for the split (bf16, custom
formats) and inf for a format with neither (left unrounded).  A zero q is
exact too: the forward skips it if its y_k was zero at its pivot (the loop
skips column k), the backward always.  Any other q is rounded again from
its fp64 product by _round_scalar, which flags its overflow.  The forward
divides y_j, and tests l_jj, only if y_j is nonzero.

Operations are numbered in the loops' order: forward, 3k is the zero test
and division of column k, 3k + 1 its products, 3k + 2 its subtractions;
backward, with m = n - 1 - j, 4m is the zero test of column j, 4m + 1 its
products, 4m + 2 its subtractions, 4m + 3 its division.  An operation reads
only lower-numbered results, so the lowest-numbered failure is the loop's
first.  Operations after it run on silently (np.errstate); the backward
skips the chains and divisions above it, but no product after a failed
subtraction of its column, as the product is numbered below it.

quantize copies fp64 and flags nothing, so a fp64 native_low solve raises
no OverflowSignal: a result past 2^1024 is left in y as inf or NaN.
icir.refine.ic_lu_ir runs native_low only in the half-width formats, fp16
and bf16.
"""

from __future__ import annotations

import math

import numpy as np

from .factor import IcFactor
from .precision import _round_scalar, _round_unchecked, quantize
from .sparse import inf_norm_vector
from .symbolic import FillPattern, _schedule

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
    """native_low substitution by levels: forward in order, backward in reverse.

    A step of fsteps and bsteps holds a level's columns (a list, and a slice
    of the schedule's cols), their diagonals, the positions and sources of
    its updates in the schedule's order, and each column's chain in them.
    """

    def __init__(self, pattern: FillPattern):
        s = _schedule(pattern)
        fw, bw = s.forward, s.backward
        cols = [s.cols[c].tolist() for c in s.levels]   # one list per level, both directions
        self.fsteps = _chains(s, cols, fw, fw.cols,
                              np.bincount(fw.rows, minlength=pattern.n)[s.cols])
        self.bsteps = _chains(s, cols, bw, bw.rows, s.below)[::-1]

    @np.errstate(all="ignore")
    def forward(self, vals: np.ndarray, y: np.ndarray, f) -> None:
        qmin, lo, hi, s = _exact_ranges(f)
        xmax = f.x_max
        live = [False] * len(y)   # y_k was nonzero at its pivot
        fail = (3 * len(y), "", 0)   # the lowest failure: number, kind, column
        for cols, ci, diag, pos, src, starts, ends in self.fsteps:
            x = vals[pos] * y[src]
            p = _round_unchecked(x, f).tolist()
            for j, a, b, acc, d in zip(cols, starts, ends, y[ci].tolist(), vals[diag].tolist()):
                for i in range(a, b):   # sources ascending
                    q = p[i]
                    if not qmin <= abs(q) <= xmax:
                        k = int(src[i])
                        if q != 0.0:
                            q, over = _round_scalar(float(x[i]), f)
                            if over:
                                fail = min(fail, (3 * k + 1, "product", k))
                        elif not live[k]:   # the loop skips column k
                            continue
                    t = acc - q
                    if lo <= abs(t) < hi:   # _round_unchecked's split, inline
                        c = t * s
                        acc = c - (c - t)
                    else:
                        acc, over = _round_scalar(t, f)
                        if over:
                            fail = min(fail, (3 * (k := int(src[i])) + 2, "subtraction", k))
                if acc != 0.0:
                    live[j] = True
                    t = acc / d if d else math.inf
                    if lo <= abs(t) < hi:
                        c = t * s
                        acc = c - (c - t)
                    else:
                        acc, over = _round_scalar(t, f)
                        if over or not d:   # fp64 flags no overflow, a zero diagonal still fails
                            fail = min(fail, (3 * j, "division" if d else "zero", j))
                y[j] = acc
        _raise(*fail)

    @np.errstate(all="ignore")
    def backward(self, vals: np.ndarray, y: np.ndarray, f) -> None:
        qmin, lo, hi, s = _exact_ranges(f)
        n, xmax = len(y), f.x_max
        fail = (4 * n, "", 0)
        for cols, ci, diag, pos, src, starts, ends in self.bsteps:
            x = vals[pos] * y[src]
            p = _round_unchecked(x, f).tolist()
            for j, a, b, acc, d in zip(cols, starts, ends, y[ci].tolist(), vals[diag].tolist()):
                m = 4 * (n - 1 - j)
                if d == 0.0:
                    fail = min(fail, (m, "zero", j))
                    continue
                if m + 1 >= fail[0]:   # a lower failure is known
                    continue
                for i in range(b - 1, a - 1, -1):   # rows ascending
                    q = p[i]
                    if not qmin <= abs(q) <= xmax:
                        if q == 0.0:
                            continue
                        q, over = _round_scalar(float(x[i]), f)
                        if over:
                            fail = (m + 1, "product", j)
                            break
                        if q == 0.0:
                            continue
                    t = acc - q
                    if lo <= abs(t) < hi:
                        c = t * s
                        acc = c - (c - t)
                    else:
                        acc, over = _round_scalar(t, f)
                        if over:   # no break: a later product is numbered below
                            fail = (m + 2, "subtraction", j)
                if m + 3 < fail[0]:
                    t = acc / d
                    if lo <= abs(t) < hi:
                        c = t * s
                        y[j] = c - (c - t)
                    else:
                        y[j], over = _round_scalar(t, f)
                        if over:
                            fail = (m + 3, "division", j)
        _raise(*fail)


def _chains(s, cols, order, src, counts) -> list:
    """The steps of the levels in order, cols holding each level's columns
    as a list; counts, the chain lengths in s.cols' order."""
    ends = np.cumsum(counts)
    return [(js, s.cols[c], s.diag[c], order.pos[o], src[o],
             (ends[c] - counts[c] - o.start).tolist(), (ends[c] - o.start).tolist())
            for js, c, o in zip(cols, s.levels, order.levels)]


def _exact_ranges(f):
    """(qmin, lo, hi, split): see the module docstring; lo <= |t| < hi is
    the split's domain, empty where f has no split."""
    qmin = f.x_s_min if f.cast or f.is_double else f.x_min if f.split else math.inf
    lo, hi = (f.x_min, f.over_at) if f.split else (0.0, 0.0)
    return qmin, lo, hi, f.split


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
