"""Elimination schedule of a fill pattern, shared by the factor and the cast_f64 solves.

Column j of L depends on every column k < j with (j, k) in the pattern: the
factor needs l_jk before it can update column j, and the forward solve
needs y_k before unknown j.  A column's level in this dependency DAG is one
more than the largest level among the columns it depends on, so all columns
of one level are independent and can be processed as one vectorised step
(level scheduling; Anderson & Saad, IJHSC 1989; Saad, Iterative Methods for
Sparse Linear Systems, 2nd ed., 2003).

The schedule is built on first use by icir.factor or icir.trisolve and
cached on FillPattern.schedule, so every restart attempt and every later
solve with that pattern shares it.  It holds the levels and the sorted
position keys of the pattern.  The factor and the solves each build their
own plans from the levels on first use and keep them in its factor_plan and
solve_kernel slots: factor_plan holds the factor's step lists (the tasks
and pivots of each dataflow step, see icir.factor) while shifted_ic runs,
and solve_kernel the solves' gather lists.  There is no round count: the
factor's kernel rule reads the number of steps from its plan.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .symbolic import FillPattern


def _column_levels(pattern: FillPattern):
    """Level of every column in the elimination's dependency DAG, and the depth.

    Found frontier by frontier: a column joins the next frontier once every
    column it depends on has a level.
    """
    n, cp, ri = pattern.n, pattern.col_ptr, pattern.row_idx
    below = np.diff(cp) - 1                        # off-diagonals per column
    pending = np.bincount(ri, minlength=n) - 1     # off-diagonals per row
    level = np.empty(n, dtype=np.int32)
    stamp = np.empty(n, dtype=np.intp)
    frontier = np.flatnonzero(pending == 0)
    depth = 0
    while frontier.size:
        level[frontier] = depth
        depth += 1
        counts = below[frontier]
        ends = np.cumsum(counts)
        first = np.repeat(cp[frontier] + 1 - ends + counts, counts)
        succ = ri[first + np.arange(len(first))]
        np.subtract.at(pending, succ, 1)
        ready = succ[pending[succ] == 0]
        # a column reached from several frontier columns is listed once per
        # edge; keep the one occurrence whose stamp survived
        at = np.arange(len(ready))
        stamp[ready] = at
        frontier = ready[stamp[ready] == at]
    return level, depth


def _split(counts: np.ndarray) -> list:
    """Consecutive slices of the given lengths."""
    ends = np.cumsum(counts).tolist()
    return [slice(e - c, e) for c, e in zip(counts.tolist(), ends)]


def _off_diagonals(pattern: FillPattern):
    """Positions of the off-diagonal entries and the column of every entry (int32)."""
    col = np.repeat(np.arange(pattern.n, dtype=np.int32), np.diff(pattern.col_ptr))
    return np.flatnonzero(pattern.row_idx != col), col


@dataclass
class _Schedule:
    """Elimination schedule of one pattern.

    keys holds col * n + row of every pattern position, ascending.
    """

    level: np.ndarray
    depth: int
    keys: np.ndarray
    factor_plan: object = None    # built by icir.factor, dropped by shifted_ic
    solve_kernel: object = None   # built by icir.trisolve


def schedule(pattern: FillPattern) -> _Schedule:
    """The pattern's cached schedule, built on first use."""
    if pattern.schedule is None:
        level, depth = _column_levels(pattern)
        cols = np.repeat(np.arange(pattern.n, dtype=np.int64), np.diff(pattern.col_ptr))
        keys = cols * np.int64(pattern.n) + pattern.row_idx
        pattern.schedule = _Schedule(level, depth, keys)
    return pattern.schedule
