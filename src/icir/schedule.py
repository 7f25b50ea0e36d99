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
solve with that pattern shares it.  It holds the levels, the sorted
position keys of the pattern, and the round count the factor's kernel rule
reads; the factor and the solves each build their own gather lists from
the levels on first use and keep them in its factor_plan and solve_kernel
slots.
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

    rounds is the sum over the levels of the largest off-diagonal row count
    among the level's columns: the number of update rounds the factor's
    level kernel takes, since the diagonal (j, j) receives one update from
    every k with (j, k) in the pattern.  keys holds col * n + row of every
    pattern position, ascending.
    """

    level: np.ndarray
    depth: int
    rounds: int
    keys: np.ndarray
    factor_plan: object = None    # built by icir.factor
    solve_kernel: object = None   # built by icir.trisolve


def schedule(pattern: FillPattern) -> _Schedule:
    """The pattern's cached schedule, built on first use."""
    if pattern.schedule is None:
        level, depth = _column_levels(pattern)
        row_counts = np.bincount(pattern.row_idx, minlength=pattern.n) - 1
        widest = np.zeros(depth, dtype=np.int64)
        np.maximum.at(widest, level, row_counts)
        cols = np.repeat(np.arange(pattern.n, dtype=np.int64), np.diff(pattern.col_ptr))
        keys = cols * np.int64(pattern.n) + pattern.row_idx
        pattern.schedule = _Schedule(level, depth, int(widest.sum()), keys)
    return pattern.schedule
