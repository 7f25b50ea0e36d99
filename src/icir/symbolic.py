"""Level-of-fill sparsity pattern for the incomplete Cholesky factor.

An entry (i, j) with j < i belongs to the level-l pattern iff the adjacency
graph of A contains a path j = v0, v1, ..., vk = i whose interior vertices
are all numbered below j and whose edge count k is at most l + 1 (the
fill-path theorem; Hysom & Pothen, SISC 22(6), 2001).  So the pattern of
column j is found by a breadth-first search from j, at most l + 1 edges
deep, that only expands through vertices below j.

The searches of a block of columns run together.  Each (local column c,
vertex v) pair of the block is the key c*n + v into one flat int32 stamp
array of B*n entries, -1 where the pair is unvisited.  At each depth one
repeat/arange gather lists every neighbour of every frontier pair whose
vertex lies below its column; a stamp lookup drops the pairs already
visited, and writing each survivor's index into its stamp and reading the
stamps back keeps one copy of a pair listed along several edges.  The
survivors above their column are pattern entries, the others the next
frontier.  Each block sorts its reached keys once, which orders its
columns and their rows at the same time, and resets the stamps at only the
keys it touched.

B is BLOCK_COLUMNS, fewer when the stamps would pass STAMP_BYTES, and at
least 1.  The budget keeps the stamps of a large matrix bounded; the cap
bounds the per-depth pair arrays, which grow with B times the frontier.  On
a dense 100 x 100 matrix the IC(3) search's peak allocation (tracemalloc)
is 0.4 MiB one column at a time, 6.1 MiB at 32 columns, 7.0 MiB at 64 and
11.8 MiB as one block of all 100; on wathen(40, 30) it is 2.4 MiB at 32
and 2.8 MiB at 64 columns, and on the benchmark's sparse patterns 64
columns take 0.76-0.95 times the time of 32.

A pattern's schedule finds its elimination levels.  Column j of L depends
on every column k < j with (j, k) in the pattern: the factor needs l_jk
before it can update column j, and the forward solve needs y_k before
unknown j.  A column's level in this dependency DAG is one more than the
largest level among the columns it depends on, so all columns of one level
are independent and can be processed as one vectorised step (level
scheduling; Anderson & Saad, IJHSC 1989; Saad, Iterative Methods for
Sparse Linear Systems, 2nd ed., 2003).  _schedule finds the levels and puts
the off-diagonals in level order once per pattern, on first use, and keeps
them in its schedule slot: the solves (icir.trisolve) build their groups of
levels from them on first use, and the factor's plan (icir.factor) refines
its forward order into dataflow steps, which the schedule does not keep.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .sparse import SparseSpd

__all__ = ["FillPattern", "ic_pattern"]


@dataclass
class FillPattern:
    """Permitted lower-triangular positions, diagonal always included.

    CSC layout like SparseSpd: rows sorted ascending within each column, so
    the diagonal is the first entry of its column.  A pattern is its arrays:
    its schedule finds the elimination levels, the solves their groups
    (icir.trisolve), the factor's plan the dataflow steps.
    """

    n: int
    col_ptr: np.ndarray
    row_idx: np.ndarray
    # the elimination schedule the factor and both solves read, built by
    # _schedule on first use; the pattern is immutable after construction
    schedule: object = field(default=None, init=False, repr=False, compare=False)

    @property
    def nnz(self) -> int:
        return len(self.row_idx)


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
    return [slice(a, b) for a, b in zip([0] + ends, ends)]


class _Schedule:
    """A pattern's elimination schedule; index arrays are np.intp unless int32.

    cols: the columns by level (_column_levels), ascending within one;
    levels: the slice of every level.  pos and src: the forward order, every
    off-diagonal l_jk as its position and its source column k, by level of
    row j, then j, then k; order: the slice of every level in it.  The
    factor's plan finds its dataflow steps from them.  solves: the solves'
    records by direction (True forward), which icir.trisolve builds from
    them on a direction's first solve and keeps here.
    """

    def __init__(self, pattern: FillPattern):
        n, cp, ri = pattern.n, pattern.col_ptr, pattern.row_idx
        level, depth = _column_levels(pattern)
        self.cols = np.argsort(level, kind="stable")
        self.levels = _split(np.bincount(level, minlength=depth))
        # forward: CSC order (k ascending) stably sorted by the rank of row j in
        # cols; the diagonal heads its column, so off-diagonal r of k is at r + k + 1
        rank = np.empty(n, dtype=np.int32)
        rank[self.cols] = np.arange(n, dtype=np.int32)
        col = np.repeat(np.arange(n), np.diff(cp) - 1)
        self.pos = np.argsort(rank[ri[np.arange(len(col)) + col + 1]], kind="stable")
        self.src = col[self.pos]
        self.pos += self.src + 1
        per_level = np.bincount(level, np.bincount(ri, minlength=n) - 1, depth)
        self.order = _split(per_level.astype(np.int64))
        self.solves = {}


def _schedule(pattern: FillPattern) -> _Schedule:
    """The pattern's schedule, built on first use and kept in its schedule slot."""
    pattern.schedule = pattern.schedule or _Schedule(pattern)
    return pattern.schedule


def _full_adjacency(A: SparseSpd):
    """CSR adjacency (both directions, no self loops) of the symmetric structure."""
    _, r, c = A.off_diagonal()
    src = np.concatenate([r, c])
    dst = np.concatenate([c, r])
    order = np.argsort(src, kind="stable")
    src = src[order]
    dst = dst[order]
    ptr = np.zeros(A.n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=A.n), out=ptr[1:])
    return ptr, dst


# Columns searched together, and the byte budget of their stamps.
BLOCK_COLUMNS = 64
STAMP_BYTES = 8 << 20


def _neighbour_keys(adj_ptr, adj, base, v):
    """Key base + w of every neighbour w of every vertex v, pair by pair."""
    starts = adj_ptr[v]
    degree = adj_ptr[v + 1] - starts
    ends = np.cumsum(degree)
    idx = np.repeat(starts - ends + degree, degree)
    idx += np.arange(len(idx))
    keys = adj[idx]
    keys += np.repeat(base, degree)
    return keys


def ic_pattern(A: SparseSpd, level: int) -> FillPattern:
    """Pattern of IC(level) for the structure of A."""
    if level < 0:
        raise ValueError("level must be nonnegative")
    n = A.n
    adj_ptr, adj = _full_adjacency(A)
    width = max(1, min(BLOCK_COLUMNS, STAMP_BYTES // (4 * max(n, 1))))
    stamp = np.full(width * n, -1, dtype=np.int32)
    counts = np.zeros(n, dtype=np.int64)
    rows = [np.empty(0, dtype=np.int64)]
    for c0 in range(0, n, width):
        m = min(width, n - c0)
        v = np.arange(c0, c0 + m)
        base = np.arange(m) * n
        key = base + v                     # the diagonals
        stamp[key] = 0
        touched = [key]
        reached = [key]
        for depth in range(level + 1):
            key = _neighbour_keys(adj_ptr, adj, base, v)
            key = key[stamp[key] < 0]
            # a pair listed along several edges keeps the one copy whose
            # stamp survived
            at = np.arange(len(key), dtype=np.int32)
            stamp[key] = at
            key = key[stamp[key] == at]
            touched.append(key)
            c = key // n
            v = key - c * n
            below = v < c + c0
            reached.append(key[~below])
            v = v[below]
            if depth == level or not len(v):
                break
            base = key[below] - v
        stamp[np.concatenate(touched)] = -1
        keys = np.sort(np.concatenate(reached))
        c = keys // n
        rows.append(keys - c * n)
        counts[c0:c0 + m] = np.bincount(c, minlength=m)
    col_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=col_ptr[1:])
    return FillPattern(n, col_ptr, np.concatenate(rows))
