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
them in its schedule slot: the solves (icir.trisolve) run from groups of its
levels, found on a solve's first use, and the factor's plan (icir.factor)
refines its forward order into dataflow steps, which the schedule does not
keep.

A solve direction takes its levels in groups (_steps): runs of consecutive
levels in its order (ascending forward, descending backward) of at most
GROUP_COLUMNS columns in all, or one level of any width.  An update of a
target from a source in the target's group is inside, any other outside.
A group runs its outside updates as one batch; then, if it has inside
updates, it walks its columns level by level, each taking its inside updates
one by one and its division.  That keeps every target's summation order
(forward sources k ascending, backward rows i descending) only if each
target takes its outside updates first: forward, every outside source below
every inside one; backward, every outside row above every inside one.  So
a level joins the current group only if each of its columns keeps that
order.  Read a target's sources in summation order, their levels numbered
in the direction's order: a descent, a source whose level is below the
level of the source before it, forbids a group start in the levels above
the lower and up to the higher, since such a group would hold the earlier
source inside and the later one outside.  _group_starts marks the forbidden
starts of every level in one vectorised pass, as bits of the distance back
to the start, and walks the levels once.  The rule reads the pattern alone.
A group none of whose columns reads another runs as a level.

GROUP_COLUMNS is 16.  One cast_f64 apply (in-process medians of 11 x 3-20
calls, caps interleaved, 2-core host) at caps 1 / 8 / 16 / 32: badscale
IC(0) fp16 368 / 179 / 138 / 153 us, IC(3) fp16 637 / 233 / 228 / 285 us,
random_spd(100) IC(3) 538 / 194 / 187 / 238 us, poisson2d(50) IC(0) 560 /
549 / 549 / 587 us, wathen(40, 30) IC(3) 4.03 / 3.96 / 3.84 / 3.79 ms.  A
larger group runs more inside updates one at a time in Python.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .sparse import SparseSpd

__all__ = ["FillPattern", "ic_pattern"]


@dataclass
class FillPattern:
    """Permitted lower-triangular positions, diagonal always included.

    CSC layout like SparseSpd: rows sorted ascending within each column, so
    the diagonal is the first entry of its column.  A pattern is its arrays:
    its schedule finds the elimination levels, the factor's plan the
    dataflow steps.
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

    cols, diag, below: the columns by level (_column_levels), ascending
    within one, their diagonal positions and off-diagonal counts; levels:
    the slice of every level.  pos and src: the forward order, every
    off-diagonal l_jk as its position and its source column k, by level of
    row j, then j, then k; order: the slice of every level in it.  The
    factor's plan finds its dataflow steps from them.  forward and backward,
    found on a solve's first use (a factorization reads neither), are the
    solves' (pos, diag, groups) (_steps).  forward walks cols, and its pos
    is pos; backward walks cols reversed, levels and the columns of each
    descending, diag with them, and its pos holds the off-diagonals column
    by column in that order, rows descending.  groups, runs of levels in
    the walk: a group's columns, a view of the walk's, and the ascending
    slice of them (and of diag) they are; its outside updates, as a slice
    of pos, views of their targets and sources, and each column's chain end
    in them (int32); and None.  A group with inside updates holds its
    outside updates as an index array into pos, their targets and sources
    and the chain ends as arrays of their own, column by column; its last
    field is (ivs, loc, src, ranges): the inside updates' indices into pos,
    their sources' places in the group and source columns (lists), and each
    column's range of them in summation order.
    """

    def __init__(self, pattern: FillPattern):
        n, cp, ri = pattern.n, pattern.col_ptr, pattern.row_idx
        level, depth = _column_levels(pattern)
        self.cols = np.argsort(level, kind="stable")
        self.diag, self.below = cp[self.cols], np.diff(cp)[self.cols] - 1
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
        self._row_idx, self.order = ri, _split(per_level.astype(np.int64))

    @cached_property
    def forward(self) -> tuple:
        rows = self._row_idx[self.pos]
        return _steps(self.cols, self.diag, self.levels, self.pos, rows, self.src,
                      np.bincount(rows, minlength=len(self.cols))[self.cols])

    @cached_property
    def backward(self) -> tuple:
        # cols reversed (a copy: the groups index y by views of it, and a
        # reversed view gathers slower), and column k's off-diagonals rows
        # descending: diag + below down to diag + 1
        cols, diag, below = self.cols[::-1].copy(), self.diag[::-1], self.below[::-1]
        pos = np.repeat(diag + np.cumsum(below), below)
        pos -= np.arange(len(pos))
        levels = _split([c.stop - c.start for c in reversed(self.levels)])
        return _steps(cols, diag, levels, pos, np.repeat(cols, below), self._row_idx[pos], below)


def _schedule(pattern: FillPattern) -> _Schedule:
    """The pattern's schedule, built on first use and kept in its schedule slot."""
    pattern.schedule = pattern.schedule or _Schedule(pattern)
    return pattern.schedule


def _group_starts(widths: list, at, tgt, src_at) -> list:
    """The first level of every group of one direction, levels numbered in
    its order: widths holds the columns of each level, at the level of each
    column, src_at the level of the source of every update, and tgt its
    target; the updates are listed target by target, each target's in its
    summation order.

    A descent src_at[i] > src_at[i + 1] of one target at level t forbids a
    group start a in (src_at[i + 1], src_at[i]], bit t - a of forbid[t]:
    a group that starts there and holds t would take the earlier source
    inside and the later one outside, out of order.  Only bits below
    GROUP_COLUMNS can matter, as a group of more levels has more columns.
    """
    down = np.flatnonzero((tgt[1:] == tgt[:-1]) & (src_at[:-1] > src_at[1:]))
    t = at[tgt[down]]
    lo, hi = t - src_at[down], t - src_at[down + 1] - 1   # 1 <= lo <= hi
    near = lo < GROUP_COLUMNS
    forbid = np.zeros(len(widths), dtype=np.int32)
    np.bitwise_or.at(forbid, t[near],
                     (2 << np.minimum(hi[near], GROUP_COLUMNS - 1)) - (1 << lo[near]))
    starts, a, held = [], 0, GROUP_COLUMNS
    for t, (w, m) in enumerate(zip(widths, forbid.tolist())):
        if held + w > GROUP_COLUMNS or m >> (t - a) & 1:   # t - a < GROUP_COLUMNS here
            starts.append(t)
            a, held = t, 0
        held += w
    return starts


def _steps(cols, diag, levels: list, pos, tgt, src, counts) -> tuple:
    """One direction's (pos, diag, groups), as _Schedule describes them:
    cols, diag and levels are its columns, their diagonal positions and the
    slice of each level, in its order; pos, tgt and src its updates'
    positions, targets and sources, which list their targets as cols does,
    each target's in its summation order; counts the updates of each column
    of cols."""
    n, depth = len(cols), len(levels)
    widths = [c.stop - c.start for c in levels]
    at = np.empty(n, dtype=np.int32)   # every column's level
    at[cols] = np.repeat(np.arange(depth, dtype=np.int32), widths)
    src_at = at[src]
    cuts = _group_starts(widths, at, tgt, src_at) + [depth]
    col_at = [c.start for c in levels] + [n]
    begin = np.zeros(n + 1, dtype=np.int64)   # by place in cols: a column's first update
    np.cumsum(counts, out=begin[1:])
    upd_at = begin[col_at].tolist()
    # a source comes before its target: inside iff it comes no earlier than
    # the first level of its target's group
    first = [upd_at[a] for a in cuts]   # each group's first update
    ins = src_at >= np.repeat(np.array(cuts[:-1], dtype=np.int32), np.diff(first))
    # the inside updates before the first of each group
    held = np.searchsorted(np.flatnonzero(ins), first).tolist()
    # by place in cols: a column's chain end, from its group's first update
    group_at = [col_at[a] for a in cuts]
    ends = (begin[1:] - np.repeat(first[:-1], np.diff(group_at))).astype(np.int32)
    rank = np.empty(n, dtype=np.intp)   # every column's place in cols
    rank[cols] = np.arange(n)
    groups = []
    for a, b, h, hb in zip(cuts, cuts[1:], held, held[1:]):
        c, o = slice(col_at[a], col_at[b]), slice(upd_at[a], upd_at[b])
        if h == hb:
            groups.append((cols[c], c, o, tgt[o], src[o], ends[c], None))   # as a level
            continue
        # the outside updates, then the inside ones, each column by column in
        # walk order, a column's in its summation order
        m, i = c.stop - c.start, ins[o]
        # the places in the walk of every update's target and source
        walk, loc = rank[tgt[o]] - c.start, rank[src[o]] - c.start
        u = np.lexsort((walk, i))
        k = len(u) - (hb - h)
        vs, ivs = o.start + u[:k], o.start + u[k:]
        cut = np.cumsum(np.bincount(walk[i], minlength=m)).tolist()
        groups.append((cols[c], c, vs, tgt[vs], src[vs],
                       np.cumsum(np.bincount(walk[~i], minlength=m)).astype(np.int32),
                       (ivs, loc[u[k:]].tolist(), src[ivs].tolist(),
                        [range(a, b) for a, b in zip([0] + cut, cut)])))
    return pos, diag, groups


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
# Columns a solve group holds at most, unless it is one level (see the
# module docstring).
GROUP_COLUMNS = 16


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
