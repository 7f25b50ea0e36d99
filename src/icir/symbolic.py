"""Level-of-fill sparsity pattern for the incomplete Cholesky factor.

An entry (i, j) with j < i belongs to the level-l pattern iff the adjacency
graph of A contains a path j = v0, v1, ..., vk = i whose interior vertices
are all numbered below j and whose edge count k is at most l + 1.  The
pattern of each column is computed independently with a depth-limited
breadth-first search that only expands through lower-numbered vertices.
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
    the diagonal is the first entry of its column.
    """

    n: int
    col_ptr: np.ndarray
    row_idx: np.ndarray
    level: int
    # elimination schedule of the factor and the cast_f64 solves, built by
    # icir.schedule on first use; the pattern is treated as immutable after
    # construction
    schedule: object = field(default=None, init=False, repr=False, compare=False)

    @property
    def nnz(self) -> int:
        return len(self.row_idx)


def _full_adjacency(A: SparseSpd):
    """CSR adjacency (both directions, no self loops) of the symmetric structure."""
    off = A.row_idx != A.entry_col
    r = A.row_idx[off]
    c = A.entry_col[off]
    src = np.concatenate([r, c])
    dst = np.concatenate([c, r])
    order = np.argsort(src, kind="stable")
    src = src[order]
    dst = dst[order]
    ptr = np.zeros(A.n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=A.n), out=ptr[1:])
    return ptr, dst


def ic_pattern(A: SparseSpd, level: int) -> FillPattern:
    """Pattern of IC(level) for the structure of A."""
    if level < 0:
        raise ValueError("level must be nonnegative")
    n = A.n
    adj_ptr, adj = _full_adjacency(A)

    cols = []
    visited = np.full(n, -1, dtype=np.int64)  # stamp = source column
    for j in range(n):
        visited[j] = j
        frontier = adj[adj_ptr[j]:adj_ptr[j + 1]]
        frontier = frontier[visited[frontier] != j]
        reached = []
        for depth in range(level + 1):
            if len(frontier) == 0:
                break
            visited[frontier] = j
            reached.append(frontier[frontier > j])
            if depth == level:
                break
            expand = frontier[frontier < j]
            if len(expand) == 0:
                break
            # gather neighbors of the whole expandable frontier at once
            starts = adj_ptr[expand]
            counts = adj_ptr[expand + 1] - starts
            total = int(counts.sum())
            if total == 0:
                break
            group_offset = np.repeat(np.cumsum(counts) - counts, counts)
            idx = np.arange(total) - group_offset + np.repeat(starts, counts)
            nxt = adj[idx]
            nxt = nxt[visited[nxt] != j]
            frontier = np.unique(nxt)
        rows = np.concatenate([[j]] + reached) if reached else np.array([j], dtype=np.int64)
        rows = np.unique(rows)
        cols.append(rows)

    col_ptr = np.zeros(n + 1, dtype=np.int64)
    col_ptr[1:] = np.cumsum([len(c) for c in cols])
    row_idx = np.concatenate(cols) if cols else np.empty(0, dtype=np.int64)
    return FillPattern(n, col_ptr, row_idx.astype(np.int64), level)
