"""Generators for structured test matrices.

wathen(nx, ny) assembles the classic serendipity finite-element mass matrix
from Wathen's "Realistic eigenvalue bounds for the Galerkin mass matrix":
an nx-by-ny grid of 8-node elements with random density multipliers, giving
an SPD matrix of dimension 3*nx*ny + 2*nx + 2*ny + 1.
"""

from __future__ import annotations

import numpy as np

from .sparse import SparseSpd

__all__ = ["wathen", "poisson2d", "tridiag", "random_spd", "dense_to_sparse"]

_E1 = np.array([[6, -6, 2, -8],
                [-6, 32, -6, 20],
                [2, -6, 6, -6],
                [-8, 20, -6, 32]], dtype=np.float64)
_E2 = np.array([[3, -8, 2, -6],
                [-8, 16, -8, 20],
                [2, -8, 3, -8],
                [-6, 20, -8, 16]], dtype=np.float64)
_ELEMENT = np.block([[_E1, _E2], [_E2.T, _E1]]) / 45.0


def wathen(nx: int, ny: int, seed: int = 0) -> SparseSpd:
    """Random Wathen mass matrix on an nx x ny element grid."""
    rng = np.random.default_rng(seed)
    rho = 100.0 * rng.random((nx, ny))
    n = 3 * nx * ny + 2 * nx + 2 * ny + 1

    # the 8 node numbers (0-based) of every element, j outer and i inner
    j = np.repeat(np.arange(1, ny + 1), nx)
    i = np.tile(np.arange(1, nx + 1), ny)
    top = 3 * j * nx + 2 * i + 2 * j
    mid = (3 * j - 1) * nx + 2 * j + i - 2
    bottom = 3 * (j - 1) * nx + 2 * i + 2 * j - 4
    nn = np.stack([top, top - 1, top - 2, mid, bottom, bottom + 1, bottom + 2, mid + 1], axis=1)
    # each element's 8 x 8 block in row-major order, element by element:
    # from_coo sums the duplicates in this order
    rows = np.repeat(nn, 8, axis=1).ravel()
    cols = np.tile(nn, 8).ravel()
    vals = np.outer(rho.T, _ELEMENT).ravel()
    lower = rows >= cols
    return SparseSpd.from_coo(n, rows[lower], cols[lower], vals[lower])


def poisson2d(m: int) -> SparseSpd:
    """Standard 5-point Laplacian on an m x m grid (SPD M-matrix)."""
    n = m * m
    rows = [np.arange(n)]
    cols = [np.arange(n)]
    vals = [np.full(n, 4.0)]
    idx = np.arange(n)
    right = idx[(idx % m) != m - 1]
    rows.append(right + 1)
    cols.append(right)
    vals.append(np.full(len(right), -1.0))
    down = idx[idx < n - m]
    rows.append(down + m)
    cols.append(down)
    vals.append(np.full(len(down), -1.0))
    return SparseSpd.from_coo(n, np.concatenate(rows), np.concatenate(cols),
                              np.concatenate(vals))


def tridiag(n: int, diag: float = 2.0, off: float = -1.0) -> SparseSpd:
    """1-D Laplacian-style tridiagonal matrix."""
    rows = np.concatenate([np.arange(n), np.arange(1, n)])
    cols = np.concatenate([np.arange(n), np.arange(n - 1)])
    vals = np.concatenate([np.full(n, diag), np.full(n - 1, off)])
    return SparseSpd.from_coo(n, rows, cols, vals)


def random_spd(n: int, seed: int = 0, density: float = 0.3,
               dominance: float = 1.1) -> SparseSpd:
    """Random sparse diagonally dominant SPD matrix."""
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((n, n)) * (rng.random((n, n)) < density)
    B = (B + B.T) / 2
    np.fill_diagonal(B, 0.0)
    d = dominance * np.abs(B).sum(axis=1) + rng.random(n) + 0.1
    np.fill_diagonal(B, d)
    return dense_to_sparse(B)


def dense_to_sparse(D: np.ndarray) -> SparseSpd:
    """Lower triangle of a dense symmetric matrix as SparseSpd (diagonal kept)."""
    D = np.asarray(D, dtype=np.float64)
    n = D.shape[0]
    rows, cols = np.nonzero(np.tril(D))
    mask = (rows != cols)
    r = np.concatenate([np.arange(n), rows[mask]])
    c = np.concatenate([np.arange(n), cols[mask]])
    v = np.concatenate([np.diag(D), D[rows[mask], cols[mask]]])
    return SparseSpd.from_coo(n, r, c, v)
