"""Shared fixtures and matrix-file discovery.

Real test matrices (SuiteSparse Matrix Market files) are looked for in the
directory named by the ICIR_MATRIX_DIR environment variable, falling back to
<repo>/matrices.  Tests needing a file that is absent are skipped with a
pointer to scripts/fetch_matrices.py.
"""

import os
from pathlib import Path

import numpy as np
import pytest

from icir.factor import _scatter_into_pattern, _step_plan, ic_attempt
from icir.sparse import SparseSpd

REPO = Path(__file__).resolve().parent.parent
MATRIX_DIR = Path(os.environ.get("ICIR_MATRIX_DIR", REPO / "matrices"))


def matrix_path(name: str):
    """Path to a named .mtx file, or None if not present."""
    p = MATRIX_DIR / f"{name}.mtx"
    return p if p.exists() else None


def require_matrix(name: str) -> str:
    p = matrix_path(name)
    if p is None:
        pytest.skip(f"matrix file {name}.mtx not available; run "
                    f"scripts/fetch_matrices.py on a networked machine and place "
                    f"files in {MATRIX_DIR} (or set ICIR_MATRIX_DIR)")
    return str(p)


def ic_attempt_on(A: SparseSpd, pattern, tau, f):
    """ic_attempt on A's values scattered into the pattern's order."""
    plan = _step_plan(pattern)
    return ic_attempt(_scatter_into_pattern(A, plan), plan, tau, f)


def to_dense(A: SparseSpd) -> np.ndarray:
    """Full symmetric dense version of the stored lower triangle."""
    D = np.zeros((A.n, A.n))
    for j in range(A.n):
        s, e = A.col_ptr[j], A.col_ptr[j + 1]
        D[A.row_idx[s:e], j] = A.values[s:e]
    return D + np.tril(D, -1).T


def pattern_set(pat):
    return {(int(pat.row_idx[p]), j)
            for j in range(pat.n)
            for p in range(pat.col_ptr[j], pat.col_ptr[j + 1])}


def factor_dense(L) -> np.ndarray:
    D = np.zeros((L.n, L.n))
    pat = L.pattern
    for j in range(L.n):
        s, e = pat.col_ptr[j], pat.col_ptr[j + 1]
        D[pat.row_idx[s:e], j] = L.values[s:e]
    return D
