import numpy as np
import pytest

import icir.symbolic as symbolic
from conftest import pattern_set
from icir.gallery import dense_to_sparse, random_spd, tridiag, wathen
from icir.sparse import SparseSpd
from icir.symbolic import ic_pattern
from oracles import column_pattern


def level_oracle(D: np.ndarray, lev: int):
    """Classical fill-level recurrence by explicit symbolic elimination."""
    n = D.shape[0]
    INF = 10 ** 9
    L = np.where(D != 0, 0, INF).astype(np.int64)
    np.fill_diagonal(L, 0)
    for k in range(n):
        ik = L[:, k].copy()
        for i in range(k + 1, n):
            if ik[i] >= INF:
                continue
            cand = ik[i] + ik + 1
            upd = cand < L[i, :]
            upd[:k + 1] = False
            upd[i:] = False
            L[i, upd] = cand[upd]
            L[upd, i] = cand[upd]
    return {(i, j) for i in range(n) for j in range(i + 1) if L[i, j] <= lev}


def random_structure(n, seed, density=0.12):
    rng = np.random.default_rng(seed)
    D = (rng.random((n, n)) < density).astype(float)
    D = np.triu(D, 1)
    D = D + D.T
    np.fill_diagonal(D, 1.0)
    return D


class TestBasics:
    def test_level0_is_structure(self):
        A = random_spd(25, seed=0, density=0.2)
        pat = ic_pattern(A, 0)
        expect = {(int(A.row_idx[p]), j)
                  for j in range(A.n)
                  for p in range(A.col_ptr[j], A.col_ptr[j + 1])}
        assert pattern_set(pat) == expect

    def test_tridiagonal_no_fill(self):
        A = tridiag(20)
        for lev in (0, 1, 3, 10):
            pat = ic_pattern(A, lev)
            assert pat.nnz == A.nnz

    def test_arrow_matrix(self):
        # dense last row: eliminating early columns creates no fill among
        # earlier columns; oracle agreement pins the semantics
        n = 12
        D = np.eye(n)
        D[-1, :] = 1.0
        D[:, -1] = 1.0
        A = dense_to_sparse(D)
        for lev in (0, 1, 2):
            assert pattern_set(ic_pattern(A, lev)) == level_oracle(D, lev)

    def test_diagonal_always_present(self):
        A = random_spd(30, seed=4, density=0.1)
        pat = ic_pattern(A, 2)
        for j in range(A.n):
            assert pat.row_idx[pat.col_ptr[j]] == j

    def test_negative_level_rejected(self):
        with pytest.raises(ValueError):
            ic_pattern(tridiag(3), -1)


class TestOracle:
    def test_random_structures(self):
        for trial in range(40):
            n = int(np.random.default_rng(trial).integers(8, 45))
            D = random_structure(n, seed=trial)
            A = dense_to_sparse(D)
            for lev in range(4):
                assert pattern_set(ic_pattern(A, lev)) == level_oracle(D, lev), \
                    (trial, lev)

    def test_monotone_in_level(self):
        for trial in range(10):
            D = random_structure(30, seed=100 + trial)
            A = dense_to_sparse(D)
            prev = set()
            for lev in range(5):
                cur = pattern_set(ic_pattern(A, lev))
                assert prev <= cur
                prev = cur

    def test_large_level_is_complete_fill(self):
        for trial in range(5):
            n = 25
            D = random_structure(n, seed=200 + trial)
            A = dense_to_sparse(D)
            assert pattern_set(ic_pattern(A, n)) == level_oracle(D, n)


class TestBlockedSearch:
    """ic_pattern returns the arrays of the one-search-per-column reference,
    whatever the block width; narrow blocks put block boundaries inside
    every test matrix."""

    @staticmethod
    def assert_same(A, lev):
        got, want = ic_pattern(A, lev), column_pattern(A, lev)
        assert got.n == A.n
        for name in ("col_ptr", "row_idx"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == np.int64, name
            np.testing.assert_array_equal(a, b, err_msg=name)

    @pytest.mark.parametrize("columns, stamp_bytes", [
        (1, None), (3, None), (7, None), (None, None),
        (None, 0),   # the budget fits no column: one column per block
    ])
    def test_matches_column_search(self, columns, stamp_bytes, monkeypatch):
        if columns is not None:
            monkeypatch.setattr(symbolic, "BLOCK_COLUMNS", columns)
        if stamp_bytes is not None:
            monkeypatch.setattr(symbolic, "STAMP_BYTES", stamp_bytes)
        for trial in range(12):
            rng = np.random.default_rng(500 + trial)
            n = int(rng.integers(2, 90))
            D = random_structure(n, seed=500 + trial, density=float(rng.uniform(0.03, 0.3)))
            A = dense_to_sparse(D)
            for lev in range(5):
                self.assert_same(A, lev)
        self.assert_same(wathen(10, 8, seed=0), 3)

    def test_single_column_and_empty(self):
        for lev in (0, 3):
            self.assert_same(dense_to_sparse(np.eye(1)), lev)
            self.assert_same(SparseSpd(0, [0], [], []), lev)
