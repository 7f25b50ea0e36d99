import io
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import to_dense
from icir.gallery import random_spd, tridiag, wathen
from icir.precision import get_format
from icir.sparse import (MatrixFormatError, SparseSpd, _column_sumsq, inf_norm_matrix,
                         inf_norm_vector, l2_scale, matvec_f64,
                         read_matrix_market, squeeze)
from icir.symbolic import _full_adjacency
from test_golden import corpus

FP16 = get_format("fp16")
FP64 = get_format("fp64")


def mm(text: str) -> bytes:
    return text.strip().encode() + b"\n"


SIMPLE = mm("""
%%MatrixMarket matrix coordinate real symmetric
% a comment
2 2 3
1 1 4.0
2 1 2.0
2 2 4.0
""")


class TestReadMatrixMarket:
    def test_simple(self):
        A = read_matrix_market(SIMPLE)
        assert A.n == 2 and A.nnz == 3
        assert np.allclose(to_dense(A), [[4, 2], [2, 4]])

    def test_stream_and_path(self, tmp_path):
        p = tmp_path / "m.mtx"
        p.write_bytes(SIMPLE)
        assert read_matrix_market(str(p)).nnz == 3
        assert read_matrix_market(io.BytesIO(SIMPLE)).nnz == 3
        assert read_matrix_market(io.StringIO(SIMPLE.decode())).nnz == 3

    def test_upper_triangle_mirrored(self):
        A = read_matrix_market(mm("""
%%MatrixMarket matrix coordinate real symmetric
2 2 3
1 1 4.0
1 2 2.0
2 2 4.0
"""))
        assert np.allclose(to_dense(A), [[4, 2], [2, 4]])

    def test_duplicates_summed(self):
        A = read_matrix_market(mm("""
%%MatrixMarket matrix coordinate real symmetric
2 2 4
1 1 4.0
2 1 1.5
2 1 0.5
2 2 4.0
"""))
        assert A.nnz == 3
        assert np.allclose(to_dense(A), [[4, 2], [2, 4]])

    def test_blank_and_comment_lines_between_entries(self):
        for sep in ("\n", "\r\n"):
            A = read_matrix_market(sep.join([
                "%%MatrixMarket matrix coordinate real symmetric", "% before the size line",
                "", "2 2 3", "1 1 4.0", "  % between entries", " \t", "2 1 2.0", "",
                "%", "2 2 4.0", "% after the last entry", ""]).encode())
            assert A.nnz == 3
            assert np.array_equal(to_dense(A), [[4, 2], [2, 4]])

    def test_general_rejected(self):
        bad = SIMPLE.replace(b"symmetric", b"general")
        with pytest.raises(MatrixFormatError):
            read_matrix_market(bad)

    def test_pattern_rejected(self):
        with pytest.raises(MatrixFormatError):
            read_matrix_market(mm("""
%%MatrixMarket matrix coordinate pattern symmetric
2 2 3
1 1
2 1
2 2
"""))

    def test_missing_diagonal_rejected(self):
        with pytest.raises(MatrixFormatError):
            read_matrix_market(mm("""
%%MatrixMarket matrix coordinate real symmetric
2 2 2
1 1 4.0
2 1 2.0
"""))
        # column 1 holds (2, 1) but not (1, 1)
        with pytest.raises(MatrixFormatError, match="missing structural diagonal"):
            SparseSpd.from_coo(3, [0, 2, 2], [0, 1, 2], [1.0, 1.0, 1.0])

    def test_index_out_of_range(self):
        with pytest.raises(MatrixFormatError):
            read_matrix_market(mm("""
%%MatrixMarket matrix coordinate real symmetric
2 2 3
1 1 4.0
3 1 2.0
2 2 4.0
"""))
        for rows, cols in (([0, 2], [0, 1]), ([0, 1], [-1, 1])):
            with pytest.raises(MatrixFormatError, match="out of range"):
                SparseSpd.from_coo(2, rows, cols, [1.0, 1.0])

    @pytest.mark.parametrize("entry", ["2.7 1.2 0.5", "2 1.5 0.5", "nan 1 0.5", "inf 1 0.5"])
    def test_non_integer_index_rejected(self, entry):
        with pytest.raises(MatrixFormatError, match="integers"):
            read_matrix_market(mm(f"""
%%MatrixMarket matrix coordinate real symmetric
2 2 3
1 1 4.0
{entry}
2 2 4.0
"""))

    @pytest.mark.parametrize("body", [b"", b"\x1c", b"\x85", b" \x1c\n\x85\n"])
    def test_body_that_loadtxt_reads_as_no_rows(self, body):
        # loadtxt takes \x1c and \x85 for whitespace, bytes.isspace does not
        banner = b"%%MatrixMarket matrix coordinate real symmetric\n"
        A = read_matrix_market(banner + b"0 0 0\n" + body)
        assert (A.n, A.nnz) == (0, 0)
        with pytest.raises(MatrixFormatError, match="expected 1 entries, found 0"):
            read_matrix_market(banner + b"1 1 1\n" + body)

    def test_bad_banner(self):
        with pytest.raises(MatrixFormatError):
            read_matrix_market(b"%%NotMatrixMarket foo\n1 1 1\n1 1 1.0\n")

    def test_nonsquare_rejected(self):
        with pytest.raises(MatrixFormatError):
            read_matrix_market(mm("""
%%MatrixMarket matrix coordinate real symmetric
2 3 1
1 1 4.0
"""))


class TestWathen:
    @pytest.mark.parametrize("nx, ny", [(4, 3), (10, 8), (40, 30), (120, 100), (1, 1), (5, 1)])
    def test_matches_element_loop(self, nx, ny):
        got, want = wathen(nx, ny, seed=nx), oracles.wathen(nx, ny, seed=nx)
        assert got.n == want.n == 3 * nx * ny + 2 * nx + 2 * ny + 1
        assert np.array_equal(got.col_ptr, want.col_ptr)
        assert np.array_equal(got.row_idx, want.row_idx)
        assert np.array_equal(got.values.view(np.int64), want.values.view(np.int64))


class TestL2Scale:
    def test_identity(self):
        A = tridiag(4, diag=1.0, off=0.0)
        Ahat, S = l2_scale(A)
        assert np.allclose(S.s, 1.0)
        assert np.allclose(Ahat.values, A.values)

    def test_2x2(self):
        A = read_matrix_market(SIMPLE)
        Ahat, S = l2_scale(A)
        assert np.allclose(S.s, 20.0 ** 0.25)
        D = to_dense(Ahat)
        assert np.allclose(D, [[0.894427, 0.447214], [0.447214, 0.894427]], atol=1e-6)

    def test_roundtrip(self):
        A = random_spd(40, seed=3)
        Ahat, S = l2_scale(A)
        back = Ahat.values * S.s[Ahat.row_idx] * S.s[Ahat.entry_col]
        assert np.allclose(back, A.values, rtol=1e-14, atol=0)

    # column sums of squares that overflow, and that underflow to zero
    @pytest.mark.parametrize("diag, s", [((1e300, 1e-300), (1e150, 1e-150)),
                                         ((1e-310, 1e-310), (1e-155, 1e-155))])
    def test_squares_outside_the_fp64_range(self, diag, s):
        Ahat, S = l2_scale(SparseSpd(2, [0, 1, 2], [0, 1], list(diag)))
        assert np.allclose(S.s, s, rtol=1e-12, atol=0)
        assert np.allclose(Ahat.values, 1.0, rtol=1e-12, atol=0)

    def test_columns_whose_scales_overflow_as_a_product(self):
        A = SparseSpd(2, [0, 2, 3], [0, 1, 1], [1.7e308, 1e308, 1.7e308])
        Ahat, S = l2_scale(A)
        assert S.s[0] > np.finfo(float).max / S.s[1]     # s_0 s_1 overflows
        # both column norms are 1e308 * sqrt(1.7^2 + 1)
        assert np.allclose(Ahat.values, np.array([1.7, 1.0, 1.7]) / np.sqrt(3.89), rtol=1e-14)

    def test_zero_column_raises(self):
        with pytest.raises(ValueError, match="zero or non-finite column norm"):
            l2_scale(SparseSpd(2, [0, 1, 2], [0, 1], [1.0, 0.0]))

    def test_entries_bounded(self):
        for seed in range(5):
            A = random_spd(30, seed=seed)
            Ahat, _ = l2_scale(A)
            assert np.abs(Ahat.values).max() <= 1 + 4 * 2.0 ** -53


class TestSqueeze:
    def test_unchanged(self):
        A = tridiag(5, diag=0.5, off=0.5)
        Alow, rep = squeeze(A, FP16)
        assert rep.dropped_underflow == 0 and rep.flushed_subnormal == 0
        assert rep.kept == A.nnz
        assert np.array_equal(Alow.row_idx, A.row_idx)

    def test_tiny_offdiag_removed(self):
        A = SparseSpd.from_coo(2, [0, 1, 1], [0, 0, 1], [1.0, 1e-9, 1.0])
        Alow, rep = squeeze(A, FP16)
        assert rep.dropped_underflow + rep.flushed_subnormal == 1
        assert Alow.nnz == 2
        assert rep.kept + rep.dropped_underflow + rep.flushed_subnormal == A.nnz

    def test_subnormal_offdiag_flushed(self):
        A = SparseSpd.from_coo(2, [0, 1, 1], [0, 0, 1], [1.0, 1e-6, 1.0])
        Alow, rep = squeeze(A, FP16)
        assert rep.flushed_subnormal == 1
        assert Alow.nnz == 2

    def test_subnormal_diagonal_kept(self):
        A = SparseSpd.from_coo(2, [0, 1], [0, 1], [1e-6, 1.0])
        Alow, rep = squeeze(A, FP16)
        assert Alow.nnz == 2
        assert 0 < Alow.values[0] < FP16.x_min

    def test_overflow_raises(self):
        A = SparseSpd.from_coo(2, [0, 1, 1], [0, 0, 1], [1.0, 1e5, 1.0])
        with pytest.raises(ValueError, match="entry overflows the target format"):
            squeeze(A, FP16)

    def test_fp64_identity(self):
        A = random_spd(20, seed=1)
        Alow, rep = squeeze(A, FP64)
        assert rep.kept == A.nnz
        assert np.array_equal(Alow.values, A.values)

    def test_counts_conserved(self):
        rng = np.random.default_rng(9)
        n = 30
        A = random_spd(n, seed=5)
        # widen dynamic range so some entries underflow
        v = A.values * 10.0 ** rng.uniform(-10, 0, A.nnz)
        v[A.diag_positions()] = np.abs(v[A.diag_positions()]) + 1.0
        A = A.with_values(v)
        _, rep = squeeze(A, FP16)
        assert rep.kept + rep.dropped_underflow + rep.flushed_subnormal == A.nnz


class TestKernels:
    def test_matvec_identity(self):
        A = tridiag(4, diag=1.0, off=0.0)
        x = np.array([1.0, -2.0, 3.0, 4.0])
        assert np.array_equal(matvec_f64(A, x), x)

    def test_matvec_2x2(self):
        A = read_matrix_market(SIMPLE)
        assert np.array_equal(matvec_f64(A, np.ones(2)), [6.0, 6.0])

    def test_matvec_vs_dense(self):
        rng = np.random.default_rng(11)
        for seed in range(5):
            A = random_spd(50, seed=seed)
            D = to_dense(A)
            x = rng.standard_normal(50)
            assert np.allclose(matvec_f64(A, x), D @ x, rtol=1e-13)

    def test_matvec_dim_mismatch(self):
        A = tridiag(4)
        with pytest.raises(ValueError):
            matvec_f64(A, np.ones(3))

    def test_inf_norms(self):
        A = read_matrix_market(SIMPLE)
        assert inf_norm_matrix(A) == 6.0
        assert inf_norm_vector(np.array([1.0, -3.0, 2.0])) == 3.0
        D = to_dense(random_spd(30, seed=2))
        from icir.gallery import dense_to_sparse
        assert np.isclose(inf_norm_matrix(dense_to_sparse(D)),
                          np.abs(D).sum(axis=1).max(), rtol=1e-14)


BANNERS = ["%%MatrixMarket matrix coordinate real symmetric",
           "%%MatrixMarket matrix coordinate integer symmetric",
           "%%MatrixMarket matrix coordinate real general",
           "%%MatrixMarket matrix coordinate pattern symmetric",
           "%%MatrixMarket matrix array real symmetric", ""]
TOKENS = st.one_of(
    st.integers(-3, 5).map(str),
    st.sampled_from(["0.5", "-2.5", "1e30", "-1e30", "1e400", "nan", "inf", "-inf",
                     "2.7", "a", "0x10", "1_0", "%", "#", "''", ""]),
    st.floats().map(repr),
    st.text(max_size=4))
ROWS = st.lists(st.lists(TOKENS, max_size=5).map(" ".join), max_size=8)


class TestReaderFuzz:
    @given(st.one_of(st.sampled_from(BANNERS), st.text(max_size=40)),
           st.one_of(st.lists(TOKENS, max_size=4).map(" ".join),
                     st.tuples(st.integers(-2, 4), st.integers(0, 9)).map(
                         lambda t: f"{t[0]} {t[0]} {t[1]}")),
           ROWS)
    @settings(max_examples=400, deadline=None)
    def test_matrix_or_format_error(self, banner, size, rows):
        text = "\n".join([banner, size, *rows]) + "\n"
        try:
            A = read_matrix_market(text.encode("utf-8", "surrogatepass"))
        except MatrixFormatError:
            return
        assert A.n >= 0
        assert np.all(np.isfinite(A.values))

    @pytest.mark.parametrize("body", [
        "-1 -1 0", "1 1 1\n1 1 nan", "1 1 1\n1 1 inf", "2 2 2\n1 1 4.0\n2 2",
        "1 1 1\n1 1 a", "1 1 1\n1 1 4.0 5.0", "1 1 1\n1e30 1 4.0",
        "100000000000 100000000000 0",
        # Matrix Market comments start with %; a '#' is a bad token
        "1 1 1\n1 1 4.0 # junk", "1 1 1\n#",
        # a '%' that does not start its line is a bad token too
        "1 1 1\n1 1 4.0 %"])
    def test_defects_rejected(self, body):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(MatrixFormatError):
                read_matrix_market(mm(BANNERS[0] + "\n" + body))


def test_off_diagonal_view_gives_the_mask_formulas_bytes():
    """Every reader of SparseSpd.off_diagonal against the mask it replaced,
    byte for byte, on the golden corpus and the fp64-range extremes."""
    rng = np.random.default_rng(12)
    mats = list(corpus().values())
    mats.append(SparseSpd(2, [0, 2, 3], [0, 1, 1], [1.7e308, 1e308, 1.7e308]))
    for A in mats:
        x = rng.standard_normal(A.n) / max(1.0, np.abs(A.values).max())
        m = np.maximum(np.bincount(A.entry_col, np.abs(A.values), A.n),
                       np.bincount(A.row_idx, np.abs(A.values), A.n))
        Ahat, _ = l2_scale(A)
        assert Ahat.off is A.off   # one view, shared by the scaled matrix
        for B in (A, Ahat):
            assert matvec_f64(B, x).tobytes() == oracles.masked_matvec(B, x).tobytes()
            with np.errstate(over="ignore"):   # the extremes' row sum is inf
                assert inf_norm_matrix(B) == oracles.masked_inf_norm(B)
            for scale in (None, m):
                assert (_column_sumsq(B, scale).tobytes()
                        == oracles.masked_column_sumsq(B, scale).tobytes())
            assert all(a.tobytes() == b.tobytes()
                       for a, b in zip(_full_adjacency(B), oracles.masked_adjacency(B)))
        for f in (get_format("fp16"), get_format("bf16")):
            Alow, report = squeeze(Ahat, f)
            rows, vals, counts, kept = oracles.masked_squeeze(Ahat, f)
            assert (report.kept, report.dropped_underflow, report.flushed_subnormal) == kept
            assert Alow.row_idx.tobytes() == rows.tobytes()
            assert Alow.values.tobytes() == vals.tobytes()
            assert np.array_equal(np.diff(Alow.col_ptr), counts)
