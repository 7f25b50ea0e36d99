"""Sparse symmetric (SPD) storage and fp64 reference kernels.

Matrices are held as the lower triangle (diagonal included) in compressed
sparse column form.  All kernels treat the matrix as symmetric: the strict
lower triangle is mirrored implicitly.
"""

from __future__ import annotations

import io
import warnings
from dataclasses import dataclass, field

import numpy as np

from .precision import FpFormat, quantize

__all__ = [
    "SparseSpd",
    "ScalingVector",
    "SqueezeReport",
    "MatrixFormatError",
    "read_matrix_market",
    "l2_scale",
    "squeeze",
    "matvec_f64",
    "inf_norm_matrix",
    "inf_norm_vector",
]


class MatrixFormatError(ValueError):
    """Raised for malformed or unsupported Matrix Market input."""


@dataclass
class SparseSpd:
    """Lower triangle of a symmetric matrix in CSC form.

    Within each column row indices are strictly increasing, so the diagonal
    entry is always the first entry of its column.  Treated as immutable
    after construction.
    """

    n: int
    col_ptr: np.ndarray  # int64, length n+1
    row_idx: np.ndarray  # int64, length nnz
    values: np.ndarray   # float64, length nnz
    # column index of each stored entry; derived, cached for the kernels
    entry_col: np.ndarray = field(default=None, repr=False)
    off: tuple = field(default=None, init=False, repr=False)   # off_diagonal(), on first use

    def __post_init__(self):
        self.col_ptr = np.asarray(self.col_ptr, dtype=np.int64)
        self.row_idx = np.asarray(self.row_idx, dtype=np.int64)
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.entry_col is None:
            self.entry_col = np.repeat(np.arange(self.n, dtype=np.int64),
                                       np.diff(self.col_ptr))

    @property
    def nnz(self) -> int:
        return len(self.row_idx)

    def diag_positions(self) -> np.ndarray:
        # diagonal is the first entry of every column
        return self.col_ptr[:-1]

    def off_diagonal(self):
        """Positions, rows and columns of the off-diagonal entries, found on
        first use and shared with the matrices with_values makes after it."""
        if self.off is None:
            pos = np.flatnonzero(self.row_idx != self.entry_col)
            self.off = pos, self.row_idx[pos], self.entry_col[pos]
        return self.off

    def with_values(self, values: np.ndarray) -> "SparseSpd":
        other = SparseSpd(self.n, self.col_ptr, self.row_idx,
                          np.asarray(values, dtype=np.float64), self.entry_col)
        other.off = self.off
        return other

    @staticmethod
    def from_coo(n: int, rows, cols, vals) -> "SparseSpd":
        """Build from unordered triplets of either triangle; duplicates are summed."""
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals, dtype=np.float64)
        if np.any(rows < 0) or np.any(rows >= n) or np.any(cols < 0) or np.any(cols >= n):
            raise MatrixFormatError("entry index out of range")
        # fold everything into the lower triangle
        lo = np.minimum(rows, cols)
        hi = np.maximum(rows, cols)
        key = lo * np.int64(n) + hi  # sort by column, then row
        order = np.argsort(key, kind="stable")
        key = key[order]
        vals = vals[order]
        uniq, start = np.unique(key, return_index=True)
        summed = np.add.reduceat(vals, start) if len(vals) else vals
        c = (uniq // n).astype(np.int64)
        r = (uniq % n).astype(np.int64)
        # each (r, c) is stored once, so n diagonal entries means all of them
        if np.count_nonzero(r == c) != n:
            raise MatrixFormatError("missing structural diagonal entry")
        col_ptr = np.zeros(n + 1, dtype=np.int64)
        np.add.at(col_ptr, c + 1, 1)
        np.cumsum(col_ptr, out=col_ptr)
        return SparseSpd(n, col_ptr, r, summed)


@dataclass(frozen=True)
class ScalingVector:
    """Diagonal of the symmetric scaling matrix S; strictly positive."""

    s: np.ndarray


@dataclass(frozen=True)
class SqueezeReport:
    kept: int
    dropped_underflow: int
    flushed_subnormal: int


def read_matrix_market(source) -> SparseSpd:
    """Parse a Matrix Market 'coordinate real symmetric' file into SparseSpd.

    source may be a path, a text/byte stream, or bytes.  Upper-triangle
    entries are mirrored into the lower triangle; duplicates are summed;
    indices are converted to 0-based.
    """
    if hasattr(source, "read"):
        data = source.read()
        if isinstance(data, str):
            data = data.encode()
    elif isinstance(source, bytes):
        data = source
    else:
        with open(source, "rb") as fh:
            data = fh.read()

    lines = io.BytesIO(data)
    header = lines.readline().decode("ascii", "replace").strip()
    parts = header.lower().split()
    if len(parts) != 5 or parts[0] != "%%matrixmarket":
        raise MatrixFormatError(f"bad Matrix Market banner: {header!r}")
    _, obj, fmt, fieldkind, symmetry = parts
    if obj != "matrix" or fmt != "coordinate":
        raise MatrixFormatError("only 'matrix coordinate' files are supported")
    if fieldkind not in ("real", "integer"):
        raise MatrixFormatError(f"unsupported field type {fieldkind!r} (need real values)")
    if symmetry != "symmetric":
        raise MatrixFormatError(f"matrix must be declared symmetric, got {symmetry!r}")

    # the size line, then the entries; blank and comment lines are skipped
    for raw in lines:
        if raw.strip() and not raw.lstrip().startswith(b"%"):
            break
    else:
        raise MatrixFormatError("missing size line")
    size_line = raw.strip()
    try:
        nrows, ncols, nnz = (int(t) for t in size_line.split())
    except ValueError:
        raise MatrixFormatError(f"bad size line: {size_line!r}")
    if nrows != ncols:
        raise MatrixFormatError("matrix is not square")
    if nrows < 0 or nnz < nrows:  # each diagonal entry must be stored
        raise MatrixFormatError(f"size line {size_line!r} needs 0 <= n <= nnz")

    body = data[lines.tell():]
    # loadtxt skips blank lines itself, but not comments, nor a blank line
    # with a carriage return inside it
    if b"%" in body or b"\r" in body:
        body = b"".join(raw for raw in io.BytesIO(body)
                        if raw.strip() and not raw.lstrip().startswith(b"%"))
    try:
        with warnings.catch_warnings():
            # a body loadtxt reads as no rows (blank, or only \x1c or \x85) is empty
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            # comments=None: Matrix Market has no '#' comments, so '#' is a bad token
            arr = np.loadtxt(io.BytesIO(body), ndmin=2, comments=None)
    except ValueError as exc:  # ragged rows, tokens that are not numbers
        raise MatrixFormatError(f"bad entry line: {exc}") from None
    arr = arr if arr.size else np.empty((0, 3))
    if arr.shape[0] != nnz:
        raise MatrixFormatError(f"expected {nnz} entries, found {arr.shape[0]}")
    if arr.shape[1] != 3:
        raise MatrixFormatError("entries must be 'row col value' (pattern files rejected)")
    index = arr[:, :2]
    if not np.all(np.isfinite(index)) or np.any(index != np.trunc(index)):
        raise MatrixFormatError("entry indices must be integers")
    if np.any(index < 1) or np.any(index > nrows):  # before the cast can wrap
        raise MatrixFormatError("entry index out of range")
    if not np.all(np.isfinite(arr[:, 2])):
        raise MatrixFormatError("entry values must be finite")
    # from_coo casts the checked, integral indices to int64
    return SparseSpd.from_coo(nrows, arr[:, 0] - 1, arr[:, 1] - 1, arr[:, 2])


def _column_sumsq(A: SparseSpd, m=None) -> np.ndarray:
    """Squared 2-norm of each column of the full symmetric matrix, or with m
    of each column j divided by m[j]."""
    pos, rows, _ = A.off_diagonal()
    v, w = A.values, A.values[pos]
    if m is not None:
        v, w = v / m[A.entry_col], w / m[rows]
    with np.errstate(over="ignore"):   # l2_scale redoes such columns
        sumsq = np.bincount(A.entry_col, weights=v * v, minlength=A.n)
        sumsq += np.bincount(rows, weights=w * w, minlength=A.n)
    return sumsq


def l2_scale(A: SparseSpd):
    """Symmetric scaling Ahat = S^-1 A S^-1 with s_j = sqrt(||column j||_2).

    Column norms are taken over the full symmetric matrix.  A column whose
    sum of squares leaves the fp64 range is summed again from its entries
    divided by its largest magnitude m_j.  For SPD input every scaled entry
    has magnitude <= 1.
    """
    sumsq = _column_sumsq(A)
    s = sumsq ** 0.25  # sqrt of the column 2-norm
    redo = ~((0.0 < sumsq) & (sumsq < np.inf))
    if redo.any():
        m = np.zeros(A.n)
        np.maximum.at(m, A.entry_col, np.abs(A.values))
        np.maximum.at(m, A.row_idx, np.abs(A.values))
        if not np.all((0.0 < m[redo]) & (m[redo] < np.inf)):
            raise ValueError("zero or non-finite column norm; cannot scale")
        s[redo] = (np.sqrt(m) * _column_sumsq(A, m) ** 0.25)[redo]
    with np.errstate(over="ignore"):   # s_i s_j of two redone columns may overflow
        ss = s[A.row_idx] * s[A.entry_col]
    scaled = A.values / ss
    big = ss == np.inf
    scaled[big] = A.values[big] / s[A.row_idx[big]] / s[A.entry_col[big]]
    return A.with_values(scaled), ScalingVector(s)


def squeeze(Ahat: SparseSpd, f: FpFormat):
    """Round every entry into format f, dropping off-diagonals that land at
    zero or in the subnormal range.  Diagonal entries are never removed (a
    zero diagonal is kept so pivot checks catch it later)."""
    y, over = quantize(Ahat.values, f)
    if np.any(over):
        raise ValueError("entry overflows the target format; input not prescaled?")
    pos = Ahat.off_diagonal()[0]
    yo = y[pos]
    drop = (yo == 0.0) & (Ahat.values[pos] != 0.0)
    flush = (yo != 0.0) & (np.abs(yo) < f.x_min)
    keep = np.ones(Ahat.nnz, dtype=bool)
    keep[pos[drop | flush]] = False
    report = SqueezeReport(kept=int(np.count_nonzero(keep)),
                           dropped_underflow=int(np.count_nonzero(drop)),
                           flushed_subnormal=int(np.count_nonzero(flush)))
    if report.kept == Ahat.nnz:
        return Ahat.with_values(y), report
    col_counts = np.bincount(Ahat.entry_col[keep], minlength=Ahat.n)
    col_ptr = np.zeros(Ahat.n + 1, dtype=np.int64)
    np.cumsum(col_counts, out=col_ptr[1:])
    Alow = SparseSpd(Ahat.n, col_ptr, Ahat.row_idx[keep], y[keep])
    return Alow, report


def matvec_f64(A: SparseSpd, x: np.ndarray) -> np.ndarray:
    """Full symmetric matrix-vector product in fp64."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (A.n,):
        raise ValueError("dimension mismatch")
    pos, rows, cols = A.off_diagonal()
    y = np.bincount(A.row_idx, weights=A.values * x[A.entry_col], minlength=A.n)
    y += np.bincount(cols, weights=A.values[pos] * x[rows], minlength=A.n)
    return y


def inf_norm_matrix(A: SparseSpd) -> float:
    pos, _, cols = A.off_diagonal()
    av = np.abs(A.values)
    rowsum = np.bincount(A.row_idx, weights=av, minlength=A.n)
    rowsum += np.bincount(cols, weights=av[pos], minlength=A.n)
    return float(rowsum.max()) if A.n else 0.0


def inf_norm_vector(v: np.ndarray) -> float:
    v = np.asarray(v)
    return float(np.max(np.abs(v))) if len(v) else 0.0
