"""Plain-Python scalar references for the vectorised kernels.

Each reference takes the arithmetic one rounded fp64 operation at a time, in
the order the kernels document, so a kernel must match it bit for bit (up
to the sign of an exact zero).

round_to, sim_op and safe_update are the scalar references of
icir.precision: rounding with underflow and subnormal flags, one simulated
operation, and one guarded update.  They are built on _round_scalar, a
frozen copy of the frexp/ldexp rounding icir.precision once had for every
scalar, so that a faster rounding in icir.precision is checked against a
ruler that does not move with it.  _safe_update_many is, for the same
reason, a frozen copy of the pair-by-pair vector guard that
icir.precision.safe_update_many runs when its one bound fails.

native_forward_solve and native_backward_solve are the references of the
native_low substitutions of icir.trisolve: one sim_op per operation, the
first overflow raising OverflowSignal and a zero pivot ZeroDivisionError,
where the kernels raise OverflowSignal.

masked_matvec, masked_inf_norm, masked_column_sumsq, masked_squeeze and
masked_adjacency are the formulas icir.sparse and icir.symbolic had before
SparseSpd kept its off-diagonal view: each forms the mask row_idx !=
entry_col (or ==) on every call.  The kernels that read the view must give
their bytes.

wathen is the reference of icir.gallery.wathen: the per-element loop, whose
triplets the vectorised generator must give in the same order.

column_pattern is the reference of icir.symbolic.ic_pattern: one
breadth-first search per column, whose arrays the blocked search must
return.

update_orders is the reference of the two orders of icir.symbolic's
schedule, in which the solves take the off-diagonals: a plain sort on
(level of the row, row, column) forward and (level of the column, column,
row), all descending, backward.

step_times is the reference of the factor's dataflow step schedule, and
column_factor of the factor itself: the right-looking column loop, whose
first breakdown in column order icir.factor.ic_attempt must return.  Its
unguarded mode, the B1 test only with overflow raised as an error, is the
path fp32 and fp64 once took, where the guarded kernel must give the same
bits or breakdown, or a B2 or B3 in place of the error.

gmres_reference is the reference of icir.krylov.gmres: the same Arnoldi
process with its Hessenberg column, rotations and right-hand side kept as
NumPy arrays and scalars, whose solution, iteration count and status the
Python-float bookkeeping must give.  pcg_reference is that of
icir.krylov.pcg: the same recurrences with every np.dot result kept as a
NumPy scalar, where pcg takes Python floats.
"""

import math
from dataclasses import dataclass

import numpy as np

from icir.factor import Breakdown, FactorizationError
from icir.gallery import _ELEMENT
from icir.krylov import (CONVERGED, MAX_ITERATIONS, SMALL_CURVATURE, STAGNATED,
                         KrylovOutcome)
from icir.precision import FpFormat, quantize, safe_scale_check
from icir.sparse import SparseSpd, inf_norm_matrix, matvec_f64
from icir.symbolic import FillPattern
from icir.trisolve import OverflowSignal

OVERFLOW = "overflow"
UNDERFLOW_TO_ZERO = "underflow_to_zero"
BECAME_SUBNORMAL = "became_subnormal"


@dataclass(frozen=True)
class RoundOutcome:
    """Result of rounding one value: the rounded carrier (None on overflow) and flags."""

    value: float | None
    flags: frozenset

    @property
    def overflow(self) -> bool:
        return OVERFLOW in self.flags


def _round_scalar(x: float, f: FpFormat):
    """Round one finite double into format f.

    Returns (value, overflow) where value is a double exactly representable
    in f.  Mirrors quantize()'s frexp path operation-for-operation so scalar
    and vector paths are bit-identical.
    """
    if x == 0.0:
        return x, False  # preserves signed zero
    ax = abs(x)
    p = f.significand_bits
    if ax >= f.x_min:
        m, e = math.frexp(ax)  # ax = m * 2^e, m in [0.5, 1)
        q = round(math.ldexp(m, p))  # banker's rounding on an exact scale
        y = math.ldexp(float(q), e - p)
    elif f.supports_subnormals:
        q = round(ax / f.x_s_min)  # division by a power of two is exact
        y = q * f.x_s_min
    else:
        # no subnormals: nearest of {0, x_min}; the tie x_min/2 goes to 0 (even)
        y = f.x_min if ax > 0.5 * f.x_min else 0.0
    if y > f.x_max:
        return math.copysign(y, x), True
    return math.copysign(y, x), False


def round_to(x: float, f: FpFormat) -> RoundOutcome:
    """Round a finite double into f with round-to-nearest, ties-to-even."""
    if not math.isfinite(x):
        raise ValueError("round_to requires a finite input")
    if f.is_double:
        return RoundOutcome(x, frozenset())
    y, over = _round_scalar(float(x), f)
    if over:
        return RoundOutcome(None, frozenset({OVERFLOW}))
    flags = set()
    if y == 0.0 and x != 0.0:
        flags.add(UNDERFLOW_TO_ZERO)
    elif abs(y) < f.x_min:
        flags.add(BECAME_SUBNORMAL)
    return RoundOutcome(y, frozenset(flags))


def sim_op(op: str, a: float, b: float | None = None, f: FpFormat = None) -> RoundOutcome:
    """One simulated arithmetic operation: exact/correctly-rounded fp64, then one rounding.

    op in {add, sub, mul, div, sqrt}; operands must already be representable
    in f (this is the caller's contract and is not re-verified here).
    """
    if op == "add":
        z = a + b
    elif op == "sub":
        z = a - b
    elif op == "mul":
        z = a * b
    elif op == "div":
        z = a / b
    elif op == "sqrt":
        if a < 0:
            raise ValueError("sqrt of negative operand")
        z = math.sqrt(a)
    else:
        raise ValueError(f"unknown op {op!r}")
    return round_to(z, f)


def safe_update(a: float, b: float, c: float, f: FpFormat):
    """Guarded update v = a - b*c in format f.

    Returns the rounded v, or None when performing the update could overflow
    (breakdown B3).  The guard tests run on the exact fp64 product b*c --
    exact for formats with p <= 24 significand bits -- because evaluating the
    tests in f itself can round a product across the x_max boundary and admit
    an update whose exact value overflows.  See the B3 discussion in factor.py.

    A NaN or infinite a is flagged below fp64, where the vector guard's
    rounding of a - round(b*c) flags it; in fp64, whose rounding is the
    identity, it meets the guards, NaN on the side of a >= 0 as in the
    vector guard, and passes as a - b*c.
    """
    if not (math.isfinite(a) or f.is_double):
        return None
    xmax = f.x_max
    ab, ac = abs(b), abs(c)
    if not (ab <= 1.0 or ac <= 1.0 or ab * ac <= xmax):
        return None
    w = b * c  # exact in fp64
    if not a < 0.0:
        if not (w >= 0.0 or xmax - a >= -w):
            return None
    else:
        if not (w < 0.0 or xmax + a >= w):
            return None
    wr, over = _round_scalar(w, f)
    if over:  # cannot happen given the product guard; defensive
        return None
    if not math.isfinite(a):
        return a - wr
    v, over = _round_scalar(a - wr, f)
    if over:
        return None
    return v


@np.errstate(over="ignore")
def _safe_update_many(a, b, c, f: FpFormat):
    """safe_update over aligned arrays, every guard on every pair: (v,
    unsafe_mask), entries of v under the mask invalid."""
    xmax = f.x_max
    ab = np.abs(b)
    ac = np.abs(c)
    unsafe = ~((ab <= 1.0) | (ac <= 1.0) | (ab * ac <= xmax))
    w = b * c
    neg_a = a < 0.0
    bad_pos = ~neg_a & ~((w >= 0.0) | (xmax - a >= -w))
    bad_neg = neg_a & ~((w < 0.0) | (xmax + a >= w))
    unsafe |= bad_pos | bad_neg
    wr, over_w = quantize(w, f)
    v, over_v = quantize(a - wr, f)
    unsafe |= over_w | over_v
    return v, unsafe


def _divide(acc: float, d: float) -> float:
    """acc / d, a zero d giving NumPy's ±inf or NaN where Python would raise."""
    return acc / d if d else float(np.float64(acc) / d)


def forward_solve(col_ptr, row_idx, values, w):
    """Solve L y = w for L in CSC form, diagonal first in every column.

    Unknown j takes its updates l_jk * y_k in ascending source column k,
    then is divided by l_jj (a zero l_jj as NumPy divides).
    """
    n = len(w)
    sources = [[] for _ in range(n)]   # (k, l_jk) for every target row j
    for k in range(n):
        for p in range(col_ptr[k] + 1, col_ptr[k + 1]):
            sources[int(row_idx[p])].append((k, float(values[p])))
    y = [0.0] * n
    for j in range(n):
        acc = float(w[j])
        for k, l_jk in sources[j]:
            acc -= l_jk * y[k]
        y[j] = _divide(acc, float(values[col_ptr[j]]))
    return y


def backward_solve(col_ptr, row_idx, values, w):
    """Solve L^T y = w for L in CSC form, diagonal first in every column.

    Unknown j takes its updates l_ij * y_i in descending source row i, then
    is divided by l_jj (a zero l_jj as NumPy divides).
    """
    n = len(w)
    y = [0.0] * n
    for j in range(n - 1, -1, -1):
        acc = float(w[j])
        for p in range(col_ptr[j + 1] - 1, col_ptr[j], -1):
            acc -= float(values[p]) * y[int(row_idx[p])]
        y[j] = _divide(acc, float(values[col_ptr[j]]))
    return y


def _native(outcome: RoundOutcome, op: str, j: int) -> float:
    """The value of a rounded native_low operation of column j; OverflowSignal
    if it overflowed."""
    if outcome.overflow:
        raise OverflowSignal(f"{op} overflow at column {j}")
    return outcome.value


def _pivot(values, col_ptr, j: int) -> float:
    d = float(values[col_ptr[j]])
    if d == 0.0:
        raise ZeroDivisionError(f"zero diagonal at column {j}")
    return d


def native_forward_solve(col_ptr, row_idx, values, w, f: FpFormat) -> np.ndarray:
    """Solve L y = w in format f, as the native_low forward solve does.

    Column by column: a zero y_j is skipped; else y_j is divided by l_jj,
    then every product l_ij y_j of column j is formed, then every update
    y_i - l_ij y_j, both in storage (ascending row) order.
    """
    y = [float(v) for v in w]
    for j in range(len(y)):
        if y[j] == 0.0:
            continue
        y[j] = _native(sim_op("div", y[j], _pivot(values, col_ptr, j), f), "division", j)
        below = range(col_ptr[j] + 1, col_ptr[j + 1])
        prods = [_native(sim_op("mul", float(values[p]), y[j], f), "product", j) for p in below]
        for p, prod in zip(below, prods):
            i = int(row_idx[p])
            y[i] = _native(sim_op("sub", y[i], prod, f), "subtraction", j)
    return np.array(y)


def native_backward_solve(col_ptr, row_idx, values, w, f: FpFormat) -> np.ndarray:
    """Solve L^T y = w in format f, as the native_low backward solve does.

    Unknown j, from the last: every product l_ij y_i of column j in storage
    (ascending row) order, then the subtractions of the nonzero products in
    that order, then the division by l_jj.
    """
    y = [float(v) for v in w]
    for j in range(len(y) - 1, -1, -1):
        d = _pivot(values, col_ptr, j)
        prods = [_native(sim_op("mul", float(values[p]), y[int(row_idx[p])], f), "product", j)
                 for p in range(col_ptr[j] + 1, col_ptr[j + 1])]
        acc = y[j]
        for prod in prods:
            if prod != 0.0:
                acc = _native(sim_op("sub", acc, prod, f), "subtraction", j)
        y[j] = _native(sim_op("div", acc, d, f), "division", j)
    return np.array(y)


def masked_matvec(A: SparseSpd, x: np.ndarray) -> np.ndarray:
    y = np.bincount(A.row_idx, weights=A.values * x[A.entry_col], minlength=A.n)
    off = A.row_idx != A.entry_col
    y += np.bincount(A.entry_col[off], weights=A.values[off] * x[A.row_idx[off]], minlength=A.n)
    return y


def masked_inf_norm(A: SparseSpd) -> float:
    av = np.abs(A.values)
    rowsum = np.bincount(A.row_idx, weights=av, minlength=A.n)
    off = A.row_idx != A.entry_col
    rowsum += np.bincount(A.entry_col[off], weights=av[off], minlength=A.n)
    return float(rowsum.max()) if A.n else 0.0


def masked_column_sumsq(A: SparseSpd, m=None) -> np.ndarray:
    off = A.row_idx != A.entry_col
    v, w = A.values, A.values[off]
    if m is not None:
        v, w = v / m[A.entry_col], w / m[A.row_idx[off]]
    with np.errstate(over="ignore"):
        sumsq = np.bincount(A.entry_col, weights=v * v, minlength=A.n)
        sumsq += np.bincount(A.row_idx[off], weights=w * w, minlength=A.n)
    return sumsq


def masked_squeeze(Ahat: SparseSpd, f: FpFormat):
    """squeeze's kept rows and values, column counts and (kept, dropped,
    flushed) counts."""
    y, _ = quantize(Ahat.values, f)
    is_diag = Ahat.row_idx == Ahat.entry_col
    drop = ~is_diag & (y == 0.0) & (Ahat.values != 0.0)
    flush = ~is_diag & (y != 0.0) & (np.abs(y) < f.x_min)
    keep = ~(drop | flush)
    counts = (int(np.count_nonzero(keep)), int(np.count_nonzero(drop)),
              int(np.count_nonzero(flush)))
    return Ahat.row_idx[keep], y[keep], np.bincount(Ahat.entry_col[keep], minlength=Ahat.n), counts


def masked_adjacency(A: SparseSpd):
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


def wathen(nx: int, ny: int, seed: int = 0) -> SparseSpd:
    """Random Wathen mass matrix, assembled one element at a time (j outer,
    i inner), each element's 8 x 8 block in row-major order."""
    rng = np.random.default_rng(seed)
    rho = 100.0 * rng.random((nx, ny))
    n = 3 * nx * ny + 2 * nx + 2 * ny + 1

    rows_l = []
    cols_l = []
    vals_l = []
    nn = np.zeros(8, dtype=np.int64)
    rr, cc = np.meshgrid(np.arange(8), np.arange(8), indexing="ij")
    for j in range(1, ny + 1):
        for i in range(1, nx + 1):
            nn[0] = 3 * j * nx + 2 * i + 2 * j + 1
            nn[1] = nn[0] - 1
            nn[2] = nn[1] - 1
            nn[3] = (3 * j - 1) * nx + 2 * j + i - 1
            nn[4] = 3 * (j - 1) * nx + 2 * i + 2 * j - 3
            nn[5] = nn[4] + 1
            nn[6] = nn[5] + 1
            nn[7] = nn[3] + 1
            rows_l.append(nn[rr].copy())
            cols_l.append(nn[cc].copy())
            vals_l.append(rho[i - 1, j - 1] * _ELEMENT)
    rows = np.concatenate([a.ravel() for a in rows_l]) - 1  # to 0-based
    cols = np.concatenate([a.ravel() for a in cols_l]) - 1
    vals = np.concatenate([a.ravel() for a in vals_l])
    lower = rows >= cols
    return SparseSpd.from_coo(n, rows[lower], cols[lower], vals[lower])


def column_pattern(A, level):
    """FillPattern of IC(level), one depth-limited search per column.

    Column j's search starts at j, expands only through vertices below j and
    stops after level + 1 edges; the vertices above j it reaches, and j, are
    the column's rows.
    """
    n = A.n
    adj_ptr, adj = masked_adjacency(A)

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
        cols.append(np.unique(rows))

    col_ptr = np.zeros(n + 1, dtype=np.int64)
    col_ptr[1:] = np.cumsum([len(c) for c in cols])
    row_idx = np.concatenate(cols) if cols else np.empty(0, dtype=np.int64)
    return FillPattern(n, col_ptr, row_idx.astype(np.int64))


def update_orders(col_ptr, row_idx, level):
    """The positions of every off-diagonal l_jk (row j, column k) sorted by
    (level[j], j, k), the forward order, and by (-level[k], -k, -j), the
    backward order: the schedule's columns reversed, rows descending."""
    entries = [(int(row_idx[p]), k, p) for k in range(len(col_ptr) - 1)
               for p in range(col_ptr[k], col_ptr[k + 1]) if row_idx[p] != k]
    forward = sorted(entries, key=lambda e: (level[e[0]], e[0], e[1]))
    backward = sorted(entries, key=lambda e: (-level[e[1]], -e[1], -e[0]))
    return [p for _, _, p in forward], [p for _, _, p in backward]


def step_times(col_ptr, row_idx):
    """Step times of the factor's tasks and pivots, one column at a time.

    The task at off-diagonal position p of column k, in row j, updates
    column j from source column k.  The tasks of a target column j run in
    ascending k, each after the previous one and after its source's pivot:
    T = max(T_previous + 1, P(k) + 1).  The pivot of j runs at its last
    task's time, or at 0 when j has no task.  Returns (T, P), T indexed by
    position with None on the diagonal, P by column.
    """
    n = len(col_ptr) - 1
    tasks = [[] for _ in range(n)]   # (k, p) for every target column j
    for k in range(n):
        for p in range(col_ptr[k] + 1, col_ptr[k + 1]):
            tasks[int(row_idx[p])].append((k, p))
    T = [None] * int(col_ptr[n])
    P = [0] * n
    for j in range(n):
        t = 0
        for k, p in tasks[j]:
            t = max(t + 1, P[k] + 1)
            T[p] = t
        P[j] = t
    return T, P


def _triangular_pairs(m: int):
    """Index pairs (t, s) with s >= t for a column of m off-diagonal entries."""
    counts = m - np.arange(m)
    t = np.repeat(np.arange(m), counts)
    group_start = np.repeat(np.cumsum(counts) - counts, counts)
    s = np.arange(len(t)) - group_start + t
    return t, s


def column_factor(vals, pattern, keys, tau, f, safe_checks):
    """Factor vals in place column by column (right-looking).  Returns vals or
    the first Breakdown in column order.  With safe_checks False only the B1
    test runs, and an overflow raises FactorizationError."""
    n = pattern.n
    col_ptr = pattern.col_ptr
    rows_all = pattern.row_idx
    nnz = len(vals)

    for k in range(n):
        s0, e0 = col_ptr[k], col_ptr[k + 1]
        d = vals[s0]
        if d < tau:
            return Breakdown("B1", k)
        droot, _ = _round_scalar(math.sqrt(d), f)
        colv = vals[s0 + 1:e0]
        m = e0 - 1 - s0
        if safe_checks and droot < 1.0:
            a = float(np.max(np.abs(colv))) if m else 0.0
            if not safe_scale_check(droot, a, f):
                return Breakdown("B2", k)
        q, over = quantize(colv / droot, f)
        if np.any(over) or not np.all(np.isfinite(q)):
            if safe_checks:  # unreachable given the guard; stay conservative
                return Breakdown("B2", k)
            raise FactorizationError(f"column scaling overflowed at k={k} without safe checks")
        vals[s0] = droot
        vals[s0 + 1:e0] = q
        if m == 0:
            continue

        rows = rows_all[s0 + 1:e0]
        t, s = _triangular_pairs(m)
        c = q[t]   # l_jk for target column j = rows[t]
        b = q[s]   # l_ik for target row i = rows[s]
        live = (b != 0.0) & (c != 0.0)
        if not np.any(live):
            continue
        t, s, b, c = t[live], s[live], b[live], c[live]
        qkeys = rows[t] * np.int64(n) + rows[s]
        pos = np.searchsorted(keys, qkeys)
        present = (pos < nnz)
        pos_c = np.minimum(pos, nnz - 1)
        present &= keys[pos_c] == qkeys
        if not np.any(present):
            continue
        pos = pos_c[present]
        b = b[present]
        c = c[present]
        a = vals[pos]
        if safe_checks:
            v, unsafe = _safe_update_many(a, b, c, f)
            if np.any(unsafe):
                return Breakdown("B3", k)
            vals[pos] = v
        else:
            w, over_w = quantize(b * c, f)
            v, over_v = quantize(a - w, f)
            if np.any(over_w) or np.any(over_v) or not np.all(np.isfinite(v)):
                raise FactorizationError(f"update overflowed at k={k} without safe checks")
            vals[pos] = v

    if np.any(np.abs(vals) > f.x_max):
        raise FactorizationError("stored factor value exceeds x_max")  # defensive
    return vals


def gmres_reference(A: SparseSpd, M, b: np.ndarray, tol: float, maxit: int) -> KrylovOutcome:
    """Left-preconditioned GMRES with modified Gram-Schmidt Arnoldi, no
    restarting, its bookkeeping on NumPy scalars and arrays, which
    icir.krylov.gmres must match bit for bit.

    iterations = Krylov basis size used.  Happy breakdown (exact solution in
    the current space) reports converged; a residual estimate that is NaN or
    infinite reports stagnated, with the non-finite solution of that basis.
    """
    b = np.asarray(b, dtype=np.float64)
    n = A.n
    x = np.zeros(n)
    if not np.any(b):
        return KrylovOutcome(x, 0, CONVERGED)
    r0 = M(b)
    beta = float(np.linalg.norm(r0))
    if beta == 0.0:
        return KrylovOutcome(x, 0, CONVERGED)
    target = tol * beta
    maxit = min(maxit, n)
    m = min(maxit, 32)  # storage for m iterations, grown on demand
    V = np.zeros((m + 1, n))
    H = np.zeros((m + 1, m))
    cs = np.zeros(m)
    sn = np.zeros(m)
    g = np.zeros(m + 1)
    g[0] = beta
    V[0] = r0 / beta

    def solve_and_pack(k, status):
        # back-substitute the k x k triangular system H y = g
        y = np.zeros(k)
        for i in range(k - 1, -1, -1):
            y[i] = (g[i] - np.dot(H[i, i + 1:k], y[i + 1:k])) / H[i, i]
        return KrylovOutcome(V[:k].T @ y, k, status)

    for k in range(maxit):
        if k == m:  # zeros for e more iterations
            e = min(maxit, 2 * m) - m
            m += e
            V, H = np.pad(V, ((0, e), (0, 0))), np.pad(H, (0, e))
            cs, sn, g = np.pad(cs, (0, e)), np.pad(sn, (0, e)), np.pad(g, (0, e))
        w = M(matvec_f64(A, V[k]))
        for i in range(k + 1):
            H[i, k] = np.dot(V[i], w)
            w -= H[i, k] * V[i]
        h = float(np.linalg.norm(w))
        H[k + 1, k] = h
        # previously accumulated Givens rotations
        for i in range(k):
            t = cs[i] * H[i, k] + sn[i] * H[i + 1, k]
            H[i + 1, k] = -sn[i] * H[i, k] + cs[i] * H[i + 1, k]
            H[i, k] = t
        denom = math.hypot(H[k, k], H[k + 1, k])
        if denom == 0.0:
            return solve_and_pack(k, STAGNATED)
        cs[k] = H[k, k] / denom
        sn[k] = H[k + 1, k] / denom
        H[k, k] = denom
        H[k + 1, k] = 0.0
        g[k + 1] = -sn[k] * g[k]
        g[k] = cs[k] * g[k]
        if abs(g[k + 1]) <= target or h == 0.0:
            return solve_and_pack(k + 1, CONVERGED)
        if not abs(g[k + 1]) < math.inf:   # NaN included; the caller sees it in x
            return solve_and_pack(k + 1, STAGNATED)
        if k + 1 < maxit:
            V[k + 1] = w / h
    return solve_and_pack(maxit, MAX_ITERATIONS)


def pcg_reference(A: SparseSpd, M, b: np.ndarray, tol: float, maxit: int) -> KrylovOutcome:
    """Preconditioned conjugate gradients from x0 = 0, its scalars the NumPy
    scalars np.dot returns, which icir.krylov.pcg must match bit for bit.

    Stops converged when sqrt(r.M r) drops below tol times its initial
    value; small_curvature when p.Ap <= 1e2 u ||A||_inf p.p, or r.M r is not
    positive at the start or not >= 0 (NaN) after a step.
    """
    b = np.asarray(b, dtype=np.float64)
    x = np.zeros(A.n)
    if not np.any(b):
        return KrylovOutcome(x, 0, CONVERGED)
    tiny = 1e2 * 2.0 ** -53 * inf_norm_matrix(A)
    r = b.copy()
    z = M(r)
    rz = np.dot(r, z)
    if rz <= 0.0:
        return KrylovOutcome(x, 0, SMALL_CURVATURE)
    target = tol * np.sqrt(rz)
    p = z.copy()
    for it in range(1, maxit + 1):
        Ap = matvec_f64(A, p)
        pAp = np.dot(p, Ap)
        if pAp <= tiny * np.dot(p, p):
            return KrylovOutcome(x, it - 1, SMALL_CURVATURE)
        alpha = rz / pAp
        x += alpha * p
        r -= alpha * Ap
        z = M(r)
        rz_new = np.dot(r, z)
        if not rz_new >= 0.0:
            return KrylovOutcome(x, it, SMALL_CURVATURE)
        if np.sqrt(rz_new) <= target:
            return KrylovOutcome(x, it, CONVERGED)
        beta = rz_new / rz
        rz = rz_new
        p = z + beta * p
    return KrylovOutcome(x, maxit, MAX_ITERATIONS)
