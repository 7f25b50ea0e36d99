"""Plain-Python scalar references for the vectorised kernels.

Each reference takes the arithmetic one rounded fp64 operation at a time, in
the order the kernels document, so a kernel must match it bit for bit (up
to the sign of an exact zero).

round_to, sim_op and safe_update are the scalar references of
icir.precision: rounding with underflow and subnormal flags, one simulated
operation, and one guarded update.  round_to is built on
icir.precision._round_scalar, so comparing it with quantize pins the scalar
and vector rounding paths to each other.

native_forward_solve and native_backward_solve are the references of the
native_low substitutions of icir.trisolve: one sim_op per operation, the
first overflow raising OverflowSignal with the kernels' message.

wathen is the reference of icir.gallery.wathen: the per-element loop, whose
triplets the vectorised generator must give in the same order.

column_pattern is the reference of icir.symbolic.ic_pattern: one
breadth-first search per column, whose arrays the blocked search must
return.

step_times is the reference of the factor's dataflow step schedule, and
column_factor of the factor itself: the right-looking column loop, whose
first breakdown in column order icir.factor.ic_attempt must return.  Its
unguarded mode, the B1 test only with overflow raised as an error, is the
path fp32 and fp64 once took, where the guarded kernel must give the same
bits or breakdown, or a B2 or B3 in place of the error.
"""

import math
from dataclasses import dataclass

import numpy as np

from icir.factor import Breakdown, FactorizationError
from icir.gallery import _ELEMENT
from icir.precision import (FpFormat, _round_scalar, quantize, safe_scale_check,
                            safe_update_many)
from icir.sparse import SparseSpd
from icir.symbolic import FillPattern, _full_adjacency
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
    """
    xmax = f.x_max
    ab, ac = abs(b), abs(c)
    if not (ab <= 1.0 or ac <= 1.0 or ab * ac <= xmax):
        return None
    w = b * c  # exact in fp64
    if a >= 0.0:
        if not (w >= 0.0 or xmax - a >= -w):
            return None
    else:
        if not (w < 0.0 or xmax + a >= w):
            return None
    wr, over = _round_scalar(w, f)
    if over:  # cannot happen given the product guard; defensive
        return None
    v, over = _round_scalar(a - wr, f)
    if over:
        return None
    return v


def forward_solve(col_ptr, row_idx, values, w):
    """Solve L y = w for L in CSC form, diagonal first in every column.

    Unknown j takes its updates l_jk * y_k in ascending source column k,
    then is divided by l_jj.
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
        y[j] = acc / float(values[col_ptr[j]])
    return y


def backward_solve(col_ptr, row_idx, values, w):
    """Solve L^T y = w for L in CSC form, diagonal first in every column.

    Unknown j takes its updates l_ij * y_i in descending source row i, then
    is divided by l_jj.
    """
    n = len(w)
    y = [0.0] * n
    for j in range(n - 1, -1, -1):
        acc = float(w[j])
        for p in range(col_ptr[j + 1] - 1, col_ptr[j], -1):
            acc -= float(values[p]) * y[int(row_idx[p])]
        y[j] = acc / float(values[col_ptr[j]])
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
    return FillPattern(n, col_ptr, row_idx.astype(np.int64), level)


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
            v, unsafe = safe_update_many(a, b, c, f)
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
