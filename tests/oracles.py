"""Plain-Python scalar references for the vectorised kernels.

Each reference takes the arithmetic one rounded fp64 operation at a time, in
the order the kernels document, so a kernel must match it bit for bit (up
to the sign of an exact zero).

round_to, sim_op and safe_update are the scalar references of
icir.precision: rounding with underflow and subnormal flags, one simulated
operation, and one guarded update.  round_to is built on
icir.precision._round_scalar, so comparing it with quantize pins the scalar
and vector rounding paths to each other.

step_times is the reference of the factor's dataflow step schedule.
"""

import math
from dataclasses import dataclass

from icir.precision import FpFormat, _round_scalar

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
