"""Numeric incomplete Cholesky factorization in a simulated format.

ic_attempt runs a right-looking factorization restricted to a given fill
pattern, with every operation rounded into the target format.  Three
breakdown modes are detected:

  B1 -- pivot below the threshold tau (or negative);
  B2 -- scaling the column by the pivot could overflow;
  B3 -- an outer-product update a - b*c could overflow.

The B2/B3 guards are evaluated on exact fp64 quantities (products of
format-representable values are exact in fp64 for formats up to fp32).
Running the guard comparisons in the low format itself is unsound: rounding
the product b*c in fp16 can move it across the x_max boundary and admit an
update whose exact value overflows, e.g. a=32, b*c exactly -65488 rounds to
-65472 and passes the format-precision test although a - b*c = 65520 > x_max.
The exact-valued guards admit a strict superset of obviously-safe updates and
never admit an overflow.

shifted_ic wraps ic_attempt in the usual global-shift loop: on breakdown the
diagonal shift alpha is doubled (starting from alpha_s) and the factorization
restarts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .precision import (FpFormat, _round_scalar, quantize, safe_scale_check,
                        safe_update_many)
from .sparse import SparseSpd, squeeze
from .symbolic import FillPattern

__all__ = [
    "Breakdown",
    "FactorStats",
    "IcFactor",
    "FactorizationError",
    "ShiftRestartError",
    "default_tau",
    "ic_attempt",
    "shifted_ic",
]


class FactorizationError(RuntimeError):
    """Unexpected numerical failure (e.g. overflow with safety checks disabled)."""


@dataclass(frozen=True)
class Breakdown:
    """A detected breakdown; normal control flow, not an error."""

    kind: str  # "B1" | "B2" | "B3"
    k: int     # column at which it occurred
    detail: tuple = ()


@dataclass(frozen=True)
class FactorStats:
    nmod: int      # B1 occurrences across all attempts
    nofl: int      # B3 occurrences across all attempts
    restarts: int  # attempts - 1


@dataclass
class IcFactor:
    """Incomplete Cholesky factor L with S{L} = pattern.

    values are fp64 carriers of format-representable numbers, column-major
    with the diagonal first in each column.
    """

    pattern: FillPattern
    values: np.ndarray
    format: FpFormat
    alpha: float
    stats: FactorStats

    @property
    def n(self) -> int:
        return self.pattern.n

    @property
    def nnz(self) -> int:
        return self.pattern.nnz


class ShiftRestartError(RuntimeError):
    """Restart budget exhausted; carries (alpha, Breakdown) history."""

    def __init__(self, history):
        self.history = list(history)
        tried = ", ".join(f"alpha={a:g}:{b.kind}@{b.k}" for a, b in self.history)
        super().__init__(f"shifted factorization failed after {len(self.history)} attempts ({tried})")


def default_tau(f: FpFormat) -> float:
    """Pivot threshold: 1e-5 for half-width formats, 1e-20 otherwise."""
    if f.half_width:
        return 1e-5
    return max(1e-20, 4.0 * f.x_min)


def _pattern_keys(pattern: FillPattern) -> np.ndarray:
    """Globally sorted key col*n + row of every pattern position."""
    cols = np.repeat(np.arange(pattern.n, dtype=np.int64), np.diff(pattern.col_ptr))
    return cols * np.int64(pattern.n) + pattern.row_idx


def _scatter_into_pattern(Alow: SparseSpd, pattern: FillPattern, keys: np.ndarray) -> np.ndarray:
    vals = np.zeros(pattern.nnz, dtype=np.float64)
    akeys = Alow.entry_col * np.int64(Alow.n) + Alow.row_idx
    pos = np.searchsorted(keys, akeys)
    if np.any(pos >= len(keys)) or np.any(keys[np.minimum(pos, len(keys) - 1)] != akeys):
        raise ValueError("pattern does not cover the matrix structure")
    vals[pos] = Alow.values
    return vals


def _triangular_pairs(m: int):
    """Index pairs (t, s) with s >= t for a column of m off-diagonal entries."""
    counts = m - np.arange(m)
    t = np.repeat(np.arange(m), counts)
    group_start = np.repeat(np.cumsum(counts) - counts, counts)
    s = np.arange(len(t)) - group_start + t
    return t, s


def ic_attempt(Alow: SparseSpd, pattern: FillPattern, tau: float, f: FpFormat,
               safe_checks: bool):
    """One factorization attempt.  Returns the value array on success, else a Breakdown.

    With safe_checks=False only the B1 pivot test is performed (the intended
    mode for fp32/fp64, where the scaled problem cannot overflow).
    """
    smallest = f.x_s_min if f.supports_subnormals else f.x_min
    if not tau > smallest:
        raise ValueError("tau must exceed the smallest positive representable value")

    n = pattern.n
    keys = _pattern_keys(pattern)
    vals = _scatter_into_pattern(Alow, pattern, keys)
    col_ptr = pattern.col_ptr
    rows_all = pattern.row_idx
    nnz = len(vals)

    for k in range(n):
        s0, e0 = col_ptr[k], col_ptr[k + 1]
        d = vals[s0]
        if d < tau:
            return Breakdown("B1", k, (d,))
        droot, _ = _round_scalar(math.sqrt(d), f)
        colv = vals[s0 + 1:e0]
        m = e0 - 1 - s0
        if safe_checks and droot < 1.0:
            a = float(np.max(np.abs(colv))) if m else 0.0
            if not safe_scale_check(droot, a, f):
                return Breakdown("B2", k, (droot, a))
        q, over = quantize(colv / droot, f)
        if np.any(over) or not np.all(np.isfinite(q)):
            if safe_checks:  # unreachable given the guard; stay conservative
                return Breakdown("B2", k, (droot,))
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
                bad = int(np.argmax(unsafe))
                return Breakdown("B3", k, (a[bad], b[bad], c[bad]))
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


def shifted_ic(Ahat: SparseSpd, pattern: FillPattern, tau: float | None = None,
               alpha_s: float = 1e-3, f: FpFormat = None,
               max_restarts: int = 40) -> IcFactor:
    """Squeeze the scaled matrix into f once, then factorize A_low + alpha*I,
    doubling alpha on each breakdown until an attempt succeeds."""
    if f is None:
        raise ValueError("target format required")
    if tau is None:
        tau = default_tau(f)
    if max_restarts < 1:
        raise ValueError("max_restarts must be at least 1")

    Alow, _ = squeeze(Ahat, f)
    diag_pos = Alow.diag_positions()
    base_diag = Alow.values[diag_pos].copy()

    alpha = 0.0
    nmod = nofl = 0
    history = []
    for attempt in range(max_restarts):
        work = Alow
        if alpha != 0.0:
            alpha_f, over = _round_scalar(alpha, f)
            if over:
                raise FactorizationError("shift overflows the target format")
            shifted, over_d = quantize(base_diag + alpha_f, f)
            if np.any(over_d):
                raise FactorizationError("shifted diagonal overflows the target format")
            v = Alow.values.copy()
            v[diag_pos] = shifted
            work = Alow.with_values(v)
        result = ic_attempt(work, pattern, tau, f, f.half_width)  # full guards in half width
        if not isinstance(result, Breakdown):
            return IcFactor(pattern, result, f, alpha,
                            FactorStats(nmod=nmod, nofl=nofl, restarts=attempt))
        history.append((alpha, result))
        if result.kind == "B1":
            nmod += 1
        elif result.kind == "B3":
            nofl += 1
        alpha = max(2.0 * alpha, alpha_s)
    raise ShiftRestartError(history)
