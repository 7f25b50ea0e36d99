"""Triangular solves with the incomplete factor.

Two execution modes:

  cast_f64   -- the stored (format-representable) entries are promoted to
                fp64 and the substitution runs in double precision; cannot
                overflow.
  native_low -- every divide/multiply/subtract is rounded into the factor's
                format; a result past x_max raises OverflowSignal.  It runs
                only in a half-width format (FpFormat.half_width), which
                ic_lu_ir asks too.  The right-hand side is expected to be
                format-representable (apply_preconditioner scales it by its
                inf-norm first).

Both modes read the forward and backward (pos, groups) of the pattern's
schedule (icir.symbolic._schedule), built on the first solve of either mode.
A group is a run of consecutive levels; an update whose source lies in its
target's group is inside, any other outside (see icir.symbolic).  cast_f64
runs a group's outside updates as one np.subtract.at.  A group without
inside updates then divides its columns at once, as a level; one with them
walks its columns level by level on Python floats, each taking its inside
updates and its division, a zero pivot giving NumPy's inf or NaN.  The order
is fixed, so results do not depend on the BLAS build: unknown j of L y = w
takes its updates l_jk y_k in ascending column k, of L^T y = w its updates
l_ij y_i in descending row i, and the group rule puts every target's
outside updates first in that order.

native_low gives the bits of the column loops in tests/oracles.py in one
checked pass per direction, by the same groups.  A group rounds the
products l_jk y_k (forward) or l_ij y_i (backward) of its outside updates
as one batch by icir.precision._round_unchecked; then each of its columns
runs a Python chain over its products and its division.  The forward chain
takes the outside products, then the inside ones, sources ascending; the
backward chain, rows ascending, takes the inside ones first, as the group
rule leaves every outside row above them.  A chain's subtractions and
division, and the inside products it forms, are scalar roundings:
Veltkamp's split inline for a result in [x_min, over_at), an inside
product below x_min on the subnormal grid where the format has subnormals
(as quantize rounds), else icir.precision._round_scalar.  The chain checks
a batch's product q as it reads it: q is exact if qmin <= |q| <= x_max,
qmin being x_s_min for the cast (fp16) and x_min for the split alone.  A
zero q is exact too: the forward skips it if its y_k was zero at its pivot
(the loop skips column k), the backward always.  Any other q is rounded
again from its fp64 product by _round_scalar, which flags its overflow.
The forward divides y_j, and tests l_jj, only if y_j is nonzero.  A group
without inside updates runs its chains with no inside part, as a level.

Operations are numbered in the loops' order: forward, 3k is the zero test
and division of column k, 3k + 1 its products, 3k + 2 its subtractions;
backward, with m = n - 1 - j, 4m is the zero test of column j, 4m + 1 its
products, 4m + 2 its subtractions, 4m + 3 its division.  An operation reads
only lower-numbered results, so the lowest-numbered failure is the loop's
first.  Operations after it run on silently (np.errstate); the backward
skips the chains and divisions above it, but no product after a failed
subtraction of its column, as the product is numbered below it, and runs
a column's outside products after a failed inside one, keeping its number.
"""

from __future__ import annotations

import math

import numpy as np

from .factor import IcFactor
from .precision import FpFormat, _round_scalar, _round_unchecked, quantize
from .sparse import inf_norm_vector
from .symbolic import _schedule

__all__ = ["OverflowSignal", "forward_solve", "backward_solve", "apply_preconditioner"]

CAST_F64 = "cast_f64"
NATIVE_LOW = "native_low"

class OverflowSignal(ArithmeticError):
    """A native_low substitution step overflowed the factor's format."""


def _solve_input(L: IcFactor, w: np.ndarray, exec_mode: str) -> np.ndarray:
    """A fp64 copy of the right-hand side w, once it and exec_mode are checked."""
    if exec_mode not in (CAST_F64, NATIVE_LOW):
        raise ValueError(f"unknown exec mode {exec_mode!r}")
    if exec_mode == NATIVE_LOW and not L.format.half_width:
        raise ValueError(f"native_low needs a half-width format, not {L.format.name}")
    w = np.asarray(w, dtype=np.float64)
    if w.shape != (L.n,):
        raise ValueError("dimension mismatch")
    return w.copy()


def _cast_sweep(v: np.ndarray, d: np.ndarray, groups: list, y: np.ndarray) -> None:
    """cast_f64 L y = w (forward groups) or L^T y = w in place on y; v, the
    values at pos of the direction's (pos, groups), d at the schedule's diag."""
    for cols, c, vs, tgt, src, _, inner in groups:
        if len(tgt):
            np.subtract.at(y, tgt, v[vs] * y[src])
        if inner is None:
            y[cols] /= d[c]
            continue
        ivs, loc, _, ranges, _ = inner
        vi = v[ivs].tolist()
        out = []   # the group's results, in walk order
        for acc, dj, r in zip(y[cols].tolist(), d[c].tolist(), ranges):
            for i in r:
                acc -= vi[i] * out[loc[i]]
            out.append(acc / dj if dj else float(np.divide(acc, dj)))   # NumPy's inf or NaN
        y[cols] = out


@np.errstate(all="ignore")
def _native_forward(v: np.ndarray, dv: np.ndarray, groups: list, y: np.ndarray,
                    f: FpFormat) -> None:
    """native_low L y = w in place on y, read as _cast_sweep reads it."""
    qmin, lo, hi, s, xmax = f.x_s_min if f.cast else f.x_min, f.x_min, f.over_at, f.split, f.x_max
    g = f.grid
    live = [False] * len(y)   # y_k was nonzero at its pivot
    fail = (3 * len(y), "", 0)   # the lowest failure: number, kind, column
    for cols, cs, vs, _, src, ends, inner in groups:
        x = v[vs] * y[src]
        p = _round_unchecked(x, f).tolist()
        if inner is None:
            rs = vi = loc = isrc = None
        else:
            ivs, loc, isrc, rs, _ = inner
            vi = v[ivs].tolist()
        out = []
        b = 0
        for j, e, acc, d in zip(cols.tolist(), ends.tolist(), y[cols].tolist(), dv[cs].tolist()):
            a, b = b, e
            for i in range(a, b):   # outside sources ascending
                q = p[i]
                if not qmin <= abs(q) <= xmax:
                    k = int(src[i])
                    if q != 0.0:
                        q, over = _round_scalar(float(x[i]), f)
                        if over:
                            fail = min(fail, (3 * k + 1, "product", k))
                    elif not live[k]:   # the loop skips column k
                        continue
                t = acc - q
                if lo <= abs(t) < hi:   # _round_unchecked's split, inline
                    c = t * s
                    acc = c - (c - t)
                else:
                    acc, over = _round_scalar(t, f)
                    if over:
                        fail = min(fail, (3 * (k := int(src[i])) + 2, "subtraction", k))
            if rs:   # len(out) is the column's place in the walk
                for i in rs[len(out)]:   # then the inside ones, each product rounded here
                    k = isrc[i]
                    if not live[k]:
                        continue
                    q = vi[i] * out[loc[i]]
                    aq = abs(q)
                    if lo <= aq < hi:
                        c = q * s
                        q = c - (c - q)
                    elif aq < lo and g:   # the subnormal grid, as quantize rounds
                        q = math.copysign((aq + g) - g, q)
                    elif q != 0.0:
                        q, over = _round_scalar(q, f)
                        if over:
                            fail = min(fail, (3 * k + 1, "product", k))
                    t = acc - q
                    if lo <= abs(t) < hi:
                        c = t * s
                        acc = c - (c - t)
                    else:
                        acc, over = _round_scalar(t, f)
                        if over:
                            fail = min(fail, (3 * k + 2, "subtraction", k))
            if acc != 0.0:
                live[j] = True
                t = acc / d if d else math.inf
                if lo <= abs(t) < hi:
                    c = t * s
                    acc = c - (c - t)
                else:
                    acc, over = _round_scalar(t, f)
                    if over:   # a zero diagonal gives inf, which overflows
                        fail = min(fail, (3 * j, "division" if d else "zero", j))
            out.append(acc)
        y[cols] = out
    _raise(*fail)


@np.errstate(all="ignore")
def _native_backward(v: np.ndarray, dv: np.ndarray, groups: list, y: np.ndarray,
                     f: FpFormat) -> None:
    """native_low L^T y = w in place on y, read as _cast_sweep reads it."""
    qmin, lo, hi, s, xmax = f.x_s_min if f.cast else f.x_min, f.x_min, f.over_at, f.split, f.x_max
    g = f.grid
    n = len(y)
    fail = (4 * n, "", 0)
    for cols, cs, vs, _, src, ends, inner in groups:
        x = v[vs] * y[src]
        p = _round_unchecked(x, f).tolist()
        if inner is None:
            rs = vi = loc = None
        else:
            ivs, loc, _, _, rs = inner
            vi = v[ivs].tolist()
        out = []
        b = 0
        for j, e, acc, d in zip(cols.tolist(), ends.tolist(), y[cols].tolist(), dv[cs].tolist()):
            a, b = b, e
            m = 4 * (n - 1 - j)
            if d == 0.0:
                fail = min(fail, (m, "zero", j))
            if m + 1 >= fail[0]:   # a lower failure is known
                out.append(acc)
                continue
            if rs:
                for i in rs[len(out)]:   # inside rows ascending, each product rounded here
                    q = vi[i] * out[loc[i]]
                    aq = abs(q)
                    if lo <= aq < hi:
                        c = q * s
                        q = c - (c - q)
                    else:
                        if aq < lo and g:   # the subnormal grid, as quantize rounds
                            q = math.copysign((aq + g) - g, q)
                        elif q != 0.0:
                            q, over = _round_scalar(q, f)
                            if over:
                                fail = (m + 1, "product", j)
                                break
                        if q == 0.0:
                            continue
                    t = acc - q
                    if lo <= abs(t) < hi:
                        c = t * s
                        acc = c - (c - t)
                    else:
                        acc, over = _round_scalar(t, f)
                        if over:   # no break: a later product is numbered below
                            fail = (m + 2, "subtraction", j)
            for i in range(b - 1, a - 1, -1):   # then the outside rows ascending
                q = p[i]
                if not qmin <= abs(q) <= xmax:
                    if q == 0.0:
                        continue
                    q, over = _round_scalar(float(x[i]), f)
                    if over:
                        fail = (m + 1, "product", j)
                        break
                    if q == 0.0:
                        continue
                t = acc - q
                if lo <= abs(t) < hi:
                    c = t * s
                    acc = c - (c - t)
                else:
                    acc, over = _round_scalar(t, f)
                    if over:   # a failed product of this column stays the lowest
                        fail = min(fail, (m + 2, "subtraction", j))
            if m + 3 < fail[0]:
                t = acc / d
                if lo <= abs(t) < hi:
                    c = t * s
                    acc = c - (c - t)
                else:
                    acc, over = _round_scalar(t, f)
                    if over:
                        fail = (m + 3, "division", j)
            out.append(acc)
        y[cols] = out
    _raise(*fail)


def _raise(number: int, kind: str, j: int) -> None:
    """Raise the failure of kind at column j, if there is one."""
    if kind == "zero":
        raise ZeroDivisionError(f"zero diagonal at column {j}")
    if kind:
        raise OverflowSignal(f"{kind} overflow at column {j}")


def _sweep(L: IcFactor, y: np.ndarray, exec_mode: str, forward: bool) -> None:
    """Solve L y = w (forward) or L^T y = w in place on y, by exec_mode."""
    s = _schedule(L.pattern)
    pos, groups = s.forward if forward else s.backward
    v, d = L.values[pos], L.values[s.diag]
    if exec_mode == CAST_F64:
        _cast_sweep(v, d, groups, y)
    else:
        (_native_forward if forward else _native_backward)(v, d, groups, y, L.format)


def forward_solve(L: IcFactor, w: np.ndarray, exec_mode: str = CAST_F64) -> np.ndarray:
    """Solve L y = w by substitution."""
    y = _solve_input(L, w, exec_mode)
    _sweep(L, y, exec_mode, True)
    return y


def backward_solve(L: IcFactor, w: np.ndarray, exec_mode: str = CAST_F64) -> np.ndarray:
    """Solve L^T y = w; column j of L supplies the updates of unknown j."""
    y = _solve_input(L, w, exec_mode)
    _sweep(L, y, exec_mode, False)
    return y


def apply_preconditioner(L: IcFactor, r: np.ndarray, exec_mode: str = CAST_F64) -> np.ndarray:
    """Apply (L L^T)^-1 to r.

    Both solves run in place on one fp64 copy of r.  native_low first
    scales that copy by its inf-norm and rounds it into the factor's format,
    so that the solve input is representable, then rescales the result in
    fp64.
    """
    y = _solve_input(L, r, exec_mode)
    if exec_mode == NATIVE_LOW:
        nr = inf_norm_vector(y)
        if nr == 0.0:
            return np.zeros(L.n)
        y, _ = quantize(y / nr, L.format)   # |y| <= 1 < 3 <= every x_max
    _sweep(L, y, exec_mode, True)
    _sweep(L, y, exec_mode, False)
    return y if exec_mode == CAST_F64 else y * nr
