"""Triangular solves with the incomplete factor.

Two execution modes:

  cast_f64   -- the stored (format-representable) entries are promoted to
                fp64 and the substitution runs in double precision; cannot
                overflow.
  native_low -- every divide/multiply/subtract is rounded into the factor's
                format; a pass with a result past x_max raises
                OverflowSignal at its end.  It runs only in a half-width
                format (FpFormat.half_width), which ic_lu_ir asks too.
                The right-hand side is expected to be format-representable
                (apply_preconditioner scales it by its inf-norm first).

Both modes read the forward and backward (pos, diag, groups) of the
pattern's schedule (icir.symbolic._schedule), built on the first solve of
either mode: the forward walks the columns by level, ascending, the
backward the same columns reversed.  A group is a run of consecutive levels
of that walk; an update whose source lies in its target's group is inside,
any other outside (see icir.symbolic).  cast_f64 runs a group's outside
updates as one np.subtract.at.  A group without inside updates then divides
its columns at once, as a level; one with them walks its columns on Python
floats, each taking its inside updates and its division, a zero pivot
giving NumPy's inf or NaN.  The order is fixed, so results do not depend on
the BLAS build: unknown j of L y = w takes its updates l_jk y_k in
ascending column k, of L^T y = w its updates l_ij y_i in descending row i,
and the group rule puts every target's outside updates first in that
order.

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
The forward divides y_j only if y_j is nonzero, and a zero pivot gives
inf, which overflows.  A group without inside updates runs its chains with
no inside part, as a level.

A pass raises OverflowSignal at its end if any of its roundings
overflowed.  Up to the loop's first failure, an overflow or a division by
a zero pivot, the pass performs the loop's operations bit for bit, and
after it runs on silently (np.errstate); so it raises iff the loop fails.
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
    """cast_f64 L y = w (forward groups) or L^T y = w in place on y; v and d,
    the values at pos and diag of the direction's (pos, diag, groups)."""
    for cols, c, vs, tgt, src, _, inner in groups:
        if len(tgt):
            np.subtract.at(y, tgt, v[vs] * y[src])
        if inner is None:
            y[cols] /= d[c]
            continue
        ivs, loc, _, ranges = inner
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
    bad = False
    for cols, cs, vs, _, src, ends, inner in groups:
        x = v[vs] * y[src]
        p = _round_unchecked(x, f).tolist()
        if inner is None:
            rs = vi = loc = isrc = None
        else:
            ivs, loc, isrc, rs = inner
            vi = v[ivs].tolist()
        out = []
        b = 0
        for j, e, acc, d in zip(cols.tolist(), ends.tolist(), y[cols].tolist(), dv[cs].tolist()):
            a, b = b, e
            for i in range(a, b):   # outside sources ascending
                q = p[i]
                if not qmin <= abs(q) <= xmax:
                    if q != 0.0:
                        q, over = _round_scalar(float(x[i]), f)
                        bad |= over
                    elif not live[src[i]]:   # the loop skips that column
                        continue
                t = acc - q
                if lo <= abs(t) < hi:   # _round_unchecked's split, inline
                    c = t * s
                    acc = c - (c - t)
                else:
                    acc, over = _round_scalar(t, f)
                    bad |= over
            if rs:   # len(out) is the column's place in the walk
                for i in rs[len(out)]:   # then the inside ones, each product rounded here
                    if not live[isrc[i]]:
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
                        bad |= over
                    t = acc - q
                    if lo <= abs(t) < hi:
                        c = t * s
                        acc = c - (c - t)
                    else:
                        acc, over = _round_scalar(t, f)
                        bad |= over
            if acc != 0.0:
                live[j] = True
                t = acc / d if d else math.inf
                if lo <= abs(t) < hi:
                    c = t * s
                    acc = c - (c - t)
                else:
                    acc, over = _round_scalar(t, f)
                    bad |= over
            out.append(acc)
        y[cols] = out
    if bad:
        raise OverflowSignal(f"{f.name} forward solve overflowed")


@np.errstate(all="ignore")
def _native_backward(v: np.ndarray, dv: np.ndarray, groups: list, y: np.ndarray,
                     f: FpFormat) -> None:
    """native_low L^T y = w in place on y, read as _cast_sweep reads it."""
    qmin, lo, hi, s, xmax = f.x_s_min if f.cast else f.x_min, f.x_min, f.over_at, f.split, f.x_max
    g = f.grid
    bad = False
    for cols, cs, vs, _, src, ends, inner in groups:
        x = v[vs] * y[src]
        p = _round_unchecked(x, f).tolist()
        if inner is None:
            rs = vi = loc = None
        else:
            ivs, loc, _, rs = inner
            vi = v[ivs].tolist()
        out = []
        b = 0
        for e, acc, d in zip(ends.tolist(), y[cols].tolist(), dv[cs].tolist()):
            a, b = b, e
            if rs:
                for i in reversed(rs[len(out)]):   # inside rows ascending, products rounded here
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
                            bad |= over
                        if q == 0.0:
                            continue
                    t = acc - q
                    if lo <= abs(t) < hi:
                        c = t * s
                        acc = c - (c - t)
                    else:
                        acc, over = _round_scalar(t, f)
                        bad |= over
            for i in range(b - 1, a - 1, -1):   # then the outside rows ascending
                q = p[i]
                if not qmin <= abs(q) <= xmax:
                    if q == 0.0:
                        continue
                    q, over = _round_scalar(float(x[i]), f)
                    bad |= over
                    if q == 0.0:
                        continue
                t = acc - q
                if lo <= abs(t) < hi:
                    c = t * s
                    acc = c - (c - t)
                else:
                    acc, over = _round_scalar(t, f)
                    bad |= over
            t = acc / d if d else math.inf
            if lo <= abs(t) < hi:
                c = t * s
                acc = c - (c - t)
            else:
                acc, over = _round_scalar(t, f)
                bad |= over
            out.append(acc)
        y[cols] = out
    if bad:
        raise OverflowSignal(f"{f.name} backward solve overflowed")


def _sweep(L: IcFactor, y: np.ndarray, exec_mode: str, forward: bool) -> None:
    """Solve L y = w (forward) or L^T y = w in place on y, by exec_mode."""
    s = _schedule(L.pattern)
    pos, diag, groups = s.forward if forward else s.backward
    v, d = L.values[pos], L.values[diag]
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
