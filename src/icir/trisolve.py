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

Both modes run from groups of the elimination levels of the pattern's
schedule (icir.symbolic._schedule), which _records builds for a direction
on its first solve and keeps in the schedule.  A direction walks the
schedule's columns by level, ascending forward, reversed backward; a group
(_steps) is a run of consecutive levels of its walk of at most
GROUP_COLUMNS columns in all, or one level of any width.  An update of a
target from a source in the target's group is inside, any other outside.
A group runs its outside updates as one batch, then walks its columns,
each taking its inside updates one by one and its division.  That keeps
every target's summation order (forward sources k ascending, backward rows
i descending; fixed, so results do not depend on the BLAS build) only if
each target takes its outside updates first: forward, every outside source
below every inside one; backward, every outside row above every inside one.
So a level joins the current group only if each of its columns keeps that
order.  Read a target's sources in summation order, their levels numbered
in the direction's order: a descent, a source whose level is below the
level of the source before it, forbids a group start in the levels above
the lower and up to the higher, since such a group would hold the earlier
source inside and the later one outside.  _group_starts marks the forbidden
starts of every level in one vectorised pass, as bits of the distance back
to the start, and walks the levels once.  The rule reads the pattern alone.
A group none of whose columns reads another runs as a level.

GROUP_COLUMNS is 16.  One cast_f64 apply (in-process medians of 11 x 3-20
calls, caps interleaved, 2-core host) at caps 1 / 8 / 16 / 32: badscale
IC(0) fp16 368 / 179 / 138 / 153 us, IC(3) fp16 637 / 233 / 228 / 285 us,
random_spd(100) IC(3) 538 / 194 / 187 / 238 us, poisson2d(50) IC(0) 560 /
549 / 549 / 587 us, wathen(40, 30) IC(3) 4.03 / 3.96 / 3.84 / 3.79 ms.  A
larger group runs more inside updates one at a time in Python.

The records (_records, and native_low's _chains) are the pattern's, and
the values are the factor's.  A factor's first solve of each direction and
mode reads its values into that direction's groups once (_bound) and keeps
them in IcFactor.bound, so an apply gathers nothing that stays the same for
the factor's life.  cast_f64 binds each column's inside updates as a list
of (l, place of the source) tuples, so a chain step is one unpacking: a
value list and a place list zipped together took 1.26x the tuples' time
per apply on badscale-restart's factors (median of 30 interleaved rounds,
2-core host).

cast_f64 runs a group's outside updates as one np.subtract.at, then divides
its columns at once, or, with inside updates, walks them on Python floats,
a zero pivot giving NumPy's inf or NaN.

native_low gives the bits of the column loops in tests/oracles.py in one
checked pass that both directions run, by the same groups.  A group rounds
the products l_jk y_k (forward) or l_ij y_i (backward) of all its updates
as one batch by icir.precision._round_unchecked, each column's chain of
them back to back, its outside updates then its inside ones as the group
rule orders them; an inside product, whose source the group has not solved
yet, holds NaN there, as its bound l is NaN.  Each column then
reads its chain (_chains, built on the direction's first native_low solve)
in a Python loop and divides.  The forward reads the batch as it is,
sources ascending; the backward reverses it once and reads it the same way,
which gives inside rows ascending, then outside rows ascending.  A chain's
subtractions and division, and its inside products, are scalar roundings:
Veltkamp's split inline for a result in [x_min, over_at), an inside product
below x_min on the subnormal grid where the format has subnormals (as
quantize rounds), else icir.precision._round_scalar.  The chain checks a
product q as it reads it: q is exact if qmin <= |q| <= x_max, qmin being
x_s_min for the cast (fp16) and x_min for the split alone.  NaN fails that
test, and the chain forms and rounds the inside product from its source's
result.  A zero q is exact too, and skipped if the pass is backward or its
source is dead: the forward's dead set holds the columns whose y_k was zero
at its pivot (the loop skips column k).  Any other q is rounded again from
its fp64 product by _round_scalar, which flags its overflow; a nonzero
batch product re-rounds to a nonzero value, as _round_unchecked rounds as
quantize does, so no re-rounded zero needs a skip.  A column divides if it
is nonzero or the pass is backward, and a zero pivot gives inf, which
overflows.

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
from .symbolic import FillPattern, _schedule, _split

__all__ = ["OverflowSignal", "forward_solve", "backward_solve", "apply_preconditioner"]

CAST_F64 = "cast_f64"
NATIVE_LOW = "native_low"
# Columns a solve group holds at most, unless it is one level (see the
# module docstring).
GROUP_COLUMNS = 16

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


def _group_starts(widths: list, at, tgt, src_at) -> list:
    """The first level of every group of one direction, levels numbered in
    its order: widths holds the columns of each level, at the level of each
    column, src_at the level of the source of every update, and tgt its
    target; the updates are listed target by target, each target's in its
    summation order.

    A descent src_at[i] > src_at[i + 1] of one target at level t forbids a
    group start a in (src_at[i + 1], src_at[i]], bit t - a of forbid[t]:
    a group that starts there and holds t would take the earlier source
    inside and the later one outside, out of order.  Only bits below
    GROUP_COLUMNS can matter, as a group of more levels has more columns.
    """
    down = np.flatnonzero((tgt[1:] == tgt[:-1]) & (src_at[:-1] > src_at[1:]))
    t = at[tgt[down]]
    lo, hi = t - src_at[down], t - src_at[down + 1] - 1   # 1 <= lo <= hi
    near = lo < GROUP_COLUMNS
    forbid = np.zeros(len(widths), dtype=np.int32)
    np.bitwise_or.at(forbid, t[near],
                     (2 << np.minimum(hi[near], GROUP_COLUMNS - 1)) - (1 << lo[near]))
    starts, a, held = [], 0, GROUP_COLUMNS
    for t, (w, m) in enumerate(zip(widths, forbid.tolist())):
        if held + w > GROUP_COLUMNS or m >> (t - a) & 1:   # t - a < GROUP_COLUMNS here
            starts.append(t)
            a, held = t, 0
        held += w
    return starts


def _steps(cols, diag, levels: list, pos, tgt, src, counts) -> tuple:
    """One direction's (pos, diag, groups): cols, diag and levels are its
    columns, their diagonal positions and the slice of each level, in its
    walk; pos, tgt and src its updates' positions, targets and sources,
    which list their targets as cols does, each target's in its summation
    order; counts the updates of each column of cols.

    groups, runs of levels in the walk, each (cols, c, vs, tgt, src,
    native, inner): the group's columns, a view of cols, and the ascending
    slice of them (and of diag) they are; its outside updates, as a slice
    of pos and views of their targets and sources; native_low's batch
    (o, src, ends): the slice of pos holding all the group's updates, a
    column's outside ones then its inside ones (the group rule orders them
    so), a view of their sources and each column's chain end in it
    (int32); and None.  A group with inside updates holds its outside
    updates as an index array into pos, their targets and sources as
    arrays of their own; its inner is (ivs, loc, ranges): the inside
    updates' indices into pos, their sources' places in the group (a list)
    and each column's range of them in summation order.
    """
    n, depth = len(cols), len(levels)
    widths = [c.stop - c.start for c in levels]
    at = np.empty(n, dtype=np.int32)   # every column's level
    at[cols] = np.repeat(np.arange(depth, dtype=np.int32), widths)
    src_at = at[src]
    cuts = _group_starts(widths, at, tgt, src_at) + [depth]
    col_at = [c.start for c in levels] + [n]
    begin = np.zeros(n + 1, dtype=np.int64)   # by place in cols: a column's first update
    np.cumsum(counts, out=begin[1:])
    upd_at = begin[col_at].tolist()
    # a source comes before its target: inside iff it comes no earlier than
    # the first level of its target's group
    first = [upd_at[a] for a in cuts]   # each group's first update
    ins = src_at >= np.repeat(np.array(cuts[:-1], dtype=np.int32), np.diff(first))
    # the inside updates before the first of each group
    held = np.searchsorted(np.flatnonzero(ins), first).tolist()
    # by place in cols: a column's chain end, from its group's first update
    group_at = [col_at[a] for a in cuts]
    ends = (begin[1:] - np.repeat(first[:-1], np.diff(group_at))).astype(np.int32)
    rank = np.empty(n, dtype=np.intp)   # every column's place in cols
    rank[cols] = np.arange(n)
    groups = []
    for a, b, h, hb in zip(cuts, cuts[1:], held, held[1:]):
        c, o = slice(col_at[a], col_at[b]), slice(upd_at[a], upd_at[b])
        native = o, src[o], ends[c]
        if h == hb:
            groups.append((cols[c], c, o, tgt[o], native[1], native, None))   # as a level
            continue
        # cast_f64's outside updates, then its inside ones, each column by
        # column in walk order, a column's in its summation order
        m, i = c.stop - c.start, ins[o]
        walk = rank[tgt[o]] - c.start   # the places in the walk of the targets
        vs, ivs = o.start + np.flatnonzero(~i), o.start + np.flatnonzero(i)
        cut = np.cumsum(np.bincount(walk[i], minlength=m)).tolist()
        groups.append((cols[c], c, vs, tgt[vs], src[vs], native,
                       (ivs, (rank[src[ivs]] - c.start).tolist(),
                        [range(a, b) for a, b in zip([0] + cut, cut)])))
    return pos, diag, groups


def _records(pattern: FillPattern, forward: bool) -> tuple:
    """The forward or backward (pos, diag, groups) of the pattern's solves
    (_steps), built on that direction's first solve and kept in its
    schedule's solves.  The forward walks the schedule's cols, and its pos
    is the schedule's; the backward walks cols reversed, and its pos holds
    the off-diagonals column by column in that order, rows descending."""
    s = _schedule(pattern)
    if forward not in s.solves:
        cp, ri = pattern.col_ptr, pattern.row_idx
        if forward:
            rows = ri[s.pos]
            s.solves[True] = _steps(s.cols, cp[s.cols], s.levels, s.pos, rows, s.src,
                                    np.bincount(rows, minlength=pattern.n)[s.cols])
        else:
            # cols reversed (a copy: the groups index y by views of it, and a
            # reversed view gathers slower), and column k's off-diagonals rows
            # descending: diag + below down to diag + 1
            cols = s.cols[::-1].copy()
            diag, below = cp[cols], np.diff(cp)[cols] - 1
            pos = np.repeat(diag + np.cumsum(below), below)
            pos -= np.arange(len(pos))
            levels = _split([c.stop - c.start for c in reversed(s.levels)])
            s.solves[False] = _steps(cols, diag, levels, pos, np.repeat(cols, below), ri[pos],
                                     below)
    return s.solves[forward]


def _chains(pattern: FillPattern, forward: bool) -> tuple:
    """The forward or backward (ivs, chains) of native_low, built on that
    direction's first native_low solve and kept in its schedule's solves,
    so that a cast_f64 run builds none.  ivs holds every inside update's
    index into pos, group by group.  chains holds each group's (ranges,
    inside): each column's chain as a range into the group's batch read in
    the direction's order, backward reversed, so that [a, b) becomes
    [size - b, size - a); and, None without inside updates, a list by
    place in that read of each inside update's place in ivs and its
    source's place in the group, None at an outside update."""
    s = _schedule(pattern)
    key = forward, NATIVE_LOW
    if key not in s.solves:
        ivs, chains = [], []
        for *_, (o, _, ends), inner in _records(pattern, forward)[2]:
            ends = ends.tolist()
            starts, size = [0] + ends[:-1], ends[-1]
            if not forward:
                starts, ends = [size - b for b in ends], [size - a for a in starts]
            inside = None
            if inner is not None:
                inside = [None] * size
                for m, (k, w) in enumerate(zip(inner[0].tolist(), inner[1]), len(ivs)):
                    inside[k - o.start if forward else o.stop - 1 - k] = m, w
                    ivs.append(k)
            chains.append((list(map(range, starts, ends)), inside))
        s.solves[key] = np.array(ivs, dtype=np.intp), chains
    return s.solves[key]


def _group_counts(pattern: FillPattern) -> list:
    """The groups of the pattern's forward and backward solves."""
    return [len(_records(pattern, forward)[2]) for forward in (True, False)]


def _bound(L: IcFactor, forward: bool, exec_mode: str):
    """L's values bound into the forward or backward groups of exec_mode,
    read on the first such solve and kept in L.bound.

    cast_f64: per group (cols, tgt, src, lv, dv, chains): the record's
    columns and outside targets and sources, lv the outside values, dv the
    pivots (an array, a list with inside updates) and chains None or, per
    column, its inside updates as (l, place of the source) tuples.
    native_low: (v, vi, groups): the values at pos with NaN at the inside
    slots, the inside values in the order of _chains' ivs, and per group
    (cols, o, src, js, dv, ranges, inside): the record's columns and batch
    slice and sources, cols and the pivots as lists, and the group's
    _chains."""
    key = forward, exec_mode
    if key not in L.bound:
        pos, diag, groups = _records(L.pattern, forward)
        v, d = L.values[pos], L.values[diag]
        if exec_mode == CAST_F64:
            bound = []
            for cols, c, vs, tgt, src, _, inner in groups:
                if inner is None:
                    bound.append((cols, tgt, src, v[vs], d[c], None))
                    continue
                ivs, loc, ranges = inner
                pairs = list(zip(v[ivs].tolist(), loc))
                bound.append((cols, tgt, src, v[vs], d[c].tolist(),
                              [pairs[r.start:r.stop] for r in ranges]))
        else:
            ivs, chains = _chains(L.pattern, forward)
            vi = v[ivs].tolist()
            v[ivs] = math.nan   # an inside product is formed in its chain
            bound = v, vi, [(cols, o, src, cols.tolist(), d[c].tolist(), *chain)
                            for (cols, c, _, _, _, (o, src, _), _), chain in zip(groups, chains)]
        L.bound[key] = bound
    return L.bound[key]


def _cast_sweep(groups: list, y: np.ndarray) -> None:
    """cast_f64 L y = w (forward groups) or L^T y = w in place on y, by the
    direction's _bound groups."""
    for cols, tgt, src, lv, dv, chains in groups:
        if len(tgt):
            np.subtract.at(y, tgt, lv * y[src])
        if chains is None:
            y[cols] /= dv
            continue
        out = []   # the group's results, in walk order
        for acc, dj, r in zip(y[cols].tolist(), dv, chains):
            for a, w in r:
                acc -= a * out[w]
            out.append(acc / dj if dj else float(np.divide(acc, dj)))   # NumPy's inf or NaN
        y[cols] = out


@np.errstate(all="ignore")
def _native_sweep(v: np.ndarray, vi: list, groups: list, y: np.ndarray, f: FpFormat,
                  back: bool) -> None:
    """native_low L y = w (forward groups) or L^T y = w (backward) in place
    on y, by the direction's _bound (v, vi, groups) (see the module
    docstring)."""
    qmin, lo, hi, s, xmax = f.x_s_min if f.cast else f.x_min, f.x_min, f.over_at, f.split, f.x_max
    g = f.grid
    dead = set()   # forward: the columns whose y_j was zero at its pivot
    bad = False
    for cols, o, src, js, dv, rs, inside in groups:
        x = v[o] * y[src]
        p = _round_unchecked(x, f).tolist()
        if back:
            p.reverse()
        out = []
        for j, r, acc, d in zip(js, rs, y[cols].tolist(), dv):
            for i in r:
                q = p[i]
                if not qmin <= abs(q) <= xmax:
                    if inside and inside[i]:   # an inside product, formed here
                        m, w = inside[i]
                        q = vi[m] * out[w]
                        aq = abs(q)
                        if lo <= aq < hi:
                            c = q * s
                            q = c - (c - q)
                        elif aq < lo and g:   # the subnormal grid, as quantize rounds
                            q = math.copysign((aq + g) - g, q)
                        elif q != 0.0:
                            q, over = _round_scalar(q, f)
                            bad |= over
                    elif q != 0.0:   # x[~i]: the batch as read backward
                        q, over = _round_scalar(float(x[~i if back else i]), f)
                        bad |= over
                    if q == 0.0 and (back or src[i] in dead):
                        continue
                t = acc - q
                if lo <= abs(t) < hi:   # _round_unchecked's split, inline
                    c = t * s
                    acc = c - (c - t)
                else:
                    acc, over = _round_scalar(t, f)
                    bad |= over
            if acc != 0.0 or back:
                t = acc / d if d else math.inf
                if lo <= abs(t) < hi:
                    c = t * s
                    acc = c - (c - t)
                else:
                    acc, over = _round_scalar(t, f)
                    bad |= over
            else:
                dead.add(j)
            out.append(acc)
        y[cols] = out
    if bad:
        raise OverflowSignal(f"{f.name} {'backward' if back else 'forward'} solve overflowed")


def _sweep(L: IcFactor, y: np.ndarray, exec_mode: str, forward: bool) -> None:
    """Solve L y = w (forward) or L^T y = w in place on y, by exec_mode."""
    if exec_mode == CAST_F64:
        _cast_sweep(_bound(L, forward, CAST_F64), y)
    else:
        _native_sweep(*_bound(L, forward, NATIVE_LOW), y, L.format, not forward)


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
