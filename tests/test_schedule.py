"""The elimination schedule and the kernels that run from it: the two
cast_f64 substitution kernels against the scalar oracle, the factor's step
times against theirs, the two factor kernels against each other, and the
rules that choose between them."""

from unittest import mock

import numpy as np
from hypothesis import event, given, settings
from hypothesis import strategies as st

import oracles
import icir.factor as factor
import icir.schedule
from icir.factor import (Breakdown, FactorizationError, FactorStats, IcFactor,
                         _column_factor, _scatter_into_pattern, _step_factor,
                         _step_plan, default_tau, ic_attempt, shifted_ic)
from icir.gallery import poisson2d, random_spd, tridiag
from icir.precision import get_format, quantize
from icir.schedule import _column_levels, schedule
from icir.sparse import SparseSpd, l2_scale
from icir.symbolic import FillPattern, ic_pattern
from icir.trisolve import (LEVEL_WIDTH_MIN, _ColumnKernel, _LevelKernel,
                           _solve_kernel, apply_preconditioner, backward_solve,
                           forward_solve)


def _pattern(n, entries):
    """FillPattern from a set of strictly lower (row, col) positions."""
    cols = [[j] for j in range(n)]
    for i, j in sorted(entries):
        cols[j].append(i)
    cp = np.zeros(n + 1, dtype=np.int64)
    cp[1:] = np.cumsum([len(c) for c in cols])
    return FillPattern(n, cp, np.concatenate(cols).astype(np.int64), level=0)


@st.composite
def lower_patterns(draw):
    """(pattern, rng): chains, wide levels, random and diagonal-only patterns."""
    n = draw(st.integers(1, 40))
    shape = draw(st.sampled_from(["chain", "wide", "random", "diagonal"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    lower = [(i, j) for i in range(n) for j in range(i)]
    if shape == "chain":
        # every column feeds the next, so the depth is n
        entries = {(j + 1, j) for j in range(n - 1)}
        entries |= {e for e in lower if rng.random() < 0.1}
    elif shape == "wide":
        # two levels: the first half feeds the second half only
        h = n // 2
        entries = {(i, j) for i, j in lower if j < h <= i and rng.random() < 0.3}
    elif shape == "random":
        density = draw(st.floats(0.0, 1.0))
        entries = {e for e in lower if rng.random() < density}
    else:
        entries = set()
    return _pattern(n, entries), rng


@st.composite
def triangular_systems(draw):
    """(pattern, values, w) on a lower_patterns pattern."""
    pattern, rng = draw(lower_patterns())
    n = pattern.n
    values = rng.uniform(-1.0, 1.0, pattern.nnz)
    values[rng.random(pattern.nnz) < 0.2] = 0.0          # stored zeros
    values[pattern.col_ptr[:-1]] = rng.choice([-1.0, 1.0], n) * rng.uniform(1.0, 2.0, n)
    w = rng.standard_normal(n) * 10.0 ** rng.integers(-3, 4, n)
    w[rng.random(n) < 0.3] = 0.0                        # zeros in the right-hand side
    return pattern, values, w


@settings(max_examples=300, deadline=None)
@given(triangular_systems())
def test_kernels_match_scalar_oracle(system):
    pattern, values, w = system
    args = (pattern.col_ptr, pattern.row_idx, values, w)
    want_fwd = oracles.forward_solve(*args)
    want_bwd = oracles.backward_solve(*args)
    level, depth = _column_levels(pattern)
    for kernel in (_LevelKernel(pattern, level, depth), _ColumnKernel(pattern)):
        y = w.copy()
        kernel.forward(values, y)
        assert np.array_equal(y, want_fwd), type(kernel).__name__
        y = w.copy()
        kernel.backward(values, y)
        assert np.array_equal(y, want_bwd), type(kernel).__name__


@settings(max_examples=100, deadline=None)
@given(triangular_systems())
def test_levels_respect_dependencies(system):
    pattern = system[0]
    level, depth = _column_levels(pattern)
    cols = np.repeat(np.arange(pattern.n), np.diff(pattern.col_ptr))
    off = pattern.row_idx != cols
    # a target sits below every source, and each level is reached
    assert np.all(level[pattern.row_idx[off]] > level[cols[off]])
    assert sorted(set(level.tolist())) == list(range(depth))


def _factor(pattern):
    values = np.full(pattern.nnz, -0.25)
    values[pattern.col_ptr[:-1]] = 2.0
    return IcFactor(pattern, values, get_format("fp16"), 0.0, FactorStats(0, 0, 0))


def test_width_rule_picks_the_kernel():
    chain = ic_pattern(tridiag(50), 0)            # depth n, width 1
    grid = ic_pattern(poisson2d(20), 0)           # depth 2m - 1, width about 10
    assert isinstance(_solve_kernel(chain), _ColumnKernel)
    assert isinstance(_solve_kernel(grid), _LevelKernel)
    assert grid.n / schedule(grid).depth >= LEVEL_WIDTH_MIN > chain.n / schedule(chain).depth


def test_schedule_built_on_first_solve_and_reused():
    pattern = ic_pattern(poisson2d(6), 1)
    L = _factor(pattern)
    assert pattern.schedule is None
    r = np.linspace(-1.0, 1.0, L.n)
    v = apply_preconditioner(L, r)
    sched = pattern.schedule
    assert sched is not None
    assert np.array_equal(apply_preconditioner(L, r), v)
    assert pattern.schedule is sched


def test_public_solves_match_oracle():
    pattern = ic_pattern(poisson2d(7), 2)
    L = _factor(pattern)
    w = np.cos(np.arange(L.n, dtype=float))
    args = (pattern.col_ptr, pattern.row_idx, L.values, w)
    assert np.array_equal(forward_solve(L, w), oracles.forward_solve(*args))
    assert np.array_equal(backward_solve(L, w), oracles.backward_solve(*args))


@st.composite
def factor_problems(draw):
    """(A, pattern, f) with A stored on every pattern position.

    Diagonally dominant matrices factor; the others have tiny and negative
    pivots (B1), tiny pivots under large entries (B2) and large scaled
    entries whose products overflow (B3).  Zeros of either sign stand for
    fill positions and stored zeros.
    """
    pattern, rng = draw(lower_patterns())
    f = draw(st.sampled_from([get_format("fp16"), get_format("bf16")]))
    kind = draw(st.sampled_from(["dominant", "mixed", "wild"]))
    n, nnz, cp, ri = pattern.n, pattern.nnz, pattern.col_ptr, pattern.row_idx
    values = rng.standard_normal(nnz) * 10.0 ** rng.uniform(-2.0, 4.0 if kind == "wild" else 1.0, nnz)
    zeros = rng.random(nnz) < 0.3
    values[zeros] = rng.choice([0.0, -0.0], int(zeros.sum()))
    cols = np.repeat(np.arange(n), np.diff(cp))
    off = ri != cols
    if kind == "dominant":
        a = np.abs(values[off])
        d = 1.0 + np.bincount(ri[off], a, n) + np.bincount(cols[off], a, n)
    elif kind == "mixed":
        d = rng.uniform(0.5, 4.0, n)
        tiny = rng.random(n) < 0.2
        d[tiny] = 10.0 ** rng.uniform(-7.0, -2.0, int(tiny.sum()))
        d[rng.random(n) < 0.05] *= -1.0
    else:
        d = 10.0 ** rng.uniform(-5.0, -2.0, n)
    values[cp[:-1]] = d
    values, _ = quantize(values, f)
    return SparseSpd(n, cp, ri, values), pattern, f


def _column_result(A, pattern, f, safe_checks):
    """The column kernel's values or Breakdown, or its FactorizationError message."""
    keys = schedule(pattern).keys
    try:
        return _column_factor(_scatter_into_pattern(A, pattern, keys), pattern, keys,
                              default_tau(f), f, safe_checks)
    except FactorizationError as exc:
        return str(exc)


@settings(max_examples=400, deadline=None)
@given(factor_problems(), st.booleans())
def test_factor_kernels_agree(problem, safe_checks):
    A, pattern, f = problem
    tau = default_tau(f)
    want = _column_result(A, pattern, f, safe_checks)
    event(want.kind if isinstance(want, Breakdown) else type(want).__name__)
    keys = schedule(pattern).keys
    vals = _scatter_into_pattern(A, pattern, keys)
    done = _step_factor(vals, _step_plan(pattern), pattern, keys, tau, f, safe_checks)
    # the step kernel completes exactly the attempts the column kernel
    # completes, with the same bits, signed zeros included
    assert done == isinstance(want, np.ndarray)
    if done:
        assert np.array_equal(vals.view(np.int64), want.view(np.int64))
    # ic_attempt gives the column kernel's values, Breakdown or error
    # whichever kernel its rule picks
    for bound in (np.inf, -1.0):
        with mock.patch.object(factor, "STEPS_PER_COLUMN_MAX", bound):
            try:
                got = ic_attempt(A, pattern, tau, f, safe_checks)
            except FactorizationError as exc:
                got = str(exc)
        if done:
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
        else:
            assert got == want


@settings(max_examples=300, deadline=None)
@given(lower_patterns())
def test_step_times_match_oracle(drawn):
    pattern = drawn[0]
    n, cp, ri = pattern.n, pattern.col_ptr, pattern.row_idx
    cols = np.repeat(np.arange(n), np.diff(cp))
    plan = _step_plan(pattern)
    T, P = [None] * pattern.nnz, [None] * n
    for s, (task, pairs, shift, diag, below, off) in enumerate(plan):
        for p in task.tolist():
            assert T[p] is None
            T[p] = s
        for d in diag.tolist():
            assert P[cols[d]] is None
            P[cols[d]] = s
        # a task's pairs run from its l_jk to the end of its column, and a
        # pivot takes its column's off-diagonals
        pair_pos = np.arange(pairs.sum()) + np.repeat(shift, pairs)
        assert pair_pos.tolist() == [q for p in task.tolist() for q in range(p, cp[cols[p] + 1])]
        assert below.tolist() == [cp[cols[d] + 1] - d - 1 for d in diag.tolist()]
        assert off.tolist() == [q for d in diag.tolist() for q in range(d + 1, cp[cols[d] + 1])]
    assert (T, P) == oracles.step_times(cp, ri)
    # every task runs after its source's pivot, the tasks of a target column
    # run in ascending source order, and a pivot runs no earlier than the
    # last task of its column
    tasks = [[] for _ in range(n)]
    for p in np.flatnonzero(ri != cols).tolist():    # sources ascending
        assert T[p] > P[cols[p]]
        tasks[ri[p]].append(T[p])
    for j in range(n):
        assert all(a < b for a, b in zip(tasks[j], tasks[j][1:]))
        assert P[j] >= max(tasks[j], default=0)
    # at least one step per level, and no more steps than R plus the
    # depth, R the sum over the levels of the longest row among the
    # level's columns
    sched = schedule(pattern)
    widest = np.zeros(sched.depth, dtype=np.int64)
    np.maximum.at(widest, sched.level, np.bincount(ri, minlength=n) - 1)
    assert sched.depth <= len(plan) <= widest.sum() + sched.depth


def test_step_rule_picks_the_factor_kernel():
    fp16 = get_format("fp16")
    grid, _ = l2_scale(poisson2d(20))
    dense, _ = l2_scale(random_spd(40, density=1.0, seed=0))
    for A, level, steps in ((grid, 0, True), (dense, 3, False)):
        pattern = ic_pattern(A, level)
        with mock.patch.object(factor, "_step_factor", wraps=_step_factor) as kernel:
            assert isinstance(ic_attempt(A, pattern, default_tau(fp16), fp16, True), np.ndarray)
        S = len(_step_plan(pattern))
        assert (S <= factor.STEPS_PER_COLUMN_MAX * pattern.n) == steps
        assert kernel.called == steps
        # S >= depth, so a pattern deeper than the rule allows gets no plan
        assert (schedule(pattern).factor_plan is not None) == steps
    # a dense pattern is one chain of pivots
    assert S == schedule(pattern).depth == pattern.n


def test_one_schedule_serves_restarts_and_solves():
    A, _ = l2_scale(poisson2d(8))
    A.values[A.diag_positions()[0]] = 0.0     # B1 at alpha = 0
    pattern = ic_pattern(A, 0)
    seen = []
    attempt = factor.ic_attempt

    def spy(Alow, pat, *args):
        out = attempt(Alow, pat, *args)
        seen.append(pat.schedule)
        return out

    with mock.patch.object(factor, "ic_attempt", spy), \
            mock.patch.object(factor, "_step_plan", wraps=_step_plan) as plans, \
            mock.patch.object(icir.schedule, "_column_levels", wraps=_column_levels) as levels:
        L = shifted_ic(A, pattern, f=get_format("fp16"))
        apply_preconditioner(L, np.ones(L.n))
        apply_preconditioner(L, np.arange(L.n, dtype=float))
    assert L.stats.restarts >= 1 and len(seen) == L.stats.restarts + 1
    assert levels.call_count == 1
    # one step plan served every restart, and shifted_ic dropped it
    assert plans.call_count == 1
    assert all(s is pattern.schedule for s in seen)
    assert pattern.schedule.factor_plan is None
    assert pattern.schedule.solve_kernel is not None
