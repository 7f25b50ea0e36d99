"""The elimination levels a pattern's schedule finds and the kernels that
run from them: the cast_f64 substitution kernel against the scalar oracle, bit
for bit, and the factor's step times and values, breakdowns and errors
against the column loop's."""

import gc
import importlib.util
import re
import sys
import weakref
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import oracles
import icir.factor as factor
import icir.symbolic
from conftest import ic_attempt_on
from icir.factor import (Breakdown, FactorizationError, FactorStats, IcFactor,
                         ShiftRestartError, _scatter_into_pattern, _step_pairs, _step_plan,
                         default_tau, ic_attempt, shifted_ic)
from icir.gallery import poisson2d, random_spd, tridiag, wathen
from icir.precision import get_format, quantize
from icir.sparse import SparseSpd, l2_scale, squeeze
from icir.symbolic import FillPattern, _column_levels, _schedule, _Schedule, ic_pattern
from icir.trisolve import (CAST_F64, GROUP_COLUMNS, NATIVE_LOW, _bound, _cast_sweep, _chains,
                           _records, apply_preconditioner, backward_solve, forward_solve)
from test_acceptance import _corpus
from test_factor import full_pattern

ROOT = Path(__file__).resolve().parent.parent


def _both(pattern):
    """The pattern's forward and backward solve records."""
    return _records(pattern, True), _records(pattern, False)


def _pattern(n, entries):
    """FillPattern from a set of strictly lower (row, col) positions."""
    cols = [[j] for j in range(n)]
    for i, j in sorted(entries):
        cols[j].append(i)
    cp = np.zeros(n + 1, dtype=np.int64)
    cp[1:] = np.cumsum([len(c) for c in cols])
    return FillPattern(n, cp, np.concatenate(cols).astype(np.int64))


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
    """(pattern, values, w) on a lower_patterns pattern; now and then a
    zeroed pivot."""
    pattern, rng = draw(lower_patterns())
    n = pattern.n
    values = rng.uniform(-1.0, 1.0, pattern.nnz)
    values[rng.random(pattern.nnz) < 0.2] = 0.0          # stored zeros
    values[pattern.col_ptr[:-1]] = rng.choice([-1.0, 1.0], n) * rng.uniform(1.0, 2.0, n)
    values[pattern.col_ptr[:-1][rng.random(n) < 0.03]] = 0.0
    w = rng.standard_normal(n) * 10.0 ** rng.integers(-3, 4, n)
    w[rng.random(n) < 0.3] = 0.0                        # zeros in the right-hand side
    return pattern, values, w


def _assert_same_bits(got, want):
    """got holds want's values bit for bit, signed zeros included."""
    assert isinstance(got, np.ndarray)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


@settings(max_examples=300, deadline=None)
@given(triangular_systems())
def test_kernels_match_scalar_oracle(system):
    # groups with inside updates, zeros in w and zeroed pivots, whose
    # divisions give NumPy's inf or NaN in both
    pattern, values, w = system
    args = (pattern.col_ptr, pattern.row_idx, values, w)
    event(f"zeroed pivot: {not np.all(values[pattern.col_ptr[:-1]])}")
    L = IcFactor(pattern, values, get_format("fp64"), 0.0, FactorStats(0, 0, 0))
    for forward, solve in ((True, oracles.forward_solve), (False, oracles.backward_solve)):
        event(f"inside updates: {any(g[6] is not None for g in _records(pattern, forward)[2])}")
        y = w.copy()
        with np.errstate(all="ignore"):
            _cast_sweep(_bound(L, forward, CAST_F64), y)
            want = np.array(solve(*args))
        _assert_same_bits(y, want)


@settings(max_examples=100, deadline=None)
@given(triangular_systems())
def test_levels_respect_dependencies(system):
    pattern = system[0]
    level, depth = _column_levels(pattern)
    assert level.dtype == np.int32 and level.shape == (pattern.n,)
    cols = np.repeat(np.arange(pattern.n), np.diff(pattern.col_ptr))
    off = pattern.row_idx != cols
    # a target sits below every source, and each level is reached
    assert np.all(level[pattern.row_idx[off]] > level[cols[off]])
    assert sorted(set(level.tolist())) == list(range(depth))


def _factor(pattern):
    values = np.full(pattern.nnz, -0.25)
    values[pattern.col_ptr[:-1]] = 2.0
    return IcFactor(pattern, values, get_format("fp16"), 0.0, FactorStats(0, 0, 0))


def test_schedule_built_on_first_solve_and_reused():
    pattern = ic_pattern(poisson2d(6), 1)
    L = _factor(pattern)
    assert pattern.schedule is None
    r = np.linspace(-1.0, 1.0, L.n)
    v = apply_preconditioner(L, r)
    s = pattern.schedule
    assert s is not None and set(s.solves) == {True, False}
    kernel = s.solves[True], s.solves[False]
    assert np.array_equal(apply_preconditioner(L, r), v)
    assert pattern.schedule is s and s.solves[True] is kernel[0] and s.solves[False] is kernel[1]


def test_public_solves_match_oracle():
    # a grid, and a chain, whose levels hold one column each
    for pattern in (ic_pattern(poisson2d(7), 2), ic_pattern(tridiag(50), 0)):
        L = _factor(pattern)
        w = np.cos(np.arange(L.n, dtype=float))
        args = (pattern.col_ptr, pattern.row_idx, L.values, w)
        _assert_same_bits(forward_solve(L, w), np.array(oracles.forward_solve(*args)))
        _assert_same_bits(backward_solve(L, w), np.array(oracles.backward_solve(*args)))


# the top of fp64's b2b3 entries: near x_max fp64 itself would overflow,
# in the guarded kernel and the column loop alike
FP64_TOP = 1e16


@st.composite
def factor_problems(draw, formats=("fp16", "bf16")):
    """(A, pattern, f) with A stored on every pattern position, f one of
    the named formats.

    Diagonally dominant matrices factor; the others have tiny and negative
    pivots (B1), pivots under 1 beneath entries near x_max (B2), and large
    scaled entries whose products overflow (B3).  Zeros of either sign
    stand for fill positions and stored zeros.
    """
    kind = draw(st.sampled_from(["b2b3", "dominant", "mixed", "wild"]))
    patterns = lower_patterns()
    if kind == "b2b3":
        # neither B2 nor B3 without an off-diagonal
        patterns = patterns.filter(lambda drawn: drawn[0].nnz > drawn[0].n)
    pattern, rng = draw(patterns)
    f = get_format(draw(st.sampled_from(formats)))
    n, nnz, cp, ri = pattern.n, pattern.nnz, pattern.col_ptr, pattern.row_idx
    if kind == "b2b3":
        # B2 where an entry exceeds sqrt(d) * x_max, else B3 where a scaled
        # entry exceeds sqrt(x_max)
        top = FP64_TOP if f.is_double else f.x_max
        values = rng.choice([-1.0, 1.0], nnz) * top * 10.0 ** rng.uniform(-4.0, 0.0, nnz)
    else:
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
    elif kind == "wild":
        d = 10.0 ** rng.uniform(-5.0, -2.0, n)
    else:
        d = 10.0 ** rng.uniform(-4.0, 0.0, n)
    values[cp[:-1]] = d
    values, _ = quantize(values, f)
    return SparseSpd(n, cp, ri, values), pattern, f


@st.composite
def scaled_problems(draw):
    """(A, pattern, f): an l2-scaled gallery matrix rounded into fp32 or
    fp64, with its IC(0)-IC(3) pattern.  random_spd below dominance 1 may be
    indefinite."""
    f = get_format(draw(st.sampled_from(["fp32", "fp64"])))
    seed = draw(st.integers(0, 2 ** 16))
    kind = draw(st.sampled_from(["wathen", "poisson", "random"]))
    if kind == "wathen":
        A = wathen(draw(st.integers(1, 3)), draw(st.integers(1, 3)), seed=seed)
    elif kind == "poisson":
        A = poisson2d(draw(st.integers(1, 7)))
    else:
        A = random_spd(draw(st.integers(1, 40)), seed=seed, density=draw(st.floats(0.05, 1.0)),
                       dominance=draw(st.floats(0.1, 1.2)))
    Alow, _ = squeeze(l2_scale(A)[0], f)
    return Alow, ic_pattern(Alow, draw(st.integers(0, 3))), f


def _result(attempt, A, pattern, f):
    """attempt's values or Breakdown on A, or its FactorizationError message."""
    plan = _step_plan(pattern)
    try:
        return attempt(_scatter_into_pattern(A, plan), plan, default_tau(f), f)
    except FactorizationError as exc:
        return str(exc)


def _column_attempt(vals, plan, tau, f, safe_checks=True):
    """An attempt of the column loop, the reference of ic_attempt."""
    return oracles.column_factor(vals, plan.pattern, plan.keys, tau, f, safe_checks)


def _unguarded_attempt(vals, plan, tau, f):
    """An attempt of the column loop with the B1 test only."""
    return _column_attempt(vals, plan, tau, f, safe_checks=False)


@settings(max_examples=400, deadline=None)
@given(factor_problems())
def test_factor_kernels_agree(problem):
    A, pattern, f = problem
    want = _result(_column_attempt, A, pattern, f)
    event(want.kind if isinstance(want, Breakdown) else type(want).__name__)
    got = _result(ic_attempt, A, pattern, f)
    # the same bits or the same first breakdown in column order (kind and
    # column)
    if isinstance(want, np.ndarray):
        _assert_same_bits(got, want)
    else:
        assert got == want


@settings(max_examples=300, deadline=None)
@given(st.one_of(factor_problems(("fp32", "fp64")), scaled_problems()))
def test_guards_only_replace_overflow_errors(problem):
    # fp32 and fp64 once ran the column loop's B1 test only: the guarded
    # kernel gives that loop's bits or first B1, and where the loop's column
    # scaling (operation 2k) or update (2k + 1) overflows, a B2 or B3 at the
    # same operation or before
    A, pattern, f = problem
    want = _result(_unguarded_attempt, A, pattern, f)
    got = _result(ic_attempt, A, pattern, f)
    event(f"{f.name} {want.kind if isinstance(want, Breakdown) else type(want).__name__}")
    if isinstance(want, np.ndarray):
        _assert_same_bits(got, want)
    elif isinstance(want, Breakdown):
        assert got == want
    else:
        k = int(re.search(r"at k=(\d+)", want).group(1))
        assert isinstance(got, Breakdown) and got.kind in ("B2", "B3")
        assert 2 * got.k + (got.kind == "B3") <= 2 * k + want.startswith("update")


@settings(max_examples=300, deadline=None)
@given(lower_patterns())
def test_step_times_match_oracle(drawn):
    pattern = drawn[0]
    n, cp, ri = pattern.n, pattern.col_ptr, pattern.row_idx
    cols = np.repeat(np.arange(n), np.diff(cp))
    plan = _step_plan(pattern)
    T, P = [None] * pattern.nnz, [None] * n
    for s, (task, pairs, shift, diag, below, off) in enumerate(plan.steps):
        for p in task.tolist():
            assert T[p] is None
            T[p] = s
        for d in diag.tolist():
            assert P[cols[d]] is None
            P[cols[d]] = s
        # a task's pairs run from its l_jk to the end of its column, and a
        # pivot takes its column's off-diagonals, the columns ascending
        pair_pos = np.arange(pairs.sum()) + np.repeat(shift, pairs)
        assert pair_pos.tolist() == [q for p in task.tolist() for q in range(p, cp[cols[p] + 1])]
        assert below.tolist() == [cp[cols[d] + 1] - d - 1 for d in diag.tolist()]
        assert off.tolist() == [q for d in diag.tolist() for q in range(d + 1, cp[cols[d] + 1])]
        assert np.all(np.diff(cols[diag]) > 0)
    assert (T, P) == oracles.step_times(cp, ri)
    # rest[s] is the lowest operation number at step s or later: 2j for the
    # pivot of column j, 2k + 1 for a task of source column k
    lowest = [min([2 * cols[p] + 1 for p in task.tolist()] + [2 * cols[d] for d in diag.tolist()])
              for task, _, _, diag, _, _ in plan.steps]
    assert plan.rest.tolist() == [min(lowest[s:]) for s in range(len(lowest))]
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
    level, depth = _column_levels(pattern)
    widest = np.zeros(depth, dtype=np.int64)
    np.maximum.at(widest, level, np.bincount(ri, minlength=n) - 1)
    assert depth <= len(plan.steps) <= widest.sum() + depth


def test_b3_of_a_source_spanning_steps():
    # source 3 runs its task into column 5 at step 1 and into column 4 at
    # step 4, after column 4's chain of sources 0-2; both are unsafe, and
    # both belong to the one scatter from column 3
    fp16 = get_format("fp16")
    pattern = _pattern(6, {(4, 0), (4, 1), (4, 2), (4, 3), (5, 3)})
    values = np.array([1.0, 0.1, 1.0, 0.1, 1.0, 0.1, 1e-4, 5.0, 5.0, 1.0, 1.0])
    A = SparseSpd(6, pattern.col_ptr, pattern.row_idx, quantize(values, fp16)[0])
    T, _ = oracles.step_times(pattern.col_ptr, pattern.row_idx)
    assert (T[7], T[8]) == (4, 1)
    want = _result(_column_attempt, A, pattern, fp16)
    assert want == Breakdown("B3", 3)
    assert _result(ic_attempt, A, pattern, fp16) == want


def test_fp64_attempt_runs_past_its_failure():
    # column 5 breaks down (B2, operation 10) at step 0, while the chain of
    # columns 0-4 keeps lower operations running to step 4; steps 1 and 2
    # scatter column 5's overflowed quotients into columns 6 and 7, silently
    fp64 = get_format("fp64")
    pattern = _pattern(8, {(1, 0), (2, 1), (3, 2), (4, 3), (6, 5), (7, 5), (7, 6)})
    values = np.array([1.0, 0.1, 1.0, 0.1, 1.0, 0.1, 1.0, 0.1, 1.0,
                       1e-20, 1e300, 1e300, 1.0, 0.0, 1.0])
    A = SparseSpd(8, pattern.col_ptr, pattern.row_idx, values)
    plan = _step_plan(pattern)
    assert plan.rest.tolist() == [0, 1, 3, 5, 7]
    got = ic_attempt(_scatter_into_pattern(A, plan), plan, 1e-30, fp64)
    assert got == Breakdown("B2", 5)
    assert got == _column_attempt(_scatter_into_pattern(A, plan), plan, 1e-30, fp64)


def test_dense_pattern_is_one_chain_of_pivots():
    A, _ = l2_scale(random_spd(40, density=1.0, seed=0))
    pattern = ic_pattern(A, 3)
    assert len(_step_plan(pattern).steps) == len(pattern.schedule.levels) == pattern.n


def _zeroed_pivot():
    """l2-scaled poisson2d(50) with the diagonal of column 1250 zeroed, and its
    IC(0) pattern: in fp16 every attempt below alpha = 0.128 breaks down (B1)."""
    A, _ = l2_scale(poisson2d(50))
    A.values[A.diag_positions()[1250]] = 0.0
    return A, ic_pattern(A, 0)


def _holds_no_factor_state(pattern, solves=frozenset()):
    """The pattern holds its arrays and schedule and nothing of the factor,
    and the schedule its level and forward orders, no dataflow step, and of
    the solves' records only the keys in solves: the directions (True
    forward) and, for native_low, (direction, NATIVE_LOW) for the chains."""
    return (set(vars(pattern)) == {"n", "col_ptr", "row_idx", "schedule"}
            and set(vars(pattern.schedule)) == {"cols", "levels", "pos", "src", "order", "solves"}
            and set(pattern.schedule.solves) == solves)


def test_first_breakdown_without_a_rerun():
    # a zeroed pivot halfway down a grid: the steps find the column loop's
    # breakdown on every attempt
    fp16 = get_format("fp16")
    A, pattern = _zeroed_pivot()
    L = shifted_ic(A, pattern, f=fp16)
    assert L.alpha == 0.128 and L.stats.restarts == 8
    assert [kind for _, kind, _ in L.stats.history] == ["B1"] * 8
    with pytest.raises(ShiftRestartError) as got:
        shifted_ic(A, pattern, f=fp16, max_restarts=8)
    with mock.patch.object(factor, "ic_attempt", _column_attempt), \
            pytest.raises(ShiftRestartError) as want:
        shifted_ic(A, pattern, f=fp16, max_restarts=8)
    assert got.value.history == want.value.history


def test_shifted_ic_prepares_once_and_keeps_nothing():
    fp16 = get_format("fp16")
    A, pattern = _zeroed_pivot()
    with mock.patch.object(factor, "_step_plan", wraps=_step_plan) as plans, \
            mock.patch.object(factor, "_scatter_into_pattern",
                              wraps=_scatter_into_pattern) as scatters, \
            mock.patch.object(factor, "ic_attempt", wraps=ic_attempt) as attempts:
        L = shifted_ic(A, pattern, f=fp16)
    assert L.stats.restarts == 8
    assert (plans.call_count, scatters.call_count, attempts.call_count) == (1, 1, 9)
    # each attempt factors its own copy of the values against the one plan
    assert len({id(c.args[0]) for c in attempts.call_args_list}) == 9
    assert len({id(c.args[1]) for c in attempts.call_args_list}) == 1
    assert _holds_no_factor_state(pattern)
    with pytest.raises(ShiftRestartError):
        shifted_ic(A, pattern, f=fp16, max_restarts=8)
    assert _holds_no_factor_state(pattern)
    out = ic_attempt_on(A, pattern, default_tau(fp16), fp16)
    assert out.kind == "B1" and out.k == 1250
    assert _holds_no_factor_state(pattern)


def _assert_same_shifted_ic(A, pattern, f):
    """shifted_ic gives the factor bits, alpha, history and breakdown counts
    of a run whose attempts all go through the column loop; returns its
    history."""
    got = shifted_ic(A, pattern, f=f)
    with mock.patch.object(factor, "ic_attempt", _column_attempt):
        want = shifted_ic(A, pattern, f=f)
    _assert_same_bits(got.values, want.values)
    assert got.alpha == want.alpha
    assert (got.stats.history, got.stats.nmod, got.stats.nofl) == \
        (want.stats.history, want.stats.nmod, want.stats.nofl)
    return got.stats.history


def _tiny_badscale_cases(seed):
    """(A, pattern, f) of the tiny badscale-restart cases of
    benchmark/workloads.py, A l2-scaled."""
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "benchmark" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    with mock.patch.dict(sys.modules, workloads=workloads):
        spec.loader.exec_module(workloads)
        cases = workloads.build("badscale-restart", seed, tiny=True)
    for case in cases:
        A, _ = l2_scale(SparseSpd(case.n, np.searchsorted(case.cols, np.arange(case.n + 1)),
                                  case.rows, case.vals))
        yield A, ic_pattern(A, case.level), get_format(case.fmt)


def test_kept_pairs_give_the_column_loops_restarts():
    # every restarted case of the breakdown-safety corpus and of the tiny
    # badscale-restart workload, and the zeroed pivot of a grid, factor with
    # pairs kept from their first breakdown to the column loop's bits
    fp16 = get_format("fp16")
    restarted = 0
    for A in _corpus():
        Ahat, _ = l2_scale(A)
        for level in (0, 3):
            restarted += len(_assert_same_shifted_ic(Ahat, ic_pattern(Ahat, level), fp16)) > 1
    for seed in (7, 11):
        for A, pattern, f in _tiny_badscale_cases(seed):
            restarted += len(_assert_same_shifted_ic(A, pattern, f)) > 1
    assert restarted >= 10
    assert len(_assert_same_shifted_ic(*_zeroed_pivot(), fp16)) == 8


def test_b3_on_a_kept_step():
    # column 0's pivot is zero, so the first attempt breaks down (B1) before
    # step 1 runs its updates; the next three scale l_10 = l_20 = 20 by
    # pivots below 0.07, and step 1's updates a - l_i0 l_j0 overflow fp16
    # (B3): the third and fourth attempts reuse the pairs the second kept,
    # and the stored zero l_30 leaves some of them not live
    fp16 = get_format("fp16")
    pattern = full_pattern(4)
    values = np.array([0.0, 20.0, 20.0, 0.0, 1.0, 0.5, 0.5, 1.0, 0.5, 1.0])
    A = SparseSpd(4, pattern.col_ptr, pattern.row_idx, values)
    history = _assert_same_shifted_ic(A, pattern, fp16)
    assert [(kind, k) for _, kind, k in history[:5]] == \
        [("B1", 0), ("B3", 0), ("B3", 0), ("B3", 0), ("B1", 1)]


def _kept_per_attempt(A, pattern, f):
    """shifted_ic's factor, a weak reference to its plan, and per attempt
    the steps whose pairs it found and the steps its plan keeps after it
    (None where the plan keeps none)."""
    plans, attempts = [], []

    def plan_of(p):
        plan = _step_plan(p)
        plans.append(weakref.ref(plan))
        return plan

    def attempt(vals, plan, tau, f):
        attempts.append(0)
        out = ic_attempt(vals, plan, tau, f)
        attempts[-1] = (attempts[-1], None if plan.found is None else len(plan.found))
        return out

    def pairs(*args):
        attempts[-1] += 1
        return _step_pairs(*args)

    with mock.patch.object(factor, "_step_plan", wraps=plan_of), \
            mock.patch.object(factor, "ic_attempt", wraps=attempt), \
            mock.patch.object(factor, "_step_pairs", wraps=pairs):
        L = shifted_ic(A, pattern, f=f)
    assert len(plans) == 1
    return L, plans[0], attempts


def test_pairs_kept_from_the_first_breakdown_to_the_call_end():
    fp16 = get_format("fp16")
    # a first attempt that succeeds keeps no pairs
    A, _ = l2_scale(poisson2d(8))
    pattern = ic_pattern(A, 1)
    L, plan, attempts = _kept_per_attempt(A, pattern, fp16)
    assert L.stats.restarts == 0 and attempts[0][0] > 0 and attempts == [(attempts[0][0], None)]
    gc.collect()
    assert plan() is None and _holds_no_factor_state(pattern)
    # restarts: the first attempt keeps nothing, each later one keeps every
    # step it finds, and finds no step the plan keeps; those that break down
    # where the one before did find nothing
    A, pattern = _zeroed_pivot()
    L, plan, attempts = _kept_per_attempt(A, pattern, fp16)
    found, kept = zip(*attempts)
    assert L.stats.restarts == 8 and kept[0] is None and found[1] == kept[1] > 0
    assert all(found[a] == kept[a] - kept[a - 1] for a in range(2, len(attempts)))
    history = L.stats.history
    assert all(found[a] == 0 for a in range(2, 8) if history[a][1:] == history[a - 1][1:])
    assert found[8] > 0 and kept[8] == sum(len(step[0]) > 0 for step in _step_plan(pattern).steps)
    gc.collect()
    assert plan() is None and _holds_no_factor_state(pattern)


def test_step_times_found_by_each_factorization_only():
    # solves of either mode on a never-factored pattern find no dataflow
    # step, each shifted_ic finds them once whatever its restarts, and the
    # schedule keeps none of them
    A, _ = l2_scale(poisson2d(8))
    A.values[A.diag_positions()[0]] = 0.0     # B1 at alpha = 0
    pattern = ic_pattern(A, 1)
    r = np.linspace(-1.0, 1.0, A.n)
    with mock.patch.object(factor, "_step_times", wraps=factor._step_times) as times:
        for mode in (CAST_F64, NATIVE_LOW):
            apply_preconditioner(_factor(pattern), r, mode)
        assert times.call_count == 0
        for count in (1, 2):
            L = shifted_ic(A, pattern, f=get_format("fp16"))
            assert L.stats.restarts >= 1 and times.call_count == count
        for mode in (CAST_F64, NATIVE_LOW):
            apply_preconditioner(L, r, mode)
        assert times.call_count == 2
    assert _holds_no_factor_state(pattern, {True, False, (True, NATIVE_LOW), (False, NATIVE_LOW)})


def test_uncovered_pattern_fails_before_any_attempt():
    A = tridiag(4)
    narrow = FillPattern(4, np.arange(5), np.arange(4))   # diagonal only
    with mock.patch.object(factor, "ic_attempt") as attempts, \
            pytest.raises(ValueError, match="pattern does not cover the matrix structure"):
        shifted_ic(A, narrow, f=get_format("fp16"))
    assert attempts.call_count == 0


def test_one_schedule_serves_restarts_and_solves():
    A, _ = l2_scale(poisson2d(8))
    A.values[A.diag_positions()[0]] = 0.0     # B1 at alpha = 0
    with mock.patch.object(factor, "ic_attempt", wraps=ic_attempt) as attempts, \
            mock.patch.object(factor, "_step_plan", wraps=_step_plan) as plans, \
            mock.patch.object(icir.symbolic, "_column_levels", wraps=_column_levels) as levels:
        pattern = ic_pattern(A, 0)
        L = shifted_ic(A, pattern, f=get_format("fp16"))
        apply_preconditioner(L, np.ones(L.n))
        s = pattern.schedule
        kernel = s.solves[True], s.solves[False]
        apply_preconditioner(L, np.arange(L.n, dtype=float))
    assert L.stats.restarts >= 1 and attempts.call_count == L.stats.restarts + 1
    # the schedule found the levels once, for the factor's plan and the
    # solves, and one plan and one schedule's solve levels served every
    # restart and solve
    assert levels.call_count == 1
    assert pattern.schedule is s and s.solves[True] is kernel[0] and s.solves[False] is kernel[1]
    assert plans.call_count == 1


def test_schedule_built_once_per_pattern_and_shared():
    # shifted_ic with restarts, a cast_f64 and a native_low apply build one
    # schedule per pattern, and its groups index its arrays, not copies; the
    # grid's middle levels hold more than GROUP_COLUMNS columns, so most
    # groups are levels
    A, _ = l2_scale(poisson2d(20))
    A.values[A.diag_positions()[0]] = 0.0     # B1 at alpha = 0
    with mock.patch.object(icir.symbolic, "_Schedule", wraps=_Schedule) as builds:
        for count in (1, 2):
            pattern = ic_pattern(A, 0)
            L = shifted_ic(A, pattern, f=get_format("fp16"))
            assert L.stats.restarts >= 1 and builds.call_count == count
            for mode in (CAST_F64, NATIVE_LOW, CAST_F64, NATIVE_LOW):
                apply_preconditioner(L, np.linspace(-1.0, 2.0, L.n), mode)
            assert builds.call_count == count
    s = pattern.schedule
    views = []
    for _, _, groups in _both(pattern):
        # every group views its direction's columns (s.cols forward, a
        # reversed copy backward); one whole array of each other kind per
        # direction, which every group without inside updates views (a group
        # with them holds its own)
        cols = groups[0][0].base
        assert cols is not None and all(group[0].base is cols for group in groups)
        levels = [group for group in groups if group[6] is None]
        for kind in (3, 4):
            of = [group[kind] for group in levels]
            assert of[0].base is not None and all(view.base is of[0].base for view in of)
            views += of
    assert s.solves[True][2][0][0].base is s.cols
    # nearly all of these views nonempty
    assert len(views) > 40 and sum(len(view) > 0 for view in views) >= len(views) - 4


def _held(group):
    """A group's columns in walk order, and its outside and inside updates,
    as indices into its direction's order."""
    cols, _, vs, _, _, _, inner = group
    outside = np.arange(vs.start, vs.stop) if isinstance(vs, slice) else vs
    return cols.tolist(), outside.tolist(), [] if inner is None else inner[0].tolist()


@settings(max_examples=300, deadline=None)
@given(lower_patterns())
def test_update_orders_match_oracle(drawn):
    pattern = drawn[0]
    n, cp, ri = pattern.n, pattern.col_ptr, pattern.row_idx
    level, depth = _column_levels(pattern)
    cols = np.repeat(np.arange(n), np.diff(cp))
    s = _schedule(pattern)
    assert s.cols.tolist() == sorted(range(n), key=lambda j: level[j])
    # the level slices tile the columns, one level each
    assert len(s.levels) == depth and sum(sl.stop - sl.start for sl in s.levels) == n
    assert [sl.start for sl in s.levels] == [0] + [sl.stop for sl in s.levels[:-1]]
    assert all(np.all(level[s.cols[sl]] == d) for d, sl in enumerate(s.levels))
    forward, backward = oracles.update_orders(cp, ri, level)
    for (pos, diag, groups), want, walk, tgt, src in (
            (_records(pattern, True), forward, s.cols, ri, cols),
            (_records(pattern, False), backward, s.cols[::-1], cols, ri)):
        assert pos.tolist() == want
        # the direction walks cols, forward, or cols reversed, backward, with
        # their diagonals; its groups are ascending slices of that walk
        assert diag.tolist() == cp[walk].tolist()
        assert [group[1].step for group in groups] == [None] * len(groups)
        assert [g[1].start for g in groups[1:]] == [g[1].stop for g in groups[:-1]]
        assert all(group[0].tolist() == walk[group[1]].tolist() for group in groups)
        # each group's targets and sources are the order's rows and columns
        # forward, its columns and rows backward, at the updates it holds
        # native_low's batch holds all of a group's updates, in record order
        for group in groups:
            _, outside, inside = _held(group)
            assert group[3].tolist() == tgt[pos[outside]].tolist()
            assert group[4].tolist() == src[pos[outside]].tolist()
            o, batch_src = group[5][:2]
            assert list(range(o.start, o.stop)) == sorted(outside + inside)
            assert batch_src.tolist() == src[pos[o]].tolist()


@settings(max_examples=300, deadline=None)
@given(lower_patterns())
def test_groups_keep_every_summation_order(drawn):
    pattern = drawn[0]
    n, cp, ri = pattern.n, pattern.col_ptr, pattern.row_idx
    level, depth = _column_levels(pattern)
    cols = np.repeat(np.arange(n), np.diff(cp))
    for (pos, _, groups), backward in zip(_both(pattern), (False, True)):
        tgt, src = (cols, ri) if backward else (ri, cols)
        tgt, src = tgt[pos], src[pos]
        levels = list(range(depth))[::-1] if backward else list(range(depth))
        group_of, taken = np.full(n, -1), 0
        ivs, chains = _chains(pattern, not backward)
        assert ivs.tolist() == sum((_held(group)[2] for group in groups), [])
        for g, group in enumerate(groups):
            walk, outside, inside = _held(group)
            # a run of whole levels, next in the direction's order; with
            # inside updates walked level by level in that order
            held = sorted(set(level[walk].tolist()), reverse=backward)
            assert held == levels[taken:taken + len(held)]
            assert sorted(walk) == np.flatnonzero(np.isin(level, held)).tolist()
            assert not inside or np.all(np.diff(level[walk]) * (-1 if backward else 1) >= 0)
            taken += len(held)
            # at most GROUP_COLUMNS columns, unless one level
            assert len(walk) <= GROUP_COLUMNS or len(held) == 1
            group_of[walk] = g
            event(f"{len(held)} levels" if len(held) < 3 else "3+ levels")
            if inside:
                # every inside source is walked before its target
                at = {j: i for i, j in enumerate(walk)}
                loc = group[6][1]
                assert [walk[i] for i in loc] == src[inside].tolist()
                assert all(i < at[j] for i, j in zip(loc, tgt[inside].tolist()))
            # each column's native_low chain, read in the direction's order
            # from its group's batch, takes every update of the column once,
            # in the order of the native loops of tests/oracles.py: sources
            # ascending forward, rows ascending backward; the inside slots
            # name their updates and their sources' places in the walk
            o = group[5][0]
            batch = list(range(o.start, o.stop))[::-1 if backward else 1]
            runs, slots = chains[g]
            for j, chain in zip(walk, runs):
                read = [batch[i] for i in chain]
                assert sorted(read) == np.flatnonzero(tgt == j).tolist()
                assert src[read].tolist() == sorted(set(src[read].tolist()))
            marked = {i: e for i, e in enumerate(slots or ()) if e is not None}
            assert sorted(batch[i] for i in marked) == inside
            assert all(batch[i] == ivs[m] and walk[w] == src[ivs[m]]
                       for i, (m, w) in marked.items())
        assert taken == depth
        # every update is held once, by its target's group, inside iff its
        # source is in that group
        owner, kinds = np.full(len(pos), -1), np.full(len(pos), -1)
        for g, group in enumerate(groups):
            _, outside, inside = _held(group)
            assert np.all(owner[outside + inside] == -1)
            owner[outside + inside] = g
            kinds[outside], kinds[inside] = 0, 1
        assert np.array_equal(owner, group_of[tgt])
        assert np.array_equal(kinds, group_of[src] == group_of[tgt])
        # each target reads its outside sources first in its summation order:
        # forward (k ascending) each outside source is below each inside one,
        # backward (rows descending) each outside row above each inside row
        for j in range(n):
            k = src[tgt == j]
            outside, inside = k[group_of[k] != group_of[j]], k[group_of[k] == group_of[j]]
            if len(outside) and len(inside):
                assert (outside.min() > inside.max()) if backward else \
                    (outside.max() < inside.min())


def test_dense_random_pattern_takes_few_groups():
    # random_spd(100, density=0.3) IC(3) has 99 levels, all but one of one
    # column, which merge into groups of up to GROUP_COLUMNS columns
    A, _ = l2_scale(random_spd(100, density=0.3))
    pattern = ic_pattern(A, 3)
    assert len(_schedule(pattern).levels) == 99
    for _, _, groups in _both(pattern):
        assert len(groups) <= -(-100 // GROUP_COLUMNS) + 1
