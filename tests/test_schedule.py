"""The two cast_f64 substitution kernels against the scalar oracle, and the
schedule that chooses between them."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from icir.factor import FactorStats, IcFactor
from icir.gallery import poisson2d, tridiag
from icir.precision import get_format
from icir.symbolic import FillPattern, ic_pattern
from icir.trisolve import (LEVEL_WIDTH_MIN, _ColumnKernel, _column_levels,
                           _LevelKernel, _schedule, apply_preconditioner,
                           backward_solve, forward_solve)


def _pattern(n, entries):
    """FillPattern from a set of strictly lower (row, col) positions."""
    cols = [[j] for j in range(n)]
    for i, j in sorted(entries):
        cols[j].append(i)
    cp = np.zeros(n + 1, dtype=np.int64)
    cp[1:] = np.cumsum([len(c) for c in cols])
    return FillPattern(n, cp, np.concatenate(cols).astype(np.int64), level=0)


@st.composite
def triangular_systems(draw):
    """(pattern, values, w): chains, wide levels and random lower patterns."""
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
    pattern = _pattern(n, entries)
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
    assert isinstance(_schedule(chain).kernel, _ColumnKernel)
    assert isinstance(_schedule(grid).kernel, _LevelKernel)
    assert grid.n / _schedule(grid).depth >= LEVEL_WIDTH_MIN > chain.n / _schedule(chain).depth


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
