"""scripts/analysis_cost.py's groups row, builders, bound values rows, restarts row and
apply row, on a small pattern."""

import importlib.util
from pathlib import Path

from icir.gallery import poisson2d
from icir.precision import get_format
from icir.sparse import l2_scale

_spec = importlib.util.spec_from_file_location(
    "analysis_cost", Path(__file__).resolve().parent.parent / "scripts" / "analysis_cost.py")
analysis_cost = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(analysis_cost)


def test_every_part_builds_and_is_traced():
    A, _ = l2_scale(poisson2d(6))
    names = [name for name, _ in analysis_cost.PARTS]
    assert "solve levels" in names and len(set(names)) == len(names)
    for name, build in analysis_cost.PARTS:
        kept, peak = analysis_cost._bytes(build, A, 1)
        assert 0 < kept <= peak, name


def test_bound_values_rows():
    A, _ = l2_scale(poisson2d(6))
    for mode in ("cast_f64", "native_low"):
        ms, kept, peak = analysis_cost._bind_cells(A, 1, mode)
        assert ms >= 0.0 and 0 < kept <= peak, mode


def test_restarts_row():
    A, _ = l2_scale(poisson2d(6))
    A.values[A.diag_positions()[0]] = 0.0     # B1 at alpha = 0
    restarts, ms, kept, peak, pairs, size = analysis_cost._restart_cells(A, 1, get_format("fp16"))
    assert int(restarts) >= 1 and float(ms) >= 0.0 and 0.0 <= float(kept) <= float(peak) > 0.0
    assert int(pairs.replace(",", "")) > 0 and float(size) > 0.0
    # a first attempt that succeeds keeps no pairs
    A, _ = l2_scale(poisson2d(6))
    cells = analysis_cost._restart_cells(A, 1, get_format("fp16"))
    assert (cells[0], cells[4]) == ("0", "0")


def test_apply_row():
    A, _ = l2_scale(poisson2d(6))
    cells = analysis_cost._apply_ms(A, 1, get_format("fp16"))
    assert len(cells) == 5
    for ms in cells[:3]:
        assert float(ms) >= 0.0
    forward, backward = cells[3].split(" / ")
    assert int(forward) >= 0 and int(backward) >= 0
    share, total = cells[4].split("% of ")
    assert 0.0 <= float(share) <= 100.0 and int(total.replace(",", "")) > 0
    assert analysis_cost._apply_ms(A, 1, get_format("bf16"))[4] == "-"


def test_groups_row():
    A, _ = l2_scale(poisson2d(6))
    levels, groups, inside = analysis_cost._group_cells(A, 1)
    forward, backward = (int(g) for g in groups.split(" / "))
    assert 1 <= forward <= int(levels) and 1 <= backward <= int(levels)
    assert all(int(count) >= 0 for count in inside.split(" / "))
