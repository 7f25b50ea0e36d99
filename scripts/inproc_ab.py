#!/usr/bin/env python3
"""In-process, interleaved A/B of the factor and the preconditioner apply.

    python3 scripts/inproc_ab.py BASE [--reps N] [--tiny]

Unpacks BASE's src/icir with `git archive BASE src/icir | tar -x` into a
temporary directory as the package icir_base (its imports are relative), so
both sides run in this one process.  For each workload of
benchmark/workloads.py at seed SEED (its tiny cases with --tiny), each side
reads every case's Matrix Market file, l2-scales it and builds its pattern.
Then both sides factor every case by shifted_ic in the case's format, and
the factor bits and alpha must agree; one apply_preconditioner per case, in
the workload's mode (native_low for lu-ir, cast_f64 otherwise) on the
scaled right-hand side, must give equal bits or raise OverflowSignal on
both sides.  The check's solves build each side's schedule and solve
records, so the timed rounds run on warm patterns.

Then N rounds (default 16), the side that goes first alternating, time on
each side shifted_ic over the cases and one apply per case, checking every
apply's bits again.  One row per workload and layer gives both sides'
median milliseconds per round, the change's median over the base's, and
the rounds the change took less time.  A run of the four full workloads at
the default rounds takes about 20 seconds on a 2-core host.
"""

from __future__ import annotations

import argparse
import importlib
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "benchmark"))

import workloads  # noqa: E402

SEED = 7
SIDES = ("base", "change")


def _unpack(rev: str, tmp: Path) -> None:
    """BASE's src/icir as tmp/icir_base."""
    archive = subprocess.Popen(["git", "archive", rev, "src/icir"], cwd=ROOT,
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(tmp)], stdin=archive.stdout, check=True)
    if archive.wait() != 0:
        sys.exit(f"inproc_ab: git archive {rev} failed")
    (tmp / "src" / "icir").rename(tmp / "icir_base")


def _apply(icir, L, r, mode):
    """One apply's result, or "overflow" where it raised OverflowSignal."""
    try:
        return icir.apply_preconditioner(L, r, mode)
    except icir.OverflowSignal:
        return "overflow"


def _same(a, b) -> bool:
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    return np.array_equal(a.view(np.int64), b.view(np.int64))


def _prepare(icir, cases, paths):
    """Each case's (scaled matrix, pattern, format, scaled right-hand side)."""
    out = []
    for case, path in zip(cases, paths):
        Ahat, S = icir.l2_scale(icir.read_matrix_market(path))
        out.append((Ahat, icir.ic_pattern(Ahat, case.level), icir.get_format(case.fmt),
                    case.b / S.s))
    return out


def _factor(icir, prepared):
    return [icir.shifted_ic(A, pattern, f=f) for A, pattern, f, _ in prepared]


def _applies(icir, factors, prepared, mode):
    return [_apply(icir, L, r, mode) for L, (_, _, _, r) in zip(factors, prepared)]


def _rows(name, cases, paths, packages, reps):
    """The workload's rows: (layer, base times, change times), seconds per round."""
    mode = "native_low" if cases[0].solver == "lu-ir" else "cast_f64"
    prepared = {side: _prepare(packages[side], cases, paths) for side in SIDES}
    factors = {side: _factor(packages[side], prepared[side]) for side in SIDES}
    for base, change in zip(factors["base"], factors["change"]):
        assert base.alpha == change.alpha and _same(base.values, change.values), \
            f"{name}: the factors differ"
    solutions = {side: _applies(packages[side], factors[side], prepared[side], mode)
                 for side in SIDES}
    assert all(map(_same, solutions["base"], solutions["change"])), \
        f"{name}: the solutions differ"
    times = {(layer, side): [] for layer in ("shifted_ic", mode) for side in SIDES}
    for i in range(reps):
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            icir = packages[side]
            t0 = time.perf_counter()
            _factor(icir, prepared[side])
            t1 = time.perf_counter()
            got = _applies(icir, factors[side], prepared[side], mode)
            t2 = time.perf_counter()
            times["shifted_ic", side].append(t1 - t0)
            times[mode, side].append(t2 - t1)
            assert all(map(_same, got, solutions["base"])), f"{name}: the solutions differ"
    return [(layer, times[layer, "base"], times[layer, "change"])
            for layer in ("shifted_ic", mode)]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base", help="git revision to compare against")
    ap.add_argument("--reps", type=int, default=16, help="timed rounds (default 16)")
    ap.add_argument("--tiny", action="store_true", help="the workloads' tiny cases")
    args = ap.parse_args(argv)
    if args.reps < 1:
        ap.error("--reps must be at least 1")
    with tempfile.TemporaryDirectory(prefix="inproc-ab-") as tmp:
        tmp = Path(tmp)
        _unpack(args.base, tmp)
        sys.path.insert(0, str(tmp))
        packages = {"base": importlib.import_module("icir_base"),
                    "change": importlib.import_module("icir")}
        print(f"in-process A/B of {args.base} (base) and this checkout (change), "
              f"seed {SEED}, {args.reps} rounds{', tiny cases' if args.tiny else ''}")
        print("| workload | layer | base ms | change ms | ratio | rounds won |")
        print("|---|---|---|---|---|---|")
        for name in workloads.WORKLOADS:
            cases = workloads.build(name, SEED, tiny=args.tiny)
            directory = tmp / name
            directory.mkdir()
            paths = workloads.write_inputs(cases, directory)
            for layer, base, change in _rows(name, cases, paths, packages, args.reps):
                b, c = statistics.median(base), statistics.median(change)
                won = sum(y < x for x, y in zip(base, change))
                print(f"| {name} | {layer} | {1e3 * b:.3f} | {1e3 * c:.3f} | {c / b:.3f} | "
                      f"{won}/{args.reps} |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
