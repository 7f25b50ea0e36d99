#!/usr/bin/env python3
"""In-process, interleaved A/B of the factor and the preconditioner apply.

    python3 scripts/inproc_ab.py BASE [--reps N] [--tiny] [--baseline]

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
each side shifted_ic over the cases, one apply per case on the factors
that round's shifted_ic returned ("first apply": a factor binds its values
into the solve groups on its first solve of each direction and mode), and
one more apply per case on the warm factors of the check, checking every
apply's bits again.  One row per workload and layer gives both sides'
median milliseconds per round, the change's median over the base's, the
interquartile range of the per-round ratio change / base, and the rounds
the change took less time.  A ratio whose interquartile range holds 1 is
not resolved.  A run of the four full workloads at the default rounds
takes about 25 seconds on a 2-core host.

--baseline adds rows at the paper's size, which no workload runs: the
l2-scaled gallery.wathen(120, 100) (n = 36,441; wathen(6, 5) with --tiny)
at IC(0) and IC(3), in fp16 and bf16.  Each times shifted_ic, one cast_f64
apply of linspace(-1, 1, n), and one native_low forward solve of that
vector rounded into the format and one backward solve of the forward's
result (of the vector itself where the forward overflowed), with the same
bit checks.  A round of the four patterns takes about 4 seconds a side.
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
from ab import quartiles  # noqa: E402

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


def _outcome(icir, solve, *args):
    """solve(*args), or "overflow" where it raised OverflowSignal."""
    try:
        return solve(*args)
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
    return [_outcome(icir, icir.apply_preconditioner, L, r, mode)
            for L, (_, _, _, r) in zip(factors, prepared)]


def _interleaved(reps, rounds):
    """N rounds of rounds(side), {layer: seconds}, the side that goes first
    alternating: (layer, base times, change times) per layer."""
    times = {}
    for i in range(reps):
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            for layer, t in rounds(side).items():
                times.setdefault(layer, {s: [] for s in SIDES})[side].append(t)
    return [(layer, t["base"], t["change"]) for layer, t in times.items()]


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

    def rounds(side):
        icir = packages[side]
        t0 = time.perf_counter()
        fresh = _factor(icir, prepared[side])
        t1 = time.perf_counter()
        first = _applies(icir, fresh, prepared[side], mode)
        t2 = time.perf_counter()
        got = _applies(icir, factors[side], prepared[side], mode)
        t3 = time.perf_counter()
        assert all(map(_same, first + got, 2 * solutions["base"])), \
            f"{name}: the solutions differ"
        return {"shifted_ic": t1 - t0, "first apply": t2 - t1, mode: t3 - t2}

    return _interleaved(reps, rounds)


def _baseline_rows(name, size, level, fmt, packages, reps):
    """One --baseline pattern's rows, as _rows gives them."""
    cases = {}
    for side in SIDES:
        icir = packages[side]
        gallery = importlib.import_module(f"{icir.__name__}.gallery")
        A, _ = icir.l2_scale(gallery.wathen(*size, seed=0))
        pattern, f = icir.ic_pattern(A, level), icir.get_format(fmt)
        r = np.linspace(-1.0, 1.0, A.n)
        cases[side] = (A, pattern, f, r, icir.precision.quantize(r, f)[0])
    results = {}
    for side in SIDES:
        icir = packages[side]
        A, pattern, f, r, w = cases[side]
        L = icir.shifted_ic(A, pattern, f=f)
        y = _outcome(icir, icir.forward_solve, L, w, "native_low")
        wb = w if isinstance(y, str) else y
        results[side] = (L, wb, [L.values, _outcome(icir, icir.apply_preconditioner, L, r),
                                 y, _outcome(icir, icir.backward_solve, L, wb, "native_low")])
    (Lb, _, want), (Lc, _, got) = results["base"], results["change"]
    assert Lb.alpha == Lc.alpha and all(map(_same, want, got)), f"{name}: the results differ"

    def rounds(side):
        icir = packages[side]
        A, pattern, f, r, w = cases[side]
        L, wb, _ = results[side]
        t0 = time.perf_counter()
        icir.shifted_ic(A, pattern, f=f)
        t1 = time.perf_counter()
        out = [_outcome(icir, icir.apply_preconditioner, L, r)]
        t2 = time.perf_counter()
        out.append(_outcome(icir, icir.forward_solve, L, w, "native_low"))
        t3 = time.perf_counter()
        out.append(_outcome(icir, icir.backward_solve, L, wb, "native_low"))
        t4 = time.perf_counter()
        assert all(map(_same, out, want[1:])), f"{name}: the results differ"
        return {"shifted_ic": t1 - t0, "cast_f64": t2 - t1, "native_low forward": t3 - t2,
                "native_low backward": t4 - t3}

    return _interleaved(reps, rounds)


def _print_rows(name, rows, reps):
    for layer, base, change in rows:
        b, c = statistics.median(base), statistics.median(change)
        _, (q1, q3) = quartiles([y / x for x, y in zip(base, change)])
        won = sum(y < x for x, y in zip(base, change))
        print(f"| {name} | {layer} | {1e3 * b:.3f} | {1e3 * c:.3f} | {c / b:.3f} | "
              f"{q1:.3f}-{q3:.3f} | {won}/{reps} |", flush=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base", help="git revision to compare against")
    ap.add_argument("--reps", type=int, default=16, help="timed rounds (default 16)")
    ap.add_argument("--tiny", action="store_true", help="the workloads' tiny cases")
    ap.add_argument("--baseline", action="store_true",
                    help="add rows for gallery.wathen(120, 100) at IC(0) and IC(3)")
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
        print("| workload | layer | base ms | change ms | ratio | ratio IQR | rounds won |")
        print("|---|---|---|---|---|---|---|")
        for name in workloads.WORKLOADS:
            cases = workloads.build(name, SEED, tiny=args.tiny)
            directory = tmp / name
            directory.mkdir()
            paths = workloads.write_inputs(cases, directory)
            _print_rows(name, _rows(name, cases, paths, packages, args.reps), args.reps)
        size = (6, 5) if args.tiny else (120, 100)
        for level, fmt in ((0, "fp16"), (0, "bf16"), (3, "fp16"), (3, "bf16")):
            if args.baseline:
                name = f"wathen{size} IC({level}) {fmt}"
                _print_rows(name, _baseline_rows(name, size, level, fmt, packages, args.reps),
                            args.reps)
    return 0


if __name__ == "__main__":
    sys.exit(main())
