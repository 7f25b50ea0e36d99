#!/usr/bin/env python3
"""A/B benchmark of a base revision against this checkout.

    python3 scripts/ab.py BASE --out BENCH_<pr>.json

Unpacks BASE with `git archive BASE | tar -x` into a temporary directory (no
network, no worktree metadata).  Then, for 10 pairs, runs

    python3 benchmark/run.py --workload W --seed S --seconds SECONDS

once from the base tree and once from this checkout's working tree, for
every workload of BENCHMARK.json, with SECONDS its run_seconds.  Pair i of
the k-th workload uses the seed first_seed(BASE) + 100 k + i, which moves
with BASE's commit hash: each base is measured on seeds of its own, and a
rerun against the same base on the same ones.  The side that goes first
alternates from pair to pair, so a slow spell of the host falls on both
sides.  The last line of each run's standard output is its result.
After the pairs, each side runs every workload once more with --trace 1 at
its first pair's seed, for the per-layer metrics.

The output file holds, per workload and end-to-end metric of BENCHMARK.json,
both sides' medians and quartiles, the pairs the change won, the metric's
bound and a verdict, and per side the failed and attempted solves and the
runs that benchmark/run.py marked incorrect, plus every run's value.  The
verdict reads "unresolved" where a run of either side was incorrect, or
where either side's interquartile range over its median exceeds the bound,
unless every run of the change beats every run of the base; "worse" where
the change's median is worse than the base's by more than the bound;
"better" where the change failed no more solves than the base, won at least
9 in 10 pairs and its median beats the base's by more than the base's
interquartile range; and "same" otherwise.  Per workload, "per_layer" holds
both sides' traced metrics, their units, and the names of the count metrics
whose values differ between the sides.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
PAIRS = 10


def first_seed(rev: str) -> int:
    """The first seed for base commit rev (a full hexadecimal hash): one of
    100,000 blocks of 10,000 seeds from 10,001 up, above the 9001-9310 that
    every file up to BENCH_15.json ran."""
    return 10_000 * (1 + int(rev, 16) % 100_000) + 1


def quartiles(values):
    """Median and (first, third) quartile, inclusive method."""
    if len(values) == 1:
        return values[0], [values[0], values[0]]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return med, [q1, q3]


def summarize(runs, end_to_end):
    """Per-metric summary of one workload.

    runs: one {"parent": result, "change": result} per pair, a result being
    the dict a run of benchmark/run.py prints last.  end_to_end: the
    "end_to_end" list of BENCHMARK.json (name, better, bound).
    """
    out = {"pairs": len(runs)}
    for key in ("failed", "attempted"):
        out[key] = {side: sum(r[side][key] for r in runs) for side in SIDES}
    out["incorrect"] = {side: sum(not r[side]["correct"] for r in runs) for side in SIDES}
    for metric in end_to_end:
        name, bound = metric["name"], metric["bound"]
        sign = 1.0 if metric["better"] == "lower" else -1.0
        values = {side: [r[side]["metrics"][name]["value"] for r in runs] for side in SIDES}
        entry = {}
        for side in SIDES:
            entry[f"{side}_median"], entry[f"{side}_quartiles"] = quartiles(values[side])
        base, med = entry["parent_median"], entry["change_median"]
        won = sum(sign * (c - p) < 0 for p, c in zip(values["parent"], values["change"]))
        spread = max((q[1] - q[0]) / abs(m) if m else 0.0
                     for m, q in ((base, entry["parent_quartiles"]),
                                  (med, entry["change_quartiles"])))
        worse = sign * (med - base) / abs(base) if base else 0.0
        base_iqr = entry["parent_quartiles"][1] - entry["parent_quartiles"][0]
        beats_all = max(sign * c for c in values["change"]) < min(sign * p for p in values["parent"])
        if any(out["incorrect"].values()) or (spread > bound and not beats_all):
            verdict = "unresolved"
        elif worse > bound:
            verdict = "worse"
        elif (out["failed"]["change"] <= out["failed"]["parent"]
              and won >= 0.9 * len(runs) and sign * (base - med) > base_iqr):
            verdict = "better"
        else:
            verdict = "same"
        entry.update(change_better=won, bound=bound, relative_change=worse, spread=spread,
                     verdict=verdict, values=values)
        out[name] = entry
    return out


def layer_summary(parent, change):
    """Both sides' per-layer metrics, name -> value, from the metrics of one
    --trace 1 run each, with their units and the sorted names of the count
    metrics whose values differ or that one side lacks."""
    units = {k: m["unit"] for metrics in (parent, change) for k, m in metrics.items()}
    values = {side: {k: m["value"] for k, m in metrics.items()}
              for side, metrics in zip(SIDES, (parent, change))}
    diffs = sorted(k for k, unit in units.items()
                   if unit == "count" and values["parent"].get(k) != values["change"].get(k))
    return {"units": units, **values, "count_diffs": diffs}


def run_once(tree: Path, workload: str, seed: int, seconds: float, trace: bool = False) -> dict:
    cmd = [sys.executable, "benchmark/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
    done = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)
    if done.returncode != 0:
        sys.exit(f"ab: {' '.join(cmd)} in {tree} failed:\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, stdout=subprocess.PIPE,
                          text=True).stdout.strip()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base", help="git revision to compare against")
    ap.add_argument("--out", required=True, help="output JSON file")
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    base_rev = git("rev-parse", args.base)
    change_rev = git("rev-parse", "HEAD") + ("-dirty" if git("status", "--porcelain") else "")
    seeds = [[first_seed(base_rev) + 100 * k + i for i in range(PAIRS)]
             for k in range(len(workloads))]
    runs = {w: [] for w in workloads}
    with tempfile.TemporaryDirectory(prefix="ab-base-") as tmp:
        archive = subprocess.Popen(["git", "archive", base_rev], cwd=ROOT, stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", tmp], stdin=archive.stdout, check=True)
        if archive.wait() != 0:
            sys.exit(f"ab: git archive {args.base} failed")
        trees = {"parent": Path(tmp), "change": ROOT}
        for i in range(PAIRS):
            for k, w in enumerate(workloads):
                seed = seeds[k][i]
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                pair = {side: run_once(trees[side], w, seed, seconds) for side in order}
                runs[w].append(pair)
                print(f"ab: {w} seed {seed} " + " ".join(
                    f"{side} {pair[side]['metrics']['time_to_solution_s']['value']:.4g}"
                    for side in SIDES), file=sys.stderr)
        layers = {}
        for k, w in enumerate(workloads):
            seed = seeds[k][0]
            traced = {side: run_once(trees[side], w, seed, seconds, trace=True)["metrics"]
                      for side in SIDES}
            layers[w] = {"seed": seed, **layer_summary(traced["parent"], traced["change"])}
            print(f"ab: {w} traced, count metrics that differ: "
                  f"{layers[w]['count_diffs'] or 'none'}", file=sys.stderr)
    result = {
        "description": f"benchmark/run.py end-to-end metrics, {PAIRS} alternating "
                       f"parent/change pairs per workload, --seconds {seconds:g}; "
                       f"per-layer metrics of one --trace 1 run per side",
        "command": "python3 scripts/ab.py " + " ".join(argv if argv is not None else sys.argv[1:]),
        "parent": base_rev,
        "change": change_rev,
        "host": {"cpus": os.cpu_count(), "python": platform.python_version(),
                 "numpy": numpy.__version__},
        "workloads": {w: {"seeds": seeds[k],
                          **summarize(runs[w], spec["end_to_end"]),
                          "per_layer": layers[w]}
                      for k, w in enumerate(workloads)},
    }
    Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
