"""Run every workload, one process at a time, and print its metrics as a table.

    python3 benchmark/all.py [--seed N] [--seconds S] [--trace 0|1]

Each workload runs in a fresh `run.py` process, so peak memory is its own.
Prints each metric by name with its unit, whether every solution passed the
check, and the failed/attempted runs; exits 1 if any workload failed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=declared["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    ok = True
    for name in [w["name"] for w in declared["workloads"]]:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit code {proc.returncode}, no result")
            ok = False
            continue
        result = json.loads(lines[-1])
        ok &= result["correct"]
        print(f"{name}: correct={result['correct']} failed_ratio={result['failed'] / result['attempted']:g}"
              f" ({result['failed']}/{result['attempted']} runs)")
        for metric, m in result["metrics"].items():
            print(f"  {metric:<34} {m['value']:>14.6g} {m['unit']}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
