"""scripts/inproc_ab.py against HEAD on the tiny workloads and the tiny
--baseline patterns: one row per workload or pattern and layer, equal bits
on both sides (the script asserts them)."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _in_git_checkout() -> bool:
    done = subprocess.run(["git", "rev-parse", "--verify", "HEAD"], cwd=ROOT,
                          stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return done.returncode == 0


@pytest.mark.skipif(not _in_git_checkout(), reason="needs a git checkout with a HEAD")
def test_rows_against_head():
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / "inproc_ab.py"), "HEAD",
                           "--tiny", "--reps", "2", "--baseline"], cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=600)
    assert done.returncode == 0, done.stderr[-2000:]
    rows = [line.strip("|").split(" | ") for line in done.stdout.splitlines()
            if line.startswith("| ") and not line.startswith("| workload")]
    want = [(name, layer) for name, mode in (
                ("wathen-ic3-cg", "cast_f64"), ("poisson-ic0-gmres", "cast_f64"),
                ("wathen-luir-bf16", "native_low"), ("badscale-restart", "cast_f64"))
            for layer in ("shifted_ic", "first apply", mode)]
    want += [(f"wathen(6, 5) IC({level}) {fmt}", layer)
             for level, fmt in ((0, "fp16"), (0, "bf16"), (3, "fp16"), (3, "bf16"))
             for layer in ("shifted_ic", "cast_f64", "native_low forward", "native_low backward")]
    assert [(row[0].strip(), row[1]) for row in rows] == want
    for row in rows:
        base, change, ratio = (float(cell) for cell in row[2:5])
        assert base > 0.0 and change > 0.0 and ratio > 0.0
        q1, q3 = (float(cell) for cell in row[5].split("-"))
        assert 0.0 < q1 <= q3
        won, reps = row[6].strip().split("/")
        assert reps == "2" and 0 <= int(won) <= 2
