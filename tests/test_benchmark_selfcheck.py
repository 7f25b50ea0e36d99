"""The benchmark's self-check as a test.

The benchmark wraps module attributes of icir (benchmark/spans.py,
PATCH_POINTS).  A change that renames or drops one of them fails here,
rather than only in a traced benchmark run.
"""

import subprocess
import sys

from conftest import REPO


def test_benchmark_selfcheck_passes():
    proc = subprocess.run([sys.executable, str(REPO / "benchmark" / "selfcheck.py")],
                          cwd=REPO, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
