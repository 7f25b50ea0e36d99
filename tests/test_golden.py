"""Golden digest: the pipeline's results on a fixed corpus, pinned to a file.

Every matrix of the corpus runs through

    l2_scale -> ic_pattern -> shifted_ic -> ic_krylov_ir (cg, gmres) | ic_lu_ir

in fp16 and bf16 with IC(0) and IC(3).  Exact results are compared exactly:
a SHA-256 of the factor values, the shift alpha, the breakdown and restart
counts, the outer step count and the per-outer (iterations, status) of the
inner solver.  The final backward error depends on the last bits of the
solution, so it is kept to 3 significant digits only.

A change that alters the numerics on purpose regenerates the file with

    PYTHONPATH=src python tests/test_golden.py --write

which prints the keys it moved, added and removed, and names those entries,
and why they changed, in CHANGES.md.
"""

import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

from icir.factor import shifted_ic
from icir.gallery import poisson2d, wathen
from icir.precision import get_format
from icir.refine import ic_krylov_ir, ic_lu_ir
from icir.sparse import l2_scale, matvec_f64
from icir.symbolic import ic_pattern
from test_acceptance import _corpus

GOLDEN = Path(__file__).with_name("golden_digest.json")
FORMATS = ("fp16", "bf16")
LEVELS = (0, 3)
SOLVERS = ("cg", "gmres", "lu-ir")
# LU-IR applies the factor in emulated low precision; eight correction
# steps pin those numerics past the first correction and keep the whole
# test within its budget
LU_IR_ITMAX = 8


def corpus():
    mats = {f"corpus{i}": A for i, A in enumerate(_corpus())}
    mats["wathen20x15"] = wathen(20, 15, seed=0)
    mats["poisson30"] = poisson2d(30)
    return mats


def _sig3(x: float) -> str:
    return f"{x:.2e}"


def _solve_entry(Ahat, bhat, L, solver) -> dict:
    if solver == "lu-ir":
        rep = ic_lu_ir(Ahat, bhat, L, itmax=LU_IR_ITMAX)
    else:
        rep = ic_krylov_ir(Ahat, bhat, L, method=solver)
    return {
        "iouter": rep.iouter,
        "per_outer": [[int(c), s] for c, s in rep.per_outer],
        "converged": rep.converged,
        "diverged": rep.diverged,
        "overflow_fallbacks": rep.overflow_fallbacks,
        "resfinal": _sig3(rep.resfinal),
    }


def compute_digest() -> dict:
    """Digest entries keyed 'matrix/format/IC(level)' and '.../solver'."""
    out = {}
    for name, A in corpus().items():
        Ahat, S = l2_scale(A)
        bhat = matvec_f64(A, np.ones(A.n)) / S.s
        for level in LEVELS:
            pattern = ic_pattern(Ahat, level)
            for fmt in FORMATS:
                key = f"{name}/{fmt}/IC({level})"
                L = shifted_ic(Ahat, pattern, f=get_format(fmt))
                out[key] = {
                    "values_sha256": hashlib.sha256(L.values.tobytes()).hexdigest(),
                    "alpha": L.alpha,
                    "nmod": L.stats.nmod,
                    "nofl": L.stats.nofl,
                    "restarts": L.stats.restarts,
                }
                for solver in SOLVERS:
                    out[f"{key}/{solver}"] = _solve_entry(Ahat, bhat, L, solver)
    return out


def changed_keys(want: dict, got: dict) -> dict:
    """The keys whose entries moved from want to got, and those got added
    to want or removed from it."""
    return {"moved": sorted(k for k in want.keys() & got.keys() if want[k] != got[k]),
            "added": sorted(got.keys() - want.keys()),
            "removed": sorted(want.keys() - got.keys())}


def test_changed_keys():
    want = {"a": {"alpha": 0.0}, "b": 1, "c": 2}
    got = {"a": {"alpha": 1e-3}, "b": 1, "d": 3}
    assert changed_keys(want, got) == {"moved": ["a"], "added": ["d"], "removed": ["c"]}
    assert not any(changed_keys(want, dict(want)).values())


def test_golden_digest():
    t0 = time.perf_counter()
    got = compute_digest()
    elapsed = time.perf_counter() - t0
    want = json.loads(GOLDEN.read_text())
    changes = changed_keys(want, got)
    assert not any(changes.values()), (
        changes, {k: (want[k], got[k]) for k in changes["moved"][:5]})
    # 8-10 s on a 2-core host; the bound catches a runaway, not noise
    assert elapsed < 30.0


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    digest = compute_digest()
    for change, keys in changed_keys(json.loads(GOLDEN.read_text()), digest).items():
        for key in keys:
            print(f"{change}: {key}")
    GOLDEN.write_text(json.dumps(digest, indent=1, sort_keys=True) + "\n")
