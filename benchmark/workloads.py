"""Seeded inputs for the benchmark workloads, and the benchmark's own checker.

Every matrix comes from icir.gallery and reaches icir only as a Matrix
Market file written here.  The right-hand side is b = A x_true for a seeded
x_true, computed with this module's own fp64 code from the generated
triplets, and the same code recomputes the backward error of each returned
solution, so no icir routine grades icir's output.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from icir import gallery

# icir.refine.DELTA_DEFAULT, the tolerance the refinement stops at; it is
# measured on the scaled system, so the unscaled solution gets 10x headroom.
DELTA = 1e3 * 2.0 ** -53
BERR_BOUND = 10.0 * DELTA


@dataclass(frozen=True)
class Case:
    """One solve: the lower triangle of a symmetric matrix, a right-hand side and a configuration.

    The matrices are SPD by construction, except in badscale-restart, whose
    cases record their count of negative eigenvalues.
    """

    label: str
    n: int
    rows: np.ndarray  # 0-based lower-triangle triplets, diagonal included
    cols: np.ndarray
    vals: np.ndarray
    b: np.ndarray
    level: int
    fmt: str
    solver: str  # "cg" | "gmres" | "lu-ir"
    negative_eigenvalues: int | None = None  # counted where the matrix is not SPD by construction


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: object  # (rng, tiny) -> list[Case]


def symmetric_matvec(n, rows, cols, vals, x):
    """A x for the full symmetric matrix held as its lower triangle."""
    y = np.zeros(n)
    np.add.at(y, rows, vals * x[cols])
    off = rows != cols
    np.add.at(y, cols[off], vals[off] * x[rows[off]])
    return y


def backward_error(case: Case, x: np.ndarray) -> float:
    """Unscaled normwise backward error ||b - A x||_inf / (||A||_inf ||x||_inf + ||b||_inf)."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (case.n,) or not np.all(np.isfinite(x)):
        return float("inf")
    r = case.b - symmetric_matvec(case.n, case.rows, case.cols, case.vals, x)
    row_abs = symmetric_matvec(case.n, case.rows, case.cols, np.abs(case.vals), np.ones(case.n))
    denom = row_abs.max() * np.abs(x).max() + np.abs(case.b).max()
    return float(np.abs(r).max() / denom)


def write_matrix_market(case: Case, path: Path) -> None:
    """Write the lower triangle as 'coordinate real symmetric' with round-trip digits."""
    with open(path, "w") as fh:
        fh.write("%%MatrixMarket matrix coordinate real symmetric\n")
        fh.write(f"{case.n} {case.n} {len(case.vals)}\n")
        for r, c, v in zip((case.rows + 1).tolist(), (case.cols + 1).tolist(), case.vals.tolist()):
            fh.write(f"{r} {c} {v!r}\n")


def write_inputs(cases, directory) -> list[Path]:
    """One Matrix Market file per case, named by its label."""
    paths = [Path(directory) / f"{case.label}.mtx" for case in cases]
    for case, path in zip(cases, paths):
        write_matrix_market(case, path)
    return paths


def _case(label, A, rng, level, fmt, solver, count_inertia=False) -> Case:
    rows, cols, vals = A.row_idx.copy(), A.entry_col.copy(), A.values.copy()
    b = symmetric_matvec(A.n, rows, cols, vals, rng.standard_normal(A.n))
    negative = None
    if count_inertia:
        dense = np.zeros((A.n, A.n))
        dense[rows, cols] = vals
        dense[cols, rows] = vals
        negative = int(np.count_nonzero(np.linalg.eigvalsh(dense) < 0.0))
    return Case(label, A.n, rows, cols, vals, b, level, fmt, solver, negative)


def _seed(rng) -> int:
    return int(rng.integers(2 ** 31))


# Sizes are scaled down from the paper's (wathen120 is n = 36,441) so that one
# pass takes 1-4 s and a run repeats it several times; the tiny sizes are the
# warm-up and the self-check.

def _wathen_ic3_cg(rng, tiny):
    nx, ny = (4, 3) if tiny else (40, 30)
    return [_case(f"wathen{nx}x{ny}", gallery.wathen(nx, ny, seed=_seed(rng)), rng, 3, "fp16", "cg")]


def _poisson_ic0_gmres(rng, tiny):
    m = 8 if tiny else 50
    return [_case(f"poisson{m}", gallery.poisson2d(m), rng, 0, "fp16", "gmres")]


def _wathen_luir_bf16(rng, tiny):
    # Three matrices, because the outer step count varies with the seed (26-30).
    nx, ny = (4, 3) if tiny else (10, 8)
    return [_case(f"wathen{nx}x{ny}-{i}", gallery.wathen(nx, ny, seed=_seed(rng)), rng, 0, "bf16", "lu-ir")
            for i in range(3)]


def _badscale_restart(rng, tiny):
    # Built like the badly scaled member of the breakdown-safety corpus in
    # tests/test_acceptance.py: values spread over 16 decades and a diagonal
    # of at least 1e6, which l2 scaling turns into a pivot breakdown
    # that only a shift of 2.048 (12 B1 restarts, 13 attempts) cures.  The
    # large off-diagonals make these matrices symmetric indefinite (about 40
    # of 100 eigenvalues are negative), outside the SPD setting of the paper;
    # they are here for the shift-restart loop, and GMRES solves them.
    # A case takes 3 or 4 outer steps depending on the seed; two cases of
    # each configuration halve the effect of that on a pass's time.
    n, repeats = (30, 1) if tiny else (100, 2)
    cases = []
    for i in range(repeats):
        for level, fmt in ((0, "fp16"), (0, "bf16"), (3, "fp16"), (3, "bf16")):
            A = gallery.random_spd(n, seed=_seed(rng), density=0.3)
            v = A.values * 10.0 ** rng.uniform(-8, 8, A.nnz)
            dp = A.diag_positions()
            v[dp] = np.abs(v[dp]) + 1e6
            cases.append(_case(f"badscale{n}-{i}-ic{level}-{fmt}", A.with_values(v), rng, level, fmt, "gmres",
                               count_inertia=True))
    return cases


WORKLOADS = {w.name: w for w in (
    Workload("wathen-ic3-cg",
             "paper headline case: fp16 IC(3) on a Wathen mass matrix; "
             "symbolic pass and factor dominate, CG needs 6 iterations",
             _wathen_ic3_cg),
    Workload("poisson-ic0-gmres",
             "fp16 IC(0) on a 2-D Laplacian; "
             "about 80 GMRES iterations make the cast_f64 preconditioner apply dominate",
             _poisson_ic0_gmres),
    Workload("wathen-luir-bf16",
             "bf16 IC(0) with LU-IR: the native_low triangular solves and bf16 rounding, "
             "the other mode of the same layers",
             _wathen_luir_bf16),
    Workload("badscale-restart",
             "small badly scaled symmetric indefinite batch: 13 shifted factor attempts per solve, "
             "GMRES bases near n, fixed per-call costs",
             _badscale_restart),
)}


def build(name: str, seed: int, tiny: bool = False) -> list[Case]:
    return WORKLOADS[name].build(np.random.default_rng(seed), tiny)
