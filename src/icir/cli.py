"""Command-line experiment harness.

Pipeline for one run: read the matrix, build b from the all-ones solution,
scale symmetrically, compute the level-l fill pattern, factorize with the
shifted incomplete Cholesky, then solve the *scaled* system with the chosen
driver.  Statistics mirror the usual preconditioner-study table columns.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .factor import shifted_ic
from .precision import get_format
from .refine import (DELTA_DEFAULT, DELTA_KRYLOV_DEFAULT, backward_error,
                     ic_krylov_ir, ic_lu_ir)
from .sparse import (inf_norm_matrix, inf_norm_vector, l2_scale, matvec_f64,
                     read_matrix_market)
from .symbolic import ic_pattern

__all__ = ["RunConfig", "RunRecord", "build_rhs", "run_experiment", "run_suite", "main"]

SOLVERS = ("cg", "gmres", "lu-ir", "plain-krylov")


@dataclass
class RunConfig:
    matrix_path: str
    level: int = 0
    factor_format: str = "fp16"
    solver: str = "cg"
    delta: float = DELTA_DEFAULT
    delta_krylov: float = DELTA_KRYLOV_DEFAULT
    inner_maxit: int | None = None  # default depends on solver
    outer_itmax: int | None = None
    tau: float | None = None
    shift_init: float = 1e-3
    max_restarts: int = 40

    def __post_init__(self):
        if not isinstance(self.matrix_path, (str, os.PathLike)):
            raise ValueError("matrix_path must be a path")
        for name in ("factor_format", "solver"):
            if not isinstance(getattr(self, name), str):
                raise ValueError(f"{name} must be a string")
        if self.solver not in SOLVERS:
            raise ValueError(f"solver must be one of {SOLVERS}")
        _check_int("level", self.level, 0)
        _check_int("max_restarts", self.max_restarts, 1)
        if self.inner_maxit is not None:
            _check_int("inner_maxit", self.inner_maxit, 1)
        if self.outer_itmax is not None:
            _check_int("outer_itmax", self.outer_itmax, 0)  # 0: the first solve only
        for name in ("delta", "delta_krylov", "shift_init", "tau"):
            value = getattr(self, name)
            if value is not None:
                _check_positive(name, value)
        get_format(self.factor_format)  # validate early

    @staticmethod
    def from_dict(d: dict) -> "RunConfig":
        if not isinstance(d, dict):
            raise ValueError("config must be a JSON object")
        known = {f.name for f in dataclasses.fields(RunConfig)}
        unknown = set(d) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        if "matrix_path" not in d:
            raise ValueError("config needs a matrix_path")
        return RunConfig(**d)


def _check_int(name: str, value, minimum: int):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be at least {minimum}, got {value}")


def _check_positive(name: str, value):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


@dataclass
class RunRecord:
    identifier: str
    n: int
    nnz_A: int
    normA: float
    normb: float
    nnz_L: int
    alpha: float
    nmod: int
    nofl: int
    resinit: float
    resfinal: float
    res_unscaled: float
    iouter: int
    totits: int
    maxbasis: int
    status: str
    wall_seconds: float
    # JSON only: each inner solve's status, the native_low applications
    # retried in fp64, and each failed factor attempt's shift and breakdown
    inner_statuses: list = field(default_factory=list, metadata={"csv": False})
    overflow_fallbacks: int = field(default=0, metadata={"csv": False})
    attempts: list = field(default_factory=list, metadata={"csv": False})

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


# the CSV columns
RECORD_FIELDS = [f.name for f in dataclasses.fields(RunRecord) if f.metadata.get("csv", True)]


def build_rhs(A):
    """Right-hand side for the reference solution of all ones."""
    x_true = np.ones(A.n)
    return matvec_f64(A, x_true), x_true


def run_experiment(config: RunConfig) -> RunRecord:
    t0 = time.perf_counter()
    A = read_matrix_market(config.matrix_path)
    identifier = Path(config.matrix_path).stem
    b, _ = build_rhs(A)
    normA = inf_norm_matrix(A)
    normb = inf_norm_vector(b)

    Ahat, S = l2_scale(A)
    bhat = b / S.s
    f = get_format(config.factor_format)
    pattern = ic_pattern(Ahat, config.level)
    L = shifted_ic(Ahat, pattern, tau=config.tau, alpha_s=config.shift_init,
                   f=f, max_restarts=config.max_restarts)

    # a limit left unset takes the driver's default
    itmax = {} if config.outer_itmax is None else {"itmax": config.outer_itmax}
    inner = {} if config.inner_maxit is None else {"inner_maxit": config.inner_maxit}
    if config.solver == "lu-ir":
        report = ic_lu_ir(Ahat, bhat, L, delta=config.delta, **itmax)
    elif config.solver == "plain-krylov":
        # single outer step: the Krylov solver does all the work
        report = ic_krylov_ir(Ahat, bhat, L, method="gmres", delta=config.delta,
                              delta_krylov=config.delta,
                              **{"inner_maxit": 2000, "itmax": 1, **inner, **itmax})
    else:
        report = ic_krylov_ir(Ahat, bhat, L, method=config.solver, delta=config.delta,
                              delta_krylov=config.delta_krylov, **inner, **itmax)

    x_unscaled = report.solution / S.s  # x = S^-1 xhat
    res_unscaled = backward_error(A, x_unscaled, b)
    if report.converged:
        status = "converged"
    elif report.diverged:
        status = "diverged"
    else:
        status = "not-converged"
    return RunRecord(
        identifier=identifier, n=A.n, nnz_A=A.nnz, normA=normA, normb=normb,
        nnz_L=L.nnz, alpha=L.alpha, nmod=L.stats.nmod, nofl=L.stats.nofl,
        resinit=report.resinit, resfinal=report.resfinal,
        res_unscaled=res_unscaled, iouter=report.iouter, totits=report.totits,
        maxbasis=report.maxbasis, status=status,
        wall_seconds=time.perf_counter() - t0,
        inner_statuses=[s for _, s in report.per_outer],
        overflow_fallbacks=report.overflow_fallbacks,
        attempts=[{"alpha": a, "kind": kind, "k": k} for a, kind, k in L.stats.history],
    )


def run_suite(manifest_path: str):
    """Execute one JSON config per manifest line; per-run errors do not stop the suite.

    Returns (records, errors) where errors are structured dicts.
    """
    records = []
    errors = []
    with open(manifest_path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                config = RunConfig.from_dict(json.loads(line))
                records.append(run_experiment(config))
            except Exception as exc:  # the failure is this line's; the suite goes on
                errors.append({"line": lineno, "error": type(exc).__name__,
                               "message": str(exc)})
    return records, errors


def _write_records(records, fmt: str, out):
    if fmt == "json":
        json.dump([r.as_dict() for r in records], out, indent=2)
        out.write("\n")
    else:
        writer = csv.DictWriter(out, fieldnames=RECORD_FIELDS, extrasaction="ignore")
        writer.writeheader()
        for r in records:
            writer.writerow(r.as_dict())


def _summary(records, errors, out):
    for r in records:
        out.write(f"{r.identifier}: n={r.n} level-fill nnz_L={r.nnz_L} alpha={r.alpha:g} "
                  f"iouter={r.iouter} totits={r.totits} resfinal={r.resfinal:.3e} "
                  f"[{r.status}]\n")
    for e in errors:
        out.write(f"line {e['line']}: {e['error']}: {e['message']}\n")


def main(argv=None) -> int:
    # every run setting defaults to its RunConfig value
    ap = argparse.ArgumentParser(
        prog="icir", argument_default=argparse.SUPPRESS,
        description="Low-precision incomplete Cholesky preconditioners in "
                    "Krylov-based iterative refinement.")
    source = ap.add_mutually_exclusive_group(required=True)
    source.add_argument("--matrix", dest="matrix_path", metavar="MATRIX",
                        help="Matrix Market file (coordinate real symmetric)")
    source.add_argument("--suite", help="manifest file, one JSON config per line")
    run_flags = [
        ap.add_argument("--level", type=int, help="level of fill"),
        ap.add_argument("--format", choices=["fp16", "bf16", "fp32", "fp64"],
                        dest="factor_format", help="factorization format"),
        ap.add_argument("--solver", choices=list(SOLVERS)),
        ap.add_argument("--delta", type=float, help="outer backward-error tolerance"),
        ap.add_argument("--delta-krylov", type=float, help="inner Krylov tolerance"),
        ap.add_argument("--inner-maxit", type=int),
        ap.add_argument("--outer-itmax", type=int),
        ap.add_argument("--tau", type=float, help="pivot threshold override"),
        ap.add_argument("--shift-init", type=float, help="initial shift alpha_S"),
        ap.add_argument("--max-restarts", type=int),
    ]
    ap.add_argument("--output", default="csv", choices=["csv", "json"])
    ap.add_argument("--out", default=None, help="write records here instead of stdout")
    args = vars(ap.parse_args(argv))
    output, out, suite = args.pop("output"), args.pop("out"), args.pop("suite", None)
    if suite is not None and args:
        # a suite takes every run setting from its manifest lines
        given = [a.option_strings[0] for a in run_flags if a.dest in args]
        ap.error(f"--suite does not take run flags: {', '.join(given)}")

    try:
        if suite is not None:
            records, errors = run_suite(suite)
        else:
            records, errors = [run_experiment(RunConfig(**args))], []
    except Exception as exc:  # the run failed; report it as its exit status
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1

    buf = io.StringIO()
    _write_records(records, output, buf)
    if out:
        Path(out).write_text(buf.getvalue())
    else:
        sys.stdout.write(buf.getvalue())
    _summary(records, errors, sys.stderr)
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
