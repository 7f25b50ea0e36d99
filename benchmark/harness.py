"""Passes over a workload: solve every case from its Matrix Market file, check, time.

A pass runs the README pipeline once per case,

    read_matrix_market -> l2_scale -> ic_pattern -> shifted_ic -> ic_krylov_ir | ic_lu_ir

and sums, over its cases, the wall time from file to the unscaled fp64
solution, the preconditioner set-up (read + scale + pattern + factor) and the
refinement call.  An untraced pass takes only these timestamps; a
traced pass also wraps the same calls and icir's inner layers in spans.
"""

from __future__ import annotations

import os
import platform
import sys
from contextlib import nullcontext
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from icir import get_format, ic_krylov_ir, ic_lu_ir, ic_pattern, l2_scale, read_matrix_market, shifted_ic

from spans import Tracer, layer_metrics
from workloads import BERR_BOUND, Case, backward_error


def solve(case: Case, path):
    """One run of the pipeline.  Returns (x, L, report, setup_s, solve_s, total_s).

    The icir calls are looked up as this module's attributes, so that a
    traced pass can wrap them (spans.PATCH_POINTS).
    """
    t0 = perf_counter()
    A = read_matrix_market(path)
    Ahat, S = l2_scale(A)
    bhat = case.b / S.s
    pattern = ic_pattern(Ahat, case.level)
    L = shifted_ic(Ahat, pattern, f=get_format(case.fmt))
    t1 = perf_counter()
    if case.solver == "lu-ir":
        report = ic_lu_ir(Ahat, bhat, L)
    else:
        report = ic_krylov_ir(Ahat, bhat, L, method=case.solver)
    t2 = perf_counter()
    x = report.solution / S.s
    t3 = perf_counter()
    return x, L, report, t1 - t0, t2 - t1, t3 - t0


def exact_counts(L, report) -> dict:
    """Counts that must repeat exactly when the same code solves the same input."""
    st = L.stats
    return {
        "nnz_L": L.nnz, "attempts": st.restarts + 1, "alpha": L.alpha, "B1": st.nmod,
        "B2": st.restarts - st.nmod - st.nofl, "B3": st.nofl, "outer": report.iouter,
        "inner": [c for c, _ in report.per_outer], "statuses": [s for _, s in report.per_outer],
        "overflow_fallbacks": report.overflow_fallbacks,
    }


@dataclass
class PassResult:
    traced: bool
    total_s: float = 0.0
    setup_s: float = 0.0
    solve_s: float = 0.0
    failed: int = 0
    max_backward_error: float = 0.0
    errors: list = field(default_factory=list)
    counts: list = field(default_factory=list)   # exact_counts per case
    layers: dict | None = None                  # layer_metrics of a traced pass
    tracer: Tracer | None = None


def run_pass(cases, paths, traced: bool) -> PassResult:
    """Solve every case once, check each solution, and sum the timings."""
    res = PassResult(traced)
    tracer = Tracer() if traced else None
    for i, (case, path) in enumerate(zip(cases, paths)):
        try:
            if traced:
                tracer.run = i
            with tracer.installed() if traced else nullcontext():
                x, L, report, setup_s, solve_s, total_s = solve(case, path)
        except Exception as exc:  # one failing solve is recorded and the pass goes on
            res.failed += 1
            res.errors.append(f"{case.label}: {type(exc).__name__}: {exc}")
            res.counts.append({"raised": type(exc).__name__})
            continue
        berr = backward_error(case, x)
        res.max_backward_error = max(res.max_backward_error, berr)
        if not report.converged or not berr <= BERR_BOUND:
            res.failed += 1
            res.errors.append(f"{case.label}: converged={report.converged} backward error {berr:.3e} "
                              f"(bound {BERR_BOUND:.3e})")
        res.total_s += total_s
        res.setup_s += setup_s
        res.solve_s += solve_s
        res.counts.append(exact_counts(L, report))
    if traced:
        res.layers = layer_metrics(tracer.spans)
        res.tracer = tracer
    return res


def reference_seconds() -> float:
    """Wall time of a fixed piece of work that does not use icir: the host-speed probe.

    It is repeated Gram-Schmidt sweeps of one vector against 40 fixed unit
    vectors: a Python loop of dot products and vector updates of length
    1000, the kind of small NumPy steps the pipeline is made of.  On the
    2-vCPU host this was written on, probes and solves were interleaved for
    a few minutes: the log of a solve's time rose with the log of this
    probe's time with a slope of 0.56-0.90 for every workload, against
    0.38-0.72 for a column-substitution loop over tiny arrays, and scaled
    solve times scattered less.  So this probe tracks the passes more closely.
    """
    n, k, sweeps = 1000, 40, 1300
    rng = np.random.default_rng(0)
    V = rng.standard_normal((n, k))
    V /= np.linalg.norm(V, axis=0)
    x = rng.standard_normal(n)
    t0 = perf_counter()
    for _ in range(sweeps):
        for j in range(k):
            v = V[:, j]
            x -= (v @ x) * v
        x /= np.linalg.norm(x)
    return perf_counter() - t0


def traced_counts(layers: dict) -> dict:
    """The whole-number per-layer metrics: exact counts of a traced pass."""
    return {k: v for k, v in layers.items() if isinstance(v, int)}


def nondeterminism(passes: list[PassResult]) -> list[str]:
    """Differences in exact counts between passes over the same inputs."""
    problems = []
    first = passes[0].counts
    for i, p in enumerate(passes[1:], 1):
        if p.counts != first:
            problems.append(f"pass {i} solve counts {p.counts} differ from pass 0 {first}")
    traced = [p for p in passes if p.traced]
    if traced:
        ref = traced_counts(traced[0].layers)
        for p in traced[1:]:
            if traced_counts(p.layers) != ref:
                problems.append(f"traced counts {traced_counts(p.layers)} differ from {ref}")
        b2 = sum(c.get("B2", 0) for c in first)
        if ref["factor.breakdowns_B2"] != b2:
            problems.append(f"traced B2 {ref['factor.breakdowns_B2']} differs from restarts-B1-B3 {b2}")
    return problems


def environment() -> dict:
    """Interpreter, NumPy and BLAS versions, thread pins, cores and load at start."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "loadavg": list(os.getloadavg()),
        "platform": platform.platform(),
        "argv": sys.argv[1:],
    }
