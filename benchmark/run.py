"""icir benchmark: time from a Matrix Market file to an fp64 solution, split by layer.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the workload's matrices from the seed with icir.gallery, writes them as
Matrix Market files, and then repeats passes over them for S seconds in this
one process (a closed loop: each solve starts when the previous one returned),
after warm-up passes on a tiny size of the same workload.  Every solution is
checked with the benchmark's own backward-error code.

Times are host-speed corrected.  A fixed probe that does not use icir
(harness.reference_seconds) is timed before the first pass and after every
pass.  A time is its mean over the run's passes, times REF_SECONDS over the
run's mean probe time; README.md gives the reason and the measured spreads.
The unscaled means are kept in the run record.

--trace 0 prints the end-to-end metrics of the untraced passes.
--trace 1 alternates untraced and traced passes and prints the per-layer
metrics of the traced passes (mean times, median counts), plus the tracing
overhead.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Environment, sizes, per-pass figures and the
exact-count fingerprint go to standard error and to .bench_out/ in the
checkout; a traced run also writes the spans of its last traced pass there.
icir is imported from src/ of this checkout only.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

# One BLAS thread per workload process; must be set before NumPy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
MIN_PASSES = 3  # of each kind measured, whatever --seconds says
# Reported times are scaled to a host on which the probe takes this long.
REF_SECONDS = 0.3
E2E_UNITS = {"time_to_solution_s": "s", "setup_s": "s", "solve_s": "s", "peak_rss_mb": "MiB"}


def use_checkout_icir() -> None:
    """Put this checkout's src/ first on sys.path; exit with an error if it holds no icir."""
    src = ROOT / "src"
    if not (src / "icir" / "__init__.py").is_file():
        sys.exit(f"benchmark: no icir package under {src}")
    sys.path.insert(0, str(src))


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    from harness import environment, nondeterminism, reference_seconds, run_pass
    from spans import layer_unit
    from workloads import build, write_inputs

    env = environment()
    # ru_maxrss is in KiB on Linux
    rss_at_start_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    cases = build(workload, seed)
    warm = build(workload, seed, tiny=True)
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="inputs-", dir=OUT) as tmp:
        paths = write_inputs(cases, tmp)
        # Warm up every code path on the tiny size; checked but not timed.
        warm_paths = write_inputs(warm, tmp)
        warmup = [run_pass(warm, warm_paths, traced=t) for t in ((False, True) if trace else (False,))]
        passes, probes = [], [reference_seconds()]
        t0 = perf_counter()
        while True:
            passes.append(run_pass(cases, paths, traced=trace and len(passes) % 2 == 0))
            probes.append(reference_seconds())
            if passes[-1].traced:
                passes[-1].tracer.write(OUT / f"spans-{workload}-seed{seed}.jsonl")
                passes[-1].tracer = None
            untraced = [p for p in passes if not p.traced]
            traced = [p for p in passes if p.traced]
            enough = len(untraced) >= MIN_PASSES and (not trace or len(traced) >= MIN_PASSES)
            if enough and perf_counter() - t0 >= seconds:
                break

    problems = nondeterminism(passes)
    failed = sum(p.failed for p in passes + warmup)
    attempted = len(passes) * len(cases) + len(warmup) * len(warm)
    # Host-speed correction: the run's mean pass time over its mean probe time.
    scale = REF_SECONDS / statistics.fmean(probes)

    def mean(subset, key, scaled=True):
        return statistics.fmean(getattr(p, key) for p in subset) * (scale if scaled else 1.0)

    if trace:
        metrics = {k: (scale * statistics.fmean(p.layers[k] for p in traced) if layer_unit(k) == "s"
                       else statistics.median_low(p.layers[k] for p in traced))
                   for k in traced[0].layers}
        metrics["trace.overhead_s"] = mean(traced, "total_s") - mean(untraced, "total_s")
        units = {k: layer_unit(k) for k in metrics}
    else:
        metrics = {
            "time_to_solution_s": mean(untraced, "total_s"),
            "setup_s": mean(untraced, "setup_s"),
            "solve_s": mean(untraced, "solve_s"),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = E2E_UNITS

    record = {
        "workload": workload, "seed": seed, "trace": int(trace), "environment": env,
        "sizes": [{"case": c.label, "n": c.n, "nnz_A": len(c.vals), "nnz_L": k.get("nnz_L"),
                   "negative_eigenvalues": c.negative_eigenvalues}
                  for c, k in zip(cases, passes[0].counts)],
        "exact_counts": passes[0].counts,
        "traced_counts": traced[0].layers if trace else None,
        "nondeterminism": problems,
        "errors": sorted({e for p in passes + warmup for e in p.errors}),
        "passes": [{"traced": p.traced, "time_to_solution_s": p.total_s, "setup_s": p.setup_s,
                    "solve_s": p.solve_s, "failed": p.failed} for p in passes],
        "peak_rss_at_start_mb": rss_at_start_mb,
        "probe_s": probes,
        "scale": scale,
        "wall_means": {"time_to_solution_s": mean(untraced, "total_s", scaled=False),
                       "setup_s": mean(untraced, "setup_s", scaled=False),
                       "solve_s": mean(untraced, "solve_s", scaled=False)},
        "failed_ratio": failed / attempted,
        "max_backward_error": max(p.max_backward_error for p in passes + warmup),
        "metrics": metrics,
    }
    with open(OUT / f"{workload}-seed{seed}-trace{int(trace)}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    for line in record["errors"] + [f"nondeterministic counts: {p}" for p in problems]:
        print(f"benchmark: {line}", file=sys.stderr)
    print(json.dumps({"environment": env, "sizes": record["sizes"]}), file=sys.stderr)
    for k, v in metrics.items():
        print(f"{workload:>18} {k:<34} {v:14.6g} {units[k]}", file=sys.stderr)
    print(f"{workload:>18} {'failed_ratio':<34} {failed / attempted:14.6g} ({failed}/{attempted})"
          f" over {len(passes)} passes", file=sys.stderr)
    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    use_checkout_icir()
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}")
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
