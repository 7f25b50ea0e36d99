"""Checks of the benchmark itself, not of icir.

    python3 benchmark/selfcheck.py

- a tiny size of every workload completes in seconds, untraced and traced,
  with every solution passing the checker and identical exact counts;
- the checker rejects a perturbed, a non-finite and a mis-shaped solution;
- a traced pass restores every wrapped module attribute, also when it raises;
- in each traced run the spans nest, their self times add up to the run's
  wall time, and the uncovered remainder is printed;
- BENCHMARK.json declares exactly the workloads and metrics run.py prints.

Exits 1 if any check fails.
"""

from __future__ import annotations

import importlib
import json
import sys
import tempfile
from time import perf_counter

import run

run.use_checkout_icir()

import numpy as np  # noqa: E402

from harness import nondeterminism, run_pass, solve  # noqa: E402
from spans import (END, PARENT, RUN, START, PATCH_POINTS, Tracer, layer_metrics,  # noqa: E402
                   layer_unit, self_times)
from workloads import BERR_BOUND, WORKLOADS, backward_error, build, write_inputs  # noqa: E402

TINY_SECONDS = 20.0  # wall bound for one untraced plus one traced tiny pass
failures = []


def require(ok, message):
    print(("ok   " if ok else "FAIL ") + message)
    if not ok:
        failures.append(message)


def patched_attributes():
    return [getattr(importlib.import_module(m), a) for m, a, _, _ in PATCH_POINTS]


def check_spans(name, traced):
    spans = traced.tracer.spans
    own = self_times(spans)
    nested = all(spans[s[PARENT]][START] <= s[START] <= s[END] <= spans[s[PARENT]][END]
                 for s in spans if s[PARENT] >= 0)
    require(nested, f"{name}: every span lies inside its parent")
    roots = [i for i, s in enumerate(spans) if s[PARENT] == -1]
    for i in roots:
        wall = spans[i][END] - spans[i][START]
        total = sum(o for s, o in zip(spans, own) if s[RUN] == spans[i][RUN])
        require(abs(total - wall) <= 1e-9 * max(1.0, wall),
                f"{name} run {spans[i][RUN]}: self times sum to {total:.6f} s of {wall:.6f} s wall; "
                f"uncovered {own[i] * 1e3:.3f} ms")
    # the root spans add only the wrapper's own cost to the pipeline's timestamps
    excess = sum(spans[i][END] - spans[i][START] for i in roots) - traced.total_s
    require(0.0 <= excess < 1e-3 * len(roots),
            f"{name}: root spans exceed the untraced timestamps by {excess * 1e6:.1f} us")


def check_tiny_workloads(tmp):
    for name in WORKLOADS:
        cases = build(name, seed=0, tiny=True)
        paths = write_inputs(cases, tmp)
        t0 = perf_counter()
        plain = run_pass(cases, paths, traced=False)
        traced = run_pass(cases, paths, traced=True)
        elapsed = perf_counter() - t0
        require(elapsed < TINY_SECONDS, f"{name}: tiny size, two passes in {elapsed:.2f} s")
        require(plain.failed == 0 and traced.failed == 0,
                f"{name}: tiny solutions pass the checker {plain.errors + traced.errors}")
        require(not nondeterminism([plain, traced]), f"{name}: exact counts repeat")
        check_spans(name, traced)


def check_checker(tmp):
    case = build("wathen-ic3-cg", seed=0, tiny=True)[0]
    x = solve(case, write_inputs([case], tmp)[0])[0]
    require(backward_error(case, x) <= BERR_BOUND, "checker accepts the returned solution")
    rng = np.random.default_rng(0)
    bad = x * (1.0 + 1e-6 * rng.standard_normal(case.n))
    require(backward_error(case, bad) > BERR_BOUND,
            f"checker rejects a 1e-6 relative perturbation ({backward_error(case, bad):.2e})")
    require(backward_error(case, np.full(case.n, np.nan)) > BERR_BOUND, "checker rejects NaN")
    require(backward_error(case, x[:-1]) > BERR_BOUND, "checker rejects a short vector")


def check_restore(originals):
    try:
        with Tracer().installed():
            inside = patched_attributes()
            raise KeyError("raised inside a traced block")
    except KeyError:
        pass
    require(all(i is not o for i, o in zip(inside, originals)), "every patch point is wrapped while traced")
    require(all(a is o for a, o in zip(patched_attributes(), originals)),
            "every patch point is restored after a raise")


def check_declaration():
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    require([(w["name"], w["why"]) for w in declared["workloads"]]
            == [(w.name, w.why) for w in WORKLOADS.values()], "BENCHMARK.json lists every workload")
    e2e = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    require(e2e == run.E2E_UNITS, "BENCHMARK.json end_to_end matches the --trace 0 metrics")
    layers = {name: layer_unit(name) for name in [*layer_metrics([]), "trace.overhead_s"]}
    require({m["name"]: m["unit"] for m in declared["per_layer"]} == layers,
            "BENCHMARK.json per_layer matches the --trace 1 metrics")


def main() -> int:
    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="selfcheck-", dir=run.OUT) as tmp:
        originals = patched_attributes()
        check_declaration()
        check_restore(originals)
        check_checker(tmp)
        check_tiny_workloads(tmp)
        require(all(a is o for a, o in zip(patched_attributes(), originals)),
                "every patch point is restored after the traced passes")
    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
