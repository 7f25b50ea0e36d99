"""In-memory spans around icir's layer boundaries, recorded from outside icir.

A traced pass replaces each public function at the module attribute its
caller looks up (PATCH_POINTS) with a wrapper that records a span: name,
start, end, parent span and run id, plus a small note taken from the
arguments or the result (a format, a breakdown kind, an inner status).
Counts are derived from the notes.  The originals are put back when the
pass ends, also when it raises.
"""

from __future__ import annotations

import importlib
import json
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from icir import Breakdown, OverflowSignal

NAME, START, END, PARENT, RUN, NOTE = range(6)


def _quantize_note(args, kwargs, result):
    return [args[1].name, int(np.size(args[0]))]


def _attempt_note(args, kwargs, result):
    return result.kind if isinstance(result, Breakdown) else "ok"


def _apply_note(args, kwargs, result):
    L = args[0]
    mode = args[2] if len(args) > 2 else kwargs.get("exec_mode", "cast_f64")
    # multiply-adds of one forward plus one backward substitution, and the divisions
    return [mode, 4 * (L.nnz - L.n) + 2 * L.n]


# (module, attribute, span name, note(args, kwargs, result)).  The harness
# entries are the public pipeline calls that harness.solve looks up, and
# harness.solve itself, whose span is the root of each run.
PATCH_POINTS = [
    ("harness", "solve", "run", None),
    ("harness", "read_matrix_market", "sparse.read_matrix_market", lambda a, k, r: [r.n, r.nnz]),
    ("harness", "l2_scale", "sparse.l2_scale", None),
    ("harness", "ic_pattern", "symbolic.ic_pattern", lambda a, k, r: r.nnz),
    ("harness", "shifted_ic", "factor.shifted_ic", lambda a, k, r: r.alpha),
    ("harness", "ic_krylov_ir", "refine.ic_krylov_ir", lambda a, k, r: r.iouter),
    ("harness", "ic_lu_ir", "refine.ic_lu_ir", lambda a, k, r: r.iouter),
    ("icir.factor", "ic_attempt", "factor.ic_attempt", _attempt_note),
    ("icir.factor", "squeeze", "factor.squeeze",
     lambda a, k, r: r[1].dropped_underflow + r[1].flushed_subnormal),
    ("icir.factor", "quantize", "precision.quantize", _quantize_note),
    ("icir.sparse", "quantize", "precision.quantize", _quantize_note),
    ("icir.precision", "quantize", "precision.quantize", _quantize_note),
    ("icir.trisolve", "quantize", "precision.quantize", _quantize_note),
    ("icir.refine", "apply_preconditioner", "trisolve.apply_preconditioner", _apply_note),
    ("icir.refine", "pcg", "krylov.pcg", lambda a, k, r: [r.iterations, r.status]),
    ("icir.refine", "gmres", "krylov.gmres", lambda a, k, r: [r.iterations, r.status]),
    ("icir.refine", "matvec_f64", "sparse.matvec_f64", None),
    ("icir.krylov", "matvec_f64", "sparse.matvec_f64", None),
]

# the formats whose quantize calls are counted apart
FORMATS = ("fp16", "bf16")


class Tracer:
    """Spans of one traced pass, kept as lists [name, start, end, parent, run, note]."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.run = -1

    def wrap(self, name, fn, note=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, perf_counter(), 0.0, stack[-1] if stack else -1, self.run, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
                if note is not None:
                    span[NOTE] = note(args, kwargs, result)
                return result
            except OverflowSignal:
                span[NOTE] = "overflow"
                raise
            except BaseException:
                span[NOTE] = "raised"
                raise
            finally:
                span[END] = perf_counter()
                stack.pop()

        return traced

    @contextmanager
    def installed(self):
        """Patch every PATCH_POINTS attribute for the duration of the block."""
        saved = []
        try:
            for module_name, attr, name, note in PATCH_POINTS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original, note))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def write(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "1" if name in ("factor.success_ratio", "factor.alpha") else "count"


def self_times(spans):
    """Each span's duration minus the durations of its direct children."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def layer_metrics(spans):
    """Per-layer counts and seconds of one traced pass, summed over its runs."""
    own = self_times(spans)
    m = {
        "symbolic.pattern_s": 0.0, "symbolic.nnz_L": 0,
        "factor.attempts": 0, "factor.attempt_s": 0.0, "factor.success_ratio": 0.0,
        "factor.alpha": 0.0, "factor.breakdowns_B1": 0, "factor.breakdowns_B2": 0,
        "factor.breakdowns_B3": 0,
        "trisolve.cast_f64_applies": 0, "trisolve.cast_f64_s": 0.0, "trisolve.flops_computed": 0,
        "trisolve.native_low_applies": 0, "trisolve.native_low_s": 0.0,
        "trisolve.overflow_fallbacks": 0,
        "krylov.iterations": 0, "krylov.max_basis": 0, "krylov.self_s": 0.0,
        "krylov.inner_not_converged": 0,
        "sparse.read_s": 0.0, "sparse.scale_s": 0.0, "sparse.matvec_calls": 0,
        "sparse.matvec_s": 0.0, "sparse.squeeze_dropped": 0,
        "refine.outer_steps": 0, "refine.self_s": 0.0,
        "input.n": 0, "input.nnz_A": 0, "trace.uncovered_s": 0.0,
    }
    for f in FORMATS:
        m.update({f"precision.{f}.quantize_calls": 0, f"precision.{f}.quantize_elems": 0,
                  f"precision.{f}.quantize_s": 0.0})
    ok = 0
    for s, self_s in zip(spans, own):
        name, note, dur = s[NAME], s[NOTE], s[END] - s[START]
        if name == "run":
            m["trace.uncovered_s"] += self_s
        elif note == "raised":
            continue
        elif name == "sparse.read_matrix_market":
            m["sparse.read_s"] += dur
            m["input.n"] += note[0]
            m["input.nnz_A"] += note[1]
        elif name == "sparse.l2_scale":
            m["sparse.scale_s"] += dur
        elif name == "symbolic.ic_pattern":
            m["symbolic.pattern_s"] += dur
            m["symbolic.nnz_L"] += note
        elif name == "factor.shifted_ic":
            m["factor.alpha"] += note
        elif name == "factor.squeeze":
            m["sparse.squeeze_dropped"] += note
        elif name == "factor.ic_attempt":
            m["factor.attempts"] += 1
            m["factor.attempt_s"] += self_s
            if note == "ok":
                ok += 1
            else:
                m[f"factor.breakdowns_{note}"] += 1
        elif name == "precision.quantize":
            f, size = note
            m[f"precision.{f}.quantize_calls"] += 1
            m[f"precision.{f}.quantize_elems"] += size
            m[f"precision.{f}.quantize_s"] += dur
        elif name == "trisolve.apply_preconditioner":
            if note == "overflow":
                m["trisolve.overflow_fallbacks"] += 1
                m["trisolve.native_low_applies"] += 1
                m["trisolve.native_low_s"] += dur
                continue
            mode, flops = note
            m[f"trisolve.{mode}_applies"] += 1
            m[f"trisolve.{mode}_s"] += dur
            m["trisolve.flops_computed"] += flops
        elif name in ("krylov.pcg", "krylov.gmres"):
            iterations, status = note
            m["krylov.iterations"] += iterations
            m["krylov.max_basis"] = max(m["krylov.max_basis"], iterations)
            m["krylov.self_s"] += self_s
            m["krylov.inner_not_converged"] += status != "converged"
        elif name == "sparse.matvec_f64":
            m["sparse.matvec_calls"] += 1
            m["sparse.matvec_s"] += dur
        elif name in ("refine.ic_krylov_ir", "refine.ic_lu_ir"):
            m["refine.outer_steps"] += note
            m["refine.self_s"] += self_s
    m["factor.success_ratio"] = ok / m["factor.attempts"] if m["factor.attempts"] else 0.0
    return m
