"""Outer iterative-refinement drivers.

ic_lu_ir corrects with plain forward/backward substitution (in the factor's
format when it is half-width); ic_krylov_ir corrects with preconditioned CG
or GMRES run in fp64.  Residuals and solution updates are always fp64.
Convergence is measured by the normwise backward error

    res = ||b - A x||_inf / (||A||_inf ||x||_inf + ||b||_inf).

A correction that overflows fp64, or divides by a zero pivot, ends the run
as diverged, without a warning.

Each driver's first vectors are computed once.  resinit is the backward
error of x_p = (L L^T)^-1 b, and its residual b - A x_p is also the first
residual of LU-IR, which starts from x_p.  Krylov-IR starts from x = 0,
whose residual is b bit for bit (matvec_f64 of zeros is +0 for a finite A),
so its first inner solve is given b, and the first preconditioner call of
that solve returns x_p when its argument has b's bits.  apply_preconditioner
and matvec_f64 are looked up as module globals at each call, so a wrapper
set on this module's attributes sees every apply and product made.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .factor import IcFactor
from .krylov import SMALL_CURVATURE, gmres, pcg
from .sparse import SparseSpd, inf_norm_matrix, inf_norm_vector, matvec_f64
from .trisolve import CAST_F64, NATIVE_LOW, OverflowSignal, apply_preconditioner

__all__ = [
    "DELTA_DEFAULT",
    "DELTA_KRYLOV_DEFAULT",
    "SolveReport",
    "backward_error",
    "ic_lu_ir",
    "ic_krylov_ir",
]

U64 = 2.0 ** -53
DELTA_DEFAULT = 1e3 * U64            # ~1.11e-13
DELTA_KRYLOV_DEFAULT = U64 ** 0.25   # ~1.03e-4
DIVERGENCE_THRESHOLD = 1e300


@dataclass
class SolveReport:
    resinit: float
    resfinal: float
    iouter: int               # refinement steps (correction solves) performed
    totits: int               # total inner Krylov iterations (0 for LU-IR)
    per_outer: list = field(default_factory=list)  # (inner count, status) per step
    converged: bool = False
    diverged: bool = False
    overflow_fallbacks: int = 0  # native_low applications retried in fp64
    solution: np.ndarray | None = None

    @property
    def maxbasis(self) -> int:
        return max((c for c, _ in self.per_outer), default=0)


def backward_error(A: SparseSpd, x: np.ndarray, b: np.ndarray,
                   normA: float | None = None, normb: float | None = None,
                   r: np.ndarray | None = None) -> float:
    """Normwise backward error, entirely in fp64.  Defined as 0 for b = x = 0."""
    if normA is None:
        normA = inf_norm_matrix(A)
    if normb is None:
        normb = inf_norm_vector(b)
    if r is None:
        r = b - matvec_f64(A, x)
    denom = normA * inf_norm_vector(x) + normb
    if denom == 0.0:
        return 0.0
    return inf_norm_vector(r) / denom


def _refine(A: SparseSpd, b: np.ndarray, xp: np.ndarray, from_zero: bool, correct,
            report: SolveReport, delta: float, itmax: int) -> SolveReport:
    """The outer loop of both drivers.

    resinit is the backward error of xp, the plain preconditioner solve; the
    loop starts from xp, or from 0 if from_zero, with xp's residual or b as
    the first.  Each step takes the fp64 residual and its backward error,
    and stops on convergence, divergence, after itmax corrections, or after
    a correction that correct(r) -> (dx, last) reported as the last.
    """
    normA = inf_norm_matrix(A)
    normb = inf_norm_vector(b)
    r = b - matvec_f64(A, xp)
    report.resinit = backward_error(A, xp, b, normA, normb, r=r)
    x, r = (np.zeros(A.n), b) if from_zero else (xp, r)
    last = False
    for i in range(itmax + 1):
        res = backward_error(A, x, b, normA, normb, r=r)
        report.resfinal = res
        report.iouter = i
        if res <= delta:
            report.converged = True
            break
        if not inf_norm_vector(r) < DIVERGENCE_THRESHOLD:   # NaN included
            report.diverged = True
            break
        if i == itmax or last:
            break
        dx, last = correct(r)
        x = x + dx
        r = b - matvec_f64(A, x)
    report.solution = x
    return report


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def ic_lu_ir(A: SparseSpd, b: np.ndarray, L: IcFactor,
             delta: float = DELTA_DEFAULT, itmax: int = 1000) -> SolveReport:
    """Iterative refinement with substitution-only corrections.

    Solves in the factor's format when it is half-width (native_low); an
    OverflowSignal falls back to a fp64 solve for that application and is
    counted.
    """
    b = np.asarray(b, dtype=np.float64)
    report = SolveReport(resinit=1.0, resfinal=1.0, iouter=0, totits=0)

    def solve(r):
        if L.format.half_width:
            try:
                return apply_preconditioner(L, r, NATIVE_LOW)
            except OverflowSignal:
                report.overflow_fallbacks += 1
        return apply_preconditioner(L, r, CAST_F64)

    return _refine(A, b, solve(b), False, lambda r: (solve(r), False), report, delta, itmax)


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def ic_krylov_ir(A: SparseSpd, b: np.ndarray, L: IcFactor, method: str = "cg",
                 delta: float = DELTA_DEFAULT,
                 delta_krylov: float = DELTA_KRYLOV_DEFAULT,
                 inner_maxit: int = 1000, itmax: int = 20) -> SolveReport:
    """Iterative refinement with a preconditioned Krylov inner solver.

    Preconditioning inside the inner solver is done in fp64 (cast_f64).
    resinit is the backward error of the pure preconditioner solve
    x_p = (L L^T)^-1 b.  The refinement starts from x = 0, so the first
    inner solve is given b and its first preconditioner call would compute
    x_p again: that one call returns x_p instead if its argument has b's
    bits (compared as integers, so that -0.0 and NaN payloads count).
    A small_curvature return from CG stops the outer loop, since further
    corrections from that solver are untrustworthy; a GMRES return at its
    iteration limit or its basis memory budget does not.
    """
    if method not in ("cg", "gmres"):
        raise ValueError(f"unknown inner method {method!r}")
    b = np.asarray(b, dtype=np.float64)
    xp = apply_preconditioner(L, b, CAST_F64)
    first = True

    def M(r):
        nonlocal first
        reuse = first and np.array_equal(r.view(np.uint64), b.view(np.uint64))
        first = False
        return xp if reuse else apply_preconditioner(L, r, CAST_F64)

    inner = pcg if method == "cg" else gmres
    report = SolveReport(resinit=1.0, resfinal=1.0, iouter=0, totits=0)

    def correct(r):
        out = inner(A, M, r, delta_krylov, inner_maxit)
        report.per_outer.append((out.iterations, out.status))
        report.totits += out.iterations
        return out.solution, out.status == SMALL_CURVATURE

    return _refine(A, b, xp, True, correct, report, delta, itmax)
