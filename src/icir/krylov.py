"""Inner correction solvers: preconditioned CG and non-restarted GMRES.

Both run entirely in fp64; the preconditioner is supplied as a callable
application M(r) ~= (L L^T)^-1 r.  Convergence is relative reduction of the
preconditioned residual norm.

GMRES keeps its per-iteration bookkeeping on Python floats: the new
Hessenberg column, the Givens cosines and sines and the rotated right-hand
side are lists, and the column is written into H once, for the final
triangular solve.  A Python float operation is the same IEEE double
operation as the NumPy scalar one, with no fused multiply-add, so the same
operations in the same order give the same bits (tests/oracles.py keeps the
NumPy-scalar version as gmres_reference); ||w|| is sqrt(w.w), which is what
np.linalg.norm computes for a 1-D float64 vector.

matvec_f64 is looked up as a module global on every call, not bound to a
local, so that a wrapper set on this module's attribute sees every product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sparse import SparseSpd, inf_norm_matrix, matvec_f64

__all__ = ["KrylovOutcome", "pcg", "gmres"]

CONVERGED = "converged"
MAX_ITERATIONS = "max_iterations"
SMALL_CURVATURE = "small_curvature"
STAGNATED = "stagnated"
MEMORY_BUDGET = "memory_budget"

# the largest GMRES basis V, in bytes: 512 MiB, which stops a 2,000-step
# solve at n = 80,800 after 512 steps (V alone would take about 1.3 GB)
V_BYTES = 2 ** 29


@dataclass
class KrylovOutcome:
    solution: np.ndarray
    iterations: int
    status: str


def pcg(A: SparseSpd, M, b: np.ndarray, tol: float, maxit: int) -> KrylovOutcome:
    """Preconditioned conjugate gradients from x0 = 0.

    Stops when sqrt(r.M r) drops below tol times its initial value.  A
    curvature guard returns small_curvature when p.Ap is no longer a
    trustworthy positive quantity, or when r.M r is negative or NaN.
    """
    b = np.asarray(b, dtype=np.float64)
    n = A.n
    x = np.zeros(n)
    if not np.any(b):
        return KrylovOutcome(x, 0, CONVERGED)
    tiny = 1e2 * 2.0 ** -53 * inf_norm_matrix(A)
    r = b.copy()
    z = M(r)
    rz = float(np.dot(r, z))
    if rz <= 0.0:
        return KrylovOutcome(x, 0, SMALL_CURVATURE)
    target = tol * math.sqrt(rz)
    p = z.copy()
    for it in range(1, maxit + 1):
        Ap = matvec_f64(A, p)
        pAp = float(np.dot(p, Ap))
        if pAp <= tiny * float(np.dot(p, p)):
            return KrylovOutcome(x, it - 1, SMALL_CURVATURE)
        alpha = rz / pAp
        x += alpha * p
        r -= alpha * Ap
        z = M(r)
        rz_new = float(np.dot(r, z))
        if not rz_new >= 0.0:   # NaN included
            return KrylovOutcome(x, it, SMALL_CURVATURE)
        if math.sqrt(rz_new) <= target:
            return KrylovOutcome(x, it, CONVERGED)
        beta = rz_new / rz
        rz = rz_new
        p = z + beta * p
    return KrylovOutcome(x, maxit, MAX_ITERATIONS)


def gmres(A: SparseSpd, M, b: np.ndarray, tol: float, maxit: int) -> KrylovOutcome:
    """Left-preconditioned GMRES with modified Gram-Schmidt Arnoldi, no restarting.

    iterations = Krylov basis size used.  Happy breakdown (exact solution in
    the current space) reports converged; a residual estimate that is NaN or
    infinite reports stagnated, with the non-finite solution of that basis.
    A basis that would grow V past V_BYTES reports memory_budget, with the
    solution of the basis it has.
    """
    b = np.asarray(b, dtype=np.float64)
    n = A.n
    x = np.zeros(n)
    if not np.any(b):
        return KrylovOutcome(x, 0, CONVERGED)
    r0 = M(b)
    beta = math.sqrt(r0.dot(r0))
    if beta == 0.0:
        return KrylovOutcome(x, 0, CONVERGED)
    target = tol * beta
    maxit = min(maxit, n)
    m = min(maxit, 32)  # storage for m iterations, grown on demand
    V = np.zeros((m + 1, n))
    H = np.zeros((m + 1, m))
    cs, sn, g = [], [], [beta]
    V[0] = r0 / beta
    rows = list(V)

    def solve_and_pack(k, status):
        # back-substitute the k x k triangular system H y = g
        y = np.zeros(k)
        for i in range(k - 1, -1, -1):
            y[i] = (g[i] - np.dot(H[i, i + 1:k], y[i + 1:k])) / H[i, i]
        return KrylovOutcome(V[:k].T @ y, k, status)

    for k in range(maxit):
        if k == m:  # zeros for e more iterations
            e = min(maxit, 2 * m) - m
            if (m + e + 1) * n * V.itemsize > V_BYTES:
                return solve_and_pack(k, MEMORY_BUDGET)
            m += e
            V, H = np.pad(V, ((0, e), (0, 0))), np.pad(H, (0, e))
            rows = list(V)
        w = M(matvec_f64(A, rows[k]))
        col = []
        for v in rows[:k + 1]:
            c = float(v.dot(w))
            w -= c * v
            col.append(c)
        h = math.sqrt(w.dot(w))
        # previously accumulated Givens rotations; rotation i takes entry i
        # as rotation i - 1 left it (a) and entry i + 1 as it came
        a = col[0]
        for i, c in enumerate(col[1:]):
            col[i] = cs[i] * a + sn[i] * c
            a = -sn[i] * a + cs[i] * c
        denom = math.hypot(a, h)
        if denom == 0.0:
            return solve_and_pack(k, STAGNATED)
        cs.append(a / denom)
        sn.append(h / denom)
        col[k] = denom
        H[:k + 1, k] = col
        g.append(-sn[k] * g[k])
        g[k] = cs[k] * g[k]
        if abs(g[k + 1]) <= target or h == 0.0:
            return solve_and_pack(k + 1, CONVERGED)
        if not abs(g[k + 1]) < math.inf:   # NaN included; the caller sees it in x
            return solve_and_pack(k + 1, STAGNATED)
        if k + 1 < maxit:
            np.divide(w, h, out=rows[k + 1])
    return solve_and_pack(maxit, MAX_ITERATIONS)
