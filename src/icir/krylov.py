"""Inner correction solvers: preconditioned CG and non-restarted GMRES.

Both run entirely in fp64; the preconditioner is supplied as a callable
application M(r) ~= (L L^T)^-1 r.  Convergence is relative reduction of the
preconditioned residual norm.
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
    """
    b = np.asarray(b, dtype=np.float64)
    n = A.n
    x = np.zeros(n)
    if not np.any(b):
        return KrylovOutcome(x, 0, CONVERGED)
    r0 = M(b)
    beta = float(np.linalg.norm(r0))
    if beta == 0.0:
        return KrylovOutcome(x, 0, CONVERGED)
    target = tol * beta
    maxit = min(maxit, n)
    m = min(maxit, 32)  # storage for m iterations, grown on demand
    V = np.zeros((m + 1, n))
    H = np.zeros((m + 1, m))
    cs = np.zeros(m)
    sn = np.zeros(m)
    g = np.zeros(m + 1)
    g[0] = beta
    V[0] = r0 / beta

    def solve_and_pack(k, status):
        # back-substitute the k x k triangular system H y = g
        y = np.zeros(k)
        for i in range(k - 1, -1, -1):
            y[i] = (g[i] - np.dot(H[i, i + 1:k], y[i + 1:k])) / H[i, i]
        return KrylovOutcome(V[:k].T @ y, k, status)

    for k in range(maxit):
        if k == m:  # zeros for e more iterations
            e = min(maxit, 2 * m) - m
            m += e
            V, H = np.pad(V, ((0, e), (0, 0))), np.pad(H, (0, e))
            cs, sn, g = np.pad(cs, (0, e)), np.pad(sn, (0, e)), np.pad(g, (0, e))
        w = M(matvec_f64(A, V[k]))
        for i in range(k + 1):
            H[i, k] = np.dot(V[i], w)
            w -= H[i, k] * V[i]
        h = float(np.linalg.norm(w))
        H[k + 1, k] = h
        # previously accumulated Givens rotations
        for i in range(k):
            t = cs[i] * H[i, k] + sn[i] * H[i + 1, k]
            H[i + 1, k] = -sn[i] * H[i, k] + cs[i] * H[i + 1, k]
            H[i, k] = t
        denom = math.hypot(H[k, k], H[k + 1, k])
        if denom == 0.0:
            return solve_and_pack(k, STAGNATED)
        cs[k] = H[k, k] / denom
        sn[k] = H[k + 1, k] / denom
        H[k, k] = denom
        H[k + 1, k] = 0.0
        g[k + 1] = -sn[k] * g[k]
        g[k] = cs[k] * g[k]
        if abs(g[k + 1]) <= target or h == 0.0:
            return solve_and_pack(k + 1, CONVERGED)
        if not abs(g[k + 1]) < math.inf:   # NaN included; the caller sees it in x
            return solve_and_pack(k + 1, STAGNATED)
        if k + 1 < maxit:
            V[k + 1] = w / h
    return solve_and_pack(maxit, MAX_ITERATIONS)
