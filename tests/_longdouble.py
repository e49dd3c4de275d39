"""The lagged-cubic sweep of tfch_solver.solve's scheme, in np.longdouble.

A test oracle for solve's accuracy: the same scheme, kernel rows, initial
data, source and stop rule, with A, D, K, every right-hand side and every LU
solve in extended precision. Each level factors its step matrix B_0 A + K and
each sweep solves it, where solve corrects the sweep's residual in the sine
basis; the two maps agree in exact arithmetic. The LU (partial pivoting) and
the triangular solves are numpy loops, not LAPACK, so nothing here shares
rounding with solve's float64 work. Where np.longdouble is no wider than
float64 the result is only another float64 run, not a reference.

x86-64 longdouble arithmetic is slow: the coarsening workload's M=128,
N=1000 run takes about 25 s on a 2-vCPU host.
"""

from __future__ import annotations

import numpy as np

from tfch.caputo_l2 import kernel_rows
from tfch.tfch_solver import (NonconvergenceError, SolverConfig,
                              _initial_values, _source_values)

__all__ = ["longdouble_sweep"]

_LD = np.longdouble


def _tridiag(m: int, off, diag) -> np.ndarray:
    T = np.zeros((m, m), dtype=_LD)
    idx = np.arange(m)
    T[idx, idx] = diag
    T[idx[:-1], idx[1:]] = off
    T[idx[1:], idx[:-1]] = off
    return T


def _lu(a: np.ndarray):
    """Row-pivoted LU of a square matrix: (packed L\\U, row permutation)."""
    lu = a.copy()
    m = lu.shape[0]
    perm = np.arange(m)
    for k in range(m - 1):
        p = k + int(np.argmax(np.abs(lu[k:, k])))
        if p != k:
            lu[[k, p]] = lu[[p, k]]
            perm[[k, p]] = perm[[p, k]]
        lu[k + 1:, k] /= lu[k, k]
        lu[k + 1:, k + 1:] -= np.outer(lu[k + 1:, k], lu[k, k + 1:])
    return lu, perm


def _lu_solve(lu: np.ndarray, perm: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x with a x = b, from _lu(a); b is a vector or a matrix."""
    x = b[perm]
    m = lu.shape[0]
    for i in range(1, m):
        x[i] -= lu[i, :i] @ x[:i]
    for i in range(m - 1, -1, -1):
        x[i] = (x[i] - lu[i, i + 1:] @ x[i + 1:]) / lu[i, i]
    return x


def longdouble_sweep(config: SolverConfig) -> np.ndarray:
    """Interior states U[0..N] of solve's scheme, as an (N+1, M-1) longdouble
    array. Validators are left out; raises NonconvergenceError like solve."""
    mesh, M = config.mesh, config.M
    x_full = np.linspace(0.0, 1.0, M + 1)
    kappa, eps = _LD(config.kappa), _LD(config.epsilon)
    h = _LD(1) / M
    m = M - 1
    A = _tridiag(m, _LD(1) / 12, _LD(10) / 12)
    D = _tridiag(m, 1 / (h * h), -2 / (h * h))
    K = kappa * D + kappa * eps ** 2 * (D @ _lu_solve(*_lu(A), D))

    u0 = _initial_values(config, x_full)
    U = np.empty((mesh.N + 1, m), dtype=_LD)
    U[0] = u0[1:-1]
    dU = np.empty((mesh.N, m), dtype=_LD)
    for row in kernel_rows(mesh, config.alpha):
        n = row.level
        B = row.B.astype(_LD)
        B0 = B[n - 1]
        hist = B[: n - 1] @ dU[: n - 1] if n > 1 else _LD(0)
        g = _source_values(config, x_full, mesh.nodes[n]).astype(_LD)
        ag = (g[:-2] + 10 * g[1:-1] + g[2:]) / 12
        const = A @ (B0 * U[n - 1] - hist) + ag
        lu, perm = _lu(B0 * A + K)
        u_s = U[n - 1]
        for _ in range(config.max_iterations):
            u_next = _lu_solve(lu, perm, kappa * (D @ u_s ** 3) + const)
            res = float(np.max(np.abs(u_next - u_s)))
            u_s = u_next
            if res <= config.iteration_tol:
                break
        else:
            raise NonconvergenceError(n, res, config.max_iterations)
        U[n] = u_s
        dU[n - 1] = U[n] - U[n - 1]
    return U
