"""Fourth-order compact spatial operators on the unit interval.

Grid functions live on x_i = i h, i = 0..M, h = 1/M, with zero Dirichlet
values pinned at both ends. The compact average A = tridiag(1,10,1)/12 and the
second difference D = tridiag(1,-2,1)/h^2 act on interior points; together
H = A^{-1} D approximates the Laplacian to fourth order. A and D share
eigenvectors (A = I + (h^2/12) D), so -H^{-1} is symmetric positive definite
and induces the negative-order inner product used by the energy estimates.

A and D are symmetric Toeplitz tridiagonal, so the orthonormal DST-I (the
sine basis sin(k pi i / M)) diagonalises both exactly. Every inverse goes
through that one basis: transform, divide by the eigenvalues, transform back.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.fft import dst

__all__ = [
    "GridFunction",
    "sample",
    "apply_A",
    "apply_A_inv",
    "apply_dxx",
    "apply_H",
    "apply_negH_inv",
    "a_matrix",
    "dxx_matrix",
    "inner",
    "quad_negH",
    "norm_l2",
]


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Values on the closed grid of the unit interval, endpoints included.

    values has length M+1, so h = 1/M; boundary entries are carried verbatim
    (the operators treat them as pinned). eq is disabled: ndarray equality
    is elementwise and would poison hashing/comparison semantics.
    """

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or v.size < 2:
            raise ValueError("values must be a 1-D array of at least 2 nodes")
        object.__setattr__(self, "values", v)

    @property
    def M(self) -> int:
        return self.values.size - 1

    @property
    def h(self) -> float:
        return 1.0 / self.M

    @property
    def domain(self) -> tuple:
        return (0.0, 1.0)

    def interior(self) -> np.ndarray:
        return self.values[1:-1]

    def __array__(self, dtype=None):
        return np.asarray(self.values, dtype=dtype)


def sample(fn, M: int) -> GridFunction:
    """Evaluate fn on the M+1 uniform nodes of the unit interval."""
    if M < 2:
        raise ValueError("M must be at least 2")
    x = np.linspace(0.0, 1.0, M + 1)
    return GridFunction(values=np.asarray(fn(x), dtype=float))


def _interior(u) -> tuple[np.ndarray, float]:
    """Interior values and mesh width of a GridFunction; TypeError otherwise."""
    if isinstance(u, GridFunction):
        return u.values[1:-1], u.h
    raise TypeError("expected a GridFunction")


def _sine(v: np.ndarray) -> np.ndarray:
    """Orthonormal DST-I along the last axis of v; it is its own inverse."""
    return dst(v, type=1, norm="ortho")


def _tridiag_eigs(off: float, diag: float, m: int) -> np.ndarray:
    """Eigenvalues of the m x m matrix tridiag(off, diag, off), in the order
    of _sine's coefficients k = 1..m.

    They are written (diag + 2 off) - 4 off sin^2(k pi / 2(m+1)) rather than
    diag + 2 off cos(k pi / (m+1)): for the second difference the first term
    is zero, and the cosine form would lose the small eigenvalues to
    cancellation (4.2e-12 relative on the smallest at m+1 = 1024).
    """
    s = np.sin(np.arange(1, m + 1) * (0.5 * np.pi / (m + 1)))
    return (diag + 2.0 * off) - 4.0 * off * (s * s)


def _solve_tridiag(off: float, diag: float, rhs: np.ndarray) -> np.ndarray:
    """Solve tridiag(off, diag, off) x = rhs along the last axis of rhs."""
    return _sine(_sine(rhs) / _tridiag_eigs(off, diag, rhs.shape[-1]))


def _neg_h_inv_eigs(M: int) -> np.ndarray:
    """Eigenvalues of (-H)^{-1} = -D^{-1} A on M intervals, in _sine's order."""
    h = 1.0 / M
    m = M - 1
    return -(h * h) * _tridiag_eigs(1.0 / 12.0, 10.0 / 12.0, m) \
        / _tridiag_eigs(1.0, -2.0, m)


def _average(full: np.ndarray) -> np.ndarray:
    """(f_{i-1} + 10 f_i + f_{i+1})/12 inside full, along its last axis."""
    return (full[..., :-2] + 10.0 * full[..., 1:-1] + full[..., 2:]) / 12.0


def _neg_h_inv(full: np.ndarray, h: float) -> np.ndarray:
    """Interior values of (-H)^{-1} applied along the last axis of full.

    full holds grid values with the two boundary values included; the result
    solves D w = -(A v) with D at unit scale, tridiag(1,-2,1) w = -h^2 A v.
    """
    return _solve_tridiag(1.0, -2.0, -_average(full) * h * h)


def apply_A(u: GridFunction) -> GridFunction:
    """Compact average: (u_{i-1} + 10 u_i + u_{i+1})/12 inside, boundary kept."""
    _interior(u)  # TypeError unless u is a GridFunction
    res = np.array(u.values, copy=True)
    res[1:-1] = _average(u.values)
    return GridFunction(values=res)


def apply_A_inv(u: GridFunction) -> GridFunction:
    """Inverse of the compact average on interior values, boundary kept."""
    v, _ = _interior(u)
    res = np.array(u.values, copy=True)
    res[1:-1] = _solve_tridiag(1.0 / 12.0, 10.0 / 12.0, v)
    return GridFunction(values=res)


def apply_dxx(u: GridFunction) -> GridFunction:
    """Second difference (u_{i-1} - 2 u_i + u_{i+1})/h^2, zero at the ends."""
    v, h = _interior(u)
    full = u.values
    out = (full[:-2] - 2.0 * v + full[2:]) / (h * h)
    return GridFunction(values=np.pad(out, 1))


def apply_H(u: GridFunction) -> GridFunction:
    """Compact Laplacian H u = A^{-1} (D u)."""
    return apply_A_inv(apply_dxx(u))


def apply_negH_inv(u: GridFunction) -> GridFunction:
    """Solve -H w = u, i.e. D w = -(A u), with zero boundary."""
    _, h = _interior(u)
    return GridFunction(values=np.pad(_neg_h_inv(u.values, h), 1))


def a_matrix(M: int) -> np.ndarray:
    """Dense interior matrix of the compact average ((M-1) x (M-1))."""
    m = M - 1
    A = np.eye(m) * (10.0 / 12.0)
    idx = np.arange(m - 1)
    A[idx, idx + 1] = 1.0 / 12.0
    A[idx + 1, idx] = 1.0 / 12.0
    return A


def dxx_matrix(M: int, h: float) -> np.ndarray:
    """Dense interior matrix of the second difference ((M-1) x (M-1))."""
    m = M - 1
    D = np.eye(m) * (-2.0 / (h * h))
    idx = np.arange(m - 1)
    D[idx, idx + 1] = 1.0 / (h * h)
    D[idx + 1, idx] = 1.0 / (h * h)
    return D


def inner(u: GridFunction, v: GridFunction) -> float:
    """Discrete L2 pairing h * sum over interior nodes."""
    if u.values.size != v.values.size:
        raise ValueError("grid functions live on different grids")
    return float(u.h * np.dot(u.interior(), v.interior()))


def norm_l2(u: GridFunction) -> float:
    return float(np.sqrt(max(inner(u, u), 0.0)))


def quad_negH(u: GridFunction) -> float:
    """Quadratic form (-H u, u)."""
    w = apply_H(u)
    return -inner(w, u)
