"""Fourth-order compact spatial operators on the unit interval.

The grid is x_i = i h, i = 0..M, h = 1/M, with zero Dirichlet values pinned
at both ends. Every operator takes the interior values u_1..u_{M-1} as an
array and acts along its last axis, so one call serves a single state or a
whole (N+1, M-1) run; h is read from that axis's length m as 1/(m+1). The
compact average A = tridiag(1,10,1)/12 and the second difference
D = tridiag(1,-2,1)/h^2 together give H = A^{-1} D, a fourth-order
Laplacian. A and D share eigenvectors (A = I + (h^2/12) D), so -H^{-1} is
symmetric positive definite and induces the negative-order inner product
used by the energy estimates.

A's and D's (off, diag) entries are named once, below. The dense matrices,
the eigenvalues, the inverses and the package's one three-point stencil,
_stencil (apply_A, apply_dxx and tfch_solver's march, which calls its
entry point on views sliced once, _stencil_views), are built from them.

A and D are symmetric Toeplitz tridiagonal, so the orthonormal DST-I (the
sine basis sin(k pi i / M)) diagonalises both exactly. Every inverse goes
through that one basis: transform, divide by the eigenvalues, transform back.
The operators that go through it (apply_A_inv, apply_H, apply_negH_inv and
quad_negH) compute in float64 whatever real dtype they are given, and raise
ValueError on complex values.
"""

from __future__ import annotations

import numpy as np

__all__ = [
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


def _width(u: np.ndarray) -> float:
    """Mesh width h = 1/M of interior values u, M-1 along the last axis."""
    return 1.0 / (u.shape[-1] + 1)


def _pad(u: np.ndarray) -> np.ndarray:
    """u with the zero boundary value added at both ends of its last axis."""
    return np.pad(u, [(0, 0)] * (u.ndim - 1) + [(1, 1)])


# (off, diag) of A = tridiag(1, 10, 1)/12 and of h^2 D = tridiag(1, -2, 1)
_A_ENTRIES = (1.0 / 12.0, 10.0 / 12.0)
_D_ENTRIES = (1.0, -2.0)


def _dxx_entries(h: float) -> tuple:
    """(off, diag) of D = tridiag(1, -2, 1)/h^2 at mesh width h."""
    return tuple(e / (h * h) for e in _D_ENTRIES)


def _stencil(entries: tuple, full: np.ndarray, out: np.ndarray = None,
             tmp: np.ndarray = None) -> np.ndarray:
    """tridiag(off, diag, off) v for entries = (off, diag), along the last
    axis of full = [v_0, v, v_{m+1}], whose ends are v's boundary neighbours,
    into out (allocated in np.result_type(full, off) if None); tmp, of out's
    shape, is overwritten.

    Each entry is fl(fl(off v_{i-1}) + fl(off v_{i+1})) + fl(diag v_i). Of
    the three orders of the sum, this one gives OpenBLAS dgemv's bits with
    the dense matrix T most often: on 98.4 % of entries on the coarsening
    benchmark (seed 1) and 99.1 % on run-energy's physics at N = 200,
    against 53 % for either order that adds the diagonal term first; the
    rest differ by at most 1.1 ulp of (|T| |v|)_i. With zero ends, an edge
    node whose value and inner neighbour are both -0.0 comes out +0.0.
    """
    if out is None:
        out = np.empty_like(full[..., 1:-1], np.result_type(full, entries[0]))
    return _stencil_views(entries, full[..., :-2], full[..., 1:-1],
                          full[..., 2:], out, tmp)


def _stencil_views(entries: tuple, left: np.ndarray, mid: np.ndarray,
                   right: np.ndarray, out: np.ndarray,
                   tmp: np.ndarray = None) -> np.ndarray:
    """_stencil on full's three views left, mid, right = full[..., :-2],
    full[..., 1:-1], full[..., 2:], into out; tmp, of out's shape, is
    overwritten. A caller that applies stencils to one buffer many times
    slices it once and calls this; the summation order is written here
    only.
    """
    off, diag = entries
    np.multiply(left, off, out=out)
    out += np.multiply(right, off, out=tmp)
    out += np.multiply(mid, diag, out=tmp)
    return out


def _dense(entries: tuple, m: int) -> np.ndarray:
    """The m x m matrix tridiag(off, diag, off) for entries = (off, diag)."""
    off, diag = entries
    T = np.eye(m) * diag
    idx = np.arange(m - 1)
    T[idx, idx + 1] = T[idx + 1, idx] = off
    return T


# Entries of the odd extensions that _sine transforms per chunk of rows: a
# fixed workspace (256 KiB, and about as much for their spectra) whatever
# the number of rows.
_SINE_WORK = 1 << 15


def _sine(v: np.ndarray, overwrite: bool = False) -> np.ndarray:
    """Orthonormal DST-I along the last axis of v; it is its own inverse.

    The DST-I of v_1..v_m is, up to sign and scale, the imaginary part of
    the real FFT of its odd extension [0, v, 0, -v reversed], of length
    n = 2(m+1): y_k = -Im(X_k) / sqrt(n), k = 1..m. This is how pocketfft
    computes its DST-I, and with the factor 1/sqrt(n) rounded from long
    double as pocketfft rounds it, the result is bitwise that of
    scipy.fft.dst(v, type=1, norm="ortho") (numpy's own "ortho" factor
    differs in the last bit when m+1 is a power of two). Rows go through
    the FFT a chunk at a time, in a workspace of _SINE_WORK entries.

    v of any real dtype is transformed in float64; complex v is a
    ValueError. With overwrite, a C-contiguous float64 v receives the result
    in its own buffer and is returned: pass it only for a v that nothing
    reads afterwards.
    """
    if np.iscomplexobj(v):
        raise ValueError("the sine basis takes real values, got %s" % v.dtype)
    m = v.shape[-1]
    n = 2 * (m + 1)
    scale = -np.float64(1.0 / np.sqrt(np.longdouble(n)))
    in_place = overwrite and v.dtype == np.float64 and v.flags.c_contiguous
    out = v if in_place else np.empty(v.shape)
    rows, rows_out = v.reshape(-1, m), out.reshape(-1, m)
    chunk = max(1, min(_SINE_WORK // n, len(rows)))
    ext = np.zeros((chunk, n))  # columns 0 and m+1 stay zero
    spec = np.empty((chunk, m + 2), dtype=np.complex128)
    for s in range(0, len(rows), chunk):
        block = rows[s:s + chunk]
        r = len(block)
        ext[:r, 1:m + 1] = block
        np.negative(block[:, ::-1], out=ext[:r, m + 2:])
        np.fft.rfft(ext[:r], out=spec[:r])
        np.multiply(spec.imag[:r, 1:m + 1], scale, out=rows_out[s:s + r])
    return out


def _sine_matrix(out: np.ndarray) -> np.ndarray:
    """The m x m matrix of _sine, S_jk = sqrt(2/(m+1)) sin(pi j k / (m+1))
    for j, k = 1..m, written into out and returned; S is symmetric and its
    own inverse.

    j k is reduced modulo 2(m+1) before scaling (exact in float64), so each
    sine is taken of an angle in [0, 2 pi) rather than one up to pi m.
    """
    m = out.shape[-1]
    k = np.arange(1.0, m + 1)
    np.multiply.outer(k, k, out=out)
    np.fmod(out, 2.0 * (m + 1), out=out)
    out *= np.pi / (m + 1)
    np.sin(out, out=out)
    out *= np.sqrt(2.0 / (m + 1))
    return out


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
    return -(h * h) * _tridiag_eigs(*_A_ENTRIES, m) \
        / _tridiag_eigs(*_D_ENTRIES, m)


def apply_A(u: np.ndarray) -> np.ndarray:
    """Compact average (u_{i-1} + 10 u_i + u_{i+1})/12."""
    return _stencil(_A_ENTRIES, _pad(u))


def apply_A_inv(u: np.ndarray) -> np.ndarray:
    """Inverse of the compact average, in float64."""
    return _solve_tridiag(*_A_ENTRIES, u)


def apply_dxx(u: np.ndarray) -> np.ndarray:
    """Second difference (u_{i-1} - 2 u_i + u_{i+1})/h^2."""
    return _stencil(_dxx_entries(_width(u)), _pad(u))


def apply_H(u: np.ndarray) -> np.ndarray:
    """Compact Laplacian H u = A^{-1} (D u), in float64."""
    return apply_A_inv(apply_dxx(u))


def apply_negH_inv(u: np.ndarray) -> np.ndarray:
    """Solve -H w = u, i.e. D w = -(A u); at unit scale,
    tridiag(1,-2,1) w = -h^2 A u. w is float64."""
    h = _width(u)
    return _solve_tridiag(*_D_ENTRIES, -apply_A(u) * h * h)


def a_matrix(M: int) -> np.ndarray:
    """Dense interior matrix of the compact average ((M-1) x (M-1))."""
    return _dense(_A_ENTRIES, M - 1)


def dxx_matrix(M: int) -> np.ndarray:
    """Dense interior matrix of the second difference ((M-1) x (M-1)), with
    h = 1/M."""
    return _dense(_dxx_entries(1.0 / M), M - 1)


def inner(u: np.ndarray, v: np.ndarray):
    """Discrete L2 pairing h sum_i u_i v_i; ValueError on different grids."""
    return _width(u) * np.vecdot(u, v)


def norm_l2(u: np.ndarray):
    return np.sqrt(np.maximum(inner(u, u), 0.0))


def quad_negH(u: np.ndarray):
    """Quadratic form (-H u, u) = h sum_k y_k^2 / lam_k, with y = S u the
    sine coefficients (in float64) and lam the eigenvalues of (-H)^{-1}."""
    y = _sine(u)
    lam = _neg_h_inv_eigs(u.shape[-1] + 1)
    return _width(u) * np.einsum("...j,...j,j->...", y, y, 1.0 / lam)
