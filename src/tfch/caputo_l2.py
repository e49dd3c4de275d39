"""Discrete Caputo-derivative kernels on nonuniform meshes.

Implements the variable-step piecewise-quadratic (order 3-alpha) convolution
kernels c, d, B, their theta-split with residual kernels c_tilde, the
auxiliary J kernels whose monotonicity/convexity/dominance carry the energy
analysis, the step-ratio theory functions q/q2/q3 with the admissibility
threshold rho_star(alpha), and the discrete fractional derivative itself.

Kernel rows are recomputed per time level: O(n) work each, O(N^2) per run,
memory-light at desk scale. All operations are pure functions.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import gamma

from ._fmt import write_csv
from .temporal_mesh import RATIO_SLACK, TemporalMesh

__all__ = [
    "RHO_BAR",
    "KernelRow",
    "coeffs_cd",
    "theta",
    "kernel_row_B",
    "kernel_row_split",
    "kernel_row_J",
    "kernel_row",
    "apply_caputo",
    "solve_linear_fode",
    "q",
    "q2",
    "q3",
    "rho_star",
    "rho_bar",
    "truncation_bound",
    "write_kernel_row_csv",
    "write_rho_star_csv",
    "write_q3_csv",
]

# Fixed pivot ratio baked into theta, exactly as printed; rho_bar() recomputes
# the underlying fixed point but theta never consumes that output.
RHO_BAR = 4.7476114

# The second-difference kernel d is evaluated through G(eps) below, whose
# Taylor expansion at eps = 0 starts at eps^3. The series branch covers
# eps <= 0.25, where 34 terms put the tail under 1e-18 relative.
_SERIES_CUT = 0.25
_SERIES_TERMS = 34


def _check_alpha_open(alpha: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0,1)")


def _check_level(n: int, mesh: TemporalMesh) -> None:
    if not 1 <= n <= mesh.N:
        raise ValueError("level n=%r outside 1..%d" % (n, mesh.N))


def coeffs_cd(n: int, mesh: TemporalMesh, alpha: float):
    """First- and second-difference kernels (c, d) at level n.

    Entry j (0-based) of each returned row belongs to history interval
    k = j + 1 and carries subscript n-k, so row[-1] is the subscript-0
    coefficient of the most recent interval. With a = t_n - t_{k-1},
    b = t_n - t_k and tau = tau_k:

        c = (a^{1-alpha} - b^{1-alpha}) / (tau Gamma(2-alpha))
        d = 2 (a^{2-alpha} - b^{2-alpha}) / (tau^2 Gamma(3-alpha))
            - (a^{1-alpha} + b^{1-alpha}) / (tau Gamma(2-alpha))

    Both differences cancel catastrophically for tau << a (distant history on
    strongly graded meshes), so they are evaluated in subtraction-free form.
    Writing eps = tau/a and u = b/a = 1 - eps:

        c = a^{1-alpha} (-expm1((1-alpha) log1p(-eps))) / (tau Gamma(2-alpha))
        d = a^{2-alpha} G(eps) / (tau^2 Gamma(3-alpha)),
        G(eps) = alpha (1 - u^{2-alpha}) - (2-alpha) u (u^{-alpha} - 1).

    G's eps^1 and eps^2 Taylor terms vanish identically; for eps <= 0.25 it is
    summed as the series from eps^3 on, otherwise via expm1 of log1p products.
    Each kernel uses a single gamma constant: forms whose accuracy relies on
    Gamma(3-alpha) = (2-alpha) Gamma(2-alpha) holding at float level lose the
    cancellation battle again (fl(2.8) != 1 + fl(1.8) in binary).
    """
    _check_alpha_open(alpha)
    _check_level(n, mesh)
    nodes, steps = mesh.nodes, mesh.steps
    g2 = gamma(2.0 - alpha)
    g3 = gamma(3.0 - alpha)
    c = np.empty(n)
    d = np.empty(n)
    # Most recent interval (k = n): b = 0, so the powers collapse exactly.
    tau_n = steps[n - 1]
    c[n - 1] = tau_n ** -alpha / g2
    d[n - 1] = alpha * tau_n ** -alpha / g3
    if n == 1:
        return c, d

    a = nodes[n] - nodes[: n - 1]
    tau = steps[: n - 1]
    eps = tau / a                       # in (0,1) strictly for k < n
    p1 = 1.0 - alpha
    p2 = 2.0 - alpha
    lg = np.log1p(-eps)
    c[: n - 1] = a ** p1 * -np.expm1(p1 * lg) / (tau * g2)

    G = np.empty(n - 1)
    direct = eps > _SERIES_CUT
    if direct.any():
        u = 1.0 - eps[direct]
        ld = lg[direct]
        G[direct] = alpha * -np.expm1(p2 * ld) - p2 * u * np.expm1(-alpha * ld)
    ser = ~direct
    if ser.any():
        e = eps[ser]
        s = p2 * (1.0 - p2) / 2.0            # eps^2 coefficient of 1 - u^{2-alpha}
        R = alpha * (alpha + 1.0) / 2.0      # partial-sum state for the u-part
        acc = np.zeros_like(e)
        ek = e * e
        for k in range(3, _SERIES_TERMS + 1):
            s = s * ((k - 1) - p2) / k
            R_next = R * (alpha + k - 1) / k
            ek = ek * e
            acc += (alpha * s - p2 * (R_next - R)) * ek
            R = R_next
        G[ser] = acc
    d[: n - 1] = a ** p2 * G / (tau * tau * g3)
    return c, d


def theta(alpha: float) -> float:
    """Current-step weight of the kernel split.

    theta = 1/(2-alpha)
            + (2^{1-alpha} alpha^2 + alpha - 2 alpha^2) / (2 (2-alpha) (1+RHO_BAR)).

    Tends to 1/2 as alpha -> 0+ and equals 1 at alpha = 1.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0,1]")
    num = 2.0 ** (1.0 - alpha) * alpha * alpha + alpha - 2.0 * alpha * alpha
    return 1.0 / (2.0 - alpha) + num / (2.0 * (2.0 - alpha) * (1.0 + RHO_BAR))


def _assemble_B(n: int, c: np.ndarray, d: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Convolution kernels B from (c, d), built on the c_tilde entries.

    B agrees with c_tilde on every history interval k < n except for the
    rho_n^2 d_0 / (1+rho_n) correction at k = n-1; the current-step entry
    k = n has its own formula (theta enters only that entry of c_tilde).
    Subscript m maps to array index n - 1 - m; rho[k-1] is rho_k.
    """
    if n == 1:
        return c.copy()
    B = _assemble_ctilde(n, c, d, rho, 1.0)
    rho_n = rho[n - 1]
    B[n - 2] -= rho_n ** 2 / (1.0 + rho_n) * d[n - 1]
    B[n - 1] = c[n - 1] + d[n - 2] / (rho_n * (1.0 + rho_n)) \
        + rho_n / (1.0 + rho_n) * d[n - 1]
    return B


def _assemble_ctilde(n: int, c: np.ndarray, d: np.ndarray, rho: np.ndarray,
                     th: float) -> np.ndarray:
    """Residual kernels c_tilde of the theta split."""
    ct = np.empty(n)
    if n == 1:
        ct[0] = (1.0 - th) * c[0]
        return ct
    rho_n = rho[n - 1]
    ct[n - 1] = (1.0 - th) * c[n - 1] + d[n - 2] / (rho_n * (1.0 + rho_n))
    ct[0] = c[0] - d[0] / (1.0 + rho[1])
    if n >= 3:
        ks = np.arange(2, n)       # history intervals k = 2..n-1
        j = ks - 1
        ct[j] = c[j] + d[ks - 2] / (rho[ks - 1] * (1.0 + rho[ks - 1])) \
            - d[j] / (1.0 + rho[ks])
    return ct


def kernel_row_B(n: int, mesh: TemporalMesh, alpha: float) -> np.ndarray:
    """Convolution kernels B_{n-k}^{(n)}, ordered by interval k = 1..n."""
    c, d = coeffs_cd(n, mesh, alpha)
    return _assemble_B(n, c, d, mesh.ratios)


def kernel_row_split(n: int, mesh: TemporalMesh, alpha: float):
    """Theta-split of the level-n row: (leading, lagged, c_tilde row).

    The discrete derivative regroups as

        leading * dw^n - lagged * dw^{n-1} + sum_k c_tilde_{n-k} dw^k

    with leading = theta c_0 + rho_n d_0/(1+rho_n) and
    lagged = rho_n^2 d_0/(1+rho_n) (zero at n = 1, where no dw^0 exists).
    """
    c, d = coeffs_cd(n, mesh, alpha)
    th = theta(alpha)
    if n == 1:
        return th * c[0], 0.0, _assemble_ctilde(n, c, d, mesh.ratios, th)
    rho_n = mesh.ratios[n - 1]
    leading = th * c[n - 1] + rho_n / (1.0 + rho_n) * d[n - 1]
    lagged = rho_n ** 2 / (1.0 + rho_n) * d[n - 1]
    return leading, lagged, _assemble_ctilde(n, c, d, mesh.ratios, th)


def kernel_row_J(n: int, mesh: TemporalMesh, alpha: float) -> np.ndarray:
    """Auxiliary kernels: J_0 = 2 c_tilde_0, J_{n-k} = c_tilde_{n-k} otherwise."""
    c, d = coeffs_cd(n, mesh, alpha)
    J = _assemble_ctilde(n, c, d, mesh.ratios, theta(alpha))
    J[n - 1] *= 2.0
    return J


@dataclass(frozen=True, eq=False)
class KernelRow:
    """All level-n kernel rows, each ordered by history interval k = 1..n."""

    level: int
    theta: float
    c: np.ndarray
    d: np.ndarray
    B: np.ndarray
    c_tilde: np.ndarray
    J: np.ndarray


def kernel_row(n: int, mesh: TemporalMesh, alpha: float) -> KernelRow:
    """Bundle every kernel row at level n from a single (c, d) evaluation."""
    c, d = coeffs_cd(n, mesh, alpha)
    th = theta(alpha)
    ct = _assemble_ctilde(n, c, d, mesh.ratios, th)
    J = ct.copy()
    J[n - 1] *= 2.0
    return KernelRow(level=n, theta=th, c=c, d=d,
                     B=_assemble_B(n, c, d, mesh.ratios), c_tilde=ct, J=J)


def apply_caputo(history, mesh: TemporalMesh, alpha: float):
    """Discrete fractional derivative sum_{k=1}^{n} B_{n-k}^{(n)} (w^k - w^{k-1})
    at t_n, with n = len(history) - 1. Elementwise for vector-valued states.
    """
    states = np.stack([np.asarray(w, dtype=float) for w in history])
    n = len(states) - 1
    if n < 1:
        raise ValueError("history must contain at least two states")
    if n > mesh.N:
        raise ValueError("history has %d steps but mesh has %d" % (n, mesh.N))
    B = kernel_row_B(n, mesh, alpha)
    dw = np.diff(states, axis=0)
    out = np.tensordot(B, dw, axes=(0, 0))
    return float(out) if out.ndim == 0 else out


def solve_linear_fode(mesh: TemporalMesh, alpha: float, rhs, w0: float = 0.0) -> np.ndarray:
    """March the scalar problem (d/dt)^alpha w = rhs(t) with the B kernels.

    Each step solves B_0^{(n)} dw^n = rhs(t_n) - sum_{k<n} B_{n-k}^{(n)} dw^k.
    Returns w at all nodes (length N+1). This inversion of the discrete
    operator is the benchmark used by the convergence tables.
    """
    _check_alpha_open(alpha)
    N = mesh.N
    w = np.empty(N + 1)
    w[0] = w0
    dw = np.empty(N)
    for n in range(1, N + 1):
        B = kernel_row_B(n, mesh, alpha)
        acc = B[: n - 1] @ dw[: n - 1] if n > 1 else 0.0
        dw[n - 1] = (rhs(mesh.nodes[n]) - acc) / B[n - 1]
        w[n] = w[n - 1] + dw[n - 1]
    return w


def q(z, y, alpha: float):
    """Step-ratio margin 2 theta (2-alpha) + (2 alpha z - alpha z^{2-alpha/2})/(1+z)
    - alpha y^{2-alpha/2}/(1+y); positive on the admissible ratio square.

    Vectorized in z and y. Values below 1 - 1e-12 are outside the admissible
    range; evaluation proceeds but emits a warning.
    """
    z = np.asarray(z, dtype=float)
    y = np.asarray(y, dtype=float)
    if (z < 1.0 - RATIO_SLACK).any() or (y < 1.0 - RATIO_SLACK).any():
        warnings.warn("ratio below 1 is outside the admissible range",
                      RuntimeWarning, stacklevel=2)
    th = theta(alpha)
    p = 2.0 - 0.5 * alpha
    val = 2.0 * th * (2.0 - alpha) \
        + (2.0 * alpha * z - alpha * z ** p) / (1.0 + z) \
        - alpha * y ** p / (1.0 + y)
    return float(val) if val.ndim == 0 else val


def q2(rho, alpha: float):
    """(1+rho)/alpha + rho - rho^{2-alpha/2} + 2^{-alpha} alpha + 1/2 - alpha.

    Decreasing for large rho; its unique root above 1 is rho_star(alpha).
    """
    rho = np.asarray(rho, dtype=float)
    val = (1.0 + rho) / alpha + rho - rho ** (2.0 - 0.5 * alpha) \
        + 2.0 ** -alpha * alpha + 0.5 - alpha
    return float(val) if val.ndim == 0 else val


def q3(rho, alpha: float):
    """alpha ln rho - 2 (1 + rho - 2^{-alpha} alpha^2 + 2^{-alpha} alpha^3 ln 2
    + alpha^2) / (1 + rho + alpha rho + 2^{-alpha} alpha^2 + alpha/2 - alpha^2).

    Its zero along the rho_star root curve locates the step-ratio minimum.
    """
    rho = np.asarray(rho, dtype=float)
    ta = 2.0 ** -alpha
    num = 1.0 + rho - ta * alpha ** 2 + ta * alpha ** 3 * np.log(2.0) + alpha ** 2
    den = 1.0 + rho + alpha * rho + ta * alpha ** 2 + 0.5 * alpha - alpha ** 2
    val = alpha * np.log(rho) - 2.0 * num / den
    return float(val) if val.ndim == 0 else val


def rho_star(alpha: float) -> float:
    """Largest admissible step ratio: the unique root of q2(., alpha) above 1.

    Bisection on [1 + 1/alpha, 10 + 20/alpha] (the root is unique there: q2
    rises to an interior maximum left of the bracket and decreases after),
    then two Newton steps to push |q2| at the result below 1e-12.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0,1]")
    lo = 1.0 + 1.0 / alpha
    hi = 10.0 + 20.0 / alpha
    qlo, qhi = q2(lo, alpha), q2(hi, alpha)
    if not (qlo > 0.0 > qhi):
        raise ArithmeticError("q2 does not change sign on the bracket")
    while hi - lo > 1e-13 * hi:
        mid = 0.5 * (lo + hi)
        if q2(mid, alpha) > 0.0:
            lo = mid
        else:
            hi = mid
    r = 0.5 * (lo + hi)
    for _ in range(2):
        slope = 1.0 / alpha + 1.0 - (2.0 - 0.5 * alpha) * r ** (1.0 - 0.5 * alpha)
        r -= q2(r, alpha) / slope
    return float(r)


def _alpha_root_q3(rho: float) -> float:
    """Root of q3(rho, .) in alpha, bisected on (0,1)."""
    lo, hi = 1e-6, 1.0 - 1e-12
    flo, fhi = q3(rho, lo), q3(rho, hi)
    if not flo * fhi < 0.0:
        raise ArithmeticError("q3 does not change sign in alpha on (0,1)")
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if q3(rho, mid) * flo > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def rho_bar(tol: float = 1e-10, max_sweeps: int = 200):
    """Simultaneous root (rho, alpha) of q2 = 0 and q3 = 0.

    Alternates 1-D solves: rho follows the q2 root curve at the current alpha,
    then alpha is re-solved from q3 at that rho, until the pair moves less
    than tol componentwise. Lands on about (4.7476114, 0.82265), the minimum
    of the admissibility threshold over the order.
    """
    a = 0.8
    r = rho_star(a)
    for _ in range(max_sweeps):
        a_new = _alpha_root_q3(r)
        r_new = rho_star(a_new)
        if abs(a_new - a) < tol and abs(r_new - r) < tol:
            return r_new, a_new
        a, r = a_new, r_new
    raise ArithmeticError("alternating bisection for (rho, alpha) did not converge")


def truncation_bound(n: int, mesh: TemporalMesh, alpha: float,
                     m2: float, m3: float) -> float:
    """A priori bound on the level-n consistency error of the discrete derivative.

    m2 and m3 bound |w''| and |w'''| on [0, t_n]. The first step is controlled
    by the second derivative, later steps by the third.
    """
    if m2 < 0.0 or m3 < 0.0:
        raise ValueError("derivative bounds must be nonnegative")
    _check_level(n, mesh)
    _check_alpha_open(alpha)
    if n == 1:
        return alpha * m2 * mesh.steps[0] ** (2.0 - alpha) / (2.0 * gamma(3.0 - alpha))
    return (3.0 * alpha + 1.0) * m3 * mesh.tau_max ** (3.0 - alpha) \
        / (12.0 * gamma(2.0 - alpha))


def write_kernel_row_csv(n: int, mesh: TemporalMesh, alpha: float, target) -> None:
    """Emit `k,c,d,B,c_tilde,J` for the level-n kernel rows."""
    row = kernel_row(n, mesh, alpha)
    write_csv(target, "k,c,d,B,c_tilde,J",
              zip(range(1, n + 1), row.c, row.d, row.B, row.c_tilde, row.J))


def write_rho_star_csv(alphas, target) -> None:
    """Emit the admissibility threshold curve `alpha,rho_star`."""
    write_csv(target, "alpha,rho_star",
              ((float(a), rho_star(float(a))) for a in alphas))


def write_q3_csv(rhos, alphas, target) -> None:
    """Emit `rho,alpha,q3` over the grid of given ratios and orders."""
    write_csv(target, "rho,alpha,q3",
              ((float(r), float(a), q3(float(r), float(a)))
               for a in alphas for r in rhos))
