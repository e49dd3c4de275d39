"""Discrete Caputo-derivative kernels on nonuniform meshes.

Implements the variable-step piecewise-quadratic (order 3-alpha) convolution
kernels c, d, B, their theta-split into leading, lagged and residual kernels
c_tilde, the auxiliary J kernels whose monotonicity/convexity/dominance carry
the energy analysis, the step-ratio theory functions q/q2/q3 with the
admissibility threshold rho_star(alpha), and the discrete fractional
derivative itself.

Every kernel row comes from one block evaluator, _block: it lays the entries
of a range of consecutive levels end to end and computes c and d, then
c_tilde, B and J, entry by entry over the whole block. kernel_rows walks all
levels in blocks sized by their number of entries; kernel_row is a block of
one level, and coeffs_cd, kernel_row_B and kernel_row_J are views of it. The
theta-split is a KernelRow's leading, lagged and c_tilde fields. Row arrays
are read-only views into their block's arrays; leading and lagged are
np.float64 at every level. O(n) work per row, O(N^2) per run, with memory
bounded by the block size. All operations are pure functions.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from ._fmt import write_csv
from ._gamma import gamma
from .temporal_mesh import RATIO_SLACK, TemporalMesh, _is_integer

__all__ = [
    "RHO_BAR",
    "KernelRow",
    "coeffs_cd",
    "theta",
    "kernel_row_B",
    "kernel_row_J",
    "kernel_row",
    "kernel_rows",
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
# the underlying minimum of rho_star but theta never consumes that output.
RHO_BAR = 4.7476114

# The smallest alpha rho_star takes. At the bracket bottom 1 + 1/alpha, q2
# is about 1/alpha, the difference of terms near 1/alpha^2, so its rounding
# error grows as alpha falls: against 200-bit q2 it reached 0.2 of q2 in
# [1e-15, 1e-14] and 2.1 in [1e-17, 1e-16], where the sign test fails on
# some alpha up to about 1.1e-16. None of 8000 in [1e-15, 1e-12] fails.
_RHO_STAR_ALPHA_MIN = 1e-15

# The second-difference kernel d is evaluated through G(eps) below, whose
# Taylor expansion at eps = 0 starts at eps^3. The series branch covers
# eps <= 0.25 in bins (eps bound, last term k): an entry sums the terms
# k = 3..last of the first bin whose bound it does not exceed. Rounding to
# nearest leaves a partial sum unchanged when a term is below 2^-55 (2.8e-17)
# of it, and the terms decrease, so every term past a bin's last would round
# away: at eps = bound, for alpha from 1e-6 to 1 - 1e-6, the first of them is
# at most 4.9e-25 (eps <= 1e-3), 3.9e-23 (eps <= 1e-2) and 6.8e-21
# (eps <= 0.25) of the partial sum. On 4e5 eps per bin at 21 alphas in
# (0, 1), the shortest sums bitwise equal to 34 terms end at k = 8 and 10;
# the first two bins keep 2 and 3 terms more.
_SERIES_BINS = ((1e-3, 10), (1e-2, 13), (0.25, 34))
_SERIES_CUT = _SERIES_BINS[-1][0]

# History entries per block in kernel_rows. A block costs a fixed number of
# numpy calls whatever its length, so short rows are batched; 8192 entries
# keep its temporaries near 1.0 MiB by tracemalloc on a graded N = 1000
# mesh (64-level blocks grew the peak resident set of a 1000-level run by
# ~5 MiB).
_BLOCK_ENTRIES = 8192


def _check_alpha_open(alpha: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0,1)")


def _check_level(n: int, mesh: TemporalMesh) -> None:
    if not _is_integer(n):
        raise ValueError("level n=%r is not an integer" % (n,))
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
    The series stops where later terms cannot change a bit: at eps^10 for
    eps <= 1e-3, at eps^13 for eps <= 1e-2, at eps^34 up to 0.25. At each
    bin's bound the first term left out is at most 4.9e-25, 3.9e-23 and
    6.8e-21 of the partial sum, below the 2^-55 of it that rounding to nearest
    would need to move the sum, and the terms decrease.
    Each kernel uses a single gamma constant: forms whose accuracy relies on
    Gamma(3-alpha) = (2-alpha) Gamma(2-alpha) holding at float level lose the
    cancellation battle again (fl(2.8) != 1 + fl(1.8) in binary).
    """
    row = kernel_row(n, mesh, alpha)
    return row.c, row.d


def _cd_history(a, tau, alpha, g2, g3):
    """(c, d) in coeffs_cd's subtraction-free form, for entries with
    0 < eps = tau/a < 1: the history intervals k < n, where
    a = t_n - t_{k-1} and tau = tau_k.

    a and tau are flat arrays; every output entry depends on its own
    (a, tau) pair alone, so the entries of several levels may be laid end
    to end and evaluated in one pass, with any placeholder pair of eps in
    (0, 1) on entries the caller overwrites.
    """
    eps = tau / a
    p1 = 1.0 - alpha
    p2 = 2.0 - alpha
    lg = np.log1p(-eps)
    c = a ** p1 * -np.expm1(p1 * lg) / (tau * g2)

    G = np.zeros(a.size)  # an eps that underflowed to 0 keeps G = 0
    direct = eps > _SERIES_CUT
    if direct.any():
        u = 1.0 - eps[direct]
        ld = lg[direct]
        G[direct] = alpha * -np.expm1(p2 * ld) - p2 * u * np.expm1(-alpha * ld)
    lower = 0.0
    for upper, last in _SERIES_BINS:
        sel = (eps > lower) & (eps <= upper)
        if sel.any():
            G[sel] = _G_series(eps[sel], alpha, last)
        lower = upper
    d = a ** p2 * G / (tau * tau * g3)
    return c, d


def _G_series(e, alpha, last):
    """G(e) of coeffs_cd as its Taylor series, the terms e^3 .. e^last."""
    p2 = 2.0 - alpha
    s = p2 * (1.0 - p2) / 2.0            # eps^2 coefficient of 1 - u^{2-alpha}
    R = alpha * (alpha + 1.0) / 2.0      # partial-sum state for the u-part
    acc = np.zeros_like(e)
    ek = e * e
    for k in range(3, last + 1):
        s = s * ((k - 1) - p2) / k
        R_next = R * (alpha + k - 1) / k
        ek *= e
        acc += (alpha * s - p2 * (R_next - R)) * ek
        R = R_next
    return acc


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


@dataclass(frozen=True, eq=False)
class KernelRow:
    """All level-n kernel rows, each ordered by history interval k = 1..n.

    The theta split regroups the discrete derivative as

        leading * dw^n - lagged * dw^{n-1} + sum_k c_tilde_{n-k} dw^k

    with leading = theta c_0 + rho_n d_0/(1+rho_n), theta = theta(alpha), and
    lagged = rho_n^2 d_0/(1+rho_n) (zero at n = 1, where no dw^0 exists).
    B agrees with c_tilde on every history interval k < n except for the
    lagged correction at k = n-1; its current-step entry k = n has its own
    formula. J is c_tilde with its last entry doubled.
    """

    level: int
    c: np.ndarray
    d: np.ndarray
    B: np.ndarray
    c_tilde: np.ndarray
    J: np.ndarray
    leading: float
    lagged: float


def kernel_row(n: int, mesh: TemporalMesh, alpha: float) -> KernelRow:
    """Every kernel row at level n, from a block of that one level."""
    _check_alpha_open(alpha)
    _check_level(n, mesh)
    return next(_block(mesh, alpha, n, n, _gammas(alpha)))


def kernel_rows(mesh: TemporalMesh, alpha: float):
    """Yield kernel_row(n, mesh, alpha) for n = 1..N in order, bitwise equal.

    A block takes levels while their history entries total at most
    _BLOCK_ENTRIES, and always at least one level, so the block's
    temporaries stay a fixed size whatever N is. All state lives in the
    generator.
    """
    _check_alpha_open(alpha)
    gammas = _gammas(alpha)
    N = mesh.N
    first = 1
    while first <= N:
        last, total = first, first - 1
        while last < N and total + last <= _BLOCK_ENTRIES:
            last += 1
            total += last - 1
        yield from _block(mesh, alpha, first, last, gammas)
        first = last + 1


def _gammas(alpha: float):
    """(Gamma(2-alpha), Gamma(3-alpha)), the kernels' two constants."""
    return gamma(2.0 - alpha), gamma(3.0 - alpha)


def _block(mesh: TemporalMesh, alpha: float, first: int, last: int, gammas):
    """Yield the KernelRows of levels first..last from one entrywise pass.

    Each level's n entries lie end to end, entry j on interval k = j + 1;
    rho[k-1] is rho_k. Every entry takes (c, d) from one _cd_history call,
    the k = n entries with the placeholder a = 2 tau_n (eps = 1/2, finite
    and silent), whose (c, d) are then overwritten with the exact single
    powers of tau_n. Then on every entry

        c_tilde = c' + P - Q,   c' = c, but (1 - theta) c at k = n,
        P = d_{k-1} / (rho_k (1 + rho_k))   (0 at k = 1),
        Q = d_k / (1 + rho_{k+1})           (0 at k = n),

    one formula for every case, as adding or subtracting 0.0 is exact; Q
    is formed on every entry and set to 0 at k = n. B takes lagged off
    c_tilde's k = n-1 entry and has its own k = n entry; J doubles
    c_tilde's k = n entry. Powers of per-level scalars stay scalar: numpy's
    array power is not libm's pow and moves some rows by an ulp. The mesh
    is read up to t_last only. gammas is _gammas(alpha), taken once
    per pass over the levels.
    """
    nodes, steps, rho = mesh.nodes, mesh.steps, mesh.ratios
    g2, g3 = gammas
    th = theta(alpha)
    levels = np.arange(first, last + 1)
    ends = np.cumsum(levels)
    cur = ends - 1                              # the k = n entries
    j = np.arange(ends[-1]) - np.repeat(ends - levels, levels)

    a = np.repeat(nodes[first:last + 1], levels)
    a -= nodes[j]
    a[cur] = 2.0 * steps[first - 1:last]        # eps = 1/2 at k = n
    c, d = _cd_history(a, steps[j], alpha, g2, g3)
    p = np.array([steps[n - 1] ** -alpha for n in range(first, last + 1)])
    c[cur] = p / g2
    d[cur] = alpha * p / g3

    # entry e > 0 reads rho_k of its own interval for P, and entry e - 1
    # reads it as rho_{k+1} for Q
    r = rho[j[1:]]
    r1 = 1.0 + r
    P = np.zeros(ends[-1])
    np.divide(d[:-1], r * r1, out=P[1:], where=j[1:] > 0)
    Q = np.empty(ends[-1])
    np.divide(d[:-1], r1, out=Q[:-1])
    Q[cur] = 0.0
    ct = c.copy()
    ct[cur] *= 1.0 - th
    ct += P
    ct -= Q

    rho_n = rho[levels - 1]
    now = rho_n / (1.0 + rho_n) * d[cur]
    leading = th * c[cur] + now
    lagged = np.array([r_n ** 2 for r_n in rho_n]) / (1.0 + rho_n) * d[cur]
    B = ct.copy()
    B[cur[levels > 1] - 1] -= lagged[levels > 1]
    B[cur] = c[cur] + P[cur] + now
    J = ct.copy()
    J[cur] *= 2.0

    for arr in (c, d, B, ct, J):
        arr.flags.writeable = False
    for n, e, lead, lag in zip(range(first, last + 1), ends.tolist(),
                               leading, lagged):
        s = e - n
        yield KernelRow(level=n, c=c[s:e], d=d[s:e], B=B[s:e],
                        c_tilde=ct[s:e], J=J[s:e], leading=lead, lagged=lag)


def kernel_row_B(n: int, mesh: TemporalMesh, alpha: float) -> np.ndarray:
    """Convolution kernels B_{n-k}^{(n)}, ordered by interval k = 1..n."""
    return kernel_row(n, mesh, alpha).B


def kernel_row_J(n: int, mesh: TemporalMesh, alpha: float) -> np.ndarray:
    """Auxiliary kernels: J_0 = 2 c_tilde_0, J_{n-k} = c_tilde_{n-k} otherwise."""
    return kernel_row(n, mesh, alpha).J


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


def solve_linear_fode(mesh: TemporalMesh, alpha: float, rhs) -> np.ndarray:
    """March (d/dt)^alpha w = rhs(t) from w(0) = 0 with the B kernels.

    Each step solves B_0^{(n)} dw^n = rhs(t_n) - sum_{k<n} B_{n-k}^{(n)} dw^k.
    Returns w at all nodes (length N+1). This inversion of the discrete
    operator is the benchmark used by the convergence tables.
    """
    _check_alpha_open(alpha)
    N = mesh.N
    w = np.empty(N + 1)
    w[0] = 0.0
    dw = np.empty(N)
    for row in kernel_rows(mesh, alpha):
        n, B = row.level, row.B
        acc = B[: n - 1] @ dw[: n - 1]
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

    Its zero along the rho_star root curve locates the minimum of rho_star.
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

    alpha must lie in [_RHO_STAR_ALPHA_MIN, 1] = [1e-15, 1]; ValueError
    otherwise.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0,1]")
    if alpha < _RHO_STAR_ALPHA_MIN:
        raise ValueError(
            "alpha %r is below %r, the smallest rho_star takes: q2 "
            "rounds to noise at the bracket bottom 1 + 1/alpha"
            % (alpha, _RHO_STAR_ALPHA_MIN))
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


def rho_bar():
    """Minimum (rho, alpha) of the admissibility threshold rho_star over alpha.

    Along the threshold curve q3(rho_star(alpha), alpha) vanishes where
    rho_star is stationary; it runs from -2.0 at alpha = 1e-6 to +0.33 at
    alpha = 1. Bisection halves that bracket until the midpoint stops moving
    and returns (rho_star(alpha), alpha), about (4.7476114, 0.82265).
    """
    lo, hi = 1e-6, 1.0
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        if q3(rho_star(mid), mid) < 0.0:
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    return rho_star(mid), mid


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
