"""Energy, mass, and kernel-structure diagnostics.

The discrete free energy uses the compact negative Laplacian for its gradient
part; the modified energy augments it with a weighted history of negative-order
norms of increments, built from the auxiliary J kernels. (-H)^{-1} is
diagonal in the orthonormal sine basis with positive eigenvalues lam, so
energy_series reads each negative-order norm as the Euclidean norm of a
difference of the scaled transformed states w^j = sqrt(lam) S u^j. Such a
norm is nonnegative by construction, so none is clamped. The same basis
gives the gradient part of every free energy, sum_k (S u)_k^2 / lam_k. The
dissipation estimate states exactly that the modified energy never
increases, so these routines are both the experiment observables and the
acceptance instruments.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import gamma

from ._fmt import write_csv
from .caputo_l2 import kernel_row_J, kernel_rows
from .compact_spatial import GridFunction, _neg_h_inv_eigs, _sine, quad_negH
from .temporal_mesh import TemporalMesh

__all__ = [
    "EnergySeries",
    "mass",
    "free_energy",
    "G_functional",
    "modified_energy",
    "energy_series",
    "dgs_identity_check",
    "KernelPropertyReport",
    "kernel_property_check",
    "convergence_order",
    "write_energy_csv",
    "write_mass_csv",
]


def mass(u: GridFunction) -> float:
    """Trapezoid integral over the whole interval, boundary halves included."""
    v = u.values
    return float(u.h * (0.5 * v[0] + v[1:-1].sum() + 0.5 * v[-1]))


def free_energy(u: GridFunction, epsilon: float) -> float:
    """(eps^2/2) (-H u, u) + (1/4) ||u.^2 - 1||^2 with the interior product."""
    w = u.interior()
    double_well = 0.25 * u.h * np.sum((w * w - 1.0) ** 2)
    return float(0.5 * epsilon ** 2 * quad_negH(u) + double_well)


def _g_weights(J: np.ndarray, mesh: TemporalMesh,
               alpha: float) -> np.ndarray:
    """Weights w of the level-n history functional sum_j w_j |u^n - u^j|^2,
    from the level-n J row (n = len(J)).

    In interval order, w_0 = J_0/2 and w_j = (J_j - J_{j-1})/2 for j >= 1,
    plus the leading weight at j = n-1. rho_{N+1} is taken as 1: the
    functional at the final level is evaluated as if one more equal step
    followed.
    """
    n = len(J)
    rho_next = mesh.ratios[n] if n < mesh.N else 1.0
    tau_n = mesh.steps[n - 1]
    w = J.copy()
    w[1:] -= J[:-1]
    w *= 0.5
    w[n - 1] += alpha * rho_next ** (2.0 - 0.5 * alpha) \
        / (2.0 * (1.0 + rho_next) * tau_n ** alpha * gamma(3.0 - alpha))
    return w


def G_functional(history, mesh: TemporalMesh, alpha: float):
    """History quadratic functional at level n = len(history) - 1:

        lead_n (w^n - w^{n-1})^2
        + 1/2 sum_{j=1}^{n-1} (J_{n-j-1} - J_{n-j}) (w^n - w^j)^2
        + 1/2 J_{n-1} (w^n - w^0)^2,

    evaluated elementwise, so scalar histories give a scalar and grid-function
    histories give elementwise values.
    """
    W = np.stack([np.asarray(w, dtype=float) for w in history])
    n = len(W) - 1
    if n < 1:
        raise ValueError("history must contain at least two levels")
    out = np.tensordot(_g_weights(kernel_row_J(n, mesh, alpha), mesh, alpha),
                       (W[n] - W[:n]) ** 2, axes=1)
    return float(out) if np.ndim(out) == 0 else out


def modified_energy(history) -> np.ndarray:
    """Dissipated Lyapunov sequence of a finished run, one value per level.

    Level n >= 1 value:

        E^n + (1/kappa) [ lead_n |u^n - u^{n-1}|^2
                          + 1/2 sum_{j=1}^{n-1} (J_{n-j-1} - J_{n-j}) |u^n - u^j|^2
                          + 1/2 J_{n-1} |u^n - u^0|^2 ],

    every |.|^2 the negative-order norm (v, (-H)^{-1} v). The level-0 entry
    is nan: the history functional needs at least one increment.
    """
    return energy_series(history).modified_energy


@dataclass(frozen=True, eq=False)
class EnergySeries:
    """Per-level observables of a run: levels, times, E, modified E, mass."""

    levels: np.ndarray
    times: np.ndarray
    free_energy: np.ndarray
    modified_energy: np.ndarray
    mass: np.ndarray


def energy_series(history) -> EnergySeries:
    """Free energy, modified energy, and mass at every level of a run.

    (-H)^{-1} = S diag(lam) S with S the orthonormal DST-I and lam > 0, so
    each state is transformed once along its last axis, y^j = S u^j, and the
    negative-order norm (v, (-H)^{-1} v) is h |w^n - w^j|^2 with
    w^j = sqrt(lam) y^j. Level n needs it for j < n: one difference per
    level, written into one reused buffer, then a row sum of squares,
    O(N^2 M) in all. The difference is taken before squaring, so the norms
    keep their accuracy (no |w^n|^2 - 2 w^n.w^j + |w^j|^2 cancellation) and
    are nonnegative by construction. The gradient part of each free energy
    is (-H u, u) = h sum_k y_k^2 / lam_k, so free energies agree with
    free_energy to rounding.
    """
    cfg = history.config
    mesh = cfg.mesh
    N = mesh.N
    h = cfg.h
    lam = _neg_h_inv_eigs(cfg.M)

    U = history.U
    masses = h * (U.sum(axis=1) + 0.0)  # as mass(): -0.0 sums become 0.0
    Y = _sine(U)                                  # row j holds y^j = S u^j
    gradient = np.einsum("ij,ij,j->i", Y, Y, 1.0 / lam)
    work = np.multiply(U, U)
    work -= 1.0
    np.square(work, out=work)
    free = 0.5 * cfg.epsilon ** 2 * (h * gradient) \
        + 0.25 * h * work.sum(axis=1)

    W = np.multiply(Y, np.sqrt(lam), out=Y)       # row j holds w^j
    modified = np.empty(N + 1)
    modified[0] = np.nan
    for row in kernel_rows(mesh, cfg.alpha):
        n = row.level
        X = np.subtract(W[:n], W[n], out=work[:n])  # row j holds w^j - w^n
        Q = h * np.einsum("ij,ij->i", X, X)
        w = _g_weights(row.J, mesh, cfg.alpha)
        modified[n] = free[n] + w @ Q / cfg.kappa
    return EnergySeries(
        levels=np.arange(N + 1),
        times=mesh.nodes.copy(),
        free_energy=free,
        modified_energy=modified,
        mass=masses,
    )


def dgs_identity_check(chi_rows, sigma: float, phis) -> float:
    """Max absolute residual of the summation-by-parts identity.

    chi_rows[m-1] is the level-m kernel row (length m, interval order) for
    m = 1..n; phis are the n increments. With a_s = chi_s except
    a_0 = (2 - sigma) chi_0, the identity at each level m is

        2 phi_m sum_j chi_{m-j} phi_j
            = Y_m - Y_{m-1} + sigma chi_0 phi_m^2 + YR_m,

    where Y and YR are weighted squares of suffix sums. Index a^m, the
    level-m row of a, in interval order like chi_rows (a^m[m-1] is a_0),
    and let S^m_j = phi_{j+1} + ... + phi_m and da[j] = a[j] - a[j-1]:

        Y_m  = a^m[0] (S^m_0)^2 + sum_{j=1}^{m-1} da^m[j] (S^m_j)^2
        YR_m = (a^{m-1}[0] - a^m[0]) (S^{m-1}_0)^2
               + sum_{j=1}^{m-2} (da^{m-1}[j] - da^m[j]) (S^{m-1}_j)^2

    with Y_0 = 0 and YR_1 = 0. It is an algebraic rearrangement, so the
    residual is rounding noise for any row data; the positive-definiteness
    corollary additionally needs every Y weight (a^m[0], da^m[j]) and YR
    weight (a^{m-1}[0] - a^m[0], da^{m-1}[j] - da^m[j]) nonnegative, and a
    RuntimeWarning reports which weight family fails that (the residual is
    still evaluated and returned).
    """
    phis = np.asarray(phis, dtype=float)
    n = phis.size
    if len(chi_rows) < n:
        raise ValueError("need a kernel row for every level")
    a_rows = []
    for m in range(1, n + 1):
        row = np.asarray(chi_rows[m - 1], dtype=float)
        if row.size != m:
            raise ValueError("level-%d row must have length %d" % (m, m))
        a = row.copy()
        a[m - 1] = (2.0 - sigma) * row[m - 1]
        a_rows.append(a)

    bad = set()
    if sigma < 0.0:
        bad.add("sigma")
    worst = 0.0
    prev_Y = 0.0
    for m in range(1, n + 1):
        a = a_rows[m - 1]
        chi = np.asarray(chi_rows[m - 1], dtype=float)
        # suffix sums T[j] = sum_{l=j+1}^{m} phi_l, j = 0..m-1
        T = np.cumsum(phis[:m][::-1])[::-1]
        coeff = np.diff(a)                     # Y weight for j = 1..m-1
        if (coeff < 0.0).any() or a[0] < 0.0:
            bad.add("Y")
        Y = float(np.dot(coeff, T[1:] ** 2) + a[0] * T[0] ** 2)

        YR = 0.0
        if m >= 2:
            a_prev = a_rows[m - 2]
            Tp = np.cumsum(phis[: m - 1][::-1])[::-1]
            last = a_prev[0] - a[0]
            if last < 0.0:
                bad.add("YR")
            YR = last * Tp[0] ** 2
            if m >= 3:
                rc = np.diff(a_prev) - np.diff(a[: m - 1])
                if (rc < 0.0).any():
                    bad.add("YR")
                YR += float(np.dot(rc, Tp[1:] ** 2))

        lhs = 2.0 * phis[m - 1] * float(np.dot(chi, phis[:m]))
        rhs = Y - prev_Y + sigma * chi[m - 1] * phis[m - 1] ** 2 + YR
        worst = max(worst, abs(lhs - rhs))
        prev_Y = Y
    if bad:
        warnings.warn(
            "nonnegativity precondition violated for: %s; identity residual "
            "is still exact but positive definiteness is not implied"
            % ", ".join(sorted(bad)), RuntimeWarning, stacklevel=2)
    return worst


@dataclass(frozen=True)
class KernelPropertyReport:
    """Outcome of the three structural J-kernel checks over levels 1..n_max,
    every level of the mesh.

    Margins are the most negative slack seen, normalized by the largest row
    entry at the offending level (0.0 when every comparison held with room).
    """

    n_max: int
    monotonicity_violations: int
    convexity_violations: int
    dominance_violations: int
    monotonicity_margin: float
    convexity_margin: float
    dominance_margin: float

    @property
    def clean(self) -> bool:
        return (self.monotonicity_violations == 0
                and self.convexity_violations == 0
                and self.dominance_violations == 0)


def kernel_property_check(mesh: TemporalMesh,
                          alpha: float) -> KernelPropertyReport:
    """Check monotonicity, convexity, and level dominance of the J rows.

    In interval order (index k, subscripts reversed) the three claims are,
    for rows J = J^{(n)} and Jp = J^{(n-1)}:

        monotonicity:  J[k] >= J[k-1]                 k = 1..n-1
        convexity:     Jp[k]-Jp[k-1] >= J[k]-J[k-1]   k = 1..n-2
        dominance:     Jp[k-1] >= J[k-1]              k = 1..n-1

    These hold whenever every step ratio is in [1, rho_star(alpha)] and are
    the backbone of the dissipation proof.
    """
    counts = {"mono": 0, "conv": 0, "dom": 0}
    margins = {"mono": 0.0, "conv": 0.0, "dom": 0.0}

    def _tally(kind: str, diffs: np.ndarray, scale: float) -> None:
        neg = diffs < 0.0
        counts[kind] += int(neg.sum())
        if neg.any():
            margins[kind] = min(margins[kind], float(diffs.min()) / scale)

    prev = None
    for row in kernel_rows(mesh, alpha):
        n, J = row.level, row.J
        scale = float(np.max(np.abs(J)))
        if n >= 2:
            _tally("mono", np.diff(J), scale)
            _tally("dom", prev - J[: n - 1], scale)
            if n >= 3:
                _tally("conv", np.diff(prev) - np.diff(J[: n - 1]), scale)
        prev = J
    return KernelPropertyReport(
        n_max=mesh.N,
        monotonicity_violations=counts["mono"],
        convexity_violations=counts["conv"],
        dominance_violations=counts["dom"],
        monotonicity_margin=margins["mono"],
        convexity_margin=margins["conv"],
        dominance_margin=margins["dom"],
    )


def convergence_order(errors, Ns) -> np.ndarray:
    """Observed orders between successive errors at resolutions Ns:
    order_i = log(e_i/e_{i+1}) / log(N_{i+1}/N_i)."""
    e = np.asarray(errors, dtype=float)
    if (e <= 0.0).any():
        raise ValueError("errors must be positive to take logarithms")
    if e.size < 2:
        return np.empty(0)
    Ns = np.asarray(Ns, dtype=float)
    if Ns.shape != e.shape:
        raise ValueError("Ns must match errors in length")
    if np.unique(Ns).size != Ns.size:
        raise ValueError("Ns must not repeat a resolution")
    return np.log(e[:-1] / e[1:]) / np.log(Ns[1:] / Ns[:-1])


def write_energy_csv(series: EnergySeries, target) -> None:
    """Emit `n,t_n,E,E_modified` (modified blank at level 0)."""
    write_csv(target, "n,t_n,E,E_modified",
              ((n, t, e, "" if np.isnan(em) else em) for n, t, e, em in zip(
                  series.levels, series.times, series.free_energy,
                  series.modified_energy)))


def write_mass_csv(series: EnergySeries, target) -> None:
    """Emit `n,t_n,mass`."""
    write_csv(target, "n,t_n,mass",
              zip(series.levels, series.times, series.mass))
