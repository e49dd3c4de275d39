"""Energy, mass, and kernel-structure diagnostics.

mass and free_energy take interior values, one state or a (N+1, M-1) run,
and reduce along the last axis. The gradient part of the free energy is
(-H u, u), which quad_negH evaluates in the sine basis: (-H)^{-1} is
diagonal there with positive eigenvalues lam, so (-H u, u) is
h sum_k (S u)_k^2 / lam_k. The modified energy adds to the free energy a
weighted history of negative-order norms of increments, built from the
auxiliary J kernels. One loop, _history_terms, carries these norms from
level to level through the products d^k . d^n of transformed increments
d^k = sqrt(lam) S (u^k - u^{k-1}); its caller hands it the kernel rows and
the products. tfch_solver.solve feeds it online, from its own march
(_march_terms), and the RunHistory it returns carries the terms, so that
solve and then energy_series build each kernel row once. energy_series
adds those terms to the free energies; a history that carries none (one
built by hand, or by dataclasses.replace) gets them from the offline feed,
_offline_terms, which transforms the finished run's increments. Both feeds
take a level's products as one np.vecdot, one OpenBLAS ddot per row, not a
BLAS matmul, and the loop works in length-N vectors allocated once per run.

OpenBLAS threads a ddot only above 10000 entries: on OpenBLAS 0.3.31,
lengths up to 10000 gave the same bits under 1 and 2 threads and 10001 did
not. The products have M-1 entries and each level's weighted sum at most
N, so for M <= 10001 and N <= 10000 the history terms of given states do
not depend on the BLAS thread count.

The dissipation estimate states exactly that the modified energy never
increases, so these routines are both the experiment observables and the
acceptance instruments.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from ._fmt import write_csv
from ._gamma import gamma
from .caputo_l2 import kernel_row_J, kernel_rows
from .compact_spatial import _neg_h_inv_eigs, _sine, _width, quad_negH
from .temporal_mesh import TemporalMesh

__all__ = [
    "EnergySeries",
    "mass",
    "free_energy",
    "G_functional",
    "energy_series",
    "dgs_identity_check",
    "KernelPropertyReport",
    "kernel_property_check",
    "convergence_order",
    "write_energy_csv",
    "write_mass_csv",
]

def mass(u: np.ndarray):
    """h sum_i u_i along the last axis: the trapezoid rule with the zero
    boundary values. Adding 0.0 turns a -0.0 sum into 0.0."""
    return _width(u) * (u.sum(axis=-1) + 0.0)


def free_energy(u: np.ndarray, epsilon: float):
    """(eps^2/2) (-H u, u) + (h/4) sum_i (u_i^2 - 1)^2 along the last axis."""
    gradient = quad_negH(u)
    work = np.multiply(u, u)
    work -= 1.0
    np.square(work, out=work)
    return 0.5 * epsilon ** 2 * gradient \
        + 0.25 * _width(u) * work.sum(axis=-1)


def _g_weights(J: np.ndarray, lead: float, out: np.ndarray = None
               ) -> np.ndarray:
    """Weights w of the level-n history functional sum_j w_j |u^n - u^j|^2,
    from the level-n J row (n = len(J)) and lead = _lead_weight(n, ...),
    into out (allocated if None).

    In interval order, w_0 = J_0/2 and w_j = (J_j - J_{j-1})/2 for j >= 1,
    plus lead at j = n-1.
    """
    if out is None:
        out = np.empty_like(J)
    out[0] = J[0]
    np.subtract(J[1:], J[:-1], out=out[1:])
    out *= 0.5
    out[-1] += lead
    return out


def _lead_weight(n: int, mesh: TemporalMesh, alpha: float, g3) -> float:
    """The leading weight of the level-n history functional, at j = n-1;
    g3 = Gamma(3 - alpha).

    rho_{N+1} is taken as 1: the functional at the final level is evaluated
    as if one more equal step followed. The powers are scalar ones, libm's
    pow; an array ** need not round as pow does.
    """
    rho_next = mesh.ratios[n] if n < mesh.N else 1.0
    tau_n = mesh.steps[n - 1]
    return alpha * rho_next ** (2.0 - 0.5 * alpha) \
        / (2.0 * (1.0 + rho_next) * tau_n ** alpha * g3)


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
    w = _g_weights(kernel_row_J(n, mesh, alpha),
                   _lead_weight(n, mesh, alpha, gamma(3.0 - alpha)))
    out = np.tensordot(w, (W[n] - W[:n]) ** 2, axes=1)
    return float(out) if np.ndim(out) == 0 else out


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

    The modified energy is the dissipated Lyapunov sequence. Its level
    n >= 1 value is

        E^n + (1/kappa) [ lead_n |u^n - u^{n-1}|^2
                          + 1/2 sum_{j=1}^{n-1} (J_{n-j-1} - J_{n-j}) |u^n - u^j|^2
                          + 1/2 J_{n-1} |u^n - u^0|^2 ],

    every |.|^2 the negative-order norm (v, (-H)^{-1} v). Its level-0 entry
    is nan: the history functional needs at least one increment. The free
    energies and masses are free_energy(history.U, epsilon) and
    mass(history.U).

    The bracketed history terms are history.history_terms when the run
    carries them: solve records them while it marches, so a history it
    returns costs no kernel row here. Any other history gets them from
    _offline_terms. The two feeds transform the increments differently, so
    their modified energies agree to rounding, not bitwise: on the
    benchmark's coarsening runs (seeds 0-3) at most 1.2e-16 or 2.2e-16
    relative, one ulp, on 9 to 73 of the 1000 levels.
    """
    terms = history.history_terms
    if terms is None:
        terms = _offline_terms(history)
    return _series(history, terms)


def _offline_terms(history) -> np.ndarray:
    """_history_terms of a finished run, fed from its states.

    (-H)^{-1} = S diag(lam) S with S the orthonormal DST-I, so the norm
    is h |sqrt(lam) S v|^2. The increments are transformed once, in place,
    into D, row k-1 holding d^k, the pass's one array the size of the run;
    it is freed on return, before energy_series' free energies. The
    products are np.vecdot, one BLAS ddot per row, not a BLAS matmul; the
    module docstring says when their bits do not depend on the BLAS thread
    count.
    """
    cfg = history.config
    D = _sine(np.subtract(history.U[1:], history.U[:-1]), overwrite=True)
    D *= np.sqrt(_neg_h_inv_eigs(cfg.M))

    def products(n, out):
        np.vecdot(D[:n], D[n - 1], out=out)  # d^k . d^n

    return _history_terms(cfg, kernel_rows(cfg.mesh, cfg.alpha), products)


def _history_terms(config, rows, products) -> np.ndarray:
    """The history terms of the modified energy at every level: the
    modified energy less the free energy, entry 0 nan.

    rows yields each level's KernelRow for n = 1..N in order, and
    products(n, out) writes into out the products out[k-1] = d^k . d^n,
    k = 1..n, of the transformed increments
    d^k = sqrt(lam) S (u^k - u^{k-1}). Level n's term is
    (1/kappa) sum_j w_j h Q_n[j], with w from _g_weights. With
    Q_n[j] = |w^n - w^j|^2 and w^j = sqrt(lam) S u^j, the recurrence

        Q_n[j] = Q_{n-1}[j] + 2 sum_{k=j+1}^{n-1} d^k . d^n + |d^n|^2,
        Q_n[n-1] = |d^n|^2,

    updates every norm of level n from the products and a reversed
    cumulative sum of them, O(N^2 M) in all with the products.

    The recurrence only sums products of increments; it never forms the
    |w^n|^2 - 2 w^n.w^j + |w^j|^2 expansion, whose terms cancel. Its
    rounding is relative to the path from w^j to w^n, not to the states,
    so in a slowly moving run each norm keeps a few ulps of relative
    accuracy; a difference of separately transformed states would lose
    the ratio of the states to the increment. The rounding grows with the
    number of levels when the path is long and its end near its start: on
    uniform random states at N = 1000 the history terms move by up to
    5e-14 relative, and a norm can round slightly below zero. None is
    clamped, since a clamp would hide that rounding, not remove it.
    """
    mesh, alpha, h, kappa = config.mesh, config.alpha, config.h, config.kappa
    g3 = gamma(3.0 - alpha)
    N = mesh.N
    lead = np.fromiter((_lead_weight(n, mesh, alpha, g3)
                        for n in range(1, N + 1)), float, N)
    # length-N work vectors, one set per run; level n uses their first n
    p, Q, c, w = np.empty(N), np.empty(N), np.empty(N), np.empty(N)
    # np.cumsum is add.accumulate; the ufunc method skips its wrapper
    cumsum, multiply, vecdot = np.add.accumulate, np.multiply, np.vecdot
    terms = np.empty(N + 1)
    terms[0] = np.nan
    for row in rows:
        n = row.level
        products(n, p[:n])
        p_n = p[n - 1]
        c_n = c[:n - 1]
        cumsum(p[:n - 1][::-1], out=c_n[::-1])  # sum_{k=j+1}^{n-1} d^k . d^n
        c_n *= 2.0
        c_n += p_n
        Q[:n - 1] += c_n
        Q[n - 1] = p_n
        _g_weights(row.J, lead[n - 1], w[:n])
        multiply(Q[:n], h, out=c[:n])  # h Q, in c: the sum above is done
        terms[n] = vecdot(w[:n], c[:n]) / kappa
    return terms


def _march_terms(march) -> np.ndarray:
    """_history_terms fed while march (a tfch_solver._March) walks its
    levels to the end, from the march's own increments du^k:
    d^k . d^n = du^k' z^n with z^n = (-H)^{-1} du^n = S (lam * (S du^n)),
    S the march's sine matrix. That adds vectors only, no array the size of
    the run. The products are np.vecdot rows, as in _offline_terms, but the
    two dense transforms round differently from its FFT, so the terms match
    its to rounding, not bitwise.
    """
    cfg = march.config
    dU, S = march.dU, march.S
    lam = _neg_h_inv_eigs(cfg.M)
    y = np.empty(cfg.M - 1)
    z = np.empty(cfg.M - 1)
    S_dot, multiply, vecdot = S.dot, np.multiply, np.vecdot

    def products(n, out):
        S_dot(dU[n - 1], out=y)
        multiply(y, lam, out=y)
        S_dot(y, out=z)                               # (-H)^{-1} du^n
        vecdot(dU[:n], z, out=out)                    # d^k . d^n

    return _history_terms(cfg, march.levels(), products)


def _series(history, terms) -> EnergySeries:
    """The EnergySeries of a run whose modified energy is its free energy
    plus terms, one history term per level."""
    cfg, U = history.config, history.U
    free = free_energy(U, cfg.epsilon)
    return EnergySeries(
        levels=np.arange(len(U)),
        times=cfg.mesh.nodes.copy(),
        free_energy=free,
        modified_energy=free + terms,
        mass=mass(U),
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
    bad = set()
    if sigma < 0.0:
        bad.add("sigma")
    worst = 0.0
    prev_Y = 0.0
    for m in range(1, n + 1):
        chi = np.asarray(chi_rows[m - 1], dtype=float)
        if chi.size != m:
            raise ValueError("level-%d row must have length %d" % (m, m))
        a = chi.copy()
        a[m - 1] = (2.0 - sigma) * chi[m - 1]
        # suffix sums T[j] = sum_{l=j+1}^{m} phi_l, j = 0..m-1
        T = np.cumsum(phis[:m][::-1])[::-1]
        da = np.diff(a)                        # Y weight for j = 1..m-1
        if (da < 0.0).any() or a[0] < 0.0:
            bad.add("Y")
        Y = float(np.dot(da, T[1:] ** 2) + a[0] * T[0] ** 2)

        YR = 0.0
        if m >= 2:
            # a0_prev, da_prev and T_prev are level m-1's a[0], da and T
            last = a0_prev - a[0]
            if last < 0.0:
                bad.add("YR")
            YR = last * T_prev[0] ** 2
            if m >= 3:
                rc = da_prev - da[: m - 2]
                if (rc < 0.0).any():
                    bad.add("YR")
                YR += float(np.dot(rc, T_prev[1:] ** 2))

        lhs = 2.0 * phis[m - 1] * float(np.dot(chi, phis[:m]))
        rhs = Y - prev_Y + sigma * chi[m - 1] * phis[m - 1] ** 2 + YR
        worst = max(worst, abs(lhs - rhs))
        prev_Y, a0_prev, da_prev, T_prev = Y, a[0], da, T
    if bad:
        warnings.warn(
            "nonnegativity precondition violated for: %s; identity residual "
            "is still exact but positive definiteness is not implied"
            % ", ".join(sorted(bad)), RuntimeWarning, stacklevel=2)
    return worst


@dataclass(frozen=True)
class KernelPropertyReport:
    """Outcome of the three structural J-kernel checks over every level
    1..N of the mesh.

    Margins are the most negative slack seen, normalized by the largest row
    entry at the offending level (0.0 when every comparison held with room).
    """

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
        monotonicity_violations=counts["mono"],
        convexity_violations=counts["conv"],
        dominance_violations=counts["dom"],
        monotonicity_margin=margins["mono"],
        convexity_margin=margins["conv"],
        dominance_margin=margins["dom"],
    )


def convergence_order(errors, Ns) -> np.ndarray:
    """Observed orders between successive errors at resolutions Ns:
    order_i = log(e_i/e_{i+1}) / log(N_{i+1}/N_i).

    The resolutions must be positive and distinct; ValueError otherwise.
    """
    e = np.asarray(errors, dtype=float)
    if (e <= 0.0).any():
        raise ValueError("errors must be positive to take logarithms")
    if e.size < 2:
        return np.empty(0)
    Ns = np.asarray(Ns, dtype=float)
    if Ns.shape != e.shape:
        raise ValueError("Ns must match errors in length")
    if not (Ns > 0.0).all():
        raise ValueError("resolutions must be positive")
    if np.unique(Ns).size != Ns.size:
        raise ValueError("Ns must not repeat a resolution")
    return np.log(e[:-1] / e[1:]) / np.log(Ns[1:] / Ns[:-1])


def write_energy_csv(series: EnergySeries, target) -> None:
    """Emit `n,t_n,E,E_modified` (modified blank at level 0)."""
    write_csv(target, "n,t_n,E,E_modified",
              ((n, t, e, "" if math.isnan(em) else em) for n, t, e, em in zip(
                  series.levels, series.times, series.free_energy,
                  series.modified_energy)))


def write_mass_csv(series: EnergySeries, target) -> None:
    """Emit `n,t_n,mass`."""
    write_csv(target, "n,t_n,mass",
              zip(series.levels, series.times, series.mass))
