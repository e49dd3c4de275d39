"""Self-contained verification battery behind the `verify` CLI subcommand.

Every check restates one of the structural facts the scheme's analysis leans
on (kernel split algebra, summation-by-parts identity, kernel monotonicity
and convexity, discrete operator bounds, ratio-margin positivity, the history
functional inequality) and tests it numerically on deterministic pseudorandom
data. A mesh whose step ratios leave the admissible range cannot falsify a
theory claim, so failures found on such meshes are downgraded to warnings.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gamma

from .caputo_l2 import (
    kernel_row,
    kernel_row_B,
    kernel_rows,
    q,
    rho_star,
)
from .compact_spatial import (
    GridFunction,
    apply_A,
    apply_A_inv,
    apply_H,
    apply_dxx,
    inner,
    norm_l2,
)
from .diagnostics import G_functional, dgs_identity_check, kernel_property_check
from .temporal_mesh import build_custom, build_graded_cubic, build_uniform

__all__ = ["CheckResult", "run_verification_suite"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    warning: bool = False


def _random_admissible_mesh(rng, n_max: int = 64, rho_max: float = 4.6):
    """Random mesh with every ratio in [1, rho_max].

    rho_max = 4.6 sits below the admissibility threshold for every order, so
    these meshes are inside the theory for any alpha.
    """
    n = int(rng.integers(4, n_max + 1))
    ratios = rng.uniform(1.0, rho_max, size=n - 1)
    steps = np.empty(n)
    steps[0] = float(rng.uniform(0.2, 1.0)) / n
    for k in range(1, n):
        steps[k] = steps[k - 1] * ratios[k - 1]
    return build_custom(steps)


def _random_grid_function(rng, M: int) -> GridFunction:
    v = np.zeros(M + 1)
    v[1:-1] = rng.standard_normal(M - 1)
    return GridFunction(values=v)


def _check_split_equivalence(rng) -> CheckResult:
    """The theta-regrouped form must reproduce the plain kernel sum."""
    worst = 0.0
    for _ in range(60):
        mesh = _random_admissible_mesh(rng, n_max=48)
        alpha = float(rng.uniform(0.05, 0.95))
        n = int(rng.integers(1, mesh.N + 1))
        w = rng.standard_normal(n + 1)
        dw = np.diff(w)
        row = kernel_row(n, mesh, alpha)
        direct = float(row.B @ dw)
        split = row.leading * dw[n - 1] + float(row.c_tilde @ dw)
        if n >= 2:
            split -= row.lagged * dw[n - 2]
        scale = max(1.0, abs(direct))
        worst = max(worst, abs(direct - split) / scale)
    passed = worst <= 1e-13
    return CheckResult("kernel split equivalence", passed,
                       "worst relative mismatch %.3e (tol 1e-13)" % worst)


def _check_dgs_identity(rng) -> CheckResult:
    """Summation-by-parts identity on J rows must be exact algebra."""
    worst = 0.0
    for _ in range(25):
        mesh = _random_admissible_mesh(rng, n_max=32)
        alpha = float(rng.uniform(0.05, 0.95))
        rows = [row.J for row in kernel_rows(mesh, alpha)]
        phis = rng.standard_normal(mesh.N)
        scale = max(1.0, max(float(np.max(np.abs(r))) for r in rows))
        worst = max(worst, dgs_identity_check(rows, 1.0, phis) / scale)
    passed = worst <= 1e-12
    return CheckResult("summation-by-parts identity", passed,
                       "worst scaled residual %.3e (tol 1e-12)" % worst)


def _check_kernel_properties(rng):
    """Monotonicity/convexity/dominance of J rows on admissible meshes."""
    meshes = [("graded", build_graded_cubic(64, 1.0), 0.5),
              ("uniform", build_uniform(64, 1.0), 0.5)]
    for i in range(100):
        meshes.append(("random-%d" % i, _random_admissible_mesh(rng),
                       float(rng.uniform(0.05, 0.95))))
    worst = 0.0
    bad = 0
    for _, mesh, alpha in meshes:
        rep = kernel_property_check(mesh, alpha)
        if not rep.clean:
            worst = min(worst, rep.monotonicity_margin,
                        rep.convexity_margin, rep.dominance_margin)
            if min(rep.monotonicity_margin, rep.convexity_margin,
                   rep.dominance_margin) < -1e-13:
                bad += 1
    passed = bad == 0
    return CheckResult(
        "kernel monotonicity/convexity/dominance", passed,
        "%d meshes checked, %d beyond rounding slack, worst margin %.3e"
        % (len(meshes), bad, worst))


def _check_operator_sandwich(rng) -> CheckResult:
    """Averaged-gradient bounds: (2/3)|dx u|^2 <= (A u, -D u) <= |dx u|^2
    and (1/3)|u|^2 <= |A u|^2 <= |u|^2."""
    worst = 0.0
    for _ in range(1000):
        M = int(rng.integers(8, 129))
        u = _random_grid_function(rng, M)
        grad2 = float(np.sum(np.diff(u.values) ** 2) / u.h)
        form = inner(apply_A(u), apply_dxx(u)) * -1.0
        u2 = inner(u, u)
        au2 = norm_l2(apply_A(u)) ** 2
        viol = max(
            (2.0 / 3.0) * grad2 - form,
            form - grad2,
            u2 / 3.0 - au2,
            au2 - u2,
        ) / max(grad2, u2, 1e-300)
        worst = max(worst, viol)
    passed = worst <= 1e-12
    return CheckResult("compact operator sandwich bounds", passed,
                       "worst scaled violation %.3e (tol 1e-12)" % worst)


def _check_h_symmetric_nsd(rng) -> CheckResult:
    """H = A^{-1} D must be symmetric and negative semidefinite."""
    from scipy.linalg import eigvalsh, solve

    from .compact_spatial import a_matrix, dxx_matrix

    worst_sym = 0.0
    worst_eig = -np.inf
    for M in (8, 16, 37, 60, 128):
        H = solve(a_matrix(M), dxx_matrix(M, 1.0 / M))
        scale = float(np.max(np.abs(H)))
        worst_sym = max(worst_sym, float(np.max(np.abs(H - H.T))) / scale)
        worst_eig = max(worst_eig, float(eigvalsh(H).max()) / scale)
    worst_form = -np.inf
    for _ in range(1000):
        M = int(rng.integers(6, 129))
        u = _random_grid_function(rng, M)
        formed = inner(apply_H(u), u) / max(inner(u, u), 1e-300)
        worst_form = max(worst_form, formed)
    passed = worst_sym <= 1e-10 and worst_eig <= 1e-10 and worst_form <= 1e-10
    return CheckResult(
        "compact laplacian symmetric negative semidefinite", passed,
        "asymmetry %.3e, max scaled eigenvalue %.3e, max Rayleigh %.3e"
        % (worst_sym, worst_eig, worst_form))


def _check_a_inverse_bound(rng) -> CheckResult:
    """|A^{-1} u| <= 1.5 |u| (spectrum of A sits in (2/3, 1))."""
    worst = 0.0
    for _ in range(1000):
        M = int(rng.integers(6, 129))
        u = _random_grid_function(rng, M)
        worst = max(worst, norm_l2(apply_A_inv(u)) / max(norm_l2(u), 1e-300))
    passed = worst <= 1.5 * (1.0 + 1e-12)
    return CheckResult("averaging inverse norm bound", passed,
                       "worst ratio %.6f (limit 1.5)" % worst)


def _check_q_positive() -> CheckResult:
    """Ratio margin q > 0 on [1, rho_star)^2 for a spread of orders."""
    worst = np.inf
    arg = None
    for alpha in np.linspace(0.1, 0.9, 9):
        rs = rho_star(float(alpha))
        grid = np.linspace(1.0, rs, 51)[:-1]
        Z, Y = np.meshgrid(grid, grid)
        vals = q(Z, Y, float(alpha))
        m = float(vals.min())
        if m < worst:
            worst = m
            idx = np.unravel_index(np.argmin(vals), vals.shape)
            arg = (float(Z[idx]), float(Y[idx]), float(alpha))
    passed = worst > 0.0
    return CheckResult(
        "ratio margin positivity", passed,
        "min q = %.3e at (z, y, alpha) = (%.4f, %.4f, %.2f)"
        % (worst, arg[0], arg[1], arg[2]))


def _check_history_inequality(rng) -> CheckResult:
    """Per-level dissipation inequality of the history functional."""
    worst = np.inf
    checked = 0
    while checked < 1000:
        mesh = _random_admissible_mesh(rng, n_max=32)
        alpha = float(rng.uniform(0.05, 0.95))
        if mesh.N < 2:
            continue
        for _ in range(4):
            n = int(rng.integers(2, mesh.N + 1))
            w = rng.standard_normal(n + 1)
            dw = np.diff(w)
            lhs = float(kernel_row_B(n, mesh, alpha) @ dw) * dw[n - 1]
            g_now = G_functional(w, mesh, alpha)
            g_prev = G_functional(w[:n], mesh, alpha)
            rho_n = mesh.ratios[n - 1]
            rho_next = mesh.ratios[n] if n < mesh.N else 1.0
            penalty = q(rho_n, rho_next, alpha) * dw[n - 1] ** 2 \
                / (2.0 * mesh.steps[n - 1] ** alpha * gamma(3.0 - alpha))
            scale = max(abs(lhs), abs(g_now), abs(g_prev), penalty, 1e-300)
            worst = min(worst, (lhs - (g_now - g_prev + penalty)) / scale)
            checked += 1
    passed = worst >= -1e-12
    return CheckResult("history functional dissipation inequality", passed,
                       "worst scaled slack %.3e (floor -1e-12)" % worst)


def _check_positive_definiteness(rng) -> CheckResult:
    """Telescoped form: the lower-triangular J quadratic form dominates the
    diagonal sigma chi_0 contribution (and so is nonnegative)."""
    worst = np.inf
    for _ in range(200):
        mesh = _random_admissible_mesh(rng, n_max=32)
        alpha = float(rng.uniform(0.05, 0.95))
        n = mesh.N
        rows = [row.J for row in kernel_rows(mesh, alpha)]
        phi = rng.standard_normal(n)
        lhs = 2.0 * sum(phi[m - 1] * float(rows[m - 1] @ phi[:m])
                        for m in range(1, n + 1))
        diag = sum(rows[m - 1][m - 1] * phi[m - 1] ** 2
                   for m in range(1, n + 1))
        scale = max(abs(lhs), diag, 1e-300)
        worst = min(worst, (lhs - diag) / scale)
    passed = worst >= -1e-12
    return CheckResult("kernel quadratic form positive definiteness", passed,
                       "worst scaled slack %.3e (floor -1e-12)" % worst)


def _check_out_of_theory_mesh() -> CheckResult:
    """Demonstration on a deliberately inadmissible mesh (every ratio 10).

    Ratio 10 sits far above the admissibility threshold, so the dissipation
    margin q is negative there and the energy analysis certifies nothing.
    The structural kernel checks are still evaluated and reported. Whatever
    the outcome, this is a warning, never a failure: the mesh violates the
    theorem hypotheses by construction.
    """
    steps = 1e-4 * 10.0 ** np.arange(12)
    mesh = build_custom(steps)
    rep = kernel_property_check(mesh, 0.5)
    broken = rep.monotonicity_violations + rep.convexity_violations \
        + rep.dominance_violations
    margin = q(10.0, 10.0, 0.5)
    return CheckResult(
        "out-of-theory mesh demonstration", True,
        "ratio-10 mesh: dissipation margin q(10,10,0.5) = %.3f < 0, no "
        "certified decay; kernel property violations: %d (mono %d, conv %d, "
        "dom %d); out-of-theory input, reported as warning not failure"
        % (margin, broken, rep.monotonicity_violations,
           rep.convexity_violations, rep.dominance_violations),
        warning=True)


def run_verification_suite(seed: int = 0):
    """Run every check on deterministic data; returns a list of CheckResult."""
    rng = np.random.default_rng(seed)
    return [
        _check_split_equivalence(rng),
        _check_dgs_identity(rng),
        _check_kernel_properties(rng),
        _check_operator_sandwich(rng),
        _check_h_symmetric_nsd(rng),
        _check_a_inverse_bound(rng),
        _check_q_positive(),
        _check_history_inequality(rng),
        _check_positive_definiteness(rng),
        _check_out_of_theory_mesh(),
    ]
