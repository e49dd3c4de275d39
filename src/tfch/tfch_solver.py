"""Time-fractional Cahn-Hilliard marching scheme.

At each interior node the scheme couples the nonuniform-mesh fractional
derivative with the compact spatial operators:

    A (sum_k B_{n-k} (u^k - u^{k-1})) = kappa D f(u^n) + kappa eps^2 D v^n
                                        + (A g)(., t_n),
    A v^n = -D u^n,        f(u) = u^3 - u,

with zero Dirichlet values for u and v. Eliminating v and keeping the cubic
term lagged gives the fixed-point sweep

    (B_0 A + kappa D + kappa eps^2 D A^{-1} D) u^{(s+1)}
        = kappa D (u^{(s)})^3 + A (B_0 u^{n-1} - hist + g^n-interior part),

started from u^{(0)} = u^{n-1} and stopped on a max-norm increment test.
The left matrix changes only through B_0, so one LU factorization per time
step serves every inner iteration.

The factorization and the per-sweep triangular solves call LAPACK getrf and
getrs directly (lu_factor and lu_solve below). A sweep's solve is a few
microseconds of LAPACK work on a small dense factor, so scipy.linalg's
wrappers, with their finiteness scans, shape checks and batching dispatch,
would cost more than the solve itself. No right-hand side is screened before
LAPACK: a non-finite one (an overflowing cubic, a NaN source) comes back as a
non-finite increment, and the sweep's residual test turns that into
NonconvergenceError at the same level.

Step-size validators (fixed-point solvability, energy dissipation, first
step, post-run Lipschitz) are evaluated and reported as warnings; they never
abort a run.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Callable, Union

import numpy as np
from scipy.linalg import LinAlgWarning, get_lapack_funcs
from scipy.special import gamma

# kernel_row_B is unused here but stays importable: bench/spans.py wraps it.
from .caputo_l2 import kernel_row_B, kernel_rows, q  # noqa: F401
from .compact_spatial import GridFunction, _average, a_matrix, dxx_matrix
from .temporal_mesh import TemporalMesh, build_graded_cubic, validate_ratio_bound

__all__ = [
    "SolverConfig",
    "RunHistory",
    "NonconvergenceError",
    "solve",
    "reference_solution",
    "quartic_bump",
    "manufactured_solution",
    "manufactured_source",
    "first_step_bound",
    "solvability_step_bound",
    "energy_step_bound",
    "lipschitz_step_bound",
]

_BOUND_SLACK = 1e-12

_getrf, _getrs = get_lapack_funcs(("getrf", "getrs"), dtype=np.float64)


def lu_factor(a):
    """Pivoted LU of a finite float64 matrix as (lu, piv), as scipy.linalg's.

    Calls LAPACK getrf without scipy's finiteness scan. Warns LinAlgWarning
    when a pivot is exactly zero.
    """
    lu, piv, info = _getrf(a)
    if info < 0:
        raise ValueError("illegal value in %dth argument of internal getrf"
                         % -info)
    if info > 0:
        warnings.warn("Diagonal number %d is exactly zero. Singular matrix."
                      % info, LinAlgWarning, stacklevel=2)
    return lu, piv


def lu_solve(lu_piv, b, overwrite_b=False):
    """Solve a x = b from lu_factor's (lu, piv); b is a vector or a matrix.

    Calls LAPACK getrs without scipy's finiteness scan, so b must be finite.
    With overwrite_b, a contiguous vector b is solved in place and returned.
    """
    lu, piv = lu_piv
    x, info = _getrs(lu, piv, b, overwrite_b=overwrite_b)
    if info < 0:
        raise ValueError("illegal value in %dth argument of internal getrs"
                         % -info)
    return x


class NonconvergenceError(RuntimeError):
    """Fixed-point sweep hit its iteration cap without meeting tolerance."""

    def __init__(self, level: int, residual: float, cap: int):
        super().__init__(
            "fixed-point iteration at level %d still at %.3e after %d sweeps"
            % (level, residual, cap))
        self.level = level
        self.residual = residual
        self.cap = cap


@dataclass(frozen=True)
class SolverConfig:
    """Full problem + discretization description for one run.

    The grid is the unit interval, x_i = i/M. A run on (a, b) is the
    unit-interval run with (kappa / L^2, epsilon / L), L = b - a, and with
    initial and source composed with x = a + L y. source may be None
    (homogeneous), the string "manufactured" (benchmark forcing), or a
    callable (x_array, t) -> values. initial is a callable x_array -> values
    on the M+1 nodes; only its interior entries are read, and u^0's boundary
    values are zero, as the scheme pins them.
    """

    alpha: float
    kappa: float
    epsilon: float
    mesh: TemporalMesh
    M: int
    iteration_tol: float = 1e-10
    max_iterations: int = 500
    source: Union[None, str, Callable] = None
    initial: Callable = None

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0,1)")
        for name in ("kappa", "epsilon", "iteration_tol"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError("%s must be finite" % name)
        if self.kappa <= 0.0 or self.epsilon <= 0.0:
            raise ValueError("kappa and epsilon must be positive")
        if not isinstance(self.mesh, TemporalMesh):
            raise TypeError("mesh must be a TemporalMesh")
        if self.M < 4:
            raise ValueError("M must be at least 4")
        if self.iteration_tol <= 0.0:
            raise ValueError("iteration_tol must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if isinstance(self.source, str) and self.source != "manufactured":
            raise ValueError("string source must be 'manufactured'")
        if self.initial is None or not callable(self.initial):
            raise TypeError("initial must be a callable of x")

    @property
    def h(self) -> float:
        return 1.0 / self.M


@dataclass(frozen=True, eq=False)
class RunHistory:
    """Everything a finished run produced.

    U is the read-only (N+1, M-1) array of interior values that solve
    marched, row n holding u^n; the boundary values are zero at every level,
    u^0's included. state(n) and terminal give a level as a zero-padded
    GridFunction. violations maps validator name to the 1-based levels whose
    step exceeded that bound; empty tuples mean the run satisfied the
    corresponding sufficient condition.
    """

    config: SolverConfig
    U: np.ndarray
    iterations: np.ndarray
    residuals: np.ndarray
    violations: dict
    lipschitz_constant: float
    lipschitz_limit: float

    @property
    def mesh(self) -> TemporalMesh:
        return self.config.mesh

    def state(self, n: int) -> GridFunction:
        """u^n as a GridFunction, boundary values zero."""
        return GridFunction(values=np.pad(self.U[n], 1))

    @property
    def terminal(self) -> GridFunction:
        return self.state(-1)


def quartic_bump(x):
    """x^4 (1-x)^4: the smooth compactly-flat hump used by the experiments."""
    x = np.asarray(x, dtype=float)
    return x ** 4 * (1.0 - x) ** 4


def manufactured_solution(x, t: float, alpha: float):
    """Closed-form benchmark field x^4 (1-x)^4 t^{3+alpha} on (0,1)."""
    return quartic_bump(x) * t ** (3.0 + alpha)


def manufactured_source(x, t: float, alpha: float, kappa: float, epsilon: float):
    """Forcing that makes manufactured_solution solve the continuous problem.

    Assembled from the exact fractional derivative of t^{3+alpha} and the
    spatial derivatives of the bump: Laplacian of u^3, biharmonic of u, and
    Laplacian of u, each with its own polynomial prefactor.
    """
    x = np.asarray(x, dtype=float)
    y = 1.0 - x
    bump = x ** 4 * y ** 4
    dt = gamma(4.0 + alpha) / gamma(4.0) * bump * t ** 3
    lap_u3 = (132.0 * x ** 10 * y ** 12
              - 288.0 * x ** 11 * y ** 11
              + 132.0 * x ** 12 * y ** 10) * t ** (9.0 + 3.0 * alpha)
    biharm = (24.0 * y ** 4 - 384.0 * x * y ** 3 + 864.0 * x ** 2 * y ** 2
              - 384.0 * x ** 3 * y + 24.0 * x ** 4) * t ** (3.0 + alpha)
    lap_u = (12.0 * x ** 2 * y ** 4 - 32.0 * x ** 3 * y ** 3
             + 12.0 * x ** 4 * y ** 2) * t ** (3.0 + alpha)
    return dt - kappa * lap_u3 + kappa * epsilon ** 2 * biharm + kappa * lap_u


def first_step_bound(alpha: float, kappa: float, epsilon: float) -> float:
    """Sufficient tau_1 for one-step energy dissipation:
    tau_1 <= (8 eps^2 / (kappa Gamma(2-alpha)))^{1/alpha}."""
    return (8.0 * epsilon ** 2 / (kappa * gamma(2.0 - alpha))) ** (1.0 / alpha)


def solvability_step_bound(alpha: float, kappa: float, h: float, rho: float) -> float:
    """Sufficient tau_n for fixed-point contraction:
    tau_n <= ((2-alpha+2 rho) h^2 / (12 kappa (1+rho) Gamma(3-alpha)))^{1/alpha}.

    An array of ratios gives the array of bounds."""
    return ((2.0 - alpha + 2.0 * rho) * h * h
            / (12.0 * kappa * (1.0 + rho) * gamma(3.0 - alpha))) ** (1.0 / alpha)


def energy_step_bound(alpha: float, kappa: float, epsilon: float,
                      rho: float, rho_next: float) -> float:
    """Sufficient tau_n for the discrete energy law:
    tau_n <= (4 eps^2 q(rho_n, rho_{n+1}, alpha) / (kappa Gamma(3-alpha)))^{1/alpha}.

    Raises ValueError when the ratio margin q is nonpositive, where no step
    size satisfies the condition.
    """
    margin = q(rho, rho_next, alpha)
    if margin <= 0.0:
        raise ValueError("ratio margin q(%g, %g, %g) = %g is not positive"
                         % (rho, rho_next, alpha, margin))
    return _energy_bound(alpha, kappa, epsilon, margin)


def _energy_bound(alpha: float, kappa: float, epsilon: float, margin):
    """energy_step_bound from a positive ratio margin q, or elementwise from
    an array of margins (nan where a margin is nan)."""
    return (4.0 * epsilon ** 2 * margin
            / (kappa * gamma(3.0 - alpha))) ** (1.0 / alpha)


def lipschitz_step_bound(alpha: float, kappa: float, epsilon: float,
                         lipschitz: float) -> float:
    """Sufficient uniform tau given |f'(u)| <= lipschitz on the solution range:
    tau <= (2 eps^2 / (kappa L^2 Gamma(2-alpha)))^{1/alpha}."""
    if lipschitz <= 0.0:
        raise ValueError("lipschitz constant must be positive")
    return (2.0 * epsilon ** 2
            / (kappa * lipschitz ** 2 * gamma(2.0 - alpha))) ** (1.0 / alpha)


def _source_values(config: SolverConfig, x_full: np.ndarray, t: float) -> np.ndarray:
    if config.source is None:
        return np.zeros_like(x_full)
    if config.source == "manufactured":
        return manufactured_source(x_full, t, config.alpha, config.kappa,
                                   config.epsilon)
    return np.asarray(config.source(x_full, t), dtype=float)


def _levels(over: np.ndarray, first: int) -> list:
    """Levels where over is true, over[0] standing for level first."""
    return [int(n) for n in np.nonzero(over)[0] + first]


def _step_violations(config: SolverConfig) -> dict:
    """Levels breaching the first-step, solvability and energy bounds.

    The bounds depend only on the mesh and the parameters, so every level's
    bound is evaluated at once, before the march. The energy bound at level n
    uses rho_{n+1}, taken as 1 at n = N; where the ratio margin
    q(rho_n, rho_{n+1}) is not positive no step satisfies it, and the level
    counts as a violation.
    """
    mesh = config.mesh
    alpha, kappa, eps = config.alpha, config.kappa, config.epsilon
    slack = 1.0 + _BOUND_SLACK
    steps = mesh.steps[1:]                       # tau_n, n = 2..N
    rho = mesh.ratios[1:]
    margin = q(rho, np.append(mesh.ratios[2:], 1.0), alpha)
    positive = margin > 0.0
    energy = _energy_bound(alpha, kappa, eps,
                           np.where(positive, margin, np.nan))
    solvability = solvability_step_bound(alpha, kappa, config.h, rho)
    return {
        "first_step": _levels(
            mesh.steps[:1] > first_step_bound(alpha, kappa, eps) * slack, 1),
        "solvability": _levels(steps > solvability * slack, 2),
        "energy": _levels(~positive | (steps > energy * slack), 2),
    }


def solve(config: SolverConfig) -> RunHistory:
    """March the scheme over the whole mesh and collect diagnostics.

    Raises NonconvergenceError if an inner sweep exhausts max_iterations.
    Validator breaches are warnings only: the counts land in
    RunHistory.violations.
    """
    mesh = config.mesh
    alpha, kappa, eps = config.alpha, config.kappa, config.epsilon
    report = validate_ratio_bound(mesh, alpha)
    if not report.ok:
        warnings.warn(
            "step-ratio bound fails at %d of %d steps (first at k=%d); "
            "the energy analysis does not cover this mesh"
            % (len(report.offenders), mesh.N, report.offenders[0]),
            RuntimeWarning, stacklevel=2)

    M, h = config.M, config.h
    x_full = np.linspace(0.0, 1.0, M + 1)
    m = M - 1
    A = a_matrix(M)
    D = dxx_matrix(M, h)
    lu_A = lu_factor(A)
    K = kappa * D + kappa * eps ** 2 * (D @ lu_solve(lu_A, D))
    D *= kappa  # only the sweep's kappa D u^3 term uses D from here on

    u0 = np.asarray(config.initial(x_full), dtype=float)
    if u0.shape != x_full.shape:
        raise ValueError("initial data has wrong shape")

    N = mesh.N
    U = np.empty((N + 1, m))
    U[0] = u0[1:-1]
    dU = np.empty((N, m))
    iterations = np.zeros(N, dtype=int)
    residuals = np.zeros(N)
    violations = _step_violations(config)
    L = np.empty((m, m))
    cube = np.empty(m)
    diff = np.empty(m)

    for row in kernel_rows(mesh, alpha):
        n, B = row.level, row.B
        B0 = B[n - 1]
        hist = B[: n - 1] @ dU[: n - 1] if n > 1 else 0.0
        g_full = _source_values(config, x_full, mesh.nodes[n])
        const = A @ (B0 * U[n - 1] - hist) + _average(g_full)
        np.multiply(A, B0, out=L)
        L += K
        lu_L = lu_factor(L)

        u_s = U[n - 1]
        converged = False
        for s in range(config.max_iterations):
            np.multiply(u_s, u_s, out=cube)
            cube *= u_s
            rhs = D @ cube
            rhs += const
            u_next = lu_solve(lu_L, rhs, overwrite_b=True)
            np.subtract(u_next, u_s, out=diff)
            res = float(np.abs(diff, out=diff).max())
            u_s = u_next
            if res <= config.iteration_tol:
                iterations[n - 1] = s + 1
                residuals[n - 1] = res
                converged = True
                break
            if not res < math.inf:
                # NaN or inf: the cubic overflowed or the data is not finite;
                # getrs passed it through to the increment
                raise NonconvergenceError(n, math.inf, config.max_iterations)
        if not converged:
            raise NonconvergenceError(n, res, config.max_iterations)
        U[n] = u_s
        dU[n - 1] = U[n] - U[n - 1]

    lip = float(np.max(np.abs(3.0 * U ** 2 - 1.0)))
    lip_limit = lipschitz_step_bound(alpha, kappa, eps, lip)
    violations["lipschitz"] = _levels(
        mesh.steps > lip_limit * (1.0 + _BOUND_SLACK), 1)

    for kind, levels in violations.items():
        if levels:
            warnings.warn(
                "%s step bound exceeded at %d of %d steps (first at n=%d); "
                "the corresponding sufficient condition is not certified"
                % (kind, len(levels), N, levels[0]),
                RuntimeWarning, stacklevel=2)

    U.flags.writeable = False
    return RunHistory(
        config=config,
        U=U,
        iterations=iterations,
        residuals=residuals,
        violations={k: tuple(v) for k, v in violations.items()},
        lipschitz_constant=lip,
        lipschitz_limit=lip_limit,
    )


def reference_solution(config: SolverConfig, N0: int) -> RunHistory:
    """Re-run the same problem on a graded mesh with N0 steps (same horizon)."""
    mesh0 = build_graded_cubic(N0, config.mesh.horizon)
    return solve(replace(config, mesh=mesh0))
