"""Time-fractional Cahn-Hilliard marching scheme.

At each interior node the scheme couples the nonuniform-mesh fractional
derivative with the compact spatial operators:

    A (sum_k B_{n-k} (u^k - u^{k-1})) = kappa D f(u^n) + kappa eps^2 D v^n
                                        + (A g)(., t_n),
    A v^n = -D u^n,        f(u) = u^3 - u,

with zero Dirichlet values for u and v. Eliminating v and keeping the cubic
term lagged gives the fixed-point sweep

    L u^{(s+1)} = b(u^{(s)}),   L = B_0 A + K,
    K = kappa D + kappa eps^2 D A^{-1} D,
    b(u) = kappa D u^3 + A (B_0 u^{n-1} - hist) + A g^n,

started from u^{(0)} = u^{n-1} and stopped on a max-norm increment test.

A sweep takes one of two forms. Far from the fixed point it is the map of
the sine basis,

    u^{(s+1)} = S (w * (S b(u^{(s)}))),

with S the orthonormal DST-I matrix (sin(k pi i / M), symmetric and its own
inverse) and w_k = 1 / (B_0 a_k + kappa d_k + kappa eps^2 d_k^2 / a_k), where
a_k and d_k are the eigenvalues of A and D. A and D are diagonal in that
basis, so S diag(1 / w) S equals L in exact arithmetic. Once a sweep's
increment is at most _DENSE_BELOW * iteration_tol, the level's later
sweeps are residual corrections against L itself:

    r = b(u^{(s)}) - L u^{(s)},   u^{(s+1)} = u^{(s)} + S (w * (S r)),

the sweep u^{(s+1)} = L^{-1} b(u^{(s)}) up to a relative perturbation of L
near roundoff. L is the dense fl(B_0 A + K) with K from LAPACK, so a
converged level solves that matrix's equation to roundoff: the fixed point
is the one an LU solve of L reaches, not that of the sine-basis operator,
which differs from L by rounding. Only a sweep on L stops a level. A
sine-basis sweep whose increment is already at most iteration_tol, or is
not finite, is redone as a sweep on L from the same iterate, r still
holding b(u^{(s)}), and counts as one sweep. So every level ends on L's
map, takes the sweeps that L's sweep alone takes (up to a one-sweep flip
where an increment lands by rounding on the other side of the tolerance),
and raises NonconvergenceError where it would, with the same residual. If
max_iterations runs out while a level still sweeps in the sine basis, the
error carries that last sine-basis increment.

Why _DENSE_BELOW = 1e4. The two maps' fixed points differ by rounding, an
offset delta of about 1e-12 on the coarsening benchmark. Both maps contract
alike, so while the sweeps on L take the increment from 1e4 iteration_tol
down to iteration_tol they shrink the carried offset about as much, and
about delta / 1e4 is left at the stop. Sine-basis sweeps alone, stopped by
the same test, put that benchmark's seed-0 terminal state at 1.007 of its
output tolerance from the committed reference (ROADMAP item 1); with the
dense tail it is 0.126 of it, nearer than L's sweep alone (0.237). A smaller
factor buys little: at 1e3 or 1e2 the run-energy workload, two sweeps a
level, still sweeps in the sine basis when its second increment meets the
tolerance, and redoes 994 or 1000 of its 1000 second sweeps on L, while
coarsening's share of sine-basis sweeps rises only from 47 % to 60 % or
73 %. The dense tail, and with it L, leaves with the one re-baseline of
ROADMAP items 1 and 16.

Nothing is factored per level: w follows from B_0 in O(M). A and D are
tridiagonal and enter the march through compact_spatial's stencil: once
per level as A (B_0 u^{n-1} - hist) and A g, g the source on all M+1 nodes,
and in each sweep as kappa D u^3. A sweep is that stencil, three numpy
calls into a workspace made once per march, and two dense matrix-vector
products with S, plus L u on L, each by ndarray.dot into a preallocated
buffer (bitwise np.matmul, and cheaper per call); a sine-basis sweep's
second product with S writes the new iterate. The stencil gives the dense
products' values to roundoff, not bitwise.

K is built once. A^{-1} D is the run's one factorisation: LAPACK gesv
(getrf, then getrs) through numpy.linalg.solve. Its result is bitwise that
of scipy.linalg's lu_solve(lu_factor(A), D) (M = 8 to 1024, one and two BLAS
threads), and it is copied to Fortran order, the order getrs leaves, so
every product with it keeps its bits. solve calls it as
lu_solve(lu_factor(A), D) on module globals, so a tracer that rebinds them
sees both calls, though gesv does all the work inside lu_solve, and nothing
reads A after it. K's buffer then becomes L: each level writes
fl(K_ij + fl(a B_0)) on A's three diagonals only, a the diagonal's entry
from compact_spatial._A_ENTRIES, through three writable views of L's
diagonals, from copies of K's values on them saved once. That is bitwise
the full B_0 * A + K: off the band fl(0 B_0 + K_ij) = K_ij, because K holds
no -0.0: kappa D's zeros off the band are +0.0, a sum is -0.0 only when
both its terms are, and the floor below writes +0.0. Each sweep allocates
nothing; the new iterate goes into one of two buffers taken in turn, so
the increment can still read the old one. No right-hand side is screened:
a non-finite one (an overflowing cubic, a NaN source) comes back as a
non-finite increment, and the sweep's residual test turns that into
NonconvergenceError at the same level.

A^{-1} decays like 0.1^|i-j|, so K has a dense tail that falls toward
underflow: down to 2e-190 at M = 200, exact zeros and subnormals from
M = 400 on. Each L u multiplies that tail by the state, and products
below the normal range take a slow microcode assist per operation on
Intel x86 cores. solve therefore sets every entry of K below
2^-511 = sqrt(tiny) to exactly 0.0; A is tridiagonal, so these are the only
such entries of L. At the bench's M it buys no speed: with alpha = 0.4,
kappa = 0.01, eps = 0.1, a run at M = 200, graded N = 1000 took
0.109-0.122 s with the floor and 0.106-0.118 s without it, six alternating
runs each. At M = 1024, graded N = 100 (200 sweeps either way) it took
0.54-0.63 s with the floor and 0.59-0.67 s without it, medians 0.59 and
0.66 s over six alternating runs each; an earlier series of three each
overlapped, 0.57-0.65 s against 0.53-0.65 s (a shared 2-core AVX-512 Xeon,
one BLAS thread). No output moves: a zeroed entry's products with
state-sized values lie far below an ulp of the sums they join. The states
are bitwise those of the untruncated K at M = 200, 256 and 512; at M = 128
the smallest entry of K is about 1e-119, and nothing is zeroed.

A run holds two arrays the size of the run, the states U and the
increments dU that the history sum B @ dU reads. A lives only through
lu_solve, and set-up's peak comes there: A, D, gesv's result and its
Fortran-order copy, beside gesv's own copies of A and D. K is assembled in
the buffer of A^{-1} D, which becomes L, and the one (M-1)^2 temporary, D A^{-1} D,
holds |K| for the floor and then becomes S. The march keeps only L and S,
and of K the values on A's three diagonals, for L's rewrite. The stencils
read their operand from the cube buffer, the inside of a vector of M+1
entries whose two ends stay +0.0, so the first and last rows need no case
of their own. The post-run Lipschitz constant is taken in dU, which the
march is done with (_peak): dU[0] holds the work on U[0], then dU the work
on U[1:], so neither pass allocates anything the size of the run. Both
give the bits of their whole-array forms.

The level loop is one march, _March: it gives each level's KernelRow to
its caller once, right after U[n] and dU[n-1] are set. solve walks it with
diagnostics._march_terms, which feeds the modified energy's history terms
each level's row and new increment through dU and S, and the RunHistory
carries those terms, so solve and then diagnostics.energy_series build each
kernel row once. Every solve pays for the feed, the CLI's states-only
commands (tfch-convergence, manufactured) included. The feed reads the
march's arrays and writes none of them, so the states are those of the
march alone. At level n it costs two products with S, n dot products of
length M-1 and the history loop's length-n vector work, in vectors of
length N and M-1.

Step-size validators (fixed-point solvability, energy dissipation, first
step, post-run Lipschitz) are evaluated and reported as warnings; they never
abort a run.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Union

import numpy as np

from ._gamma import gamma
# kernel_row_B is unused here but stays importable: bench/spans.py wraps it.
from .caputo_l2 import (_RHO_STAR_ALPHA_MIN, kernel_row_B,  # noqa: F401
                        kernel_rows, q)
from .compact_spatial import (_A_ENTRIES, _D_ENTRIES, _dxx_entries,
                              _sine_matrix, _stencil, _tridiag_eigs,
                              _weights, _workspace, a_matrix, dxx_matrix)
from .diagnostics import _march_terms
from .temporal_mesh import TemporalMesh, _is_integer, validate_ratio_bound

__all__ = [
    "SolverConfig",
    "GridFunction",
    "RunHistory",
    "NonconvergenceError",
    "solve",
    "quartic_bump",
    "manufactured_solution",
    "manufactured_source",
    "first_step_bound",
    "solvability_step_bound",
    "energy_step_bound",
    "lipschitz_step_bound",
]

_BOUND_SLACK = 1e-12

# Entries of K below sqrt(tiny) = 2^-511 are set to exactly 0.0 (module
# docstring): their products with the states in L u would be subnormal.
_K_FLOOR = math.sqrt(np.finfo(np.float64).tiny)

# A level sweeps in the sine basis until an increment is at most
# _DENSE_BELOW * iteration_tol, then on L. The sweeps on L from there down
# to the tolerance shrink the sine-basis map's rounding offset from L's
# fixed point by about this factor, so the states stay on those of L's
# sweep alone (module docstring, "Why _DENSE_BELOW = 1e4").
_DENSE_BELOW = 1e4


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
    callable (x_array, t) -> values on the M+1 nodes x_array; solve raises
    ValueError on values of any other shape. initial is a callable
    x_array -> values on the M+1 nodes, refused like a source's otherwise;
    only its interior entries are read, and u^0's boundary values are zero,
    as the scheme pins them. alpha lies in [1e-15, 1): the step-ratio check
    takes rho_star(alpha), which refuses a smaller alpha.
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
        if self.alpha < _RHO_STAR_ALPHA_MIN:
            raise ValueError("alpha %r is below %r, the smallest alpha the "
                             "step-ratio check takes"
                             % (self.alpha, _RHO_STAR_ALPHA_MIN))
        for name in ("kappa", "epsilon", "iteration_tol"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError("%s must be finite" % name)
        if self.kappa <= 0.0 or self.epsilon <= 0.0:
            raise ValueError("kappa and epsilon must be positive")
        if not isinstance(self.mesh, TemporalMesh):
            raise TypeError("mesh must be a TemporalMesh")
        for name in ("M", "max_iterations"):
            if not _is_integer(getattr(self, name)):
                raise ValueError("%s must be an integer" % name)
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
class GridFunction:
    """One level of a run on the closed grid of the unit interval: values
    holds its M+1 nodal values, the two zero boundary values included.

    Only RunHistory.terminal makes one, and only
    bench/workloads.run_coarsening and the tests read that; the package
    itself pads U's rows with np.pad(U[n], 1). Both go once the benchmark
    reads U (ROADMAP item 2, stage A). eq is disabled: ndarray equality is
    elementwise.
    """

    values: np.ndarray

    @property
    def domain(self) -> tuple:
        return (0.0, 1.0)


@dataclass(frozen=True, eq=False)
class RunHistory:
    """Everything a finished run produced.

    U is the read-only (N+1, M-1) array of interior values that solve
    marched, row n holding u^n; the boundary values are zero at every level,
    u^0's included. terminal gives the last level as a zero-padded
    GridFunction, for bench/workloads.run_coarsening and the tests only
    (see GridFunction). violations maps validator name to the 1-based
    levels whose step exceeded that bound; empty tuples mean the run
    satisfied the corresponding sufficient condition.

    history_terms is the read-only length-(N+1) array of the modified
    energy's history terms that solve recorded while it marched (entry 0
    nan), which diagnostics.energy_series adds to the free energies. It is
    not an __init__ argument: a history built by hand, or by
    dataclasses.replace, holds None there, so its states never meet the
    terms of other states, and energy_series computes them from its states.
    """

    config: SolverConfig
    U: np.ndarray
    iterations: np.ndarray
    residuals: np.ndarray
    violations: dict
    lipschitz_constant: float
    lipschitz_limit: float
    history_terms: np.ndarray = field(default=None, init=False, repr=False)

    @property
    def mesh(self) -> TemporalMesh:
        return self.config.mesh

    @property
    def terminal(self) -> GridFunction:
        return GridFunction(values=np.pad(self.U[-1], 1))


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


def lu_factor(a: np.ndarray) -> np.ndarray:
    """The factorisation handle lu_solve takes: a itself.

    No work happens here: gesv inside lu_solve factors a and solves in one
    LAPACK call. The pair stays so that solve's one factorisation is seen
    as a factor call and a solve call.
    """
    return a


def lu_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a^{-1} b for a from lu_factor, in Fortran order.

    gesv does all the work (getrf, then getrs, via numpy.linalg.solve); the
    result is bitwise scipy.linalg.lu_solve(scipy.linalg.lu_factor(a), b)
    and, like that, Fortran-ordered.
    """
    return np.asfortranarray(np.linalg.solve(a, b))


def _source_values(config: SolverConfig, x_full: np.ndarray, t: float) -> np.ndarray:
    if config.source is None:
        return np.zeros_like(x_full)
    if config.source == "manufactured":
        return manufactured_source(x_full, t, config.alpha, config.kappa,
                                   config.epsilon)
    g = np.asarray(config.source(x_full, t), dtype=float)
    if g.shape != x_full.shape:
        raise ValueError("source values have wrong shape")
    return g


def _initial_values(config: SolverConfig, x_full: np.ndarray) -> np.ndarray:
    u0 = np.asarray(config.initial(x_full), dtype=float)
    if u0.shape != x_full.shape:
        raise ValueError("initial data has wrong shape")
    return u0


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


def _peak(u: np.ndarray, out: np.ndarray) -> float:
    """max |f'(u)| = max |3u^2 - 1| over u, worked out in out, an array of
    u's shape that it overwrites.

    Bitwise np.max(np.abs(3.0 * u ** 2 - 1.0)), each entry by the same
    operations in the same order, without that expression's two temporaries
    the size of u. A nan in u gives nan.
    """
    np.square(u, out=out)
    out *= 3.0
    out -= 1.0
    return float(np.max(np.abs(out, out=out)))


class _March:
    """The scheme's march over the mesh, one level at a time.

    Construction does the set-up: the step-ratio warning, the matrices and
    the arrays of the run. Of the (M-1)^2 matrices it keeps the step matrix
    L and the sine matrix S; A and D leave with the constructor. levels()
    holds the march's buffers as its locals. It applies A and kappa D with
    compact_spatial._stencil to a zero-ended pad, through weights and a
    workspace made once per march: each level puts B0 u^{n-1} - hist in
    the pad's inside, the cube buffer, for A, and each sweep u^3 for
    kappa D, then reuses it for the correction and the increment. Each
    level sweeps in the sine basis, S (w * (S b(u))) written straight into
    the next iterate's buffer, until an increment is at most
    _DENSE_BELOW * iteration_tol, then corrects the residual of L; only a
    sweep on L stops the level, so a sine-basis sweep whose increment is
    within the tolerance or not finite is redone on L from the same iterate
    (module docstring). levels() marches and yields each level's KernelRow
    once, right after U[n] and dU[n-1] are set, so a caller can read the
    new increment beside the earlier ones while the row is at hand.
    Run it to its end before history(), which takes the Lipschitz constant
    in dU's buffer and returns the RunHistory that solve returns; dU holds
    no increments after that. A caller may read U, dU and the sine matrix S
    but must not write them.
    """

    def __init__(self, config: SolverConfig):
        mesh = config.mesh
        alpha, kappa, eps = config.alpha, config.kappa, config.epsilon
        report = validate_ratio_bound(mesh, alpha)
        if not report.ok:
            warnings.warn(
                "step-ratio bound fails at %d of %d steps (first at k=%d); "
                "the energy analysis does not cover this mesh"
                % (len(report.offenders), mesh.N, report.offenders[0]),
                RuntimeWarning, stacklevel=3)

        M, h = config.M, config.h
        u0 = _initial_values(config, np.linspace(0.0, 1.0, M + 1))
        m = M - 1
        D = dxx_matrix(M)
        # K = kappa D + kappa eps^2 D (A^{-1} D) in A^{-1} D's buffer, which
        # becomes the step matrix L; the one (M-1)^2 temporary becomes S
        L = lu_solve(lu_factor(a_matrix(M)), D)
        S = D @ L
        S *= kappa * eps ** 2
        np.multiply(D, kappa, out=L)
        L += S
        L[np.abs(L, out=S) < _K_FLOOR] = 0.0
        _sine_matrix(S)
        # each of A's three diagonals as (A's entry, K's values there, a
        # writable view of L there); einsum's views alias L whatever its
        # memory order
        off, diag = _A_ENTRIES
        self.band = [(e, view.copy(), view) for e, view in (
            (off, np.einsum("ii->i", L[1:, :-1])),
            (diag, np.einsum("ii->i", L)),
            (off, np.einsum("ii->i", L[:-1, 1:])))]
        # S diag(1 / (B0 a + k)) S is the inverse of B0 A + K in exact
        # arithmetic
        self.a = a = _tridiag_eigs(*_A_ENTRIES, m)
        d = _tridiag_eigs(*_D_ENTRIES, m) / (h * h)
        self.config = config
        self.L, self.S = L, S
        self.k = kappa * d + kappa * eps ** 2 * (d * d / a)

        N = mesh.N
        self.U = np.empty((N + 1, m))
        self.U[0] = u0[1:-1]
        self.dU = np.empty((N, m))
        self.iterations = np.zeros(N, dtype=int)
        self.residuals = np.zeros(N)
        self.violations = _step_violations(config)

    def levels(self):
        """March every level in order; yield its KernelRow once U[n] and
        dU[n-1] hold it.

        Raises NonconvergenceError if an inner sweep exhausts
        max_iterations.
        """
        config = self.config
        mesh, source = config.mesh, config.source
        x_full = np.linspace(0.0, 1.0, config.M + 1)
        tol, max_iterations = config.iteration_tol, config.max_iterations
        dense_below = _DENSE_BELOW * tol
        L_dot, S_dot = self.L.dot, self.S.dot
        multiply, add, subtract = np.multiply, np.add, np.subtract
        divide, absolute, max_of = np.divide, np.abs, np.maximum.reduce
        band, a, k = self.band, self.a, self.k
        U, dU = self.U, self.dU
        iterations, residuals = self.iterations, self.residuals
        m = U.shape[1]
        # the stencils' operand between two zeros: B0 u^{n-1} - hist once
        # per level, then u^3, the correction and the increment in each
        # sweep; the source's M+1 values have its shape
        pad = np.zeros(m + 2)
        cube = pad[1:-1]
        work = _workspace(pad.shape)
        A_weights = _weights(_A_ENTRIES, pad)
        # fl(kappa fl(1/h^2)): the bits of kappa D's entries
        D_weights = _weights(tuple(config.kappa * e
                                   for e in _dxx_entries(config.h)), pad)
        r = np.empty(m)
        # L u, then the sine coefficients of the correction, or of the next
        # iterate in a sine-basis sweep
        y = np.empty(m)
        hist = np.empty(m)
        const = np.empty(m)
        w = np.empty(m)
        u_bufs = (np.empty(m), np.empty(m))

        for row in kernel_rows(mesh, config.alpha):
            n, B = row.level, row.B
            B0 = B[n - 1]
            B[: n - 1].dot(dU[: n - 1], out=hist)
            multiply(U[n - 1], B0, out=cube)
            cube -= hist
            _stencil(A_weights, pad, const, work)
            # the zero source's A g is +0.0: adding it turns a -0.0 in const
            # into +0.0, as adding an averaged source term does
            const += 0.0 if source is None else _stencil(
                A_weights, _source_values(config, x_full, mesh.nodes[n]),
                y, work)
            # L = B0 A + K on A's band; w = 1 / (B0 a + k)
            for e, K_d, L_d in band:
                add(K_d, e * B0, out=L_d)
            multiply(a, B0, out=w)
            w += k
            divide(1.0, w, out=w)

            u_s = U[n - 1]
            spectral = True
            for s in range(max_iterations):
                multiply(u_s, u_s, out=cube)
                cube *= u_s
                _stencil(D_weights, pad, r, work)
                r += const
                if spectral:
                    S_dot(r, out=y)
                    y *= w
                    u_next = S_dot(y, out=u_bufs[s % 2])
                    subtract(u_next, u_s, out=cube)
                    res = max_of(absolute(cube, out=cube))
                    if tol < res < math.inf:
                        spectral = res > dense_below
                        u_s = u_next
                        continue
                    # a sine-basis sweep may not stop a level: redo it on
                    # L from the same u_s, r still holding b(u_s)
                    spectral = False
                r -= L_dot(u_s, out=y)
                S_dot(r, out=y)
                y *= w
                S_dot(y, out=cube)
                # neither form writes u_s's buffer: the increment reads u_s
                u_next = add(u_s, cube, out=u_bufs[s % 2])
                subtract(u_next, u_s, out=cube)
                res = max_of(absolute(cube, out=cube))
                u_s = u_next
                if res <= tol:
                    iterations[n - 1] = s + 1
                    residuals[n - 1] = res
                    break
                if not res < math.inf:
                    # NaN or inf: the cubic overflowed or the data is not
                    # finite, and the residual carried it through to the
                    # increment
                    raise NonconvergenceError(n, math.inf, max_iterations)
            else:
                raise NonconvergenceError(n, float(res), max_iterations)
            U[n] = u_s
            subtract(u_s, U[n - 1], out=dU[n - 1])
            yield row

    def history(self, terms: np.ndarray) -> RunHistory:
        """The finished run: the post-run Lipschitz validator, the warnings
        of every breached bound, the read-only states, and terms, the
        modified energy's history terms, as its history_terms."""
        config, U = self.config, self.U
        mesh = config.mesh
        alpha, kappa, eps = config.alpha, config.kappa, config.epsilon
        violations = self.violations
        # dU is dead once the march is over
        lip = max(_peak(U[0], self.dU[0]), _peak(U[1:], self.dU))
        lip_limit = lipschitz_step_bound(alpha, kappa, eps, lip)
        violations["lipschitz"] = _levels(
            mesh.steps > lip_limit * (1.0 + _BOUND_SLACK), 1)

        for kind, levels in violations.items():
            if levels:
                warnings.warn(
                    "%s step bound exceeded at %d of %d steps (first at "
                    "n=%d); the corresponding sufficient condition is not "
                    "certified" % (kind, len(levels), mesh.N, levels[0]),
                    RuntimeWarning, stacklevel=3)

        U.flags.writeable = False
        run = RunHistory(
            config=config,
            U=U,
            iterations=self.iterations,
            residuals=self.residuals,
            violations={k: tuple(v) for k, v in violations.items()},
            lipschitz_constant=lip,
            lipschitz_limit=lip_limit,
        )
        terms.flags.writeable = False
        # the one field __init__ does not take; the class is frozen
        object.__setattr__(run, "history_terms", terms)
        return run


def solve(config: SolverConfig) -> RunHistory:
    """March the scheme over the whole mesh and collect diagnostics,
    the modified energy's history terms among them (RunHistory).

    Raises NonconvergenceError if an inner sweep exhausts max_iterations.
    Validator breaches are warnings only: the counts land in
    RunHistory.violations.
    """
    march = _March(config)
    return march.history(_march_terms(march))
