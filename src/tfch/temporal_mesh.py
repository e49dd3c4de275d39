"""Nonuniform temporal meshes for variable-step fractional time stepping.

The main builder is the graded cubic mesh with steps proportional to
(2k+1)^3, which packs points near t=0 where fractional problems lose
regularity while keeping every step ratio at or below (5/3)^3 < 4.7476114.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._fmt import write_csv

__all__ = [
    "TemporalMesh",
    "RatioBoundReport",
    "build_graded_cubic",
    "build_uniform",
    "build_custom",
    "validate_ratio_bound",
    "write_mesh_csv",
]

# float slack on ratio comparisons so rho_k = 1 - ulp (uniform meshes) passes
RATIO_SLACK = 1e-12


@dataclass(frozen=True, eq=False)
class TemporalMesh:
    """Time levels t_0 = 0 < t_1 < ... < t_N with steps and step ratios.

    steps[k-1] is tau_k and is bit-identical to nodes[k] - nodes[k-1]: kernel
    formulas divide by tau_k while subtracting nodes, and a 1-ulp mismatch
    between the two gets amplified by (t_n/tau_k)^2 in second-difference
    kernels, so (nodes, steps) must be one consistent pair.

    ratios[k-1] is rho_k = tau_k/tau_{k-1}; rho_1 is stored as 0 and is never
    consumed by kernel formulas, which start ratio usage at k = 2.
    """

    nodes: np.ndarray
    steps: np.ndarray
    ratios: np.ndarray

    @property
    def N(self) -> int:
        return len(self.steps)

    @property
    def horizon(self) -> float:
        return float(self.nodes[-1])

    @property
    def tau_max(self) -> float:
        return float(self.steps.max())


def _finalize(nodes: np.ndarray) -> TemporalMesh:
    if not np.isfinite(nodes).all():
        raise ValueError("nodes must be finite")
    steps = np.diff(nodes)
    if not (steps > 0.0).all():
        raise ValueError("nodes must be strictly increasing")
    ratios = np.empty_like(steps)
    ratios[0] = 0.0
    ratios[1:] = steps[1:] / steps[:-1]
    for arr in (nodes, steps, ratios):
        arr.setflags(write=False)
    return TemporalMesh(nodes=nodes, steps=steps, ratios=ratios)


def _is_integer(x) -> bool:
    """x is a Python or numpy integer, and not a bool (True is an int)."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _check_N_T(N, T) -> None:
    if not _is_integer(N) or N < 1:
        raise ValueError("N must be a positive integer")
    if not (T > 0.0 and np.isfinite(T)):
        raise ValueError("T must be finite and positive")


def build_graded_cubic(N: int, T: float) -> TemporalMesh:
    """Mesh with tau_k = (2k+1)^3 T / (N(N+2)(2N^2+4N+3)).

    The denominator equals sum_{k=1}^{N} (2k+1)^3, so the steps sum to T with
    no renormalization. Nodes come from the exact integer partial sums
    P_k = (k+1)^2 (2(k+1)^2 - 1) - 1 of the odd cubes, one rounding per node,
    which also pins t_N to T exactly.

    Every ratio satisfies 1 < rho_k = ((2k+1)/(2k-1))^3 <= (5/3)^3, below the
    admissibility threshold of the kernel theory for every order alpha.
    """
    _check_N_T(N, T)
    # Python ints: partial sums grow like 2k^4 and must stay exact
    P = [(k + 1) ** 2 * (2 * (k + 1) ** 2 - 1) - 1 for k in range(N + 1)]
    D = P[N]
    nodes = np.array([(p / D) * T for p in P], dtype=float)
    nodes[0] = 0.0
    return _finalize(nodes)


def build_uniform(N: int, T: float) -> TemporalMesh:
    """Constant-step baseline mesh: tau_k = T/N, rho_k = 1."""
    _check_N_T(N, T)
    return _finalize(np.linspace(0.0, T, N + 1))


def build_custom(steps) -> TemporalMesh:
    """Mesh from an explicit list of finite positive steps.

    Nodes are the cumulative sums; the stored steps are then re-derived from
    the nodes (differing from the input by at most 1 ulp each) so that the
    node/step consistency contract holds for kernel consumers.
    """
    steps = np.asarray(steps, dtype=float)
    if steps.ndim != 1 or len(steps) == 0:
        raise ValueError("steps must be a non-empty 1-D sequence")
    if not ((steps > 0.0) & np.isfinite(steps)).all():
        raise ValueError("every step must be finite and positive")
    with np.errstate(over="ignore"):  # _finalize rejects an infinite node
        nodes = np.concatenate(([0.0], np.cumsum(steps)))
    return _finalize(nodes)


@dataclass(frozen=True)
class RatioBoundReport:
    """Outcome of checking 1 <= rho_k <= rho_star(alpha) for k >= 2.

    rho_star is the threshold the ratios were checked against; offenders
    holds, in increasing order, every 1-based k whose ratio lies outside
    [1, rho_star] by more than the relative slack RATIO_SLACK.
    """

    rho_star: float
    offenders: tuple[int, ...]

    @property
    def ok(self) -> bool:
        return len(self.offenders) == 0


def validate_ratio_bound(mesh: TemporalMesh, alpha: float) -> RatioBoundReport:
    """Check every step ratio against the admissibility threshold rho_star.

    Comparisons carry a 1e-12 relative slack on both ends so that ratios equal
    to 1 up to roundoff (uniform meshes) do not trip the lower bound.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0,1)")
    from .caputo_l2 import rho_star as _rho_star

    rs = _rho_star(alpha)
    rho = mesh.ratios[1:]
    passed = (rho >= 1.0 - RATIO_SLACK) & (rho <= rs * (1.0 + RATIO_SLACK))
    offenders = tuple(int(k) for k in np.nonzero(~passed)[0] + 2)
    return RatioBoundReport(rho_star=rs, offenders=offenders)


def write_mesh_csv(mesh: TemporalMesh, target) -> None:
    """Emit `k,t_k,tau_k,rho_k`, one row per k = 0..N (tau_0, rho_0 empty)."""
    rows = [(0, mesh.nodes[0], "", "")]
    rows += [(k, mesh.nodes[k], mesh.steps[k - 1], mesh.ratios[k - 1])
             for k in range(1, mesh.N + 1)]
    write_csv(target, "k,t_k,tau_k,rho_k", rows)
