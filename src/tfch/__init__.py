"""Time-fractional Cahn-Hilliard toolkit.

Nonuniform-mesh Caputo kernels, a fourth-order compact spatial discretization,
the coupled solver, and the energy/mass diagnostics behind the experiment CLI.
"""

from .temporal_mesh import (
    TemporalMesh,
    build_custom,
    build_graded_cubic,
    build_uniform,
    validate_ratio_bound,
)
from .caputo_l2 import (
    RHO_BAR,
    KernelRow,
    apply_caputo,
    coeffs_cd,
    kernel_row,
    kernel_row_B,
    kernel_row_J,
    kernel_row_split,
    kernel_rows,
    q,
    q2,
    q3,
    rho_bar,
    rho_star,
    solve_linear_fode,
    theta,
    truncation_bound,
)
from .compact_spatial import (
    GridFunction,
    apply_A,
    apply_A_inv,
    apply_H,
    apply_dxx,
    apply_negH_inv,
    inner,
    inner_negH,
    norm_gradH,
    norm_inf,
    norm_l2,
    sample,
)
from .tfch_solver import (
    NonconvergenceError,
    RunHistory,
    SolverConfig,
    manufactured_solution,
    manufactured_source,
    quartic_bump,
    reference_solution,
    solve,
)
from .diagnostics import (
    EnergySeries,
    convergence_order,
    energy_series,
    free_energy,
    mass,
    modified_energy,
)

__version__ = "0.1.0"
