"""Acceptance gate: one test per stated deliverable criterion.

Each test prints a single line of the form

    criterion N (<name>): PASS|FAIL - <measurements>

(visible under pytest -s, or in the captured-output block of a failure).
Reference error/order tables are the published 3-significant-digit values;
tolerances are the stated ones and are not to be loosened. The mass
criterion cannot be met by this formulation (the failure message explains
why and points at the test that proves it); it fails honestly.
"""

import time
import warnings

import numpy as np
import pytest

from tfch.caputo_l2 import q2, rho_bar, rho_star
from tfch.cli import _caputo_error
from tfch.diagnostics import convergence_order, energy_series
from tfch.temporal_mesh import build_graded_cubic
from tfch.tfch_solver import (
    SolverConfig,
    first_step_bound,
    manufactured_solution,
    quartic_bump,
    solve,
)
from tfch._verification import run_verification_suite

# published benchmark table: worst nodal error of the marched t^{3+alpha}
# benchmark on the graded cubic mesh, N = 250..4000, with observed orders
_DERIVATIVE_TABLE = {
    0.3: ([3.89e-06, 5.72e-07, 8.36e-08, 1.22e-08, 1.80e-09],
          [2.77, 2.77, 2.77, 2.77]),
    0.5: ([2.25e-05, 3.98e-06, 6.99e-07, 1.23e-07, 2.15e-08],
          [2.50, 2.51, 2.51, 2.51]),
    0.7: ([9.30e-05, 1.91e-05, 3.91e-06, 7.96e-07, 1.62e-07],
          [2.28, 2.29, 2.30, 2.30]),
    0.9: ([3.19e-04, 7.58e-05, 1.78e-05, 4.18e-06, 9.78e-07],
          [2.07, 2.09, 2.09, 2.10]),
}
_DERIVATIVE_NS = [250, 500, 1000, 2000, 4000]

# published self-convergence table: terminal max error against the N0=200
# reference at M=60, kappa=0.01, epsilon=0.1, N = 15,18,21,24
_SOLVER_TABLE = {
    0.3: ([6.09e-07, 3.66e-07, 2.40e-07, 1.68e-07], [2.796, 2.738, 2.677]),
    0.5: ([1.77e-06, 1.12e-06, 7.54e-07, 5.40e-07], [2.522, 2.547, 2.498]),
    0.7: ([2.50e-06, 1.62e-06, 1.13e-06, 8.18e-07], [2.369, 2.382, 2.387]),
    0.9: ([1.30e-06, 8.84e-07, 6.36e-07, 7.76e-07], [2.130, 2.139, 2.160]),
}
_SOLVER_NS = [15, 18, 21, 24]

# the four mass/energy experiment parameter sets (kappa, epsilon, M, N)
_EXAMPLE_SETS = (
    (0.01, 0.1, 60, 200),
    (0.01, 0.1, 100, 200),
    (0.01, 0.1, 60, 100),
    (0.01, 0.5, 60, 200),
)
_EXAMPLE_ALPHAS = (0.2, 0.4, 0.6, 0.8)


def _report(num, name, ok, detail):
    print("criterion %d (%s): %s - %s"
          % (num, name, "PASS" if ok else "FAIL", detail))


def _solve_quiet(cfg):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return solve(cfg)


@pytest.fixture(scope="module")
def example_runs():
    """All sixteen energy/mass runs, shared by criteria 3 and 4."""
    runs = {}
    for params in _EXAMPLE_SETS:
        kappa, eps, M, N = params
        for alpha in _EXAMPLE_ALPHAS:
            cfg = SolverConfig(alpha=alpha, kappa=kappa, epsilon=eps,
                               mesh=build_graded_cubic(N, 1.0), M=M,
                               initial=quartic_bump)
            hist = _solve_quiet(cfg)
            runs[(params, alpha)] = (cfg, hist, energy_series(hist))
    return runs


def test_criterion_1_derivative_benchmark_table():
    start = time.perf_counter()
    worst_err_dev = 0.0
    worst_order_dev = 0.0
    meshes = [build_graded_cubic(N, 1.0) for N in _DERIVATIVE_NS]
    for alpha, (ref_errors, ref_orders) in _DERIVATIVE_TABLE.items():
        errors = [_caputo_error(alpha, mesh) for mesh in meshes]
        orders = convergence_order(errors, _DERIVATIVE_NS)
        for got, ref in zip(errors, ref_errors):
            worst_err_dev = max(worst_err_dev, abs(got - ref) / ref)
        for got, ref in zip(orders, ref_orders):
            worst_order_dev = max(worst_order_dev, abs(got - ref))
    elapsed = time.perf_counter() - start
    ok = worst_err_dev <= 0.10 and worst_order_dev <= 0.05 and elapsed < 120.0
    _report(1, "derivative benchmark table", ok,
            "max error deviation %.3f%%, max order deviation %.4f, %.1fs"
            % (100.0 * worst_err_dev, worst_order_dev, elapsed))
    assert worst_err_dev <= 0.10, \
        "benchmark errors deviate %.2f%% from the published table (max 10%%)" \
        % (100.0 * worst_err_dev)
    assert worst_order_dev <= 0.05, \
        "benchmark orders deviate %.4f from the published table (max 0.05)" \
        % worst_order_dev
    assert elapsed < 120.0, "benchmark table took %.0fs (budget 120s)" % elapsed


def test_criterion_2_solver_self_convergence_table():
    start = time.perf_counter()
    worst_ratio = 1.0
    worst_order_dev = 0.0
    for alpha, (ref_errors, ref_orders) in _SOLVER_TABLE.items():
        def make_cfg(N):
            return SolverConfig(alpha=alpha, kappa=0.01, epsilon=0.1,
                                mesh=build_graded_cubic(N, 1.0), M=60,
                                initial=quartic_bump)
        ref = _solve_quiet(make_cfg(200)).terminal.values
        errors = []
        for N in _SOLVER_NS:
            term = _solve_quiet(make_cfg(N)).terminal.values
            errors.append(float(np.max(np.abs((term - ref)[1:-1]))))
        orders = convergence_order(errors, _SOLVER_NS)
        for got, ref_e in zip(errors, ref_errors):
            worst_ratio = max(worst_ratio, got / ref_e, ref_e / got)
        for got, ref_o in zip(orders, ref_orders):
            worst_order_dev = max(worst_order_dev, abs(got - ref_o))
    elapsed = time.perf_counter() - start
    ok = worst_ratio <= 2.0 and worst_order_dev <= 0.3
    _report(2, "solver self-convergence table", ok,
            "max error ratio %.2f, max order deviation %.3f, %.1fs"
            % (worst_ratio, worst_order_dev, elapsed))
    assert worst_ratio <= 2.0, \
        "solver errors off the published table by %.2fx (max 2x)" % worst_ratio
    assert worst_order_dev <= 0.3, \
        "solver orders deviate %.3f from the published table (max 0.3)" \
        % worst_order_dev


def test_criterion_3_energy_dissipation(example_runs):
    worst_gap = -np.inf
    worst_first = -np.inf
    for (params, alpha), (cfg, hist, series) in example_runs.items():
        if params != _EXAMPLE_SETS[0]:
            continue
        em = series.modified_energy
        gaps = em[2:] - em[1:-1] - 1e-12 * np.maximum(1.0, np.abs(em[1:-1]))
        worst_gap = max(worst_gap, float(gaps.max()))
        # tau_1 satisfies the one-step bound at these settings, so the
        # plain-energy drop at the first level is also required
        assert cfg.mesh.steps[0] <= first_step_bound(alpha, cfg.kappa,
                                                     cfg.epsilon)
        worst_first = max(worst_first,
                          series.free_energy[1] - series.free_energy[0])
    ok = worst_gap <= 0.0 and worst_first <= 0.0
    _report(3, "energy dissipation", ok,
            "worst modified-energy increase %.3e (tolerance 0), "
            "worst E1-E0 %.3e" % (worst_gap, worst_first))
    assert worst_gap <= 0.0, \
        "modified energy rose by %.3e beyond the 1e-12 allowance" % worst_gap
    assert worst_first <= 0.0, \
        "free energy rose %.3e over the first step despite the step bound" \
        % worst_first


def test_criterion_4_mass_conservation(example_runs):
    per_set = {}
    for (params, alpha), (cfg, hist, series) in example_runs.items():
        drift = float(np.max(np.abs(series.mass - series.mass[0])))
        per_set[params] = max(per_set.get(params, 0.0), drift)
    worst = max(per_set.values())
    ok = worst <= 1e-9
    _report(4, "mass conservation", ok,
            "max |mass drift| %.3e (tolerance 1e-9)" % worst)
    if not ok:
        lines = ["mass drift exceeds 1e-9 in every parameter set:"]
        for params, drift in per_set.items():
            kappa, eps, M, N = params
            lines.append(
                "  kappa=%g epsilon=%g M=%d N=%d: max drift %.3e"
                % (kappa, eps, M, N, drift))
        lines.append(
            "This scheme pins u = 0 at both ends, and summing its update "
            "equation shows the kernel-weighted mass increments equal "
            "h 1^T A^{-1}(kappa D mu^n), the boundary flux of the chemical "
            "potential mu = f(u) - eps^2 A^{-1}D u. That flux is nonzero "
            "for the bump data, so mass moves by design; the identity is "
            "verified to 1e-8 in tests/test_tfch_solver.py::TestMassBalance::"
            "test_mass_drift_equals_accumulated_flux. A 1e-9 drift bound "
            "would need flux-free boundary conditions, which this "
            "formulation does not have.")
        pytest.fail("\n".join(lines), pytrace=False)


def test_criterion_5_manufactured_solution():
    start = time.perf_counter()
    errs = {}
    for alpha in (0.1, 0.3, 0.6, 0.9):
        cfg = SolverConfig(alpha=alpha, kappa=0.01, epsilon=0.1,
                           mesh=build_graded_cubic(200, 1.0), M=60,
                           source="manufactured",
                           initial=lambda x: np.zeros_like(x))
        hist = _solve_quiet(cfg)
        exact = manufactured_solution(np.linspace(0.0, 1.0, 61), 1.0, alpha)
        errs[alpha] = float(np.max(np.abs(hist.terminal.values - exact)))
    worst = max(errs.values())

    spatial = []
    for M in (16, 32, 64):
        cfg = SolverConfig(alpha=0.3, kappa=0.01, epsilon=0.1,
                           mesh=build_graded_cubic(800, 1.0), M=M,
                           source="manufactured",
                           initial=lambda x: np.zeros_like(x))
        hist = _solve_quiet(cfg)
        exact = manufactured_solution(np.linspace(0.0, 1.0, M + 1), 1.0, 0.3)
        spatial.append(float(np.max(np.abs(hist.terminal.values - exact))))
    ratios = [spatial[i] / spatial[i + 1] for i in range(2)]
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-3 and all(12.0 <= r <= 20.0 for r in ratios)
    _report(5, "manufactured solution", ok,
            "max terminal error %.3e (tolerance 1e-3), spatial ratios "
            "%.2f/%.2f (window [12,20]), %.1fs"
            % (worst, ratios[0], ratios[1], elapsed))
    assert worst <= 1e-3, \
        "terminal error %.3e exceeds 1e-3 (per alpha: %s)" % (worst, errs)
    for r in ratios:
        assert 12.0 <= r <= 20.0, \
            "spatial error-reduction ratio %.2f outside [12, 20] " \
            "(errors %s)" % (r, spatial)


def test_criterion_6_analytical_constants():
    r1 = rho_star(1.0)
    rb, ab = rho_bar()
    margin = q2(4.7476114, 0.82265)
    ok = (abs(r1 - 4.864) <= 1e-2
          and abs(rb - 4.7476114) <= 1e-4
          and abs(ab - 0.82265) <= 1e-4
          and 0.0 < margin < 1e-6)
    _report(6, "analytical constants", ok,
            "rho_star(1)=%.6f, fixed point (%.7f, %.5f), "
            "q2 margin %.3e" % (r1, rb, ab, margin))
    assert abs(r1 - 4.864) <= 1e-2
    assert abs(rb - 4.7476114) <= 1e-4
    assert abs(ab - 0.82265) <= 1e-4
    assert 0.0 < margin < 1e-6


def test_criterion_7_verification_suite():
    start = time.perf_counter()
    results = run_verification_suite(0)
    elapsed = time.perf_counter() - start
    hard = [r for r in results if not r.warning]
    failed = [r for r in hard if not r.passed]
    ok = not failed and elapsed < 60.0
    _report(7, "verification suite", ok,
            "%d/%d hard checks passed (+%d advisory), %.1fs"
            % (len(hard) - len(failed), len(hard),
               len(results) - len(hard), elapsed))
    assert not failed, "failed checks: %s" % ", ".join(r.name for r in failed)
    assert elapsed < 60.0, "suite took %.0fs (budget 60s)" % elapsed
