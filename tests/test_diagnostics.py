"""Energy, mass, and kernel-structure observables.

The frozen free-energy value is cross-checked against a 30-digit quadrature
of the continuum functional: the discrete double well omits the boundary
half-weights, and adding 0.25 h (the omitted (0^2-1)^2 contributions) back
reproduces the continuum energy of the bump to 1e-12.
"""

import dataclasses
import io
import os
import pickle
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg
from scipy.special import gamma

from tfch.caputo_l2 import kernel_row_J
from tfch.compact_spatial import a_matrix, dxx_matrix, sample
from tfch.diagnostics import (
    G_functional,
    convergence_order,
    dgs_identity_check,
    energy_series,
    free_energy,
    kernel_property_check,
    mass,
    modified_energy,
    write_energy_csv,
    write_mass_csv,
)
from tfch.temporal_mesh import build_custom, build_graded_cubic
from tfch.tfch_solver import RunHistory, SolverConfig, quartic_bump, solve

# continuum E[u] = (eps^2/2) int u_x^2 + (1/4) int (u^2-1)^2 for the quartic
# bump at eps = 0.1, quadrature at 30 digits
_CONTINUUM_BUMP_ENERGY = 0.24999815871664462


def _small_run(alpha=0.4, N=12, M=12):
    cfg = SolverConfig(alpha=alpha, kappa=0.01, epsilon=0.1,
                       mesh=build_graded_cubic(N, 1.0), M=M,
                       initial=quartic_bump)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return solve(cfg)


def _random_history(config, seed):
    """A RunHistory of uniform random states in [-1, 1] on config's grid,
    one per level of its mesh, without a solve."""
    N = config.mesh.N
    U = np.random.default_rng(seed).uniform(-1.0, 1.0, (N + 1, config.M - 1))
    return RunHistory(config=config, U=U,
                      iterations=np.zeros(N, dtype=int), residuals=np.zeros(N),
                      violations={}, lipschitz_constant=0.0,
                      lipschitz_limit=0.0)


def _graded_config(N, M):
    return SolverConfig(alpha=0.5, kappa=0.01, epsilon=0.1,
                        mesh=build_graded_cubic(N, 1.0), M=M,
                        initial=quartic_bump)


# Runs in a child process: energy_series of a pickled history, saved as npz.
_SERIES_PROBE = """
import pickle, sys
import numpy as np
from tfch.diagnostics import energy_series
with open(sys.argv[1], "rb") as f:
    series = energy_series(pickle.load(f))
np.savez(sys.argv[2], free_energy=series.free_energy,
         modified_energy=series.modified_energy, mass=series.mass)
"""


class TestMassAndEnergy:
    def test_mass_includes_boundary_halves(self):
        g = sample(lambda x: np.ones_like(x), 60)
        assert mass(g) == pytest.approx(1.0, rel=1e-14)

    def test_mass_of_parabola_matches_closed_form(self):
        # trapezoid rule on x(1-x) has the exact value 1/6 - h^2/6
        g = sample(lambda x: x * (1.0 - x), 60)
        h = 1.0 / 60.0
        assert mass(g) == pytest.approx(1.0 / 6.0 - h * h / 6.0, rel=1e-13)
        assert abs(mass(g) - 1.0 / 6.0) < 5e-5

    def test_bump_free_energy_frozen_value(self):
        g = sample(quartic_bump, 60)
        E0 = free_energy(g, 0.1)
        assert E0 == pytest.approx(0.24583149204930882, rel=1e-12)

    def test_bump_free_energy_consistent_with_continuum(self):
        g = sample(quartic_bump, 60)
        E0 = free_energy(g, 0.1)
        assert E0 + 0.25 * g.h == pytest.approx(_CONTINUUM_BUMP_ENERGY,
                                                abs=1e-9)

    def test_free_energy_of_zero_state(self):
        M = 10
        g = sample(lambda x: np.zeros_like(x), M)
        assert free_energy(g, 0.3) == pytest.approx(0.25 * g.h * (M - 1),
                                                    rel=1e-14)


class TestHistoryFunctional:
    def test_scalar_and_vector_histories_agree(self, graded_24):
        rng = np.random.default_rng(5)
        w = rng.standard_normal(9)
        mesh = build_custom(np.diff(graded_24.nodes[:10]) /
                            graded_24.nodes[9])
        scalar = G_functional(list(w), mesh, 0.5)
        vector = G_functional([np.array([v, 2.0 * v]) for v in w], mesh, 0.5)
        assert np.isscalar(scalar)
        assert vector.shape == (2,)
        assert vector[0] == pytest.approx(scalar, rel=1e-13)
        assert vector[1] == pytest.approx(4.0 * scalar, rel=1e-13)

    def test_nonnegative_on_admissible_meshes(self, graded_24):
        rng = np.random.default_rng(6)
        for trial in range(10):
            n = int(rng.integers(2, 25))
            w = rng.standard_normal(n + 1) * 3.0
            sub = build_custom(np.diff(graded_24.nodes[: n + 1]))
            assert G_functional(list(w), sub, 0.5) >= 0.0

    def test_requires_two_levels(self, graded_24):
        with pytest.raises(ValueError):
            G_functional([1.0], graded_24, 0.5)


class TestModifiedEnergy:
    def test_level_zero_is_nan_and_rest_finite(self):
        hist = _small_run()
        em = modified_energy(hist)
        assert np.isnan(em[0])
        assert np.isfinite(em[1:]).all()

    def test_dominates_free_energy(self):
        hist = _small_run()
        series = energy_series(hist)
        free = series.free_energy
        em = series.modified_energy
        assert (em[1:] >= free[1:] - 1e-12 * np.maximum(1.0,
                                                        np.abs(free[1:]))).all()

    def test_zero_run_collapses_to_free_energy(self):
        cfg = SolverConfig(alpha=0.5, kappa=0.01, epsilon=0.1,
                           mesh=build_graded_cubic(8, 1.0), M=8,
                           initial=lambda x: np.zeros_like(x))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            hist = solve(cfg)
        series = energy_series(hist)
        assert np.array_equal(series.modified_energy[1:],
                              series.free_energy[1:])

    def test_series_fields_are_aligned(self):
        hist = _small_run(N=10, M=10)
        series = energy_series(hist)
        N = hist.mesh.N
        assert np.array_equal(series.levels, np.arange(N + 1))
        assert np.array_equal(series.times, hist.mesh.nodes)
        assert series.free_energy.shape == (N + 1,)
        assert series.mass.shape == (N + 1,)
        for n in (0, N // 2, N):
            assert series.mass[n] == pytest.approx(mass(hist.state(n)),
                                                   rel=1e-14)

    def test_matches_dense_negative_norm_oracle(self):
        # On the solver run the history term is ~1e-7 of E; the same run with
        # random states makes it comparable to E, so both are checked.
        hist = _small_run(alpha=0.5, N=24, M=16)
        cfg, mesh, alpha = hist.config, hist.mesh, hist.config.alpha
        neg_h_inv = -scipy.linalg.solve(dxx_matrix(cfg.M, cfg.h),
                                        a_matrix(cfg.M))
        rng = np.random.default_rng(7)
        noisy = rng.uniform(-1.0, 1.0, hist.U.shape)
        for run in (hist, dataclasses.replace(hist, U=noisy)):
            S = run.U
            series = energy_series(run)
            for n in range(1, mesh.N + 1):
                X = S[n] - S[:n]
                Q = cfg.h * np.einsum("ij,jk,ik->i", X, neg_h_inv, X)
                J = kernel_row_J(n, mesh, alpha)
                rho = mesh.ratios[n] if n < mesh.N else 1.0
                lead = alpha * rho ** (2.0 - 0.5 * alpha) / (
                    2.0 * (1.0 + rho) * mesh.steps[n - 1] ** alpha
                    * gamma(3.0 - alpha))
                history_term = lead * Q[n - 1] + 0.5 * J[0] * Q[0]
                for j in range(1, n):
                    history_term += 0.5 * (J[j] - J[j - 1]) * Q[j]
                expected = free_energy(run.state(n), cfg.epsilon) \
                    + history_term / cfg.kappa
                assert series.modified_energy[n] == pytest.approx(
                    expected, rel=1e-13, abs=0)


    @pytest.mark.parametrize("M", [128, 512])
    def test_increment_norms_match_longdouble_closed_form(self, M):
        # (-H)^{-1} = -D^{-1} A = h^2 G A, G_ij = min(i,j) (M - max(i,j))/M,
        # evaluated in longdouble. Each one-step history holds a pair of
        # near-equal random states, so its level-1 modified energy carries
        # one negative-order norm of an increment of size ~1e-3. A tiny
        # kappa makes that term dominate E, so subtracting E loses nothing.
        # Each state is transformed on its own, so the transform's rounding
        # is amplified ~1e3 in the difference: over 60 draws the relative
        # error has median 1.4e-13 and reaches 7e-13 (one of the draws
        # below reaches 1.0e-12).
        kappa = 1e-12
        cfg = SolverConfig(alpha=0.5, kappa=kappa, epsilon=0.1,
                           mesh=build_custom([0.01]), M=M,
                           initial=quartic_bump)
        weight = G_functional([0.0, 1.0], cfg.mesh, cfg.alpha)
        i = np.arange(1, M, dtype=np.longdouble)
        G = np.minimum.outer(i, i) * (M - np.maximum.outer(i, i)) / M
        h = np.longdouble(1) / M
        rng = np.random.default_rng(M)
        for _ in range(4):
            u0 = rng.uniform(-1.0, 1.0, M - 1)
            u1 = u0 + 1e-3 * rng.uniform(-1.0, 1.0, M - 1)
            run = dataclasses.replace(_random_history(cfg, 0),
                                      U=np.stack([u0, u1]))
            series = energy_series(run)
            Q = (series.modified_energy[1] - series.free_energy[1]) \
                * kappa / weight
            d = u1.astype(np.longdouble) - u0
            Ad = np.pad(d, 1)
            Ad = (Ad[:-2] + 10 * Ad[1:-1] + Ad[2:]) / 12
            exact = float(h ** 3 * (d @ (G @ Ad)))
            assert abs(Q - exact) <= 2e-12 * exact

    def test_free_energies_and_masses_match_per_state_functions(self):
        hist = _small_run(alpha=0.5, N=24, M=16)
        # the random states are the oracle test's above
        for run in (_small_run(), hist, _random_history(hist.config, 7)):
            series = energy_series(run)
            eps = run.config.epsilon
            for n in range(run.mesh.N + 1):
                u = run.state(n)
                assert series.free_energy[n] == pytest.approx(
                    free_energy(u, eps), rel=1e-13, abs=0)
                assert series.mass[n].tobytes() == \
                    np.float64(mass(u)).tobytes()

    def test_leaves_the_run_states_unchanged(self):
        for run in (_small_run(), _random_history(_graded_config(40, 16), 5)):
            before = run.U.tobytes()
            energy_series(run)
            assert run.U.tobytes() == before

    def test_peak_memory_stays_within_four_state_arrays(self):
        # Arrays the size of the N+1 states must dominate: no (M-1)^2 array
        # may appear. N >> M in the first case and M is large in the
        # second; the kernel row stream's block workspace (about 1 MiB
        # whatever N and M are) would swamp the bound on a much smaller
        # history.
        for N, M in ((1000, 100), (200, 512)):
            hist = _random_history(_graded_config(N, M), 3)
            started = not tracemalloc.is_tracing()
            if started:
                tracemalloc.start()
            try:
                tracemalloc.reset_peak()
                before = tracemalloc.get_traced_memory()[0]
                energy_series(hist)
                peak = tracemalloc.get_traced_memory()[1] - before
            finally:
                if started:
                    tracemalloc.stop()
            assert peak <= 8 * 4 * (N + 1) * (M - 1), (N, M)

    def test_bitwise_equal_across_blas_thread_counts(self, tmp_path):
        hist = _random_history(_graded_config(200, 200), 5)
        path = tmp_path / "history.pkl"
        with open(path, "wb") as f:
            pickle.dump(hist, f)
        src = os.path.dirname(os.path.dirname(os.path.abspath(
            sys.modules[energy_series.__module__].__file__)))
        runs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(
                           p for p in (src, os.environ.get("PYTHONPATH"))
                           if p))
            out = tmp_path / ("series-%s.npz" % threads)
            subprocess.run([sys.executable, "-c", _SERIES_PROBE, str(path),
                            str(out)], env=env, check=True, timeout=300)
            with np.load(out) as data:
                runs.append({k: data[k] for k in data.files})
        assert sorted(runs[0]) == ["free_energy", "mass", "modified_energy"]
        for name, values in runs[0].items():
            assert values.tobytes() == runs[1][name].tobytes(), name


class TestSummationByParts:
    def test_transformed_rows_satisfy_identity_quietly(self, graded_24):
        rng = np.random.default_rng(7)
        phis = rng.standard_normal(10)
        rows = [kernel_row_J(m, graded_24, 0.6) for m in range(1, 11)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            residual = dgs_identity_check(rows, 1.0, phis)
        scale = max(float(np.max(np.abs(r))) for r in rows) \
            * float(np.max(phis ** 2))
        assert residual <= 1e-13 * scale

    def test_identity_holds_for_any_sigma(self, graded_24):
        rng = np.random.default_rng(8)
        phis = rng.standard_normal(6)
        rows = [kernel_row_J(m, graded_24, 0.3) for m in range(1, 7)]
        residual = dgs_identity_check(rows, 0.7, phis)
        assert residual <= 1e-12

    def test_negative_sigma_warns(self, graded_24):
        rows = [kernel_row_J(m, graded_24, 0.5) for m in range(1, 4)]
        with pytest.warns(RuntimeWarning, match="sigma"):
            dgs_identity_check(rows, -0.5, np.ones(3))

    def test_decreasing_rows_warn_about_Y_weights(self):
        rows = [np.array([1.0]), np.array([2.0, 1.0])]
        with pytest.warns(RuntimeWarning, match="Y"):
            residual = dgs_identity_check(rows, 1.0, np.array([0.3, -0.4]))
        assert residual <= 1e-14

    def test_row_shape_validation(self, graded_24):
        rows = [np.array([1.0]), np.array([1.0, 2.0, 3.0])]
        with pytest.raises(ValueError):
            dgs_identity_check(rows, 1.0, np.ones(2))
        with pytest.raises(ValueError):
            dgs_identity_check(rows[:1], 1.0, np.ones(2))


class TestKernelPropertyCheck:
    def test_graded_mesh_is_clean(self, graded_64):
        rep = kernel_property_check(graded_64, 0.5)
        assert rep.clean
        assert rep.n_max == 64
        assert rep.monotonicity_margin == 0.0
        assert rep.convexity_margin == 0.0
        assert rep.dominance_margin == 0.0

    def test_counts_and_margins_are_consistent(self):
        # far outside the admissible ratio range the structure may or may
        # not survive; either way counts and margins must agree
        mesh = build_custom(np.array([0.001, 0.02, 0.4, 0.4, 0.4]))
        rep = kernel_property_check(mesh, 0.8)
        for count, margin in (
                (rep.monotonicity_violations, rep.monotonicity_margin),
                (rep.convexity_violations, rep.convexity_margin),
                (rep.dominance_violations, rep.dominance_margin)):
            assert (count > 0) == (margin < 0.0)


class TestConvergenceOrder:
    def test_doubling_defaults(self):
        orders = convergence_order([1.0, 0.125, 0.125 / 8.0], Ns=[10, 20, 40])
        assert orders == pytest.approx([3.0, 3.0], rel=1e-13)

    def test_explicit_resolutions(self):
        orders = convergence_order([1e-2, 1e-3], Ns=[10, 20])
        assert orders == pytest.approx([np.log(10.0) / np.log(2.0)],
                                       rel=1e-13)

    def test_validation(self):
        with pytest.raises(ValueError):
            convergence_order([1.0, 0.0], Ns=[10, 20])
        with pytest.raises(ValueError):
            convergence_order([1.0, 0.5, 0.25], Ns=[10, 20])
        assert convergence_order([1.0], Ns=[10]).size == 0

    @pytest.mark.parametrize("Ns", [[50, 50], [10, 20, 10]])
    def test_repeated_resolutions_raise(self, Ns):
        # equal neighbours would divide by log 1 = 0; any repeat is refused
        with pytest.raises(ValueError, match="repeat"):
            convergence_order(np.geomspace(1e-2, 1e-4, len(Ns)), Ns=Ns)


class TestCsvWriters:
    def test_energy_csv_blank_modified_at_level_zero(self):
        hist = _small_run(N=6, M=8)
        buf = io.StringIO()
        write_energy_csv(energy_series(hist), buf)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == "n,t_n,E,E_modified"
        assert len(lines) == 8
        first = lines[1].split(",")
        assert first[0] == "0" and first[3] == ""
        second = lines[2].split(",")
        assert float(second[3]) > 0.0

    def test_mass_csv_round_trips(self):
        hist = _small_run(N=6, M=8)
        series = energy_series(hist)
        buf = io.StringIO()
        write_mass_csv(series, buf)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == "n,t_n,mass"
        got = np.array([float(l.split(",")[2]) for l in lines[1:]])
        assert got == pytest.approx(series.mass, rel=1e-15)
