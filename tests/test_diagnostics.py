"""Energy, mass, and kernel-structure observables.

The frozen free-energy value is cross-checked against a 30-digit quadrature
of the continuum functional: the discrete double well omits the boundary
half-weights, and adding 0.25 h (the omitted (0^2-1)^2 contributions) back
reproduces the continuum energy of the bump to 1e-12.
"""

import dataclasses
import io
import pickle
import warnings

import numpy as np
import pytest
import scipy.linalg
from scipy.special import gamma

from tfch import diagnostics
from tfch._fmt import write_csv
from tfch.caputo_l2 import kernel_row_J, kernel_rows
from tfch.compact_spatial import _sine_matrix, a_matrix, dxx_matrix, quad_negH
from tfch.diagnostics import (
    G_functional,
    convergence_order,
    dgs_identity_check,
    energy_series,
    free_energy,
    kernel_property_check,
    mass,
    write_energy_csv,
    write_mass_csv,
)
from tfch.temporal_mesh import build_custom, build_graded_cubic
from tfch.tfch_solver import RunHistory, SolverConfig, quartic_bump, solve

# continuum E[u] = (eps^2/2) int u_x^2 + (1/4) int (u^2-1)^2 for the quartic
# bump at eps = 0.1, quadrature at 30 digits
_CONTINUUM_BUMP_ENERGY = 0.24999815871664462


def _interior(fn, M):
    """fn at the interior nodes i/M, i = 1..M-1."""
    return fn(np.linspace(0.0, 1.0, M + 1)[1:-1])


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


def _longdouble_negative_norms(X, M):
    """h (X_r, (-H)^{-1} X_r) for each row X_r of X, in longdouble.

    (-H)^{-1} = -D^{-1} A = h^2 G A with G_ij = min(i,j) (M - max(i,j))/M,
    the Green's function of the second difference.
    """
    i = np.arange(1, M, dtype=np.longdouble)
    G = np.minimum.outer(i, i) * (M - np.maximum.outer(i, i)) / M
    h = np.longdouble(1) / M
    AX = np.pad(X, [(0, 0), (1, 1)])
    AX = (AX[:, :-2] + 10 * AX[:, 1:-1] + AX[:, 2:]) / 12
    return h ** 3 * np.einsum("ij,ij->i", X, AX @ G)


def _slow_walk(base):
    """A 40-level run at M = 64 and kappa = 1e-20 whose states walk by
    uniform steps of 1e-7 from the bump ("bump") or a random state."""
    N, M = 40, 64
    cfg = dataclasses.replace(_graded_config(N, M), kappa=1e-20)
    rng = np.random.default_rng(11)
    U = np.empty((N + 1, M - 1))
    U[0] = (_interior(quartic_bump, M) if base == "bump"
            else rng.uniform(-1.0, 1.0, M - 1))
    for n in range(1, N + 1):
        U[n] = U[n - 1] + 1e-7 * rng.uniform(-1.0, 1.0, M - 1)
    return dataclasses.replace(_random_history(cfg, 0), U=U)


def _assert_longdouble_history_terms(run, terms):
    """terms[n] kappa, n >= 1, is within 1e-13 of the level-n weights
    applied to longdouble negative-order norms of u^n - u^j."""
    cfg, U, M = run.config, run.U, run.config.M
    for n in range(1, cfg.mesh.N + 1):
        Q = _longdouble_negative_norms(U[n].astype(np.longdouble) - U[:n], M)
        w = diagnostics._g_weights(
            kernel_row_J(n, cfg.mesh, cfg.alpha),
            diagnostics._lead_weight(n, cfg.mesh, cfg.alpha,
                                     gamma(3.0 - cfg.alpha)))
        exact = float(w.astype(np.longdouble) @ Q)
        got = terms[n] * cfg.kappa
        assert abs(got - exact) <= 1e-13 * exact, n


class _Replay:
    """Stands in for a march of run's states: the increments and sine
    matrix a march would hold, and its levels' kernel rows."""

    def __init__(self, run):
        self.config = run.config
        self.dU = np.diff(run.U, axis=0)
        m = run.config.M - 1
        self.S = _sine_matrix(np.empty((m, m)))

    def levels(self):
        return kernel_rows(self.config.mesh, self.config.alpha)


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

# Runs in a child process: tfch-run's march and online modified energy
# (_run_series) at N = 400, M = 64, and _march_terms replayed on random
# states at N = 1000, M = 512, saved as npz.
_RUN_SERIES_PROBE = """
import sys, types, warnings
import numpy as np
from tfch.caputo_l2 import kernel_rows
from tfch.compact_spatial import _sine_matrix
from tfch.diagnostics import _march_terms, _run_series
from tfch.temporal_mesh import build_graded_cubic
from tfch.tfch_solver import SolverConfig, quartic_bump

def config(N, M):
    return SolverConfig(alpha=0.4, kappa=0.01, epsilon=0.1,
                        mesh=build_graded_cubic(N, 1.0), M=M,
                        initial=quartic_bump)

with warnings.catch_warnings():
    warnings.simplefilter("ignore", RuntimeWarning)
    history, series = _run_series(config(400, 64))
cfg = config(1000, 512)
U = np.random.default_rng(5).uniform(-1.0, 1.0, (1001, 511))
replay = types.SimpleNamespace(
    config=cfg, dU=np.diff(U, axis=0), S=_sine_matrix(np.empty((511, 511))),
    levels=lambda: kernel_rows(cfg.mesh, cfg.alpha))
np.savez(sys.argv[1], U=history.U, iterations=history.iterations,
         residuals=history.residuals, free_energy=series.free_energy,
         modified_energy=series.modified_energy, mass=series.mass,
         replayed_terms=_march_terms(replay))
"""


class TestMassAndEnergy:
    def test_mass_is_h_times_the_interior_sum(self):
        assert mass(np.ones(59)) == pytest.approx(59.0 / 60.0, rel=1e-14)

    def test_mass_of_negative_zeros_is_positive_zero(self):
        assert np.float64(mass(np.full(7, -0.0))).tobytes() \
            == np.float64(0.0).tobytes()

    def test_mass_of_parabola_matches_closed_form(self):
        # trapezoid rule on x(1-x) has the exact value 1/6 - h^2/6
        u = _interior(lambda x: x * (1.0 - x), 60)
        h = 1.0 / 60.0
        assert mass(u) == pytest.approx(1.0 / 6.0 - h * h / 6.0, rel=1e-13)
        assert abs(mass(u) - 1.0 / 6.0) < 5e-5

    def test_bump_free_energy_frozen_value(self):
        E0 = free_energy(_interior(quartic_bump, 60), 0.1)
        assert E0 == pytest.approx(0.24583149204930882, rel=1e-12)

    def test_bump_free_energy_consistent_with_continuum(self):
        E0 = free_energy(_interior(quartic_bump, 60), 0.1)
        assert E0 + 0.25 / 60 == pytest.approx(_CONTINUUM_BUMP_ENERGY,
                                               abs=1e-9)

    def test_free_energy_of_zero_state(self):
        M = 10
        assert free_energy(np.zeros(M - 1), 0.3) == pytest.approx(
            0.25 / M * (M - 1), rel=1e-14)

    @pytest.mark.parametrize("M", [5, 16, 129, 513])
    def test_batched_calls_equal_per_state_calls_bitwise(self, M):
        U = np.random.default_rng(M).uniform(-1.0, 1.0, (9, M - 1))
        U[3] = -0.0
        masses, free, grad = mass(U), free_energy(U, 0.07), quad_negH(U)
        for n, u in enumerate(U):
            assert masses[n].tobytes() == mass(u).tobytes()
            assert free[n].tobytes() == free_energy(u, 0.07).tobytes()
            assert grad[n].tobytes() == quad_negH(u).tobytes()


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
        em = energy_series(hist).modified_energy
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
            assert series.mass[n] == pytest.approx(mass(hist.U[n]),
                                                   rel=1e-14)

    def test_matches_dense_negative_norm_oracle(self):
        # On the solver run the history term is ~1e-7 of E; the same run with
        # random states makes it comparable to E, so both are checked.
        # The free energy is formed from the dense matrices too, so the
        # oracle shares no code with energy_series.
        hist = _small_run(alpha=0.5, N=24, M=16)
        cfg, mesh, alpha = hist.config, hist.mesh, hist.config.alpha
        A, D = a_matrix(cfg.M), dxx_matrix(cfg.M)
        neg_h_inv = -scipy.linalg.solve(D, A)
        neg_h = -scipy.linalg.solve(A, D)
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
                u = S[n]
                free = 0.5 * cfg.epsilon ** 2 * cfg.h * (u @ neg_h @ u) \
                    + 0.25 * cfg.h * np.sum((u * u - 1.0) ** 2)
                expected = free + history_term / cfg.kappa
                assert series.modified_energy[n] == pytest.approx(
                    expected, rel=1e-13, abs=0)


    @pytest.mark.parametrize("M", [128, 512])
    def test_increment_norms_match_longdouble_closed_form(self, M):
        # Each one-step history holds a pair of near-equal random states, so
        # its level-1 modified energy carries one negative-order norm of an
        # increment of size ~1e-3. A tiny kappa makes that term dominate E,
        # so subtracting E loses nothing. The increment is formed before
        # the transform, so the norm carries only the transform's own
        # relative rounding: the draws below reach 1.3e-15, where
        # transforming each state on its own would reach 1.0e-12.
        kappa = 1e-12
        cfg = SolverConfig(alpha=0.5, kappa=kappa, epsilon=0.1,
                           mesh=build_custom([0.01]), M=M,
                           initial=quartic_bump)
        weight = G_functional([0.0, 1.0], cfg.mesh, cfg.alpha)
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
            exact = float(_longdouble_negative_norms(d[None], M)[0])
            assert abs(Q - exact) <= 1e-14 * exact

    @pytest.mark.parametrize("base", ["bump", "uniform"])
    def test_history_term_matches_longdouble_closed_form(self, base):
        # A random walk of 1e-7 steps from a smooth or a rough state: every
        # norm |u^n - u^j| is ~1e-7 of the states, the regime of a slowly
        # moving run. The history term (E_mod - E) kappa is checked at every
        # level against the same weights applied to longdouble norms; kappa
        # is small enough that subtracting E costs nothing. Differencing
        # separately transformed states would lose the states' size over
        # the increment's to cancellation, 1.2e-10 and 2.4e-9 here; summing
        # products of transformed increments gives 6.6e-16.
        run = _slow_walk(base)
        series = energy_series(run)
        _assert_longdouble_history_terms(
            run, series.modified_energy - series.free_energy)

    @pytest.mark.parametrize("base", ["bump", "uniform"])
    def test_online_history_term_matches_longdouble_closed_form(self, base):
        # The same walk and bound, with each level's products taken as a
        # march takes them: d^k . d^n = du^k' (-H)^{-1} du^n.
        run = _slow_walk(base)
        _assert_longdouble_history_terms(
            run, diagnostics._march_terms(_Replay(run)))

    def test_free_energies_and_masses_match_per_state_functions(self):
        hist = _small_run(alpha=0.5, N=24, M=16)
        # the random states are the oracle test's above
        for run in (_small_run(), hist, _random_history(hist.config, 7)):
            series = energy_series(run)
            eps = run.config.epsilon
            for n in range(run.mesh.N + 1):
                u = run.U[n]
                assert series.free_energy[n].tobytes() == \
                    free_energy(u, eps).tobytes()
                assert series.mass[n].tobytes() == mass(u).tobytes()

    def test_gradient_term_goes_through_the_module_global(self,
                                                         monkeypatch):
        # a tracer that rebinds diagnostics.quad_negH sees the free-energy
        # layer: one batched call per series, and the same bytes
        run = _small_run(alpha=0.5, N=24, M=16)
        plain = energy_series(run)
        calls = []

        def counted(u):
            calls.append(u.shape)
            return quad_negH(u)

        monkeypatch.setattr(diagnostics, "quad_negH", counted)
        traced = energy_series(run)
        assert calls == [run.U.shape]
        for name in ("free_energy", "modified_energy", "mass"):
            assert getattr(traced, name).tobytes() == \
                getattr(plain, name).tobytes(), name

    def test_leaves_the_run_states_unchanged(self):
        for run in (_small_run(), _random_history(_graded_config(40, 16), 5)):
            before = run.U.tobytes()
            energy_series(run)
            assert run.U.tobytes() == before

    @pytest.mark.parametrize("N, M", [(1000, 100), (200, 512)])
    def test_peak_memory_is_one_state_array(
            self, N, M, traced_peak, row_stream_peak):
        # The transformed increments are the only new array the size of
        # the run: they are transformed in place, and no (M-1)^2 array may
        # appear. N >> M in the first case and M is large in the second.
        # The kernel row stream's block workspace is measured on the same
        # mesh, first, so that numpy's one-time allocations on a cold
        # process land in that term; 64 KiB covers the length-N and
        # length-(M-1) vectors.
        cfg = _graded_config(N, M)
        hist = _random_history(cfg, 3)
        bound = (8 * (N + 1) * (M - 1)
                 + row_stream_peak(cfg.mesh, cfg.alpha) + 64 * 1024)
        peak = traced_peak(lambda: energy_series(hist))
        assert peak <= bound

    def test_bitwise_equal_across_blas_thread_counts(
            self, tmp_path, per_blas_thread_count):
        hist = _random_history(_graded_config(200, 200), 5)
        path = tmp_path / "history.pkl"
        with open(path, "wb") as f:
            pickle.dump(hist, f)
        runs = per_blas_thread_count(tmp_path, _SERIES_PROBE, str(path))
        assert sorted(runs[0]) == ["free_energy", "mass", "modified_energy"]
        for name, values in runs[0].items():
            assert values.tobytes() == runs[1][name].tobytes(), name


class TestOnlineFeed:
    """The modified energy tfch-run takes from its one march against
    energy_series of the same run."""

    def test_bitwise_equal_across_blas_thread_counts(
            self, tmp_path, per_blas_thread_count):
        # tfch-run's march and online feed, _run_series, at M = 64, where
        # set-up's GEMM D @ L keeps its bits under two threads (at M = 100
        # and above it does not; gesv keeps them up to M = 1024 at least);
        # and the feed alone, replayed on random states at (N, M) =
        # (1000, 512), where a BLAS gemv dU[:n] @ z gives other bits under
        # two threads for n >= 902. Each product is one ddot of
        # M-1 <= 10000 entries, single-threaded.
        runs = per_blas_thread_count(tmp_path, _RUN_SERIES_PROBE)
        assert sorted(runs[0]) == ["U", "free_energy", "iterations", "mass",
                                   "modified_energy", "replayed_terms",
                                   "residuals"]
        for name, values in runs[0].items():
            assert values.tobytes() == runs[1][name].tobytes(), name

    @pytest.mark.parametrize("alpha", [0.3, 0.5])
    @pytest.mark.parametrize("M", [16, 64])
    def test_matches_energy_series(self, alpha, M):
        cfg = SolverConfig(alpha=alpha, kappa=0.01, epsilon=0.1,
                           mesh=build_graded_cubic(40, 1.0), M=M,
                           initial=quartic_bump)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            hist, online = diagnostics._run_series(cfg)
            ref = solve(cfg)
        # the march is solve's, bit for bit
        for name in ("U", "iterations", "residuals"):
            assert getattr(hist, name).tobytes() == \
                getattr(ref, name).tobytes(), name
        assert hist.violations == ref.violations
        assert hist.lipschitz_constant == ref.lipschitz_constant
        assert hist.lipschitz_limit == ref.lipschitz_limit
        offline = energy_series(ref)
        for name in ("levels", "times", "free_energy", "mass"):
            assert getattr(online, name).tobytes() == \
                getattr(offline, name).tobytes(), name
        assert np.isnan(online.modified_energy[0])
        got, want = online.modified_energy[1:], offline.modified_energy[1:]
        assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))


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

    @pytest.mark.parametrize("Ns", [[0, 10], [-10, 20]])
    def test_nonpositive_resolutions_raise(self, Ns):
        # N = 0 divided by zero inside the log; a negative N gave a nan order
        with pytest.raises(ValueError, match="positive"):
            convergence_order([1.0, 0.5], Ns=Ns)


def _csv_cell_by_cell(header, rows):
    """The CSV text write_csv gives, built cell by cell: a str as given, an
    integer with %d, anything else with %.17g of its float."""
    def cell(value):
        if isinstance(value, float):
            return "%.17g" % value
        if isinstance(value, str):
            return value
        if isinstance(value, (int, np.integer)):
            return "%d" % value
        return "%.17g" % float(value)
    return header + "\n" + "".join(",".join(map(cell, row)) + "\n"
                                   for row in rows)


class TestCsvWriters:
    def test_write_csv_bytes_match_the_cell_by_cell_form(self, tmp_path):
        # one % per row, with a line format per sequence of cell types;
        # the rows mix Python and numpy ints and floats, -0.0, nan, inf,
        # subnormals, blank cells and a str holding a % sign
        values = np.array([0.1, -0.0, np.nan, 5e-324, -np.inf, 1.0 / 3.0])
        rows = [
            (0, 0.0, -0.0, ""),
            (np.int64(7), np.float64(-0.0), np.nan, 1e-310),
            (True, np.float32(0.1), -np.inf, "x%sy"),
            (2 ** 70, np.float64(np.nan), 1.0 / 3.0, np.int32(-5)),
            (np.int64(2 ** 62 + 1), np.uint8(200), "", -1e300),
            (),
            (3, "", "", ""),
            [4, 2.5, "", 1],
        ]
        rows += list(zip(range(6), values, values.tolist(), values[::-1]))
        want = _csv_cell_by_cell("a,b,c,d", rows)
        buf = io.StringIO()
        write_csv(buf, "a,b,c,d", iter(rows))
        assert buf.getvalue() == want
        path = tmp_path / "table.csv"
        write_csv(str(path), "a,b,c,d", rows)
        assert path.read_bytes() == want.encode()

    def test_energy_and_mass_csv_bytes_match_the_cell_by_cell_form(self):
        # the writers pass Python floats (tolist()); the text is that of
        # the arrays' numpy scalars, nan written blank
        hist = _small_run(N=6, M=8)
        series = energy_series(hist)
        energy, mass_ = io.StringIO(), io.StringIO()
        write_energy_csv(series, energy)
        write_mass_csv(series, mass_)
        assert energy.getvalue() == _csv_cell_by_cell(
            "n,t_n,E,E_modified",
            ((n, t, e, "" if np.isnan(em) else em) for n, t, e, em in zip(
                series.levels, series.times, series.free_energy,
                series.modified_energy)))
        assert mass_.getvalue() == _csv_cell_by_cell(
            "n,t_n,mass", zip(series.levels, series.times, series.mass))

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
