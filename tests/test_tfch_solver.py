"""Marching scheme for the fractional Cahn-Hilliard system.

The discrete conservation structure is pinned down exactly: applying the
averaged row sum to the update equation shows the kernel-weighted mass
increments balance the fractionally weighted boundary flux of the chemical
potential. That identity is what a mass check can and cannot expect from
this scheme with pinned boundary values.
"""

import dataclasses
import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from scipy.linalg import LinAlgWarning
from scipy.linalg import lu_factor as scipy_lu_factor
from scipy.linalg import lu_solve as scipy_lu_solve

from tfch import tfch_solver
from tfch._longdouble import longdouble_sweep
from tfch.caputo_l2 import kernel_row_B
from tfch.compact_spatial import a_matrix, dxx_matrix, norm_inf, sample
from tfch.diagnostics import energy_series, mass
from tfch.temporal_mesh import (
    build_custom,
    build_graded_cubic,
    build_uniform,
    validate_ratio_bound,
)
from tfch.tfch_solver import (
    NonconvergenceError,
    RunHistory,
    SolverConfig,
    energy_step_bound,
    first_step_bound,
    lipschitz_step_bound,
    manufactured_solution,
    manufactured_source,
    quartic_bump,
    reference_solution,
    solvability_step_bound,
    solve,
)


def _config(**overrides):
    base = dict(alpha=0.5, kappa=0.01, epsilon=0.1,
                mesh=build_graded_cubic(6, 1.0), M=8,
                initial=quartic_bump)
    base.update(overrides)
    return SolverConfig(**base)


def _solve_quiet(config):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return solve(config)


class TestConfigValidation:
    def test_alpha_outside_open_interval(self):
        for bad in (0.0, 1.0, -0.2, 1.3):
            with pytest.raises(ValueError):
                _config(alpha=bad)

    def test_positive_physical_parameters(self):
        with pytest.raises(ValueError):
            _config(kappa=0.0)
        with pytest.raises(ValueError):
            _config(epsilon=-0.1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("field", ["kappa", "epsilon", "iteration_tol"])
    def test_non_finite_parameters_name_the_field(self, field, bad):
        with pytest.raises(ValueError, match=field):
            _config(**{field: bad})

    def test_mesh_type(self):
        with pytest.raises(TypeError):
            _config(mesh=np.linspace(0, 1, 5))

    def test_minimum_spatial_resolution(self):
        with pytest.raises(ValueError):
            _config(M=3)

    def test_iteration_controls(self):
        with pytest.raises(ValueError):
            _config(iteration_tol=0.0)
        with pytest.raises(ValueError):
            _config(max_iterations=0)

    def test_source_spelling(self):
        with pytest.raises(ValueError):
            _config(source="manufactured_typo")
        _config(source="manufactured")
        _config(source=lambda x, t: np.zeros_like(x))

    def test_initial_must_be_callable(self):
        with pytest.raises(TypeError):
            _config(initial=None)
        with pytest.raises(TypeError):
            _config(initial=np.zeros(9))

    def test_h_property(self):
        cfg = _config(M=8)
        assert cfg.h == pytest.approx(0.125)


class TestSolveBasics:
    def test_zero_data_stays_zero(self):
        cfg = _config(M=10, initial=lambda x: np.zeros_like(x))
        hist = _solve_quiet(cfg)
        assert np.all(hist.U == 0.0)
        assert np.all(hist.terminal.values == 0.0)
        assert np.all(hist.iterations == 1)

    def test_initial_boundary_values_are_pinned(self):
        cfg = _config(initial=lambda x: 0.05 * (x + 1.0))
        hist = _solve_quiet(cfg)
        u0 = hist.state(0).values
        assert u0[0] == 0.0 and u0[-1] == 0.0
        assert u0[1] != 0.0

    def test_caller_initial_array_is_unchanged(self):
        cfg = _config()
        data = 0.05 * (np.linspace(0.0, 1.0, cfg.M + 1) + 1.0)
        kept = data.copy()
        hist = _solve_quiet(dataclasses.replace(cfg, initial=lambda x: data))
        assert data.tobytes() == kept.tobytes()
        assert hist.U[0].tobytes() == kept[1:-1].tobytes()

    def test_history_shapes_and_accessors(self):
        cfg = _config()
        hist = _solve_quiet(cfg)
        N, M = cfg.mesh.N, cfg.M
        assert hist.U.shape == (N + 1, M - 1)
        padded = np.pad(hist.U[-1], 1)
        assert hist.terminal.values.tobytes() == padded.tobytes()
        assert hist.terminal.domain == (0.0, 1.0)
        for n in (0, N // 2, N):
            u = hist.state(n)
            assert u.values.tobytes() == np.pad(hist.U[n], 1).tobytes()
            assert u.h == 1.0 / M and u.h == cfg.h
        assert hist.mesh is cfg.mesh
        assert hist.iterations.shape == (N,)
        assert (hist.iterations >= 1).all()
        assert (hist.residuals <= cfg.iteration_tol).all()

    def test_states_are_read_only(self):
        hist = _solve_quiet(_config())
        with pytest.raises(ValueError):
            hist.U[1, 0] = 1.0

    def test_wrong_initial_shape_raises(self):
        cfg = _config(initial=lambda x: np.zeros(3))
        with pytest.raises(ValueError):
            _solve_quiet(cfg)

    def test_iteration_cap_raises_nonconvergence(self):
        cfg = _config(max_iterations=1, iteration_tol=1e-16)
        with pytest.raises(NonconvergenceError) as exc:
            _solve_quiet(cfg)
        assert exc.value.level == 1
        assert exc.value.cap == 1
        assert exc.value.residual > 1e-16

    def test_divergent_sweep_raises_nonconvergence(self):
        # O(1) data on the huge late steps of a short graded mesh makes the
        # cubic sweep blow up; that must surface as the contract error, not
        # as a low-level linear-algebra failure
        cfg = _config(initial=lambda x: x + 1.0)
        with pytest.raises(NonconvergenceError) as exc:
            _solve_quiet(cfg)
        # the overflow passes through getrs into the increment; the sweep's
        # residual test, not a scan of each right-hand side, reports it
        assert exc.value.level == 1
        assert exc.value.residual == float("inf")
        assert exc.value.cap == 500

    def test_nan_source_raises_at_its_first_level(self):
        # a NaN right-hand side reaches getrs unscreened, like an overflow;
        # the residual test must catch NaN as well as inf
        cfg = _config()
        k = 3

        def source(x, t):
            return np.full_like(x, np.nan if t >= cfg.mesh.nodes[k] else 0.0)

        with pytest.raises(NonconvergenceError) as exc:
            _solve_quiet(_config(source=source))
        assert exc.value.level == k
        assert exc.value.residual == float("inf")
        assert exc.value.cap == 500

    def test_reference_solution_swaps_only_the_mesh(self):
        cfg = _config()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            ref = reference_solution(cfg, 12)
        assert isinstance(ref, RunHistory)
        assert ref.mesh.N == 12
        assert ref.mesh.horizon == pytest.approx(cfg.mesh.horizon)
        assert ref.config.alpha == cfg.alpha
        assert ref.config.M == cfg.M
        assert ref.config.source is cfg.source


def _phase_separation_config(M=32):
    # the coarsening benchmark's phase-separation regime in miniature
    noise = 0.01 * np.random.default_rng(0).uniform(-1.0, 1.0, M + 1)

    def initial(x):
        return 0.9 * np.sin(np.pi * x) * np.cos(6.0 * np.pi * x) + noise

    return SolverConfig(alpha=0.5, kappa=0.03, epsilon=0.05, M=M,
                        mesh=build_graded_cubic(40, 0.1), initial=initial)


def _scipy_operators(cfg):
    """A, D and K = kappa D + kappa eps^2 D A^{-1} D, via scipy.linalg."""
    A = a_matrix(cfg.M)
    D = dxx_matrix(cfg.M, cfg.h)
    K = cfg.kappa * D + cfg.kappa * cfg.epsilon ** 2 * (
        D @ scipy_lu_solve(scipy_lu_factor(A), D))
    return A, D, K


def _scipy_sweep_oracle(cfg, legacy_rhs=False):
    """The step loop of solve on scipy.linalg's lu_factor/lu_solve.

    The right-hand side is solve's, (kappa D) @ (u u u) + const; with
    legacy_rhs it is kappa * (D @ u**3) + const, the unfolded form, which
    rounds differently. Homogeneous source only, validators left out. Returns the
    (N+1, M-1) interior states.
    """
    assert cfg.source is None
    mesh, alpha, kappa, M = cfg.mesh, cfg.alpha, cfg.kappa, cfg.M
    x_full = np.linspace(0.0, 1.0, M + 1)
    A, D, K = _scipy_operators(cfg)
    kD = kappa * D
    U = np.empty((mesh.N + 1, M - 1))
    U[0] = np.asarray(cfg.initial(x_full), dtype=float)[1:-1]
    dU = np.empty((mesh.N, M - 1))
    ag = np.zeros(M - 1)  # A g of the zero source
    for n in range(1, mesh.N + 1):
        B = kernel_row_B(n, mesh, alpha)
        B0 = B[n - 1]
        hist = B[: n - 1] @ dU[: n - 1] if n > 1 else 0.0
        const = A @ (B0 * U[n - 1] - hist) + ag
        lu_L = scipy_lu_factor(B0 * A + K)
        u_s = U[n - 1].copy()
        for _ in range(cfg.max_iterations):
            if legacy_rhs:
                rhs = kappa * (D @ (u_s ** 3)) + const
            else:
                rhs = kD @ (u_s * u_s * u_s) + const
            u_next = scipy_lu_solve(lu_L, rhs)
            res = float(np.max(np.abs(u_next - u_s)))
            u_s = u_next
            if res <= cfg.iteration_tol:
                break
        else:
            raise AssertionError("oracle sweep did not converge at %d" % n)
        U[n] = u_s
        dU[n - 1] = U[n] - U[n - 1]
    return U


class TestLapackStepLoop:
    """solve factors and solves through LAPACK getrf/getrs directly; the
    discrete solution must stay bitwise what scipy.linalg's wrappers give."""

    def test_states_bitwise_equal_scipy_sweep_oracle(self):
        cfg = _phase_separation_config()
        hist = _solve_quiet(cfg)
        assert hist.iterations.min() >= 9 and hist.iterations.max() >= 40
        assert (hist.U.tobytes()
                == _scipy_sweep_oracle(cfg).tobytes())

    def test_states_close_to_legacy_rhs_oracle(self):
        # folding kappa into D and cubing by multiplication round
        # differently from kappa * (D @ u**3); on this run the states differ
        # by at most 1.15e-15 (max |u| 0.89), and the bound is 10x that
        cfg = _phase_separation_config()
        gap = np.max(np.abs(_solve_quiet(cfg).U
                            - _scipy_sweep_oracle(cfg, legacy_rhs=True)))
        assert gap <= 1.15e-14

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                        reason="np.longdouble is no wider than float64")
    def test_states_close_to_longdouble_sweep(self):
        # the same sweep in extended precision, with a numpy LU in place of
        # LAPACK: solve is 1.74e-14 from it on this run (the legacy
        # right-hand side 1.76e-14); the bound is about 6x that
        cfg = _phase_separation_config()
        gap = np.max(np.abs(_solve_quiet(cfg).U
                            - longdouble_sweep(cfg)))
        assert gap <= 1e-13

    @pytest.mark.parametrize("M", [16, 128])
    def test_wrappers_bitwise_equal_scipy_on_step_matrix(self, M):
        cfg = _phase_separation_config(M)
        A, D, K = _scipy_operators(cfg)
        n = 7
        L = kernel_row_B(n, cfg.mesh, cfg.alpha)[n - 1] * A + K
        lu, piv = tfch_solver.lu_factor(L)
        lu_ref, piv_ref = scipy_lu_factor(L)
        assert lu.tobytes() == lu_ref.tobytes()
        assert piv.tobytes() == piv_ref.tobytes()

        b = np.random.default_rng(M).standard_normal(M - 1)
        x_ref = scipy_lu_solve((lu_ref, piv_ref), b)
        assert tfch_solver.lu_solve((lu, piv), b).tobytes() == x_ref.tobytes()
        b_in = b.copy()
        x = tfch_solver.lu_solve((lu, piv), b_in, overwrite_b=True)
        assert x is b_in and x.tobytes() == x_ref.tobytes()

        D_before = D.copy()
        X = tfch_solver.lu_solve((lu, piv), D)
        assert X.shape == D.shape
        assert X.tobytes() == scipy_lu_solve((lu_ref, piv_ref), D).tobytes()
        assert D.tobytes() == D_before.tobytes()

    def test_exactly_singular_matrix_warns(self):
        a = np.eye(5)
        a[2] = 0.0
        with pytest.warns(LinAlgWarning,
                          match=r"Diagonal number 3 is exactly zero\. "
                                r"Singular matrix\."):
            tfch_solver.lu_factor(a)


class TestValidators:
    def test_large_steps_trip_the_solvability_validator(self):
        cfg = _config(mesh=build_graded_cubic(40, 1.0), M=16)
        with pytest.warns(RuntimeWarning, match="solvability"):
            hist = solve(cfg)
        assert len(hist.violations["solvability"]) > 0
        assert hist.violations["first_step"] == ()

    def test_violation_levels_are_one_based_and_sorted(self):
        cfg = _config(mesh=build_graded_cubic(40, 1.0), M=16)
        hist = _solve_quiet(cfg)
        for levels in hist.violations.values():
            assert all(1 <= n <= 40 for n in levels)
            assert list(levels) == sorted(levels)

    def test_out_of_theory_mesh_warns_about_ratio_bound(self):
        # one 20x step jump: far beyond any admissible ratio
        mesh = build_custom(np.array([0.01, 0.2, 0.2, 0.2]))
        cfg = _config(mesh=mesh)
        with warnings.catch_warnings(record=True) as rec:
            warnings.simplefilter("always")
            solve(cfg)
        assert any("ratio bound" in str(w.message) for w in rec)

    @staticmethod
    def _scalar_violations(hist):
        # the validators level by level through the public scalar bounds
        cfg, mesh = hist.config, hist.mesh
        alpha, kappa, eps = cfg.alpha, cfg.kappa, cfg.epsilon
        slack = 1.0 + tfch_solver._BOUND_SLACK
        out = {"first_step": [], "solvability": [], "energy": [],
               "lipschitz": []}
        for n in range(1, mesh.N + 1):
            tau = mesh.steps[n - 1]
            if tau > hist.lipschitz_limit * slack:
                out["lipschitz"].append(n)
            if n == 1:
                if tau > first_step_bound(alpha, kappa, eps) * slack:
                    out["first_step"].append(n)
                continue
            rho = mesh.ratios[n - 1]
            if tau > solvability_step_bound(alpha, kappa, cfg.h, rho) * slack:
                out["solvability"].append(n)
            rho_next = mesh.ratios[n] if n < mesh.N else 1.0
            try:
                bound = energy_step_bound(alpha, kappa, eps, rho, rho_next)
            except ValueError:
                out["energy"].append(n)
            else:
                if tau > bound * slack:
                    out["energy"].append(n)
        return {kind: tuple(levels) for kind, levels in out.items()}

    def test_violations_match_per_level_scalar_bounds(self):
        steps = np.cumprod(np.random.default_rng(11).uniform(0.3, 6.0, 30))
        cases = [
            _config(mesh=build_graded_cubic(40, 1.0), M=16),
            # a 20x jump: the energy margin q is not positive there
            _config(mesh=build_custom(np.array([0.01, 0.2, 0.2, 0.2]))),
            # random ratios below 1 and beyond rho_star
            _config(mesh=build_custom(0.01 * steps / steps.sum()),
                    kappa=1.0, epsilon=0.05),
            _config(mesh=build_custom(np.array([0.3, 0.1, 0.1])),
                    kappa=1.0, epsilon=0.05),
            _config(mesh=build_custom(np.array([0.3]))),
        ]
        seen = set()
        for cfg in cases:
            hist = _solve_quiet(cfg)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                expected = self._scalar_violations(hist)
            assert hist.violations == expected
            seen.update(kind for kind, levels in hist.violations.items()
                        if levels)
        assert seen == {"first_step", "solvability", "energy", "lipschitz"}

    def test_lipschitz_summary_fields(self):
        # amplitudes stay far below 1 here, so |f'| tops out just under 1
        cfg = _config()
        hist = _solve_quiet(cfg)
        assert 0.0 < hist.lipschitz_constant <= 2.0
        assert hist.lipschitz_limit > 0.0


class TestRelaxedRatioBand:
    """Runs whose step ratios lie in the band (4.660, rho_star(alpha)] that
    the relaxed threshold admits beyond Liao et al.'s older bound."""

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.82265])
    def test_modified_energy_dissipates(self, alpha, assert_stream_bitwise,
                                        band_jump_steps):
        mesh = build_custom(band_jump_steps(alpha))
        assert validate_ratio_bound(mesh, alpha).ok
        assert mesh.ratios.max() > 4.660
        cfg = SolverConfig(alpha=alpha, kappa=0.01, epsilon=0.1, mesh=mesh,
                           M=64, initial=quartic_bump)
        hist = _solve_quiet(cfg)
        assert hist.violations["energy"] == ()
        em = energy_series(hist).modified_energy
        # criterion 3's allowance, unchanged
        gaps = em[2:] - em[1:-1] - 1e-12 * np.maximum(1.0, np.abs(em[1:-1]))
        assert gaps.max() <= 0.0
        assert_stream_bitwise(mesh, alpha)


class TestStepBounds:
    def test_first_step_bound_epsilon_scaling(self):
        a = first_step_bound(0.4, 0.01, 0.2)
        b = first_step_bound(0.4, 0.01, 0.1)
        assert a == pytest.approx(4.0 ** (1.0 / 0.4) * b, rel=1e-12)

    def test_solvability_bound_mesh_scaling(self):
        a = solvability_step_bound(0.5, 0.01, 0.2, 1.5)
        b = solvability_step_bound(0.5, 0.01, 0.1, 1.5)
        assert a == pytest.approx(4.0 ** (1.0 / 0.5) * b, rel=1e-12)

    def test_energy_bound_rejects_nonpositive_margin(self):
        with pytest.raises(ValueError):
            energy_step_bound(0.5, 0.01, 0.1, 10.0, 10.0)

    def test_energy_bound_positive_for_mild_ratios(self):
        assert energy_step_bound(0.5, 0.01, 0.1, 1.0, 1.0) > 0.0

    def test_lipschitz_bound_rejects_nonpositive_constant(self):
        with pytest.raises(ValueError):
            lipschitz_step_bound(0.5, 0.01, 0.1, 0.0)


class TestManufacturedBenchmark:
    def test_solution_profile(self):
        x = np.linspace(0.0, 1.0, 9)
        u = manufactured_solution(x, 0.5, 0.3)
        assert u[0] == 0.0 and u[-1] == 0.0
        assert u[4] == pytest.approx(0.5 ** 8 * 0.5 ** 3.3, rel=1e-13)

    def test_source_boundary_trace(self):
        # the biharmonic of the bump does not vanish at the ends, so the
        # forcing carries kappa eps^2 * 24 t^{3+alpha} there
        alpha, kappa, eps = 0.7, 0.01, 0.1
        for t in (0.25, 1.0):
            g = manufactured_source(np.array([0.0, 1.0]), t, alpha, kappa, eps)
            want = kappa * eps ** 2 * 24.0 * t ** (3.0 + alpha)
            assert g == pytest.approx(np.array([want, want]), rel=1e-14)

    def test_source_vanishes_at_time_zero(self):
        g = manufactured_source(np.linspace(0, 1, 11), 0.0, 0.4, 0.01, 0.1)
        assert np.all(g == 0.0)

    def test_source_satisfies_the_continuous_equation(self):
        # independent reconstruction: exact fractional derivative of the
        # time factor plus numerically differentiated spatial terms
        alpha, kappa, eps = 0.62, 0.013, 0.27
        with mp.workdps(40):
            bump = lambda x: x ** 4 * (1 - x) ** 4
            bump3 = lambda x: bump(x) ** 3
            for xf, tf in ((0.3, 0.8), (0.57, 0.35), (0.81, 1.0)):
                x = mp.mpf(xf)
                t = mp.mpf(tf)
                dt_part = mp.gamma(4 + alpha) / mp.gamma(4) * bump(x) * t ** 3
                lap_u3 = mp.diff(bump3, x, 2) * t ** (9 + 3 * alpha)
                biharm = mp.diff(bump, x, 4) * t ** (3 + alpha)
                lap_u = mp.diff(bump, x, 2) * t ** (3 + alpha)
                want = float(dt_part - kappa * lap_u3
                             + kappa * eps ** 2 * biharm + kappa * lap_u)
                got = float(manufactured_source(
                    np.array([xf]), tf, alpha, kappa, eps)[0])
                assert got == pytest.approx(want, rel=1e-10)

    def test_small_run_tracks_the_closed_form(self):
        alpha = 0.5
        cfg = _config(alpha=alpha, mesh=build_graded_cubic(60, 1.0), M=16,
                      source="manufactured",
                      initial=lambda x: np.zeros_like(x))
        hist = _solve_quiet(cfg)
        exact = sample(lambda x: manufactured_solution(x, 1.0, alpha), 16)
        err = norm_inf(type(exact)(values=hist.terminal.values - exact.values))
        assert err <= 5e-3


class TestMassBalance:
    def test_mass_drift_equals_accumulated_flux(self):
        # summing the update equation against A^{-T} 1 shows the
        # kernel-weighted mass increments equal h 1^T A^{-1}(kappa D mu^n):
        # mass moves exactly by the boundary flux of the chemical potential
        # mu = f(u) - eps^2 A^{-1}D u, so flatness is not an invariant here
        cfg = _config(mesh=build_graded_cubic(24, 1.0), M=16,
                      iteration_tol=1e-13, max_iterations=800)
        hist = _solve_quiet(cfg)
        mesh, alpha = cfg.mesh, cfg.alpha
        M, h = cfg.M, cfg.h
        A = a_matrix(M)
        D = dxx_matrix(M, h)
        Ainv_D = np.linalg.solve(A, D)
        U = hist.U
        masses = np.array([mass(hist.state(n)) for n in range(mesh.N + 1)])
        dm = np.diff(masses)

        worst = 0.0
        for n in range(1, mesh.N + 1):
            B = kernel_row_B(n, mesh, alpha)
            lhs = float(B @ dm[:n])
            mu = U[n] ** 3 - U[n] - cfg.epsilon ** 2 * (Ainv_D @ U[n])
            rhs = float(h * np.linalg.solve(A.T, np.ones(M - 1))
                        @ (cfg.kappa * (D @ mu)))
            scale = max(abs(lhs), abs(rhs), float(np.abs(B * dm[:n]).sum()),
                        1e-30)
            worst = max(worst, abs(lhs - rhs) / scale)
        assert worst <= 1e-8

        # the flux is genuinely nonzero: total mass moves
        assert abs(masses[-1] - masses[0]) > 1e-12
