"""Marching scheme for the fractional Cahn-Hilliard system.

The discrete conservation structure is pinned down exactly: applying the
averaged row sum to the update equation shows the kernel-weighted mass
increments balance the fractionally weighted boundary flux of the chemical
potential. That identity is what a mass check can and cannot expect from
this scheme with pinned boundary values.
"""

import dataclasses
import math
import tracemalloc
import warnings

import mpmath as mp
import numpy as np
import pytest
from scipy.linalg import lu_factor as scipy_lu_factor
from scipy.linalg import lu_solve as scipy_lu_solve

from _longdouble import longdouble_sweep
from tfch import caputo_l2, tfch_solver
from tfch.caputo_l2 import kernel_row_B
from tfch.compact_spatial import (_sine_matrix, _tridiag_eigs, a_matrix,
                                  dxx_matrix)
from tfch._gamma import gamma
from tfch.diagnostics import convergence_order, energy_series, mass
from tfch.temporal_mesh import (
    build_custom,
    build_graded_cubic,
    build_uniform,
    validate_ratio_bound,
)
from tfch.tfch_solver import (
    NonconvergenceError,
    SolverConfig,
    energy_step_bound,
    first_step_bound,
    lipschitz_step_bound,
    manufactured_solution,
    manufactured_source,
    quartic_bump,
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

    def test_alpha_below_the_step_ratio_floor(self):
        # the march checks its step ratios against rho_star(alpha), which
        # refuses these; 1.1489510001873063e-17 once failed inside solve
        floor = caputo_l2._RHO_STAR_ALPHA_MIN
        for bad in (float(np.nextafter(floor, 0.0)), 1.1489510001873063e-17,
                    1e-300):
            with pytest.raises(ValueError, match=repr(floor)):
                _config(alpha=bad)
        assert np.isfinite(_solve_quiet(_config(alpha=floor)).U).all()

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

    @pytest.mark.parametrize("bad", [3, 8.5, 8.0])
    def test_minimum_spatial_resolution(self, bad):
        with pytest.raises(ValueError, match="M must be"):
            _config(M=bad)

    def test_numpy_integer_controls_accepted(self):
        _config(M=np.int64(8), max_iterations=np.int32(5))

    @pytest.mark.parametrize("field, bad", [
        ("iteration_tol", 0.0),
        ("max_iterations", 0),
        ("max_iterations", 2.5),
        ("max_iterations", 500.0),
    ])
    def test_iteration_controls(self, field, bad):
        with pytest.raises(ValueError, match=field):
            _config(**{field: bad})

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
        u0 = np.pad(hist.U[0], 1)
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
        assert hist.mesh is cfg.mesh
        assert hist.iterations.shape == (N,)
        assert (hist.iterations >= 1).all()
        assert (hist.residuals <= cfg.iteration_tol).all()

    def test_states_are_read_only(self):
        hist = _solve_quiet(_config())
        with pytest.raises(ValueError):
            hist.U[1, 0] = 1.0

    @pytest.mark.parametrize("values", [lambda x: np.zeros(3),
                                        lambda x: np.full(3, 0.1)])
    def test_wrong_initial_shape_raises(self, values):
        # a short array's one interior value would broadcast over the row
        cfg = _config(initial=values)
        with pytest.raises(ValueError, match="initial data has wrong shape"):
            _solve_quiet(cfg)
        with pytest.raises(ValueError, match="initial data has wrong shape"):
            longdouble_sweep(cfg)

    @pytest.mark.parametrize("values", [lambda x: np.ones(3),
                                        lambda x: 1.0,
                                        lambda x: np.ones_like(x)[1:-1]])
    def test_wrong_source_shape_raises(self, values):
        # a short array would broadcast its average over the whole grid, a
        # scalar would fail on indexing and interior values on adding the
        # average; each must be refused by name
        cfg = _config(source=lambda x, t: values(x))
        with pytest.raises(ValueError, match="source values have wrong shape"):
            _solve_quiet(cfg)
        with pytest.raises(ValueError, match="source values have wrong shape"):
            longdouble_sweep(cfg)

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
        # the overflow passes through the residual into the increment; the
        # sweep's residual test, not a scan of each right-hand side, reports it
        assert exc.value.level == 1
        assert exc.value.residual == float("inf")
        assert exc.value.cap == 500

    def test_nan_source_raises_at_its_first_level(self):
        # a NaN right-hand side reaches the sweep unscreened, like an overflow;
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


def _phase_separation_config(M=32):
    # the coarsening benchmark's phase-separation regime in miniature
    noise = 0.01 * np.random.default_rng(0).uniform(-1.0, 1.0, M + 1)

    def initial(x):
        return 0.9 * np.sin(np.pi * x) * np.cos(6.0 * np.pi * x) + noise

    return SolverConfig(alpha=0.5, kappa=0.03, epsilon=0.05, M=M,
                        mesh=build_graded_cubic(40, 0.1), initial=initial)


def _manufactured_config():
    # the manufactured forcing from zero data, so the source term drives
    # the march
    return SolverConfig(alpha=0.5, kappa=0.01, epsilon=0.1, M=32,
                        mesh=build_graded_cubic(40, 1.0),
                        source="manufactured", initial=np.zeros_like)


def _scipy_operators(cfg):
    """A, D and K = kappa D + kappa eps^2 D A^{-1} D, via scipy.linalg."""
    A = a_matrix(cfg.M)
    D = dxx_matrix(cfg.M)
    K = cfg.kappa * D + cfg.kappa * cfg.epsilon ** 2 * (
        D @ scipy_lu_solve(scipy_lu_factor(A), D))
    return A, D, K


def _scipy_sweep_oracle(cfg, legacy_rhs=False):
    """The lagged sweep solved by LU: every level factors its step matrix
    B0 A + K with scipy.linalg's lu_factor, and every sweep solves it with
    lu_solve for u_next = (B0 A + K)^{-1} (kappa D u^3 + const).

    The right-hand side is solve's, (kappa D) @ (u u u) + const; with
    legacy_rhs it is kappa * (D @ u**3) + const, the unfolded form, which
    rounds differently. K keeps its underflow tail. Homogeneous source only,
    validators left out. Returns the (N+1, M-1) interior states and each
    level's sweep count.
    """
    assert cfg.source is None
    mesh, alpha, kappa, M = cfg.mesh, cfg.alpha, cfg.kappa, cfg.M
    x_full = np.linspace(0.0, 1.0, M + 1)
    A, D, K = _scipy_operators(cfg)
    kD = kappa * D
    U = np.empty((mesh.N + 1, M - 1))
    U[0] = np.asarray(cfg.initial(x_full), dtype=float)[1:-1]
    dU = np.empty((mesh.N, M - 1))
    iterations = np.zeros(mesh.N, dtype=int)
    ag = np.zeros(M - 1)  # A g of the zero source
    for n in range(1, mesh.N + 1):
        B = kernel_row_B(n, mesh, alpha)
        B0 = B[n - 1]
        hist = B[: n - 1] @ dU[: n - 1] if n > 1 else 0.0
        const = A @ (B0 * U[n - 1] - hist) + ag
        lu_L = scipy_lu_factor(B0 * A + K)
        u_s = U[n - 1].copy()
        for s in range(cfg.max_iterations):
            if legacy_rhs:
                rhs = kappa * (D @ (u_s ** 3)) + const
            else:
                rhs = kD @ (u_s * u_s * u_s) + const
            u_next = scipy_lu_solve(lu_L, rhs)
            res = float(np.max(np.abs(u_next - u_s)))
            u_s = u_next
            if res <= cfg.iteration_tol:
                iterations[n - 1] = s + 1
                break
        else:
            raise AssertionError("oracle sweep did not converge at %d" % n)
        U[n] = u_s
        dU[n - 1] = U[n] - U[n - 1]
    return U, iterations


def _sine_operator(cfg, B0):
    """S diag(B0 a + k) S: the step matrix B0 A + K built from the sine
    basis and the eigenvalues a of A and k of K, as solve's correction
    inverts it; equal to B0 A + K in exact arithmetic."""
    m, kappa, eps = cfg.M - 1, cfg.kappa, cfg.epsilon
    S = _sine_matrix(np.empty((m, m)))
    a = _tridiag_eigs(1.0 / 12.0, 10.0 / 12.0, m)
    d = _tridiag_eigs(1.0, -2.0, m) / (cfg.h * cfg.h)
    k = kappa * d + kappa * eps ** 2 * (d * d / a)
    return (S * (B0 * a + k)) @ S


class TestStepSweep:
    """solve's sweep corrects the residual of the dense step matrix
    L = B0 A + K in the sine basis, where it once solved L by LU. The two
    maps agree up to roundoff, so solve must take the LU sweep's sweeps and
    reach its fixed point."""

    def test_same_sweeps_and_states_as_lu_sweep_oracle(self):
        # the states differ by at most 4.8e-15 (max |u| 0.89); the bound is
        # about 10x that
        cfg = _phase_separation_config()
        hist = _solve_quiet(cfg)
        assert hist.iterations.min() >= 9 and hist.iterations.max() >= 40
        U, iterations = _scipy_sweep_oracle(cfg)
        assert np.array_equal(hist.iterations, iterations)
        assert np.max(np.abs(hist.U - U)) <= 5e-14

    @pytest.mark.parametrize("M", [16, 200])
    @pytest.mark.parametrize("between", [0.0, -0.0])
    def test_stencils_padded_ends_match_the_dense_oracle(self, M, between):
        # the march applies A and kappa D as three-point stencils between
        # two zeros, the oracle as dense matrices: data that lives only at
        # the two end nodes, with +0.0 or -0.0 between them, must take the
        # oracle's sweeps and stay within test_same_sweeps_and_states_as_
        # lu_sweep_oracle's bound
        def initial(x):
            u = np.full_like(x, between)
            u[1], u[-2] = 0.6, -0.8
            return u

        cfg = dataclasses.replace(_run_energy_config(M), initial=initial)
        hist = _solve_quiet(cfg)
        U, iterations = _scipy_sweep_oracle(cfg)
        assert np.array_equal(hist.iterations, iterations)
        assert np.max(np.abs(hist.U - U)) <= 5e-14

    @pytest.mark.parametrize("zero", [0.0, -0.0])
    def test_zero_data_stays_exactly_zero(self, zero):
        # at a zero state each residual is +0.0 (the homogeneous source adds
        # +0.0 to const), so is its correction, and u + (+0.0) turns -0.0
        # into +0.0: U[0] keeps the sign of the data, and every later level
        # is +0.0
        cfg = _config(M=16, initial=lambda x: np.full_like(x, zero))
        U = _solve_quiet(cfg).U
        assert U[0].tobytes() == np.full(15, zero).tobytes()
        assert U[1:].tobytes() == np.zeros_like(U[1:]).tobytes()

    def test_every_level_solves_the_step_equation(self):
        # U[n] solves fl(B0 A + floored K) u = kappa D u^3 + const to within
        # 2.1e-16 of the size of its terms at every level. The same states
        # leave 7.9e-16 against the sine-basis operator, which equals L in
        # exact arithmetic: the bound, 2 eps, tells the two apart
        cfg = _run_energy_config(200)
        U = _solve_quiet(cfg).U
        A, D, K = _scipy_operators(cfg)
        K[np.abs(K) < 2.0 ** -511] = 0.0
        kD = cfg.kappa * D
        dU = np.diff(U, axis=0)
        worst = {"L": 0.0, "sine": 0.0}
        for n in range(1, cfg.mesh.N + 1):
            B = kernel_row_B(n, cfg.mesh, cfg.alpha)
            B0 = B[n - 1]
            const = A @ (B0 * U[n - 1] - B[: n - 1] @ dU[: n - 1])
            u = U[n]
            f = kD @ (u * u * u) + const
            L = B0 * A + K
            size = np.max(np.abs(L) @ np.abs(u) + np.abs(kD) @ np.abs(u ** 3)
                          + np.abs(const))
            for name, op in (("L", L), ("sine", _sine_operator(cfg, B0))):
                worst[name] = max(worst[name],
                                  np.max(np.abs(op @ u - f)) / size)
        assert worst["L"] <= 2 * np.finfo(float).eps < worst["sine"]

    def test_states_close_to_legacy_rhs_oracle(self):
        # the LU sweep on the unfolded kappa * (D @ u**3) is 4.7e-15 from
        # solve on this run (max |u| 0.89); it is 1.15e-15 from the LU sweep
        # on solve's (kappa D) @ (u u u), and the bound is 10x that
        cfg = _phase_separation_config()
        gap = np.max(np.abs(_solve_quiet(cfg).U
                            - _scipy_sweep_oracle(cfg, legacy_rhs=True)[0]))
        assert gap <= 1.15e-14

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                        reason="np.longdouble is no wider than float64")
    @pytest.mark.parametrize("make_config, bound", [
        (_phase_separation_config, 1e-13),
        (_manufactured_config, 1e-14),
    ], ids=["phase-separation", "manufactured-source"])
    def test_states_close_to_longdouble_sweep(self, make_config, bound):
        # the LU sweep in extended precision, with a numpy LU in place of
        # LAPACK. On the phase-separation run solve is 1.78e-14 from it
        # (the float64 LU sweep 1.74e-14); the bound is about 6x that. On
        # the manufactured run solve is 1.5e-16 from it, and a source
        # averaged with zero ends in place of its own boundary values
        # would put it 6.1e-6 away; the bound is about 70x the gap
        cfg = make_config()
        gap = np.max(np.abs(_solve_quiet(cfg).U
                            - longdouble_sweep(cfg)))
        assert gap <= bound

    def test_lapack_calls_go_through_the_module_globals(self, monkeypatch):
        # bench/spans.py counts the LAPACK layer by rebinding these names
        calls = {"lu_factor": 0, "lu_solve": 0}
        for name in calls:
            def counted(*args, _real=getattr(tfch_solver, name), _name=name,
                        **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)
            monkeypatch.setattr(tfch_solver, name, counted)
        _solve_quiet(_phase_separation_config())
        # A's factor and A^{-1} D, once per run; no level factors anything
        assert calls == {"lu_factor": 1, "lu_solve": 1}

    @pytest.mark.parametrize("M", [16, 128, 200, 512, 1024])
    def test_lapack_layer_is_scipy_linalg_bitwise(self, M):
        # numpy's gesv gives every bit of scipy's getrf and getrs, in the
        # Fortran order that keeps the sweep's products' bits
        A, D = a_matrix(M), dxx_matrix(M)
        got = tfch_solver.lu_solve(tfch_solver.lu_factor(A), D)
        want = scipy_lu_solve(scipy_lu_factor(A), D)
        assert got.flags.f_contiguous
        assert got.tobytes(order="A") == want.tobytes(order="A")

    def test_lapack_layer_is_bitwise_across_blas_thread_counts(
            self, tmp_path, per_blas_thread_count):
        # A^{-1} D keeps its bits under two OpenBLAS threads; of set-up's
        # products only the GEMM D @ L does not (from M = 100 up), and that
        # alone makes tfch-run's outputs depend on the thread count
        runs = per_blas_thread_count(tmp_path, _LAPACK_PROBE)
        assert sorted(runs[0]) == ["M200", "M512"]
        for name, values in runs[0].items():
            assert values.tobytes() == runs[1][name].tobytes(), name


# Runs in a child process: set-up's A^{-1} D at two M, saved as npz.
_LAPACK_PROBE = """
import sys
import numpy as np
from tfch.compact_spatial import a_matrix, dxx_matrix
from tfch.tfch_solver import lu_factor, lu_solve
np.savez(sys.argv[1], **{"M%d" % M: lu_solve(lu_factor(a_matrix(M)),
                                            dxx_matrix(M))
                         for M in (200, 512)})
"""


def _run_energy_config(M):
    # the run-energy workload's physics (tfch-run --alpha 0.4 defaults) on a
    # short mesh
    return SolverConfig(alpha=0.4, kappa=0.01, epsilon=0.1, M=M,
                        mesh=build_graded_cubic(40, 1.0), initial=quartic_bump)


def _step_matrices(cfg, monkeypatch):
    """Copies of the step matrix L that solve(cfg) applies at each level.

    L is the buffer lu_solve returns for A^{-1} D, rewritten in place at
    every level; it holds level n's matrix when the march asks the kernel
    row stream for the row after n's.
    """
    buffers, seen = [], []
    real_solve, real_rows = tfch_solver.lu_solve, tfch_solver.kernel_rows

    def spy_solve(*args):
        buffers.append(real_solve(*args))
        return buffers[-1]

    def spy_rows(mesh, alpha):
        for row in real_rows(mesh, alpha):
            yield row
            seen.append(buffers[0].copy())

    monkeypatch.setattr(tfch_solver, "lu_solve", spy_solve)
    monkeypatch.setattr(tfch_solver, "kernel_rows", spy_rows)
    _solve_quiet(cfg)
    return seen


class TestUnderflowTail:
    """solve zeroes the entries of K below 2^-511: their products with the
    states in each sweep's L u would be subnormal, and on Intel x86 cores
    each such product takes a slow microcode assist. No state may move by
    a bit."""

    def test_floor_is_two_to_minus_511(self):
        assert tfch_solver._K_FLOOR == 2.0 ** -511

    @pytest.mark.parametrize("M, tail, gap", [(200, 1406, 7.6e-14),
                                              (256, 8556, 2.9e-13)])
    def test_same_sweeps_and_states_as_oracle_with_the_tail(self, M, tail,
                                                            gap):
        # the LU sweep keeps K's tail; gap is the largest state difference
        # measured on this run, and the bound is 10x that
        cfg = _run_energy_config(M)
        K = _scipy_operators(cfg)[2]
        assert np.count_nonzero(np.abs(K) < 2.0 ** -511) == tail
        hist = _solve_quiet(cfg)
        U, iterations = _scipy_sweep_oracle(cfg)
        assert np.array_equal(hist.iterations, iterations)
        assert np.max(np.abs(hist.U - U)) <= 10 * gap

    @pytest.mark.parametrize("M", [200, 256, 512])
    def test_floor_moves_no_state(self, monkeypatch, M):
        cfg = _run_energy_config(M)
        floored = _solve_quiet(cfg).U
        monkeypatch.setattr(tfch_solver, "_K_FLOOR", 0.0)
        assert _solve_quiet(cfg).U.tobytes() == floored.tobytes()

    def test_no_step_matrix_has_entries_below_the_floor(self, monkeypatch):
        seen = _step_matrices(_run_energy_config(200), monkeypatch)
        assert len(seen) == 40  # one per level
        for L in seen:
            small = np.abs(L) < 2.0 ** -511
            assert not np.any(small & (L != 0.0))

    @pytest.mark.parametrize("make_config, M, zeroed", [
        (_phase_separation_config, 128, 0),
        (_run_energy_config, 200, 1406),
    ], ids=["coarsening", "run-energy"])
    def test_step_matrices_bitwise_b0_a_plus_floored_k(self, monkeypatch,
                                                        make_config, M,
                                                        zeroed):
        # at M = 128 min |K| is 1.25e-119: nothing is zeroed. solve rewrites
        # only A's band of K's buffer, which equals the full B0 * A + K
        # because K holds no -0.0, before the floor or after it: kappa D's
        # zeros off the band are -0.0, but K adds the product
        # kappa eps^2 D A^{-1} D onto them, which holds none, and a sum is
        # -0.0 only when both its terms are
        cfg = make_config(M)
        A, _, K = _scipy_operators(cfg)
        assert not np.any(np.signbit(K) & (K == 0.0))
        small = np.abs(K) < 2.0 ** -511
        assert np.count_nonzero(small) == zeroed
        K[small] = 0.0
        assert not np.any(np.signbit(K) & (K == 0.0))
        seen = _step_matrices(cfg, monkeypatch)
        assert len(seen) == cfg.mesh.N
        for n, L in enumerate(seen, start=1):
            B0 = kernel_row_B(n, cfg.mesh, cfg.alpha)[n - 1]
            assert L.tobytes() == (B0 * A + K).tobytes()


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


def _lipschitz_reference(U):
    return float(np.max(np.abs(3.0 * U ** 2 - 1.0)))


class TestLipschitzPass:
    """solve's Lipschitz constant is taken in buffers it already owns,
    bitwise the whole-run expression."""

    _SHAPES = [(246, 99), (251, 99), (1, 99), (81, 99), (4, 8195), (99,)]

    @staticmethod
    def _peak(U):
        return tfch_solver._peak(U, np.empty_like(U))

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("amplitude, zeros", [(0.5, True), (0.5, False),
                                                  (1.7, False)])
    def test_bitwise_whole_run_expression(self, seed, amplitude, zeros):
        # amplitude 0.5: |f'| peaks at the smallest |u|, where 1 - 3u^2
        # wins, and at exactly 1 where the states hold +-0.0; amplitude
        # 1.7: it peaks at the largest |u|
        rng = np.random.default_rng(seed)
        for shape in self._SHAPES:
            U = rng.uniform(-amplitude, amplitude, shape)
            if zeros:
                U.flat[rng.integers(0, U.size, 5)] = 0.0
                U.flat[rng.integers(0, U.size, 5)] = -0.0
            got = self._peak(U)
            if amplitude < 0.5 ** 0.5:
                assert got == 1.0 - 3.0 * np.min(np.abs(U)) ** 2
            else:
                assert got == 3.0 * np.max(np.abs(U)) ** 2 - 1.0
            assert np.float64(got).tobytes() == \
                np.float64(_lipschitz_reference(U)).tobytes(), shape

    def test_nan_state_gives_nan(self):
        U = np.zeros((1173, 7))
        U[-1, 2] = np.nan
        assert math.isnan(self._peak(U))

    def test_solve_reports_the_whole_run_expression(self):
        hist = _solve_quiet(_phase_separation_config())
        assert hist.lipschitz_constant == _lipschitz_reference(hist.U)


class TestPeakMemory:
    @pytest.mark.parametrize("N, M", [(1000, 100), (200, 512)])
    def test_two_state_arrays_and_fixed_workspace(self, N, M, traced_peak,
                                                  row_stream_peak):
        # U and dU are the only arrays the size of the N+1 states, and the
        # (M-1)^2 arrays are A, D, L (in K's buffer) and S, all four alive
        # at once during set-up. The kernel row stream's block workspace is
        # measured on the same mesh; 128 KiB covers the length-N and
        # length-(M-1) vectors. N >> M in the first case and M is large in
        # the second. Measured over tfch-run's pair, solve then
        # energy_series: the march's online energy feed adds vectors only,
        # and energy_series runs once the march's dU, L and S are freed.
        cfg = _config(mesh=build_graded_cubic(N, 1.0), M=M)
        peak = traced_peak(lambda: energy_series(_solve_quiet(cfg)))
        assert peak <= _march_bound(cfg, row_stream_peak)

    def test_march_holds_two_matrices_after_set_up(self):
        # once set up, the march keeps L and S and applies A and kappa D as
        # stencils: beside U and dU, 128 KiB covers the bands, the stencil
        # buffers and the length-(M-1) vectors. Keeping A and D as well
        # would add 4.2 MB at M = 512
        N, M = 200, 512
        cfg = _config(mesh=build_graded_cubic(N, 1.0), M=M)
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                march = tfch_solver._March(cfg)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            if started:
                tracemalloc.stop()
        assert march.L.shape == march.S.shape == (M - 1, M - 1)
        assert held <= (2 * 8 * (M - 1) ** 2 + 2 * 8 * (N + 1) * (M - 1)
                        + 128 * 1024)


def _march_bound(cfg, row_stream_peak):
    """Bytes a march may add at its peak: U and dU, the four (M-1)^2
    matrices at set-up's peak (A, D, gesv's result and its Fortran-order
    copy, inside lu_solve; the march keeps only L and S), the kernel row
    stream's block workspace and 128 KiB of vectors."""
    N, M = cfg.mesh.N, cfg.M
    return (2 * 8 * (N + 1) * (M - 1) + 4 * 8 * (M - 1) ** 2
            + row_stream_peak(cfg.mesh, cfg.alpha) + 128 * 1024)


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
        exact = manufactured_solution(np.linspace(0.0, 1.0, 17), 1.0, alpha)
        err = np.abs(hist.terminal.values - exact).max()
        assert err <= 5e-3

    @pytest.mark.parametrize("build, rate", [
        (build_graded_cubic, lambda a: min(4.0 * a, 3.0 - a)),
        (build_uniform, lambda a: a),
    ], ids=["graded-cubic", "uniform"])
    @pytest.mark.parametrize("alpha", [0.3, 0.5])
    def test_mesh_grading_sets_the_rate_on_a_weakly_singular_solution(
            self, alpha, build, rate):
        # u = t^alpha x^4 (1-x)^4 has (d/dt)^alpha u = Gamma(1+alpha) bump,
        # and its time derivative is unbounded at t = 0. The source is
        # manufactured_source's terms with that time part and the t powers
        # of this u. The error is the max over all levels: at t = 1 alone
        # the uniform mesh shows rate 1 and hides the singularity.
        kappa, eps, M = 0.01, 0.1, 128
        g = gamma(1.0 + alpha)

        def source(x, t):
            y = 1.0 - x
            lap_u3 = (132.0 * x ** 10 * y ** 12 - 288.0 * x ** 11 * y ** 11
                      + 132.0 * x ** 12 * y ** 10) * t ** (3.0 * alpha)
            biharm = (24.0 * y ** 4 - 384.0 * x * y ** 3
                      + 864.0 * x ** 2 * y ** 2 - 384.0 * x ** 3 * y
                      + 24.0 * x ** 4) * t ** alpha
            lap_u = (12.0 * x ** 2 * y ** 4 - 32.0 * x ** 3 * y ** 3
                     + 12.0 * x ** 4 * y ** 2) * t ** alpha
            return (g * quartic_bump(x) - kappa * lap_u3
                    + kappa * eps ** 2 * biharm + kappa * lap_u)

        bump = quartic_bump(np.linspace(0.0, 1.0, M + 1))[1:-1]
        Ns = [32, 64, 128, 256]
        errors = []
        for N in Ns:
            mesh = build(N, 1.0)
            hist = _solve_quiet(_config(alpha=alpha, kappa=kappa,
                                        epsilon=eps, mesh=mesh, M=M,
                                        source=source,
                                        initial=lambda x: np.zeros_like(x)))
            exact = mesh.nodes[:, None] ** alpha * bump
            errors.append(np.max(np.abs(hist.U - exact)))
        orders = convergence_order(errors, Ns)
        assert np.all(np.abs(orders - rate(alpha)) <= 0.1), orders


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
        D = dxx_matrix(M)
        Ainv_D = np.linalg.solve(A, D)
        U = hist.U
        masses = mass(U)
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
