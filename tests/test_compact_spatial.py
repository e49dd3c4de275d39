"""Compact spatial operators on the unit interval.

The averaging operator and second difference are small enough to check
against dense linear algebra directly; the fourth-order claim is checked by
Richardson ratios on a smooth eigenfunction.
"""

import mpmath
import numpy as np
import pytest
import scipy.linalg

from tfch.compact_spatial import (
    GridFunction,
    _tridiag_eigs,
    a_matrix,
    apply_A,
    apply_A_inv,
    apply_dxx,
    apply_H,
    apply_negH_inv,
    dxx_matrix,
    hadamard_pow,
    inner,
    inner_negH,
    norm_gradH,
    norm_inf,
    norm_l2,
    quad_negH,
    sample,
)


def _rand(M, seed=0):
    rng = np.random.default_rng(seed)
    v = np.zeros(M + 1)
    v[1:-1] = rng.standard_normal(M - 1)
    return GridFunction(values=v)


class TestGridFunction:
    def test_sample_evaluates_on_closed_grid(self):
        g = sample(lambda x: x * (1.0 - x), 10)
        assert g.M == 10
        assert g.h == pytest.approx(0.1)
        assert g.values[0] == 0.0 and g.values[-1] == 0.0
        assert g.values[5] == pytest.approx(0.25)

    def test_interior_and_array_views(self):
        g = _rand(8)
        assert g.interior().shape == (7,)
        assert np.array_equal(np.asarray(g), g.values)

    def test_rejects_degenerate_values(self):
        with pytest.raises(ValueError):
            GridFunction(values=np.array([1.0]))

    def test_mismatched_grids_raise(self):
        with pytest.raises(ValueError):
            inner(_rand(8), _rand(10))


class TestAveraging:
    def test_matches_dense_matrix(self):
        M = 12
        g = _rand(M, seed=1)
        dense = a_matrix(M) @ g.interior()
        assert apply_A(g).interior() == pytest.approx(dense, rel=1e-14)

    def test_interior_stencil(self):
        M = 9
        g = sample(lambda x: np.cos(3.0 * x) + 2.0, M)
        u = g.values
        out = apply_A(g).values
        for i in range(1, M):
            assert out[i] == pytest.approx(
                (u[i - 1] + 10.0 * u[i] + u[i + 1]) / 12.0, rel=1e-14)

    def test_boundary_values_pass_through(self):
        g = sample(lambda x: np.cos(3.0 * x) + 2.0, 8)
        out = apply_A(g)
        assert out.values[0] == g.values[0]
        assert out.values[-1] == g.values[-1]

    def test_inverse_roundtrip(self):
        g = _rand(16, seed=3)
        back = apply_A_inv(apply_A(g))
        assert back.interior() == pytest.approx(g.interior(), rel=1e-12)

    def test_inverse_norm_bound(self):
        # eigenvalues of the averaging matrix live in (2/3, 1)
        for seed in range(6):
            g = _rand(20, seed=seed)
            assert norm_l2(apply_A_inv(g)) <= 1.5 * norm_l2(g) * (1 + 1e-12)

    def test_averaged_norm_sandwich(self):
        for seed in range(6):
            g = _rand(24, seed=seed)
            au2 = norm_l2(apply_A(g)) ** 2
            u2 = norm_l2(g) ** 2
            assert u2 / 3.0 - 1e-12 * u2 <= au2 <= u2 * (1 + 1e-12)


class TestSecondDifference:
    def test_matches_dense_matrix(self):
        M = 12
        g = _rand(M, seed=4)
        dense = dxx_matrix(M, g.h) @ g.interior()
        assert apply_dxx(g).interior() == pytest.approx(dense, rel=1e-13)

    def test_stencil_values_and_zero_ends(self):
        M = 7
        g = _rand(M, seed=5)
        u = g.values
        out = apply_dxx(g).values
        h2 = g.h ** 2
        assert out[0] == 0.0 and out[-1] == 0.0
        for i in range(1, M):
            assert out[i] == pytest.approx(
                (u[i - 1] - 2.0 * u[i] + u[i + 1]) / h2, rel=1e-12)


class TestCompactLaplacian:
    def test_H_is_A_inverse_D(self):
        M = 10
        g = _rand(M, seed=6)
        dense = np.linalg.solve(a_matrix(M), dxx_matrix(M, g.h) @ g.interior())
        assert apply_H(g).interior() == pytest.approx(dense, rel=1e-12)

    def test_negH_inverse_roundtrip(self):
        g = _rand(14, seed=7)
        back = apply_H(apply_negH_inv(g))
        assert back.interior() == pytest.approx(-g.interior(), rel=1e-11)

    def test_dense_H_is_symmetric_negative_definite(self):
        # A and D share eigenvectors on the Dirichlet grid, so A^{-1} D is
        # symmetric with strictly negative eigenvalues
        M = 16
        H = np.linalg.solve(a_matrix(M), dxx_matrix(M, 1.0 / M))
        assert H == pytest.approx(H.T, rel=1e-10)
        eig = np.linalg.eigvalsh(0.5 * (H + H.T))
        assert eig.max() < 0.0

    def test_thomas_solve_matches_dense(self):
        M = 18
        g = _rand(M, seed=8)
        H = np.linalg.solve(a_matrix(M), dxx_matrix(M, g.h))
        dense = np.linalg.solve(-H, g.interior())
        assert apply_negH_inv(g).interior() == pytest.approx(dense, rel=1e-10)

    def test_fourth_order_on_sine(self):
        # consistency error of the compact laplacian on sin(pi x) shrinks
        # about sixteenfold per mesh doubling
        errs = []
        for M in (16, 32, 64, 128):
            g = sample(lambda x: np.sin(np.pi * x), M)
            resid = apply_H(g).values[1:-1] \
                + np.pi ** 2 * np.sin(np.pi * np.linspace(0, 1, M + 1))[1:-1]
            errs.append(np.max(np.abs(resid)))
        ratios = [errs[i] / errs[i + 1] for i in range(len(errs) - 1)]
        for r in ratios:
            assert 14.0 <= r <= 18.0


class TestSineBasis:
    @pytest.mark.parametrize("M", [8, 37, 128])
    def test_eigenvalues_match_dense(self, M):
        h = 1.0 / M
        for off, diag, dense in (
                (1.0 / 12.0, 10.0 / 12.0, a_matrix(M)),
                (1.0 / (h * h), -2.0 / (h * h), dxx_matrix(M, h))):
            eigs = np.sort(_tridiag_eigs(off, diag, M - 1))
            expected = scipy.linalg.eigvalsh(dense)
            assert np.abs(eigs - expected).max() \
                <= 1e-14 * np.abs(expected).max()

    def test_smallest_second_difference_eigenvalue_is_accurate(self):
        # -4 sin^2(pi/2M)/h^2 at 30 digits; the form -2/h^2 + 2 cos(pi/M)/h^2
        # misses it by 4.2e-12 relative at this M
        M = 1024
        h = 1.0 / M
        with mpmath.workdps(30):
            exact = float(-4 * mpmath.sin(mpmath.pi / (2 * M)) ** 2 * M * M)
        got = _tridiag_eigs(1.0 / (h * h), -2.0 / (h * h), M - 1)[0]
        assert abs(got - exact) <= 1e-14 * abs(exact)


class TestInnerProductsAndNorms:
    def test_inner_is_h_weighted_interior_sum(self):
        a = _rand(10, seed=9)
        b = _rand(10, seed=10)
        want = (1.0 / 10.0) * float(a.interior() @ b.interior())
        assert inner(a, b) == pytest.approx(want, rel=1e-14)

    def test_norm_inf_is_interior_max(self):
        g = _rand(12, seed=11)
        assert norm_inf(g) == np.max(np.abs(g.interior()))

    def test_sandwich_between_gradient_energies(self):
        # h (A u, -D u) is pinched between 2/3 and 1 times the squared
        # forward-difference seminorm
        for seed in range(6):
            g = _rand(20, seed=seed + 20)
            du = np.diff(g.values) / g.h
            grad2 = g.h * float(du @ du)
            neg_dxx = GridFunction(values=-apply_dxx(g).values)
            pairing = inner(apply_A(g), neg_dxx)
            assert (2.0 / 3.0) * grad2 - 1e-12 * grad2 <= pairing
            assert pairing <= grad2 * (1 + 1e-12)

    def test_quad_negH_nonnegative_and_pairing_symmetric(self):
        a = _rand(15, seed=30)
        b = _rand(15, seed=31)
        assert quad_negH(a) >= 0.0
        assert inner_negH(a, b) == pytest.approx(inner_negH(b, a), rel=1e-11)

    def test_gradH_norm_squares_to_quad(self):
        g = _rand(15, seed=32)
        assert norm_gradH(g) ** 2 == pytest.approx(quad_negH(g), rel=1e-12)


class TestHadamardPower:
    def test_cubes_values(self):
        g = _rand(9, seed=33)
        out = hadamard_pow(g, 3)
        assert out.values == pytest.approx(g.values ** 3, rel=1e-14)
        assert out.h == g.h and out.domain == g.domain

    def test_rejects_bad_exponents(self):
        g = _rand(9, seed=34)
        with pytest.raises(ValueError):
            hadamard_pow(g, 0)
        with pytest.raises(ValueError):
            hadamard_pow(g, 1.5)
