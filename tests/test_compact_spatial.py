"""Compact spatial operators on the unit interval.

The operators take interior values and act along the last axis. The
averaging operator and second difference are small enough to check against
dense linear algebra directly; the fourth-order claim is checked by
Richardson ratios on a smooth eigenfunction.
"""

import mpmath
import numpy as np
import pytest
import scipy.fft
import scipy.linalg

from tfch.compact_spatial import (
    _A_ENTRIES,
    _dxx_entries,
    _sine,
    _sine_matrix,
    _stencil,
    _tridiag_eigs,
    _weights,
    _workspace,
    a_matrix,
    apply_A,
    apply_A_inv,
    apply_dxx,
    apply_H,
    apply_negH_inv,
    dxx_matrix,
    inner,
    norm_l2,
    quad_negH,
)


def _rand(M, seed=0):
    """Standard normal interior values on M intervals."""
    return np.random.default_rng(seed).standard_normal(M - 1)


def _interior(fn, M):
    """fn at the interior nodes i/M, i = 1..M-1."""
    return fn(np.linspace(0.0, 1.0, M + 1)[1:-1])


class TestArrayInputs:
    def test_mismatched_grids_raise(self):
        with pytest.raises(ValueError):
            inner(_rand(8), _rand(10))

    def test_mesh_width_comes_from_the_last_axis(self):
        # the second difference of x(1-x) is -2 at every interior node
        for M in (5, 16, 37):
            got = apply_dxx(_interior(lambda x: x * (1.0 - x), M))
            assert got == pytest.approx(np.full(M - 1, -2.0), rel=1e-9)

    @pytest.mark.parametrize("op", [apply_A, apply_A_inv, apply_dxx, apply_H,
                                    apply_negH_inv, norm_l2, quad_negH])
    def test_batched_rows_equal_single_states_bitwise(self, op):
        U = np.random.default_rng(2).standard_normal((5, 23))
        batched = op(U)
        for n in range(len(U)):
            assert batched[n].tobytes() == np.asarray(op(U[n])).tobytes()

    @pytest.mark.parametrize("op", [apply_A, apply_dxx],
                             ids=lambda op: op.__name__)
    @pytest.mark.parametrize("dtype", [np.float32, np.longdouble,
                                       np.complex128])
    def test_stencil_operators_keep_the_dtype(self, op, dtype):
        # the three-point stencils compute in the dtype they are given: a
        # complex state stays complex, so that the sine operators built on
        # them can refuse it with their own ValueError
        u = np.random.default_rng(4).standard_normal((2, 15)).astype(dtype)
        got = op(u)
        assert got.dtype == dtype
        np.testing.assert_allclose(got, op(u.real.astype(np.float64)),
                                   rtol=1e-5)

    def test_batched_inner_equals_single_states_bitwise(self):
        rng = np.random.default_rng(3)
        U, V = rng.standard_normal((2, 5, 23))
        batched = inner(U, V)
        for n in range(len(U)):
            assert batched[n].tobytes() == inner(U[n], V[n]).tobytes()


class TestAveraging:
    def test_matches_dense_matrix(self):
        M = 12
        u = _rand(M, seed=1)
        assert apply_A(u) == pytest.approx(a_matrix(M) @ u, rel=1e-14)

    def test_interior_stencil(self):
        M = 9
        u = _interior(lambda x: np.cos(3.0 * x) + 2.0, M)
        full = np.pad(u, 1)
        out = apply_A(u)
        for i in range(1, M):
            assert out[i - 1] == pytest.approx(
                (full[i - 1] + 10.0 * full[i] + full[i + 1]) / 12.0,
                rel=1e-14)

    def test_bitwise_padded_average_with_signed_zeros(self):
        # adding the +0.0 boundary value turns an edge of -0.0 into +0.0;
        # a two-term edge stencil would keep -0.0 there
        rows = np.array([
            [-0.0, -0.0, 1.5, 0.0, -0.0, -0.0],
            [0.0, -0.0, -0.0, -2.0, -0.0, 0.0],
            [-0.0, 3.0, -0.0, -0.0, 0.25, -0.0],
            [-0.0, -0.0, -0.0, -0.0, -0.0, -0.0],
        ])
        full = np.pad(rows, ((0, 0), (1, 1)))
        expected = _stencil(_weights(_A_ENTRIES, full), full)
        assert apply_A(rows).tobytes() == expected.tobytes()
        for row, want in zip(rows, expected):
            assert apply_A(row).tobytes() == want.tobytes()
        assert not np.signbit(apply_A(rows[3])[[0, -1]]).any()

    def test_inverse_roundtrip(self):
        u = _rand(16, seed=3)
        assert apply_A_inv(apply_A(u)) == pytest.approx(u, rel=1e-12)

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
        u = _rand(M, seed=4)
        dense = dxx_matrix(M) @ u
        assert apply_dxx(u) == pytest.approx(dense, rel=1e-13)

    @pytest.mark.parametrize("M", [8, 128])
    def test_dense_zeros_off_the_band_are_positive(self, M):
        # D's diagonal entry is negative, and its zeros are +0.0 all the
        # same, so that fl(0 + x) in K = kappa D + ... is never -0.0
        for T in (a_matrix(M), dxx_matrix(M)):
            assert not np.any(np.signbit(T) & (T == 0.0))

    def test_stencil_values(self):
        M = 7
        u = _rand(M, seed=5)
        full = np.pad(u, 1)
        out = apply_dxx(u)
        h2 = (1.0 / M) ** 2
        for i in range(1, M):
            assert out[i - 1] == pytest.approx(
                (full[i - 1] - 2.0 * full[i] + full[i + 1]) / h2, rel=1e-12)


class TestStencil:
    """The march makes the stencil's weights and workspace once and applies
    every stencil through _stencil into them; apply_A and apply_dxx let it
    allocate."""

    @staticmethod
    def _data(shape, seed, dtype=np.float64):
        # random values with -0.0 and +0.0 entries, between zero ends
        rng = np.random.default_rng(seed)
        v = rng.standard_normal(shape).astype(dtype)
        v.flat[rng.integers(0, v.size, v.size // 4)] = -0.0
        v.flat[rng.integers(0, v.size, v.size // 8)] = 0.0
        v[..., :2] = -0.0  # an edge whose value and neighbour are -0.0
        return np.pad(v, [(0, 0)] * (v.ndim - 1) + [(1, 1)])

    @pytest.mark.parametrize("dtype", [np.float64, np.float32,
                                       np.longdouble])
    @pytest.mark.parametrize("entries", [_A_ENTRIES, _dxx_entries(1.0 / 64),
                                         (0.03 * 4096.0, 0.03 * -8192.0)])
    @pytest.mark.parametrize("shape", [(63,), (5, 31)])
    def test_bitwise_equal_to_written_out_order(self, entries, shape, dtype):
        off, diag = entries
        for seed in range(3):
            full = self._data(shape, seed, dtype)
            # the order the docstring states, written out, with numpy's
            # own scalar products in full's dtype
            ref = (off * full[..., :-2] + off * full[..., 2:]) \
                + diag * full[..., 1:-1]
            weights = _weights(entries, full)
            want = _stencil(weights, full)
            assert want.dtype == ref.dtype == dtype
            out = np.empty(shape, dtype)
            got = _stencil(weights, full, out, _workspace(full.shape, dtype))
            assert got is out
            # equal values and signs: bit for bit, without long double's
            # padding bytes
            for v in (want, got):
                assert np.array_equal(v, ref)
                assert np.array_equal(np.signbit(v), np.signbit(ref))

    def test_workspace_made_once_serves_each_new_operand(self):
        # as in the march: the inside of one zero-ended buffer is rewritten
        # between calls, and one workspace serves A's and D's weights
        m = 47
        pad = np.zeros(m + 2)
        cube = pad[1:-1]
        work = _workspace(pad.shape)
        weights = [_weights(e, pad) for e in (_A_ENTRIES,
                                              _dxx_entries(1.0 / (m + 1)))]
        out = np.empty(m)
        for seed in range(4):
            cube[...] = self._data((m,), seed)[1:-1]
            for w in weights:
                _stencil(w, pad, out, work)
                assert out.tobytes() == _stencil(w, pad).tobytes()
        assert not np.signbit(pad[[0, -1]]).any()


class TestCompactLaplacian:
    def test_H_is_A_inverse_D(self):
        M = 10
        u = _rand(M, seed=6)
        dense = np.linalg.solve(a_matrix(M), dxx_matrix(M) @ u)
        assert apply_H(u) == pytest.approx(dense, rel=1e-12)

    def test_negH_inverse_roundtrip(self):
        u = _rand(14, seed=7)
        assert apply_H(apply_negH_inv(u)) == pytest.approx(-u, rel=1e-11)

    def test_dense_H_is_symmetric_negative_definite(self):
        # A and D share eigenvectors on the Dirichlet grid, so A^{-1} D is
        # symmetric with strictly negative eigenvalues
        M = 16
        H = np.linalg.solve(a_matrix(M), dxx_matrix(M))
        assert H == pytest.approx(H.T, rel=1e-10)
        eig = np.linalg.eigvalsh(0.5 * (H + H.T))
        assert eig.max() < 0.0

    def test_thomas_solve_matches_dense(self):
        M = 18
        u = _rand(M, seed=8)
        H = np.linalg.solve(a_matrix(M), dxx_matrix(M))
        dense = np.linalg.solve(-H, u)
        assert apply_negH_inv(u) == pytest.approx(dense, rel=1e-10)

    def test_fourth_order_on_sine(self):
        # consistency error of the compact laplacian on sin(pi x) shrinks
        # about sixteenfold per mesh doubling
        errs = []
        for M in (16, 32, 64, 128):
            s = _interior(lambda x: np.sin(np.pi * x), M)
            errs.append(np.max(np.abs(apply_H(s) + np.pi ** 2 * s)))
        ratios = [errs[i] / errs[i + 1] for i in range(len(errs) - 1)]
        for r in ratios:
            assert 14.0 <= r <= 18.0


class TestSineBasis:
    @pytest.mark.parametrize("M", [8, 37, 128])
    def test_eigenvalues_match_dense(self, M):
        h = 1.0 / M
        for off, diag, dense in (
                (1.0 / 12.0, 10.0 / 12.0, a_matrix(M)),
                (1.0 / (h * h), -2.0 / (h * h), dxx_matrix(M))):
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


    @pytest.mark.parametrize("M", [8, 128, 1024])
    def test_sine_matrix_is_the_transform(self, M):
        # S is the matrix of _sine: bitwise symmetric, its own inverse, and
        # it diagonalises A
        m = M - 1
        S = _sine_matrix(np.empty((m, m)))
        assert S.tobytes() == S.T.copy().tobytes()
        assert np.abs(S @ S - np.eye(m)).max() <= 1e-14
        v = _rand(M)
        assert np.abs(S @ v - _sine(v)).max() <= 1e-14
        a = _tridiag_eigs(1.0 / 12.0, 10.0 / 12.0, m)
        assert np.abs(S @ a_matrix(M) @ S - np.diag(a)).max() <= 1e-14

    @pytest.mark.parametrize("overwrite", [False, True],
                             ids=["copy", "overwrite"])
    @pytest.mark.parametrize("rows", [None, 1, 5, 1000])
    def test_sine_is_scipy_dst_bitwise(self, rows, overwrite):
        # the real-FFT DST-I has every bit of scipy.fft's orthonormal DST-I,
        # at every width (m + 1 = 512 and 1024 are where numpy's own "ortho"
        # factor would differ) and however many rows share a chunk
        rng = np.random.default_rng(rows or 0)
        for m in list(range(3, 301)) + [511, 1023]:
            shape = (m,) if rows is None else (rows, m)
            v = rng.standard_normal(shape)
            want = scipy.fft.dst(v, type=1, norm="ortho")
            given = v.copy()
            got = _sine(given, overwrite=overwrite)
            assert got.shape == shape
            assert got.tobytes() == want.tobytes(), m
            if overwrite:
                assert got is given
            else:
                assert given.tobytes() == v.tobytes()

    @pytest.mark.parametrize("op", [apply_A_inv, apply_H, apply_negH_inv,
                                    quad_negH], ids=lambda op: op.__name__)
    def test_sine_operators_compute_in_float64_and_reject_complex(self, op):
        # any real dtype is taken in float64; a complex state would lose
        # its imaginary part in the real-FFT DST-I, so it is refused
        u = np.random.default_rng(3).standard_normal((2, 15))
        want = op(u)
        for dtype in (np.float32, np.longdouble):
            got = op(u.astype(dtype))
            assert got.dtype == np.float64
            np.testing.assert_allclose(got, want, rtol=1e-6)
        with pytest.raises(ValueError, match="real values"):
            op(u + 1j * u)

    @pytest.mark.parametrize("M", [128, 1024])
    def test_sine_matrix_entries_to_a_few_ulps(self, M):
        # j k is reduced modulo 2M before scaling; sin(pi j k / M) taken
        # directly is off by up to 7.0e-15 at M = 1024, 1000 ulps of the
        # entries' scale sqrt(2/M), and the reduced form by under 4 ulps
        m = M - 1
        S = _sine_matrix(np.empty((m, m)))
        picks = np.random.default_rng(M).integers(1, m + 1, size=(200, 2))
        picks[:3] = [(m, m), (m, m - 1), (1, 1)]
        ulp = np.spacing(np.sqrt(2.0 / M))
        with mpmath.workdps(40):
            for j, k in picks:
                exact = mpmath.sqrt(mpmath.mpf(2) / M) * mpmath.sin(
                    mpmath.pi * int(j) * int(k) / M)
                assert abs(S[j - 1, k - 1] - float(exact)) <= 8 * ulp


class TestInnerProductsAndNorms:
    def test_inner_is_h_weighted_interior_sum(self):
        a = _rand(10, seed=9)
        b = _rand(10, seed=10)
        want = (1.0 / 10.0) * float(a @ b)
        assert inner(a, b) == pytest.approx(want, rel=1e-14)

    def test_sandwich_between_gradient_energies(self):
        # h (A u, -D u) is pinched between 2/3 and 1 times the squared
        # forward-difference seminorm
        h = 1.0 / 20
        for seed in range(6):
            u = _rand(20, seed=seed + 20)
            du = np.diff(np.pad(u, 1)) / h
            grad2 = h * float(du @ du)
            pairing = inner(apply_A(u), -apply_dxx(u))
            assert (2.0 / 3.0) * grad2 - 1e-12 * grad2 <= pairing
            assert pairing <= grad2 * (1 + 1e-12)

    def test_quad_negH_nonnegative_and_pairing_symmetric(self):
        a = _rand(15, seed=30)
        b = _rand(15, seed=31)
        assert quad_negH(a) >= 0.0
        assert inner(a, apply_negH_inv(b)) == pytest.approx(
            inner(b, apply_negH_inv(a)), rel=1e-11)

    def test_quad_negH_matches_the_stencil_form(self):
        # the sine-basis sum against -(H u, u) through the stencil and the
        # tridiagonal solve
        for M in (8, 37, 128):
            u = _rand(M, seed=M)
            assert quad_negH(u) == pytest.approx(-inner(apply_H(u), u),
                                                 rel=1e-12, abs=0)
