"""Kernel values against high-precision oracles, plus the ratio-theory roots.

Two independent oracles pin the kernel stack:

  * 50-digit evaluation of the closed-form power differences, which checks
    the double-precision evaluation path (including the series branch used
    for distant history, where the naive formula loses every digit);
  * adaptive quadrature of the defining history integrals with the exact
    piecewise-quadratic slope, which checks the closed forms themselves and
    the full six-case assembly of the convolution kernels.
"""

import warnings

import mpmath as mp
import numpy as np
import pytest

from tfch import caputo_l2
from tfch.caputo_l2 import (
    RHO_BAR,
    apply_caputo,
    coeffs_cd,
    kernel_row,
    kernel_row_B,
    kernel_rows,
    q,
    q2,
    q3,
    rho_bar,
    rho_star,
    solve_linear_fode,
    theta,
    truncation_bound,
    write_kernel_row_csv,
    write_q3_csv,
    write_rho_star_csv,
)
from tfch.diagnostics import convergence_order
from tfch.temporal_mesh import build_custom, build_graded_cubic, build_uniform


def _mp_powers_cd(n, mesh, alpha_float):
    """c, d rows from the power-difference definitions at 50 digits.

    tau is re-derived from the nodes inside the extended precision: feeding
    the float-rounded steps alongside exact node differences makes the two
    d terms cancel against inconsistent inputs, and the oracle itself loses
    seven digits on distant-history rows.
    """
    with mp.workdps(50):
        alpha = mp.mpf(alpha_float)
        t = [mp.mpf(float(v)) for v in mesh.nodes]
        g2 = mp.gamma(2 - alpha)
        g3 = mp.gamma(3 - alpha)
        c, d = [], []
        for k in range(1, n + 1):
            a, b = t[n] - t[k - 1], t[n] - t[k]
            tau = t[k] - t[k - 1]
            c.append((a ** (1 - alpha) - b ** (1 - alpha)) / (tau * g2))
            d.append(2 * (a ** (2 - alpha) - b ** (2 - alpha)) / (tau ** 2 * g3)
                     - (a ** (1 - alpha) + b ** (1 - alpha)) / (tau * g2))
        return c, d


def _quad_cd(n, mesh, alpha_float):
    """c, d rows by integrating the history weight against the kernel.

    c_{n-k} integrates (t_n - s)^{-alpha} over interval k (scaled by tau),
    d_{n-k} integrates the same kernel against the centered linear weight
    2s - t_{k-1} - t_k (scaled by tau^2). Both divided by Gamma(1-alpha).
    """
    with mp.workdps(40):
        alpha = mp.mpf(alpha_float)
        t = [mp.mpf(float(v)) for v in mesh.nodes]
        g1 = mp.gamma(1 - alpha)
        c, d = [], []
        for k in range(1, n + 1):
            tau = t[k] - t[k - 1]
            lo, hi = t[k - 1], t[k]
            ker = lambda s: (t[n] - s) ** (-alpha)
            c.append(mp.quad(ker, [lo, hi]) / (g1 * tau))
            d.append(mp.quad(lambda s: ker(s) * (2 * s - lo - hi), [lo, hi])
                     / (g1 * tau ** 2))
        return c, d


def _quad_operator(w, mesh, alpha_float):
    """The level-n derivative by direct quadrature of the interpolant slope.

    Intervals k <= n-1 use the quadratic through (t_{k-1}, t_k, t_{k+1});
    the last interval reuses the quadratic of interval n-1. Level 1 uses the
    linear slope. This is the construction the kernels are derived from, so
    it exercises every assembly case at once.
    """
    n = len(w) - 1
    with mp.workdps(40):
        alpha = mp.mpf(alpha_float)
        t = [mp.mpf(float(v)) for v in mesh.nodes]
        wv = [mp.mpf(float(v)) for v in w]
        if n == 1:
            slope = (wv[1] - wv[0]) / (t[1] - t[0])
            val = slope * mp.quad(lambda s: (t[1] - s) ** (-alpha),
                                  [t[0], t[1]])
            return float(val / mp.gamma(1 - alpha))

        def dd1(k):
            return (wv[k] - wv[k - 1]) / (t[k] - t[k - 1])

        total = mp.mpf(0)
        for k in range(1, n + 1):
            j = min(k, n - 1)
            dd2 = (dd1(j + 1) - dd1(j)) / (t[j + 1] - t[j - 1])

            def f(s, j=j, dd2=dd2):
                return (t[n] - s) ** (-alpha) * (dd1(j)
                                                 + (2 * s - t[j - 1] - t[j]) * dd2)

            total += mp.quad(f, [t[k - 1], t[k]])
        return float(total / mp.gamma(1 - alpha))


@pytest.mark.parametrize("alpha", [0.3, 0.7])
def test_cd_match_integral_oracle(alpha, graded_24, mixed_ratio_mesh):
    for mesh in (graded_24, mixed_ratio_mesh):
        for n in (1, 2, 3, 5, 7):
            c, d = coeffs_cd(n, mesh, alpha)
            oc, od = _quad_cd(n, mesh, alpha)
            for k in range(n):
                assert abs(c[k] - float(oc[k])) <= 1e-10 * abs(float(oc[k]))
                assert abs(d[k] - float(od[k])) <= 1e-10 * max(
                    abs(float(od[k])), 1e-3 * abs(float(oc[k])))


@pytest.mark.parametrize("alpha", [0.3, 0.7])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 6])
def test_kernel_assembly_matches_integral_oracle(alpha, n, mixed_ratio_mesh):
    rng = np.random.default_rng(17 * n)
    w = rng.standard_normal(n + 1)
    got = apply_caputo(w, mixed_ratio_mesh, alpha)
    want = _quad_operator(w, mixed_ratio_mesh, alpha)
    B = kernel_row_B(n, mixed_ratio_mesh, alpha)
    scale = max(abs(want), float(np.abs(B * np.diff(w)).max()))
    assert abs(got - want) <= 1e-10 * scale


@pytest.mark.parametrize("alpha", [0.2, 0.5, 0.9])
def test_distant_history_keeps_full_precision(alpha):
    # graded cubic at N=200 pushes tau_k/(t_n - t_{k-1}) down to ~1e-7 on the
    # early intervals, where naively subtracting the powers returns noise
    mesh = build_graded_cubic(200, 1.0)
    n = 190
    c, d = coeffs_cd(n, mesh, alpha)
    oc, od = _mp_powers_cd(n, mesh, alpha)
    for k in range(n):
        assert abs(c[k] - float(oc[k])) <= 1e-13 * abs(float(oc[k]))
        assert abs(d[k] - float(od[k])) <= 1e-12 * abs(float(od[k]))


def test_series_and_direct_branches_agree():
    # the branch cut sits at eps = 0.25; a mesh step landing on either side
    # of it must produce the same d up to roundoff
    for eps_target in (0.2499, 0.2501):
        steps = np.array([1.0 - eps_target, eps_target])
        mesh = build_custom(steps / steps.sum())
        c, d = coeffs_cd(2, mesh, 0.5)
        oc, od = _mp_powers_cd(2, mesh, 0.5)
        assert abs(d[0] - float(od[0])) <= 1e-13 * abs(float(od[0]))


_SERIES_ALPHAS = [0.01, 0.1, 0.3, 0.5, 0.82265, 0.99]


def _bin_sweep_eps():
    """eps through each series bin, densely near 0.25, plus the bin bounds
    and their floating-point neighbours."""
    sweep = [np.geomspace(1e-9, 0.25, 20000),
             np.random.default_rng(7).uniform(0.0, 0.25, 20000)]
    for bound in (1e-3, 1e-2, 0.25):
        sweep.append([np.nextafter(bound, 0.0), bound,
                      np.nextafter(bound, 1.0)])
    return np.concatenate(sweep)


def _assert_cd_bitwise(a, tau, alpha, frozen):
    from scipy.special import gamma
    g2, g3 = gamma(2.0 - alpha), gamma(3.0 - alpha)
    got = caputo_l2._cd_history(a, tau, alpha, g2, g3)
    want = frozen(a, tau, alpha, g2, g3)
    for x, y in zip(got, want):
        assert x.tobytes() == y.tobytes()


@pytest.mark.parametrize("alpha", _SERIES_ALPHAS)
def test_series_bins_bitwise_equal_full_series_on_eps_sweep(
        alpha, frozen_cd_history):
    # a = 2^-j keeps tau / a equal to the target eps exactly
    eps = _bin_sweep_eps()
    for j in (0, 3, 17):
        a = np.full(eps.size, 2.0 ** -j)
        tau = eps * a
        assert (tau / a).tobytes() == eps.tobytes()
        _assert_cd_bitwise(a, tau, alpha, frozen_cd_history)


@pytest.mark.parametrize("alpha", _SERIES_ALPHAS)
def test_series_bins_bitwise_equal_full_series_on_graded_rows(
        alpha, frozen_cd_history):
    mesh = build_graded_cubic(4000, 1.0)
    levels = sorted({*range(2, 4001, 37), 4000})
    a = np.concatenate([mesh.nodes[n] - mesh.nodes[: n - 1] for n in levels])
    tau = np.concatenate([mesh.steps[: n - 1] for n in levels])
    _assert_cd_bitwise(a, tau, alpha, frozen_cd_history)


def test_quadratic_histories_are_differentiated_exactly(graded_64):
    from scipy.special import gamma
    for alpha in (0.2, 0.5, 0.8):
        w = graded_64.nodes ** 2
        for n in (2, 3, 7, 29, 64):
            got = apply_caputo(w[: n + 1], graded_64, alpha)
            want = 2.0 * graded_64.nodes[n] ** (2.0 - alpha) / gamma(3.0 - alpha)
            assert abs(got - want) <= 1e-12 * want


def test_constant_history_maps_to_zero(graded_24):
    assert apply_caputo(np.full(7, 3.25), graded_24, 0.6) == 0.0


def test_apply_caputo_is_elementwise(graded_24):
    rng = np.random.default_rng(3)
    w = rng.standard_normal((5, 3))
    out = apply_caputo(w, graded_24, 0.4)
    assert out.shape == (3,)
    for j in range(3):
        # summation order differs between the matrix and vector code paths
        assert out[j] == pytest.approx(apply_caputo(w[:, j], graded_24, 0.4),
                                       rel=1e-13)


def _piecewise_B(n, c, d, rho):
    """Convolution kernels B assembled case by case from (c, d), independently
    of the c_tilde entries the library builds B on.

    Subscript m maps to array index n - 1 - m; rho[k-1] is rho_k.
    """
    B = np.empty(n)
    if n == 1:
        B[0] = c[0]
        return B
    rho_n = rho[n - 1]
    B[n - 1] = c[n - 1] + d[n - 2] / (rho_n * (1.0 + rho_n)) \
        + rho_n / (1.0 + rho_n) * d[n - 1]
    if n == 2:
        B[0] = c[0] - d[0] / (1.0 + rho[1]) \
            - rho[1] ** 2 / (1.0 + rho[1]) * d[1]
        return B
    B[0] = c[0] - d[0] / (1.0 + rho[1])
    rho_m = rho[n - 2]
    B[n - 2] = c[n - 2] + d[n - 3] / (rho_m * (1.0 + rho_m)) \
        - d[n - 2] / (1.0 + rho_n) - rho_n ** 2 / (1.0 + rho_n) * d[n - 1]
    if n >= 4:
        ks = np.arange(2, n - 1)   # history intervals k = 2..n-2
        j = ks - 1
        B[j] = c[j] + d[ks - 2] / (rho[ks - 1] * (1.0 + rho[ks - 1])) \
            - d[j] / (1.0 + rho[ks])
    return B


@pytest.mark.parametrize("n", [1, 2, 3, 4, 6])
def test_kernel_row_bundle_is_consistent(mixed_ratio_mesh, n):
    alpha = 0.45
    row = kernel_row(n, mixed_ratio_mesh, alpha)
    c, d = coeffs_cd(n, mixed_ratio_mesh, alpha)
    th = theta(alpha)
    assert (row.c == c).all() and (row.d == d).all()
    assert row.B.tobytes() == _piecewise_B(n, c, d,
                                           mixed_ratio_mesh.ratios).tobytes()
    if n == 1:
        assert row.leading == th * c[0] and row.lagged == 0.0
    else:
        rho_n = mixed_ratio_mesh.ratios[n - 1]
        assert row.leading == th * c[n - 1] + rho_n / (1.0 + rho_n) * d[n - 1]
        assert row.lagged == rho_n ** 2 / (1.0 + rho_n) * d[n - 1]
    assert row.J[n - 1] == 2.0 * row.c_tilde[n - 1]
    assert (row.J[: n - 1] == row.c_tilde[: n - 1]).all()
    assert row.level == n


def _random_ratio_mesh(N, seed=3):
    rng = np.random.default_rng(seed)
    steps = 1e-3 * np.cumprod(np.concatenate(([1.0],
                                              rng.uniform(0.3, 4.7, N - 1))))
    return build_custom(steps)


_STREAM_MESHES = {
    # 44 850 history entries: several blocks of the 8192-entry budget
    "graded-300": lambda: build_graded_cubic(300, 1.0),
    "uniform-100": lambda: build_uniform(100, 1.0),
    "random-ratio-80": lambda: _random_ratio_mesh(80),
}


@pytest.mark.parametrize("budget", [None, 1])
@pytest.mark.parametrize("alpha", [0.1, 0.5, 0.82265, 0.99])
@pytest.mark.parametrize("mesh_name", sorted(_STREAM_MESHES))
def test_kernel_rows_bitwise_equal_kernel_row(mesh_name, alpha, budget,
                                              assert_stream_bitwise,
                                              monkeypatch):
    """The blocked stream reproduces the per-level rows exactly; budget 1
    makes every block a single level (levels 1 and 2 share the first)."""
    if budget is not None:
        monkeypatch.setattr(caputo_l2, "_BLOCK_ENTRIES", budget)
    assert_stream_bitwise(_STREAM_MESHES[mesh_name](), alpha)


# every level at N=1000; at N=4000 the first and last 40 levels and every
# 97th level between them
_GRADED_LEVELS = {
    1000: None,
    4000: sorted({*range(1, 41), *range(1, 4001, 97), *range(3961, 4001)}),
}


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7, 0.9])
@pytest.mark.parametrize("N", sorted(_GRADED_LEVELS))
def test_graded_rows_bitwise_equal_per_level_oracle(N, alpha,
                                                   assert_stream_bitwise):
    """Long graded streams match the per-level evaluation bit for bit. An
    array power in place of the scalar rho_n ** 2 moves lagged or B by an
    ulp at level 312 of N=1000, at each of these orders."""
    assert_stream_bitwise(build_graded_cubic(N, 1.0), alpha,
                          _GRADED_LEVELS[N])


def test_kernel_rows_are_read_only(graded_24):
    rows = [kernel_row(3, graded_24, 0.4), next(kernel_rows(graded_24, 0.4))]
    for row in rows:
        for arr in (row.c, row.d, row.B, row.c_tilde, row.J):
            with pytest.raises(ValueError):
                arr[0] = 1.0


def test_kernel_rows_validates_alpha(graded_24):
    with pytest.raises(ValueError):
        next(kernel_rows(graded_24, 1.0))


def test_first_level_row_collapses_to_single_kernel():
    mesh = build_uniform(4, 1.0)
    from scipy.special import gamma
    c, d = coeffs_cd(1, mesh, 0.3)
    assert c[0] == pytest.approx(0.25 ** -0.3 / gamma(1.7), rel=1e-15)
    assert (kernel_row_B(1, mesh, 0.3) == c).all()
    row = kernel_row(1, mesh, 0.3)
    assert row.lagged == 0.0
    assert row.leading == theta(0.3) * c[0]


def test_theta_endpoints():
    assert theta(1.0) == 1.0
    assert abs(theta(1e-9) - 0.5) < 1e-8
    with pytest.raises(ValueError):
        theta(0.0)
    with pytest.raises(ValueError):
        theta(1.2)


def test_level_and_order_validation(graded_24):
    with pytest.raises(ValueError):
        coeffs_cd(0, graded_24, 0.5)
    with pytest.raises(ValueError):
        coeffs_cd(graded_24.N + 1, graded_24, 0.5)
    with pytest.raises(ValueError):
        coeffs_cd(3, graded_24, 1.0)
    with pytest.raises(ValueError):
        apply_caputo([1.0], graded_24, 0.5)
    with pytest.raises(ValueError):
        apply_caputo(np.zeros(graded_24.N + 2), graded_24, 0.5)


def test_rho_star_is_the_q2_root():
    for alpha in np.linspace(0.05, 1.0, 20):
        rs = rho_star(float(alpha))
        assert rs > 1.0
        assert abs(q2(rs, float(alpha))) <= 1e-10
    assert rho_star(1.0) == pytest.approx(4.864536512317584, rel=1e-12)
    with pytest.raises(ValueError):
        rho_star(0.0)


def _rho_star_unguarded(alpha):
    """rho_star without its smallest-alpha check: the bisection and Newton
    steps as they stand in rho_star."""
    lo, hi = 1.0 + 1.0 / alpha, 10.0 + 20.0 / alpha
    if not (q2(lo, alpha) > 0.0 > q2(hi, alpha)):
        raise ArithmeticError("q2 does not change sign on the bracket")
    while hi - lo > 1e-13 * hi:
        mid = 0.5 * (lo + hi)
        if q2(mid, alpha) > 0.0:
            lo = mid
        else:
            hi = mid
    r = 0.5 * (lo + hi)
    for _ in range(2):
        slope = 1.0 / alpha + 1.0 - (2.0 - 0.5 * alpha) * r ** (1.0 - 0.5 * alpha)
        r -= q2(r, alpha) / slope
    return float(r)


def test_rho_star_refuses_alpha_below_its_smallest():
    # Below the smallest alpha, rounding decides the sign of q2 at the
    # bracket bottom; rho_star names that alpha in a ValueError and warns
    # about nothing.
    smallest = caputo_l2._RHO_STAR_ALPHA_MIN
    below = float(np.nextafter(smallest, 0.0))
    # 1.1489510001873063e-17 is an alpha whose sign test fails
    for alpha in (below, 1.1489510001873063e-17, 1e-153, 1e-300, 5e-324):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match=repr(smallest)):
                rho_star(alpha)


def test_rho_star_finds_every_root_from_its_smallest_alpha():
    # A dense scan from the smallest alpha to 1e-12, where the sign test at
    # the bracket bottom is most exposed to rounding: no alpha raises.
    smallest = caputo_l2._RHO_STAR_ALPHA_MIN
    grid = np.geomspace(smallest, 1e-12, 4000)
    assert grid[0] == smallest
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for alpha in grid:
            r = rho_star(float(alpha))
            assert 1.0 + 1.0 / alpha <= r <= 10.0 + 20.0 / alpha, alpha


def test_rho_star_unchanged_where_it_worked():
    # On a grid from the smallest alpha to 1, the unguarded steps finish
    # without a warning and rho_star gives their bits.
    smallest = caputo_l2._RHO_STAR_ALPHA_MIN
    grid = [smallest, float(np.nextafter(smallest, 1.0))]
    grid += [float(a) for a in np.geomspace(smallest, 1.0, 600)]
    grid += [float(a) for a in np.linspace(0.001, 1.0, 200)]
    for alpha in grid:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert rho_star(alpha) == _rho_star_unguarded(alpha), alpha


def test_rho_star_never_dips_below_the_pivot_ratio():
    # the threshold curve attains its minimum slightly above the 8-digit
    # pivot constant baked into theta
    vals = [rho_star(float(a)) for a in np.linspace(0.05, 0.999, 60)]
    assert min(vals) >= RHO_BAR


def test_q2_at_unit_ratio_closed_form():
    # rho - rho^{2-alpha/2} cancels at rho = 1
    for alpha in (0.1, 0.5, 0.9):
        want = 2.0 / alpha + 2.0 ** -alpha * alpha + 0.5 - alpha
        assert q2(1.0, alpha) == pytest.approx(want, rel=1e-14)


def test_q_exceeds_its_q2_surrogate_by_a_fixed_gap():
    # along the diagonal, q - (2 alpha / (1+z)) q2 equals
    # 2 S (z - RHO_BAR) / ((1 + RHO_BAR)(1 + z)) with S = 2^{-alpha} alpha^2
    # + alpha/2 - alpha^2, identically in z
    for alpha in (0.2, 0.5, 0.82265, 0.95):
        S = 2.0 ** -alpha * alpha ** 2 + 0.5 * alpha - alpha ** 2
        for z in (1.0, 2.5, RHO_BAR, 4.9):
            gap = 2.0 * S * (z - RHO_BAR) / ((1.0 + RHO_BAR) * (1.0 + z))
            lhs = q(z, z, alpha) - 2.0 * alpha / (1.0 + z) * q2(z, alpha)
            assert abs(lhs - gap) <= 1e-12
        rs = rho_star(alpha)
        assert q(rs, rs, alpha) > 0.0


def test_q_warns_below_unit_ratio():
    with pytest.warns(RuntimeWarning):
        q(0.5, 2.0, 0.5)


def test_rho_bar_fixed_point():
    r, a = rho_bar()
    assert r == pytest.approx(4.747611453396613, abs=1e-9)
    assert a == pytest.approx(0.82265228658182, abs=1e-9)
    assert abs(q2(r, a)) <= 1e-9
    assert abs(q3(r, a)) <= 1e-7


def test_rho_bar_is_the_minimum_of_rho_star():
    r, a = rho_bar()
    assert r == rho_star(a)
    assert min(rho_star(x) for x in np.linspace(0.05, 0.999, 200)) >= r
    # rho_star is quadratic near its minimum: 1e-3 either side of the
    # argmin costs about 3.7e-6
    for da in (-1e-3, 1e-3):
        assert rho_star(a + da) - r == pytest.approx(3.7e-6, rel=0.05)


def test_truncation_bound_controls_the_cubic_benchmark():
    from scipy.special import gamma
    mesh = build_graded_cubic(20, 1.0)
    alpha = 0.5
    w = mesh.nodes ** 3
    m2, m3 = 6.0 * mesh.horizon, 6.0
    for n in range(1, mesh.N + 1):
        got = apply_caputo(w[: n + 1], mesh, alpha)
        exact = gamma(4.0) / gamma(4.0 - alpha) * mesh.nodes[n] ** (3.0 - alpha)
        assert abs(got - exact) <= truncation_bound(n, mesh, alpha, m2, m3)


def test_truncation_bound_validation(graded_24):
    with pytest.raises(ValueError):
        truncation_bound(1, graded_24, 0.5, -1.0, 1.0)
    with pytest.raises(ValueError):
        truncation_bound(0, graded_24, 0.5, 1.0, 1.0)


@pytest.mark.parametrize("n", [2.5, 3.0])
def test_non_integer_level_raises(graded_24, n):
    with pytest.raises(ValueError, match="not an integer"):
        truncation_bound(n, graded_24, 0.5, 1.0, 1.0)
    with pytest.raises(ValueError, match="not an integer"):
        kernel_row(n, graded_24, 0.5)


def test_numpy_integer_level_accepted(graded_24):
    row = kernel_row(np.int64(3), graded_24, 0.5)
    assert row.B.tobytes() == kernel_row(3, graded_24, 0.5).B.tobytes()


def test_linear_fode_benchmark_accuracy():
    from scipy.special import gamma
    alpha = 0.5
    mesh = build_graded_cubic(50, 1.0)
    coeff = gamma(4.0 + alpha) / gamma(4.0)
    w = solve_linear_fode(mesh, alpha, lambda t: coeff * t ** 3)
    err = np.max(np.abs(mesh.nodes ** (3.0 + alpha) - w))
    assert err <= 5e-3
    assert w[0] == 0.0


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7])
@pytest.mark.parametrize("build, rate", [
    (build_graded_cubic, lambda alpha: min(4.0 * alpha, 3.0 - alpha)),
    (build_uniform, lambda alpha: alpha),
], ids=["graded", "uniform"])
def test_mesh_grading_sets_the_rate_on_a_weakly_singular_solution(
        alpha, build, rate):
    # w = t^alpha solves (d/dt)^alpha w = Gamma(1+alpha), and its derivative
    # is unbounded at t = 0. Uniform steps converge at order alpha only; the
    # graded mesh's t_k ~ (k/N)^4 restores min(4 alpha, 3 - alpha).
    from scipy.special import gamma
    Ns = [64, 128, 256, 512]
    g = gamma(1.0 + alpha)
    errors = []
    for N in Ns:
        mesh = build(N, 1.0)
        w = solve_linear_fode(mesh, alpha, lambda t: g)
        errors.append(np.max(np.abs(w - mesh.nodes ** alpha)))
    orders = convergence_order(errors, Ns)
    assert np.all(np.abs(orders - rate(alpha)) <= 0.1), orders


def test_kernel_row_csv(tmp_path, graded_24):
    path = tmp_path / "kernel_row.csv"
    write_kernel_row_csv(5, graded_24, 0.5, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "k,c,d,B,c_tilde,J"
    assert len(lines) == 6
    row = kernel_row(5, graded_24, 0.5)
    got = [float(p) for p in lines[3].split(",")]
    assert got == [3.0, row.c[2], row.d[2], row.B[2], row.c_tilde[2],
                   row.J[2]]


def test_threshold_csvs(tmp_path):
    spath = tmp_path / "rho_star.csv"
    write_rho_star_csv([0.3, 0.7], str(spath))
    lines = spath.read_text().splitlines()
    assert lines[0] == "alpha,rho_star"
    assert float(lines[1].split(",")[1]) == rho_star(0.3)

    qpath = tmp_path / "q3.csv"
    write_q3_csv([1.5, 2.0, 3.0], [0.4, 0.8], str(qpath))
    lines = qpath.read_text().splitlines()
    assert lines[0] == "rho,alpha,q3"
    assert len(lines) == 7
    assert float(lines[1].split(",")[2]) == q3(1.5, 0.4)
