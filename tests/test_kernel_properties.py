"""Randomized structural properties of the kernel rows.

Everything here holds for arbitrary admissible meshes (all step ratios in
[1, rho_star]): the split regrouping is algebra, the summation-by-parts
identity is algebra, the sign properties and the history inequality are the
load-bearing theory facts. Hypothesis drives the order, then mesh shape and
data: ratios up to 4.6, below every order's threshold, or up to
0.999 rho_star(alpha), the relaxed band above Liao et al.'s 4.660.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gamma

from tfch.caputo_l2 import (
    coeffs_cd,
    kernel_row_B,
    kernel_row_J,
    kernel_row_split,
    q,
    rho_star,
)
from tfch.diagnostics import (
    G_functional,
    dgs_identity_check,
    kernel_property_check,
)
from tfch.temporal_mesh import build_custom


@st.composite
def admissible_meshes(draw, n_min, n_max, rho_max):
    n = draw(st.integers(n_min, n_max))
    ratios = draw(st.lists(st.floats(1.0, rho_max), min_size=n - 1,
                           max_size=n - 1))
    tau1 = draw(st.floats(1e-3, 1.0))
    steps = [tau1]
    for r in ratios:
        steps.append(steps[-1] * r)
    return build_custom(np.array(steps))


@st.composite
def alpha_meshes(draw, n_min=2, n_max=20):
    alpha = draw(st.floats(0.05, 0.95))
    rho_max = draw(st.sampled_from([4.6, 0.999 * rho_star(alpha)]))
    return alpha, draw(admissible_meshes(n_min, n_max, rho_max))


@st.composite
def mesh_alpha_data(draw, n_min=2, n_max=20):
    alpha, mesh = draw(alpha_meshes(n_min=n_min, n_max=n_max))
    w = draw(st.lists(st.floats(-5.0, 5.0), min_size=mesh.N + 1,
                      max_size=mesh.N + 1))
    return mesh, alpha, np.asarray(w)


@settings(max_examples=60, deadline=None)
@given(mesh_alpha_data())
def test_split_regrouping_matches_the_plain_sum(data):
    mesh, alpha, w = data
    n = mesh.N
    dw = np.diff(w)
    direct = float(kernel_row_B(n, mesh, alpha) @ dw)
    leading, lagged, ct = kernel_row_split(n, mesh, alpha)
    split = leading * dw[n - 1] - lagged * dw[n - 2] + float(ct @ dw)
    scale = float(np.abs(kernel_row_B(n, mesh, alpha) * dw).sum())
    assert abs(direct - split) <= 1e-13 * max(scale, 1e-300)


@settings(max_examples=40, deadline=None)
@given(mesh_alpha_data(n_max=16))
def test_summation_by_parts_identity_is_exact(data):
    mesh, alpha, w = data
    rows = [kernel_row_J(m, mesh, alpha) for m in range(1, mesh.N + 1)]
    phis = np.diff(w)
    residual = dgs_identity_check(rows, 1.0, phis)
    scale = max(float(np.max(np.abs(r))) for r in rows) \
        * max(float(np.max(phis ** 2)), 1.0)
    assert residual <= 1e-12 * max(scale, 1e-300)


@settings(max_examples=30, deadline=None)
@given(alpha_meshes(n_max=48))
def test_kernel_sign_properties_on_admissible_meshes(data):
    alpha, mesh = data
    report = kernel_property_check(mesh, alpha)
    worst = min(report.monotonicity_margin, report.convexity_margin,
                report.dominance_margin)
    assert report.clean or worst >= -1e-13


@settings(max_examples=60, deadline=None)
@given(mesh_alpha_data(n_min=3))
def test_history_functional_dissipation_inequality(data):
    # B-weighted increment times the newest increment dominates the history
    # functional growth plus the ratio-margin penalty; level n = N - 1, so
    # the next ratio rho_{n+1} is a drawn one
    mesh, alpha, w = data
    n = mesh.N - 1
    dw = np.diff(w[: n + 1])
    lhs = float(kernel_row_B(n, mesh, alpha) @ dw) * dw[n - 1]
    g_now = G_functional(w[: n + 1], mesh, alpha)
    g_prev = G_functional(w[:n], mesh, alpha)
    rho_n, rho_next = mesh.ratios[n - 1], mesh.ratios[n]
    penalty = q(rho_n, rho_next, alpha) * dw[n - 1] ** 2 \
        / (2.0 * mesh.steps[n - 1] ** alpha * gamma(3.0 - alpha))
    slack = lhs - (g_now - g_prev + penalty)
    scale = max(abs(lhs), abs(g_now), abs(g_prev), penalty, 1e-300)
    assert slack >= -1e-12 * scale


@settings(max_examples=40, deadline=None)
@given(mesh_alpha_data(n_max=16))
def test_kernel_quadratic_form_dominates_its_diagonal(data):
    mesh, alpha, w = data
    n = mesh.N
    rows = [kernel_row_J(m, mesh, alpha) for m in range(1, n + 1)]
    phi = np.diff(w)
    lhs = 2.0 * sum(phi[m - 1] * float(rows[m - 1] @ phi[:m])
                    for m in range(1, n + 1))
    diag = sum(rows[m - 1][m - 1] * phi[m - 1] ** 2 for m in range(1, n + 1))
    assert lhs - diag >= -1e-12 * max(abs(lhs), diag, 1e-300)


@settings(max_examples=40, deadline=None)
@given(alpha_meshes())
def test_quadratic_function_exactness(data):
    from tfch.caputo_l2 import apply_caputo
    alpha, mesh = data
    n = mesh.N
    w = mesh.nodes ** 2
    got = apply_caputo(w, mesh, alpha)
    want = 2.0 * mesh.nodes[n] ** (2.0 - alpha) / gamma(3.0 - alpha)
    assert abs(got - want) <= 1e-12 * want


@settings(max_examples=40, deadline=None)
@given(alpha_meshes())
def test_exact_tail_kernels(data):
    alpha, mesh = data
    # the k = n entries collapse to single powers of the newest step
    for n in (1, mesh.N):
        c, d = coeffs_cd(n, mesh, alpha)
        tau = mesh.steps[n - 1]
        assert c[n - 1] == tau ** -alpha / gamma(2.0 - alpha)
        assert d[n - 1] == alpha * tau ** -alpha / gamma(3.0 - alpha)


@settings(max_examples=40, deadline=None)
@given(alpha_meshes())
def test_transformed_kernels_are_positive(data):
    # raw convolution weights can go negative on strongly graded meshes
    # (the oldest entry flips sign near ratio 3); the transformed row and
    # the split pieces are the ones with guaranteed signs
    alpha, mesh = data
    n = mesh.N
    B = kernel_row_B(n, mesh, alpha)
    assert B[n - 1] > 0.0
    leading, lagged, ct = kernel_row_split(n, mesh, alpha)
    assert leading > 0.0
    assert lagged >= 0.0
    J = kernel_row_J(n, mesh, alpha)
    assert (J > 0.0).all()
