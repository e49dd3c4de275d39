"""Mesh builders, the step/node consistency contract, and ratio validation."""

import numpy as np
import pytest

from tfch import temporal_mesh
from tfch.caputo_l2 import rho_star
from tfch.temporal_mesh import (
    build_custom,
    build_graded_cubic,
    build_uniform,
    validate_ratio_bound,
    write_mesh_csv,
)


def test_graded_cubic_two_steps_is_exact():
    mesh = build_graded_cubic(2, 1.0)
    assert mesh.nodes.tolist() == [0.0, 27.0 / 152.0, 1.0]
    assert mesh.steps.tolist() == [27.0 / 152.0, 1.0 - 27.0 / 152.0]


def test_graded_cubic_nodes_come_from_integer_partial_sums():
    N, T = 37, 2.5
    mesh = build_graded_cubic(N, T)
    P = [(k + 1) ** 2 * (2 * (k + 1) ** 2 - 1) - 1 for k in range(N + 1)]
    want = np.array([(p / P[N]) * T for p in P])
    want[0] = 0.0
    assert (mesh.nodes == want).all()
    assert mesh.nodes[-1] == T


def test_graded_cubic_ratio_law():
    mesh = build_graded_cubic(50, 1.0)
    k = np.arange(2, 51)
    np.testing.assert_allclose(mesh.ratios[1:],
                               ((2.0 * k + 1.0) / (2.0 * k - 1.0)) ** 3,
                               rtol=1e-12)
    assert mesh.ratios[0] == 0.0
    assert mesh.ratios[1:].max() <= (125.0 / 27.0) * (1.0 + 1e-12)


def test_steps_are_bitwise_node_differences():
    # kernel formulas subtract nodes and divide by steps; the two views of
    # tau_k must be the same float
    for mesh in (build_graded_cubic(19, 3.0),
                 build_uniform(11, 1.0),
                 build_custom([0.3, 0.4, 0.5])):
        assert (mesh.steps == np.diff(mesh.nodes)).all()


def test_uniform_mesh_passes_ratio_bound():
    mesh = build_uniform(10, 2.0)
    np.testing.assert_allclose(mesh.steps, 0.2, rtol=1e-15)
    assert validate_ratio_bound(mesh, 0.5).ok


def test_graded_cubic_is_admissible_for_every_order():
    mesh = build_graded_cubic(64, 1.0)
    for alpha in (0.1, 0.5, 0.9):
        report = validate_ratio_bound(mesh, alpha)
        assert report.ok, "offenders at alpha=%s: %r" % (alpha,
                                                         report.offenders)


def test_ratio_bound_flags_a_tenfold_jump():
    report = validate_ratio_bound(build_custom([0.1, 1.0]), 0.9)
    assert not report.ok
    assert report.offenders == (2,)


def test_ratio_bound_flags_a_shrinking_step():
    report = validate_ratio_bound(build_custom([1.0, 0.5]), 0.5)
    assert report.offenders == (2,)


def test_ratio_bound_slack_is_1e12_relative_at_both_ends():
    # ratios within 1e-12 (relative) of [1, rho_star] are admitted, so that
    # uniform meshes with rho_k = 1 - ulp pass; 1e-11 outside is an offender
    alpha = 0.5
    rs = rho_star(alpha)
    factors = [rs * (1.0 + 5e-13), 1.0 - 5e-13, 1.0 - 1e-11,
               rs * (1.0 + 1e-11)]
    mesh = build_custom(np.cumprod([1.0] + factors))
    rho = mesh.ratios
    assert rs < rho[1] <= rs * (1.0 + 1e-12)
    assert 1.0 - 1e-12 <= rho[2] < 1.0
    assert rho[3] < 1.0 - 1e-12
    assert rho[4] > rs * (1.0 + 1e-12)
    report = validate_ratio_bound(mesh, alpha)
    assert report.rho_star == rs
    assert report.offenders == (4, 5)


def test_accessors():
    mesh = build_graded_cubic(5, 1.0)
    assert mesh.N == 5
    assert mesh.horizon == 1.0
    assert mesh.tau_max == mesh.steps[-1]


def test_mesh_arrays_are_read_only():
    mesh = build_graded_cubic(4, 1.0)
    for arr in (mesh.nodes, mesh.steps, mesh.ratios):
        with pytest.raises(ValueError):
            arr[0] = 1.0


def test_builder_argument_validation():
    with pytest.raises(ValueError):
        build_graded_cubic(0, 1.0)
    with pytest.raises(ValueError):
        build_graded_cubic(4, 0.0)
    with pytest.raises(ValueError):
        build_uniform(-1, 1.0)
    with pytest.raises(ValueError):
        build_custom([])
    with pytest.raises(ValueError):
        build_custom([0.1, -0.2])
    with pytest.raises(ValueError):
        validate_ratio_bound(build_uniform(4, 1.0), 1.5)


@pytest.mark.parametrize("build", [build_graded_cubic, build_uniform])
def test_bool_N_refused(build):
    # isinstance(True, int) holds: True would build a 1-level mesh
    with pytest.raises(ValueError, match="N must be a positive integer"):
        build(True, 1.0)


@pytest.mark.parametrize("steps", [[1e-3, np.inf], [np.nan, 0.5],
                                   [0.5, -np.inf]])
def test_custom_builder_rejects_non_finite_steps(steps):
    with pytest.raises(ValueError, match="every step must be finite"):
        build_custom(steps)


def test_nodes_must_be_finite():
    # mesh.csv files reach the mesh through _finalize, and so do finite
    # steps whose sum overflows
    with pytest.raises(ValueError, match="nodes must be finite"):
        temporal_mesh._finalize(np.array([0.0, 0.5, np.inf]))
    with pytest.raises(ValueError, match="nodes must be finite"):
        build_custom([1e308, 1e308])


@pytest.mark.parametrize("builder", [build_graded_cubic, build_uniform])
@pytest.mark.parametrize("T", [float("inf"), float("nan"), -float("inf")])
def test_builders_reject_non_finite_horizon(builder, T):
    with pytest.raises(ValueError, match="T must be finite"):
        builder(4, T)


def test_write_mesh_csv(tmp_path):
    mesh = build_graded_cubic(3, 1.0)
    path = tmp_path / "mesh.csv"
    write_mesh_csv(mesh, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "k,t_k,tau_k,rho_k"
    assert len(lines) == mesh.N + 2
    assert lines[1] == "0,0,,"
    parts = lines[2].split(",")
    assert float(parts[1]) == mesh.nodes[1]
    assert float(parts[2]) == mesh.steps[0]
