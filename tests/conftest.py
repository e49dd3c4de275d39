from dataclasses import fields

import numpy as np
import pytest

from tfch.caputo_l2 import KernelRow, kernel_row, kernel_rows, rho_star
from tfch.temporal_mesh import build_custom, build_graded_cubic


@pytest.fixture(scope="session")
def graded_24():
    return build_graded_cubic(24, 1.0)


@pytest.fixture(scope="session")
def graded_64():
    return build_graded_cubic(64, 1.0)


@pytest.fixture(scope="session")
def mixed_ratio_mesh():
    # ratios 1.0, 2.3, 4.5, 1.7, 3.1: admissible but far from any named family
    ratios = [1.0, 2.3, 4.5, 1.7, 3.1, 1.05, 2.0]
    steps = [0.013]
    for r in ratios:
        steps.append(steps[-1] * r)
    return build_custom(np.array(steps))


@pytest.fixture(scope="session")
def assert_stream_bitwise():
    """Checker: kernel_rows(mesh, alpha) yields kernel_row(n, mesh, alpha)
    for n = 1..N in order, every KernelRow field equal bit for bit."""
    def check(mesh, alpha):
        levels = []
        for row in kernel_rows(mesh, alpha):
            ref = kernel_row(row.level, mesh, alpha)
            for field in fields(KernelRow):
                name = field.name
                got, want = getattr(row, name), getattr(ref, name)
                assert type(got) is type(want), (row.level, name)
                assert np.asarray(got).tobytes() == \
                    np.asarray(want).tobytes(), (row.level, name)
            levels.append(row.level)
        assert levels == list(range(1, mesh.N + 1))
    return check


@pytest.fixture(scope="session")
def band_jump_steps():
    """Step sizes of a mesh in the relaxed ratio band (4.660, rho_star]:
    40 equal steps, then a jump by 0.999 rho_star(alpha), four times over,
    scaled to T = 0.1 (N = 200)."""
    def steps(alpha):
        ratio = 0.999 * rho_star(alpha)
        s = np.repeat(ratio ** np.arange(5), 40)
        return 0.1 * s / s.sum()
    return steps
