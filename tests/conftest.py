from dataclasses import fields

import numpy as np
import pytest

from tfch.caputo_l2 import KernelRow, kernel_row, kernel_rows
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
