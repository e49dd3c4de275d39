from dataclasses import fields

import numpy as np
import pytest
from scipy.special import gamma

from tfch.caputo_l2 import (
    KernelRow,
    _cd_history,
    kernel_row,
    kernel_rows,
    rho_star,
    theta,
)
from tfch.temporal_mesh import TemporalMesh, build_custom, build_graded_cubic


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


# Per-level reference evaluation of the kernel rows: one level's (c, d), then
# its rows case by case (n = 1, n >= 2, n >= 3). The library builds every row
# entrywise over blocks of levels instead; these three functions are the
# per-level evaluation it replaced, kept as the bitwise reference.

def _oracle_cd(n: int, mesh: TemporalMesh, alpha: float):
    nodes, steps = mesh.nodes, mesh.steps
    g2 = gamma(2.0 - alpha)
    g3 = gamma(3.0 - alpha)
    c, d = _cd_history(nodes[n] - nodes[: n - 1], steps[: n - 1],
                       alpha, g2, g3)
    return _cd_row(c, d, steps[n - 1], alpha, g2, g3)


def _cd_row(c_hist, d_hist, tau_n, alpha, g2, g3):
    """Level-n (c, d): the history entries, then the most recent interval's.

    On the most recent interval (k = n) b = 0, so the powers collapse exactly.
    """
    p = tau_n ** -alpha
    return np.append(c_hist, p / g2), np.append(d_hist, alpha * p / g3)


def _assemble(n: int, mesh: TemporalMesh, th: float, c, d) -> KernelRow:
    """KernelRow at level n from its (c, d) rows and the split weight theta.

    Subscript m maps to array index n - 1 - m; rho[k-1] is rho_k.
    """
    ct = np.empty(n)
    if n == 1:
        ct[0] = (1.0 - th) * c[0]
        B = c.copy()
        leading, lagged = th * c[0], 0.0
    else:
        rho = mesh.ratios
        rho_n = rho[n - 1]
        prev = d[n - 2] / (rho_n * (1.0 + rho_n))
        cur = rho_n / (1.0 + rho_n) * d[n - 1]
        ct[n - 1] = (1.0 - th) * c[n - 1] + prev
        ct[0] = c[0] - d[0] / (1.0 + rho[1])
        if n >= 3:
            ks = np.arange(2, n)       # history intervals k = 2..n-1
            j = ks - 1
            ct[j] = c[j] + d[ks - 2] / (rho[ks - 1] * (1.0 + rho[ks - 1])) \
                - d[j] / (1.0 + rho[ks])
        leading = th * c[n - 1] + cur
        lagged = rho_n ** 2 / (1.0 + rho_n) * d[n - 1]
        B = ct.copy()
        B[n - 2] -= lagged
        B[n - 1] = c[n - 1] + prev + cur
    J = ct.copy()
    J[n - 1] *= 2.0
    return KernelRow(level=n, theta=th, c=c, d=d, B=B, c_tilde=ct, J=J,
                     leading=leading, lagged=lagged)


def oracle_row(n: int, mesh: TemporalMesh, alpha: float) -> KernelRow:
    """The level-n KernelRow from the per-level reference evaluation."""
    c, d = _oracle_cd(n, mesh, alpha)
    return _assemble(n, mesh, theta(alpha), c, d)


def _assert_row_bitwise(row, ref):
    for field in fields(KernelRow):
        name = field.name
        got = np.asarray(getattr(row, name))
        want = np.asarray(getattr(ref, name))
        assert got.dtype == want.dtype, (ref.level, name)
        assert got.tobytes() == want.tobytes(), (ref.level, name)


@pytest.fixture(scope="session")
def assert_stream_bitwise():
    """Checker: kernel_rows(mesh, alpha) yields the levels n = 1..N in order,
    and its rows and kernel_row(n, mesh, alpha) both equal oracle_row's,
    every KernelRow field bit for bit, at each of `levels` (default all)."""
    def check(mesh, alpha, levels=None):
        wanted = set(range(1, mesh.N + 1) if levels is None else levels)
        seen = []
        for row in kernel_rows(mesh, alpha):
            seen.append(row.level)
            if row.level in wanted:
                ref = oracle_row(row.level, mesh, alpha)
                _assert_row_bitwise(row, ref)
                _assert_row_bitwise(kernel_row(row.level, mesh, alpha), ref)
        assert seen == list(range(1, mesh.N + 1))
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
