import os
import subprocess
import sys
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest
from scipy.special import gamma

import tfch
from tfch.caputo_l2 import (
    KernelRow,
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


def _frozen_cd_history(a, tau, alpha, g2, g3):
    """(c, d) on history intervals with G's series summed to eps^34 for every
    eps <= 0.25: the library's _cd_history before its series stopped early,
    verbatim but for its two constants written out, kept as the bitwise
    reference for it."""
    eps = tau / a                       # in (0,1) strictly for k < n
    p1 = 1.0 - alpha
    p2 = 2.0 - alpha
    lg = np.log1p(-eps)
    c = a ** p1 * -np.expm1(p1 * lg) / (tau * g2)

    G = np.empty(a.size)
    direct = eps > 0.25
    if direct.any():
        u = 1.0 - eps[direct]
        ld = lg[direct]
        G[direct] = alpha * -np.expm1(p2 * ld) - p2 * u * np.expm1(-alpha * ld)
    ser = ~direct
    if ser.any():
        e = eps[ser]
        s = p2 * (1.0 - p2) / 2.0            # eps^2 coefficient of 1 - u^{2-alpha}
        R = alpha * (alpha + 1.0) / 2.0      # partial-sum state for the u-part
        acc = np.zeros_like(e)
        ek = e * e
        for k in range(3, 34 + 1):
            s = s * ((k - 1) - p2) / k
            R_next = R * (alpha + k - 1) / k
            ek = ek * e
            acc += (alpha * s - p2 * (R_next - R)) * ek
            R = R_next
        G[ser] = acc
    d = a ** p2 * G / (tau * tau * g3)
    return c, d


@pytest.fixture(scope="session")
def frozen_cd_history():
    return _frozen_cd_history


# Per-level reference evaluation of the kernel rows: one level's (c, d), then
# its rows case by case (n = 1, n >= 2, n >= 3). The library builds every row
# entrywise over blocks of levels instead; these three functions are the
# per-level evaluation it replaced, kept as the bitwise reference. Its (c, d)
# come from the frozen full series, so the oracle also sees a change to the
# library's series.

def _oracle_cd(n: int, mesh: TemporalMesh, alpha: float):
    nodes, steps = mesh.nodes, mesh.steps
    g2 = gamma(2.0 - alpha)
    g3 = gamma(3.0 - alpha)
    c, d = _frozen_cd_history(nodes[n] - nodes[: n - 1], steps[: n - 1],
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
    return KernelRow(level=n, c=c, d=d, B=B, c_tilde=ct, J=J,
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


def _traced_peak(fn):
    """fn()'s peak traced allocation above what was allocated when it
    started, in bytes."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()


@pytest.fixture(scope="session")
def traced_peak():
    """Measurer: traced_peak(fn) is fn()'s tracemalloc peak in bytes."""
    return _traced_peak


@pytest.fixture(scope="session")
def row_stream_peak():
    """Measurer: row_stream_peak(mesh, alpha) is the tracemalloc peak of
    walking kernel_rows(mesh, alpha) to its end, the block workspace (about
    1.0 MiB on a long mesh, whatever N and M are)."""
    def peak(mesh, alpha):
        return _traced_peak(lambda: sum(1 for _ in kernel_rows(mesh, alpha)))
    return peak


def _per_blas_thread_count(tmp_path, probe, *args):
    """Run probe in a child process under OPENBLAS_NUM_THREADS 1 and then 2,
    with this tfch on the path; probe saves an npz to its last argument.
    Returns each run's arrays by name."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(tfch.__file__)))
    runs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       p for p in (src, os.environ.get("PYTHONPATH")) if p))
        out = tmp_path / ("probe-%s.npz" % threads)
        subprocess.run([sys.executable, "-c", probe, *args, str(out)],
                       env=env, check=True, timeout=300)
        with np.load(out) as data:
            runs.append({k: data[k] for k in data.files})
    return runs


@pytest.fixture(scope="session")
def per_blas_thread_count():
    """Runner: per_blas_thread_count(tmp_path, probe, *args) runs the probe
    script under one and then two OpenBLAS threads and returns each run's
    saved arrays by name."""
    return _per_blas_thread_count
