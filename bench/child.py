"""One benchmark run of one workload, in a fresh process.

    python3 bench/child.py WORKLOAD SEED OUT_DIR SPAWN_TIME TRACE RESULT

run.py starts this with src/ on PYTHONPATH and the BLAS thread count fixed in
the environment. SPAWN_TIME is the parent's time.monotonic() just before the
spawn (the same clock in both processes on Linux), so set-up time counts
interpreter start, imports and input building. With TRACE 1 the tracer wraps
tfch's public calls before the inputs are built; with TRACE 0 nothing is
wrapped. The result, spans included, is written to RESULT as JSON at the end.

Right before and right after the workload, the child times a fixed
calibration kernel that uses no tfch code. wall_rel, the workload's wall time
over the mean calibration time, measures the program in units of the host's
current speed: on a shared host whose per-core speed drifts over tens of
seconds, wall_s moves with the drift and wall_rel does not.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import warnings


def calibration_s() -> float:
    """Seconds for a fixed mix of the work tfch does, on fixed data.

    Dense LU factorisations and solves at the solver's matrix sizes, small
    numpy expressions like the kernel-row code, and a pure-Python loop. It
    calls only numpy and scipy, so a change to tfch cannot move it.
    """
    import numpy as np
    from scipy.linalg import lu_factor, lu_solve

    rng = np.random.default_rng(0)
    a = 4.0 * np.eye(160) + 0.01 * rng.standard_normal((160, 160))
    x = rng.uniform(0.01, 0.5, 300)
    start = time.perf_counter()
    for _ in range(150):
        lu = lu_factor(a)
        for _ in range(5):
            lu_solve(lu, x[:160])
        for _ in range(10):
            np.expm1(0.5 * np.log1p(-x)) * x ** 0.3
        s = 0.0
        for k in range(300):
            s += k * 0.5
    return time.perf_counter() - start


def execute(workload: str, seed: int, out_dir: str, spawn_time: float,
            trace: bool, prepare=None) -> dict:
    """Set up and run one workload; return the result record.

    prepare defaults to workloads.prepare; tests pass a smaller job.
    """
    import numpy
    import scipy
    import tfch.cli  # noqa: F401  (import cost belongs to set-up)

    import spans
    import workloads

    tracer = spans.Tracer() if trace else None
    if tracer:
        tracer.install()
    try:
        job = (prepare or workloads.prepare)(workload, seed, out_dir)
        setup_s = time.monotonic() - spawn_time
        before = calibration_s()
        error, level = None, None
        started = time.monotonic()
        with warnings.catch_warnings(record=True) as caught:
            try:
                if tracer:
                    tracer.span(spans.ROOT, job)
                else:
                    job()
            except workloads.RunFailed as exc:
                error, level = str(exc), exc.level
            except Exception as exc:  # any other failure is reported, not raised
                error = "%s: %s" % (type(exc).__name__, exc)
        wall_s = time.monotonic() - started
    finally:
        if tracer:
            tracer.uninstall()
    calibration = 0.5 * (before + calibration_s())
    record = {
        "workload": workload, "seed": seed, "trace": bool(trace),
        "ok": error is None, "error": error, "failed_level": level,
        "setup_s": setup_s, "wall_s": wall_s, "calibration_s": calibration,
        "wall_rel": wall_s / calibration,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "warnings": len(caught),
        "python": sys.version.split()[0], "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas": _blas_name(scipy),
    }
    if tracer:
        names = os.listdir(out_dir) if os.path.isdir(out_dir) else []
        record["counts"] = dict(tracer.counts, csv_bytes=sum(
            os.path.getsize(os.path.join(out_dir, f))
            for f in names if f.endswith(".csv")))
        record["spans"] = tracer.spans
    return record


def _blas_name(scipy) -> str:
    """Name and version of the BLAS scipy's linalg was built against."""
    try:
        blas = scipy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, AttributeError):
        return "unknown"
    return "%s %s" % (blas.get("name", "?"), blas.get("version", "?"))


def main(argv) -> int:
    workload, seed, out_dir, spawn, trace, result_path = argv
    record = execute(workload, int(seed), out_dir, float(spawn), trace == "1")
    with open(result_path, "w") as f:
        json.dump(record, f)
    return 0 if record["ok"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
