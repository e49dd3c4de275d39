"""The benchmark's workloads: what each one runs, with which inputs, and why.

Every workload runs in a fresh child process (see child.py). `prepare` builds
a workload's inputs and returns the call that runs it, so the child can time
set-up and the run separately. tfch is imported inside the functions here, so
run.py can read the table without paying for that import.
"""

from __future__ import annotations

import os
import re

# name -> one-line reason it is in the benchmark. BENCHMARK.json repeats the
# entries of the workloads it lists; caputo-table is left out there (see
# README.md, "Workloads").
WHY = {
    "caputo-table": "tfch caputo-convergence at its defaults: kernel rows "
                    "(coeffs_cd and B assembly) alone, no spatial solve, "
                    "no nonlinear sweep, no energy work",
    "run-energy": "tfch tfch-run alpha=0.4 N=1000 M=200: dense per-level LU, "
                  "dense (-H)^-1 in energy_series and CSV writers; about 2 "
                  "sweeps per level",
    "coarsening": "library solve plus energy_series at kappa=0.03 eps=0.05 "
                  "M=128 N=1000: bound by lagged-cubic sweeps (about 11.6 "
                  "per level), seeded noisy initial data",
}

# Command-line workloads: arguments after `tfch`; --out is appended per run.
CLI_ARGS = {
    "caputo-table": ["caputo-convergence"],
    "run-energy": ["tfch-run", "--alpha", "0.4", "--N", "1000", "--M", "200"],
}

# Phase-separation regime that still converges with the lagged-cubic sweep.
# Nearby settings stall (alpha=0.3 at N=400 stops at level 174), so these
# values are fixed, not tuned per machine.
COARSENING = {"alpha": 0.5, "kappa": 0.03, "epsilon": 0.05, "M": 128,
              "N": 1000, "T": 1.0, "amplitude": 0.01}

# The seed picks one of this many noise realisations (seed mod NOISE_VARIANTS),
# each with committed reference outputs; a reference per arbitrary seed would
# not fit in the repository.
NOISE_VARIANTS = 4

_LEVEL = re.compile(r"at level (\d+)")


class RunFailed(RuntimeError):
    """A workload run that did not finish; level is the failing time level."""

    def __init__(self, message: str, level=None):
        super().__init__(message)
        self.level = level


def reference_case(workload: str, seed: int) -> str:
    """Name of the committed reference outputs a run is checked against."""
    if workload == "coarsening":
        return "coarsening-%d" % (seed % NOISE_VARIANTS)
    return workload


def coarsening_config(seed: int, **overrides):
    """SolverConfig of the coarsening workload for one seed.

    Initial data 0.9 sin(pi x) cos(6 pi x) plus uniform noise in
    [-amplitude, amplitude] from numpy's PCG64 stream; the solver pins the
    boundary values to zero. overrides replaces COARSENING entries or adds
    SolverConfig fields (the tests shrink the run with them).
    """
    import numpy as np
    from tfch import temporal_mesh, tfch_solver

    p = dict(COARSENING)
    p.update(overrides)
    rng = np.random.default_rng(seed % NOISE_VARIANTS)
    noise = p.pop("amplitude") * rng.uniform(-1.0, 1.0, p["M"] + 1)

    def initial(x):
        return 0.9 * np.sin(np.pi * x) * np.cos(6.0 * np.pi * x) + noise

    mesh = temporal_mesh.build_graded_cubic(p.pop("N"), p.pop("T"))
    return tfch_solver.SolverConfig(mesh=mesh, initial=initial, **p)


def run_coarsening(config, out_dir: str) -> None:
    """solve, energy_series, then energy.csv and terminal_state.csv."""
    import numpy as np
    from tfch import diagnostics, tfch_solver

    try:
        history = tfch_solver.solve(config)
    except tfch_solver.NonconvergenceError as exc:
        raise RunFailed(str(exc), exc.level) from exc
    series = diagnostics.energy_series(history)
    os.makedirs(out_dir, exist_ok=True)
    diagnostics.write_energy_csv(series, os.path.join(out_dir, "energy.csv"))
    u = history.terminal
    x = np.linspace(u.domain[0], u.domain[1], u.values.size)
    with open(os.path.join(out_dir, "terminal_state.csv"), "w",
              newline="") as f:
        f.write("x,u\n")
        for xi, ui in zip(x, u.values):
            f.write("%.17g,%.17g\n" % (xi, ui))


def run_cli(argv) -> None:
    """tfch's main on argv; a nonzero exit raises RunFailed with its message."""
    import contextlib
    import io

    from tfch import cli

    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        message = err.getvalue().strip() or "exit code %d" % code
        found = _LEVEL.search(message)
        raise RunFailed(message, int(found.group(1)) if found else None)


def prepare(workload: str, seed: int, out_dir: str):
    """Build the inputs of one workload; return the call that runs it."""
    if workload in CLI_ARGS:
        argv = CLI_ARGS[workload] + ["--out", out_dir]
        return lambda: run_cli(argv)
    if workload == "coarsening":
        config = coarsening_config(seed)
        return lambda: run_coarsening(config, out_dir)
    raise ValueError("unknown workload %r" % workload)
