#!/usr/bin/env python3
"""How far solve's float64 terminal state sits from an extended-precision run.

For each coarsening noise seed (default 0 1 2 3, or the seeds given on the
command line) it runs the coarsening workload's configuration, read from
bench/workloads.coarsening_config, through tfch_solver.solve and through
tfch._longdouble.longdouble_sweep, the same scheme in np.longdouble. For
solve's terminal state, and for the committed reference's
(bench/reference/coarsening-<seed>/terminal_state.csv), it prints the largest
deviation from longdouble, the terminal_state.csv line it sits on, and its
ratio to the benchmark's output tolerance there (atol + rtol |u|, from
bench/reference/manifest.json); then the largest such ratio over all cells.
A worst ratio above 1 for a reference means that a solver exact to longdouble
would fail that cell against it. Nothing under bench/ is written.

About 25 s per seed on a 2-vCPU x86-64 host: the longdouble LU is numpy
loops.

    PYTHONPATH=src python3 scripts/accuracy_probe.py [seed ...]
"""

import csv
import json
import os
import sys
import warnings

import numpy as np

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "bench")


def _deviation(u, exact, tol: dict) -> str:
    dev = np.abs(u - exact).astype(float)
    ratio = dev / (tol["atol"] + tol["rtol"] * np.abs(exact).astype(float))
    i, j = int(np.argmax(dev)), int(np.argmax(ratio))
    # terminal_state.csv: header on line 1, the boundary node x=a on line 2
    return ("max |dev| %.3g at line %d (ratio %.3f); worst ratio %.3f at "
            "line %d (|dev| %.3g)"
            % (dev[i], i + 3, ratio[i], ratio[j], j + 3, dev[j]))


def probe(seed: int, tol: dict) -> str:
    import workloads
    from tfch._longdouble import longdouble_sweep
    from tfch.tfch_solver import solve

    config = workloads.coarsening_config(seed)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        u = solve(config).U[-1]
    exact = longdouble_sweep(config)[-1]
    path = os.path.join(BENCH, "reference",
                        workloads.reference_case("coarsening", seed),
                        "terminal_state.csv")
    with open(path, newline="") as f:
        committed = np.array([float(row[1]) for row in csv.reader(f)
                              if row[0] != "x"])[1:-1]
    return ("seed %d solve:     %s\nseed %d reference: %s"
            % (seed, _deviation(u, exact, tol),
               seed, _deviation(committed, exact, tol)))


def main(argv) -> int:
    sys.path.insert(0, BENCH)
    with open(os.path.join(BENCH, "reference", "manifest.json")) as f:
        tol = json.load(f)["tolerance"]
    if np.finfo(np.longdouble).eps >= np.finfo(float).eps:
        print("np.longdouble is no wider than float64 here; no reference",
              file=sys.stderr)
        return 1
    for seed in [int(s) for s in argv] or [0, 1, 2, 3]:
        print(probe(seed, tol), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
