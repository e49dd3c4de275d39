"""Regenerate bench/reference from the current program.

    python3 bench/make_reference.py

Runs every reference case once (untraced, through the same child process as
the benchmark) and replaces bench/reference/<case>/*.csv and manifest.json.
Do this only when a change is meant to alter the outputs, and say so with the
largest value difference in the change's notes.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time

import check
import run
import workloads

# Tolerance on every numeric cell: |x - ref| <= atol + rtol |ref|. The default
# atol is 1e-12 absolute, roundoff on O(1) fields after 1000 levels. order is
# log(e_i/e_{i+1})/log(2) over errors as small as 1.8e-9, so 1e-12 on the
# errors allows about 1e-3 on the orders.
TOLERANCE = {"rtol": 1e-9, "atol": 1e-12, "column_atol": {"order": 1e-3},
             "energy_slack": 1e-12}


def cases():
    """(case, workload, seed) for every committed reference."""
    for workload in workloads.WHY:
        if workload == "coarsening":
            for seed in range(workloads.NOISE_VARIANTS):
                yield workloads.reference_case(workload, seed), workload, seed
        else:
            yield workload, workload, 0


def main() -> int:
    manifest = {"tolerance": TOLERANCE, "cases": {}}
    for case, workload, seed in cases():
        run_dir = os.path.join(run.WORK, "reference-" + case)
        record = run.spawn_child(workload, seed, False, run_dir,
                                 time.monotonic() + run.HARD_LIMIT_S)
        if not record["ok"]:
            print("%s failed: %s" % (case, record["error"]), file=sys.stderr)
            return 1
        out_dir = os.path.join(run_dir, "out")
        target = os.path.join(check.REFERENCE, case)
        shutil.rmtree(target, ignore_errors=True)
        os.makedirs(target)
        files = {}
        for name in sorted(os.listdir(out_dir)):
            if name.endswith(".csv"):
                shutil.copyfile(os.path.join(out_dir, name),
                                os.path.join(target, name))
                files[name] = check.sha256(os.path.join(target, name))
        entry = {"workload": workload, "seed": seed, "files": files}
        if "energy.csv" in files:
            entry["energy"] = "energy.csv"
        manifest["cases"][case] = entry
        shutil.rmtree(run_dir, ignore_errors=True)
        print("%s: %s" % (case, ", ".join(files)))
    with open(check.MANIFEST, "w") as f:
        json.dump(manifest, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
