"""Benchmark runner: run one workload repeatedly and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py                  # every workload, both modes

Run from the root of a checkout. Each run is a fresh child process
(child.py) with src/ on PYTHONPATH and BLAS fixed at one thread; runs repeat
while the next one, at the pace of the fastest so far, would end within S
seconds (at least three runs, or two with --trace 1). Every run's outputs are checked against bench/reference
(check.py); a run that raises, exits nonzero or fails the check is counted
as failed.

--trace 0 reports the end-to-end metrics, medians over the runs, and prints
the raw wall_s beside wall_rel. --trace 1 alternates untraced and traced runs
and reports the per-layer metrics of the traced ones (spans.py), with
trace.overhead_s = traced minus untraced median wall time. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. All runs, spans included,
are written to .bench_out/ at the end.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import check
import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
WORK = os.path.join(ROOT, ".bench_out")

# wall_rel is wall_s over the child's calibration time (child.py); wall_s
# itself drifts with the host's speed and is reported beside it.
END_TO_END = {"wall_rel": "ratio", "setup_s": "s", "peak_rss_mb": "MiB"}
RAW = {"wall_s": "s", "calibration_s": "s"}

# Per-layer metrics taken from the series rather than from spans.
SERIES_LAYER = {
    "trace.overhead_s": "s",   # traced minus untraced median wall_s
    "run.wall_s": "s",         # untraced median wall_s
    "run.calibration_s": "s",  # median calibration time
}

# One BLAS thread per child (never more than nproc); the children run one at
# a time, so the benchmark never asks for more cores than one.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# A whole invocation must end within 180 s; children are killed past this.
HARD_LIMIT_S = 170.0


def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    for var in BLAS_ENV:
        env[var] = str(BLAS_THREADS)
    return env


def spawn_child(workload: str, seed: int, trace: bool, run_dir: str,
                deadline: float) -> dict:
    """One child run writing its outputs to run_dir/out; returns its record."""
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    result_path = os.path.join(run_dir, "result.json")
    spawn = time.monotonic()
    cmd = [sys.executable, CHILD, workload, str(seed),
           os.path.join(run_dir, "out"), repr(spawn), "1" if trace else "0",
           result_path]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(),
                              stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - spawn))
    except subprocess.TimeoutExpired:
        return {"ok": False, "error": "timed out", "trace": trace}
    if not os.path.isfile(result_path):
        return {"ok": False, "trace": trace,
                "error": "exit code %d: %s" % (proc.returncode,
                                               proc.stderr[-500:])}
    with open(result_path) as f:
        record = json.load(f)
    if proc.returncode != 0 and record["ok"]:
        record["ok"] = False
        record["error"] = "exit code %d" % proc.returncode
    return record


def run_child(workload: str, seed: int, trace: bool, run_dir: str,
              deadline: float, manifest: dict) -> dict:
    """One child run plus its output check; the record says whether it failed."""
    record = spawn_child(workload, seed, trace, run_dir, deadline)
    if record["ok"]:
        record["check"] = check.check_outputs(
            workloads.reference_case(workload, seed),
            os.path.join(run_dir, "out"), manifest)
    record["failed"] = not (record["ok"] and record["check"]["ok"])
    shutil.rmtree(run_dir, ignore_errors=True)
    return record


def run_series(workload: str, seed: int, seconds: float, trace: bool):
    """Repeat child runs while the next would end within `seconds`.

    The next run is estimated at the fastest run's duration, so a long
    workload fills the window instead of stopping one run short of it.
    """
    manifest = check.load_manifest()
    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    records, durations = [], []
    minimum = 2 if trace else 3
    while True:
        traced = trace and len(records) % 2 == 1
        t0 = time.monotonic()
        run_dir = os.path.join(WORK, "%s-run%d" % (workload, len(records)))
        records.append(run_child(workload, seed, traced, run_dir, deadline,
                                 manifest))
        now = time.monotonic()
        durations.append(now - t0)
        if now + max(durations) > deadline:
            break
        if len(records) >= minimum and \
                now - start + min(durations) > seconds:
            break
    return records


def _median_of(records, key):
    values = [r[key] for r in records if key in r]
    return statistics.median(values) if values else float("nan")


def end_to_end_metrics(records) -> dict:
    good = [r for r in records if not r["failed"]] or records
    return {name: _median_of(good, name) for name in END_TO_END}


def per_layer_metrics(records) -> dict:
    traced = [r for r in records if r["trace"] and "spans" in r]
    plain = [r for r in records if not r["trace"] and "wall_s" in r]
    if traced:
        values = spans.layer_metrics([(r["spans"], r["counts"])
                                      for r in traced])
    else:
        values = {name: float("nan") for name in spans.PER_LAYER}
    values["run.wall_s"] = _median_of(plain, "wall_s")
    values["trace.overhead_s"] = _median_of(traced, "wall_s") \
        - values["run.wall_s"]
    values["run.calibration_s"] = _median_of(records, "calibration_s")
    return values


def units(trace: bool) -> dict:
    if not trace:
        return dict(END_TO_END)
    out = {name: unit for name, (unit, _) in spans.PER_LAYER.items()}
    out.update(SERIES_LAYER)
    return out


def git_commit() -> str:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def run_record(workload, seed, seconds, trace, records) -> dict:
    first = next((r for r in records if "python" in r), {})
    return {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "nproc": os.cpu_count(),
        "python": first.get("python"), "numpy": first.get("numpy"),
        "scipy": first.get("scipy"), "blas": first.get("blas"),
        "blas_threads": BLAS_THREADS, "git_commit": git_commit(),
    }


def measure(workload: str, seed: int, seconds: float, trace: bool):
    """Run one series; print its report; return the result object."""
    records = run_series(workload, seed, seconds, trace)
    values = per_layer_metrics(records) if trace else \
        end_to_end_metrics(records)
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units(trace).items()}
    failed = sum(r["failed"] for r in records)
    record = run_record(workload, seed, seconds, trace, records)

    print("workload %s  seed %d  trace %d  runs %d  failed %d"
          % (workload, seed, trace, len(records), failed))
    good = [r for r in records if not r["failed"]] or records
    shown = dict(metrics)
    if not trace:
        shown.update({name: {"value": _median_of(good, name), "unit": unit}
                      for name, unit in RAW.items()})
    for name, m in shown.items():
        line = "  %-36s %14.6g %s" % (name, m["value"], m["unit"])
        samples = [r[name] for r in good if name in r]
        if samples:
            line += "  (median of %d, range %.4g to %.4g)" % (
                len(samples), min(samples), max(samples))
        print(line)
    for i, r in enumerate(records):
        if r["failed"]:
            print("  run %d FAILED: %s" % (
                i, r.get("error") or "; ".join(r["check"]["problems"])))
            if r.get("failed_level") is not None:
                print("    failing level %d" % r["failed_level"])
        elif r["check"]["hash_changed"]:
            print("  run %d: outputs changed within tolerance (%s, max "
                  "|dev| %.3g)" % (i, ", ".join(r["check"]["hash_changed"]),
                                   r["check"]["max_abs_dev"]))
    print("  record " + json.dumps(record, sort_keys=True))

    os.makedirs(WORK, exist_ok=True)
    dump = os.path.join(WORK, "%s-seed%d-trace%d.json"
                        % (workload, seed, trace))
    with open(dump, "w") as f:
        json.dump({"record": record, "metrics": metrics, "runs": records}, f)
    return {"correct": failed == 0, "attempted": len(records),
            "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WHY))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "tfch", "__init__.py")):
        print("bench: no src/tfch under %s; run from a full checkout" % ROOT,
              file=sys.stderr)
        return 2
    if args.workload:
        result = measure(args.workload, args.seed, args.seconds,
                         bool(args.trace))
        print(json.dumps(result))
        return 0
    correct = True
    for workload in workloads.WHY:
        for trace in (False, True):
            correct &= measure(workload, args.seed, args.seconds,
                               trace)["correct"]
    print("all outputs correct" if correct else "some runs FAILED")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
