"""Spans around tfch's public calls, recorded from outside the program.

A Tracer rebinds module attributes to timing wrappers (install) and puts the
originals back (uninstall). Each wrapped call appends one span
[name, start, end, parent] to an in-memory list; nothing is written until the
run ends. A name is wrapped where its caller looks it up: tfch_solver calls
`kernel_row_B` through its own module globals, so that binding is wrapped in
tfch.tfch_solver, not in tfch.caputo_l2.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time

ROOT = "workload"  # span around the timed run: inputs built to outputs closed


def _count_entries(counts, args, result):
    # coeffs_cd(n, mesh, alpha) returns rows of n entries
    counts["kernel_entries"] = counts.get("kernel_entries", 0) + int(args[0])


def _count_levels(counts, args, result):
    counts["sweeps"] = counts.get("sweeps", 0) + int(result.iterations.sum())
    counts["levels"] = counts.get("levels", 0) + len(result.iterations)


# (module where the caller looks the name up, attribute, span name, count hook)
TARGETS = (
    ("tfch.cli", "main", "cli.main", None),
    ("tfch.cli", "solve_linear_fode", "caputo_l2.solve_linear_fode", None),
    ("tfch.cli", "solve", "tfch_solver.solve", _count_levels),
    ("tfch.cli", "_write_state_csv", "cli.write_state_csv", None),
    ("tfch.tfch_solver", "solve", "tfch_solver.solve", _count_levels),
    ("tfch.tfch_solver", "kernel_row_B", "caputo_l2.kernel_row_B", None),
    ("tfch.tfch_solver", "lu_factor", "tfch_solver.lu_factor", None),
    ("tfch.tfch_solver", "lu_solve", "tfch_solver.lu_solve", None),
    ("tfch.caputo_l2", "kernel_row_B", "caputo_l2.kernel_row_B", None),
    ("tfch.caputo_l2", "coeffs_cd", "caputo_l2.coeffs_cd", _count_entries),
    ("tfch.diagnostics", "kernel_row_J", "caputo_l2.kernel_row_J", None),
    ("tfch.diagnostics", "quad_negH", "compact_spatial.quad_negH", None),
    ("tfch.diagnostics", "energy_series", "diagnostics.energy_series", None),
    ("tfch.diagnostics", "write_energy_csv", "diagnostics.write_energy_csv",
     None),
    ("tfch.diagnostics", "write_mass_csv", "diagnostics.write_mass_csv", None),
    ("tfch.temporal_mesh", "build_graded_cubic",
     "temporal_mesh.build_graded_cubic", None),
)

# Spans that together make diagnostics.write_csv.s: every CSV writer function.
CSV_WRITERS = ("diagnostics.write_energy_csv", "diagnostics.write_mass_csv",
               "cli.write_state_csv")


class Tracer:
    """In-memory span recorder that wraps module attributes while installed."""

    def __init__(self, clock=time.perf_counter):
        self.spans = []      # [name, start, end, parent index or -1]
        self.counts = {}
        self._clock = clock
        self._open = []
        self._saved = []

    def wrap(self, fn, name, count=None):
        """fn wrapped so that each call records a span (and a count)."""
        spans, stack, clock, counts = self.spans, self._open, self._clock, \
            self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if count is not None:
                count(counts, args, result)
            return result

        traced.bench_span = name
        return traced

    def span(self, name, fn, *args):
        """Call fn(*args) inside a span called name."""
        return self.wrap(fn, name)(*args)

    def install(self, targets=TARGETS):
        for module_name, attr, name, count in targets:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(original, name, count))

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


def self_times(spans):
    """Per span: its duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def summarize(spans):
    """name -> {"s": total duration, "self_s": total self time, "calls"}."""
    out = {}
    for (name, start, end, _), own in zip(spans, self_times(spans)):
        entry = out.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
        entry["s"] += end - start
        entry["self_s"] += own
        entry["calls"] += 1
    return out


# Per-layer metrics: name -> (unit, value from (span summary, counts)).
def _stat(span, key):
    return lambda s, c: s.get(span, {}).get(key, 0)


def _count(key):
    return lambda s, c: c.get(key, 0)


PER_LAYER = {
    "caputo_l2.coeffs_cd.s": ("s", _stat("caputo_l2.coeffs_cd", "s")),
    "caputo_l2.coeffs_cd.calls": ("count",
                                  _stat("caputo_l2.coeffs_cd", "calls")),
    "caputo_l2.kernel_entries": ("count", _count("kernel_entries")),
    "caputo_l2.kernel_row_B.self_s": ("s", _stat("caputo_l2.kernel_row_B",
                                                 "self_s")),
    "caputo_l2.kernel_row_J.s": ("s", _stat("caputo_l2.kernel_row_J", "s")),
    "caputo_l2.solve_linear_fode.self_s": (
        "s", _stat("caputo_l2.solve_linear_fode", "self_s")),
    "tfch_solver.lu_factor.s": ("s", _stat("tfch_solver.lu_factor", "s")),
    "tfch_solver.lu_factor.calls": ("count",
                                    _stat("tfch_solver.lu_factor", "calls")),
    "tfch_solver.lu_solve.s": ("s", _stat("tfch_solver.lu_solve", "s")),
    "tfch_solver.lu_solve.calls": ("count",
                                   _stat("tfch_solver.lu_solve", "calls")),
    "tfch_solver.sweeps": ("count", _count("sweeps")),
    "tfch_solver.sweeps_per_level": (
        "sweeps/level",
        lambda s, c: c.get("sweeps", 0) / c["levels"] if c.get("levels")
        else 0.0),
    "tfch_solver.levels": ("count", _count("levels")),
    "tfch_solver.solve.self_s": ("s", _stat("tfch_solver.solve", "self_s")),
    "diagnostics.energy_series.self_s": (
        "s", _stat("diagnostics.energy_series", "self_s")),
    "compact_spatial.quad_negH.s": ("s",
                                    _stat("compact_spatial.quad_negH", "s")),
    "compact_spatial.quad_negH.calls": (
        "count", _stat("compact_spatial.quad_negH", "calls")),
    "diagnostics.write_csv.s": (
        "s", lambda s, c: sum(s.get(w, {}).get("s", 0.0) for w in CSV_WRITERS)),
    "cli.main.self_s": ("s", _stat("cli.main", "self_s")),
    "cli.csv_bytes": ("bytes", _count("csv_bytes")),
    "temporal_mesh.build_graded_cubic.s": (
        "s", _stat("temporal_mesh.build_graded_cubic", "s")),
    # wall time of the traced run, and the part of it inside no layer span
    "trace.wall_s": ("s", _stat(ROOT, "s")),
    "trace.unattributed_s": ("s", _stat(ROOT, "self_s")),
}


def layer_metrics(runs):
    """Median of each per-layer metric over traced runs.

    runs: list of (spans, counts), one per traced child run.
    """
    values = {name: [] for name in PER_LAYER}
    for spans, counts in runs:
        summary = summarize(spans)
        for name, (_, get) in PER_LAYER.items():
            values[name].append(get(summary, counts))
    return {name: _median(v) for name, v in values.items()}


def _median(values):
    """Median; counts that agree across runs stay whole numbers."""
    mid = statistics.median(values)
    if all(isinstance(v, int) for v in values) and mid == int(mid):
        return int(mid)
    return mid
