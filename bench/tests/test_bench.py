"""Tests of the benchmark itself: span arithmetic, output check, failure
accounting and the untraced path.

    python3 -m pytest bench/tests -q
"""

import importlib
import json
import os
import shutil
import time

import pytest

import check
import child
import run
import spans
import workloads

ROOT = os.path.dirname(run.HERE)


def _original_targets():
    return {(m, a): getattr(importlib.import_module(m), a)
            for m, a, _, _ in spans.TARGETS}


def _small_coarsening(**overrides):
    """prepare() replacement: the coarsening run shrunk to 20 levels.

    The horizon shrinks with it: 20 levels over T=1 stall in this regime.
    """
    def prepare(workload, seed, out_dir):
        cfg = workloads.coarsening_config(seed, N=20, T=0.01,
                                           **overrides)
        return lambda: workloads.run_coarsening(cfg, out_dir)
    return prepare


def test_self_times_of_nested_spans():
    spans_ = [["root", 0.0, 10.0, -1],
              ["a", 1.0, 4.0, 0],
              ["b", 2.0, 3.0, 1],
              ["c", 5.0, 9.0, 0],
              ["b", 6.0, 8.5, 3]]
    assert spans.self_times(spans_) == [3.0, 2.0, 1.0, 1.5, 2.5]
    summary = spans.summarize(spans_)
    assert summary["b"] == {"s": 3.5, "self_s": 3.5, "calls": 2}
    assert sum(v["self_s"] for v in summary.values()) == 10.0


def test_tracer_records_parents_and_self_time():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))
    leaf = tracer.wrap(lambda: None, "leaf")
    mid = tracer.wrap(lambda: (leaf(), leaf()), "mid")
    tracer.span("root", mid)
    names = [(s[0], s[3]) for s in tracer.spans]
    assert names == [("root", -1), ("mid", 0), ("leaf", 1), ("leaf", 1)]
    summary = spans.summarize(tracer.spans)
    total = tracer.spans[0][2] - tracer.spans[0][1]
    assert sum(v["self_s"] for v in summary.values()) == total
    assert summary["leaf"]["calls"] == 2


def _copy_reference(case, dest):
    shutil.copytree(os.path.join(check.REFERENCE, case), dest)


def _scale_cell(path, line, col, factor):
    with open(path) as f:
        rows = f.read().splitlines()
    cells = rows[line].split(",")
    cells[col] = repr(float(cells[col]) * factor)
    rows[line] = ",".join(cells)
    with open(path, "w") as f:
        f.write("\n".join(rows) + "\n")


def test_reference_outputs_pass_their_own_check(tmp_path):
    out = str(tmp_path / "out")
    _copy_reference("run-energy", out)
    result = check.check_outputs("run-energy", out)
    assert result["ok"] and result["hash_changed"] == []


def test_change_inside_tolerance_is_reported_not_failed(tmp_path):
    out = str(tmp_path / "out")
    _copy_reference("run-energy", out)
    _scale_cell(os.path.join(out, "energy.csv"), 500, 2, 1.0 + 1e-14)
    result = check.check_outputs("run-energy", out)
    assert result["ok"]
    assert result["hash_changed"] == ["energy.csv"]


def test_perturbed_csv_fails_the_run(tmp_path, monkeypatch):
    def fake_spawn(workload, seed, trace, run_dir, deadline):
        out = os.path.join(run_dir, "out")
        _copy_reference("run-energy", out)
        _scale_cell(os.path.join(out, "terminal_state.csv"), 100, 1, 1.0 + 1e-6)
        return {"ok": True, "trace": trace, "wall_s": 1.0}

    monkeypatch.setattr(run, "spawn_child", fake_spawn)
    record = run.run_child("run-energy", 0, False, str(tmp_path / "run"),
                           time.monotonic() + 60, check.load_manifest())
    assert record["failed"]
    assert any("terminal_state.csv" in p for p in record["check"]["problems"])


def test_rising_modified_energy_fails(tmp_path):
    out = str(tmp_path / "out")
    _copy_reference("coarsening-0", out)
    _scale_cell(os.path.join(out, "energy.csv"), 700, 3, 1.01)
    problems = check.check_outputs("coarsening-0", out)["problems"]
    assert any("modified energy rises" in p for p in problems)


def test_nonconvergence_is_a_failed_run_with_its_level(tmp_path, monkeypatch):
    record = child.execute("coarsening", 0, str(tmp_path / "out"),
                           time.monotonic(), False,
                           prepare=_small_coarsening(max_iterations=1))
    assert not record["ok"]
    assert record["failed_level"] == 1
    assert "level 1" in record["error"]

    monkeypatch.setattr(run, "spawn_child", lambda *args: dict(record))
    counted = run.run_child("coarsening", 0, False, str(tmp_path / "run"),
                            time.monotonic() + 60, check.load_manifest())
    assert counted["failed"] and counted["failed_level"] == 1


def test_cli_nonconvergence_level_is_recorded(tmp_path):
    argv = ["tfch-run", "--alpha", "0.5", "--N", "5", "--M", "8",
            "--max-iterations", "1", "--out", str(tmp_path)]
    with pytest.raises(workloads.RunFailed) as info:
        workloads.run_cli(argv)
    assert info.value.level == 1


def test_untraced_run_wraps_nothing(tmp_path):
    before = _original_targets()
    seen = {}

    def prepare(workload, seed, out_dir):
        job = _small_coarsening()(workload, seed, out_dir)

        def observed():
            seen.update(_original_targets())
            job()
        return observed

    record = child.execute("coarsening", 0, str(tmp_path / "out"),
                           time.monotonic(), False, prepare=prepare)
    assert record["ok"] and "spans" not in record
    assert seen == before
    assert not any(hasattr(fn, "bench_span") for fn in seen.values())
    assert _original_targets() == before


def test_traced_run_wraps_then_restores(tmp_path):
    before = _original_targets()
    record = child.execute("coarsening", 0, str(tmp_path / "out"),
                           time.monotonic(), True,
                           prepare=_small_coarsening())
    assert record["ok"]
    assert _original_targets() == before
    summary = spans.summarize(record["spans"])
    assert summary["tfch_solver.solve"]["calls"] == 1
    assert record["counts"]["levels"] == 20
    root = summary[spans.ROOT]
    inside = sum(v["self_s"] for k, v in summary.items()
                 if k != "temporal_mesh.build_graded_cubic")
    assert inside == pytest.approx(root["s"], rel=1e-9)


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert spec["command"] == ["python3", "bench/run.py"]
    for w in spec["workloads"]:
        assert workloads.WHY[w["name"]] == w["why"]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        run.units(True)
    for case in check.load_manifest()["cases"].values():
        assert case["workload"] in workloads.WHY
