"""Output check: compare a run's CSV files with the committed references.

bench/reference/manifest.json records, per reference case, the sha256 of each
output CSV and the tolerance values are held to; the CSVs themselves sit in
bench/reference/<case>/. A file whose bytes match passes at once. Otherwise
every cell is compared: text cells must be equal, numeric cells must satisfy
|x - ref| <= atol + rtol |ref|, so a hash change inside the tolerance is
reported without failing the run. Where a case names an energy file, its
E_modified column must not increase from level to level (criterion 3, with
the acceptance test's 1e-12 relative allowance).
"""

from __future__ import annotations

import csv
import hashlib
import json
import os

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference")
MANIFEST = os.path.join(REFERENCE, "manifest.json")


def sha256(path: str) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def load_manifest(path: str = MANIFEST) -> dict:
    with open(path) as f:
        return json.load(f)


def _read(path: str):
    with open(path, newline="") as f:
        return list(csv.reader(f))


def _as_float(text: str):
    try:
        return float(text)
    except ValueError:
        return None


def compare_csv(ref_path: str, out_path: str, tol: dict):
    """(worst |x - ref| seen, list of problems) for one output file.

    tol holds rtol, a default atol and per-column atol overrides.
    """
    ref, out = _read(ref_path), _read(out_path)
    if not out or out[0] != ref[0]:
        return 0.0, ["header %r, expected %r" % (out[:1], ref[0])]
    if len(out) != len(ref):
        return 0.0, ["%d rows, expected %d" % (len(out), len(ref))]
    rtol = tol["rtol"]
    atols = [tol["column_atol"].get(col, tol["atol"]) for col in ref[0]]
    worst = 0.0
    problems = []
    for line, (r_row, o_row) in enumerate(zip(ref[1:], out[1:]), start=2):
        if len(o_row) != len(r_row):
            problems.append("line %d has %d cells" % (line, len(o_row)))
            continue
        for col, (r, o, atol) in enumerate(zip(r_row, o_row, atols)):
            if r == o:
                continue
            rv, ov = _as_float(r), _as_float(o)
            if rv is None or ov is None:
                problems.append("line %d %s: %r, expected %r"
                                % (line, ref[0][col], o, r))
                continue
            dev = abs(ov - rv)
            if dev != dev:          # nan where a number was expected
                dev = float("inf")
            worst = max(worst, dev)
            if not dev <= atol + rtol * abs(rv):
                problems.append("line %d %s: %s, expected %s"
                                % (line, ref[0][col], o, r))
    return worst, problems


def energy_increases(path: str, slack: float):
    """Levels n whose modified energy exceeds level n-1's beyond the slack."""
    rows = _read(path)
    col = rows[0].index("E_modified")
    levels, values = [], []
    for row in rows[1:]:
        if row[col]:
            levels.append(int(row[0]))
            values.append(float(row[col]))
    return [n for n, prev, cur in zip(levels[1:], values, values[1:])
            if not cur - prev <= slack * max(1.0, abs(prev))]


def check_outputs(case: str, out_dir: str, manifest: dict = None) -> dict:
    """Check one run's output directory against reference case `case`.

    Returns {"ok", "problems", "hash_changed", "max_abs_dev"}; ok is False
    when a file is missing, a value is outside tolerance, or the modified
    energy rises.
    """
    manifest = manifest or load_manifest()
    spec = manifest["cases"][case]
    tol = manifest["tolerance"]
    problems, changed, worst = [], [], 0.0
    for name, digest in sorted(spec["files"].items()):
        out_path = os.path.join(out_dir, name)
        if not os.path.isfile(out_path):
            problems.append("%s missing" % name)
            continue
        if sha256(out_path) == digest:
            continue
        changed.append(name)
        dev, bad = compare_csv(os.path.join(REFERENCE, case, name), out_path,
                               tol)
        worst = max(worst, dev)
        problems.extend("%s %s" % (name, p) for p in bad[:5])
        if len(bad) > 5:
            problems.append("%s: %d more cells differ" % (name, len(bad) - 5))
    energy = spec.get("energy")
    if energy and os.path.isfile(os.path.join(out_dir, energy)):
        rises = energy_increases(os.path.join(out_dir, energy),
                                 tol["energy_slack"])
        if rises:
            problems.append("modified energy rises at %d levels (first n=%d)"
                            % (len(rises), rises[0]))
    return {"ok": not problems, "problems": problems, "hash_changed": changed,
            "max_abs_dev": worst}
