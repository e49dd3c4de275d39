"""Shared CSV formatting: 17 significant digits, byte-stable output."""

from __future__ import annotations

import numpy as np

FLOAT_FMT = "%.17g"


def fmt(x) -> str:
    return FLOAT_FMT % float(x)


def _cell(value) -> str:
    if isinstance(value, float):        # numpy float64 included
        return FLOAT_FMT % value
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return "%d" % value
    return fmt(value)


def write_csv(target, header: str, rows) -> None:
    """Write header, then one comma-joined line per row, to a path or open file.

    A str cell is written as given, an integer with %d, anything else with fmt.
    """
    if not hasattr(target, "write"):
        with open(target, "w", newline="") as f:
            write_csv(f, header, rows)
        return
    target.write(header + "\n")
    for row in rows:
        target.write(",".join(map(_cell, row)) + "\n")
