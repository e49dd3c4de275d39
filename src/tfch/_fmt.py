"""Shared CSV formatting: 17 significant digits, byte-stable output."""

from __future__ import annotations

import numpy as np

FLOAT_FMT = "%.17g"


def fmt(x) -> str:
    return FLOAT_FMT % float(x)


def _spec(kind: type) -> str:
    """The % conversion of a cell of type kind: a str as given, an integer
    with %d, anything else (floats, numpy ones included) with FLOAT_FMT,
    which takes float() of it as fmt does."""
    if issubclass(kind, float):
        return FLOAT_FMT
    if issubclass(kind, str):
        return "%s"
    if issubclass(kind, (int, np.integer)):
        return "%d"
    return FLOAT_FMT


def write_csv(target, header: str, rows) -> None:
    """Write header, then one comma-joined line per row, to a path or open file.

    A str cell is written as given, an integer with %d, anything else with fmt.
    Each row is one % operation, with a line format built once per sequence
    of cell types.
    """
    if not hasattr(target, "write"):
        with open(target, "w", newline="") as f:
            write_csv(f, header, rows)
        return
    write = target.write
    write(header + "\n")
    formats = {}
    for row in rows:
        row = tuple(row)
        kinds = tuple(map(type, row))
        line = formats.get(kinds)
        if line is None:
            line = formats[kinds] = ",".join(map(_spec, kinds)) + "\n"
        write(line % row)
