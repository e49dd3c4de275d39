"""The scripts/run_*.py drivers pass the CLI only flags it knows.

Each script runs as __main__ with tfch.cli.main replaced by a recorder that
parses every argv with build_parser() and returns 0, so no solver runs. A
flag the parser does not know exits 2 from the parse and fails the test.
"""

import pathlib
import runpy
import sys

import pytest

from tfch import cli

SCRIPTS = sorted((pathlib.Path(__file__).resolve().parents[1] / "scripts")
                 .glob("run_*.py"))


def test_scripts_are_found():
    assert len(SCRIPTS) >= 6


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
def test_script_passes_only_known_flags(script, monkeypatch, capsys):
    parser, _ = cli.build_parser()
    calls = []

    def recorder(argv=None):
        calls.append(argv)
        parser.parse_args(argv)
        return 0

    monkeypatch.setattr(cli, "main", recorder)
    monkeypatch.setattr(sys, "argv", [str(script)])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(script), run_name="__main__")
    assert exc.value.code == 0, capsys.readouterr().err
    assert calls
