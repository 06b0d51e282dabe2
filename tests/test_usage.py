"""The argparse surface, byte for byte: help, version and usage errors.

`golden_usage.json` maps each command line to the exit code, stdout and
stderr that sforge gives under Python 3.11 with COLUMNS=80, as argparse
words them. A change to how the parser is built (one parser cached, or
only the requested subcommand built) must leave them alone. To
re-record after an intended change to the options or their help:

    PYTHONPATH=src python tests/test_usage.py --record
"""

import json
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

from sforge.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden_usage.json"
COMMANDS = ("analyze", "splice", "conditions", "equations", "invariants")
ARGVS = (
    [],
    ["-h"],
    *([command, "-h"] for command in COMMANDS),
    ["--version"],
    ["bogus", "graphs/e7.graph"],
    ["analyze"],
    ["analyze", "graphs/e7.graph", "--format=bogus"],
    ["invariants", "graphs/e7.graph", "--degree-bound=x"],
)


def _key(argv):
    return " ".join(["sforge", *argv])


def _entry(argv):
    """[exit code, stdout, stderr] of sforge argv, with COLUMNS=80."""
    out, err = StringIO(), StringIO()
    columns = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = "80"
    try:
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    finally:
        if columns is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = columns
    return [code, out.getvalue(), err.getvalue()]


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="argparse's wording is recorded under 3.11")
@pytest.mark.parametrize("argv", ARGVS, ids=_key)
def test_usage_bytes(argv):
    assert _entry(argv) == json.loads(GOLDEN.read_text())[_key(argv)]


def test_every_recorded_command_line_is_checked():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(map(_key, ARGVS))


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    table = {_key(argv): _entry(argv) for argv in ARGVS}
    GOLDEN.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
