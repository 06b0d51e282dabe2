"""Golden output: every bundled graph under every command.

`golden_outputs.json` maps "<command> <graph file>" to the exit code and
the sha256 of the structured document's `result` member (null when the
command exits non-zero and prints no document). `golden_text.json` maps
the same keys to the exit code and the sha256 of the whole stdout of the
default `--format=text` rendering. Together they pin the output of the
whole pipeline byte for byte, so a change that is meant to be a pure
refactor or speed-up must leave both alone. To re-record both after an
intended output change:

    PYTHONPATH=src python tests/test_golden.py --record
"""

import hashlib
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

from sforge.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden_outputs.json"
GOLDEN_TEXT = Path(__file__).resolve().parent / "golden_text.json"
COMMANDS = ("analyze", "splice", "conditions", "equations", "invariants")
README_TARGET = "x^2*z^2 + y^3*z^2 + z^6\n"


def _cases(workdir):
    """(key, argv) pairs; keys name graph files relative to the repo."""
    out = []
    for path in sorted((ROOT / "graphs").glob("*.graph")):
        for command in COMMANDS:
            out.append(
                ("%s graphs/%s" % (command, path.name), [command, str(path)])
            )
    target = Path(workdir) / "target.poly"
    target.write_text(README_TARGET)
    out.append((
        "invariants graphs/e7.graph --degree-bound=2"
        " --verify-identity=target.poly",
        ["invariants", str(ROOT / "graphs" / "e7.graph"),
         "--degree-bound=2", "--verify-identity=%s" % target],
    ))
    return out


def _entry(argv):
    stdout = StringIO()
    with redirect_stdout(stdout), redirect_stderr(StringIO()):
        code = main(argv + ["--format=structured"])
    if code != 0:
        return [code, None]
    result = json.loads(stdout.getvalue())["result"]
    text = json.dumps(result, indent=2, sort_keys=True)
    return [code, hashlib.sha256(text.encode("utf-8")).hexdigest()]


def _text_entry(argv):
    stdout = StringIO()
    with redirect_stdout(stdout), redirect_stderr(StringIO()):
        code = main(argv)
    return [code, hashlib.sha256(stdout.getvalue().encode("utf-8")).hexdigest()]


def _load(path=GOLDEN):
    return json.loads(path.read_text())


def _keys(path):
    return sorted(json.loads(path.read_text())) if path.exists() else []


def _write(path, table):
    lines = [
        "  %s: %s" % (json.dumps(key), json.dumps(table[key]))
        for key in sorted(table)
    ]
    path.write_text("{\n" + ",\n".join(lines) + "\n}\n")


def test_golden_covers_every_case(tmp_path):
    assert sorted(k for k, _ in _cases(tmp_path)) == sorted(_load())


def test_golden_text_covers_every_case(tmp_path):
    assert sorted(k for k, _ in _cases(tmp_path)) == sorted(_load(GOLDEN_TEXT))


@pytest.mark.parametrize("key", _keys(GOLDEN))
def test_golden_output(key, tmp_path):
    argv = dict(_cases(tmp_path))[key]
    expected = _load()[key]
    got = _entry(argv)
    assert got == expected, (
        "structured output changed for `sforge %s` (file %s): "
        "expected exit %d sha256 %s, got exit %d sha256 %s"
        % (key, key.split()[1], expected[0], expected[1], got[0], got[1])
    )


@pytest.mark.parametrize("key", _keys(GOLDEN_TEXT))
def test_golden_text_output(key, tmp_path):
    argv = dict(_cases(tmp_path))[key]
    expected = _load(GOLDEN_TEXT)[key]
    got = _text_entry(argv)
    assert got == expected, (
        "text output changed for `sforge %s` (file %s): "
        "expected exit %d sha256 %s, got exit %d sha256 %s"
        % (key, key.split()[1], expected[0], expected[1], got[0], got[1])
    )


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_golden.py --record")
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        cases = _cases(tmp)
        tables = {
            GOLDEN: {key: _entry(argv) for key, argv in cases},
            GOLDEN_TEXT: {key: _text_entry(argv) for key, argv in cases},
        }
    for path, table in tables.items():
        _write(path, table)
        print("recorded %d entries in %s" % (len(table), path.name))
