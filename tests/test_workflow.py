"""The CI workflow's shell steps fail when one of their checks fails."""

from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"


def test_no_step_negates_a_command_with_bang():
    """GitHub runs each step under `bash -e`, which does not stop for a
    failing command negated with `!`: `! grep -q Traceback err` passes
    on a traceback unless it is the step's last command. The checks
    are written `if grep -q ...; then exit 1; fi` instead. `test ! -s`
    negates inside `test` and is fine."""
    lines = WORKFLOW.read_text().splitlines()
    negated = ["%d: %s" % (i, line.strip())
               for i, line in enumerate(lines, start=1)
               if line.lstrip().startswith("! ")]
    assert not negated, negated
