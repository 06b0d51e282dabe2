"""Running one sforge CLI call in-process and judging its outcome.

A call is ``sforge.cli.main(argv)`` with stdout and stderr captured,
under a per-call time budget that ``signal.setitimer`` enforces on this
process only. Its outcome is compared with the reference table, which
holds, per call key, the exit code and a digest of the structured
``result`` member plus ``input_sha256`` (the ``input`` path is left out,
since the envelope embeds it), or ``"crash"`` for a call that raised
when the table was recorded.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import signal
import time
from collections import Counter
from dataclasses import dataclass

CALL_BUDGET_S = 10.0
OK_EXITS = (0, 2, 3)
CRASH = "crash"

# Failure kinds, in the order the breakdown prints them.
FAILURE_KINDS = (
    "tracebacks",
    "bad_exits",
    "timeouts",
    "exit_mismatches",
    "output_mismatches",
    "unreferenced",
)
# Kinds that mean an output differs from what the reference commit gave.
INCORRECT_KINDS = ("exit_mismatches", "output_mismatches", "unreferenced")


class CallTimeout(BaseException):
    """Raised by SIGALRM inside a call that exceeds its budget. A
    BaseException, so that the program's own handlers cannot catch it."""


class _Alarm:
    armed = False


def _on_alarm(signum, frame):
    if _Alarm.armed:
        _Alarm.armed = False
        raise CallTimeout()


def install_alarm():
    signal.signal(signal.SIGALRM, _on_alarm)


@dataclass
class Outcome:
    seconds: float
    exit: int | None  # None when the call raised or timed out
    error: str | None  # exception type name, or "timeout"
    stdout: str


def execute(main, argv, budget=CALL_BUDGET_S):
    """Run main(argv) once; install_alarm() must have been called."""
    out, err = io.StringIO(), io.StringIO()
    code, error = None, None
    start = time.perf_counter()
    try:
        try:
            _Alarm.armed = True
            signal.setitimer(signal.ITIMER_REAL, budget)
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = main(argv)
        finally:
            _Alarm.armed = False
            signal.setitimer(signal.ITIMER_REAL, 0)
    except CallTimeout:
        error = "timeout"
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # the program's own crash is the measurement
        error = type(exc).__name__
    seconds = time.perf_counter() - start
    if code is None and error is None:
        code = 0
    return Outcome(seconds, code, error, out.getvalue())


def digest(stdout):
    """Digest of result + input_sha256 of a structured document."""
    doc = json.loads(stdout)
    core = {"input_sha256": doc["input_sha256"], "result": doc["result"]}
    text = json.dumps(core, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def reference_entry(outcome):
    """What the reference table stores for an outcome."""
    if outcome.error is not None:
        return CRASH
    if outcome.exit == 0:
        return [0, digest(outcome.stdout)]
    return [outcome.exit, None]


class Judge:
    """Classifies outcomes against the reference table and counts them."""

    def __init__(self, references):
        self.references = references
        self.counts = dict.fromkeys(FAILURE_KINDS, 0)
        self.attempted = 0
        self.incorrect = 0
        self.failures = Counter()  # (failure kind, call label) -> count
        self._seen = {}  # (key, stdout sha) -> digest, for repeated outputs

    def _digest(self, key, stdout):
        token = (key, hashlib.sha256(stdout.encode("utf-8")).digest())
        if token not in self._seen:
            try:
                self._seen[token] = digest(stdout)
            except (ValueError, KeyError, TypeError):
                self._seen[token] = None
        return self._seen[token]

    def classify(self, key, outcome):
        ref = self.references.get(key)
        if outcome.error == "timeout":
            return "timeouts"
        if outcome.error is not None:
            return "tracebacks"
        if outcome.exit not in OK_EXITS:
            return "bad_exits"
        if ref is None:
            return "unreferenced"
        if ref == CRASH:
            return None  # crashed when recorded, clean exit now
        if outcome.exit != ref[0]:
            return "exit_mismatches"
        if outcome.exit == 0 and self._digest(key, outcome.stdout) != ref[1]:
            return "output_mismatches"
        return None

    def record(self, key, label, outcome):
        self.attempted += 1
        kind = self.classify(key, outcome)
        if kind is None:
            return
        self.counts[kind] += 1
        if outcome.error not in (None, "timeout"):
            label += " (%s)" % outcome.error
        self.failures[kind, label] += 1
        ref = self.references.get(key)
        regressed = (kind in ("tracebacks", "bad_exits")
                     and ref not in (None, CRASH))
        if kind in INCORRECT_KINDS or regressed:
            self.incorrect += 1

    @property
    def failed(self):
        return sum(self.counts.values())
