"""Record the reference table from the current commit.

    python3 perfbench/record.py

Runs every call of each workload's whole pool once (the union of what
any seed can generate) and writes perfbench/references.json: per call
key, ``[exit code, digest]`` or ``"crash"`` for a call that raised.
Also prints how many pool members each big-groups bound excludes. The
table belongs to the commit it was recorded at; re-recording it is a
change to the benchmark.
"""

from __future__ import annotations

import json
import shutil
import sys
import time
from random import Random

import run
from harness import execute, install_alarm, reference_entry
from workloads import WORKLOADS

RECORD_BUDGET_S = 120.0


def main():
    sys.path.insert(0, str(run.ROOT / "src"))
    install_alarm()
    sforge = run.import_sforge()
    table = {}
    work = run.ROOT / ".perfbench_work" / "record"
    shutil.rmtree(work, ignore_errors=True)
    try:
        for name in WORKLOADS:
            inputs = WORKLOADS[name](run.ROOT, Random(0), sforge,
                                     everything=True)
            directory = work / name
            directory.mkdir(parents=True)
            for fname, text in inputs.files.items():
                (directory / fname).write_text(text, encoding="utf-8")
            start, slow = time.perf_counter(), []
            for call in inputs.calls:
                outcome = execute(sforge.cli.main, call.argv(str(directory)),
                                  RECORD_BUDGET_S)
                if outcome.error == "timeout":
                    print("timeout, no reference: %s" % call.label())
                    continue
                table[call.key(inputs.files)] = reference_entry(outcome)
                if outcome.seconds > 2:
                    slow.append((outcome.seconds, call.label()))
            print("%s: %d calls in %.1f s; bounds exclude %s"
                  % (name, len(inputs.calls), time.perf_counter() - start,
                     inputs.excluded or "nothing"))
            for seconds, label in sorted(slow, reverse=True)[:10]:
                print("  %.2f s  %s" % (seconds, label))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    run.REFERENCES.write_text(
        json.dumps(table, sort_keys=True, separators=(",", ":")) + "\n",
        encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
