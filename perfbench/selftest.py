"""Benchmark self-test: each workload at a tiny size, in both modes.

    python3 perfbench/selftest.py

Runs a few calls of every workload with tracing off and on, and checks
that the result object has its four keys and that every metric
named in BENCHMARK.json (end_to_end without tracing, per_layer with it)
is emitted, with its unit, as a finite number. Exits 1 on any problem.
"""

from __future__ import annotations

import json
import math
import sys

import run
from tracing import PER_LAYER


def check(spec):
    problems = []
    declared = {
        "end_to_end": [(m["name"], m["unit"]) for m in spec["end_to_end"]],
        "per_layer": [(m["name"], m["unit"]) for m in spec["per_layer"]],
    }
    if declared["end_to_end"] != list(run.END_TO_END):
        problems.append("BENCHMARK.json end_to_end differs from END_TO_END")
    if declared["per_layer"] != [(n, u) for n, u, _ in PER_LAYER]:
        problems.append("BENCHMARK.json per_layer differs from PER_LAYER")
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, section in ((False, "end_to_end"), (True, "per_layer")):
            where = "%s trace=%d" % (workload, trace)
            _, result = run.measure(workload, 1, 0, trace, tiny=True)
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append("%s: keys %s" % (where, sorted(result)))
                continue
            if not result["correct"] or result["attempted"] < 1:
                problems.append("%s: correct=%s attempted=%d"
                                % (where, result["correct"],
                                   result["attempted"]))
            got = [(n, m["unit"]) for n, m in result["metrics"].items()]
            if got != declared[section]:
                missing = set(declared[section]) - set(got)
                extra = set(got) - set(declared[section])
                problems.append("%s: missing %s, extra %s"
                                % (where, sorted(missing), sorted(extra)))
            for name, m in result["metrics"].items():
                value = m["value"]
                if (isinstance(value, bool)
                        or not isinstance(value, (int, float))
                        or not math.isfinite(value) or value < 0):
                    problems.append("%s: %s = %r" % (where, name, value))
            if trace and not result["metrics"]["cli.main.self_s"]["value"]:
                problems.append("%s: no time inside cli.main" % where)
            json.dumps(result)
            print("ok  %s: %d metrics, %d calls"
                  % (where, len(got), result["attempted"]))
    return problems


def main():
    sys.path.insert(0, str(run.ROOT / "src"))
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = check(spec)
    for line in problems:
        print("FAIL " + line)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
