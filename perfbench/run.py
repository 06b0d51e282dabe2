"""sforge benchmark: one process, one thread, a closed loop with one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository: the program is imported from
``src/`` beside this directory and nowhere else. Set-up imports sforge,
generates the workload's inputs from the seed, writes them as files
under ``.perfbench_work/`` and loads the reference table. ``setup_s``
is the time from starting a fresh ``python3 run.py --setup-probe``
process to its report that set-up is done, as the median over
SETUP_PROBES such processes spread over the run; it covers interpreter
start and the cold import. The loop then calls ``sforge.cli.main(argv)``
in-process, one call after the other, in whole passes over the generated
calls until ``--seconds`` have passed and at least 100 calls were made,
not counting the probes. Each pass
runs on a fresh import of sforge, made outside the timed calls, so that
no module state carries from one pass to the next. Every call is
checked against the reference table (see harness.py).

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics. With ``--trace 1`` the run alternates an untraced
pass with a traced one until ``--seconds`` have passed and reports the
per-layer metrics (see tracing.py): counts from the first traced pass,
self times as the median over traced passes, and the traced over the
untraced wall time of each pair as ``trace.overhead_ratio``. Spans are
written to ``.perfbench_out/``. The lines before the last one are a
human-readable summary, including the failure breakdown.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from random import Random

from harness import Judge, execute, install_alarm
from tracing import PER_LAYER, Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCES = HERE / "references.json"
SETUP_PROBES = 11
MIN_CALLS = 100

END_TO_END = (
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("calls_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def import_sforge():
    """A fresh import of the program from ROOT/src."""
    for name in [n for n in sys.modules
                 if n == "sforge" or n.startswith("sforge.")]:
        del sys.modules[name]
    sforge = importlib.import_module("sforge")
    for sub in ("cli", "corpus", "errors", "graph", "equations"):
        importlib.import_module("sforge." + sub)
    origin = Path(sforge.__file__).resolve()
    if ROOT / "src" not in origin.parents:
        raise ImportError("sforge imported from %s, not from %s"
                          % (origin, ROOT / "src"))
    return sforge


def setup(workload, seed, directory):
    """Import, generate and write the inputs, load the references."""
    sforge = import_sforge()
    inputs = WORKLOADS[workload](ROOT, Random(seed), sforge)
    directory.mkdir(parents=True)
    for name, text in inputs.files.items():
        (directory / name).write_text(text, encoding="utf-8")
    with open(REFERENCES, encoding="utf-8") as fh:
        references = json.load(fh)
    calls = [(c.key(inputs.files), c.label(), c.argv(str(directory)))
             for c in inputs.calls]
    return calls, references


def time_setup(workload, seed):
    """Wall time from starting a fresh set-up probe process to its
    report that set-up is done."""
    argv = [sys.executable, str(Path(__file__).resolve()),
            "--workload", workload, "--seed", str(seed), "--seconds", "0",
            "--setup-probe"]
    start = time.perf_counter()
    with subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True) as child:
        line = child.stdout.readline()
        seconds = time.perf_counter() - start
        child.stdout.read()
    if child.returncode != 0 or line != "ready\n":
        raise RuntimeError("set-up probe failed with exit %s"
                           % child.returncode)
    return seconds


def setup_probe(workload, seed):
    """The probe process: set up, report it, clean up."""
    work = ROOT / ".perfbench_work" / ("probe-%s-seed%d-pid%d"
                                       % (workload, seed, os.getpid()))
    try:
        setup(workload, seed, work)
        print("ready", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)


class Loop:
    """The closed loop: one call at a time, each checked on return."""

    def __init__(self, calls, judge, tracer=None):
        self.calls = calls
        self.judge = judge
        self.tracer = tracer
        self.latencies = []

    def one_pass(self):
        """Run every call once on a fresh import of sforge, traced if
        the loop has a tracer; returns the summed call wall time, which
        leaves the import out."""
        cli = import_sforge().cli
        patch = self.tracer.install() if self.tracer is not None else None
        total = 0.0
        try:
            for key, label, argv in self.calls:
                if self.tracer is not None:
                    self.tracer.begin_call()
                outcome = execute(cli.main, argv)
                self.judge.record(key, label, outcome)
                self.latencies.append(outcome.seconds)
                total += outcome.seconds
        finally:
            if patch is not None:
                patch.restore()
        return total


def _end_to_end(calls, judge, seconds, probe, probes, tiny):
    loop = Loop(calls, judge)
    setup_times = []
    passes, busy, elapsed = 0, 0.0, 0.0
    while True:
        start = time.perf_counter()
        busy += loop.one_pass()
        elapsed += time.perf_counter() - start
        passes += 1
        done = tiny or (elapsed >= seconds
                        and len(loop.latencies) >= MIN_CALLS)
        # The set-up probes are spread over the run, so that they sample
        # the machine at the same moments as the calls. Their time does
        # not count towards --seconds.
        share = 1.0 if done or seconds <= 0 else min(1.0, elapsed / seconds)
        while len(setup_times) < int(probes * share):
            setup_times.append(probe())
        if done:
            break
    lat = loop.latencies
    metrics = {
        "latency_p50_ms": statistics.median(lat) * 1e3,
        "latency_p90_ms": statistics.quantiles(
            lat, n=10, method="inclusive")[-1] * 1e3,
        "calls_per_s": len(lat) / busy,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    units = dict(END_TO_END)
    lines = [
        "passes=%d calls=%d (%d per pass) elapsed_s=%.3f setup_probes=%d"
        % (passes, len(lat), len(calls), elapsed, len(setup_times)),
        "  ".join("%s=%.6g %s%s" % (name, metrics[name], units[name],
                                    " (n=%d)" % len(lat)
                                    if name.startswith("latency") else "")
                  for name in units),
    ]
    return metrics, lines


def _per_layer(calls, judge, seconds, workload, seed, tiny):
    tracer = Tracer()
    plain = Loop(calls, judge)
    traced = Loop(calls, judge, tracer)
    snapshots, ratios, start = [], [], time.perf_counter()
    while True:
        untraced_s = plain.one_pass()
        tracer.reset()
        traced_s = traced.one_pass()
        snapshots.append(tracer.metrics())
        ratios.append(traced_s / untraced_s)
        if tiny or time.perf_counter() - start >= seconds:
            break
    metrics = dict(snapshots[0])
    for name in metrics:
        if name.endswith(".self_s"):
            metrics[name] = statistics.median(s[name] for s in snapshots)
    metrics["trace.overhead_ratio"] = statistics.median(ratios)
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    spans = out_dir / ("spans-%s-seed%d.jsonl" % (workload, seed))
    tracer.write(spans)
    lines = ["traced_passes=%d trace.overhead_ratio=%.4f spans=%d (%s)"
             % (len(snapshots), metrics["trace.overhead_ratio"],
                len(tracer.spans), spans.relative_to(ROOT))]
    return metrics, lines


def measure(workload, seed, seconds, trace, tiny=False):
    """One benchmark run; returns (summary lines, result object).
    tiny=True keeps the first few calls and makes one pass, for the
    self-test."""
    install_alarm()
    work = ROOT / ".perfbench_work" / ("%s-seed%d-pid%d"
                                       % (workload, seed, os.getpid()))
    try:
        calls, references = setup(workload, seed, work)
        if tiny:
            calls = calls[:6]
        judge = Judge(references)
        if trace:
            metrics, lines = _per_layer(calls, judge, seconds, workload,
                                        seed, tiny)
            units = {name: unit for name, unit, _ in PER_LAYER}
        else:
            probe = functools.partial(time_setup, workload, seed)
            probes = 1 if tiny else SETUP_PROBES
            metrics, lines = _end_to_end(calls, judge, seconds, probe,
                                         probes, tiny)
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    attempted, failed = judge.attempted, judge.failed
    lines.insert(0, "workload=%s seed=%d (closed loop, 1 client)"
                 % (workload, seed))
    lines.append("fail_ratio=%.6g (%d of %d calls)  %s"
                 % (failed / attempted, failed, attempted,
                    "  ".join("%s=%d" % kv for kv in judge.counts.items())))
    for (kind, label), count in sorted(judge.failures.items()):
        lines.append("  %s x%d: %s" % (kind, count, label))
    if judge.incorrect:
        lines.append("INCORRECT: %d calls differ from the reference table"
                     % judge.incorrect)
    result = {
        "correct": judge.incorrect == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    return lines, result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "sforge" / "__init__.py").is_file():
        print("perfbench: no sforge sources under %s" % (ROOT / "src"),
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    lines, result = measure(args.workload, args.seed, args.seconds,
                            bool(args.trace))
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
