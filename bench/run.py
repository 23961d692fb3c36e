"""Benchmark entry point: one workload, one process, seeded inputs.

    python3 bench/run.py --workload daisy-cycles --seed 1 --seconds 25 --trace 0

Runs whole passes of the workload (every operation once per pass) until
the next pass would end after --seconds, checks the first pass's outputs
against independent recomputations (plus negative controls), requires
every later pass to repeat them exactly, and prints one JSON line:
`correct`, `attempted`, `failed` and the metrics.  With --trace 0 those are
the end-to-end metrics; with --trace 1 the per-layer ones from spans around
the benchmark's own calls into the library.  Details go to bench/out/.

corpus_ref is the median over the run's untraced passes of the pass's
time in reference units: every library call's time divided by the mean
time of a fixed reference loop timed right before and right after that
call, summed over the pass (workloads.Timer).
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKLOAD_NAMES = ("daisy-cycles", "anemone-uniform", "oracle-graphs", "tangle-search")
MIN_PASSES = 5
SEED_EXTRA_SPANS = ("flowers.seed", "flowers.seed_prep")
LAYER_TIMES = ("core.build", "tangles.enumerate", "tangles.robust", "closure.classes",
               "flowers.seed", "trees.build", "trees.verify", "oracle.certify",
               "oracle.differential", "jsonio.emit")
LAYER_LAMS = ("tangles.enumerate", "closure.classes", "flowers.seed", "trees.build",
              "trees.verify", "oracle.certify", "oracle.differential")


def import_library():
    """Put the checkout's src/ first on the path and import from there only."""
    if not (SRC / "tangleforge" / "__init__.py").is_file():
        sys.exit(f"tangleforge sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import tangleforge
    if Path(tangleforge.__file__).resolve().parent != SRC / "tangleforge":
        sys.exit(f"imported tangleforge from {tangleforge.__file__}, not {SRC}")


def setup_probe(args):
    """Wall time of a fresh interpreter that imports the library and builds
    the workload's inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    start = time.perf_counter()
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, cwd=ROOT)
    return time.perf_counter() - start


class Passes:
    """Runs passes and keeps what the metrics need."""

    def __init__(self, workloads, workload, systems):
        self.workloads, self.workload, self.systems = workloads, workload, systems
        self.ops = workloads.operation_count(systems)
        self.attempted = self.failed = self.mismatches = 0
        self.first = None
        self.failures = []

    def run(self, tracer):
        start = time.perf_counter()
        records, failures = self.workloads.run_pass(self.workload, self.systems, tracer)
        seconds = time.perf_counter() - start
        self.attempted += self.ops
        self.failed += len(failures)
        if self.first is None:
            self.first, self.failures = records, failures
        else:
            self.mismatches += records != self.first
        return seconds


def layer_metrics(tracer, traced_passes, untraced, traced):
    """Per-layer medians over the traced passes, lam counts per pass, and
    the tracing overhead: fastest traced minus fastest untraced sum of call
    times (the untraced sum leaves out the reference chunks)."""
    per_pass = {}
    for span in tracer.spans:
        agg = per_pass.setdefault(span["pass"], {})
        t, lam = agg.get(span["name"], (0.0, 0))
        agg[span["name"]] = (t + span["end"] - span["start"], lam + span["lam"])
    passes = [per_pass.get(p, {}) for p in traced_passes]
    metrics = {}
    for name in LAYER_TIMES:
        metrics[f"{name}_s"] = (statistics.median(p.get(name, (0.0, 0))[0] for p in passes), "s")
    lam_runs = []
    for p in passes:
        lams = {name: p.get(name, (0.0, 0))[1] for name in LAYER_LAMS}
        lams["core"] = sum(lam for name, (_, lam) in p.items()
                           if name not in SEED_EXTRA_SPANS)
        lam_runs.append(lams)
    for name in LAYER_LAMS:
        metrics[f"{name}_lam"] = (lam_runs[-1][name], "count")
    metrics["core.lam"] = (lam_runs[-1]["core"], "count")
    metrics["trace.overhead_s"] = (min(traced) - min(untraced), "s")
    lines = {p.name: len(p.read_text().splitlines())
             for p in sorted((SRC / "tangleforge").glob("*.py"))}
    metrics["src.lines"] = (sum(lines.values()), "count")
    steady = all(run == lam_runs[0] for run in lam_runs)
    return metrics, lines, steady


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    import_library()
    import workloads
    if args.setup_probe:
        workloads.make_inputs(args.workload, args.seed)
        return
    import checks

    setup_samples = [setup_probe(args)]
    systems = workloads.make_inputs(args.workload, args.seed)
    kind = workloads.WORKLOADS[args.workload][1]
    tracer = workloads.Tracer() if args.trace else None

    deadline = time.perf_counter() + args.seconds
    passes = Passes(workloads, args.workload, systems)
    passes.run(workloads.Timer())  # warm-up; its records are the ones checked
    untraced, units, calls_s, traced, traced_passes = [], [], [], [], []
    while True:
        timer = workloads.Timer()
        untraced.append(passes.run(timer))
        units.append(timer.units)
        calls_s.append(timer.seconds)
        setup_samples.append(setup_probe(args))
        if tracer is not None:
            tracer.pass_index += 1
            passes.run(tracer)
            traced.append(sum(s["end"] - s["start"] for s in tracer.spans
                              if s["pass"] == tracer.pass_index
                              and s["name"] not in SEED_EXTRA_SPANS))
            traced_passes.append(tracer.pass_index)
        step = (statistics.median(untraced) + statistics.median(setup_samples)
                + (statistics.median(traced) if traced else 0))
        if len(untraced) >= MIN_PASSES and time.perf_counter() + step > deadline:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    problems, tables = checks.check_records(kind, systems, passes.first)
    missed, n_controls = checks.negative_controls(kind, systems, passes.first, tables)
    correct = not problems and not missed and not passes.mismatches

    setup_s = statistics.median(setup_samples)
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "operations_per_pass": passes.ops, "untraced_pass_s": untraced,
              "untraced_call_s": calls_s, "corpus_ref_per_pass": units,
              "setup_samples_s": setup_samples, "check_problems": problems,
              "negative_controls": n_controls, "negative_controls_missed": missed,
              "repeat_mismatches": passes.mismatches, "failures": passes.failures}
    OUT.mkdir(exist_ok=True)
    if tracer is None:
        metrics = {"corpus_ref": (statistics.median(units), "ref"),
                   "setup_s": (setup_s, "s"),
                   "peak_rss_mb": (peak_rss_mb, "MB")}
    else:
        metrics, lines, lam_steady = layer_metrics(tracer, traced_passes, calls_s, traced)
        correct = correct and lam_steady
        detail.update(traced_call_s=traced, lam_counts_repeat=lam_steady)
        trace = {"workload": args.workload, "seed": args.seed, "spans": tracer.spans,
                 "untraced_call_s": calls_s, "traced_call_s": traced,
                 "overhead_s": metrics["trace.overhead_s"][0], "src_lines": lines}
        (OUT / f"trace-{args.workload}-{args.seed}.json").write_text(json.dumps(trace))
    result = {"correct": bool(correct), "attempted": passes.attempted, "failed": passes.failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    detail["result"] = result
    (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
