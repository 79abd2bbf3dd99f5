"""End-to-end benchmark of the slw command line.

    python3 perfbench/run.py --workload verify|synth|behavior --seed N \\
        --seconds S --trace 0|1

Run from the root of a checkout. One client runs the workload's jobs one at a
time in a closed loop, each job a fresh interpreter (see harness.py), and
repeats the job list until S seconds have passed; the first pass always runs
whole. The seed permutes the jobs, renames the transition labels, shuffles
the places of every net and sets each child's PYTHONHASHSEED (workloads.py).
Every job's output is checked against its known answer after the timed loop.

--trace 0 reports the end-to-end metrics: `batch_s`, the sum over jobs of each
job's median wall time; `job_s.geomean`, the geometric mean of those medians;
`peak_rss_mb`, the largest max-RSS of any child; and `setup_s`, the median wall
time of `slw --version` starts spread through the run. The machine's speed
drifts by 10-20 % between minutes on a shared host, so a reference probe
(harness.reference_probe) runs after every child, and `batch_s` and
`job_s.geomean` are rescaled from the probe's median in the run to the probe
time REFERENCE_PROBE_S; the report also prints them unscaled. --trace 1 runs every job once plain and once under
the tracer (tracer.py), alternating which goes first, and reports the
per-layer metrics and `trace_overhead`.

The last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import shutil
import statistics
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

import harness
import tracer
import workloads

SETUP_STARTS = 25
PROBES_PER_CHILD = 2
# Median probe time on the host where the baseline was recorded (an Intel
# Xeon virtual machine with 2 vCPUs and Python 3.11).
REFERENCE_PROBE_S = 0.022
JOB_TIMEOUT_S = 60.0
SELF_SUM_TOLERANCE_S = 1e-3
VERSION_ARGS = ["--version"]


END_TO_END_UNITS = {"batch_s": "s", "job_s.geomean": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def unit_of(metric: str) -> str:
    if metric in END_TO_END_UNITS:
        return END_TO_END_UNITS[metric]
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("ratio") or metric == "trace_overhead":
        return "ratio"
    if metric.endswith(".bytes"):
        return "B"
    return "count"


def per_layer_names() -> list[str]:
    return sorted(tracer.layer_metrics({}, {})) + ["cli.wait_s", "trace_overhead"]


class Run:
    """One benchmark run: its inputs, its child runner and every result."""

    def __init__(self, checkout: Path, work: Path, workload: str, seed: int):
        self.work = work
        self.labels = workloads.label_map(seed)
        inputs_dir = work / "inputs"
        inputs_dir.mkdir()
        self.inputs = workloads.write_inputs(inputs_dir, seed)
        self.jobs = workloads.job_order(workload, seed)
        self.runner = harness.Runner(checkout, work, workloads.hash_seed(seed), JOB_TIMEOUT_S)
        self.records: list = []    # (job or None for a setup start, Result, pass dir, traced)
        self.probes: list[float] = []

    def run_job(self, job, pass_dir: Path, trace: bool = False):
        args = workloads.resolve(job.argv, self.inputs, pass_dir, self.labels)
        result = self.runner.run(args, trace=trace)
        self.records.append((job, result, pass_dir, trace))
        return result

    def setup_start(self):
        self.records.append((None, self.runner.run(VERSION_ARGS), None, False))
        self.probe()

    def probe(self):
        self.probes.extend(harness.reference_probe() for _ in range(PROBES_PER_CHILD))

    def loop(self, seconds: float, trace: bool):
        t0 = time.perf_counter()
        pass_no = 0
        while True:
            pass_dir = self.work / f"pass-{pass_no}"
            pass_dir.mkdir()
            for job in self.jobs:
                if pass_no > 0 and time.perf_counter() - t0 >= seconds:
                    return pass_no
                if trace:
                    for traced in ((False, True) if pass_no % 2 == 0 else (True, False)):
                        self.run_job(job, pass_dir, traced)
                else:
                    self.run_job(job, pass_dir)
                    self.probe()
                    share = (time.perf_counter() - t0) / seconds
                    while self.setup_count() < min(SETUP_STARTS, math.ceil(SETUP_STARTS * share)):
                        self.setup_start()
            pass_no += 1

    def setup_count(self) -> int:
        return sum(1 for job, *_ in self.records if job is None)

    def check(self) -> list[str]:
        """Problems found, one line per failed child."""
        checker = workloads.Checker(self.inputs, self.labels)
        problems = []
        for job, result, pass_dir, traced in self.records:
            if result.timed_out:
                problem = f"timed out after {JOB_TIMEOUT_S:.0f} s"
            elif job is None:
                ok = result.exit == 0 and result.stdout.startswith("slw ")
                problem = "" if ok else f"--version gave exit {result.exit}"
            else:
                problem = checker.check(job, result.exit, result.stdout, result.stderr, pass_dir)
                if not problem and traced and result.spans is None:
                    problem = "traced child wrote no spans"
            if problem:
                what = job.name if job else "slw --version"
                problems.append(f"{what}{' (traced)' if traced else ''}: {problem}")
        return problems


def _by_job(records, traced: bool) -> dict:
    out = defaultdict(list)
    for job, result, _, was_traced in records:
        if job is not None and was_traced == traced:
            out[job.name].append(result)
    return out


def unscaled(run: Run) -> dict:
    medians = [statistics.median(r.wall_s for r in rs)
               for rs in _by_job(run.records, False).values()]
    return {"batch_s": sum(medians),
            "job_s.geomean": math.exp(statistics.fmean(math.log(m) for m in medians)),
            "probe_s": statistics.median(run.probes)}


def end_to_end(run: Run) -> dict:
    by_job = _by_job(run.records, False)
    raw = unscaled(run)
    scale = REFERENCE_PROBE_S / raw["probe_s"]
    return {
        "batch_s": raw["batch_s"] * scale,
        "job_s.geomean": raw["job_s.geomean"] * scale,
        "peak_rss_mb": max(r.maxrss_mb for rs in by_job.values() for r in rs),
        "setup_s": statistics.median(r.wall_s for job, r, *_ in run.records if job is None),
    }


def per_layer(run: Run) -> dict:
    plain, traced = _by_job(run.records, False), _by_job(run.records, True)
    sums: dict = defaultdict(float)
    maxes: dict = defaultdict(float)
    for results in traced.values():
        stats = [tracer.job_stats(r.spans) for r in results if r.spans is not None]
        for job_sums, job_maxes in stats:
            for key, value in job_sums.items():
                sums[key] += value / len(stats)
            for key, value in job_maxes.items():
                maxes[key] = max(maxes[key], value)
    error = maxes["trace.self_sum_error_s"]
    print(f"layer self times vs root span, largest difference of a job: {error:.3g} s")
    if error > SELF_SUM_TOLERANCE_S:
        print(f"warning: span nesting is broken (self times miss the root by {error:.3g} s)",
              file=sys.stderr)
    metrics = tracer.layer_metrics(sums, maxes)
    metrics["cli.wait_s"] = sum(statistics.fmean(r.wall_s - r.cpu_s for r in rs)
                                for rs in plain.values())
    plain_batch = sum(statistics.median(r.wall_s for r in rs) for rs in plain.values())
    traced_batch = sum(statistics.median(r.wall_s for r in rs) for rs in traced.values())
    metrics["trace_overhead"] = traced_batch / plain_batch - 1
    return metrics


def print_report(run: Run, workload: str, passes: int, metrics: dict, problems: list):
    print(f"slw benchmark: workload {workload}, {passes} pass(es), "
          f"{len(run.records)} children")
    print(f"{'job':<52} {'runs':>4} {'median_s':>9} {'max_rss_mb':>10}")
    for traced in (False, True):
        for name, results in _by_job(run.records, traced).items():
            label = name + (" [traced]" if traced else "")
            print(f"{label:<52} {len(results):>4} "
                  f"{statistics.median(r.wall_s for r in results):>9.4f} "
                  f"{max(r.maxrss_mb for r in results):>10.1f}")
    for name in sorted(metrics):
        print(f"{name:<48} {metrics[name]:>14.6g} {unit_of(name)}")
    if run.probes:
        for name, value in unscaled(run).items():
            print(f"{'unscaled ' + name:<48} {value:>14.6g} s")
    attempted = len(run.records)
    print(f"{'job_fail_ratio':<48} {len(problems) / attempted:>14.6g} "
          f"({len(problems)} failed / {attempted} attempted)")
    for problem in problems:
        print("FAILED " + problem, file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    checkout = Path.cwd()
    src = checkout / "src"
    if not (src / "slw" / "cli.py").is_file():
        print(f"error: no slw sources under {src}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    compileall.compile_dir(str(src), quiet=1)

    bench_dir = checkout / ".bench_work"
    bench_dir.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=bench_dir))
    try:
        run = Run(checkout, work, args.workload, args.seed)
        run.runner.run(VERSION_ARGS)   # warm the file cache; not measured
        passes = run.loop(args.seconds, bool(args.trace))
        if not args.trace:
            while run.setup_count() < SETUP_STARTS:
                run.setup_start()
        problems = run.check()
        metrics = per_layer(run) if args.trace else end_to_end(run)
        print_report(run, args.workload, passes, metrics, problems)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({
        "correct": not problems,
        "attempted": len(run.records),
        "failed": len(problems),
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
