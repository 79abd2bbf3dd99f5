"""Freeze the known answers of the verify and synthesis jobs into expected.json.

    python3 perfbench/freeze.py      (from the root of a checkout)

Run it only on a commit whose answers are trusted: later runs treat the file
as ground truth. test_perfbench.py re-checks the frozen answers against the
brute-force oracles of slw on posets of up to four events.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import harness
import workloads


def main() -> int:
    checkout = Path.cwd()
    sys.path.insert(0, str(checkout / "src"))
    (checkout / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="freeze-", dir=checkout / ".bench_work"))
    seed = 0
    labels = workloads.label_map(seed)
    back = {v: k for k, v in labels.items()}
    try:
        (work / "inputs").mkdir()
        inputs = workloads.write_inputs(work / "inputs", seed)
        runner = harness.Runner(checkout, work, workloads.hash_seed(seed), 600)
        expected = {"places": {}, "verify": {}}
        for name in ("verify", "synth"):
            for job in workloads.job_order(name, seed):
                result = runner.run(workloads.resolve(job.argv, inputs, work, labels))
                if result.exit != job.exit:
                    raise SystemExit(f"{job.name}: exit {result.exit}\n{result.stderr}")
                if job.kind == "net":
                    expected["places"][job.name] = workloads.net_places(result.stdout, back)
                else:
                    verdict, cexes = workloads.parse_verify(result.stdout)
                    expected["verify"][job.name] = {
                        "verdict": verdict,
                        "counterexamples": {k: len(v[0]) for k, v in cexes.items()}}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    out = Path(__file__).resolve().parent / "expected.json"
    out.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
