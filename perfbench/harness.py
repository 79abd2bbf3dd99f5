"""Run one `slw` command line in an isolated child and measure it.

Each child is a fresh interpreter started in a fresh temporary directory that
also holds its HOME and XDG_CACHE_HOME, with a clean environment whose only
Python settings are PYTHONPATH (the checkout's `src`) and PYTHONHASHSEED.
Wall time runs from just before the spawn to the reap; CPU time and peak
resident memory come from `os.wait4`. A child that outlives its timeout is
killed, reaped and reported as timed out.
"""

from __future__ import annotations

import json
import os
import random
import select
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
LAUNCHER = HERE / "launch.py"


@dataclass
class Result:
    exit: int
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    stdout: str
    stderr: str
    timed_out: bool
    spans: dict | None = None


class Runner:
    """Spawns children one at a time under a work directory it owns."""

    def __init__(self, checkout: Path, work: Path, hash_seed: str, timeout_s: float):
        self.src = checkout / "src"
        self.work = work
        self.hash_seed = hash_seed
        self.timeout_s = timeout_s

    def run(self, args: list, trace: bool = False, command: list | None = None) -> Result:
        """Run `slw args` (or `command + args`) to completion."""
        job_dir = Path(tempfile.mkdtemp(prefix="job-", dir=self.work))
        try:
            return self._run(job_dir, args, trace, command)
        finally:
            shutil.rmtree(job_dir, ignore_errors=True)

    def _run(self, job_dir: Path, args, trace, command) -> Result:
        home = job_dir / "home"
        home.mkdir()
        env = {"PATH": os.environ.get("PATH", "/usr/bin:/bin"),
               "LANG": "C.UTF-8",
               "HOME": str(home),
               "XDG_CACHE_HOME": str(home / ".cache"),
               "TMPDIR": str(job_dir),
               "PYTHONPATH": str(self.src),
               "PYTHONHASHSEED": self.hash_seed}
        spans_file = job_dir / "spans.json"
        if trace:
            env["SLW_BENCH_SPANS"] = str(spans_file)
        cmd = (command or [sys.executable, str(LAUNCHER)]) + list(args)
        out_path, err_path = job_dir / "stdout", job_dir / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=job_dir, env=env, stdin=subprocess.DEVNULL,
                                    stdout=out, stderr=err)
            try:
                pidfd = os.pidfd_open(proc.pid)
                try:
                    ready, _, _ = select.select([pidfd], [], [], self.timeout_s)
                finally:
                    os.close(pidfd)
            except BaseException:
                proc.kill()
                os.wait4(proc.pid, 0)
                proc.returncode = -9
                raise
            timed_out = not ready
            if timed_out:
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
        spans = json.loads(spans_file.read_text()) if trace and spans_file.exists() else None
        return Result(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                      usage.ru_maxrss / 1024.0,
                      out_path.read_text(errors="replace"), err_path.read_text(errors="replace"),
                      timed_out, spans)


def reference_probe() -> float:
    """Seconds this process takes for a fixed piece of pure-Python work.

    The machine's speed drifts by 10-20 % over minutes on shared hosts, and
    at times by half; the probe, run between jobs, measures that drift so that
    job times can be rescaled to a fixed reference speed. Like slw it mixes
    tight set arithmetic (a subset construction) with allocation-heavy work
    (an index of lists sorted by repr), which speed up by different amounts
    when the host gets faster."""
    t0 = time.perf_counter()
    rng = random.Random(7)
    n, letters = 24, 3
    delta = {(q, a): frozenset(rng.sample(range(n), 2)) for q in range(n) for a in range(letters)}
    start = frozenset([0])
    seen, queue = {start}, [start]
    while queue and len(seen) < 800:
        p = queue.pop()
        for a in range(letters):
            nxt = frozenset().union(*(delta[q, a] for q in p))
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    index = {}
    for i in range(2500):
        index.setdefault((rng.randrange(600), "q"), []).append((i, rng.random()))
    sorted(index.items(), key=repr)
    return time.perf_counter() - t0
