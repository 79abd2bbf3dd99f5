"""Tests of the benchmark itself: the tracer, the checker and the inputs.

    python3 -m pytest perfbench -q      (from the root of a checkout)
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import run
import tracer
import workloads

CHECKOUT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(CHECKOUT / "src"))

from slw.dag import LabeledPoset, all_dags, dedup_posets  # noqa: E402
from slw.mso import evaluate_po, parse  # noqa: E402
from slw.ptnet import Place, PtNet, causal_orders, executions  # noqa: E402


@pytest.fixture
def bench_run(tmp_path):
    def make(workload: str, seed: int = 0) -> run.Run:
        work = Path(tempfile.mkdtemp(dir=tmp_path))
        return run.Run(CHECKOUT, work, workload, seed)
    return make


def _job(workload: str, name: str) -> workloads.Job:
    return next(j for stage in workloads.WORKLOADS[workload] for j in stage if j.name == name)


# -- the tracer ----------------------------------------------------------------------

_COMPLETENESS = """
import json, sys
sys.path.insert(0, sys.argv[1])
import tracer
t = tracer.install()
from slw.automata import SliceAutomaton
import slw.synthesis as synthesis
stale = [f"{mod}.{key}" for mod, m in sorted(sys.modules.items())
         if mod == "slw" or mod.startswith("slw.")
         for key, value in vars(m).items()
         if any(value is fn for fn in t.originals.values())]
methods = [name for name in ("trim", "determinize", "to_text", "from_text", "validate")
           if not hasattr(getattr(SliceAutomaton, name), "__wrapped__")]
by_name = [name for name in ("includes", "intersect", "net_automaton", "po_automaton")
           if not hasattr(getattr(synthesis, name), "__wrapped__")]
print(json.dumps({"stale": stale, "methods": methods, "by_name": by_name,
                  "missing": t.missing, "wrapped": len(t.originals)}))
"""


def test_tracer_leaves_no_unwrapped_binding():
    out = subprocess.run([sys.executable, "-c", _COMPLETENESS, str(Path(__file__).parent)],
                         env={"PYTHONPATH": str(CHECKOUT / "src")},
                         capture_output=True, text=True, check=True)
    got = json.loads(out.stdout)
    assert got["stale"] == []
    assert got["methods"] == []
    assert got["by_name"] == []
    assert got["missing"] == []
    assert got["wrapped"] == sum(len(names) for _, names in tracer.TARGETS.values())


def test_layer_self_times_sum_to_the_root_span(bench_run):
    r = bench_run("verify")
    job = _job("verify", "verify N1 total-order c=2 cau")
    result = r.run_job(job, r.work, trace=True)
    assert r.check() == []
    sums, maxes = tracer.job_stats(result.spans)
    metrics = tracer.layer_metrics(sums, maxes)
    root = metrics["trace.root_s"]
    layers = sum(sums.get(f"{layer}.self_s", 0.0) for layer in tracer.TARGETS)
    assert 0 < root <= result.wall_s
    assert abs(layers - root) <= 1e-6 * max(1.0, root)
    assert maxes["trace.self_sum_error_s"] <= 1e-6
    assert metrics["compiler.compile_formula.calls"] == 1
    assert metrics["ptnet.oracle.calls"] >= 1


def test_self_times_subtract_only_the_covered_part():
    spans = [[0, 0.0, 10.0, -1, None], [0, 1.0, 3.0, 0, None],
             [0, 2.0, 2.5, 1, None], [0, 4.0, 9.0, 0, None]]
    assert tracer.self_times(spans) == [3.0, 1.5, 0.5, 5.0]


# -- negative controls ------------------------------------------------------------------

def test_wrong_expected_answer_is_a_failure(bench_run):
    r = bench_run("verify")
    job = _job("verify", "verify N1 total-order c=2 cau")
    r.run_job(dataclasses.replace(job, exit=1), r.work)
    problems = r.check()
    assert len(problems) == 1 and "exit code 0, expected 1" in problems[0]


def test_traceback_is_a_failure(bench_run):
    r = bench_run("verify")
    job = _job("verify", "verify N1 total-order c=2 cau")
    result = r.runner.run([], command=[sys.executable, "-c", "raise RuntimeError('control')"])
    r.records.append((job, result, r.work, False))
    problems = r.check()
    assert len(problems) == 1 and "traceback" in problems[0]


def test_timeout_is_a_failure(bench_run):
    r = bench_run("verify")
    r.runner.timeout_s = 0.5
    result = r.runner.run([], command=[sys.executable, "-c", "import time; time.sleep(30)"])
    assert result.timed_out and result.wall_s < 10
    r.records.append((_job("verify", "verify N1 total-order c=2 cau"), result, r.work, False))
    assert len(r.check()) == 1


def test_wrong_places_and_members_are_failures(bench_run):
    r = bench_run("synth")
    checker = workloads.Checker(r.inputs, r.labels)
    job = _job("synth", "safest N0 total-order b=1 c=2 ex")
    net = ("net x bound=1\ntransitions {t1} {t2}\nplace init=1 take({t1})=1 put({t1})=1\n"
           "place init=1 take({t2})=1 put({t2})=1\n").format(**r.labels)
    assert "places" in checker.check(job, 0, net, "", r.work)
    members = _job("behavior", "aut members N0 n=3")
    assert "members" in checker.check(members, 0, "poset vertices=1 labels=x order=\n", "",
                                      r.work)


# -- seeds ---------------------------------------------------------------------------------

def _members(stdout: str, back: dict) -> set:
    out = set()
    for line in stdout.splitlines():
        _, _, labels, order = line.split()
        pairs = [tuple(map(int, p.split("<"))) for p in order[len("order="):].split(";") if p]
        labels = [back[x] for x in labels[len("labels="):].split(",")]
        out.add(LabeledPoset(dict(enumerate(labels)), pairs).canonical_key())
    return out


def _answers(r: run.Run, names: list) -> list:
    back = {v: k for k, v in r.labels.items()}
    out = []
    for name in names:
        job = next(j for j in r.jobs if j.name == name)
        result = r.run_job(job, r.work)
        answer = [job.name, result.exit]
        if job.kind == "verify":
            verdict, cexes = workloads.parse_verify(result.stdout)
            answer += [verdict, sorted((k, len(v[0])) for k, v in cexes.items())]
        elif job.kind == "net":
            answer.append(workloads.net_places(result.stdout, back))
        elif job.kind == "members":
            answer.append(_members(result.stdout, back))
        out.append(answer)
    assert r.check() == []
    return out


@pytest.mark.parametrize("workload,names", [
    ("verify", ["verify N1 total-order c=2 cau"]),
    ("synth", ["synth total-order b=2 c=2 cau"]),
    ("behavior", ["net-automaton N3 c=3 cau", "aut members N3 n=3"]),
])
def test_answers_do_not_depend_on_the_seed(bench_run, workload, names):
    first, second = bench_run(workload, 1), bench_run(workload, 2)
    assert first.labels != second.labels
    assert workloads.hash_seed(1) != workloads.hash_seed(2)
    assert _answers(first, names) == _answers(second, names)


def test_seed_permutes_jobs_within_stages_only():
    for name, stages in workloads.WORKLOADS.items():
        orders = {tuple(j.name for j in workloads.job_order(name, seed)) for seed in range(8)}
        assert len(orders) > 1
        for order in orders:
            at = 0
            for stage in stages:
                assert set(order[at:at + len(stage)]) == {j.name for j in stage}
                at += len(stage)


def test_inputs_are_a_function_of_the_seed(tmp_path):
    a, b, c = (tmp_path / x for x in "abc")
    for d, seed in ((a, 5), (b, 5), (c, 6)):
        d.mkdir()
        workloads.write_inputs(d, seed)
    text = {d: {p.name: p.read_text() for p in d.iterdir()} for d in (a, b, c)}
    assert text[a] == text[b] != text[c]


# -- frozen answers against the oracles -----------------------------------------------------

def _posets(n: int, labels: tuple, c: int) -> dict:
    out = []
    for k in range(1, n + 1):
        for h in all_dags(k, list(labels)):
            if h.is_transitively_reduced() and h.min_path_cover()[0] <= c:
                out.append(h.transitive_closure())
    return {p.canonical_key(): p for p in dedup_posets(out)}


def _net(name: str) -> PtNet:
    bound, transitions, places = workloads.NETS[name]
    return PtNet(transitions, [Place(i, puts=p, takes=t, name=n) for n, i, t, p in places],
                 bound=bound, name=name)


def _formula(name: str):
    return parse(workloads.FORMULAS[name].format(a="a", b="b"))


def _behavior(net: PtNet, n: int, c: int, sem: str) -> set:
    fn = executions if sem == "ex" else causal_orders
    return {p.canonical_key() for p in fn(net, n, c)}


@pytest.mark.parametrize("job", workloads.WORKLOADS["verify"][0], ids=lambda j: j.name)
def test_frozen_verdicts_agree_with_the_oracles(job):
    e = job.expect
    want = workloads.EXPECTED["verify"][job.name]
    n = 4
    net, phi = _net(e["net"]), _formula(e["formula"])
    posets = _posets(n, net.transitions, e["c"])
    spec = {k for k, p in posets.items() if evaluate_po(p, phi)}
    beh = _behavior(net, n, e["c"], e["sem"])
    small = [not (beh & spec), beh <= spec, spec <= beh]
    # A verdict that holds holds on small posets; one that fails has a
    # counterexample of the frozen size, and that size is at most n.
    assert max(want["counterexamples"].values(), default=0) <= n
    assert small == want["verdict"]
    assert (job.exit == 0) == want["verdict"][1]


def _places(job_name: str) -> list:
    out = []
    for key in workloads.EXPECTED["places"][job_name]:
        init, take, put = (part.split("=", 1)[1] for part in key.split())

        def flows(text):
            return {t: int(k) for t, k in (f.split(":") for f in text.split(",") if f)}
        out.append(Place(int(init), puts=flows(put), takes=flows(take)))
    return out


def _chains(labels: tuple, n: int, phi) -> set:
    posets = _posets(n, labels, 1)
    return {k for k, p in posets.items() if evaluate_po(p, phi)}


def test_frozen_synthesis_answers_agree_with_the_oracles():
    # Process enumeration on the synthesized nets themselves is far too slow,
    # so each frozen place is checked alone: it must admit every specified
    # poset. Under the execution semantics a net's behavior is the
    # intersection of its single places' behaviors, which bounds the whole
    # net's behavior from the forbidden side as well.
    n = 4

    def per_place(job, labels, b, c, sem):
        return [_behavior(PtNet(labels, [p], bound=b, check_transitions=False), n, c, sem)
                for p in _places(job)]

    ab = ("a", "b")
    alt, aa, no_aa = (_formula(f) for f in ("alternating-ab", "consecutive-aa",
                                              "no-consecutive-aa"))
    places = per_place("synth total-order b=2 c=2 cau", ab, 2, 2, "cau")
    assert len(places) == 5
    assert all(_chains(ab, n, _formula("total-order")) <= beh for beh in places)

    beh = set.intersection(*per_place("contract alternating-ab/consecutive-aa b=2 c=1 ex",
                                      ab, 2, 1, "ex"))
    assert _chains(ab, n, alt) <= beh and not (_chains(ab, n, aa) & beh)

    beh = set.intersection(*per_place("repair noisy b=2 c=1 ex", ab, 2, 1, "ex"))
    assert _chains(ab, n, alt) & _behavior(_net("noisy"), n, 1, "ex") <= beh
    assert beh <= _chains(ab, n, no_aa)

    beh = set.intersection(*per_place("safest N0 total-order b=1 c=2 ex", ("t1", "t2"), 1, 2,
                                      "ex"))
    n0 = _behavior(_net("N0"), n, 2, "ex")
    assert n0 & _chains(("t1", "t2"), n, _formula("total-order")) <= beh <= n0


# -- BENCHMARK.json -----------------------------------------------------------------------

def test_benchmark_json_names_what_the_runs_print():
    spec = json.loads((CHECKOUT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [m["name"] for m in spec["per_layer"]] == run.per_layer_names()
    assert all(m["unit"] == run.unit_of(m["name"]) for m in spec["per_layer"])


def test_missing_sources_fail_without_a_result(tmp_path):
    out = subprocess.run([sys.executable, str(Path(run.__file__)), "--workload", "verify",
                          "--seed", "1", "--seconds", "1"], cwd=tmp_path,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode != 0 and '"correct"' not in out.stdout
