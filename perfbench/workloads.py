"""The benchmark's workloads: input files, job lists and known answers.

Every job is one `slw` command line. A workload is a list of stages; the jobs
of a stage only read files written by earlier stages, so the seed may permute
the jobs inside each stage freely. The seed also renames the transition labels
(one mapping per run, used by every net, formula and alphabet argument) and
shuffles the place order of every net. None of this changes a known answer.

Argument templates refer to files with a sigil:
  @name   an input file written by `write_inputs` (a net or a formula)
  &name   a file in the current pass directory, written by an earlier stage
  %a,b    a comma-separated alphabet of canonical labels, renamed per run
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent

# The fixture nets N0-N3 of the test suite and the "noisy" net of the
# end-to-end repair scenario: (bound, transitions, places), each place being
# (name, initial tokens, takes, puts).
NETS = {
    "N0": (1, ("t1", "t2"), [("p1", 1, {"t1": 1}, {"t1": 1}),
                             ("p2", 1, {"t2": 1}, {"t2": 1})]),
    "N1": (1, ("a", "b"), [("p1", 1, {"a": 1}, {"b": 1}),
                           ("p2", 0, {"b": 1}, {"a": 1})]),
    "N2": (2, ("a", "b"), [("p1", 2, {"a": 1}, {"b": 1}),
                           ("p2", 0, {"b": 1}, {"a": 1})]),
    "N3": (1, ("a", "b", "c"), [("pa", 1, {"a": 1}, {}),
                                ("pb", 0, {"b": 1}, {"a": 1, "b": 1}),
                                ("pc", 0, {"c": 1}, {"a": 1, "c": 1})]),
    "noisy": (1, ("a", "b"), [("pa", 1, {"a": 1}, {}),
                              ("pout", 0, {}, {"a": 1}),
                              ("pb", 1, {"b": 1}, {"b": 1})]),
}

# Order formulas of the corpus, with labels as `{a}` placeholders.
_COVER = "(x<y & !(EX z. (x<z & z<y)))"
_MIN_X = "(!(EX z. z<x))"
_TOTAL = "ALL x. ALL y. (x<y | y<x | x=y)"
_CONSECUTIVE_AA = f"{_TOTAL} & (EX x. EX y. ({_COVER} & l(x,{{a}}) & l(y,{{a}})))"
FORMULAS = {
    "total-order": _TOTAL,
    "a-antichain-pair": "EX x. EX y. (l(x,{a}) & l(y,{a}) & !(x<y) & !(y<x) & !(x=y))",
    "alternating-ab": (
        f"{_TOTAL}"
        f" & (ALL x. ({_MIN_X} -> l(x,{{a}})))"
        f" & (ALL x. ALL y. ({_COVER} -> ((l(x,{{a}}) & l(y,{{b}})) | (l(x,{{b}}) & l(y,{{a}})))))"
    ),
    "consecutive-aa": _CONSECUTIVE_AA,
    "no-consecutive-aa": f"!({_CONSECUTIVE_AA})",
}


@dataclass(frozen=True)
class Job:
    """One CLI invocation and the answer it must give."""
    name: str
    kind: str        # verify | net | aut-bool | aut-write | members
    argv: tuple      # argument template (see the module docstring)
    exit: int
    expect: dict     # kind-specific known answer


def _verify(net, formula, c, sem, exit_code):
    return Job(f"verify {net} {formula} c={c} {sem}", "verify",
               ("--output", "structured", "verify", "--net", f"@{net}",
                "--mso", f"@{formula}", "--c", str(c), "--sem", sem),
               exit_code, {"net": net, "formula": formula, "c": c, "sem": sem})


def _net_job(name, argv):
    return Job(name, "net", tuple(argv), 0, {})


WORKLOADS = {
    # Compiler-bound: order formulas compiled to slice automata, then three
    # inclusion questions and an oracle re-check of each counterexample.
    "verify": [[
        _verify("N1", "alternating-ab", 1, "cau", 0),
        _verify("N1", "total-order", 2, "cau", 0),
        _verify("N2", "consecutive-aa", 1, "ex", 1),
        _verify("N2", "a-antichain-pair", 2, "ex", 1),
        _verify("N3", "total-order", 2, "cau", 1),
        _verify("N0", "total-order", 2, "ex", 1),
    ]],
    # Synthesis-bound: one probe token game and one inclusion per candidate
    # place (243 at b=2 over two labels), specifications that compile fast.
    "synth": [[
        _net_job("synth total-order b=2 c=2 cau",
                 ["synth", "--mso", "@total-order", "--alphabet", "%a,b",
                  "--b", "2", "--c", "2", "--sem", "cau"]),
        _net_job("contract alternating-ab/consecutive-aa b=2 c=1 ex",
                 ["contract", "--yes", "@alternating-ab", "--no", "@consecutive-aa",
                  "--alphabet", "%a,b", "--b", "2", "--c", "1", "--sem", "ex"]),
        _net_job("repair noisy b=2 c=1 ex",
                 ["repair", "--net", "@noisy", "--keep", "@alternating-ab",
                  "--allow", "@no-consecutive-aa", "--b", "2", "--c", "1", "--sem", "ex"]),
        _net_job("safest N0 total-order b=1 c=2 ex",
                 ["safest", "--net", "@N0", "--mso", "@total-order",
                  "--b", "1", "--c", "2", "--sem", "ex"]),
    ]],
    # Automaton-bound, no formulas: behavior automata written as text, read
    # back for products, determinization, emptiness and member enumeration.
    "behavior": [
        [Job(f"net-automaton {n} c=3 {sem}", "aut-write",
             ("net-automaton", "--net", f"@{n}", "--c", "3", "--sem", sem, "-o", f"&{n}.aut"),
             0, {"out": f"{n}.aut"})
         for n, sem in (("N0", "ex"), ("N1", "ex"), ("N2", "ex"), ("N3", "cau"))],
        [Job("aut includes N1 N2", "aut-bool", ("aut", "includes", "&N1.aut", "&N2.aut"),
             0, {"stdout": "true"}),
         Job("aut includes N2 N1", "aut-bool", ("aut", "includes", "&N2.aut", "&N1.aut"),
             1, {"stdout": "false"}),
         Job("aut intersect N1 N2", "aut-write",
             ("aut", "intersect", "&N1.aut", "&N2.aut", "-o", "&N12.aut"),
             0, {"out": "N12.aut"}),
         Job("aut members N0 n=3", "members", ("aut", "members", "&N0.aut", "--n", "3"),
             0, {"net": "N0", "n": 3, "c": 3, "sem": "ex"}),
         Job("aut members N3 n=3", "members", ("aut", "members", "&N3.aut", "--n", "3"),
             0, {"net": "N3", "n": 3, "c": 3, "sem": "cau"})],
        # N1 is contained in N2, so their product has N1's behavior.
        [Job("aut empty N1&N2", "aut-bool", ("aut", "empty", "&N12.aut"),
             1, {"stdout": "false"}),
         Job("aut members N1&N2 n=4", "members", ("aut", "members", "&N12.aut", "--n", "4"),
             0, {"net": "N1", "n": 4, "c": 3, "sem": "ex"})],
    ],
}

# Known answers frozen from the seed commit by freeze.py: the synthesized
# places of each synthesis job, and the verdicts (disjoint, net within spec,
# spec within net) and counterexample sizes of each verify job.
_EXPECTED_FILE = HERE / "expected.json"
EXPECTED = json.loads(_EXPECTED_FILE.read_text()) if _EXPECTED_FILE.exists() \
    else {"places": {}, "verify": {}}

_CANONICAL_LABELS = ("a", "b", "c", "t1", "t2")


def label_map(seed: int) -> dict:
    """Canonical label -> fresh name of fixed length, the same for every job.

    The renaming keeps the labels' sort order. Letters and alphabets are
    ordered by label, so this keeps the order of the work as well; and
    `slw synth --alphabet` with an unsorted alphabet exits with code 3 at the
    seed commit, because `PtNet` sorts its transitions."""
    rng = random.Random(f"labels-{seed}")
    names = []
    # No i, l, o, r or t: no name can spell a formula keyword such as `rho`.
    while len(names) < len(_CANONICAL_LABELS):
        name = rng.choice("abcdefghjkmnpqsuvw") + "".join(
            rng.choice("abcdefghjkmnpqsuvw0123456789") for _ in range(2))
        if name not in names:
            names.append(name)
    return dict(zip(_CANONICAL_LABELS, sorted(names)))


def net_text(name: str, labels: dict, rng: random.Random) -> str:
    bound, transitions, places = NETS[name]
    places = list(places)
    rng.shuffle(places)
    lines = [f"net {name} bound={bound}",
             "transitions " + " ".join(labels[t] for t in transitions)]
    for pname, init, takes, puts in places:
        parts = ["place", pname, f"init={init}"]
        parts += [f"take({labels[t]})={n}" for t, n in takes.items()]
        parts += [f"put({labels[t]})={n}" for t, n in puts.items()]
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def formula_text(name: str, labels: dict) -> str:
    return FORMULAS[name].format(**labels) + "\n"


def write_inputs(directory: Path, seed: int) -> dict:
    """Write every net and formula file; return name -> path."""
    labels = label_map(seed)
    rng = random.Random(f"places-{seed}")
    paths = {}
    for name in NETS:
        paths[name] = directory / f"{name}.net"
        paths[name].write_text(net_text(name, labels, rng))
    for name in FORMULAS:
        paths[name] = directory / f"{name}.mso"
        paths[name].write_text(formula_text(name, labels))
    return paths


def job_order(workload: str, seed: int) -> list:
    """The workload's jobs, permuted by the seed inside each stage."""
    rng = random.Random(f"order-{workload}-{seed}")
    jobs = []
    for stage in WORKLOADS[workload]:
        stage = list(stage)
        rng.shuffle(stage)
        jobs.extend(stage)
    return jobs


def hash_seed(seed: int) -> str:
    return str(random.Random(f"hash-{seed}").randrange(2**32))


def resolve(argv: tuple, inputs: dict, pass_dir: Path, labels: dict) -> list:
    out = []
    for arg in argv:
        if arg.startswith("@"):
            out.append(str(inputs[arg[1:]]))
        elif arg.startswith("&"):
            out.append(str(pass_dir / arg[1:]))
        elif arg.startswith("%"):
            out.append(",".join(labels[t] for t in arg[1:].split(",")))
        else:
            out.append(arg)
    return out


# -- checking answers --------------------------------------------------------------


class Checker:
    """Checks one job's output against its known answer and the slw oracles.

    The oracles (`evaluate_po`, `executions`, `causal_orders`) are imported
    from the checkout under test; checks run outside every timed region.
    Results are memoized on (job, output), since repeated passes of a run
    give the same bytes.
    """

    def __init__(self, inputs: dict, labels: dict):
        self.inputs = inputs
        self.back = {v: k for k, v in labels.items()}
        self._memo = {}

    def check(self, job: Job, exit_code: int, stdout: str, stderr: str,
              pass_dir: Path) -> str:
        """'' when the answer is right, else the first problem found."""
        if "Traceback (most recent call last)" in stderr:
            return "traceback on stderr: " + stderr.strip().splitlines()[-1]
        if exit_code != job.exit:
            return f"exit code {exit_code}, expected {job.exit}: {stderr.strip()[-200:]}"
        if job.kind == "aut-write":
            out = pass_dir / job.expect["out"]
            if not out.is_file() or not out.read_text().startswith("slice-automaton"):
                return f"no automaton written to {out.name}"
            return ""
        key = (job.name, stdout)
        if key not in self._memo:
            check = getattr(self, "_check_" + job.kind.replace("-", "_"))
            try:
                self._memo[key] = check(job, stdout)
            except Exception as err:  # any output the checks cannot read is wrong
                self._memo[key] = f"unreadable output ({type(err).__name__}: {err})"
        return self._memo[key]

    def _check_aut_bool(self, job, stdout):
        got = stdout.strip()
        return "" if got == job.expect["stdout"] else f"printed {got!r}"

    def _check_net(self, job, stdout):
        got = net_places(stdout, self.back)
        want = EXPECTED["places"][job.name]
        if got != want:
            return f"{len(got)} places, expected {len(want)}; first difference " \
                   f"{sorted(set(got) ^ set(want))[:1]}"
        return ""

    def _oracle(self, net_name, n, c, sem):
        from slw.ptnet import PtNet, causal_orders, executions
        net = PtNet.from_text(self.inputs[net_name].read_text())
        fn = executions if sem == "ex" else causal_orders
        return {o.canonical_key() for o in fn(net, n, c)}

    def _check_members(self, job, stdout):
        from slw.dag import LabeledPoset
        got = set()
        for line in stdout.splitlines():
            m = re.fullmatch(r"poset vertices=(\d+) labels=(\S*) order=(\S*)", line.strip())
            if not m:
                return f"unexpected members line {line!r}"
            order = [tuple(int(v) for v in pair.split("<"))
                     for pair in m.group(3).split(";") if pair]
            got.add(LabeledPoset(dict(enumerate(m.group(2).split(","))), order).canonical_key())
        e = job.expect
        want = self._oracle(e["net"], e["n"], e["c"], e["sem"])
        return "" if got == want else \
            f"{len(got)} members, oracle has {len(want)} ({len(got ^ want)} differ)"

    def _check_verify(self, job, stdout):
        from slw.dag import LabeledPoset
        from slw.mso import evaluate_po, parse
        verdict, cexes = parse_verify(stdout)
        want = EXPECTED["verify"][job.name]
        if verdict != want["verdict"]:
            return f"verdict {verdict}, expected {want['verdict']}"
        sizes = {which: len(labels) for which, (labels, _) in cexes.items()}
        if sizes != want["counterexamples"]:
            return f"counterexample sizes {sizes}, expected {want['counterexamples']}"
        e = job.expect
        phi = parse(self.inputs[e["formula"]].read_text().strip())
        expected = {"common": (True, True), "net-minus-spec": (False, True),
                    "spec-minus-net": (True, False)}
        for which, (labels, order) in cexes.items():
            po = LabeledPoset(labels, order)
            in_net = po.canonical_key() in self._oracle(e["net"], len(labels), e["c"], e["sem"])
            if (evaluate_po(po, phi), in_net) != expected[which]:
                return f"counterexample {which} fails the oracle"
        return ""


def net_places(net_text: str, back: dict) -> list[str]:
    """The places of a net file as sorted keys over the canonical labels."""
    from slw.ptnet import PtNet

    def flows(d):
        return ",".join(f"{back[t]}:{n}" for t, n in sorted(d.items(), key=lambda kv: back[kv[0]])
                        if n)
    return sorted(f"init={p.tokens} take={flows(p.takes)} put={flows(p.puts)}"
                  for p in PtNet.from_text(net_text).places)


def parse_verify(stdout: str) -> tuple[list, dict]:
    """[disjoint, net within spec, spec within net] and the counterexamples,
    each as (labels by vertex, order pairs), of a structured verify report."""
    verdict, cexes, current = {}, {}, None
    for line in stdout.splitlines()[2:]:
        parts = line.split()
        if line.startswith("  ") and current is not None:
            labels, order = cexes[current]
            if parts[0] == "vertex":
                labels[int(parts[1])] = parts[2]
            else:
                order.append((int(parts[1]), int(parts[2])))
        elif parts[0] == "counterexample":
            current = parts[1]
            cexes[current] = ({}, [])
        else:
            verdict[parts[0]] = parts[1] == "true"
    return [verdict.get(k) for k in ("disjoint", "net-subset-of-spec", "spec-subset-of-net")], cexes
