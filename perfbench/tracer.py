"""Span tracing of the slw layers, installed from outside the program.

`install` wraps the public functions listed in TARGETS. A module-level
function is replaced in every `slw.*` namespace that bound it, including
modules that imported it by name; a `SliceAutomaton` method is replaced on
the class. Each call records a span (name, start, end, parent) and, where the
call returns an automaton, its |Σ|, |Q| and |T|. Spans stay in memory until
`dump` writes them at exit.

The analysis half (`self_times`, `job_stats`, `layer_metrics`) runs in the
benchmark's parent process and never imports slw.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict

# layer -> (module, public functions and SliceAutomaton methods to wrap)
TARGETS = {
    "cli": ("slw.cli", ["main"]),
    "mso": ("slw.mso", ["parse", "evaluate_po", "evaluate_dag", "to_graph_formula",
                        "expand_builtins"]),
    "compiler": ("slw.compiler", ["compile_formula", "po_automaton", "well_formed",
                                  "cylindrify"]),
    "constructions": ("slw.constructions", ["universal_automaton", "reduced_automaton",
                                            "coverable_automaton", "poset_complement",
                                            "transitive_reduce_automaton",
                                            "check_saturated_upto"]),
    "automata": ("slw.automata", ["intersect", "union", "difference", "includes",
                                  "disjoint", "equivalent",
                                  "SliceAutomaton.trim", "SliceAutomaton.is_empty",
                                  "SliceAutomaton.determinize", "SliceAutomaton.to_text",
                                  "SliceAutomaton.from_text", "SliceAutomaton.validate",
                                  "SliceAutomaton.shortest_accepted",
                                  "SliceAutomaton.po_members_up_to"]),
    "netaut": ("slw.netaut", ["net_automaton"]),
    "ptnet": ("slw.ptnet", ["executions", "causal_orders"]),
    "synthesis": ("slw.synthesis", ["verify", "synth_from_mso", "safest_subsystem", "repair",
                                    "synth_from_contract", "synthesize", "separate",
                                    "feasible_place"]),
}


def _dfa_states(dfa) -> int:
    table = getattr(dfa, "table", None)
    if table is None:
        return 0
    states = {p for p, _ in table}
    states.update(table.values())
    states.add(dfa.start)
    return len(states)


def _measure(automaton_type):
    """Per-span extras: before(args) runs at entry, after(args, out, pre) at exit."""
    def sizes(out):
        if isinstance(out, automaton_type):
            return {"q": len(out.states), "t": len(out.transitions), "s": len(out.alphabet)}
        return None

    def generic(args, out, pre):
        return sizes(out)

    def trim(args, out, pre):
        return dict(sizes(out) or {}, q_in=pre)

    def determinize(args, out, pre):
        return {"hit": 1} if pre else {"hit": 0, "dfa": _dfa_states(out)}

    def boolean(args, out, pre):
        return {"true": 1 if out else 0}

    return {
        "trim": (lambda args: len(args[0].states), trim),
        "determinize": (lambda args: getattr(args[0], "_det", None) is not None, determinize),
        "to_text": (None, lambda args, out, pre: {"bytes": len(out)}),
        "from_text": (None, lambda args, out, pre: dict(sizes(out) or {}, bytes=len(args[0]))),
        "includes": (None, boolean),
        "feasible_place": (None, boolean),
    }, generic


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []   # [name id, start, end, parent index, extras]
        self.stack: list[int] = []
        self.originals: dict[str, object] = {}
        self.missing: list[str] = []

    def wrap(self, fn, name: str, before, after):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        name_id = len(self.names)
        self.names.append(name)
        self.originals[name] = fn

        def traced(*args, **kwargs):
            rec = [name_id, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            pre = before(args) if before else None
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
                rec[4] = after(args, out, pre)
                return out
            finally:
                rec[2] = clock()
                stack.pop()

        return functools.update_wrapper(traced, fn)

    def dump(self, path: str):
        with open(path, "w") as fh:
            json.dump({"names": self.names, "spans": self.spans, "missing": self.missing}, fh)


def install() -> Tracer:
    """Wrap every target in place and return the tracer holding the spans."""
    for module_name, _ in TARGETS.values():
        importlib.import_module(module_name)
    from slw.automata import SliceAutomaton
    modules = [m for name, m in sorted(sys.modules.items())
               if name == "slw" or name.startswith("slw.")]
    special, generic = _measure(SliceAutomaton)
    tracer = Tracer()
    for layer, (module_name, targets) in TARGETS.items():
        module = importlib.import_module(module_name)
        for target in targets:
            owner_name, _, attr = target.rpartition(".")
            before, after = special.get(attr, (None, generic))
            if owner_name:
                owner = getattr(module, owner_name)
                raw = owner.__dict__.get(attr)
                if raw is None:
                    tracer.missing.append(f"{module_name}.{target}")
                    continue
                static = isinstance(raw, staticmethod)
                wrapped = tracer.wrap(raw.__func__ if static else raw,
                                      f"{layer}.{attr}", before, after)
                setattr(owner, attr, staticmethod(wrapped) if static else wrapped)
                continue
            fn = getattr(module, attr, None)
            if fn is None:
                tracer.missing.append(f"{module_name}.{target}")
                continue
            wrapped = tracer.wrap(fn, f"{layer}.{attr}", before, after)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapped)
    return tracer


def run_traced(argv: list, spans_path: str) -> int:
    """Run the CLI under the tracer; the spans are written even if it raises."""
    tracer = install()
    import slw.cli
    try:
        return slw.cli.main(argv)
    finally:
        tracer.dump(spans_path)


# -- analysis (parent process) --------------------------------------------------------


def self_times(spans: list) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            _, pstart, pend, _, _ = spans[parent]
            covered[parent] += max(0.0, min(end, pend) - max(start, pstart))
    return [(end - start) - covered[i] for i, (_, start, end, _, _) in enumerate(spans)]


def job_stats(dump: dict) -> tuple[dict, dict]:
    """Additive statistics and maxima of one traced job."""
    names, spans = dump["names"], dump["spans"]
    selfs = self_times(spans)
    sums: dict = defaultdict(float)
    maxes: dict = defaultdict(float)
    in_compile = [False] * len(spans)
    for i, (ni, start, end, parent, extras) in enumerate(spans):
        name = names[ni]
        layer = name.split(".", 1)[0]
        pname = names[spans[parent][0]] if parent >= 0 else ""
        sums[f"{layer}.self_s"] += selfs[i]
        sums[f"{name}.calls"] += 1
        sums[f"{name}.self_s"] += selfs[i]
        for key, value in (extras or {}).items():
            sums[f"{name}.{key}"] += value
        if parent < 0:
            sums["trace.root_s"] += end - start
        if layer == "ptnet" and not pname.startswith("ptnet."):
            sums["ptnet.oracle.calls"] += 1
        in_compile[i] = name == "compiler.compile_formula" or (parent >= 0 and in_compile[parent])
        if in_compile[i] and extras and "q" in extras:
            for key, metric in (("q", "states"), ("t", "trans"), ("s", "sigma")):
                maxes[f"compiler.peak_{metric}"] = max(maxes[f"compiler.peak_{metric}"],
                                                       extras[key])
        if layer == "compiler" and not pname.startswith("compiler.") and extras:
            sums["compiler.final_states"] += extras.get("q", 0)
            sums["compiler.final_trans"] += extras.get("t", 0)
        if name == "constructions.universal_automaton" and extras:
            maxes["constructions.universal_automaton.states"] = max(
                maxes["constructions.universal_automaton.states"], extras["q"])
            maxes["constructions.universal_automaton.trans"] = max(
                maxes["constructions.universal_automaton.trans"], extras["t"])
    maxes["trace.self_sum_error_s"] = abs(sum(selfs) - sums["trace.root_s"])
    return dict(sums), dict(maxes)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(sums: dict, maxes: dict) -> dict:
    """The per-layer metrics from a workload's summed statistics and maxima."""
    s = defaultdict(float, sums)
    m = {
        "cli.self_s": s["cli.self_s"],
        "mso.self_s": s["mso.self_s"],
        "mso.parse.self_s": s["mso.parse.self_s"],
        "mso.evaluate_po.calls": s["mso.evaluate_po.calls"],
        "mso.evaluate_po.self_s": s["mso.evaluate_po.self_s"],
        "compiler.self_s": s["compiler.self_s"],
        "compiler.compile_formula.calls": s["compiler.compile_formula.calls"],
        "compiler.well_formed.calls": s["compiler.well_formed.calls"],
        "compiler.final_states": s["compiler.final_states"],
        "compiler.final_trans": s["compiler.final_trans"],
        "constructions.self_s": s["constructions.self_s"],
        "constructions.universal_automaton.calls": s["constructions.universal_automaton.calls"],
        "constructions.universal_automaton.self_s":
            s["constructions.universal_automaton.self_s"],
        "constructions.poset_complement.calls": s["constructions.poset_complement.calls"],
        "constructions.poset_complement.self_s": s["constructions.poset_complement.self_s"],
        "automata.self_s": s["automata.self_s"],
        "automata.trim.calls": s["automata.trim.calls"],
        "automata.trim.self_s": s["automata.trim.self_s"],
        "automata.trim.kept_ratio": _ratio(s["automata.trim.q"], s["automata.trim.q_in"]),
        "automata.intersect.calls": s["automata.intersect.calls"],
        "automata.intersect.self_s": s["automata.intersect.self_s"],
        "automata.intersect.out_states": s["automata.intersect.q"],
        "automata.intersect.out_trans": s["automata.intersect.t"],
        "automata.difference.calls": s["automata.difference.calls"],
        "automata.difference.self_s": s["automata.difference.self_s"],
        "automata.difference.out_states": s["automata.difference.q"],
        "automata.union.calls": s["automata.union.calls"],
        "automata.union.self_s": s["automata.union.self_s"],
        "automata.determinize.calls": s["automata.determinize.calls"],
        "automata.determinize.self_s": s["automata.determinize.self_s"],
        "automata.determinize.dfa_states": s["automata.determinize.dfa"],
        "automata.determinize.memo_hit_ratio": _ratio(s["automata.determinize.hit"],
                                                      s["automata.determinize.calls"]),
        "automata.includes.calls": s["automata.includes.calls"],
        "automata.includes.self_s": s["automata.includes.self_s"],
        "automata.includes.true_ratio": _ratio(s["automata.includes.true"],
                                               s["automata.includes.calls"]),
        "automata.io.self_s": s["automata.to_text.self_s"] + s["automata.from_text.self_s"]
                              + s["automata.validate.self_s"],
        "automata.io.bytes": s["automata.to_text.bytes"] + s["automata.from_text.bytes"],
        "netaut.net_automaton.calls": s["netaut.net_automaton.calls"],
        "netaut.net_automaton.self_s": s["netaut.net_automaton.self_s"],
        "netaut.net_automaton.states": s["netaut.net_automaton.q"],
        "netaut.net_automaton.trans": s["netaut.net_automaton.t"],
        "ptnet.oracle.calls": s["ptnet.oracle.calls"],
        "ptnet.oracle.self_s": s["ptnet.self_s"],
        "synthesis.self_s": s["synthesis.self_s"],
        "synthesis.feasible_place.calls": s["synthesis.feasible_place.calls"],
        "synthesis.feasible_ratio": _ratio(s["synthesis.feasible_place.true"],
                                           s["synthesis.feasible_place.calls"]),
        "trace.root_s": s["trace.root_s"],
    }
    for key in ("compiler.peak_states", "compiler.peak_trans", "compiler.peak_sigma",
                "constructions.universal_automaton.states",
                "constructions.universal_automaton.trans"):
        m[key] = maxes.get(key, 0.0)
    return m

