"""Region-based synthesis and the five top-level decision procedures.

A candidate place is feasible for a specification automaton when the behavior
of the single-place probe net includes the specified language. The check is
one walk of the specification automaton against the probe's token game: the
probe is explored only as far as the walk reads it, never built as an
automaton, and the walk stops at the first specified word the probe rejects.
The synthesized net is the union of all feasible places (with full
multiplicity under the causal semantics, where repetition can enlarge
behavior). Under the execution semantics a net behaves as the intersection of
its places' behaviors, so it is minimal (any competitor's places are feasible)
and contains the specification (each of its places does). Under the causal
semantics containment is one walk against the net's token game. Only
`separate` builds the returned net's behavior, once, to test disjointness.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional, Sequence

# `includes` is unused here, but the benchmark tracer wraps slw.synthesis.includes by name
from .automata import (SliceAutomaton, _included, counterexample, disjoint, includes,
                       intersect, letter_base)
from .compiler import po_automaton
from .config import DEFAULT_CONFIG, InputError, PreconditionError, ResourceError, RunConfig
from .constructions import poset_complement
from .dag import LabeledPoset
from .mso import Formula, evaluate_po
from .netaut import net_automaton, token_game
from .ptnet import PtNet, Place, causal_orders, executions
from .slices import UnitDecomposition, compose, unit_alphabet


@dataclass(frozen=True)
class SynthesisSpec:
    """A target poset language plus the resource bounds of the net to build."""
    automaton: SliceAutomaton
    c: int
    b: int
    r: int
    sem: str
    labels: tuple

    def __post_init__(self):
        if self.sem not in ("ex", "cau"):
            raise InputError("sem must be 'ex' or 'cau'")
        if self.b < 1 or self.r < 1 or self.c < 1:
            raise InputError("bounds b, r, c must be >= 1")
        if self.automaton.c != self.c or tuple(self.automaton.labels) != self.labels \
                or self.automaton.alphabet != unit_alphabet(self.c, self.labels):
            raise InputError("specification automaton must be over the declared (c, T)")
        if self.automaton.saturated is not True or self.automaton.transitively_reduced is not True:
            raise PreconditionError(
                "synthesis needs a saturated, transitively reduced specification automaton")


@dataclass
class VerificationReport:
    disjoint: bool
    net_subset_of_spec: bool
    spec_subset_of_net: bool
    counterexamples: dict = field(default_factory=dict)

    def to_text(self) -> str:
        lines = ["slw-report v1", "tool verify",
                 f"disjoint {str(self.disjoint).lower()}",
                 f"net-subset-of-spec {str(self.net_subset_of_spec).lower()}",
                 f"spec-subset-of-net {str(self.spec_subset_of_net).lower()}"]
        for which in sorted(self.counterexamples):
            lines.append(f"counterexample {which}")
            for ln in _poset_text(self.counterexamples[which]).splitlines():
                lines.append("  " + ln)
        return "\n".join(lines) + "\n"


def _poset_text(po: LabeledPoset) -> str:
    lines = [f"vertex {v} {po.labels[v]}" for v in sorted(po.labels)]
    lines += [f"edge {u} {v}" for u, v in sorted(po.order)]
    return "\n".join(lines)


class ProofLog:
    """Machine-readable record of which reduction justified each step."""

    def __init__(self):
        self.steps: list[tuple] = []

    def step(self, claim: str, method: str, result):
        self.steps.append((claim, method, result))

    def to_text(self) -> str:
        lines = ["slw-proof v1"]
        for i, (claim, method, result) in enumerate(self.steps, 1):
            lines.append(f"step {i} {claim} = {result} [{method}]")
        return "\n".join(lines) + "\n"


# -- feasible places ------------------------------------------------------------------


def candidate_places(labels: Sequence, b: int):
    """All places with initial tokens and per-transition flows bounded by b."""
    labels = tuple(labels)
    rng = range(b + 1)
    for vals in itertools.product(rng, repeat=1 + 2 * len(labels)):
        tokens = vals[0]
        takes = dict(zip(labels, vals[1: 1 + len(labels)]))
        puts = dict(zip(labels, vals[1 + len(labels):]))
        yield Place(tokens, puts=puts, takes=takes)


def feasible_place(place: Place, spec: SynthesisSpec,
                   config: RunConfig = DEFAULT_CONFIG) -> bool:
    """True iff the single-place probe net admits every specified behavior.

    The specification automaton is walked against the probe's token game,
    which is played only on the states the walk reads and never built as an
    automaton; the walk stops at the first specified word the probe rejects.
    """
    probe = PtNet(spec.labels, [place], bound=spec.b, name="probe", check_transitions=False)
    return _admits(probe, spec, config, "probe inclusion")


def _admits(net: PtNet, spec: SynthesisSpec, config: RunConfig, name: str) -> bool:
    """True iff one walk of the spec against the net's token game finds no rejected word."""
    start, step, is_final, _ = token_game(net, spec.c, spec.sem, config)
    return _included(spec.automaton, start, step, is_final, config, name=name) is None


# -- net synthesis (minimal containment) ------------------------------------------------


def synthesize(spec: SynthesisSpec, config: RunConfig = DEFAULT_CONFIG,
               log: Optional[ProofLog] = None) -> Optional[PtNet]:
    """The most constrained (b,r)-bounded net whose behavior contains the
    specified poset language, or None when no such net exists.

    Under the execution semantics the result is minimal: every place of any
    containing net is individually feasible, and the execution behavior of a
    union of places is the intersection of their single-place behaviors, so
    containment follows from the probes. Under the causal semantics it is one
    walk against the net's token game; no behavior automaton is built.
    """
    count = (spec.b + 1) ** (1 + 2 * len(spec.labels))
    if count > config.max_states:
        raise ResourceError(f"too many candidate places: {count}",
                            context=f"max_states={config.max_states}")
    feasible = [p for p in candidate_places(spec.labels, spec.b)
                if feasible_place(p, spec, config)]
    if log:
        log.step("feasible-place count", "single-place probe inclusion", len(feasible))
    for t in spec.labels:
        if not any(p.put(t) > 0 for p in feasible) \
                or not any(p.take(t) > 0 for p in feasible):
            if log:
                log.step(f"transition {t} has feasible input and output places",
                         "region enumeration", False)
            return None
    copies = 1 if spec.sem == "ex" else spec.r
    places = [p for p in feasible for _ in range(copies)]
    net = PtNet(spec.labels, places, bound=spec.b, name="synthesized")
    contains = spec.sem == "ex" or _admits(net, spec, config, "inclusion")
    if log:
        log.step("specification contained in synthesized behavior",
                 "slice-language inclusion on saturated reduced automata", contains)
    return net if contains else None


def separate(spec: SynthesisSpec, forbidden: SliceAutomaton,
             config: RunConfig = DEFAULT_CONFIG,
             log: Optional[ProofLog] = None) -> Optional[PtNet]:
    """Minimal containing net whose behavior avoids the forbidden language.

    By minimality, if the synthesized net's behavior meets the forbidden
    language then no solution exists at all.
    """
    if forbidden.saturated is not True or forbidden.transitively_reduced is not True:
        raise PreconditionError("the forbidden automaton must be saturated and "
                                "transitively reduced")
    net = synthesize(spec, config, log)
    if net is None:
        return None
    clean = disjoint(net_automaton(net, spec.c, spec.sem, config), forbidden, config)
    if log:
        log.step("synthesized behavior avoids the forbidden language",
                 "syntactic disjointness of saturated reduced automata", clean)
    return net if clean else None


# -- the five top-level procedures -------------------------------------------------------


def verify(net: PtNet, phi: Formula, c: int, sem: str,
           config: RunConfig = DEFAULT_CONFIG,
           log: Optional[ProofLog] = None) -> VerificationReport:
    """Compare a net's c-bounded behavior against an order formula:
    emptiness of intersection and inclusion in both directions, each with a
    minimal oracle-checked counterexample when it fails. Every witness is a
    shortest word of the one inclusion walk; no difference automaton is built."""
    labels = tuple(net.transitions)
    spec_aut = po_automaton(phi, c, labels, config)
    net_aut = net_automaton(net, c, sem, config)
    common = intersect(net_aut, spec_aut, config).shortest_accepted(config)
    net_minus_spec = counterexample(net_aut, spec_aut, config)
    spec_minus_net = counterexample(spec_aut, net_aut, config)
    is_disjoint = common is None
    net_in_spec = net_minus_spec is None
    spec_in_net = spec_minus_net is None
    if log:
        log.step("behavior and specification disjoint",
                 "syntactic emptiness of product", is_disjoint)
        log.step("behavior within specification",
                 "syntactic inclusion (specification side saturated)", net_in_spec)
        log.step("specification within behavior",
                 "syntactic inclusion (behavior side saturated)", spec_in_net)
    report = VerificationReport(is_disjoint, net_in_spec, spec_in_net)
    for which, word in (("common", common), ("net-minus-spec", net_minus_spec),
                        ("spec-minus-net", spec_minus_net)):
        if word is not None:
            report.counterexamples[which] = _witness_poset(word)
    _oracle_check_report(net, phi, c, sem, report, config)
    return report


def synth_from_mso(phi: Formula, labels: Sequence, b: int, r: int, c: int, sem: str,
                   config: RunConfig = DEFAULT_CONFIG,
                   log: Optional[ProofLog] = None) -> Optional[PtNet]:
    """Minimal (b,r)-bounded net containing every c-partial order satisfying phi."""
    labels = tuple(sorted(labels))  # the order of PtNet.transitions
    spec = SynthesisSpec(po_automaton(phi, c, labels, config), c, b, r, sem, labels)
    if log:
        log.step("specification automaton from formula",
                 "order-to-graph rewrite + compilation + reduced/coverable product", "built")
    return synthesize(spec, config, log)


def safest_subsystem(net: PtNet, phi: Formula, b: int, r: int, c: int, sem: str,
                     config: RunConfig = DEFAULT_CONFIG,
                     log: Optional[ProofLog] = None) -> Optional[PtNet]:
    """Minimal net for (behavior of net) ∩ (phi) whose behavior stays within
    the original net's behavior."""
    labels = tuple(net.transitions)
    net_aut = net_automaton(net, c, sem, config)
    target = intersect(po_automaton(phi, c, labels, config), net_aut, config)
    forbidden = poset_complement(net_aut, config)
    if log:
        log.step("target language", "product of formula and behavior automata", "built")
        log.step("forbidden language", "poset complement of the behavior automaton", "built")
    spec = SynthesisSpec(target, c, b, r, sem, labels)
    return separate(spec, forbidden, config, log)


def repair(net: PtNet, phi: Formula, psi: Formula, b: int, r: int, c: int, sem: str,
           config: RunConfig = DEFAULT_CONFIG,
           log: Optional[ProofLog] = None) -> Optional[PtNet]:
    """Minimal net for (behavior of net) ∩ (phi) whose behavior satisfies psi
    everywhere."""
    labels = tuple(net.transitions)
    net_aut = net_automaton(net, c, sem, config)
    target = intersect(po_automaton(phi, c, labels, config), net_aut, config)
    forbidden = poset_complement(po_automaton(psi, c, labels, config), config)
    if log:
        log.step("target language", "product of keep-formula and behavior automata", "built")
        log.step("forbidden language", "poset complement of the allow-formula automaton",
                 "built")
    spec = SynthesisSpec(target, c, b, r, sem, labels)
    return separate(spec, forbidden, config, log)


def synth_from_contract(phi_yes: Formula, phi_no: Formula, labels: Sequence,
                        b: int, r: int, c: int, sem: str,
                        config: RunConfig = DEFAULT_CONFIG,
                        log: Optional[ProofLog] = None) -> Optional[PtNet]:
    """Minimal net containing every phi_yes order and no phi_no order.

    The contract hypothesis (the two languages are disjoint) is checked first
    and rejected with a witness poset when violated."""
    labels = tuple(sorted(labels))  # the order of PtNet.transitions
    yes_aut = po_automaton(phi_yes, c, labels, config)
    no_aut = po_automaton(phi_no, c, labels, config)
    overlap = intersect(yes_aut, no_aut, config).shortest_accepted(config)
    if overlap is not None:
        raise PreconditionError(
            "contract overlap: the good and bad languages share a poset:\n"
            + _poset_text(_witness_poset(overlap)))
    if log:
        log.step("contract languages disjoint",
                 "syntactic disjointness of saturated reduced automata", True)
    spec = SynthesisSpec(yes_aut, c, b, r, sem, labels)
    return separate(spec, no_aut, config, log)


# -- counterexample handling -------------------------------------------------------------


def _witness_poset(word: tuple) -> LabeledPoset:
    u = UnitDecomposition(tuple(letter_base(s) for s in word))
    return compose(u).transitive_closure()


def _oracle_check_report(net: PtNet, phi: Formula, c: int, sem: str,
                         report: VerificationReport, config: RunConfig):
    """Re-verify each emitted counterexample with the brute-force oracles."""
    oracle_fn = executions if sem == "ex" else causal_orders
    for which, po in report.counterexamples.items():
        in_spec = evaluate_po(po, phi, config=config)
        keys = {o.canonical_key() for o in oracle_fn(net, po.n_vertices(), c, config)}
        in_net = po.canonical_key() in keys
        expected = {"common": (True, True),
                    "net-minus-spec": (False, True),
                    "spec-minus-net": (True, False)}[which]
        if (in_spec, in_net) != expected:
            raise AssertionError(
                f"counterexample {which} failed oracle re-verification: "
                f"in_spec={in_spec}, in_net={in_net}")
