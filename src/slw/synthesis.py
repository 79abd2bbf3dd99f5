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
semantics containment is one walk against the net's token game, and
`separate` tests disjointness by one walk of the forbidden language against
that game, stopping at the first word both accept. No procedure builds the
behavior of a net it synthesizes, and `verify` and `synth_from_contract`
build no product: a product is built only where it is an output (the targets
of `safest` and `repair`).
"""

from __future__ import annotations

import itertools
from typing import Optional, Sequence

# `includes` is unused here, but the benchmark tracer wraps slw.synthesis.includes by name
from .automata import (SliceAutomaton, _require_same_alphabet, _walk, common_word,
                       counterexample, includes, intersect, letter_base)
from .compiler import po_automaton
from .config import DEFAULT_CONFIG, InputError, PreconditionError, ResourceError, RunConfig
from .constructions import poset_complement
from .dag import LabeledPoset
from .mso import Formula, evaluate_po
from .netaut import net_automaton, token_game
from .ptnet import PtNet, Place, causal_orders, executions
from .slices import UnitDecomposition, compose, unit_alphabet


class SynthesisSpec:
    """A target poset language plus the resource bounds of the net to build;
    the width c and the labels are the automaton's."""

    def __init__(self, automaton: SliceAutomaton, b: int, r: int, sem: str):
        self.automaton = automaton
        self.c = automaton.c
        self.b = b
        self.r = r
        self.sem = sem
        self.labels = automaton.labels
        if self.sem not in ("ex", "cau"):
            raise InputError("sem must be 'ex' or 'cau'")
        if self.b < 1 or self.r < 1:
            raise InputError("bounds b, r must be >= 1")
        if self.automaton.alphabet != unit_alphabet(self.c, self.labels):
            raise InputError("specification automaton must be over the declared (c, T)")
        if self.automaton.saturated is not True or self.automaton.transitively_reduced is not True:
            raise PreconditionError(
                "synthesis needs a saturated, transitively reduced specification automaton")


class VerificationReport:
    """The witnesses of a verify run, keyed "common", "net-minus-spec" and
    "spec-minus-net"; each verdict holds when its witness is absent."""

    def __init__(self, counterexamples: Optional[dict] = None):
        self.counterexamples = {} if counterexamples is None else counterexamples

    disjoint = property(lambda self: "common" not in self.counterexamples)
    net_subset_of_spec = property(lambda self: "net-minus-spec" not in self.counterexamples)
    spec_subset_of_net = property(lambda self: "spec-minus-net" not in self.counterexamples)

    def to_text(self) -> str:
        lines = ["slw-report v1", "tool verify",
                 f"disjoint {str(self.disjoint).lower()}",
                 f"net-subset-of-spec {str(self.net_subset_of_spec).lower()}",
                 f"spec-subset-of-net {str(self.spec_subset_of_net).lower()}"]
        for which in sorted(self.counterexamples):
            lines.append(f"counterexample {which}")
            for ln in self.counterexamples[which].as_dag().to_text().splitlines():
                lines.append("  " + ln)
        return "\n".join(lines) + "\n"


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
    return _walk(spec.automaton, start, step, is_final, config, name=name) is None


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
    language then no solution exists at all. Disjointness is one walk of the
    forbidden automaton against the net's token game, which is played only
    as far as the walk reads it and never built as an automaton.
    """
    if forbidden.saturated is not True or forbidden.transitively_reduced is not True:
        raise PreconditionError("the forbidden automaton must be saturated and "
                                "transitively reduced")
    _require_same_alphabet(forbidden, spec.automaton)
    net = synthesize(spec, config, log)
    if net is None:
        return None
    start, step, is_final, _ = token_game(net, spec.c, spec.sem, config)
    clean = _walk(forbidden, start, step, is_final, config, name="disjointness",
                  meets=True) is None
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
    shortest word of one walk; no product or difference automaton is built."""
    labels = tuple(net.transitions)
    spec_aut = po_automaton(phi, c, labels, config)
    net_aut = net_automaton(net, c, sem, config)
    common = common_word(net_aut, spec_aut, config)
    net_minus_spec = counterexample(net_aut, spec_aut, config)
    spec_minus_net = counterexample(spec_aut, net_aut, config)
    report = VerificationReport({which: _witness_poset(word) for which, word in (
        ("common", common), ("net-minus-spec", net_minus_spec),
        ("spec-minus-net", spec_minus_net)) if word is not None})
    if log:
        log.step("behavior and specification disjoint",
                 "syntactic emptiness of product", report.disjoint)
        log.step("behavior within specification",
                 "syntactic inclusion (specification side saturated)", report.net_subset_of_spec)
        log.step("specification within behavior",
                 "syntactic inclusion (behavior side saturated)", report.spec_subset_of_net)
    _oracle_check_report(net, phi, c, sem, report, config)
    return report


def synth_from_mso(phi: Formula, labels: Sequence, b: int, r: int, c: int, sem: str,
                   config: RunConfig = DEFAULT_CONFIG,
                   log: Optional[ProofLog] = None) -> Optional[PtNet]:
    """Minimal (b,r)-bounded net containing every c-partial order satisfying phi."""
    labels = tuple(sorted(labels))  # the order of PtNet.transitions
    spec = SynthesisSpec(po_automaton(phi, c, labels, config), b, r, sem)
    if log:
        log.step("specification automaton from formula",
                 "order-to-graph rewrite + compilation + reduced/coverable product", "built")
    return synthesize(spec, config, log)


def safest_subsystem(net: PtNet, phi: Formula, b: int, r: int, c: int, sem: str,
                     config: RunConfig = DEFAULT_CONFIG,
                     log: Optional[ProofLog] = None) -> Optional[PtNet]:
    """Minimal net for (behavior of net) ∩ (phi) whose behavior stays within
    the original net's behavior: the repair whose allowed language is that
    behavior."""
    return _repair(net, phi, None, b, r, c, sem, config, log)


def repair(net: PtNet, phi: Formula, psi: Formula, b: int, r: int, c: int, sem: str,
           config: RunConfig = DEFAULT_CONFIG,
           log: Optional[ProofLog] = None) -> Optional[PtNet]:
    """Minimal net for (behavior of net) ∩ (phi) whose behavior satisfies psi
    everywhere."""
    return _repair(net, phi, psi, b, r, c, sem, config, log)


def _repair(net: PtNet, keep: Formula, allow: Optional[Formula], b: int, r: int, c: int,
            sem: str, config: RunConfig, log: Optional[ProofLog]) -> Optional[PtNet]:
    """Separate (behavior of net) ∩ (keep) from the posets outside the allowed
    language: allow's, or the net's own behavior when allow is None. The
    target is built first, so a state cap that bites on both stops there."""
    labels = tuple(net.transitions)
    behavior = net_automaton(net, c, sem, config)
    target = intersect(po_automaton(keep, c, labels, config), behavior, config)
    allowed = behavior if allow is None else po_automaton(allow, c, labels, config)
    forbidden = poset_complement(allowed, config)
    if log:
        log.step("target language", "product of keep-formula and behavior automata", "built")
        log.step("forbidden language", "poset complement of the allowed-language automaton",
                 "built")
    spec = SynthesisSpec(target, b, r, sem)
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
    overlap = common_word(yes_aut, no_aut, config)
    if overlap is not None:
        raise PreconditionError(
            "contract overlap: the good and bad languages share a poset:\n"
            + _witness_poset(overlap).as_dag().to_text().rstrip("\n"))
    if log:
        log.step("contract languages disjoint",
                 "syntactic disjointness of saturated reduced automata", True)
    spec = SynthesisSpec(yes_aut, b, r, sem)
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
