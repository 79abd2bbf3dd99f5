"""Feasible places, synthesis, separation, and the five procedures."""

import hashlib

import pytest

from slw import netaut, synthesis
from slw.automata import SliceAutomaton, difference, includes, intersect
from slw.config import InputError, PreconditionError
from slw.constructions import poset_complement
from slw.dag import LabeledPoset
from slw.mso import Truth, parse
from slw.netaut import net_automaton
from slw.ptnet import Place, PtNet, causal_orders, executions
from slw.synthesis import (ProofLog, SynthesisSpec, VerificationReport, candidate_places,
                           feasible_place, repair, safest_subsystem, separate,
                           synth_from_contract, synth_from_mso, synthesize, verify)

from conftest import cached_net_automaton, cached_po_automaton, make_fixture_nets, poset_keys
from slw import corpus

TA = ("a",)
TAB = ("a", "b")


def chains_spec():
    aut = cached_po_automaton(corpus.TOTAL_ORDER, 1, TA)
    return SynthesisSpec(aut, 1, 1, "ex")


class TestFeasiblePlaces:
    def test_self_loop_feasible_for_chains(self):
        assert feasible_place(Place(1, puts={"a": 1}, takes={"a": 1}), chains_spec())

    def test_empty_blocking_place_infeasible(self):
        assert not feasible_place(Place(0, takes={"a": 1}), chains_spec())

    def test_alternator_place_feasible(self, nets):
        spec = SynthesisSpec(cached_net_automaton("N1", 1, "ex"), 1, 1, "ex")
        assert feasible_place(Place(0, puts={"a": 1}, takes={"b": 1}), spec)

    def test_candidate_count(self):
        assert len(list(candidate_places(TAB, 1))) == 2 ** 5


def built_probe_feasible(place, spec):
    """The reference probe check: build the probe's behavior automaton and
    test that the difference of the specification and it is empty."""
    probe = PtNet(spec.labels, [place], bound=spec.b, name="probe", check_transitions=False)
    return difference(spec.automaton, net_automaton(probe, spec.c, spec.sem)).is_empty()


def safest_target_spec(nets):
    """The target of `safest` on N0 and total-order at b=1, c=2, ex."""
    labels = tuple(nets["N0"].transitions)
    target = intersect(cached_po_automaton(corpus.TOTAL_ORDER, 2, labels),
                       cached_net_automaton("N0", 2, "ex"))
    return SynthesisSpec(target, 1, 1, "ex")


class TestProbeWalk:
    @pytest.mark.parametrize("make_spec", [
        lambda nets: chains_spec(),
        lambda nets: SynthesisSpec(cached_po_automaton(corpus.TOTAL_ORDER, 2, TAB), 2, 1, "cau"),
        lambda nets: SynthesisSpec(cached_po_automaton(corpus.ALTERNATING_AB, 1, TAB), 2, 1, "ex"),
        safest_target_spec,
    ], ids=["chains", "total-order-b2-c2-cau", "alternating-ab-b2-c1-ex", "safest-N0"])
    def test_walk_agrees_with_built_probe(self, nets, make_spec):
        spec = make_spec(nets)
        places = list(candidate_places(spec.labels, spec.b))
        walked = [feasible_place(p, spec) for p in places]
        assert walked == [built_probe_feasible(p, spec) for p in places]
        assert any(walked) and not all(walked)

    @staticmethod
    def built_by_synthesis(monkeypatch, spec):
        built = []

        def spy(net, *args):
            built.append(net.name)
            return net_automaton(net, *args)

        monkeypatch.setattr(netaut, "net_automaton", spy)
        monkeypatch.setattr(synthesis, "net_automaton", spy)
        assert synthesize(spec) is not None
        return built

    def test_synthesis_builds_no_probe_automaton(self, monkeypatch):
        spec = SynthesisSpec(cached_po_automaton(corpus.ALTERNATING_AB, 1, TAB), 1, 1, "ex")
        assert self.built_by_synthesis(monkeypatch, spec) == []

    def test_causal_synthesis_builds_no_automaton(self, monkeypatch):
        # the synth benchmark job: containment is walked, not built
        spec = SynthesisSpec(cached_po_automaton(corpus.TOTAL_ORDER, 2, TAB), 2, 1, "cau")
        assert self.built_by_synthesis(monkeypatch, spec) == []

    def test_feasible_place_builds_no_automaton(self, monkeypatch):
        spec = SynthesisSpec(cached_po_automaton(corpus.TOTAL_ORDER, 2, TAB), 1, 1, "cau")
        places = list(candidate_places(spec.labels, spec.b))
        feasible_place(places[0], spec)   # the universal automaton is cached
        built = []
        original = SliceAutomaton.__init__

        def spy(self, *args, **kwargs):
            built.append(self)
            original(self, *args, **kwargs)

        monkeypatch.setattr(SliceAutomaton, "__init__", spy)
        for p in places:
            feasible_place(p, spec)
        assert built == []


class TestSynthesize:
    def test_all_chains(self):
        net = synthesize(chains_spec())
        assert net is not None
        mem = poset_keys(net_automaton(net, 1, "ex").po_members_up_to(4))
        assert mem == poset_keys(chains_spec().automaton.po_members_up_to(4))

    def test_alternator_round_trip(self, nets):
        spec = SynthesisSpec(cached_net_automaton("N1", 1, "ex"), 1, 1, "ex")
        net = synthesize(spec)
        assert net is not None
        assert poset_keys(net_automaton(net, 1, "ex").po_members_up_to(4)) \
            == poset_keys(spec.automaton.po_members_up_to(4))

    def test_empty_specification_gives_maximal_constraint_net(self):
        spec = SynthesisSpec(cached_po_automaton("false", 1, TA), 1, 1, "ex")
        net = synthesize(spec)
        assert net is not None
        assert len(net.places) == len(list(candidate_places(TA, 1)))

    def test_unflagged_spec_rejected(self, nets):
        a = cached_po_automaton("true", 1, TA)
        plain = SliceAutomaton(a.c, a.labels, a.alphabet, a.adj, a.finals)
        with pytest.raises(PreconditionError):
            SynthesisSpec(plain, 1, 1, "ex")

    def test_spec_over_another_alphabet_rejected(self):
        a = cached_po_automaton("true", 1, TA)
        narrow = SliceAutomaton(a.c, a.labels, a.alphabet[:-1], [[]], [],
                                saturated=True, transitively_reduced=True)
        with pytest.raises(InputError, match="declared"):
            SynthesisSpec(narrow, 1, 1, "ex")


def built_containment(spec):
    """The reference containment check: build the behavior of the net of all
    feasible places (each repeated r times under `cau`) and test inclusion.
    None when some transition lacks a feasible input or output place."""
    feasible = [p for p in candidate_places(spec.labels, spec.b) if feasible_place(p, spec)]
    if any(not any(p.put(t) for p in feasible) or not any(p.take(t) for p in feasible)
           for t in spec.labels):
        return None
    copies = 1 if spec.sem == "ex" else spec.r
    net = PtNet(spec.labels, [p for p in feasible for _ in range(copies)],
                bound=spec.b, name="synthesized")
    return includes(spec.automaton, net_automaton(net, spec.c, spec.sem))


class TestContainmentWithoutBuild:
    """Synthesis answers the containment question the built behavior answers."""

    @pytest.mark.parametrize("sem", ["ex", "cau"])
    @pytest.mark.parametrize("b", [1, 2])
    @pytest.mark.parametrize("c", [1, 2])
    @pytest.mark.parametrize("name", sorted(corpus.ORDER_CORPUS))
    def test_agrees_with_built_containment(self, name, c, b, sem):
        spec = SynthesisSpec(cached_po_automaton(corpus.ORDER_CORPUS[name], c, TAB), b, 1, sem)
        contains = built_containment(spec)
        net = synthesize(spec)
        if contains is None:
            assert net is None
            return
        assert (net is not None) == contains
        if sem == "ex":
            assert contains


NOISY = PtNet(TAB, [Place(1, takes={"a": 1}, name="pa"),
                    Place(0, puts={"a": 1}, name="pout"),
                    Place(1, takes={"b": 1}, puts={"b": 1}, name="pb")],
              bound=1, name="noisy")


def separation_case(case, c, b, sem):
    """The (spec, forbidden) pair that `safest`, `repair` or `contract` hands
    to `separate`: safest on N0-N2 and total-order, repair of the noisy net
    (keep alternating-ab, allow no consecutive-aa), and the alternating-ab /
    consecutive-aa contract."""
    if case == "contract":
        spec_aut = cached_po_automaton(corpus.ALTERNATING_AB, c, TAB)
        return (SynthesisSpec(spec_aut, b, 1, sem),
                cached_po_automaton(corpus.CONSECUTIVE_AA, c, TAB))
    if case == "repair":
        behavior = net_automaton(NOISY, c, sem)
        target = intersect(cached_po_automaton(corpus.ALTERNATING_AB, c, TAB), behavior)
        forbidden = poset_complement(
            cached_po_automaton("!(" + corpus.CONSECUTIVE_AA + ")", c, TAB))
        return SynthesisSpec(target, b, 1, sem), forbidden
    labels = tuple(make_fixture_nets()[case].transitions)
    behavior = cached_net_automaton(case, c, sem)
    target = intersect(cached_po_automaton(corpus.TOTAL_ORDER, c, labels), behavior)
    return SynthesisSpec(target, b, 1, sem), poset_complement(behavior)


class TestDisjointnessWithoutBuild:
    """`separate` answers the disjointness question that the built behavior
    of the synthesized net answers."""

    @pytest.mark.parametrize("sem", ["ex", "cau"])
    @pytest.mark.parametrize("b", [1, 2])
    @pytest.mark.parametrize("c", [1, 2])
    @pytest.mark.parametrize("case", ["N0", "N1", "N2", "repair", "contract"])
    def test_agrees_with_built_disjointness(self, case, c, b, sem):
        spec, forbidden = separation_case(case, c, b, sem)
        net = synthesize(spec)
        out = separate(spec, forbidden)
        if net is None:
            assert out is None
            return
        # the check `separate` made before its walk, written out
        clean = intersect(net_automaton(net, c, sem), forbidden).is_empty()
        assert (out is not None) == clean
        if clean:
            assert out.to_text() == net.to_text()


class TestCausalSynthesis:
    """Synthesis under the causal semantics: containment always holds; the
    result is exact when single-place causal behaviors can pin the language."""

    @pytest.mark.parametrize("name,exact", [("N5", True), ("N4", True), ("N1", False)])
    @pytest.mark.parametrize("r", [1, 2])
    def test_containment_and_exactness(self, nets, name, exact, r):
        net = nets[name]
        spec_aut = cached_net_automaton(name, 1, "cau")
        spec = SynthesisSpec(spec_aut, net.bound, r, "cau")
        out = synthesize(spec)
        assert out is not None
        got = poset_keys(net_automaton(out, 1, "cau").po_members_up_to(4))
        want = poset_keys(spec_aut.po_members_up_to(4))
        assert want <= got
        assert (want == got) == exact

    def test_multiplicity_repeats_places(self, nets):
        spec_aut = cached_net_automaton("N4", 1, "cau")
        spec1 = SynthesisSpec(spec_aut, 1, 1, "cau")
        spec2 = SynthesisSpec(spec_aut, 1, 2, "cau")
        assert len(synthesize(spec2).places) == 2 * len(synthesize(spec1).places)


class TestSeparate:
    def test_parity_separation_impossible(self):
        even = cached_po_automaton(corpus.EVEN_CHAIN, 1, TA)
        odd = cached_po_automaton(corpus.ODD_CHAIN, 1, TA)
        assert separate(SynthesisSpec(even, 1, 1, "ex"), odd) is None

    def test_empty_forbidden_reduces_to_synthesize(self):
        spec = chains_spec()
        forbidden = cached_po_automaton("false", 1, TA)
        net = separate(spec, forbidden)
        plain = synthesize(spec)
        assert net is not None and net.to_text() == plain.to_text()

    def test_alternator_separation(self, nets):
        alt = cached_po_automaton(corpus.ALTERNATING_AB, 1, TAB)
        bad = cached_po_automaton(corpus.CONSECUTIVE_AA, 1, TAB)
        net = separate(SynthesisSpec(alt, 1, 1, "ex"), bad)
        assert net is not None
        assert poset_keys(net_automaton(net, 1, "ex").po_members_up_to(4)) \
            == poset_keys(cached_net_automaton("N1", 1, "ex").po_members_up_to(4))


    def test_synthesized_behavior_never_built(self, monkeypatch):
        built = []

        def spy(net, *args):
            built.append(net.name)
            return net_automaton(net, *args)

        monkeypatch.setattr(synthesis, "net_automaton", spy)
        monkeypatch.setattr(synthesis, "intersect", lambda *args: pytest.fail("product built"))
        alt = cached_po_automaton(corpus.ALTERNATING_AB, 1, TAB)
        bad = cached_po_automaton(corpus.CONSECUTIVE_AA, 1, TAB)
        assert separate(SynthesisSpec(alt, 1, 1, "ex"), bad) is not None
        assert synth_from_contract(parse(corpus.ALTERNATING_AB), parse(corpus.CONSECUTIVE_AA),
                                   TAB, 1, 1, 1, "ex") is not None
        assert built == []

    def test_forbidden_over_another_alphabet_rejected(self):
        alt = cached_po_automaton(corpus.ALTERNATING_AB, 1, TAB)
        with pytest.raises(InputError, match="same"):
            separate(SynthesisSpec(alt, 1, 1, "ex"),
                     cached_po_automaton("true", 1, TA))


class TestVerify:
    def test_alternator_is_totally_ordered_causally(self, nets):
        report = verify(nets["N1"], parse(corpus.TOTAL_ORDER), 2, "cau")
        assert report.net_subset_of_spec
        assert not report.disjoint

    def test_footnote_net_fails_total_order(self, nets):
        report = verify(nets["N0"], parse(corpus.TOTAL_ORDER), 2, "ex")
        assert not report.net_subset_of_spec
        ce = report.counterexamples["net-minus-spec"]
        assert ce.n_vertices() == 2 and not ce.order

    def test_tautology(self, nets):
        report = verify(nets["N1"], Truth(True), 1, "ex")
        assert not report.disjoint and report.net_subset_of_spec

    def test_fork_net_concurrency_witness(self, nets):
        # three transitions: the causal fork a<b, a<c is the minimal witness
        report = verify(nets["N3"], parse(corpus.TOTAL_ORDER), 2, "cau")
        assert not report.net_subset_of_spec
        ce = report.counterexamples["net-minus-spec"]
        assert ce.n_vertices() == 3 and len(ce.order) == 2
        assert sorted(ce.labels.values()) == ["a", "b", "c"]

    @pytest.mark.parametrize("name", ["N0", "N1", "N5"])
    @pytest.mark.parametrize("sem", ["ex", "cau"])
    def test_booleans_agree_with_oracles(self, nets, name, sem):
        from slw.mso import evaluate_po
        net = nets[name]
        phi = parse(corpus.TOTAL_ORDER)
        report = verify(net, phi, 2, sem)
        oracle = executions if sem == "ex" else causal_orders
        members = oracle(net, 4, 2)
        spec_members = poset_keys(cached_po_automaton(
            corpus.TOTAL_ORDER, 2, tuple(net.transitions)).po_members_up_to(4))
        if report.disjoint:
            assert not (poset_keys(members) & spec_members)
        if report.net_subset_of_spec:
            assert all(evaluate_po(m, phi) for m in members)
        if report.spec_subset_of_net:
            assert spec_members <= poset_keys(members)

    def test_report_lists_edges_in_numeric_order(self):
        chain = LabeledPoset({v: "a" for v in range(11)},
                             [(u, v) for u in range(11) for v in range(u + 1, 11)])
        text = VerificationReport({"common": chain}).to_text()
        lines = text.splitlines()
        assert [ln.split()[1] for ln in lines if ln.startswith("  vertex")] \
            == [str(v) for v in range(11)]
        edges = [tuple(map(int, ln.split()[1:])) for ln in lines if ln.startswith("  edge")]
        assert edges == sorted(chain.order) and edges[9:11] == [(0, 10), (1, 2)]

    def test_structured_report_schema(self, nets):
        report = verify(nets["N0"], parse(corpus.TOTAL_ORDER), 2, "ex")
        text = report.to_text()
        assert text.startswith("slw-report v1\n")
        assert "net-subset-of-spec false" in text


class TestTopLevel:
    def test_synth_from_mso_alternation(self, nets):
        net = synth_from_mso(parse(corpus.ALTERNATING_AB), TAB, 1, 1, 1, "ex")
        assert net is not None
        assert poset_keys(net_automaton(net, 1, "ex").po_members_up_to(4)) \
            == poset_keys(cached_net_automaton("N1", 1, "ex").po_members_up_to(4))

    def test_safest_identity_when_already_safe(self, nets):
        out = safest_subsystem(nets["N1"], parse(corpus.TOTAL_ORDER), 1, 1, 1, "ex")
        assert out is not None
        assert poset_keys(net_automaton(out, 1, "ex").po_members_up_to(4)) \
            == poset_keys(cached_net_automaton("N1", 1, "ex").po_members_up_to(4))

    def test_safest_serializes_footnote_net(self, nets):
        out = safest_subsystem(nets["N0"], parse(corpus.TOTAL_ORDER), 1, 1, 2, "ex")
        assert out is not None
        anti = LabeledPoset({0: "t1", 1: "t2"}, []).canonical_key()
        mem = poset_keys(net_automaton(out, 2, "ex").po_members_up_to(4))
        target = intersect(cached_po_automaton(corpus.TOTAL_ORDER, 2, ("t1", "t2")),
                           cached_net_automaton("N0", 2, "ex"))
        assert mem == poset_keys(target.po_members_up_to(4))
        assert anti not in mem
        # oracle re-validation of both separation conditions
        assert anti not in poset_keys(executions(out, 2, 2))
        assert poset_keys(executions(out, 4, 2)) <= poset_keys(executions(nets["N0"], 4, 2))

    def test_safest_fork_net_keeps_every_feasible_place(self, nets):
        # the disjointness walk plays the 77-place net's game under `ex`; the
        # net is pinned by the SHA-256 of its text
        out = safest_subsystem(nets["N3"], parse(corpus.TOTAL_ORDER), 2, 1, 1, "ex")
        assert len(out.places) == 77
        assert hashlib.sha256(out.to_text().encode()).hexdigest() \
            == "d33334a316668488eb818d112d2f0f0d0697562ce9743bc5a1e67e73e97f0f28"

    def test_repair_with_tautology_allowance(self, nets):
        out = repair(nets["N1"], parse(corpus.ALTERNATING_AB), Truth(True), 1, 1, 1, "ex")
        assert out is not None
        assert poset_keys(net_automaton(out, 1, "ex").po_members_up_to(4)) \
            == poset_keys(cached_net_automaton("N1", 1, "ex").po_members_up_to(4))

    def test_contract_roundtrip(self):
        log = ProofLog()
        net = synth_from_contract(parse(corpus.ALTERNATING_AB),
                                  parse(corpus.CONSECUTIVE_AA),
                                  TAB, 1, 1, 1, "ex", log=log)
        assert net is not None
        assert "slw-proof v1" in log.to_text()
        assert len(log.steps) >= 3

    def test_contract_overlap_rejected(self):
        with pytest.raises(PreconditionError, match="overlap"):
            synth_from_contract(parse(corpus.TOTAL_ORDER), parse(corpus.EVEN_CHAIN),
                                TA, 1, 1, 1, "ex")


class TestMinimality:
    def test_no_strictly_smaller_behavior_by_dropping_places(self, nets):
        # dropping any place of the synthesized net can only grow the behavior
        spec = SynthesisSpec(cached_net_automaton("N1", 1, "ex"), 1, 1, "ex")
        net = synthesize(spec)
        base = poset_keys(net_automaton(net, 1, "ex").po_members_up_to(4))
        for i in range(len(net.places)):
            rest = net.places[:i] + net.places[i + 1:]
            weakened = PtNet(net.transitions, rest, bound=net.bound,
                             check_transitions=False, name="weakened")
            weaker = poset_keys(net_automaton(weakened, 1, "ex").po_members_up_to(4))
            assert base <= weaker
