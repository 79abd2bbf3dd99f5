"""Slice automata: validation, membership, Boolean operations, file format."""

from collections import deque

import pytest

from slw import automata, corpus, synthesis
from slw.automata import (SliceAutomaton, counterexample, difference, equivalent,
                          from_decompositions, includes, intersect, union, valid_sequences)
from slw.config import InputError, ResourceError, RunConfig
from slw.constructions import universal_automaton
from slw.dag import LabeledDag
from slw.mso import parse
from slw.slices import (UnitDecomposition, can_glue, from_literal, to_literal, unit_alphabet,
                        unit_decompositions, unit_slice)

from conftest import cached_net_automaton, cached_po_automaton, make_fixture_nets, poset_keys

T = ("t",)
ALPH = unit_alphabet(1, T)
INIT_FINAL = unit_slice("t", 0, 0)
INIT = unit_slice("t", 0, 1)
MID = unit_slice("t", 1, 1)
FINAL = unit_slice("t", 1, 0)


def chain_automaton():
    """All chains over {t}: q0 -INIT-> q1 -MID-> q1 -FINAL-> q2, plus one-vertex."""
    return SliceAutomaton(1, T, ALPH, 0, {2},
                          [(0, INIT, 1), (1, MID, 1), (1, FINAL, 2), (0, INIT_FINAL, 2)])


def _bfs_shortest(aut):
    """The breadth-first search `shortest_accepted` ran on its own, before it
    became the inclusion walk: kept as the reference for the walk's words."""
    seen = {0}
    queue = deque([(0, ())])
    while queue:
        q, word = queue.popleft()
        for s, q2 in aut.adj[q]:
            w2 = word + (s,)
            if q2 in aut.finals:
                return w2
            if q2 not in seen:
                seen.add(q2)
                queue.append((q2, w2))
    return None


def _validate_reference(aut):
    """`validate` as it was before condition 3 skipped the edges whose target's
    out-letters all glue: every pair of consecutive edges is compared. Kept as
    the reference for the report, messages and order included."""
    base = automata.letter_base
    report = []
    for q, s, q2 in aut.transitions:
        if q == 0 and not base(s).is_initial():
            report.append(
                f"condition 1: transition out of the initial state carries a "
                f"non-initial slice: {q!r} --{to_literal(base(s))}--> {q2!r}")
        if q2 in aut.finals and not base(s).is_final():
            report.append(
                f"condition 2: transition into a final state carries a "
                f"non-final slice: {q!r} --{to_literal(base(s))}--> {q2!r}")
    for q, s, q2 in aut.transitions:
        for s2, q3 in aut.adj[q2]:
            if not can_glue(base(s), base(s2)):
                report.append(
                    f"condition 3: consecutive transitions carry non-gluable slices: "
                    f"{q!r} --{to_literal(base(s))}--> {q2!r} "
                    f"--{to_literal(base(s2))}--> {q3!r}")
    return report


def _miswired(aut, every: int):
    """A copy of `aut` in which every `every`-th edge carries a letter with
    one port count shifted (in-ports and out-ports in turn), so that it no
    longer glues to its neighbours."""
    c = aut.c
    trans = []
    for i, (q, s, q2) in enumerate(aut.transitions):
        if i % every == 0:
            n_in, n_out = s.n_in, s.n_out
            if (i // every) % 2:
                n_in = (n_in + 1) % (c + 1)
            else:
                n_out = (n_out + 1) % (c + 1)
            s = unit_slice(s.label, n_in, n_out)
        trans.append((q, s, q2))
    return SliceAutomaton(c, aut.labels, aut.alphabet, 0, aut.finals, trans, states=aut.states)


class TestValidation:
    def test_valid_chain_automaton(self):
        assert chain_automaton().validate() == []

    def test_condition_one(self):
        a = SliceAutomaton(1, T, ALPH, 0, {1}, [(0, FINAL, 1)])
        report = a.validate()
        assert any("condition 1" in r for r in report)
        assert report == _validate_reference(a)

    def test_condition_two(self):
        a = SliceAutomaton(1, T, ALPH, 0, {1}, [(0, INIT, 1)])
        report = a.validate()
        assert any("condition 2" in r for r in report)
        assert report == _validate_reference(a)

    def test_condition_three(self):
        wide = unit_alphabet(2, T)
        out1 = next(s for s in wide if s.n_in == 0 and s.n_out == 1)
        in2 = next(s for s in wide if s.n_in == 2 and s.n_out == 0)
        a = SliceAutomaton(2, T, wide, 0, {2}, [(0, out1, 1), (1, in2, 2)])
        report = a.validate()
        assert any("condition 3" in r for r in report)
        assert report == _validate_reference(a)

    @pytest.mark.parametrize("name", ["N0", "N1", "N2", "N3"])
    def test_report_equals_the_pairwise_check(self, name):
        behavior = cached_net_automaton(name, 3, "ex")
        assert behavior.validate() == _validate_reference(behavior) == []
        for every in (1, 7, 23):
            bad = _miswired(behavior, every)
            report = bad.validate()
            assert sum("condition 3" in r for r in report) > 1
            assert report == _validate_reference(bad)


class TestMembership:
    def test_empty_automaton_rejects(self):
        empty = SliceAutomaton(1, T, ALPH, 0, (), ())
        u = UnitDecomposition([INIT_FINAL])
        assert not empty.accepts(u)

    def test_from_decompositions_accepts_exactly(self):
        h = LabeledDag({0: "t", 1: "t"}, [(0, 1)])
        uds = unit_decompositions(h, 1)
        a = from_decompositions(1, T, uds)
        assert all(a.accepts(u) for u in uds)
        assert not a.accepts(UnitDecomposition([INIT_FINAL]))

    def test_universal_accepts_antichain_decomposition(self):
        h = LabeledDag({0: "t", 1: "t"}, [])
        u2 = universal_automaton(2, T)
        assert all(u2.accepts(u) for u in unit_decompositions(h, 2))


class TestBooleanOps:
    def test_intersect_with_valid_sequences_is_identity(self):
        a = chain_automaton()
        assert equivalent(intersect(a, valid_sequences(1, T)), a)

    def test_union_with_empty_is_identity(self):
        a = chain_automaton()
        empty = SliceAutomaton(1, T, ALPH, 0, (), ())
        assert equivalent(union(a, empty), a)

    def test_alphabet_mismatch(self):
        a = chain_automaton()
        b = valid_sequences(1, ("a",))
        with pytest.raises(InputError):
            intersect(a, b)

    def test_poset_level_intersection(self):
        # with both operands saturated and reduced, the poset members of the
        # product are the intersection of the members (<= 5 vertices)
        u2 = universal_automaton(2, T)
        chains = from_decompositions(2, T, [
            u for n in range(1, 5)
            for u in unit_decompositions(
                LabeledDag({i: "t" for i in range(n)},
                           [(i, i + 1) for i in range(n - 1)]), 2)])
        both = intersect(chains, u2)
        m = poset_keys(both.po_members_up_to(5))
        assert m == poset_keys(chains.po_members_up_to(5)) & poset_keys(u2.po_members_up_to(5))

    def test_difference_language(self):
        a = valid_sequences(1, T)
        b = chain_automaton()
        d = difference(a, b)
        # chains are exactly the valid sequences at width 1 whose composed DAG
        # is connected; the difference holds the disconnected ones
        w = d.shortest_accepted()
        assert w is not None and len(w) == 2
        assert all(s.n_out == 0 for s in w)

    def test_validity_preserved_by_ops(self):
        a = chain_automaton()
        u1 = universal_automaton(1, T)
        for out in (intersect(a, u1), union(a, u1), difference(u1, a)):
            assert out.validate() == []


class TestDecisions:
    def test_empty_after_trim(self):
        a = SliceAutomaton(1, T, ALPH, 0, {2}, [(0, INIT, 1)], states={0, 1, 2})
        assert a.is_empty()

    def test_includes_reflexive(self):
        a = chain_automaton()
        assert includes(a, a)

    def test_chains_included_in_universal(self):
        a = chain_automaton()
        assert includes(a, universal_automaton(1, T))
        short_chains = from_decompositions(1, T, [
            u for n in range(1, 4)
            for u in unit_decompositions(
                LabeledDag({i: "t" for i in range(n)},
                           [(i, i + 1) for i in range(n - 1)]), 1)])
        assert includes(short_chains, universal_automaton(1, T))
        assert not includes(universal_automaton(1, T), short_chains)

    def test_inclusion_builds_only_the_subsets_it_reads(self):
        # determinizing all of N2's behavior at c=3 takes 456 states; the
        # product with N1's behavior reads 9 of them
        capped = RunConfig(max_states=100)
        assert includes(cached_net_automaton("N1", 3, "ex"),
                        cached_net_automaton("N2", 3, "ex"), capped)

    def test_inclusion_walk_honours_the_state_cap(self):
        # the walk of N1 against N2's subsets reads 37 pairs before it answers
        with pytest.raises(ResourceError, match="state cap exceeded in inclusion"):
            includes(cached_net_automaton("N1", 3, "ex"),
                     cached_net_automaton("N2", 3, "ex"), RunConfig(max_states=20))

    def test_inclusion_stops_at_the_first_counterexample(self):
        # N2 runs a and b concurrently, N1 alternates them: the walk meets a
        # counterexample after 14 pairs, while the trimmed difference keeps 268
        n1 = cached_net_automaton("N1", 3, "ex")
        n2 = cached_net_automaton("N2", 3, "ex")
        capped = RunConfig(max_states=20)
        assert not includes(n2, n1, capped)
        assert len(difference(n2, n1).states) == 268
        with pytest.raises(ResourceError, match="difference"):
            difference(n2, n1, capped)

    @pytest.mark.parametrize("c", [1, 2])
    @pytest.mark.parametrize("sem", ["ex", "cau"])
    def test_walk_words_match_the_difference_automaton(self, c, sem):
        # the walk's witness is the word the old path read off the built,
        # trimmed difference, in both directions of every net x formula pair
        witnesses = 0
        for name, net in make_fixture_nets().items():
            behavior = cached_net_automaton(name, c, sem)
            for text in corpus.ORDER_CORPUS.values():
                spec = cached_po_automaton(text, c, tuple(net.transitions))
                for a, b in ((behavior, spec), (spec, behavior)):
                    word = counterexample(a, b)
                    assert word == _bfs_shortest(difference(a, b))
                    assert includes(a, b) == (word is None)
                    witnesses += word is not None
                both = intersect(behavior, spec)
                assert both.shortest_accepted() == _bfs_shortest(both)
                assert both.is_empty() == (_bfs_shortest(both) is None)
        assert 0 < witnesses < 2 * 6 * len(corpus.ORDER_CORPUS)

    def test_verify_builds_no_difference_automaton(self, monkeypatch):
        spec = cached_po_automaton(corpus.TOTAL_ORDER, 2, ("a", "b"))
        behavior = cached_net_automaton("N2", 2, "ex")
        monkeypatch.setattr(synthesis, "po_automaton", lambda *args: spec)
        monkeypatch.setattr(synthesis, "net_automaton", lambda *args: behavior)
        names = []
        explore = automata.explore

        def spy(*args, name, **kwargs):
            names.append(name)
            return explore(*args, name=name, **kwargs)

        monkeypatch.setattr(automata, "explore", spy)
        report = synthesis.verify(make_fixture_nets()["N2"], parse(corpus.TOTAL_ORDER), 2, "ex")
        assert sorted(report.counterexamples) == ["common", "net-minus-spec", "spec-minus-net"]
        assert names == ["intersection"]

    def test_po_members_of_universal_one(self):
        mem = universal_automaton(1, T).po_members_up_to(3)
        sizes = sorted((m.n_vertices(), len(m.order)) for m in mem)
        assert sizes == [(1, 0), (2, 1), (3, 3)]


class TestSerialization:
    def test_round_trip(self):
        a = chain_automaton()
        b = SliceAutomaton.from_text(a.to_text())
        assert equivalent(a, b)
        assert b.to_text() == SliceAutomaton.from_text(b.to_text()).to_text()

    def test_flags_survive(self):
        u = universal_automaton(1, T)
        b = SliceAutomaton.from_text(u.to_text())
        assert b.saturated and b.transitively_reduced

    def test_deterministic_bytes(self):
        a = universal_automaton(2, ("a", "b"))
        assert a.to_text() == universal_automaton(2, ("a", "b")).to_text()

    def test_malformed_header(self):
        with pytest.raises(InputError):
            SliceAutomaton.from_text("automaton c=1\n")

    def test_transition_to_undeclared_state(self):
        text = chain_automaton().to_text()
        assert "trans 1 slice{in:1; out:0; center:t; edges: i1->c} 2" in text
        typo = text.replace("center:t; edges: i1->c} 2", "center:t; edges: i1->c} 7")
        with pytest.raises(InputError, match="line 7: .*undeclared state '7'"):
            SliceAutomaton.from_text(typo)

    @pytest.mark.parametrize("name", ["N0", "N1", "N2", "N3"])
    def test_behavior_round_trip(self, name):
        text = cached_net_automaton(name, 3, "ex").to_text()
        assert SliceAutomaton.from_text(text).to_text() == text

    def test_canonical_literals_are_looked_up(self, monkeypatch):
        text = cached_net_automaton("N2", 3, "ex").to_text()
        calls = []
        parse_literal = automata.from_literal

        def spy(literal):
            calls.append(literal)
            return parse_literal(literal)

        monkeypatch.setattr(automata, "from_literal", spy)
        assert SliceAutomaton.from_text(text).to_text() == text
        assert calls == []

    def test_non_canonical_literal_parses_to_the_same_letter(self):
        canonical = "slice{in:2; out:2; center:a; edges: c->o2, i1->o1, i2->c}"
        spelled = "slice{in:2; out:2; center:a; edges:  i2 -> c ,c->o2,   i1->o1 }"
        text = cached_net_automaton("N2", 3, "ex").to_text()
        assert f" {canonical} " in text
        odd = SliceAutomaton.from_text(text.replace(canonical, spelled, 1))
        assert odd.to_text() == text
        assert from_literal(spelled) == from_literal(canonical)
