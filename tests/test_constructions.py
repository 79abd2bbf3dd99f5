"""The universal automaton, the reduced/coverable primitives, the
transitive-reduction transform and the poset-level complement."""

import random

import pytest

from slw import constructions
from slw.automata import (SliceAutomaton, difference, equivalent, explore,
                          from_decompositions, intersect, union)
from slw.config import PreconditionError
from slw.constructions import (check_saturated_upto, coverable_automaton, poset_complement,
                               reduced_automaton, transitive_reduce_automaton,
                               universal_automaton)
from slw.dag import LabeledDag, all_dags
from slw.slices import unit_alphabet, unit_decompositions

from conftest import cached_po_automaton, poset_keys
from slw import corpus

T = ("t",)


class TestUniversal:
    def test_antichain_membership_by_width(self):
        h = LabeledDag({0: "t", 1: "t"}, [])
        uds = unit_decompositions(h, 2)
        assert not any(universal_automaton(1, T).accepts(u) for u in uds)
        assert all(universal_automaton(2, T).accepts(u) for u in uds)

    def test_chains_at_width_one_both_directions(self):
        u1 = universal_automaton(1, T)
        for n in range(1, 6):
            for h in all_dags(n, ["t"]):
                expected = h.is_transitively_reduced() and h.min_path_cover()[0] <= 1
                uds = unit_decompositions(h, 1)
                if not uds:
                    assert not expected or n == 0
                    continue
                assert all(u1.accepts(u) == expected for u in uds), h

    def test_diamond_with_chord_rejected_everywhere(self):
        h = LabeledDag({0: "t", 1: "t", 2: "t", 3: "t"},
                       [(0, 1), (0, 2), (1, 3), (2, 3), (0, 3)])
        for c in (2, 3):
            uc = universal_automaton(c, T)
            assert not any(uc.accepts(u) for u in unit_decompositions(h, c))

    def test_graph_members_are_coverable_hasse_diagrams(self):
        u2 = universal_automaton(2, T)
        for g in u2.graph_members_up_to(4):
            assert g.is_transitively_reduced()
            assert g.min_path_cover()[0] <= 2

    def test_equals_reduced_times_coverable(self):
        for c in (1, 2):
            assert equivalent(universal_automaton(c, T),
                              intersect(reduced_automaton(c, T), coverable_automaton(c, T)))

    def test_slot_assignments_repeat_nothing(self, monkeypatch):
        original, fresh = constructions._slot_assignments, []

        def spy(slots, frontier):
            out = list(original(slots, frontier))
            fresh.append(len(out) == len(set(out)))
            return out

        monkeypatch.setattr(constructions, "_slot_assignments", spy)
        universal_automaton.__wrapped__(3, ("a", "b"))
        assert fresh and all(fresh)


def _reference_summary_automaton(c, labels, name, hasse, budget, **flags):
    """The summary automaton with one frontier step per letter, as built
    before letters of one shape shared theirs: the reference for its bytes."""
    alphabet = unit_alphabet(c, labels)
    groups = {}
    for s in alphabet:
        groups.setdefault(s.n_in, []).append(s)

    def expand(state):
        _, channels, reach, slots = state
        for letter in groups.get(len(channels), ()):
            fr = constructions._Frontier(channels, reach, letter)
            if hasse and not fr.hasse_ok():
                continue
            new_reach = fr.new_reach if hasse else frozenset()
            for new_slots in ((),) if budget is None else \
                    constructions._slot_assignments(slots, fr):
                yield letter, (name, fr.new_channels, new_reach, new_slots)

    init_slots = () if budget is None else ("u",) * budget
    return explore(("start", (), frozenset(), init_slots), expand,
                   lambda state: state[0] != "start" and state[1] == (),
                   c, labels, alphabet, name=name, **flags)


class TestOneStepPerShape:
    @pytest.mark.parametrize("c", [1, 2, 3])
    @pytest.mark.parametrize("labels", [("a",), ("a", "b"), ("a", "b", "c")])
    def test_summary_automata_unchanged(self, c, labels):
        pairs = [
            (universal_automaton(c, labels), _reference_summary_automaton(
                c, labels, "universal automaton", True, c,
                saturated=True, transitively_reduced=True)),
            (coverable_automaton(c, labels), _reference_summary_automaton(
                c, labels, "coverable automaton", False, c, saturated=True)),
            (reduced_automaton(c, labels), _reference_summary_automaton(
                c, labels, "reduced automaton", True, None, transitively_reduced=True)),
        ]
        for built, reference in pairs:
            assert built.to_text() == reference.to_text()


class TestPrimitives:
    def test_reduced_oracle_agreement(self):
        r2 = reduced_automaton(2, T)
        for n in range(1, 5):
            for h in all_dags(n, ["t"]):
                for u in unit_decompositions(h, 2):
                    assert r2.accepts(u) == h.is_transitively_reduced(), h

    def test_coverable_oracle_agreement(self):
        g2 = coverable_automaton(2, T)
        for n in range(1, 5):
            for h in all_dags(n, ["t"]):
                for u in unit_decompositions(h, 2):
                    assert g2.accepts(u) == (h.min_path_cover()[0] <= 2), h

    def test_coverable_budget_below_width(self):
        g1 = coverable_automaton(2, T, budget=1)
        for n in range(1, 5):
            for h in all_dags(n, ["t"]):
                for u in unit_decompositions(h, 2):
                    assert g1.accepts(u) == (h.min_path_cover()[0] <= 1), h

    @pytest.mark.parametrize("c", [1, 2])
    def test_coverable_budget_zero_is_empty(self, c):
        assert coverable_automaton(c, T, 0).is_empty()


def _random_automata(seed: int, count: int):
    """Seeded small automata: unions of single-DAG languages at width 2."""
    rng = random.Random(seed)
    pool = [h for n in range(1, 5) for h in all_dags(n, ["t"])
            if unit_decompositions(h, 2)]
    out = []
    for _ in range(count):
        picks = rng.sample(pool, rng.randint(1, 3))
        auto = from_decompositions(2, T, [u for h in picks
                                          for u in unit_decompositions(h, 2)])
        out.append(auto)
    return out


def _reference_difference(a, b):
    """L(a) minus L(b) as the product of a with the full determinization of b,
    -1 being the rejecting sink (the unflagged operands need no flags)."""
    dfa = b.determinize()
    delta = dfa.successors()

    def expand(pair):
        qa, p = pair
        row = delta[p] if p >= 0 else {}
        for s, qa2 in a.adj[qa]:
            p2 = row.get(s)
            yield s, (qa2, p2[0] if p2 else -1)

    return explore((0, 0), expand, lambda p: p[0] in a.finals and p[1] not in dfa.finals,
                   a.c, a.labels, a.alphabet, name="reference difference").trim()


class TestDifference:
    def test_on_the_fly_subsets_match_full_determinization(self):
        autos = _random_automata(seed=11, count=6)
        # unions behind a fresh initial state are nondeterministic
        pairs = [union(x, y) for x, y in zip(autos, autos[1:])]
        for a in autos + pairs:
            for b in autos + pairs:
                assert difference(a, b).to_text() == _reference_difference(a, b).to_text()


class TestTransitiveReduce:
    def test_already_reduced_language_unchanged(self):
        h = LabeledDag({0: "t", 1: "t", 2: "t"}, [(0, 1), (1, 2)])
        a = from_decompositions(2, T, unit_decompositions(h, 2))
        tr_a = transitive_reduce_automaton(a)
        assert poset_keys(tr_a.po_members_up_to(4)) == poset_keys(a.po_members_up_to(4))
        assert {g.canonical_key() for g in tr_a.graph_members_up_to(4)} \
            == {g.canonical_key() for g in a.graph_members_up_to(4)}

    def test_chord_reduces_to_chain(self):
        h = LabeledDag({0: "a", 1: "b", 2: "c"}, [(0, 1), (1, 2), (0, 2)])
        a = from_decompositions(2, ("a", "b", "c"), unit_decompositions(h, 2))
        tr_a = transitive_reduce_automaton(a)
        graphs = tr_a.graph_members_up_to(4)
        assert len(graphs) == 1 and graphs[0].edges == ((0, 1), (1, 2))

    def test_poset_language_invariance_randomized(self):
        for a in _random_automata(seed=7, count=10):
            tr_a = transitive_reduce_automaton(a)
            assert poset_keys(tr_a.po_members_up_to(5)) == poset_keys(a.po_members_up_to(5))
            for g in tr_a.graph_members_up_to(5):
                assert g.is_transitively_reduced()
            assert tr_a.validate() == []

    def test_parallel_edges_collapse(self):
        # a doubled edge denotes the same poset; its reduction keeps one copy
        double = LabeledDag({0: "a", 1: "b"}, [(0, 1), (0, 1)])
        a = from_decompositions(2, ("a", "b"), unit_decompositions(double, 2))
        tr_a = transitive_reduce_automaton(a)
        graphs = tr_a.graph_members_up_to(3)
        assert [g.edges for g in graphs] == [((0, 1),)]
        assert poset_keys(tr_a.po_members_up_to(3)) == poset_keys(a.po_members_up_to(3))

    def test_per_ordering_witnesses(self):
        # each accepted input ordering yields an output word on the same ordering
        h = LabeledDag({0: "t", 1: "t", 2: "t"}, [(0, 1), (1, 2), (0, 2)])
        a = from_decompositions(2, T, unit_decompositions(h, 2))
        tr_a = transitive_reduce_automaton(a)
        words = list(tr_a.enumerate_words(4))
        assert words and all(len(w) == 3 for w in words)


class TestPosetComplement:
    def test_complement_of_universal_is_empty(self):
        assert poset_complement(universal_automaton(2, T)).is_empty()

    def test_complement_of_empty_is_universal(self):
        u = universal_automaton(1, T)
        empty = SliceAutomaton(1, T, u.alphabet, 0, (), (),
                               saturated=True, transitively_reduced=True)
        comp = poset_complement(empty)
        assert poset_keys(comp.po_members_up_to(4)) == poset_keys(u.po_members_up_to(4))

    def test_even_complement_is_odd(self):
        even = cached_po_automaton(corpus.EVEN_CHAIN, 1, ("a",))
        odd = cached_po_automaton(corpus.ODD_CHAIN, 1, ("a",))
        comp = poset_complement(even)
        assert poset_keys(comp.po_members_up_to(5)) == poset_keys(odd.po_members_up_to(5))

    def test_unsaturated_rejected_with_diagnostic(self):
        h = LabeledDag({0: "a", 1: "b"}, [])
        one_of_two = from_decompositions(2, ("a", "b"), unit_decompositions(h, 2)[:1])
        with pytest.raises(PreconditionError, match="saturated"):
            poset_complement(one_of_two)

    def test_saturation_precondition_matters_semantically(self):
        # dropping the precondition really breaks the complement: with only one
        # of the mixed antichain's two decomposition words in the language, the
        # raw difference still contains the antichain poset
        h = LabeledDag({0: "a", 1: "b"}, [])
        uds = unit_decompositions(h, 2)
        assert len(set(uds)) == 2
        one_of_two = from_decompositions(2, ("a", "b"), uds[:1])
        raw = difference(universal_automaton(2, ("a", "b")), one_of_two)
        anti_key = h.transitive_closure().canonical_key()
        assert anti_key in poset_keys(one_of_two.po_members_up_to(3))
        assert anti_key in poset_keys(raw.po_members_up_to(3))  # not a complement


class TestSaturationChecker:
    def test_universal_saturated_exhaustive_to_five(self):
        for c in (1, 2):
            assert check_saturated_upto(universal_automaton(c, T), 5) is None

    def test_single_witness_not_saturated(self):
        h = LabeledDag({0: "a", 1: "b"}, [])
        one = from_decompositions(2, ("a", "b"), unit_decompositions(h, 2)[:1])
        violation = check_saturated_upto(one, 3)
        assert violation is not None
