"""Slices, gluing, composition, the unit alphabet, decomposition enumeration."""

import itertools

import pytest

from slw.automata import letter_base
from slw.config import InputError, ResourceError, RunConfig
from slw.constructions import transitive_reduce_automaton
from slw.dag import LabeledDag, all_dags, dags_isomorphic
from slw.slices import (UnitDecomposition, can_glue, compose, from_literal, glue,
                        to_literal, unit_alphabet, unit_decompositions, unit_slice)

from conftest import cached_net_automaton


class TestGlue:
    def test_can_glue_sizes(self):
        s1 = unit_slice("t", 0, 1)
        s2 = unit_slice("t", 1, 0)
        assert can_glue(s1, s2)
        assert not can_glue(unit_slice("t", 0, 0), s2)
        assert can_glue(unit_slice("t", 1, 0), unit_slice("t", 0, 0))

    def test_two_vertex_chain(self):
        s1 = unit_slice("a", 0, 1)
        s2 = unit_slice("b", 1, 0)
        g = glue(s1, s2)
        assert g.center_labels == ("a", "b")
        assert g.edges == ((("c", 0), ("c", 1)),)

    def test_mismatch_reports_sizes(self):
        with pytest.raises(InputError, match="0 out-ports.*1 in-ports"):
            glue(unit_slice("a", 0, 0), unit_slice("b", 1, 0))

    def test_bypass_fusion(self):
        # bypass i1->o1 with isolated center, glued onto a final slice
        s1 = unit_slice("a", 1, 1, bypass={1: 1})
        s2 = unit_slice("b", 1, 0)
        g = glue(s1, s2)
        # the bypass edge now runs from the original in-port into the new center
        assert (("i", 1), ("c", 1)) in g.edges
        assert g.center_labels == ("a", "b")

    def test_associativity(self):
        letters = unit_alphabet(2, ("t",))
        triples = 0
        for s1, s2, s3 in itertools.product(letters, repeat=3):
            if not (can_glue(s1, s2) and can_glue(s2, s3)):
                continue
            triples += 1
            assert glue(glue(s1, s2), s3) == glue(s1, glue(s2, s3))
        assert triples > 100


class TestCompose:
    def test_two_letter_word(self):
        u = UnitDecomposition([unit_slice("a", 0, 1), unit_slice("b", 1, 0)])
        d = compose(u)
        assert d.labels == {0: "a", 1: "b"} and d.edges == ((0, 1),)

    def test_single_slice_identity(self):
        u = UnitDecomposition([unit_slice("t", 0, 0)])
        d = compose(u)
        assert d.labels == {0: "t"} and d.edges == ()

    def test_three_chain_fold(self):
        u = UnitDecomposition([unit_slice("a", 0, 1), unit_slice("b", 1, 1),
                               unit_slice("c", 1, 0)])
        d = compose(u)
        assert d.edges == ((0, 1), (1, 2))
        assert [d.labels[i] for i in range(3)] == ["a", "b", "c"]


# The port facts as Slice methods used to derive them, kept as the reference.
def _closing_ports(s):
    return tuple(sorted(src[1] for src, dst in s.edges
                        if src[0] == "i" and dst[0] == "c"))


def _bypass_map(s):
    return {src[1]: dst[1] for src, dst in s.edges
            if src[0] == "i" and dst[0] == "o"}


def _born_ports(s):
    return tuple(sorted(dst[1] for src, dst in s.edges
                        if src[0] == "c" and dst[0] == "o"))


def _assert_ports(s):
    assert s.closing_ports == _closing_ports(s), s
    assert list(s.bypass_map.items()) == list(_bypass_map(s).items()), s
    assert s.born_ports == _born_ports(s), s


class TestPorts:
    @pytest.mark.parametrize("c, labels", [(3, ("a", "b")), (4, ("a",))])
    def test_unit_alphabet(self, c, labels):
        for s in unit_alphabet(c, labels):
            _assert_ports(s)

    def test_reversed_literal(self):
        text = "slice{in:3; out:3; center:a; edges: i3->o1, i2->c, i1->o3, c->o2}"
        s = from_literal(text)
        assert s.closing_ports == (2,) and s.born_ports == (2,)
        assert list(s.bypass_map.items()) == [(1, 3), (3, 1)]
        _assert_ports(s)

    def test_transitive_reduction_letters(self):
        tr = transitive_reduce_automaton(cached_net_automaton("N1", 2, "ex"))
        letters = {letter_base(s) for edges in tr.adj for s, _ in edges}
        assert letters
        for s in letters:
            _assert_ports(s)


class TestUnitAlphabet:
    def test_width_one_single_label(self):
        letters = unit_alphabet(1, ("t",))
        assert len(letters) == 5
        shapes = sorted((s.n_in, s.n_out, len(s.bypass_map)) for s in letters)
        assert shapes == [(0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, 0), (1, 1, 1)]

    def test_width_one_two_labels(self):
        assert len(unit_alphabet(1, ("a", "b"))) == 10

    def test_width_two_single_label_frozen_count(self):
        # regression value fixed by this exhaustive enumeration
        assert len(unit_alphabet(2, ("t",))) == 20

    def test_all_letters_valid_and_unique(self):
        letters = unit_alphabet(2, ("a", "b"))
        assert len(set(letters)) == len(letters)
        for s in letters:
            assert s.is_unit() and s.width() <= 2


class TestLiterals:
    def test_round_trip_whole_alphabet(self):
        for s in unit_alphabet(2, ("a", "b")):
            assert from_literal(to_literal(s)) == s

    def test_example_literal(self):
        s = from_literal("slice{in:1; out:1; center:a; edges: i1->c, c->o1}")
        assert s == unit_slice("a", 1, 1)

    def test_malformed(self):
        with pytest.raises(InputError):
            from_literal("slice{in:1; out:1; center:a; edges: i1->}")


class TestDecompositions:
    def test_single_vertex(self):
        h = LabeledDag({0: "t"}, [])
        assert len(unit_decompositions(h, 1)) == 1

    def test_two_antichain_both_orderings(self):
        h = LabeledDag({0: "t", 1: "t"}, [])
        uds = unit_decompositions(h, 2)
        assert len(uds) == 2
        assert all(u.width() <= 2 for u in uds)

    def test_chain_forced_ordering(self):
        h = LabeledDag({0: "a", 1: "b"}, [(0, 1)])
        assert len(unit_decompositions(h, 1)) == 1

    def test_fixed_ordering_restriction(self):
        h = LabeledDag({0: "t", 1: "t"}, [])
        uds = unit_decompositions(h, 2, ordering=(1, 0))
        assert len(uds) == 1

    def test_cap_guard(self):
        h = LabeledDag({i: "t" for i in range(4)}, [])
        with pytest.raises(ResourceError):
            unit_decompositions(h, 2, config=RunConfig(max_enum_vertices=3))

    def test_recomposition_is_identity_up_to_positions(self):
        for n in range(1, 5):
            for h in all_dags(n, ["a", "b"]):
                if h.min_path_cover()[0] > 2:
                    continue
                for u in unit_decompositions(h, 2):
                    assert dags_isomorphic(compose(u), h)

    def test_width_equals_cutwidth_of_induced_ordering(self):
        h = LabeledDag({0: "t", 1: "t", 2: "t", 3: "t"},
                       [(0, 1), (0, 2), (1, 3), (2, 3)])
        for u in unit_decompositions(h, 2):
            d = compose(u)
            order = list(range(len(u)))
            cuts = [sum(1 for (a, b) in d.edges if a <= i < b)
                    for i in range(len(order))]
            assert u.width() == max(cuts)

    def test_coverable_dags_have_bounded_width_everywhere(self):
        # if the DAG can be covered by k paths, every decomposition has width <= k
        for n in range(1, 6):
            for h in all_dags(n, ["t"]):
                k = h.min_path_cover()[0]
                if k > 2:
                    continue
                wide = unit_decompositions(h, len(h.edges) + 1)
                assert wide, h
                assert all(u.width() <= k for u in wide), h
