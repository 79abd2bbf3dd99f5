"""Slices, composition, the unit alphabet, decomposition enumeration."""

import pytest

from slw.automata import letter_base, valid_sequences
from slw.config import InputError, ResourceError, RunConfig
from slw.constructions import transitive_reduce_automaton
from slw.dag import LabeledDag, all_dags
from slw.slices import (Slice, UnitDecomposition, _decompositions_for_ordering, can_glue,
                        compose, from_literal, to_literal, unit_alphabet, unit_decompositions)

from conftest import cached_net_automaton


class TestGlue:
    def test_can_glue_sizes(self):
        s1 = Slice("t", 0, 1)
        s2 = Slice("t", 1, 0)
        assert can_glue(s1, s2)
        assert not can_glue(Slice("t", 0, 0), s2)
        assert can_glue(Slice("t", 1, 0), Slice("t", 0, 0))

    def test_word_whose_neighbours_do_not_glue(self):
        with pytest.raises(InputError, match="^slice 0 cannot be glued to slice 1$"):
            UnitDecomposition([Slice("a", 0, 1), Slice("b", 2, 0)])


def _glue_fold(u):
    """compose as it was once written, kept as the reference: fold the gluing
    of two slices over the word, each slice a tuple of center labels and a
    list of endpoint edges, and read the result as a DAG."""
    labels, edges = (), []
    for s in u:
        off = len(labels)

        def shift(end):
            return ("c", end[1] + off) if end[0] == "c" else end

        out_edge = {dst[1]: src for src, dst in edges if dst[0] == "o"}
        in_edge = {src[1]: dst for src, dst in s.edges if src[0] == "i"}
        edges = ([(src, dst) for src, dst in edges if dst[0] != "o"]
                 + [(shift(src), shift(dst)) for src, dst in s.edges if src[0] != "i"]
                 + [(out_edge[k], shift(in_edge[k])) for k in range(1, s.n_in + 1)])
        labels += (s.label,)
    return LabeledDag(dict(enumerate(labels)), [(src[1], dst[1]) for src, dst in edges])


class TestCompose:
    def test_two_letter_word(self):
        u = UnitDecomposition([Slice("a", 0, 1), Slice("b", 1, 0)])
        d = compose(u)
        assert d.labels == {0: "a", 1: "b"} and d.edges == ((0, 1),)

    def test_single_slice_identity(self):
        u = UnitDecomposition([Slice("t", 0, 0)])
        d = compose(u)
        assert d.labels == {0: "t"} and d.edges == ()

    def test_three_chain_fold(self):
        u = UnitDecomposition([Slice("a", 0, 1), Slice("b", 1, 1),
                               Slice("c", 1, 0)])
        d = compose(u)
        assert d.edges == ((0, 1), (1, 2))
        assert [d.labels[i] for i in range(3)] == ["a", "b", "c"]

    @pytest.mark.parametrize("c, labels", [(2, ("a", "b")), (3, ("a",))])
    def test_equals_glue_fold(self, c, labels):
        words = list(valid_sequences(c, labels).enumerate_words(4))
        assert len(words) == {2: 2830, 3: 3491}[c]
        for w in words:
            u = UnitDecomposition(w)
            d, ref = compose(u), _glue_fold(u)
            assert (d.labels, d.edges) == (ref.labels, ref.edges), u


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
    assert s.edges == tuple(sorted(s.edges)), s
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
            assert s.label in ("a", "b") and s.width() <= 2

    @pytest.mark.parametrize("c", [1, 2, 3])
    def test_letter_order(self, c):
        # letters sort as when a slice held a tuple of center labels; .aut text
        # lists each state's letters in this order
        letters = unit_alphabet(c, ("a", "b"))
        assert list(letters) == sorted(letters, key=lambda s: (s.n_in, s.n_out, (s.label,),
                                                               s.edges))


class TestLiterals:
    def test_round_trip_whole_alphabet(self):
        for s in unit_alphabet(2, ("a", "b")):
            assert from_literal(to_literal(s)) == s

    def test_example_literal(self):
        s = from_literal("slice{in:1; out:1; center:a; edges: i1->c, c->o1}")
        assert s == Slice("a", 1, 1)

    def test_malformed(self):
        with pytest.raises(InputError):
            from_literal("slice{in:1; out:1; center:a; edges: i1->}")

    @pytest.mark.parametrize("edges, message", [
        ("o1->c, i1->c", "edge o1->c violates frontier direction"),
        ("i1->c, c->c, c->o1", "slice has a loop at its center"),
        ("i2->c, c->o1", "port i2 out of range"),
        ("i1->c, c->o2", "port o2 out of range"),
        ("i1->c", "every frontier port must be the endpoint of exactly one edge"),
        ("i1->c, i1->o1, c->o1", "every frontier port must be the endpoint of exactly one edge"),
    ])
    def test_edge_list_is_judged(self, edges, message):
        with pytest.raises(InputError) as err:
            from_literal(f"slice{{in:1; out:1; center:a; edges: {edges}}}")
        assert str(err.value) == message

    @pytest.mark.parametrize("n_in, n_out, bypass, message", [
        (1, 1, {1: 2}, "bypass map must send in-ports to out-ports"),
        (1, 1, {2: 1}, "bypass map must send in-ports to out-ports"),
        (1, 1, {0: 1}, "bypass map must send in-ports to out-ports"),
        (2, 1, {1: 1, 2: 1}, "bypass map must be injective"),
    ])
    def test_bypass_map_is_judged(self, n_in, n_out, bypass, message):
        with pytest.raises(InputError) as err:
            Slice("a", n_in, n_out, bypass)
        assert str(err.value) == message


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
        uds = list(_decompositions_for_ordering(h, (1, 0), 2))
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
                    assert compose(u).canonical_key() == h.canonical_key()

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
