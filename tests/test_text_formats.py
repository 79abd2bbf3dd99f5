"""The line syntax shared by the `.aut`, `.net` and DAG readers, and round trips
of everything slw writes or the benchmark feeds it."""

import random
from pathlib import Path

import pytest

from slw import corpus
from slw.automata import SliceAutomaton
from slw.config import InputError, split_fields, text_lines
from slw.dag import LabeledDag, all_dags
from slw.ptnet import PtNet

from conftest import cached_graph_automaton, cached_net_automaton, make_fixture_nets
from test_netaut import WEIGHTED

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def net_record(net: PtNet) -> tuple:
    return (net.name, net.bound, net.transitions,
            [(p.name, p.key()) for p in net.places])


class TestLineReader:
    def test_lines_that_say_nothing_are_skipped(self):
        text = "# a comment\n\n  first  \n\t# indented comment\nsecond # not a comment\n"
        assert list(text_lines(text)) == [(3, "first"), (5, "second # not a comment")]

    def test_words_and_fields(self):
        assert split_fields(1, ["p", "init=1", "x=a=b", "flag"]) \
            == (["p", "flag"], {"init": "1", "x": "a=b"})

    @pytest.mark.parametrize("words, message", [
        (["init=1", "init=0"], "line 4: field 'init' given twice"),
        (["final", "final"], "line 4: word 'final' given twice"),
    ])
    def test_each_word_and_key_once(self, words, message):
        with pytest.raises(InputError, match=f"^{message}$"):
            split_fields(4, words)


class TestRoundTrips:
    @pytest.mark.parametrize("name", ["N0", "N1", "N2", "N3", "N4", "N5", "W", "V"])
    def test_fixture_nets(self, name):
        net = {**make_fixture_nets(), **WEIGHTED}[name]
        assert net_record(PtNet.from_text(net.to_text())) == net_record(net)

    def test_equal_places_keep_names_and_order(self):
        # p and r have equal flows but q stands between them
        text = ("net x bound=1\ntransitions a\n"
                "place p init=1 take(a)=1 put(a)=1\n"
                "place q init=0 take(a)=1 put(a)=1\n"
                "place r init=1 take(a)=1 put(a)=1\n")
        net = PtNet.from_text(text)
        assert net.to_text() == text
        assert [p.name for p in PtNet.from_text(net.to_text()).places] == ["p", "q", "r"]

    @pytest.mark.parametrize("sem", ["ex", "cau"])
    @pytest.mark.parametrize("c", [1, 2, 3])
    @pytest.mark.parametrize("name", ["N0", "N1", "N2", "N3"])
    def test_net_automata(self, name, c, sem):
        text = cached_net_automaton(name, c, sem).to_text()
        assert SliceAutomaton.from_text(text).to_text() == text

    @pytest.mark.parametrize("c", [1, 2])
    @pytest.mark.parametrize("name", sorted(corpus.GRAPH_CORPUS))
    def test_compiled_graph_corpus(self, name, c):
        text = cached_graph_automaton(corpus.GRAPH_CORPUS[name], c, ("a", "b")).to_text()
        assert SliceAutomaton.from_text(text).to_text() == text

    def test_aut_states_are_numbered_initial_first(self):
        # the initial state is 0, then the other states in declaration order;
        # a repeated trans line adds no edge, and each state keeps its edges
        # in order of first appearance
        text = ("slice-automaton c=1 alphabet=a,b\n"
                "state x final\n"
                "state lost\n"
                "state s initial\n"
                "state y\n"
                "state z final\n"
                "trans s slice{in:0; out:1; center:a; edges: c->o1} y\n"
                "trans y slice{in:1; out:1; center:b; edges: i1->c, c->o1} y\n"
                "trans y slice{in:1; out:0; center:a; edges: i1->c} x\n"
                "trans s slice{in:0; out:0; center:b; edges: } z\n"
                "trans y slice{in:1; out:0; center:a; edges: i1->c} x\n"
                "trans s slice{in:0; out:1; center:b; edges: c->o1} y\n")
        aut = SliceAutomaton.from_text(text)
        assert aut.to_text() == (
            "slice-automaton c=1 alphabet=a,b\n"
            "state 0 initial\n"
            "state 1 final\n"
            "state 2\n"
            "state 3\n"
            "state 4 final\n"
            "trans 0 slice{in:0; out:0; center:b; edges: } 4\n"
            "trans 0 slice{in:0; out:1; center:a; edges: c->o1} 3\n"
            "trans 0 slice{in:0; out:1; center:b; edges: c->o1} 3\n"
            "trans 3 slice{in:1; out:0; center:a; edges: i1->c} 1\n"
            "trans 3 slice{in:1; out:1; center:b; edges: c->o1, i1->c} 3\n")
        assert [[q2 for _, q2 in edges] for edges in aut.adj] == [[3, 4, 3], [], [], [3, 1], []]

    def test_dags(self):
        for h in all_dags(4, ("a", "b")):
            again = LabeledDag.from_text(h.to_text())
            assert again.to_text() == h.to_text()
            assert again.canonical_key() == h.canonical_key()

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_benchmark_nets(self, seed, monkeypatch):
        # the benchmark renames labels and shuffles places; its inputs must read
        monkeypatch.syspath_prepend(str(PERFBENCH))
        import workloads
        labels = workloads.label_map(seed)
        rng = random.Random(f"places-{seed}")
        for name, (bound, transitions, places) in workloads.NETS.items():
            net = PtNet.from_text(workloads.net_text(name, labels, rng))
            assert net_record(PtNet.from_text(net.to_text())) == net_record(net)
            assert (net.name, net.bound) == (name, bound)
            assert net.transitions == tuple(sorted(labels[t] for t in transitions))
            assert sorted(p.name for p in net.places) == sorted(p[0] for p in places)


class TestRepeats:
    def test_mult_copies_share_one_place(self):
        net = PtNet.from_text("net m bound=1\ntransitions t\n"
                              "place p init=1 take(t)=1 put(t)=1 mult=3\n")
        assert len(net.places) == 3
        assert net.places[0] is net.places[1] is net.places[2]

    def test_vertex_given_twice(self):
        with pytest.raises(InputError, match="^line 2: vertex '0' given twice$"):
            LabeledDag.from_text("vertex 0 a\nvertex 0 b\n")
