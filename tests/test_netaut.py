"""Behavior automata of nets versus the process-enumeration oracles."""

from collections import Counter

import pytest

from slw import netaut
from slw.config import InputError
from slw.constructions import check_saturated_upto, universal_automaton
from slw.dag import LabeledPoset
from slw.netaut import net_automaton
from slw.ptnet import Place, PtNet, causal_orders, executions, occurrence_sequences
from slw.slices import Slice

from conftest import cached_net_automaton, poset_keys


class TestOracleAgreement:
    @pytest.mark.parametrize("name", ["N0", "N1", "N2", "N3", "N4", "N5"])
    @pytest.mark.parametrize("sem", ["ex", "cau"])
    @pytest.mark.parametrize("c", [1, 2])
    def test_members_equal_oracle(self, nets, name, sem, c):
        aut = cached_net_automaton(name, c, sem)
        oracle = executions if sem == "ex" else causal_orders
        assert poset_keys(aut.po_members_up_to(4)) \
            == poset_keys(oracle(nets[name], 4, c)), (name, sem, c)


class TestWeightedArcs:
    """Nets whose transitions move more than one token per place."""

    @pytest.mark.parametrize("sem", ["ex", "cau"])
    @pytest.mark.parametrize("c", [1, 2])
    def test_double_weight_self_loop(self, sem, c):
        net = PtNet(("t",), [Place(2, puts={"t": 2}, takes={"t": 2})],
                    bound=2, name="W")
        oracle = executions if sem == "ex" else causal_orders
        aut = net_automaton(net, c, sem)
        assert poset_keys(aut.po_members_up_to(4)) == poset_keys(oracle(net, 4, c))

    @pytest.mark.parametrize("sem", ["ex", "cau"])
    @pytest.mark.parametrize("c", [1, 2])
    def test_fork_by_weighted_production(self, sem, c):
        net = PtNet(("s", "u"), [Place(1, takes={"s": 1}),
                                 Place(0, puts={"s": 2}, takes={"u": 1}),
                                 Place(0, puts={"u": 1})], bound=2, name="V")
        oracle = executions if sem == "ex" else causal_orders
        aut = net_automaton(net, c, sem)
        assert poset_keys(aut.po_members_up_to(4)) == poset_keys(oracle(net, 4, c))


class TestStructure:
    def test_valid_and_flagged(self, nets):
        aut = cached_net_automaton("N1", 1, "cau")
        assert aut.validate() == []
        assert aut.saturated and aut.transitively_reduced

    def test_saturated_outputs(self, nets):
        for name in ("N0", "N1"):
            for sem in ("ex", "cau"):
                aut = cached_net_automaton(name, 2, sem)
                assert check_saturated_upto(aut, 4) is None, (name, sem)

    def test_bad_semantics_name(self, nets):
        with pytest.raises(InputError):
            net_automaton(nets["N0"], 1, "weird")

    def test_each_letter_is_read_once(self, nets, monkeypatch):
        # the token game works out a letter's ports on first use, not per
        # firing; the universal automaton is built before the count starts
        univ = universal_automaton(3, tuple(nets["N2"].transitions))
        monkeypatch.setattr(netaut, "universal_automaton", lambda *args: univ)
        calls = Counter()
        for attr in ("closing_ports", "bypass_map", "born_ports"):
            def spy(letter, _attr=attr, _read=getattr(Slice, attr)):
                calls[_attr, letter] += 1
                return _read(letter)
            monkeypatch.setattr(Slice, attr, spy)
        net_automaton(nets["N2"], 3, "ex")
        letters = {letter for _, letter in calls}
        assert letters and set(calls.values()) == {1}
        assert len(calls) == 3 * len(letters)


class TestKnownBehaviors:
    def test_alternator_causal_chains(self, nets):
        mem = cached_net_automaton("N1", 1, "cau").po_members_up_to(4)
        labels = sorted("".join(m.labels[v] for v in _chain_order(m)) for m in mem)
        assert labels == ["a", "ab", "aba", "abab"]

    def test_width_one_executions_are_firing_sequences(self, nets):
        for name in ("N0", "N1", "N3"):
            aut = cached_net_automaton(name, 1, "ex")
            mem = poset_keys(aut.po_members_up_to(4))
            chains = set()
            for seq in occurrence_sequences(nets[name], 4):
                if seq:
                    chains.add(LabeledPoset(
                        {i: t for i, t in enumerate(seq)},
                        [(i, j) for i in range(len(seq)) for j in range(len(seq))
                         if i < j]).canonical_key())
            assert mem == chains, name

    def test_footnote_hierarchy(self, nets):
        anti = LabeledPoset({0: "t1", 1: "t2"}, []).canonical_key()
        assert anti in poset_keys(cached_net_automaton("N0", 2, "ex").po_members_up_to(2))
        assert anti not in poset_keys(cached_net_automaton("N0", 1, "ex").po_members_up_to(2))

    def test_execution_monotonicity_witnessed(self, nets):
        m1 = poset_keys(cached_net_automaton("N0", 1, "ex").po_members_up_to(3))
        m2 = poset_keys(cached_net_automaton("N0", 2, "ex").po_members_up_to(3))
        assert m1 < m2


def _chain_order(poset):
    return sorted(poset.vertices, key=lambda v: sum(1 for u in poset.vertices
                                                    if poset.less(u, v)))
