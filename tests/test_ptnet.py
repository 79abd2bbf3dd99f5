"""Token game, boundedness, process semantics oracles, net files."""

import itertools

import pytest

from slw.config import InputError
from slw.dag import LabeledPoset
from slw.ptnet import (Place, PtNet, _extensions_of_order, causal_orders, check_bounded,
                       enabled, executions, fire, processes)

from conftest import poset_keys


class TestTokenGame:
    def test_alternator_enabling(self, nets):
        n1 = nets["N1"]
        m0 = n1.initial_marking()
        assert enabled(n1, m0, "a")
        assert not enabled(n1, m0, "b")

    def test_alternator_fire(self, nets):
        n1 = nets["N1"]
        m1 = fire(n1, n1.initial_marking(), "a")
        assert m1 == (0, 1)

    def test_self_loop_preserves_marking(self, nets):
        n0 = nets["N0"]
        assert fire(n0, n0.initial_marking(), "t1") == n0.initial_marking()

    def test_disabled_fire_rejected(self, nets):
        with pytest.raises(InputError):
            fire(nets["N1"], nets["N1"].initial_marking(), "b")


class TestBoundedness:
    def test_fixtures_bounded(self, nets):
        for name, net in nets.items():
            ok, witness = check_bounded(net, net.bound)
            assert ok and witness is None, name

    def test_overflow_with_witness(self):
        net = PtNet(("t",), [Place(1, puts={"t": 2}, takes={"t": 1})],
                    bound=1, name="grower")
        ok, witness = check_bounded(net, 1)
        assert not ok and witness == ("t",)

    def test_tight_bound(self, nets):
        ok, witness = check_bounded(nets["N2"], 1)
        assert not ok and witness is not None


class TestProcesses:
    def test_alternator_two_events(self, nets):
        procs = processes(nets["N1"], 2)
        assert sorted(p.events for p in procs) == [(), ("a",), ("a", "b")]

    def test_zero_events(self, nets):
        procs = processes(nets["N0"], 0)
        assert len(procs) == 1 and procs[0].events == ()

    def test_footnote_net_two_events(self, nets):
        # up to isomorphism: empty, t1, t2, t1t1, t2t2, and the concurrent pair
        # (the interleavings t1t2 and t2t1 are the same process)
        procs = processes(nets["N0"], 2)
        assert len(procs) == 6

    def test_all_processes_satisfy_definition(self, nets):
        for name, net in nets.items():
            for p in processes(net, 3):
                assert p.validate() == [], (name, p.events)

    def test_causal_order_of_chain(self, nets):
        procs = [p for p in processes(nets["N1"], 2) if p.n_events() == 2]
        order = procs[0].causal_order()
        assert len(order.order) == 1 and sorted(order.labels.values()) == ["a", "b"]


class TestOrderOracles:
    def test_alternator_causal_orders_are_chains(self, nets):
        for o in causal_orders(nets["N1"], 4):
            n = o.n_vertices()
            assert len(o.order) == n * (n - 1) // 2

    def test_executions_contain_causal_orders(self, nets):
        for name, net in nets.items():
            co = poset_keys(causal_orders(net, 3))
            ex = poset_keys(executions(net, 3))
            assert co <= ex, name

    def test_footnote_antichain_needs_width_two(self, nets):
        anti = LabeledPoset({0: "t1", 1: "t2"}, []).canonical_key()
        assert anti in poset_keys(executions(nets["N0"], 2, 2))
        assert anti not in poset_keys(executions(nets["N0"], 2, 1))

    def test_execution_monotonicity(self, nets):
        for name, net in nets.items():
            assert poset_keys(executions(net, 3, 1)) <= poset_keys(executions(net, 3, 2)), name


def subset_extensions(base: LabeledPoset) -> set:
    """The reference: add every subset of base's incomparable ordered pairs,
    keep the results that are strict orders. 2^(incomparable pairs) subsets."""
    verts = base.vertices
    missing = [(u, v) for u in verts for v in verts
               if u != v and (u, v) not in base.order and (v, u) not in base.order]
    out = set()
    for r in range(len(missing) + 1):
        for extra in itertools.combinations(missing, r):
            pairs = set(base.order) | set(extra)
            if any((v, u) in pairs for u, v in pairs):
                continue
            if all((a, d) in pairs for a, b in pairs for c, d in pairs if b == c):
                out.add(frozenset(pairs))
    return out


class TestOrderExtensions:
    def test_extensions_match_the_subset_enumeration(self, nets):
        for name, net in nets.items():
            for base in causal_orders(net, 4):
                got = [po.order for po in _extensions_of_order(base)]
                assert len(got) == len(set(got)), (name, base)
                assert set(got) == subset_extensions(base), (name, base)

    def test_executions_match_the_subset_enumeration(self, nets):
        total = 0
        for name, net in nets.items():
            for k in range(1, 5):
                bases = causal_orders(net, k)
                for c in (None, 1, 2, 3):
                    want = {LabeledPoset(base.labels, pairs).canonical_key()
                            for base in bases for pairs in subset_extensions(base)
                            if c is None
                            or LabeledPoset(base.labels, pairs).is_c_partial_order(c)}
                    assert poset_keys(executions(net, k, c)) == want, (name, k, c)
                    total += len(want)
        assert total == 710  # 96 cases

    def test_antichain_extension_counts(self):
        # the number of strict orders on n labeled points (OEIS A001035)
        for n, count in zip(range(1, 6), (1, 3, 19, 219, 4231)):
            base = LabeledPoset({v: "a" for v in range(n)}, [])
            assert len(_extensions_of_order(base)) == count


class TestUnion:
    def test_execution_conjunctivity(self, nets):
        # the execution behavior of a union is the intersection of behaviors
        a = PtNet(("a", "b"), [Place(1, puts={"b": 1}, takes={"a": 1})],
                  bound=1, check_transitions=False, name="left")
        b = PtNet(("a", "b"), [Place(0, puts={"a": 1}, takes={"b": 1})],
                  bound=1, check_transitions=False, name="right")
        u = PtNet(("a", "b"), a.places + b.places, bound=1, check_transitions=False)
        mu = poset_keys(executions(u, 4, 2))
        ma = poset_keys(executions(a, 4, 2))
        mb = poset_keys(executions(b, 4, 2))
        assert mu == ma & mb


class TestNetFiles:
    def test_round_trip(self, nets):
        for name, net in nets.items():
            again = PtNet.from_text(net.to_text())
            assert again.to_text() == net.to_text(), name
            assert again.bound == net.bound

    def test_mult_expansion(self):
        net = PtNet.from_text(
            "net m bound=1\ntransitions t\nplace init=1 take(t)=1 put(t)=1 mult=2\n")
        assert len(net.places) == 2

    def test_missing_input_place_rejected(self):
        with pytest.raises(InputError, match="input"):
            PtNet.from_text("net x bound=1\ntransitions t\nplace init=1 put(t)=1\n")

    def test_initial_marking_above_bound_rejected(self):
        with pytest.raises(InputError, match="above the declared bound 1"):
            PtNet(("t",), [Place(5, puts={"t": 1}, takes={"t": 1})], bound=1)
        with pytest.raises(InputError, match="above the declared bound 2"):
            PtNet.from_text("net x bound=2\ntransitions t\nplace init=3 take(t)=1 put(t)=1\n")

    def test_bad_attribute(self):
        with pytest.raises(InputError, match="line 3"):
            PtNet.from_text("net x bound=1\ntransitions t\nplace init=1 foo(t)=1\n")
