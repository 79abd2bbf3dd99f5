"""Behavior automata of nets versus the process-enumeration oracles."""

import collections
import hashlib
import itertools

import pytest

from slw.automata import equivalent, explore
from slw.config import InputError, ResourceError, RunConfig
from slw.constructions import check_saturated_upto, universal_automaton
from slw.dag import LabeledPoset
from slw import netaut
from slw.netaut import _multiset_choices, net_automaton, token_game
from slw.ptnet import Place, PtNet, causal_orders, executions, occurrence_sequences

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


WEIGHTED = {
    "W": PtNet(("t",), [Place(2, puts={"t": 2}, takes={"t": 2})], bound=2, name="W"),
    "V": PtNet(("s", "u"), [Place(1, takes={"s": 1}),
                            Place(0, puts={"s": 2}, takes={"u": 1}),
                            Place(0, puts={"u": 1})], bound=2, name="V"),
}


class TestWeightedArcs:
    """Nets whose transitions move more than one token per place."""

    @pytest.mark.parametrize("sem", ["ex", "cau"])
    @pytest.mark.parametrize("c", [1, 2])
    def test_double_weight_self_loop(self, sem, c):
        net = WEIGHTED["W"]
        oracle = executions if sem == "ex" else causal_orders
        aut = net_automaton(net, c, sem)
        assert poset_keys(aut.po_members_up_to(4)) == poset_keys(oracle(net, 4, c))

    @pytest.mark.parametrize("sem", ["ex", "cau"])
    @pytest.mark.parametrize("c", [1, 2])
    def test_fork_by_weighted_production(self, sem, c):
        net = WEIGHTED["V"]
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

    @pytest.mark.parametrize("name, sem, digest", [
        ("N0", "ex", "0b72229d5fe83f92dc52b9ab5ac48ef5ef3becbe329fc8e00f568e3813c86bda"),
        ("N1", "ex", "965d4a19b91e7d0e126a2df033b7482d08ad4a666b13b181e9d984a9e74f439a"),
        ("N2", "ex", "1acc6ab40c7de71e1bf797aa84f811a3cb5ad529795307dc6bf914bb9ddfc9ab"),
        ("N3", "cau", "c799e2118195fcc371e68a7e9003cde766e56014daa608429c2876e1aced3964"),
    ])
    def test_text_is_pinned(self, name, sem, digest):
        # any drift in state numbering, letter order or literal spelling shows here
        text = cached_net_automaton(name, 3, sem).to_text()
        assert hashlib.sha256(text.encode()).hexdigest() == digest


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


def _reference_net_automaton(net, c, sem):
    """The token game in which every class carries its flow set under both
    semantics, as built before `ex` dropped them: the reference for the
    `ex` language and the `cau` bytes."""
    univ = universal_automaton(c, tuple(net.transitions))
    succ = univ.successors()
    causal = sem == "cau"
    moves = {t: (tuple(p.take(t) for p in net.places), tuple(p.put(t) for p in net.places))
             for t in net.transitions}

    def expand(state):
        q, tokens = state
        for letter, targets in succ[q].items():
            for new_tokens in _reference_firings(tokens, letter, *moves[letter.label],
                                                 net.bound, causal):
                for q2 in targets:
                    yield letter, (q2, new_tokens)

    init_tokens = tuple(sorted(
        ((i, True, frozenset(), frozenset()), p.tokens)
        for i, p in enumerate(net.places) if p.tokens > 0))
    return explore((0, init_tokens), expand, lambda state: state[0] in univ.finals,
                   c, univ.labels, univ.alphabet, name="reference token game",
                   saturated=True, transitively_reduced=True).trim()


def _reference_firings(tokens, letter, take, put, bound, causal):
    closing, port_map = letter.closing_ports, letter.bypass_map
    n = len(take)
    by_place = [[] for _ in range(n)]
    counts = [0] * n
    for cls, cnt in tokens:
        by_place[cls[0]].append((cls, cnt))
        counts[cls[0]] += cnt
    if any(counts[i] < take[i] for i in range(n)):
        return
    if any(counts[i] - take[i] + put[i] > bound for i in range(n)):
        return
    per_place = []
    for i in range(n):
        choices = [combo for combo in _multiset_choices(by_place[i], take[i])
                   if all(initial or not succ.isdisjoint(closing)
                          for (_, initial, succ, _), _ in combo)]
        if not choices:
            return
        per_place.append(choices)
    born = frozenset(letter.born_ports)
    for assignment in itertools.product(*per_place):
        consumed = {}
        for combo in assignment:
            for cls, k in combo:
                consumed[cls] = consumed.get(cls, 0) + k
        if causal:
            flows = [cls[3] for cls in consumed]
            if any(not any(p in f for f in flows) for p in closing):
                continue
        new_flow_from_consumed = frozenset(
            port_map[p] for cls in consumed for p in cls[3] if p in port_map)
        counter = {}
        for cls, cnt in tokens:
            left = cnt - consumed.get(cls, 0)
            if left > 0:
                adv = _reference_advance(cls, port_map, closing, born)
                counter[adv] = counter.get(adv, 0) + left
        for i in range(n):
            if put[i] > 0:
                cls = (i, False, born, born | new_flow_from_consumed)
                counter[cls] = counter.get(cls, 0) + put[i]
        # sorted on a total key: frozensets alone compare by inclusion
        yield tuple(sorted(counter.items(), key=lambda item: (
            item[0][0], item[0][1], sorted(item[0][2]), sorted(item[0][3]))))


def _reference_advance(cls, port_map, closing, born):
    place, initial, succ, flow = cls
    succ2 = frozenset(port_map[p] for p in succ if p in port_map)
    if not succ.isdisjoint(closing):
        succ2 |= born
    flow2 = frozenset(port_map[p] for p in flow if p in port_map)
    return (place, initial, succ2, flow2)


_GAME_CASES = [(name, c) for name in ("N0", "N1", "N2", "N3", "N4", "N5") for c in (1, 2)] \
    + [(name, 3) for name in ("N0", "N1", "N2", "N3")]


class TestFlowSets:
    """Flow sets are read only under `cau`; `ex` classes carry none."""

    @pytest.mark.parametrize("name,c", _GAME_CASES)
    def test_ex_game_equals_flow_carrying_game(self, nets, name, c):
        assert equivalent(cached_net_automaton(name, c, "ex"),
                          _reference_net_automaton(nets[name], c, "ex"))

    @pytest.mark.parametrize("name,c", _GAME_CASES)
    def test_cau_game_unchanged(self, nets, name, c):
        assert cached_net_automaton(name, c, "cau").to_text() \
            == _reference_net_automaton(nets[name], c, "cau").to_text()

    def test_ex_games_carry_no_flow_sets(self, nets):
        # with flow sets the trimmed games have 152, 272 and 148 states
        sizes = {name: len(cached_net_automaton(name, 3, "ex").states)
                 for name in ("N0", "N2", "N3")}
        assert sizes == {"N0": 113, "N2": 199, "N3": 79}


class TestCanonicalMultisets:
    """A game state lists its token multiset in one order only."""

    @pytest.mark.parametrize("name,sem", [("N2", "ex"), ("N2", "cau"), ("N5", "cau")])
    def test_equal_multisets_are_one_state(self, nets, name, sem):
        start, step, _, univ = token_game(nets[name], 3, sem)
        succ = univ.successors()
        seen, frontier = {start}, [start]
        while frontier:
            frontier = [nxt for state in frontier for letter in succ[state[0]]
                        for nxt in step(state, letter)]
            frontier = [s for s in dict.fromkeys(frontier) if s not in seen]
            seen.update(frontier)
        assert len(seen) == len({(q, tuple(frozenset(run) for run in runs))
                                 for q, runs in seen})


def _flat_net_automaton(net, c, sem):
    """The token game on one flat multiset of (place, initial, succ, flow)
    classes, re-sorted whole on every firing, as played before each place kept
    its own run: the reference for the per-place game's bytes."""
    univ = universal_automaton(c, tuple(net.transitions))
    succ = univ.successors()
    causal = sem == "cau"
    moves = {t: (tuple(p.take(t) for p in net.places), tuple(p.put(t) for p in net.places))
             for t in net.transitions}

    def expand(state):
        q, tokens = state
        for letter, targets in succ[q].items():
            for new_tokens in _flat_firings(tokens, letter, *moves[letter.label],
                                            net.bound, causal):
                for q2 in targets:
                    yield letter, (q2, new_tokens)

    init_tokens = tuple(sorted(
        ((i, True, (), ()), p.tokens)
        for i, p in enumerate(net.places) if p.tokens > 0))
    return explore((0, init_tokens), expand, lambda state: state[0] in univ.finals,
                   c, univ.labels, univ.alphabet, name="flat token game",
                   saturated=True, transitively_reduced=True).trim()


def _flat_firings(tokens, letter, take, put, bound, causal):
    closing, port_map, born = frozenset(letter.closing_ports), letter.bypass_map, letter.born_ports
    n = len(take)
    by_place = [[] for _ in range(n)]
    counts = [0] * n
    for cls, cnt in tokens:
        by_place[cls[0]].append((cls, cnt))
        counts[cls[0]] += cnt
    if any(counts[i] < take[i] for i in range(n)):
        return
    if any(counts[i] - take[i] + put[i] > bound for i in range(n)):
        return
    per_place = []
    for i in range(n):
        choices = [combo for combo in _multiset_choices(by_place[i], take[i])
                   if all(initial or not closing.isdisjoint(succ)
                          for (_, initial, succ, _), _ in combo)]
        if not choices:
            return
        per_place.append(choices)
    for assignment in itertools.product(*per_place):
        consumed = {}
        for combo in assignment:
            for cls, k in combo:
                consumed[cls] = consumed.get(cls, 0) + k
        if causal:
            flows = [cls[3] for cls in consumed]
            if any(not any(p in f for f in flows) for p in closing):
                continue
            new_flow = tuple(sorted(set(born).union(
                port_map[p] for f in flows for p in f if p in port_map)))
        else:
            new_flow = ()
        counter = {}
        for cls, cnt in tokens:
            left = cnt - consumed.get(cls, 0)
            if left > 0:
                adv = _flat_advance(cls, port_map, closing, born)
                counter[adv] = counter.get(adv, 0) + left
        for i in range(n):
            if put[i] > 0:
                cls = (i, False, born, new_flow)
                counter[cls] = counter.get(cls, 0) + put[i]
        yield tuple(sorted(counter.items()))


def _flat_advance(cls, port_map, closing, born):
    place, initial, succ, flow = cls
    succ2 = {port_map[p] for p in succ if p in port_map}
    if not closing.isdisjoint(succ):
        succ2.update(born)
    flow2 = sorted(port_map[p] for p in flow if p in port_map)
    return (place, initial, tuple(sorted(succ2)), tuple(flow2))


class TestPerPlaceRuns:
    """One run per place makes the same game as one flat multiset."""

    @pytest.mark.parametrize("sem", ["ex", "cau"])
    @pytest.mark.parametrize("c", [1, 2, 3])
    @pytest.mark.parametrize("name", ["N0", "N1", "N2", "N3", "N4", "N5", "W", "V"])
    def test_same_text_as_the_flat_game(self, nets, name, c, sem):
        net = WEIGHTED[name] if name in WEIGHTED else nets[name]
        assert net_automaton(net, c, sem).to_text() \
            == _flat_net_automaton(net, c, sem).to_text()

    @pytest.mark.parametrize("sem", ["ex", "cau"])
    def test_firing_product_is_capped(self, monkeypatch, sem):
        # t takes one of each place's two tokens: after one t, the next t has
        # 2^6 = 64 assignments, and the firing is refused before any is built
        net = PtNet(("t",), [Place(2, puts={"t": 1}, takes={"t": 1})] * 6,
                    bound=2, name="F")
        calls = _count_place_options(monkeypatch)
        start, step, _, univ = token_game(net, 1, sem, RunConfig(max_states=63))
        succ = univ.successors()
        seen, frontier = {start}, [start]
        with pytest.raises(ResourceError, match="state cap exceeded in token game"):
            while frontier:
                frontier = [nxt for state in frontier for letter in succ[state[0]]
                            for nxt in step(state, letter) if nxt not in seen]
                seen.update(frontier)
        assert len(seen) < 10
        # the six equal places share one computation per (run, letter)
        assert calls and set(calls.values()) == {1}


def _count_place_options(monkeypatch):
    """Count the calls of netaut._place_options, by key."""
    calls = collections.Counter()
    compute = netaut._place_options

    def counted(run, letter, take, put, bound, causal):
        calls[run, letter, take, put] += 1
        return compute(run, letter, take, put, bound, causal)

    monkeypatch.setattr(netaut, "_place_options", counted)
    return calls


class TestPlaceOptionsMemo:
    """Each token game works out a place's share of a firing once per key."""

    @pytest.mark.parametrize("name,sem", [("N2", "ex"), ("N3", "cau")])
    def test_each_key_is_computed_once_per_game(self, nets, monkeypatch, name, sem):
        calls = _count_place_options(monkeypatch)
        text = net_automaton(nets[name], 3, sem).to_text()
        assert calls and set(calls.values()) == {1}
        # the memo is dropped with its game: a second game works each key out again
        assert net_automaton(nets[name], 3, sem).to_text() == text
        assert set(calls.values()) == {2}


def _chain_order(poset):
    return sorted(poset.vertices, key=lambda v: sum(1 for u in poset.vertices
                                                    if poset.less(u, v)))
