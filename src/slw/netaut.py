"""Slice automata denoting the partial-order behavior of bounded p/t-nets.

The token game is played on the universal automaton: a state pairs a state of
universal_automaton(c, T), which admits exactly the unit decompositions of
Hasse diagrams coverable by c paths, with a multiset of token classes. A token
class records its place instance and two sets of open channels (the ports of
the current frontier):

  succ: channels whose source vertex is causally at-or-after the producing
        event; consuming the token at a center is legal iff some channel
        closing there is in succ (the producer strictly precedes the center).
  flow: channels whose source vertex flow-reaches the producing event;
        under the causal semantics every channel closed at a center must lie
        in the flow set of some consumed token (the closed covering edge is
        realized by a condition).

Only that causal check reads a flow set, so flow sets are kept under `cau`
alone: under `ex` every class carries an empty one, and states that differed
only in flow sets (and so had the same futures) are one state.

Initial-marking tokens have no producing event: they carry empty sets, impose
no order constraint on consumers, and realize no edge. A state is final when
its universal-automaton state is; the result is saturated and transitively
reduced, and its poset language is exactly the net's c-bounded behavior under
the chosen semantics.
"""

from __future__ import annotations

import itertools

from .automata import SliceAutomaton, explore
from .config import DEFAULT_CONFIG, InputError, RunConfig
from .constructions import universal_automaton
from .ptnet import PtNet


def net_automaton(net: PtNet, c: int, sem: str,
                  config: RunConfig = DEFAULT_CONFIG) -> SliceAutomaton:
    """The saturated, transitively reduced automaton of P_sem(net, c).

    The declared bound is enforced within states (markings never exceed it),
    so the construction terminates even on probe places that would otherwise
    be unbounded; callers wanting genuine b-boundedness use check_bounded.
    """
    start, step, is_final, univ = token_game(net, c, sem, config)
    succ = univ.successors()

    def expand(state):
        for letter in succ[state[0]]:
            for nxt in step(state, letter):
                yield letter, nxt

    return explore(start, expand, is_final, c, univ.labels, univ.alphabet,
                   name="token game", config=config,
                   saturated=True, transitively_reduced=True).trim()


def token_game(net: PtNet, c: int, sem: str, config: RunConfig = DEFAULT_CONFIG) -> tuple:
    """The token game of `net`, unbuilt: (start, step, is_final, universal).

    `step(state, letter)` yields the states one letter leads to: each firing
    of the letter's label, then each universal-automaton target. `is_final`
    marks the accepting states, and `universal` is universal_automaton(c, T),
    whose letters out of a state's first component are the only ones `step`
    can follow. `net_automaton` explores this game in full; a synthesis probe
    is walked only as far as an inclusion reads it.
    """
    if sem not in ("ex", "cau"):
        raise InputError(f"semantics must be 'ex' or 'cau', not {sem!r}")
    univ = universal_automaton(c, tuple(net.transitions), config)
    succ = univ.successors()
    causal = sem == "cau"
    # per label, the tokens it takes from and puts on each place
    moves = {t: (tuple(p.take(t) for p in net.places), tuple(p.put(t) for p in net.places))
             for t in net.transitions}

    def step(state, letter):
        q, tokens = state
        targets = succ[q].get(letter)
        if targets:
            for new_tokens in _firings(tokens, letter, *moves[letter.label], net.bound, causal):
                for q2 in targets:
                    yield q2, new_tokens

    init_tokens = tuple(sorted(
        ((i, True, frozenset(), frozenset()), p.tokens)
        for i, p in enumerate(net.places) if p.tokens > 0))
    return (0, init_tokens), step, lambda state: state[0] in univ.finals, univ


def _firings(tokens: tuple, letter, take: tuple, put: tuple, bound: int, causal: bool):
    """All legal token consumptions/productions for firing a letter whose
    label takes take[i] and puts put[i] tokens on place i."""
    closing, port_map = letter.closing_ports, letter.bypass_map
    n = len(take)
    by_place: list[list] = [[] for _ in range(n)]
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
        # a produced token is consumable only where its producer precedes the center
        choices = [combo for combo in _multiset_choices(by_place[i], take[i])
                   if all(initial or not succ.isdisjoint(closing)
                          for (_, initial, succ, _), _ in combo)]
        if not choices:
            return
        per_place.append(choices)

    born = frozenset(letter.born_ports)
    for assignment in itertools.product(*per_place):
        consumed: dict = {}
        for combo in assignment:
            for cls, k in combo:
                consumed[cls] = consumed.get(cls, 0) + k
        if causal:
            flows = [cls[3] for cls in consumed]
            if any(not any(p in f for f in flows) for p in closing):
                continue  # some closed covering edge has no realizing condition
            new_flow = born | frozenset(
                port_map[p] for f in flows for p in f if p in port_map)
        else:
            new_flow = frozenset()  # nothing reads flow sets under `ex`
        counter: dict = {}
        for cls, cnt in tokens:
            left = cnt - consumed.get(cls, 0)
            if left > 0:
                adv = _advance(cls, port_map, closing, born)
                counter[adv] = counter.get(adv, 0) + left
        for i in range(n):
            if put[i] > 0:
                cls = (i, False, born, new_flow)
                counter[cls] = counter.get(cls, 0) + put[i]
        yield tuple(sorted(counter.items()))


def _advance(cls, port_map: dict, closing: tuple, born: frozenset):
    """Reindex a surviving token class across the frontier step."""
    place, initial, succ, flow = cls
    succ2 = frozenset(port_map[p] for p in succ if p in port_map)
    if not succ.isdisjoint(closing):
        succ2 |= born
    flow2 = frozenset(port_map[p] for p in flow if p in port_map)
    return (place, initial, succ2, flow2)


def _multiset_choices(classes: list, need: int):
    """All ways to take `need` tokens from counted classes."""
    if need == 0:
        yield ()
        return
    if not classes:
        return
    (cls, cnt), rest = classes[0], classes[1:]
    for k in range(min(cnt, need), -1, -1):
        for tail in _multiset_choices(rest, need - k):
            yield (((cls, k),) + tail) if k else tail
