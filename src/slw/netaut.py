"""Slice automata denoting the partial-order behavior of bounded p/t-nets.

States pair a frontier summary (open channels, reachability of their sources)
with a multiset of token classes. A token class records its place instance and
two sets of open channels:

  succ: channels whose source vertex is causally at-or-after the producing
        event; consuming the token at a center is legal iff some channel
        closing there is in succ (the producer strictly precedes the center).
  flow: channels whose source vertex flow-reaches the producing event;
        under the causal semantics every channel closed at a center must lie
        in the flow set of some consumed token (the closed covering edge is
        realized by a condition).

Initial-marking tokens have no producing event: they carry empty sets, impose
no order constraint on consumers, and realize no edge. The construction is
intersected with the universal automaton, which restricts composed DAGs to
path-coverable Hasse diagrams; the result is saturated and transitively
reduced, and its poset language is exactly the net's c-bounded behavior under
the chosen semantics.
"""

from __future__ import annotations

import itertools

from .automata import SliceAutomaton, explore, intersect
from .config import DEFAULT_CONFIG, InputError, RunConfig
from .constructions import _Frontier, _letters_by_width, universal_automaton
from .ptnet import PtNet
from .slices import unit_alphabet


def net_automaton(net: PtNet, c: int, sem: str,
                  config: RunConfig = DEFAULT_CONFIG) -> SliceAutomaton:
    """The saturated, transitively reduced automaton of P_sem(net, c).

    The declared bound is enforced within states (markings never exceed it),
    so the construction terminates even on probe places that would otherwise
    be unbounded; callers wanting genuine b-boundedness use check_bounded.
    """
    if sem not in ("ex", "cau"):
        raise InputError(f"semantics must be 'ex' or 'cau', not {sem!r}")
    raw = _token_game_automaton(net, c, sem, config)
    out = intersect(raw, universal_automaton(c, tuple(net.transitions), config), config)
    return out.with_flags(saturated=True, transitively_reduced=True)


def _token_game_automaton(net: PtNet, c: int, sem: str, config: RunConfig) -> SliceAutomaton:
    labels = tuple(net.transitions)
    groups = _letters_by_width(c, labels)
    causal = sem == "cau"

    def expand(state):
        channels, reach, tokens = state
        for letter in groups.get(len(channels), ()):
            fr = _Frontier(channels, reach, letter)
            if not fr.hasse_ok():
                continue
            closing = frozenset(fr.closing_ports)
            for new_tokens in _firings(net, tokens, letter.label, fr, closing, causal):
                yield letter, (fr.new_channels, fr.new_reach, new_tokens)

    init_tokens = tuple(sorted(
        ((i, True, frozenset(), frozenset()), p.tokens)
        for i, p in enumerate(net.places) if p.tokens > 0))
    return explore(((), frozenset(), init_tokens), expand, lambda state: state[0] == (),
                   c, labels, unit_alphabet(c, labels), name="token game", config=config)


def _firings(net: PtNet, tokens: tuple, t, fr: _Frontier, closing: frozenset,
             causal: bool):
    """All legal token consumptions/productions for firing t at this letter."""
    by_place: list[list] = [[] for _ in net.places]
    counts = [0] * len(net.places)
    for cls, cnt in tokens:
        by_place[cls[0]].append((cls, cnt))
        counts[cls[0]] += cnt
    if any(counts[i] < p.take(t) for i, p in enumerate(net.places)):
        return
    if any(counts[i] - p.take(t) + p.put(t) > net.bound
           for i, p in enumerate(net.places)):
        return

    per_place = []
    for i, p in enumerate(net.places):
        need = p.take(t)
        choices = []
        for combo in _multiset_choices(by_place[i], need):
            ok = True
            for cls, _ in combo:
                _, initial, succ, _flow = cls
                if not initial and not (succ & closing):
                    ok = False  # producer would not precede this center
                    break
            if ok:
                choices.append(combo)
        if not choices:
            return
        per_place.append(choices)

    born = frozenset(fr.born_ports)
    for assignment in itertools.product(*per_place):
        consumed: dict = {}
        for combo in assignment:
            for cls, k in combo:
                consumed[cls] = consumed.get(cls, 0) + k
        if causal:
            flows = [cls[3] for cls in consumed]
            if any(not any(p in f for f in flows) for p in closing):
                continue  # some closed covering edge has no realizing condition
        new_flow_from_consumed = frozenset(
            fr.port_map[p] for cls in consumed for p in cls[3] if p in fr.port_map)
        counter: dict = {}
        for cls, cnt in tokens:
            left = cnt - consumed.get(cls, 0)
            if left > 0:
                adv = _advance(cls, fr, closing, born)
                counter[adv] = counter.get(adv, 0) + left
        for i, p in enumerate(net.places):
            if p.put(t) > 0:
                cls = (i, False, born, born | new_flow_from_consumed)
                counter[cls] = counter.get(cls, 0) + p.put(t)
        yield tuple(sorted(counter.items()))


def _advance(cls, fr: _Frontier, closing: frozenset, born: frozenset):
    """Reindex a surviving token class across the frontier step."""
    place, initial, succ, flow = cls
    gains_born = bool(succ & closing)
    succ2 = frozenset(fr.port_map[p] for p in succ if p in fr.port_map)
    if gains_born:
        succ2 |= born
    flow2 = frozenset(fr.port_map[p] for p in flow if p in fr.port_map)
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
