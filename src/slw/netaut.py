"""Slice automata denoting the partial-order behavior of bounded p/t-nets.

The token game is played on the universal automaton: a state pairs a state of
universal_automaton(c, T), which admits exactly the unit decompositions of
Hasse diagrams coverable by c paths and is deterministic, so each firing has
one universal-automaton target, with one run per place: its token multiset
as sorted (class, count) pairs. A token class (initial, succ, flow) holds two
sets of open channels (the ports of the current frontier) as sorted tuples:

  succ: channels whose source vertex is causally at-or-after the producing
        event; consuming the token at a center is legal iff some channel
        closing there is in succ (the producer strictly precedes the center).
  flow: channels whose source vertex flow-reaches the producing event;
        under the causal semantics every channel closed at a center must lie
        in the flow set of some consumed token (the closed covering edge is
        realized by a condition).

Only that causal check reads a flow set, so flow sets are kept under `cau`
alone. Under `ex` every class carries an empty one, places do not interact,
and a firing is the product of each place's next runs. Under `cau` the consumed
flows of all places decide the produced class. The product of the places'
choice counts is capped by `--max-states`. Sorted tuples compare totally, so
each run is canonical: equal markings always make one state.

Each game keeps one memo of per-place firing options, keyed on (run, letter,
take, put). That is sound because a place's options depend on nothing else:
its run, the letter's ports, the tokens the label takes from and puts on it,
and the net's bound, which is fixed for the game. Under `ex` an option is the
place's next run; under `cau` it is the consumed flows and the advanced
leftover run, to which the firing adds its produced class. Equal places share
entries, a walk computes only the keys it reads, and the memo goes with its
game.

Initial-marking tokens have no producing event: they carry empty sets, impose
no order constraint on consumers, and realize no edge. A state is final when
its universal-automaton state is; the result is saturated and transitively
reduced, and its poset language is exactly the net's c-bounded behavior under
the chosen semantics.
"""

from __future__ import annotations

import itertools
import math

from .automata import SliceAutomaton, explore
from .config import DEFAULT_CONFIG, InputError, ResourceError, RunConfig
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
        for letter, targets in succ[state[0]].items():
            for nxt in step(state, letter, targets):
                yield letter, nxt

    return explore(start, expand, is_final, c, univ.labels, univ.alphabet,
                   name="token game", config=config,
                   saturated=True, transitively_reduced=True).trim()


def token_game(net: PtNet, c: int, sem: str, config: RunConfig = DEFAULT_CONFIG) -> tuple:
    """The token game of `net`, unbuilt: (start, step, is_final, universal).

    `step(state, letter, targets=None)` yields the states one letter leads
    to: each firing of the letter's label, then each universal-automaton
    target, `targets` when the caller has looked them up. `is_final`
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

    options: dict = {}  # this game's memo: (run, letter, take, put) -> _place_options

    def step(state, letter, targets=None):
        q, runs = state
        if targets is None:
            targets = succ[q].get(letter)
        if targets:
            for new_runs in _firings(runs, letter, *moves[letter.label], options, net.bound,
                                     causal, config.max_states):
                for q2 in targets:
                    yield q2, new_runs

    init_runs = tuple((((True, (), ()), p.tokens),) if p.tokens > 0 else ()
                      for p in net.places)
    return (0, init_runs), step, lambda state: state[0] in univ.finals, univ


def _firings(runs: tuple, letter, take: tuple, put: tuple, options: dict, bound: int,
             causal: bool, cap: int):
    """The next runs of every legal firing of a letter whose label takes take[i]
    and puts put[i] tokens on place i, each place's options read from `options`."""
    per_place = []
    for key in zip(runs, itertools.repeat(letter), take, put):
        opts = options.get(key)
        if opts is None:
            opts = options[key] = _place_options(*key, bound, causal)
        if not opts:
            return
        per_place.append(opts)
    if math.prod(map(len, per_place)) > cap:
        raise ResourceError("state cap exceeded in token game", context=f"max_states={cap}")
    if not causal:  # nothing reads flow sets: each place's next run is its own
        yield from itertools.product(*per_place)
        return
    closing, port_map, born = letter.closing_ports, letter.bypass_map, letter.born_ports
    for assignment in itertools.product(*per_place):
        flows = frozenset().union(*[consumed for consumed, _ in assignment])
        if not flows.issuperset(closing):
            continue  # some closed covering edge has no realizing condition
        produced = (False, born, tuple(sorted(set(born).union(
            port_map[q] for q in flows if q in port_map))))
        yield tuple(_with_produced(left, p, produced) for (_, left), p in zip(assignment, put))


def _place_options(run: tuple, letter, k: int, p: int, bound: int, causal: bool) -> tuple:
    """One place's share of every firing of a letter that takes k and puts p
    tokens there: () when the place blocks it, else one entry per consumption
    choice, in `_multiset_choices` order. Under `ex` an entry is the place's
    next run; under `cau` it is (the ports of the consumed flow sets, the
    advanced leftover run), to which the firing adds its produced class."""
    if not k <= sum(cnt for _, cnt in run) <= bound + k - p:
        return ()
    closing, port_map, born = frozenset(letter.closing_ports), letter.bypass_map, letter.born_ports
    options = []
    # a produced token is consumable only where its producer precedes the center
    for combo in _multiset_choices([(cls, cnt) for cls, cnt in run
                                    if cls[0] or not closing.isdisjoint(cls[1])], k):
        consumed, left = dict(combo), {}
        for cls, cnt in run:
            cnt -= consumed.get(cls, 0)
            if cnt > 0:
                adv = _advance(cls, port_map, closing, born)
                left[adv] = left.get(adv, 0) + cnt
        left = tuple(sorted(left.items()))  # classes compare totally: canonical order
        if causal:
            options.append((frozenset(q for cls in consumed for q in cls[2]), left))
        else:
            options.append(_with_produced(left, p, (False, born, ())))
    return tuple(options)


def _with_produced(left: tuple, p: int, produced: tuple) -> tuple:
    """The run `left` plus p tokens of class `produced`."""
    if not p:
        return left
    merged = dict(left)
    merged[produced] = merged.get(produced, 0) + p
    return tuple(sorted(merged.items()))


def _advance(cls, port_map: dict, closing: frozenset, born: tuple):
    """Reindex a surviving token class across the frontier step."""
    initial, succ, flow = cls
    succ2 = {port_map[p] for p in succ if p in port_map}
    if not closing.isdisjoint(succ):
        succ2.update(born)
    flow2 = sorted(port_map[p] for p in flow if p in port_map)
    return (initial, tuple(sorted(succ2)), tuple(flow2))


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
