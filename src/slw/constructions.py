"""Direct automaton constructions over frontier summaries.

A state summarizes the open edges ("channels") of a composed prefix: which
channels share a source vertex (classes), which sources reach which by at
least one edge (a transitively closed, acyclic relation), and, where path
covering matters, how a budget of path slots rides the channels. Everything
a construction verifies at the closure of a channel is derivable from this
summary, which keeps the state space finite. The reduced, coverable and
universal automata are `automata.sequences` over these summaries.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Optional

from .automata import SliceAutomaton, difference, explore, includes, letter_base, sequences
from .config import DEFAULT_CONFIG, InputError, PreconditionError, RunConfig
from .slices import Slice, unit_alphabet, unit_decompositions, unit_slice


class _Frontier:
    """One step of channel bookkeeping for a letter read at the current frontier."""

    __slots__ = ("letter", "closing_classes", "new_channels", "new_reach", "redundant")

    def __init__(self, channels: tuple, reach: frozenset, letter: Slice):
        self.letter = letter
        self.closing_classes = tuple(channels[p - 1] for p in letter.closing_ports)

        # Redundancy per closing port: its source also reaches the center
        # through another closing channel, i.e. the closed edge is transitive.
        closing_set = set(self.closing_classes)
        self.redundant = []
        for cls in self.closing_classes:
            self.redundant.append(any(
                other != cls and (cls, other) in reach for other in closing_set))

        raw = ["x"] * letter.n_out  # "x": born at the center
        for i, o in letter.bypass_map.items():
            raw[o - 1] = channels[i - 1]
        alive = set(raw)
        pairs = {(a, b) for a, b in reach if a in alive and b in alive}
        if "x" in alive:
            for a in alive - {"x"}:
                if a in closing_set or any((a, u) in reach for u in closing_set):
                    pairs.add((a, "x"))
        # Canonical class ids by first occurrence along the new frontier.
        rename = {}
        for cls in raw:
            if cls not in rename:
                rename[cls] = len(rename)
        self.new_channels = tuple(rename[cls] for cls in raw)
        self.new_reach = frozenset((rename[a], rename[b]) for a, b in pairs)

    def hasse_ok(self) -> bool:
        """No closing edge is transitive, and no two closing edges are parallel."""
        return (len(set(self.closing_classes)) == len(self.closing_classes)
                and not any(self.redundant))


def _slot_assignments(slots: tuple, frontier: _Frontier):
    """All legal path-slot updates for this letter.

    Slots riding a closing channel must continue onto a born channel or
    finish; unstarted slots may start at the center; every born channel must
    end up ridden; a center without closing channels must be visited by a
    starter. Slot tuples are sorted ("f" < "u" < ("r", k) by k) and each is
    yielded once.
    """
    closing, port_map = frontier.letter.closing_ports, frontier.letter.bypass_map
    born = frontier.letter.born_ports
    options = []
    for st in slots:
        if st == "f":
            options.append(("f",))
        elif st == "u":
            options.append(("u", "f") + tuple(("r", o) for o in born))
        else:
            port = st[1]
            if port in closing:
                options.append(("f",) + tuple(("r", o) for o in born))
            else:
                options.append((("r", port_map[port]),))
    seen = set()
    for combo in itertools.product(*options):
        ridden = {st[1] for st in combo if st != "f" and st != "u"}
        if any(o not in ridden for o in born):
            continue
        if not closing:
            # the center is a source vertex: some slot must start here
            visited = any(old == "u" and new != "u" for old, new in zip(slots, combo))
            if not visited:
                continue
        new_slots = tuple(sorted(combo, key=_slot_key))
        if new_slots not in seen:
            seen.add(new_slots)
            yield new_slots


def _slot_key(slot):
    return (0, slot) if isinstance(slot, str) else (1, slot[1])


@lru_cache(maxsize=None)
def reduced_automaton(c: int, labels: tuple,
                      config: RunConfig = DEFAULT_CONFIG) -> SliceAutomaton:
    """All valid sequences whose composed DAG is transitively reduced.

    Rejects, at closure time, every edge whose source reaches the center
    through another closing channel, and parallel closures.
    """
    return _summary_automaton(c, labels, "reduced automaton", True, None, config,
                              transitively_reduced=True)


@lru_cache(maxsize=None)
def coverable_automaton(c: int, labels: tuple, budget: Optional[int] = None,
                        config: RunConfig = DEFAULT_CONFIG) -> SliceAutomaton:
    """All valid sequences whose composed DAG can be covered by `budget` paths
    (default c), over the width-c alphabet.

    A budget of path slots rides the open channels; every channel is ridden
    from birth to closure, so edge and vertex coverage hold by construction.
    """
    return _summary_automaton(c, labels, "coverable automaton", False,
                              c if budget is None else budget, config, saturated=True)


@lru_cache(maxsize=None)
def universal_automaton(c: int, labels: tuple,
                        config: RunConfig = DEFAULT_CONFIG) -> SliceAutomaton:
    """The saturated, transitively reduced automaton of all partial orders
    whose Hasse diagram is coverable by c paths (read as Hasse-diagram words).

    Combines the transitive-reduction check and the path-slot budget in one
    construction; every unit decomposition of every accepted diagram is
    accepted.
    """
    return _summary_automaton(c, labels, "universal automaton", True, c, config,
                              saturated=True, transitively_reduced=True)


def _summary_automaton(c: int, labels: tuple, name: str, hasse: bool,
                       budget: Optional[int], config: RunConfig, **flags) -> SliceAutomaton:
    """`sequences` over frontier summaries (channels, reach, slots).

    With `hasse`, letters that close a transitive or parallel edge are
    rejected, which needs the reach relation; without it the stored reach
    stays empty. With a budget, that many path slots ride the channels;
    without one the slots stay empty and unchecked. The frontier step reads a
    letter's ports, never its label.
    """
    def step(summary, letter):
        channels, reach, slots = summary
        fr = _Frontier(channels, reach, letter)
        if hasse and not fr.hasse_ok():
            return ()
        new_reach = fr.new_reach if hasse else frozenset()
        slot_choices = ((),) if budget is None else _slot_assignments(slots, fr)
        return [(fr.new_channels, new_reach, new_slots) for new_slots in slot_choices]

    init_slots = () if budget is None else ("u",) * budget
    return sequences(c, labels, unit_alphabet(c, labels), ((), frozenset(), init_slots), step,
                     lambda summary: True, name=name, config=config, **flags)


def transitive_reduce_automaton(a: SliceAutomaton,
                                config: RunConfig = DEFAULT_CONFIG) -> SliceAutomaton:
    """An automaton denoting the Hasse diagrams of a's posets.

    Simulates a while tagging each open channel real or ghost (guessed at
    birth): emitted letters contain only real channels; at closure a ghost
    must be a transitive edge of the input DAG (or a parallel duplicate of a
    real channel) and a real channel must be a covering edge. The poset
    language is preserved; every composed output DAG is transitively reduced;
    one output witness is kept per input ordering.
    """
    problems = a.validate()
    if problems:
        raise InputError("transitive reduction needs a valid slice automaton: "
                         + problems[0])

    def expand(state):
        q, channels, reach, tags = state
        for s, q2 in a.adj[q]:
            letter = letter_base(s)
            fr = _Frontier(channels, reach, letter)
            if not _tags_consistent(fr, tags):
                continue
            real_in = [p for p, t in enumerate(tags, 1) if t == "r"]
            new_tags = [None] * len(fr.new_channels)
            for p, o in letter.bypass_map.items():
                new_tags[o - 1] = tags[p - 1]
            for born_tags in itertools.product("rg", repeat=len(letter.born_ports)):
                for o, t in zip(letter.born_ports, born_tags):
                    new_tags[o - 1] = t
                real_out = [o for o, t in enumerate(new_tags, 1) if t == "r"]
                bypass = {real_in.index(p) + 1: real_out.index(o) + 1
                          for p, o in letter.bypass_map.items() if tags[p - 1] == "r"}
                yield (unit_slice(letter.label, len(real_in), len(real_out), bypass),
                       (q2, fr.new_channels, fr.new_reach, tuple(new_tags)))

    return explore((0, (), frozenset(), ()), expand,
                   lambda state: state[0] in a.finals and state[1] == (),
                   a.c, a.labels, unit_alphabet(a.c, a.labels),
                   name="transitive reduction", config=config, transitively_reduced=True).trim()


def _tags_consistent(fr: _Frontier, tags: tuple) -> bool:
    """Ghost closures must be transitive (or duplicates of a real parallel
    channel); real closures must be covering and unique per source class."""
    closing = list(zip(fr.letter.closing_ports, fr.closing_classes, fr.redundant))
    real_classes = [cls for p, cls, _ in closing if tags[p - 1] == "r"]
    if len(real_classes) != len(set(real_classes)):
        return False
    for p, cls, redundant in closing:
        if tags[p - 1] == "r":
            if redundant:
                return False
        else:
            has_real_sibling = cls in real_classes
            if not (redundant or has_real_sibling):
                return False
    return True


def poset_complement(a: SliceAutomaton, config: RunConfig = DEFAULT_CONFIG) -> SliceAutomaton:
    """Complement of a's poset language within all c-coverable partial orders.

    Requires a saturated and transitively reduced: otherwise the syntactic
    difference does not denote the poset-level complement. Reducedness is
    decided exactly when unknown; saturation relies on the construction flag.
    """
    if a.transitively_reduced is None:
        a = a.with_flags(saturated=a.saturated,
                         transitively_reduced=includes(a, reduced_automaton(a.c, a.labels, config),
                                                       config))
    if not a.transitively_reduced:
        raise PreconditionError(
            "poset complement requires a transitively reduced automaton; "
            "apply transitive_reduce_automaton first")
    if a.saturated is not True:
        raise PreconditionError(
            "poset complement requires a saturated automaton (construction flag); "
            "verify with check_saturated_upto or rebuild via a saturating construction")
    return difference(universal_automaton(a.c, a.labels, config), a, config)


def check_saturated_upto(a: SliceAutomaton, n: int,
                         config: RunConfig = DEFAULT_CONFIG) -> Optional[tuple]:
    """Bounded saturation check: every unit decomposition (of any width) of
    every accepted DAG with <= n vertices must be accepted.

    Returns None if no violation is found, else (dag, decomposition) where the
    decomposition is missing from the language (or not representable at all).
    """
    for h in a.graph_members_up_to(n, config):
        wide = max(len(h.edges), 1)
        for u in unit_decompositions(h, wide, config=config):
            if u.width() > a.c or not a.accepts(u):
                return (h, u)
    return None
