"""Place/transition nets: token game, boundedness, process semantics oracles.

A place is (initial tokens, puts per transition, takes per transition); a net
is a finite multiset of places over a shared transition set, with a declared
bound. The net's behavior is the token game restricted to markings within the
declared bound; the process oracle enforces the same cap along its
construction order, and `check_bounded` is the exact test that the cap never
bites.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Iterable, NamedTuple, Optional, Sequence

from .config import (DEFAULT_CONFIG, InputError, ResourceError, RunConfig, count,
                     split_fields, text_lines)
from .dag import LabeledDag, LabeledPoset, dedup_posets


class Place:
    """A place over a transition set: initial tokens, puts and takes per transition."""

    __slots__ = ("tokens", "puts", "takes", "name", "_key")

    def __init__(self, tokens: int, puts: Optional[dict] = None,
                 takes: Optional[dict] = None, name: str = ""):
        if tokens < 0:
            raise InputError("initial token count must be >= 0")
        self.tokens = tokens
        self.puts = {t: k for t, k in (puts or {}).items() if k}
        self.takes = {t: k for t, k in (takes or {}).items() if k}
        if any(k < 0 for k in self.puts.values()) or any(k < 0 for k in self.takes.values()):
            raise InputError("token flows must be >= 0")
        self.name = name
        self._key = (tokens, tuple(sorted(self.puts.items())),
                     tuple(sorted(self.takes.items())))

    def put(self, t) -> int:
        return self.puts.get(t, 0)

    def take(self, t) -> int:
        return self.takes.get(t, 0)

    def key(self):
        """Structural identity (name-independent); repeated places share a key."""
        return self._key

    def __eq__(self, other):
        return isinstance(other, Place) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        return f"Place(tokens={self.tokens}, puts={self.puts}, takes={self.takes})"


class PtNet:
    """A p/t-net: transition symbols plus a multiset of place instances."""

    def __init__(self, transitions: Sequence, places: Sequence[Place],
                 bound: int = 1, name: str = "net", check_transitions: bool = True):
        self.transitions = tuple(sorted(transitions))
        if len(set(self.transitions)) != len(self.transitions) or not self.transitions:
            raise InputError("transition symbols must be distinct and nonempty")
        self.places = tuple(places)
        self.bound = bound
        self.name = name
        if bound < 1:
            raise InputError("declared bound must be >= 1")
        for p in self.places:
            if p.tokens > bound:
                raise InputError(f"place {p.name or '?'} starts with {p.tokens} tokens, "
                                 f"above the declared bound {bound}")
            extra = (set(p.puts) | set(p.takes)) - set(self.transitions)
            if extra:
                raise InputError(f"place mentions unknown transitions: {sorted(extra)}")
        if check_transitions:
            for t in self.transitions:
                if not any(p.put(t) > 0 for p in self.places):
                    raise InputError(f"transition {t!r} has no output place")
                if not any(p.take(t) > 0 for p in self.places):
                    raise InputError(f"transition {t!r} has no input place")

    def initial_marking(self) -> tuple:
        return tuple(p.tokens for p in self.places)

    def __repr__(self):
        return f"PtNet({self.name!r}, |P|={len(self.places)}, T={self.transitions}, b={self.bound})"

    # -- serialization --------------------------------------------------------------

    def to_text(self) -> str:
        lines = [f"net {self.name} bound={self.bound}",
                 "transitions " + " ".join(str(t) for t in self.transitions)]
        # only neighbours merge into one `mult=` line, so names and order survive
        for _, group in itertools.groupby(self.places, lambda p: (p.key(), p.name)):
            p, *copies = group
            parts = ["place"]
            if p.name:
                parts.append(p.name)
            parts.append(f"init={p.tokens}")
            for t in sorted(p.takes):
                parts.append(f"take({t})={p.takes[t]}")
            for t in sorted(p.puts):
                parts.append(f"put({t})={p.puts[t]}")
            if copies:
                parts.append(f"mult={1 + len(copies)}")
            lines.append(" ".join(parts))
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_text(text: str, config: RunConfig = DEFAULT_CONFIG) -> "PtNet":
        """Parse the `.net` format: a net line, a transitions line, then one line
        per place; `mult` repeats a place, up to `config.max_states` places."""
        name, transitions, bound, places = None, None, 1, []
        for n, line in text_lines(text):
            kind, *words = line.split()
            bare, fields = split_fields(n, words)
            if kind == "net":
                if name is not None or len(bare) != 1 or set(fields) - {"bound"}:
                    raise InputError(f"line {n}: expected one 'net NAME bound=B' line")
                name, bound = bare[0], count(n, "bound", fields.get("bound", "1"))
            elif kind == "transitions":
                if transitions is not None or not bare or fields:
                    raise InputError(f"line {n}: expected one 'transitions T ...' line")
                transitions = bare
            elif kind == "place":
                if transitions is None or len(bare) > 1:
                    raise InputError(f"line {n}: expected 'place [NAME] FIELD=COUNT ...' "
                                     "after the transitions line")
                counts, flows = {"init": 0, "mult": 1}, {"take": {}, "put": {}}
                for key, value in fields.items():
                    flow, _, t = key.partition("(")
                    if key in counts:
                        counts[key] = count(n, key, value)
                    elif flow in flows and t.endswith(")"):
                        flows[flow][t[:-1]] = count(n, key, value)
                    else:
                        raise InputError(f"line {n}: unknown place attribute {key}={value}")
                mult = counts["mult"]
                if mult < 1:
                    raise InputError(f"line {n}: mult must be >= 1")
                if len(places) + mult > config.max_states:
                    raise ResourceError(f"line {n}: too many places: {len(places) + mult}",
                                        context=f"max_states={config.max_states}")
                places += [Place(counts["init"], flows["put"], flows["take"], *bare)] * mult
            else:
                raise InputError(f"line {n}: unexpected {kind!r}")
        if name is None or transitions is None:
            raise InputError("net file needs 'net' and 'transitions' lines")
        return PtNet(transitions, places, bound=bound, name=name)


# -- token game -------------------------------------------------------------------


def enabled(net: PtNet, marking: tuple, t) -> bool:
    if t not in net.transitions:
        raise InputError(f"unknown transition {t!r}")
    return all(marking[i] >= p.take(t) for i, p in enumerate(net.places))


def fire(net: PtNet, marking: tuple, t) -> tuple:
    if not enabled(net, marking, t):
        raise InputError(f"transition {t!r} is not enabled at {marking}")
    return tuple(marking[i] - p.take(t) + p.put(t) for i, p in enumerate(net.places))


def check_bounded(net: PtNet, b: int) -> tuple[bool, Optional[tuple]]:
    """Explore reachable markings with counts capped at b+1; on the first
    violation return (False, witness occurrence sequence)."""
    m0 = net.initial_marking()
    if any(x > b for x in m0):
        return False, ()
    seen = {m0}
    queue = deque([(m0, ())])
    while queue:
        m, seq = queue.popleft()
        for t in net.transitions:
            if not enabled(net, m, t):
                continue
            m2 = fire(net, m, t)
            if any(x > b for x in m2):
                return False, seq + (t,)
            m2 = tuple(min(x, b + 1) for x in m2)
            if m2 not in seen:
                seen.add(m2)
                queue.append((m2, seq + (t,)))
    return True, None


def occurrence_sequences(net: PtNet, k: int) -> list[tuple]:
    """All firing sequences of length <= k within the declared bound."""
    out = [()]
    frontier = [(net.initial_marking(), ())]
    for _ in range(k):
        nxt = []
        for m, seq in frontier:
            for t in net.transitions:
                if enabled(net, m, t):
                    m2 = fire(net, m, t)
                    if any(x > net.bound for x in m2):
                        continue
                    nxt.append((m2, seq + (t,)))
        out.extend(seq for _, seq in nxt)
        frontier = nxt
    return out


# -- processes --------------------------------------------------------------------


class Condition(NamedTuple):
    place: int                # place instance index
    producer: Optional[int]   # event index, None for initial conditions
    consumer: Optional[int]


class ProcessNet:
    """An occurrence net labeled over a net: one concurrent run.

    Conditions are unbranched by representation (single producer/consumer).
    """

    def __init__(self, net: PtNet, events: tuple, conditions: tuple):
        self.net = net
        self.events = tuple(events)          # transition labels, in construction order
        self.conditions = tuple(conditions)  # Condition records

    def validate(self) -> list[str]:
        """Check the process-definition conditions; empty report iff valid."""
        report = []
        net = self.net
        for v, t in enumerate(self.events):
            for i, p in enumerate(net.places):
                pre = sum(1 for c in self.conditions
                          if c.place == i and c.consumer == v)
                post = sum(1 for c in self.conditions
                           if c.place == i and c.producer == v)
                if pre != p.take(t):
                    report.append(f"event {v} consumes {pre} from place {i}, needs {p.take(t)}")
                if post != p.put(t):
                    report.append(f"event {v} produces {post} into place {i}, needs {p.put(t)}")
        for i, p in enumerate(net.places):
            roots = sum(1 for c in self.conditions
                        if c.place == i and c.producer is None)
            if roots != p.tokens:
                report.append(f"place {i} has {roots} initial conditions, needs {p.tokens}")
        for c in self.conditions:
            if c.producer is not None and c.consumer is not None \
                    and c.producer >= c.consumer:
                report.append(f"condition {c} consumed no later than produced")
        try:
            self.occurrence_dag()
        except InputError:
            report.append("flow relation has a cycle")
        return report

    def occurrence_dag(self) -> LabeledDag:
        labels = {}
        edges = []
        for v, t in enumerate(self.events):
            labels[("e", v)] = ("event", t)
        for j, c in enumerate(self.conditions):
            labels[("b", j)] = ("cond", self.net.places[c.place].key())
        for j, c in enumerate(self.conditions):
            if c.producer is not None:
                edges.append((("e", c.producer), ("b", j)))
            if c.consumer is not None:
                edges.append((("b", j), ("e", c.consumer)))
        return LabeledDag(labels, edges)

    def causal_order(self) -> LabeledPoset:
        """Transitive closure of the flow restricted to events."""
        labels = {v: t for v, t in enumerate(self.events)}
        edges = set()
        for c in self.conditions:
            if c.producer is not None and c.consumer is not None:
                edges.add((c.producer, c.consumer))
        dag = LabeledDag(labels, sorted(edges))
        return dag.transitive_closure()

    def canonical_key(self):
        return self.occurrence_dag().canonical_key()

    def n_events(self) -> int:
        return len(self.events)


def processes(net: PtNet, k: int, config: RunConfig = DEFAULT_CONFIG) -> list[ProcessNet]:
    """All processes with <= k events, up to isomorphism.

    Forward construction: start with the initial conditions; repeatedly fire a
    transition on a choice of unconsumed conditions matching its takes, within
    the declared bound.
    """
    if k > config.max_enum_vertices:
        raise ResourceError(f"process enumeration beyond cap: {k} events",
                            context=f"max_enum_vertices={config.max_enum_vertices}")
    initial = ProcessNet(net, (), tuple(
        Condition(i, None, None)
        for i, p in enumerate(net.places) for _ in range(p.tokens)))
    out = {initial.canonical_key(): initial}
    frontier = [initial]
    for _ in range(k):
        nxt = []
        for proc in frontier:
            for ext in _extensions(net, proc):
                key = ext.canonical_key()
                if key not in out:
                    out[key] = ext
                    nxt.append(ext)
        frontier = nxt
    return [out[key] for key in sorted(out)]


def _extensions(net: PtNet, proc: ProcessNet) -> Iterable[ProcessNet]:
    avail_by_place: list[list[int]] = [[] for _ in net.places]
    counts = [0] * len(net.places)
    for j, c in enumerate(proc.conditions):
        if c.consumer is None:
            avail_by_place[c.place].append(j)
            counts[c.place] += 1
    v = len(proc.events)
    for t in net.transitions:
        if any(counts[i] < p.take(t) for i, p in enumerate(net.places)):
            continue
        if any(counts[i] - p.take(t) + p.put(t) > net.bound
               for i, p in enumerate(net.places)):
            continue
        per_place = [itertools.combinations(avail_by_place[i], p.take(t))
                     for i, p in enumerate(net.places)]
        for chosen in itertools.product(*per_place):
            consumed = set(itertools.chain.from_iterable(chosen))
            conds = tuple(
                c if j not in consumed else Condition(c.place, c.producer, v)
                for j, c in enumerate(proc.conditions))
            fresh = tuple(Condition(i, v, None)
                          for i, p in enumerate(net.places) for _ in range(p.put(t)))
            yield ProcessNet(net, proc.events + (t,), conds + fresh)


def causal_orders(net: PtNet, k: int, c: Optional[int] = None,
                  config: RunConfig = DEFAULT_CONFIG) -> list[LabeledPoset]:
    """Causal orders of all nonempty <= k-event processes, optionally
    restricted to orders whose Hasse diagram is coverable by c paths.

    The empty run is excluded: behavior languages are over nonempty runs,
    matching the nonempty-decomposition convention."""
    orders = [p.causal_order() for p in processes(net, k, config)
              if p.n_events() > 0]
    if c is not None:
        orders = [o for o in orders if o.is_c_partial_order(c)]
    return dedup_posets(orders)


def executions(net: PtNet, k: int, c: Optional[int] = None,
               config: RunConfig = DEFAULT_CONFIG) -> list[LabeledPoset]:
    """Sequentializations (order-supersets on the same labeled events) of the
    causal orders, optionally restricted to c-coverable ones."""
    out = []
    for base in causal_orders(net, k, None, config):
        out.extend(_extensions_of_order(base))
    if c is not None:
        out = [o for o in out if o.is_c_partial_order(c)]
    return dedup_posets(out)


def _extensions_of_order(base: LabeledPoset) -> list[LabeledPoset]:
    """Every order on base's labeled events that contains base's order.

    An order S above P holds a pair (u, v) that P leaves incomparable, and
    then the closure of P plus (u, v) lies inside S: so every extension is
    reached from base by ordering one incomparable pair at a time."""
    out, seen = [base], {base.order}
    for po in out:  # out grows while it is read: breadth-first
        for u, v in itertools.permutations(po.vertices, 2):
            if (u, v) not in po.order and (v, u) not in po.order:
                ext = LabeledDag(po.labels, po.order | {(u, v)}).transitive_closure()
                if ext.order not in seen:
                    seen.add(ext.order)
                    out.append(ext)
    return out
