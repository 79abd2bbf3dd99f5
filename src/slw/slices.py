"""Unit slices, composition, the unit alphabet, and decomposition enumeration.

A slice is a DAG fragment with numbered in-ports and out-ports and one center
vertex; it serves as an automaton letter. A word of slices whose neighbours
glue (out-ports of one match the in-ports of the next) composes into a DAG.
Letters are identified structurally (the center is anonymous, ports keep
their numbers), so equality and hashing are decidable and canonical.

Endpoint encoding inside a slice: ("i", k) is in-port k, ("o", k) is out-port
k (both 1-based), and ("c", 0) is the center.
"""

from __future__ import annotations

import itertools
import re
from functools import lru_cache
from types import MappingProxyType
from typing import Iterable, Iterator, Optional, Sequence

from .config import DEFAULT_CONFIG, MAX_ENUM_EDGES, InputError, ResourceError, RunConfig
from .dag import LabeledDag


class Slice:
    """A unit slice: one center vertex with label `label`, numbered frontier ports.

    Construction also records, for reading the slice as a letter, where each
    frontier port goes:

    - `closing_ports`: the in-ports whose edge ends at the center, as a sorted
      tuple;
    - `bypass_map`: in-port -> out-port for the edges that cross the slice
      without touching the center, in increasing in-port order. The dict is
      shared by every reader of the slice and must not be written to;
    - `born_ports`: the out-ports whose edge starts at the center, as a sorted
      tuple.
    """

    __slots__ = ("n_in", "n_out", "label", "edges", "_hash",
                 "closing_ports", "bypass_map", "born_ports")

    def __init__(self, n_in: int, n_out: int, label, edges: Iterable[tuple]):
        self.n_in = n_in
        self.n_out = n_out
        self.label = label
        self.edges = tuple(sorted(edges))
        self._hash = hash((self.n_in, self.n_out, self.label, self.edges))
        self._validate()
        self.closing_ports = tuple(sorted(s[1] for s, d in self.edges
                                          if s[0] == "i" and d[0] == "c"))
        self.bypass_map = {s[1]: d[1] for s, d in self.edges if s[0] == "i" and d[0] == "o"}
        self.born_ports = tuple(sorted(d[1] for s, d in self.edges
                                       if s[0] == "c" and d[0] == "o"))

    def _validate(self):
        in_seen = [0] * self.n_in
        out_seen = [0] * self.n_out
        for src, dst in self.edges:
            if src[0] not in ("i", "c") or dst[0] not in ("c", "o"):
                raise InputError(f"edge {src}->{dst} violates frontier direction")
            if src[0] == dst[0] == "c":
                raise InputError("slice has a loop at its center")
            for end, seen, limit, kind in ((src, in_seen, self.n_in, "i"),
                                           (dst, out_seen, self.n_out, "o")):
                if end[0] == kind:
                    k = end[1]
                    if not (1 <= k <= limit):
                        raise InputError(f"port {end} out of range")
                    seen[k - 1] += 1
                elif end != ("c", 0):
                    raise InputError(f"center index {end} out of range")
        if any(c != 1 for c in in_seen) or any(c != 1 for c in out_seen):
            raise InputError("every frontier port must be the endpoint of exactly one edge")

    # -- views ----------------------------------------------------------------

    def width(self) -> int:
        return max(self.n_in, self.n_out)

    def is_initial(self) -> bool:
        return self.n_in == 0

    def is_final(self) -> bool:
        return self.n_out == 0

    def __eq__(self, other):
        return (isinstance(other, Slice)
                and self.n_in == other.n_in and self.n_out == other.n_out
                and self.label == other.label and self.edges == other.edges)

    def __hash__(self):
        return self._hash

    def __lt__(self, other):
        return self.sort_key() < other.sort_key()

    def sort_key(self):
        return (self.n_in, self.n_out, self.label, self.edges)

    def __repr__(self):
        return to_literal(self)


def unit_slice(label, n_in: int, n_out: int, bypass: Optional[dict] = None) -> Slice:
    """Build a unit slice from its bypass structure.

    Non-bypassed in-ports point at the center; non-bypassed out-ports are fed
    by the center.
    """
    bypass = dict(bypass or {})
    edges = []
    for i in range(1, n_in + 1):
        if i in bypass:
            edges.append((("i", i), ("o", bypass[i])))
        else:
            edges.append((("i", i), ("c", 0)))
    fed = set(bypass.values())
    if len(fed) != len(bypass):
        raise InputError("bypass map must be injective")
    for o in range(1, n_out + 1):
        if o not in fed:
            edges.append((("c", 0), ("o", o)))
    return Slice(n_in, n_out, label, edges)


def can_glue(s1: Slice, s2: Slice) -> bool:
    return s1.n_out == s2.n_in


class UnitDecomposition:
    """A gluable sequence of unit slices: first initial, last final."""

    __slots__ = ("slices",)

    def __init__(self, slices: Sequence[Slice]):
        self.slices = tuple(slices)
        if not self.slices:
            raise InputError("a unit decomposition is a nonempty sequence")
        if not self.slices[0].is_initial():
            raise InputError("first slice must be initial")
        if not self.slices[-1].is_final():
            raise InputError("last slice must be final")
        for i in range(len(self.slices) - 1):
            if not can_glue(self.slices[i], self.slices[i + 1]):
                raise InputError(f"slice {i} cannot be glued to slice {i + 1}")

    def width(self) -> int:
        return max(s.width() for s in self.slices)

    def __len__(self):
        return len(self.slices)

    def __iter__(self):
        return iter(self.slices)

    def __getitem__(self, i):
        return self.slices[i]

    def __eq__(self, other):
        return isinstance(other, UnitDecomposition) and self.slices == other.slices

    def __hash__(self):
        return hash(self.slices)

    def __repr__(self):
        return "UnitDecomposition([" + ", ".join(to_literal(s) for s in self.slices) + "])"


def compose(u: UnitDecomposition) -> LabeledDag:
    """Glue the word's letters into one DAG.

    Vertex identity is positional: the i-th slice's center becomes vertex i,
    and (0, 1, ..., n-1) is a topological ordering of the result. `sources`
    holds the vertex each open port's edge starts at.
    """
    labels, edges, sources = {}, [], []
    for v, s in enumerate(u.slices):
        labels[v] = s.label
        edges += [(sources[p - 1], v) for p in s.closing_ports]
        carried = [v] * s.n_out  # every port not bypassed is born at v
        for p, q in s.bypass_map.items():
            carried[q - 1] = sources[p - 1]
        sources = carried
    return LabeledDag(labels, edges)


@lru_cache(maxsize=None)
def unit_alphabet(c: int, labels: tuple) -> tuple:
    """All unit slices of width <= c with center label drawn from `labels`.

    The alphabet is a set of structurally-distinct letters: ports are numbered
    and the single center vertex is anonymous.
    """
    if c < 1:
        raise InputError("width bound must be >= 1")
    if not labels:
        raise InputError("label set must be nonempty")
    text = ",".join(map(str, labels))
    if len(set(labels)) != len(labels):
        raise InputError(f"labels are a set; repeated label in {text}")
    if "" in labels:
        raise InputError(f"empty label in alphabet {text!r}")
    for lab in labels:
        if not _LABEL_RE.fullmatch(str(lab)):
            raise InputError(f"label {lab!r} in alphabet {text!r} is not letters, digits "
                             "and underscores")
    letters = []
    for n_in in range(c + 1):
        for n_out in range(c + 1):
            for bypass in _partial_injections(n_in, n_out):
                for lab in labels:
                    letters.append(unit_slice(lab, n_in, n_out, bypass))
    return tuple(sorted(letters))


@lru_cache(maxsize=None)
def literal_table(c: int, labels: tuple) -> MappingProxyType:
    """The letters of unit_alphabet(c, labels), keyed by their canonical literal.

    A reader looks each literal up here and parses only the ones that miss
    (non-canonical spellings and letters outside the alphabet).
    """
    return MappingProxyType({to_literal(s): s for s in unit_alphabet(c, labels)})


def _partial_injections(m: int, n: int) -> Iterator[dict]:
    """All injective partial maps {1..m} -> {1..n}."""
    sources = list(range(1, m + 1))
    targets = list(range(1, n + 1))
    for k in range(min(m, n) + 1):
        for chosen in itertools.combinations(sources, k):
            for image in itertools.permutations(targets, k):
                yield dict(zip(chosen, image))


def unit_decompositions(h: LabeledDag, c: int,
                        ordering: Optional[tuple] = None,
                        config: RunConfig = DEFAULT_CONFIG) -> list[UnitDecomposition]:
    """All width-<= c unit decompositions of h, optionally fixed to one ordering.

    A decomposition is determined by a topological ordering plus, at every
    frontier, a bijection from the open edges crossing it to port numbers;
    the enumeration ranges over both.
    """
    if h.n_vertices() > config.max_enum_vertices or len(h.edges) > MAX_ENUM_EDGES:
        raise ResourceError(
            f"DAG too large for decomposition enumeration "
            f"({h.n_vertices()} vertices, {len(h.edges)} edges)",
            context=f"caps {config.max_enum_vertices}/{MAX_ENUM_EDGES}")
    orderings = [tuple(ordering)] if ordering is not None else list(h.topological_orderings())
    out = []
    for omega in orderings:
        if set(omega) != set(h.vertices):
            raise InputError("ordering must enumerate exactly the DAG's vertices")
        out.extend(_decompositions_for_ordering(h, omega, c))
    return out


def _decompositions_for_ordering(h: LabeledDag, omega: tuple, c: int) -> Iterator[UnitDecomposition]:
    n = len(omega)
    pos = {v: i for i, v in enumerate(omega)}
    if any(pos[u] >= pos[v] for u, v in h.edges):
        return  # not a topological ordering of h
    # Edge occurrences, identified by index into h.edges (parallel edges distinct).
    # cuts[i]: edge indices crossing the frontier after omega[i]; the cut after
    # the last vertex is empty by definition of a topological ordering.
    cuts = []
    for i in range(n):
        cut = [e for e, (u, v) in enumerate(h.edges) if pos[u] <= i < pos[v]]
        if len(cut) > c:
            return
        cuts.append(cut)

    # Choose a port numbering (bijection cut -> 1..k) at every internal frontier.
    choice_spaces = [list(itertools.permutations(range(1, len(cut) + 1)))
                     for cut in cuts[:-1]]
    for assignment in itertools.product(*choice_spaces):
        port_of = [dict(zip(cuts[i], assignment[i])) for i in range(n - 1)]
        port_of.append({})
        slices = []
        for i, v in enumerate(omega):
            prev = port_of[i - 1] if i > 0 else {}
            cur = port_of[i]
            edges = []
            for e, p in prev.items():
                u, w = h.edges[e]
                if w == v:
                    edges.append((("i", p), ("c", 0)))
                else:
                    edges.append((("i", p), ("o", cur[e])))
            for e, p in cur.items():
                u, w = h.edges[e]
                if u == v:
                    edges.append((("c", 0), ("o", p)))
            slices.append(Slice(len(prev), len(cur), h.labels[v], edges))
        yield UnitDecomposition(slices)


# -- textual slice literals ---------------------------------------------------

_LABEL_RE = re.compile("[A-Za-z0-9_]+")  # what a literal can spell; unit_alphabet's rule
_LITERAL_RE = re.compile(
    r"^slice\{in:(\d+); out:(\d+); center:(" + _LABEL_RE.pattern + r"); edges:(.*)\}$")
_ENDPOINT_RE = re.compile(r"^(i(\d+)|o(\d+)|c)$")


def to_literal(s: Slice) -> str:
    """Render a unit slice as `slice{in:K; out:M; center:LABEL; edges: ...}`."""
    def end(e):
        if e[0] == "c":
            return "c"
        return f"{e[0]}{e[1]}"

    edges = ", ".join(f"{end(src)}->{end(dst)}" for src, dst in s.edges)
    return f"slice{{in:{s.n_in}; out:{s.n_out}; center:{s.label}; edges: {edges}}}"


def from_literal(text: str) -> Slice:
    m = _LITERAL_RE.match(text.strip())
    if not m:
        raise InputError(f"malformed slice literal: {text!r}")
    n_in, n_out, label, edge_text = int(m.group(1)), int(m.group(2)), m.group(3), m.group(4)
    edges = []
    edge_text = edge_text.strip()
    if edge_text:
        for item in edge_text.split(","):
            parts = item.strip().split("->")
            if len(parts) != 2:
                raise InputError(f"malformed edge in slice literal: {item!r}")
            edges.append((_parse_endpoint(parts[0].strip()),
                          _parse_endpoint(parts[1].strip())))
    return Slice(n_in, n_out, label, edges)


def _parse_endpoint(tok: str):
    if tok == "c":
        return ("c", 0)
    m = _ENDPOINT_RE.match(tok)
    if not m:
        raise InputError(f"malformed slice endpoint: {tok!r}")
    if m.group(2) is not None:
        return ("i", int(m.group(2)))
    return ("o", int(m.group(3)))
