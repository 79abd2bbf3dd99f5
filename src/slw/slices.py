"""Unit slices, composition, the unit alphabet, and decomposition enumeration.

A slice is a DAG fragment with numbered in-ports and out-ports and one center
vertex; it serves as an automaton letter, built from its label, its port
counts and its bypass map (see `Slice`). A word of slices whose neighbours
glue (out-ports of one match the in-ports of the next) composes into a DAG.
Letters are identified structurally (the center is anonymous, ports keep
their numbers), so equality and hashing are decidable and canonical.

Endpoint encoding inside a slice: ("i", k) is in-port k, ("o", k) is out-port
k (both 1-based), and ("c", 0) is the center. Only a slice literal spells an
edge list, and `from_literal` judges it.
"""

from __future__ import annotations

import itertools
import re
from functools import lru_cache
from types import MappingProxyType
from typing import Iterator, Optional, Sequence

from .config import DEFAULT_CONFIG, MAX_ENUM_EDGES, InputError, ResourceError, RunConfig
from .dag import LabeledDag


class Slice:
    """A unit slice: one center vertex labeled `label`, `n_in` in-ports and
    `n_out` out-ports, numbered from 1.

    The bypass map sends each in-port whose edge crosses the slice to the
    out-port it leaves by, and must be injective. Every other in-port's edge
    ends at the center, and every other out-port's edge starts there, so the
    label, the port counts and the bypass map are the whole letter.
    Construction records, for reading it:

    - `closing_ports`: the in-ports whose edge ends at the center, sorted;
    - `bypass_map`: in-port -> out-port, in increasing in-port order. The dict
      is shared by every reader of the slice and must not be written to;
    - `born_ports`: the out-ports whose edge starts at the center, sorted;
    - `edges`: every edge as a (source, target) pair of endpoints, sorted.
    """

    __slots__ = ("n_in", "n_out", "label", "edges", "_hash",
                 "closing_ports", "bypass_map", "born_ports")

    def __init__(self, label, n_in: int, n_out: int, bypass: Optional[dict] = None):
        bypass = dict(sorted((bypass or {}).items()))
        fed = set(bypass.values())
        if not all(1 <= p <= n_in and 1 <= q <= n_out for p, q in bypass.items()):
            raise InputError("bypass map must send in-ports to out-ports")
        if len(fed) != len(bypass):
            raise InputError("bypass map must be injective")
        self.label, self.n_in, self.n_out, self.bypass_map = label, n_in, n_out, bypass
        self.closing_ports = tuple(p for p in range(1, n_in + 1) if p not in bypass)
        self.born_ports = tuple(q for q in range(1, n_out + 1) if q not in fed)
        # in sorted order: the center's edges, then each in-port's
        self.edges = (tuple((("c", 0), ("o", q)) for q in self.born_ports)
                      + tuple((("i", p), ("o", bypass[p]) if p in bypass else ("c", 0))
                              for p in range(1, n_in + 1)))
        self._hash = hash((n_in, n_out, label, self.edges))

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
    return tuple(sorted(Slice(lab, n_in, n_out, bypass)
                        for n_in in range(c + 1) for n_out in range(c + 1)
                        for bypass in _partial_injections(n_in, n_out) for lab in labels))


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
                        config: RunConfig = DEFAULT_CONFIG) -> list[UnitDecomposition]:
    """All width-<= c unit decompositions of h.

    A decomposition is determined by a topological ordering plus, at every
    frontier, a bijection from the open edges crossing it to port numbers;
    the enumeration ranges over both.
    """
    if h.n_vertices() > config.max_enum_vertices or len(h.edges) > MAX_ENUM_EDGES:
        raise ResourceError(
            f"DAG too large for decomposition enumeration "
            f"({h.n_vertices()} vertices, {len(h.edges)} edges)",
            context=f"caps {config.max_enum_vertices}/{MAX_ENUM_EDGES}")
    out = []
    for omega in h.topological_orderings():
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
        # port_of[i]: the ports of the cut before omega[i]; an open edge that
        # does not end at omega[i] passes it, to its port in the next cut
        port_of = [{}, *(dict(zip(cut, ports)) for cut, ports in zip(cuts, assignment)), {}]
        yield UnitDecomposition(
            Slice(h.labels[v], len(port_of[i]), len(port_of[i + 1]),
                  {p: port_of[i + 1][e] for e, p in port_of[i].items() if h.edges[e][1] != v})
            for i, v in enumerate(omega))


# -- textual slice literals ---------------------------------------------------

_LABEL_RE = re.compile("[A-Za-z0-9_]+")  # what a literal can spell; unit_alphabet's rule
_LITERAL_RE = re.compile(
    r"^slice\{in:(\d+); out:(\d+); center:(" + _LABEL_RE.pattern + r"); edges:(.*)\}$")
_ENDPOINT_RE = re.compile(r"^(i(\d+)|o(\d+)|c)$")


def _endpoint_text(end) -> str:
    """An endpoint as a literal spells it: `c`, `i<k>` or `o<k>`."""
    return "c" if end[0] == "c" else f"{end[0]}{end[1]}"


def to_literal(s: Slice) -> str:
    """Render a unit slice as `slice{in:K; out:M; center:LABEL; edges: ...}`."""
    edges = ", ".join(f"{_endpoint_text(src)}->{_endpoint_text(dst)}" for src, dst in s.edges)
    return f"slice{{in:{s.n_in}; out:{s.n_out}; center:{s.label}; edges: {edges}}}"


def from_literal(text: str) -> Slice:
    """The letter a literal spells. Its edge list must give every port exactly
    one edge and may not loop at the center; the bypass edges build the letter."""
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
    seen = {"i": [0] * n_in, "o": [0] * n_out}
    for src, dst in sorted(edges):
        if src[0] == "o" or dst[0] == "i":
            raise InputError(f"edge {_endpoint_text(src)}->{_endpoint_text(dst)} "
                             "violates frontier direction")
        if src[0] == dst[0] == "c":
            raise InputError("slice has a loop at its center")
        for end in (src, dst):
            kind, k = end
            if kind != "c":
                if not 1 <= k <= len(seen[kind]):
                    raise InputError(f"port {_endpoint_text(end)} out of range")
                seen[kind][k - 1] += 1
    if any(n != 1 for n in seen["i"] + seen["o"]):
        raise InputError("every frontier port must be the endpoint of exactly one edge")
    return Slice(label, n_in, n_out, {src[1]: dst[1] for src, dst in edges
                                      if src[0] == "i" and dst[0] == "o"})


def _parse_endpoint(tok: str):
    if tok == "c":
        return ("c", 0)
    m = _ENDPOINT_RE.match(tok)
    if not m:
        raise InputError(f"malformed slice endpoint: {tok!r}")
    if m.group(2) is not None:
        return ("i", int(m.group(2)))
    return ("o", int(m.group(3)))
