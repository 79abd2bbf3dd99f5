"""Labeled DAGs and labeled posets: closure, reduction, path covers, isomorphism.

Vertices are hashable ids of one sortable type, listed in their natural order;
edges form a multiset (parallel edges are representable but rejected by the
Hasse-diagram pipeline, which requires simple DAGs). All values are immutable
after construction.
"""

from __future__ import annotations

import itertools
from collections import Counter, defaultdict, deque
from typing import Iterable, Iterator, Sequence

from .config import InputError, once, text_lines


class LabeledDag:
    """A finite DAG with vertex labels and a multiset of directed edges."""

    def __init__(self, labels: dict, edges: Iterable[tuple]):
        self.labels = dict(labels)
        self.edges = tuple(sorted(edges))
        for u, v in self.edges:
            if u not in self.labels or v not in self.labels:
                raise InputError(f"edge ({u},{v}) mentions an undeclared vertex")
        self.vertices = tuple(sorted(self.labels))
        self._index = {v: i for i, v in enumerate(self.vertices)}
        self._succ_masks = self._build_succ_masks()
        self._order = self._toposort()
        if self._order is None:
            raise InputError("edge set has a directed cycle")

    def _build_succ_masks(self) -> list[int]:
        masks = [0] * len(self.vertices)
        for u, v in self.edges:
            masks[self._index[u]] |= 1 << self._index[v]
        return masks

    def _toposort(self):
        n = len(self.vertices)
        indeg = [0] * n
        succ = [set() for _ in range(n)]
        for u, v in set(self.edges):
            if self._index[v] not in succ[self._index[u]]:
                succ[self._index[u]].add(self._index[v])
                indeg[self._index[v]] += 1
        queue = deque(i for i in range(n) if indeg[i] == 0)
        order = []
        while queue:
            i = queue.popleft()
            order.append(self.vertices[i])
            for j in succ[i]:
                indeg[j] -= 1
                if indeg[j] == 0:
                    queue.append(j)
        return tuple(order) if len(order) == n else None

    # -- basic views ---------------------------------------------------------

    def n_vertices(self) -> int:
        return len(self.vertices)

    def is_simple(self) -> bool:
        return len(self.edges) == len(set(self.edges))

    def successors(self, v) -> list:
        return [w for u, w in self.edges if u == v]

    def __eq__(self, other):
        return (isinstance(other, LabeledDag)
                and self.labels == other.labels and self.edges == other.edges)

    def __hash__(self):
        return hash((tuple(sorted(self.labels.items())), self.edges))

    def __repr__(self):
        return f"LabeledDag({self.labels!r}, {list(self.edges)!r})"

    # -- orderings -----------------------------------------------------------

    def topological_orderings(self) -> Iterator[tuple]:
        """All topological orderings, lazily."""
        preds = {v: set() for v in self.vertices}
        for u, v in set(self.edges):
            preds[v].add(u)

        def rec(placed: tuple, remaining: set):
            if not remaining:
                yield placed
                return
            for v in sorted(remaining):
                if preds[v] <= set(placed):
                    yield from rec(placed + (v,), remaining - {v})

        yield from rec((), set(self.vertices))

    # -- closure and reduction -------------------------------------------------

    def reach_masks(self) -> list[int]:
        """reach_masks()[i] has bit j set iff vertex i reaches vertex j by >=1 edge."""
        n = len(self.vertices)
        reach = [0] * n
        for v in reversed(self._order):
            i = self._index[v]
            acc = self._succ_masks[i]
            m = self._succ_masks[i]
            while m:
                j = (m & -m).bit_length() - 1
                acc |= reach[j]
                m &= m - 1
            reach[i] = acc
        return reach

    def transitive_closure(self) -> "LabeledPoset":
        reach = self.reach_masks()
        order_pairs = []
        for i, v in enumerate(self.vertices):
            m = reach[i]
            while m:
                j = (m & -m).bit_length() - 1
                order_pairs.append((v, self.vertices[j]))
                m &= m - 1
        return LabeledPoset(self.labels, order_pairs, _checked=True)

    def transitive_reduction(self) -> "LabeledDag":
        """The unique minimal sub-DAG with the same transitive closure.

        Defined for simple DAGs only; parallel edges make minimality ambiguous.
        """
        if not self.is_simple():
            raise InputError("transitive reduction requires a simple DAG (no parallel edges)")
        reach = self.reach_masks()
        kept = []
        for u, v in self.edges:
            i, j = self._index[u], self._index[v]
            # (u,v) is redundant iff some other direct successor of u reaches v
            m = self._succ_masks[i] & ~(1 << j)
            redundant = False
            while m:
                k = (m & -m).bit_length() - 1
                if (reach[k] >> j) & 1:
                    redundant = True
                    break
                m &= m - 1
            if not redundant:
                kept.append((u, v))
        return LabeledDag(self.labels, kept)

    def is_transitively_reduced(self) -> bool:
        return self.is_simple() and self.transitive_reduction() == self

    # -- path cover ------------------------------------------------------------

    def min_path_cover(self) -> tuple[int, list[list]]:
        """Minimum number of simple paths covering every vertex and every edge.

        Paths may share vertices and edges. Order the edges by "some path runs
        through e, then f": head(e) = tail(f) or head(e) reaches tail(f).
        Parallel edges are incomparable. A path covers a chain of this order,
        and every chain extends to a path, so by Dilworth's theorem in
        Fulkerson's bipartite form the fewest covering paths number |E| minus
        a maximum matching from each edge to a later one, plus one trivial
        path per isolated vertex. Each witness path runs from its chain's
        first edge to its last edge, not necessarily from a source to a sink.
        """
        reach, index, edges = self.reach_masks(), self._index, self.edges

        def leads(v, x) -> bool:
            return v == x or bool((reach[index[v]] >> index[x]) & 1)

        later = [[f for f, (x, _) in enumerate(edges) if leads(v, x)] for _, v in edges]
        before = [None] * len(edges)  # before[f]: the edge matched to later edge f

        def augment(e, seen) -> bool:
            for f in later[e]:
                if f not in seen:
                    seen.add(f)
                    if before[f] is None or augment(before[f], seen):
                        before[f] = e
                        return True
            return False

        for e in range(len(edges)):
            augment(e, set())
        after = {e: f for f, e in enumerate(before) if e is not None}
        touched = {v for edge in edges for v in edge}
        paths = [[v] for v in self.vertices if v not in touched]
        for e in range(len(edges)):
            if before[e] is not None:
                continue
            path = list(edges[e])
            while e in after:
                e = after[e]
                x, y = edges[e]
                while path[-1] != x:
                    path.append(next(w for w in self.successors(path[-1]) if leads(w, x)))
                path.append(y)
            paths.append(path)
        return len(paths), paths

    # -- serialization -----------------------------------------------------------

    def to_text(self) -> str:
        lines = [f"vertex {v} {self.labels[v]}" for v in self.vertices]
        lines += [f"edge {u} {v}" for u, v in self.edges]
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_text(text: str) -> "LabeledDag":
        labels, edges = {}, []
        for n, line in text_lines(text):
            parts = line.split()
            if parts[0] == "vertex" and len(parts) == 3:
                once(n, labels, parts[1], "vertex")
                labels[parts[1]] = parts[2]
            elif parts[0] == "edge" and len(parts) == 3:
                edges.append((parts[1], parts[2]))
            else:
                raise InputError(f"line {n}: expected 'vertex ID LABEL' or 'edge SRC DST'")
        return LabeledDag(labels, edges)

    def canonical_key(self):
        return canonical_digraph_key(self.labels, self.edges)


class LabeledPoset:
    """A finite strict partial order with vertex labels."""

    def __init__(self, labels: dict, order: Iterable[tuple], _checked: bool = False):
        self.labels = dict(labels)
        self.order = frozenset(order)
        self.vertices = tuple(sorted(self.labels))
        if not _checked:
            self._validate()

    def _validate(self):
        succ = {}
        for u, v in self.order:
            if u not in self.labels or v not in self.labels:
                raise InputError(f"order pair ({u},{v}) mentions an undeclared vertex")
            if u == v:
                raise InputError(f"order is not irreflexive at {u}")
            succ.setdefault(u, set()).add(v)
        empty = frozenset()
        for u, targets in succ.items():
            for v in targets:
                if not succ.get(v, empty) <= targets:
                    raise InputError(f"order is not transitive below ({u},{v})")

    def less(self, u, v) -> bool:
        return (u, v) in self.order

    def n_vertices(self) -> int:
        return len(self.vertices)

    def as_dag(self) -> LabeledDag:
        return LabeledDag(self.labels, self.order)

    def hasse_diagram(self) -> LabeledDag:
        return self.as_dag().transitive_reduction()

    def is_c_partial_order(self, c: int) -> bool:
        count, _ = self.hasse_diagram().min_path_cover()
        return count <= c

    def __eq__(self, other):
        return (isinstance(other, LabeledPoset)
                and self.labels == other.labels and self.order == other.order)

    def __hash__(self):
        return hash((tuple(sorted(self.labels.items())), self.order))

    def __repr__(self):
        return f"LabeledPoset({self.labels!r}, {sorted(self.order)!r})"

    def canonical_key(self):
        return canonical_digraph_key(self.labels, self.order)


# -- canonical forms / isomorphism ------------------------------------------------


def canonical_digraph_key(labels: dict, edges: Iterable[tuple]):
    """Canonical key of a vertex-labeled digraph with edge multiset.

    Label- and multiplicity-aware iterative refinement, completed by brute
    force over the surviving color classes (graphs here are desk-scale).
    Two structures have equal keys iff they are isomorphic.
    """
    verts = sorted(labels)
    n = len(verts)
    idx = {v: i for i, v in enumerate(verts)}
    emult = Counter((idx[u], idx[v]) for u, v in edges)
    colors = [labels[v] for v in verts]
    for _ in range(n):
        sig = []
        for i in range(n):
            outs = sorted((colors[j], m) for (a, j), m in emult.items() if a == i)
            ins = sorted((colors[j], m) for (j, a), m in emult.items() if a == i)
            sig.append((colors[i], tuple(outs), tuple(ins)))
        ranks = {s: r for r, s in enumerate(sorted(set(sig)))}
        new_colors = [ranks[s] for s in sig]
        if new_colors == colors:
            break
        colors = new_colors

    classes = defaultdict(list)
    for i in range(n):
        classes[colors[i]].append(i)
    groups = [classes[c] for c in sorted(classes)]

    best = None
    for combo in itertools.product(*[itertools.permutations(g) for g in groups]):
        perm = [i for g in combo for i in g]
        pos = [0] * n
        for p, i in enumerate(perm):
            pos[i] = p
        key = (
            tuple(labels[verts[i]] for i in perm),
            tuple(sorted(((pos[a], pos[b]), m) for (a, b), m in emult.items())),
        )
        if best is None or key < best:
            best = key
    return best


def dedup_posets(posets: Iterable) -> list:
    """Deduplicate posets (or DAGs) up to label-preserving isomorphism: the
    first of each class, in canonical-key order."""
    by_key = {}
    for p in posets:
        by_key.setdefault(p.canonical_key(), p)
    return [by_key[k] for k in sorted(by_key)]


def all_dags(n: int, labels: Sequence) -> Iterator[LabeledDag]:
    """All labeled simple DAGs on vertices 0..n-1 with edges respecting 0<1<...<n-1.

    Every isomorphism class of simple DAGs appears (possibly repeatedly, under
    different labelings of the fixed topological order); intended for
    exhaustive desk-scale sweeps.
    """
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for edge_bits in range(1 << len(pairs)):
        edges = [pairs[k] for k in range(len(pairs)) if (edge_bits >> k) & 1]
        for labeling in itertools.product(labels, repeat=n):
            yield LabeledDag({i: labeling[i] for i in range(n)}, edges)
