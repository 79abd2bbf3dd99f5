"""Closure, reduction, path covers and canonical forms."""

import itertools
import random
from collections import Counter

import pytest

from slw.config import InputError
from slw.dag import LabeledDag, LabeledPoset, all_dags, dedup_posets

from conftest import exhaustive_min_path_cover


def chain(labels):
    return LabeledDag({i: lab for i, lab in enumerate(labels)},
                      [(i, i + 1) for i in range(len(labels) - 1)])


DIAMOND = LabeledDag({0: "t", 1: "t", 2: "t", 3: "t"},
                     [(0, 1), (0, 2), (1, 3), (2, 3)])


class TestClosure:
    def test_three_chain(self):
        assert chain("ttt").transitive_closure().order == {(0, 1), (1, 2), (0, 2)}

    def test_edgeless(self):
        assert LabeledDag({0: "t", 1: "t"}, []).transitive_closure().order == frozenset()

    def test_diamond_closure_size(self):
        assert len(DIAMOND.transitive_closure().order) == 5


class TestReduction:
    def test_drops_shortcut(self):
        h = LabeledDag({0: "t", 1: "t", 2: "t"}, [(0, 1), (1, 2), (0, 2)])
        assert h.transitive_reduction().edges == ((0, 1), (1, 2))

    def test_hasse_fixpoint(self):
        assert DIAMOND.transitive_reduction() == DIAMOND

    def test_diamond_with_chord(self):
        h = LabeledDag({0: "t", 1: "t", 2: "t", 3: "t"},
                       [(0, 1), (0, 2), (1, 3), (2, 3), (0, 3)])
        assert h.transitive_reduction() == DIAMOND
        # brute force: smallest edge subset with the same closure
        closure = h.transitive_closure().order
        best = None
        edges = list(h.edges)
        for r in range(len(edges) + 1):
            for sub in itertools.combinations(edges, r):
                if LabeledDag(h.labels, sub).transitive_closure().order == closure:
                    best = sub
                    break
            if best is not None:
                break
        assert set(best) == set(DIAMOND.edges)

    def test_parallel_edges_rejected(self):
        h = LabeledDag({0: "t", 1: "t"}, [(0, 1), (0, 1)])
        with pytest.raises(InputError):
            h.transitive_reduction()

    def test_closure_of_reduction_exhaustive_six(self):
        for h in all_dags(6, ["t"]):
            assert h.transitive_reduction().transitive_closure().order \
                == h.transitive_closure().order


class TestPathCover:
    def test_single_vertex(self):
        assert LabeledDag({0: "t"}, []).min_path_cover()[0] == 1

    def test_two_isolated(self):
        assert LabeledDag({0: "t", 1: "t"}, []).min_path_cover()[0] == 2

    def test_diamond(self):
        count, paths = DIAMOND.min_path_cover()
        assert count == 2
        covered_v = set().union(*(set(p) for p in paths))
        covered_e = {(p[i], p[i + 1]) for p in paths for i in range(len(p) - 1)}
        assert covered_v == set(DIAMOND.vertices)
        assert covered_e == set(DIAMOND.edges)

    def test_parallel_edges_need_two(self):
        h = LabeledDag({0: "t", 1: "t"}, [(0, 1), (0, 1)])
        assert h.min_path_cover()[0] == 2

    def test_flow_equals_exhaustive_up_to_five(self):
        for n in range(1, 6):
            for h in all_dags(n, ["t"]):
                _assert_exact_cover(h)

    def test_six_vertices_beyond_degree_excess(self):
        # two sources funnel through p -> w into two sinks: two paths suffice,
        # but the positive out-minus-in excess is three
        h = LabeledDag({v: "t" for v in ("s1", "s2", "p", "w", "t1", "t2")},
                       [("s1", "p"), ("s2", "p"), ("p", "w"), ("w", "t1"), ("w", "t2")])
        assert _degree_excess(h) == (3, 0)
        assert _assert_exact_cover(h) == 2

    def test_witness_walks_between_chained_edges(self):
        # two sources funnel into the chain 2 -> 3 -> 4 -> 5; a chain of the
        # edge order may pair (1, 2) with (4, 5), and its path must then walk
        # 2 -> 3 -> 4 instead of jumping over the non-edge (2, 4)
        h = LabeledDag({v: "t" for v in range(6)}, [(0, 2), (1, 2), (2, 3), (3, 4), (4, 5)])
        assert _assert_exact_cover(h) == 2

    def test_random_six_vertex_dags(self):
        rng = random.Random(6)
        pairs = list(itertools.combinations(range(6), 2))
        for _ in range(20):
            edges = [e for e in pairs if rng.random() < 0.35]
            _assert_exact_cover(LabeledDag({v: "t" for v in range(6)}, edges))

    def test_flow_equals_degree_excess_identity(self):
        # cross-check below six vertices: there the minimum equals the sum of
        # positive out-in imbalances plus isolated vertices; from six vertices
        # on it does not (see test_six_vertices_beyond_degree_excess)
        for n in range(1, 6):
            for h in all_dags(n, ["t"]):
                excess, isolated = _degree_excess(h)
                assert h.min_path_cover()[0] == excess + isolated


def _degree_excess(h: LabeledDag) -> tuple:
    """The sum of h's positive out-minus-in degree imbalances, and the number
    of its isolated vertices, counted from its edge list."""
    out_deg = Counter(u for u, _ in h.edges)
    in_deg = Counter(w for _, w in h.edges)
    excess = sum(max(0, out_deg[v] - in_deg[v]) for v in h.vertices)
    return excess, sum(1 for v in h.vertices if not out_deg[v] and not in_deg[v])


def _assert_exact_cover(h: LabeledDag) -> int:
    """The cover is minimal by exhaustive search, and its witness paths are
    simple and use exactly the DAG's vertices and edges."""
    count, paths = h.min_path_cover()
    assert count == len(paths) == exhaustive_min_path_cover(h), h
    assert all(len(set(p)) == len(p) for p in paths), paths
    assert set().union(*map(set, paths)) == set(h.vertices), paths
    assert {(p[i], p[i + 1]) for p in paths for i in range(len(p) - 1)} == set(h.edges), paths
    return count


class TestSerialization:
    def test_round_trip(self):
        h = LabeledDag({"a": "x", "b": "y"}, [("a", "b")])
        assert LabeledDag.from_text(h.to_text()) == h

    def test_vertices_in_numeric_order(self):
        lines = chain("t" * 11).to_text().splitlines()
        assert lines[:11] == [f"vertex {v} t" for v in range(11)]
        assert lines[11:] == [f"edge {v} {v + 1}" for v in range(10)]

    def test_bad_line(self):
        with pytest.raises(InputError):
            LabeledDag.from_text("vertex a\n")

    def test_cycle_rejected(self):
        with pytest.raises(InputError):
            LabeledDag({0: "t", 1: "t"}, [(0, 1), (1, 0)])


class TestCanonicalForms:
    def test_isomorphic_relabelings(self):
        h1 = LabeledDag({0: "a", 1: "b"}, [(0, 1)])
        h2 = LabeledDag({"x": "a", "y": "b"}, [("x", "y")])
        assert h1.canonical_key() == h2.canonical_key()

    def test_labels_distinguish(self):
        h1 = LabeledDag({0: "a", 1: "b"}, [(0, 1)])
        h2 = LabeledDag({0: "b", 1: "a"}, [(0, 1)])
        assert h1.canonical_key() != h2.canonical_key()

    def test_multiplicity_distinguishes(self):
        h1 = LabeledDag({0: "t", 1: "t"}, [(0, 1)])
        h2 = LabeledDag({0: "t", 1: "t"}, [(0, 1), (0, 1)])
        assert h1.canonical_key() != h2.canonical_key()

    def test_dedup_posets(self):
        p1 = LabeledPoset({0: "a", 1: "b"}, [(0, 1)])
        p2 = LabeledPoset({"u": "a", "v": "b"}, [("u", "v")])
        p3 = LabeledPoset({0: "a", 1: "b"}, [(1, 0)])
        assert len(dedup_posets([p1, p2, p3])) == 2

    def test_exhaustive_pairwise_on_three_vertices(self):
        # canonical keys agree exactly with brute-force isomorphism checks
        dags = list(all_dags(3, ["a", "b"]))
        import itertools as it
        for h1, h2 in it.combinations(dags[:60], 2):
            iso = _brute_force_iso(h1, h2)
            assert (h1.canonical_key() == h2.canonical_key()) == iso, (h1, h2)


def _brute_force_iso(h1, h2):
    import itertools as it
    if sorted(h1.labels.values()) != sorted(h2.labels.values()):
        return False
    v2 = list(h2.vertices)
    from collections import Counter
    e1 = Counter(h1.edges)
    for perm in it.permutations(v2):
        m = dict(zip(h1.vertices, perm))
        if any(h1.labels[v] != h2.labels[m[v]] for v in h1.vertices):
            continue
        if Counter((m[u], m[v]) for u, v in h1.edges) == Counter(h2.edges):
            return True
    return False
