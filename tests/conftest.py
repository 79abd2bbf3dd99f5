"""Shared fixtures: the net fixture set and cached compiled automata."""

from __future__ import annotations

import itertools
from functools import lru_cache

import pytest

from slw.compiler import compile_formula, po_automaton
from slw.dag import LabeledDag, all_dags
from slw import mso
from slw.mso import ESET, VERTEX, VSET, Equal, InSet, Var, forall, iff, parse
from slw.netaut import net_automaton
from slw.ptnet import Place, PtNet
from slw.slices import unit_decompositions


def make_fixture_nets() -> dict:
    """The desk-scale net fixture set: <=3 place instances, <=3 transitions, b<=2."""
    return {
        # two independent self-loops; executions grow with the width bound
        "N0": PtNet(("t1", "t2"), [Place(1, puts={"t1": 1}, takes={"t1": 1}, name="p1"),
                                   Place(1, puts={"t2": 1}, takes={"t2": 1}, name="p2")],
                    bound=1, name="N0"),
        # strict alternator: a and b take turns
        "N1": PtNet(("a", "b"), [Place(1, puts={"b": 1}, takes={"a": 1}, name="p1"),
                                 Place(0, puts={"a": 1}, takes={"b": 1}, name="p2")],
                    bound=1, name="N1"),
        # two-credit alternator: a may run two ahead of b
        "N2": PtNet(("a", "b"), [Place(2, puts={"b": 1}, takes={"a": 1}, name="p1"),
                                 Place(0, puts={"a": 1}, takes={"b": 1}, name="p2")],
                    bound=2, name="N2"),
        # a fires once and forks two independent self-sustaining chains
        "N3": PtNet(("a", "b", "c"), [Place(1, takes={"a": 1}, name="pa"),
                                      Place(0, puts={"a": 1, "b": 1}, takes={"b": 1}, name="pb"),
                                      Place(0, puts={"a": 1, "c": 1}, takes={"c": 1}, name="pc")],
                    bound=1, name="N3"),
        # one self-loop place repeated twice (multiplicity matters for cau)
        "N4": PtNet(("t",), [Place(1, puts={"t": 1}, takes={"t": 1}, name="p"),
                             Place(1, puts={"t": 1}, takes={"t": 1}, name="p")],
                    bound=1, name="N4"),
        # two credits consumed by concurrent a's
        "N5": PtNet(("a",), [Place(2, takes={"a": 1}, name="p"),
                             Place(0, puts={"a": 1}, name="q")],
                    bound=2, name="N5"),
    }


@pytest.fixture(scope="session")
def nets() -> dict:
    return make_fixture_nets()


@lru_cache(maxsize=None)
def cached_po_automaton(text: str, c: int, labels: tuple):
    return po_automaton(parse(text), c, labels)


@lru_cache(maxsize=None)
def cached_graph_automaton(text: str, c: int, labels: tuple):
    return compile_formula(parse(text), c, labels)


@lru_cache(maxsize=None)
def cached_net_automaton(name: str, c: int, sem: str):
    return net_automaton(make_fixture_nets()[name], c, sem)


@lru_cache(maxsize=None)
def hasse_sweep(c: int, labels: tuple, max_n: int = 4) -> tuple:
    """All labeled c-coverable Hasse DAGs with <= max_n vertices, with their
    posets and complete decomposition lists."""
    items = []
    for n in range(1, max_n + 1):
        for h in all_dags(n, list(labels)):
            if not h.is_transitively_reduced():
                continue
            if h.min_path_cover()[0] > c:
                continue
            items.append((h, h.transitive_closure(),
                          tuple(unit_decompositions(h, c))))
    return tuple(items)


def leibniz(a: Var, b: Var):
    """x = y by Leibniz's law, the reference for the Equal atom: every set
    that contains one of them contains the other."""
    z = Var("EQ" + a.name.upper() + b.name.upper(), VSET if a.sort == VERTEX else ESET)
    return forall(z, iff(InSet(a, z), InSet(b, z)))


def with_leibniz(phi):
    """phi with every Equal atom replaced by its Leibniz definition."""
    return mso._map_atoms(phi, lambda atom: leibniz(atom.left, atom.right)
                          if isinstance(atom, Equal) else atom)


def poset_keys(posets) -> set:
    return {p.canonical_key() for p in posets}


@lru_cache(maxsize=None)
def exhaustive_min_path_cover(h: LabeledDag) -> int:
    """Independent oracle: smallest set of simple paths covering V and E.
    Cached, so the n <= 5 sweeps of test_dag and acceptance 7 search once."""
    if h.n_vertices() == 0:
        return 0
    paths = []
    for v in h.vertices:
        paths.append(((v,), ()))
    grew = list(paths)
    while grew:
        nxt = []
        for verts, edges in grew:
            last = verts[-1]
            for e, (u, w) in enumerate(h.edges):
                if u == last and w not in verts:
                    nxt.append((verts + (w,), edges + (e,)))
        paths.extend(nxt)
        grew = nxt
    want_v = set(h.vertices)
    want_e = set(range(len(h.edges)))
    for k in range(1, len(want_v) + len(want_e) + 1):
        for combo in itertools.combinations(paths, k):
            vs = set().union(*(set(p[0]) for p in combo))
            es = set().union(*(set(p[1]) for p in combo))
            if vs == want_v and es == want_e:
                return k
    raise AssertionError("uncoverable graph")
