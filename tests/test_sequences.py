"""The sequence builder `automata.sequences`: the constructions it replaced,
kept here as they were written out before it, build the same bytes, and a
step runs once per state and label-blind letter."""

from operator import add

import pytest

from slw import automata, compiler, constructions
from slw.automata import SliceAutomaton, explore, intersect, letter_base, valid_sequences
from slw.compiler import annotated_alphabet, well_formed
from slw.config import DEFAULT_CONFIG
from slw.mso import EDGE, ESET, VERTEX, VSET, EdgeTarget, PathAtom, Var
from slw.slices import unit_alphabet


# -- the references: each construction with its own gluing rule ------------------


def _reference_valid_sequences(c, labels):
    # named states, numbered "start" first, then in order of first appearance
    alphabet = unit_alphabet(c, labels)
    ids, trans = {"start": 0}, []
    for s in alphabet:
        for src in ("start", "w0") if s.n_in == 0 else (f"w{s.n_in}",):
            trans.append((ids.setdefault(src, len(ids)), s,
                          ids.setdefault(f"w{s.n_out}", len(ids))))
    adj = [[] for _ in ids]
    for q, s, q2 in trans:
        adj[q].append((s, q2))
    return SliceAutomaton(c, labels, alphabet, adj, {ids["w0"]}).trim()


def _reference_well_formed(c, labels, sorts):
    alphabet = annotated_alphabet(c, labels, sorts)
    fo = [i for i, sort in enumerate(sorts) if sort in (VERTEX, EDGE)]
    by_width = {}
    for s in alphabet:
        marks = tuple(int(s.marks[i]) if sorts[i] == VERTEX else len(s.marks[i]) for i in fo)
        by_width.setdefault(letter_base(s).n_in, []).append((s, marks))
    start = ("start",)

    def expand(state):
        k, counts = (0, (0,) * len(fo)) if state == start else state
        for s, marks in by_width.get(k, ()):
            new = tuple(map(add, counts, marks))
            if all(m <= 1 for m in new):
                yield s, (letter_base(s).n_out, new)

    return explore(start, expand,
                   lambda st: st != start and st[0] == 0 and all(m == 1 for m in st[1]),
                   c, labels, alphabet, name="well-formed language").trim()


def _reference_tracker(c, labels, sorts, step, name):
    """The phase machine without mark counts, then its product with the
    well-formed language, as the compiler built a tracker atom."""
    alphabet = annotated_alphabet(c, labels, sorts)
    by_width = {}
    for s in alphabet:
        by_width.setdefault(letter_base(s).n_in, []).append(s)

    def expand(state):
        _, k, phase = state
        for s in by_width.get(k, ()):
            nxt = step(phase, s)
            if nxt is not None:
                yield s, ("st", s.base.n_out, nxt)

    tracker = explore(("start", 0, "pre"), expand,
                      lambda st: st[1] == 0 and st[2] == "done",
                      c, labels, alphabet, name=name)
    return intersect(tracker, _reference_well_formed(c, labels, sorts))


def _tracker_step(monkeypatch, build, *args):
    """The step and name that `build(*args)` hands to `compiler._tracker`."""
    handed = []
    monkeypatch.setattr(compiler, "_tracker",
                        lambda c, labels, sorts, step, name, config: handed.append((step, name)))
    build(*args)
    monkeypatch.undo()
    return handed[0]


_X, _Y = Var("x", VERTEX), Var("y", EDGE)
_X1, _X2, _XS, _YS = Var("x1", VERTEX), Var("x2", VERTEX), Var("X", VSET), Var("Y", ESET)

_SORTS = [(), (VERTEX,), (EDGE,), (VERTEX, VERTEX), (VERTEX, VSET), (EDGE, ESET),
          (VERTEX, EDGE), (VERTEX, VSET, ESET, VERTEX)]


class TestReferences:
    @pytest.mark.parametrize("c", [1, 2, 3])
    def test_valid_sequences(self, c):
        assert (valid_sequences(c, ("a", "b")).to_text()
                == _reference_valid_sequences(c, ("a", "b")).to_text())

    @pytest.mark.parametrize("c", [1, 2])
    @pytest.mark.parametrize("labels", [("a",), ("a", "b")])
    @pytest.mark.parametrize("sorts", _SORTS)
    def test_well_formed(self, c, labels, sorts):
        assert (well_formed(c, labels, sorts).to_text()
                == _reference_well_formed(c, labels, sorts).to_text())

    @pytest.mark.parametrize("c", [1, 2])
    @pytest.mark.parametrize("labels", [("a",), ("a", "b")])
    def test_target_tracker(self, monkeypatch, c, labels):
        ctx = compiler._context(EdgeTarget(_Y, _X))
        args = (c, labels, ctx, _Y, _X, DEFAULT_CONFIG)
        step, name = _tracker_step(monkeypatch, compiler._target_tracker, *args)
        assert name == "edge-target tracker"
        assert (compiler._target_tracker(*args).to_text()
                == _reference_tracker(c, labels, compiler._sorts(ctx), step, name).to_text())

    @pytest.mark.parametrize("c", [1, 2])
    @pytest.mark.parametrize("labels", [("a",), ("a", "b")])
    def test_path_tracker(self, monkeypatch, c, labels):
        ctx = compiler._context(PathAtom(_X1, _XS, _YS, _X2))
        args = (c, labels, ctx, _X1, _XS, _YS, _X2, DEFAULT_CONFIG)
        step, name = _tracker_step(monkeypatch, compiler._path_tracker, *args)
        assert name == "path tracker"
        assert (compiler._path_tracker(*args).to_text()
                == _reference_tracker(c, labels, compiler._sorts(ctx), step, name).to_text())


# -- label-blind sharing -------------------------------------------------------------


def _stepped(monkeypatch, module, build) -> list:
    """The (phase, label-blind letter) pairs that `build()` steps through
    `module.sequences`, one per call."""
    original, seen = automata.sequences, []

    def spied(c, labels, alphabet, start, step, *args, **kwargs):
        def spy(phase, letter):
            seen.append((phase, letter_base(letter).edges, getattr(letter, "marks", None)))
            return step(phase, letter)
        return original(c, labels, alphabet, start, spy, *args, **kwargs)

    monkeypatch.setattr(module, "sequences", spied)
    build()
    monkeypatch.undo()
    return seen


def _counting(c, labels):
    # the phase counts letters up to two, so the start phase never recurs
    return automata.sequences(c, labels, unit_alphabet(c, labels), 0,
                              lambda n, s: (min(n + 1, 2),), lambda n: True, name="counting")


class TestLabelBlindSharing:
    @pytest.mark.parametrize("module, build", [
        (automata, _counting),
        (compiler, lambda c, labels: well_formed.__wrapped__(c, labels, (VERTEX, EDGE, ESET))),
        (constructions, constructions.universal_automaton.__wrapped__),
    ], ids=["counting", "well_formed", "universal_automaton"])
    def test_one_step_per_state_and_label_blind_letter(self, monkeypatch, module, build):
        calls = []
        for labels in (("a",), ("a", "b", "c")):
            seen = _stepped(monkeypatch, module, lambda: build(2, labels))
            assert seen and len(seen) == len(set(seen)), labels
            calls.append(len(seen))
        assert calls[0] == calls[1]
