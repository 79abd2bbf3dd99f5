"""Compilation of graph formulas to slice automata.

Free variables are realized by annotating letters: every vertex-sorted
variable contributes one membership bit on the center vertex, every
edge-sorted variable a membership mark on each edge born at the letter (an
edge is born where its source vertex is the center). Marks of open edges do
not travel on frontiers; the primitive automata that need them track marked
open channels in their states instead.

The induction: atoms become primitive automata intersected with the
well-formed language (valid letter sequences with exactly-one marks per
first-order variable); conjunction and disjunction become product and union;
negation is complement relative to the well-formed language; an existential
quantifier erases its variable's annotation layer. Variables are resolved
lexically: an atom reads the layer of its variable's innermost binder, so
shadowing needs no renaming.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from operator import add
from typing import NamedTuple, Sequence

from .automata import SliceAutomaton, difference, explore, intersect, letter_base, union
from .config import DEFAULT_CONFIG, InputError, ResourceError, RunConfig
from . import mso
from .mso import (And, Coverable, EdgeSource, EdgeTarget, Exists, HasLabel, InSet,
                  Not, Or, PathAtom, Reduced, Truth, Var,
                  EDGE, ESET, VERTEX, VSET, to_graph_formula, to_text)
from .constructions import coverable_automaton, reduced_automaton, universal_automaton
from .slices import Slice, unit_alphabet


class AnnLetter(NamedTuple):
    """A unit slice annotated with variable-membership marks."""
    base: Slice
    vbits: tuple
    ebits: tuple


_VLIKE, _ELIKE = (VERTEX, VSET), (EDGE, ESET)


def _sorts(ctx: tuple) -> tuple:
    """The sort signature of a context. Its annotated alphabet and
    well-formed language depend on nothing else, so they are cached on it."""
    return tuple(v.sort for v in ctx)


def _layer(sorts: tuple, i: int) -> int:
    """The annotation layer of context position i: vertex-like variables
    index `vbits`, edge-like ones `ebits`, both in binding order."""
    kinds = _VLIKE if sorts[i] in _VLIKE else _ELIKE
    return sum(1 for s in sorts[:i] if s in kinds)


def _pos(ctx: tuple, var: Var) -> int:
    """The annotation layer of var's innermost binder in ctx."""
    return _layer(_sorts(ctx), max(i for i, v in enumerate(ctx) if v == var))


@lru_cache(maxsize=None)
def annotated_alphabet(c: int, labels: tuple, sorts: tuple) -> tuple:
    """The (c, T) unit alphabet with one annotation layer per variable of a
    context with these sorts.

    First-order edge variables mark at most one born edge per letter; their
    global exactly-one constraint is the well-formed language's job.
    """
    base = unit_alphabet(c, labels)
    if not sorts:
        return base
    nv = sum(1 for s in sorts if s in _VLIKE)
    letters = []
    for s in base:
        born = s.born_ports()
        per_var = [[frozenset()] + [frozenset([o]) for o in born] if sort == EDGE
                   else [frozenset(sub) for r in range(len(born) + 1)
                         for sub in itertools.combinations(born, r)]
                   for sort in sorts if sort in _ELIKE]
        letters += [AnnLetter(s, vbits, ebits)
                    for vbits in itertools.product((False, True), repeat=nv)
                    for ebits in itertools.product(*per_var)]
    return tuple(sorted(letters, key=lambda a: (a.base.sort_key(), a.vbits,
                                                tuple(tuple(sorted(m)) for m in a.ebits))))


@lru_cache(maxsize=None)
def well_formed(c: int, labels: tuple, sorts: tuple,
                config: RunConfig = DEFAULT_CONFIG) -> SliceAutomaton:
    """Valid letter sequences in which every first-order variable is marked
    exactly once across the word."""
    alphabet = annotated_alphabet(c, labels, sorts)
    fo = [(sort == VERTEX, _layer(sorts, i))
          for i, sort in enumerate(sorts) if sort in (VERTEX, EDGE)]
    by_width = {}
    for s in alphabet:
        marks = tuple(int(s.vbits[j]) if vertex else len(s.ebits[j]) for vertex, j in fo)
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
                   c, labels, alphabet, name="well-formed language", config=config).trim()


def _by_width(alphabet: tuple) -> dict:
    by_width = {}
    for s in alphabet:
        by_width.setdefault(letter_base(s).n_in, []).append(s)
    return by_width


def _filter_letters(auto: SliceAutomaton, pred) -> SliceAutomaton:
    return auto.map_letters(auto.alphabet,
                            {s: (s,) if pred(s) else () for s in auto.alphabet}).trim()


def cylindrify(auto: SliceAutomaton, c: int, labels: tuple, sorts: tuple) -> SliceAutomaton:
    """Lift an automaton over base letters to the annotated alphabet of a
    context with these sorts."""
    if not sorts:
        return auto
    alphabet = annotated_alphabet(c, labels, sorts)
    by_base = {s: [] for s in auto.alphabet}
    for s in alphabet:
        by_base[s.base].append(s)
    return auto.map_letters(alphabet, by_base)


# -- primitive automata for the stateful atoms -------------------------------------


def _tracker(c: int, labels: tuple, ctx: tuple, step, name: str,
             config: RunConfig) -> SliceAutomaton:
    """The automaton of a phase machine read over the annotated letters:
    `step(phase, letter)` is the next phase, or None to reject. It starts in
    phase "pre" and accepts in phase "done" with no channel open."""
    alphabet = annotated_alphabet(c, labels, _sorts(ctx))
    by_width = _by_width(alphabet)

    def expand(state):
        _, k, phase = state
        for s in by_width.get(k, ()):
            nxt = step(phase, s)
            if nxt is not None:
                yield s, ("st", s.base.n_out, nxt)

    return explore(("start", 0, "pre"), expand, lambda st: st[1] == 0 and st[2] == "done",
                   c, labels, alphabet, name=name, config=config)


def _target_tracker(c: int, labels: tuple, ctx: tuple, yvar: Var, xvar: Var,
                    config: RunConfig) -> SliceAutomaton:
    """t(y,x): the edge marked y closes at the letter marked x."""
    ypos, xpos = _pos(ctx, yvar), _pos(ctx, xvar)

    def step(phase, s):
        ymarks = s.ebits[ypos]
        if phase == "pre":
            if len(ymarks) > 1:
                return None
            return ("riding", next(iter(ymarks))) if ymarks else "pre"
        if ymarks:
            return None
        if phase == "done":
            return "done"
        port = phase[1]
        if port in s.base.closing_ports():
            return "done" if s.vbits[xpos] else None
        return ("riding", s.base.bypass_map()[port])

    return _tracker(c, labels, ctx, step, "edge-target tracker", config)


def _path_tracker(c: int, labels: tuple, ctx: tuple,
                  x1: Var, xset: Var, yset: Var, x2: Var,
                  config: RunConfig) -> SliceAutomaton:
    """path(x1,X,Y,x2): the Y-marked edges form a path from the x1-marked to
    the x2-marked vertex whose internal vertices are exactly the X-marked ones.

    One Y-marked channel is open at any time; the pointer follows it."""
    p1, px, p2, py = (_pos(ctx, v) for v in (x1, xset, x2, yset))

    def step(phase, s):
        isx1, in_x, isx2 = s.vbits[p1], s.vbits[px], s.vbits[p2]
        born_y = s.ebits[py]
        if phase == "pre":
            if in_x or isx2:
                return None
            if isx1:
                return ("riding", next(iter(born_y))) if len(born_y) == 1 else None
            return None if born_y else "pre"
        if phase == "done":
            return None if in_x or born_y else "done"
        port = phase[1]
        if port not in s.base.closing_ports():
            if in_x or isx2 or born_y:
                return None
            return ("riding", s.base.bypass_map()[port])
        if isx2:
            return None if in_x or born_y else "done"
        if in_x and len(born_y) == 1:
            return ("riding", next(iter(born_y)))
        return None

    return _tracker(c, labels, ctx, step, "path tracker", config)


# -- the induction ---------------------------------------------------------------------


def compile_formula(phi, c: int, labels: Sequence,
                    config: RunConfig = DEFAULT_CONFIG) -> SliceAutomaton:
    """The slice automaton of all valid decompositions whose composed DAG
    satisfies the closed graph formula phi."""
    if not mso.is_graph_formula(phi):
        raise InputError("compilation needs a graph formula (rewrite order formulas first)")
    mso.check_sorts(phi)
    if mso.free_vars(phi):
        names = sorted(v.name for v in mso.free_vars(phi))
        raise InputError(f"compilation needs a closed formula; free: {names}")
    return _compile(phi, c, tuple(labels), (), config)


def po_automaton(phi, c: int, labels: Sequence,
                 config: RunConfig = DEFAULT_CONFIG) -> SliceAutomaton:
    """The saturated, transitively reduced automaton of all partial orders
    with Hasse diagram coverable by c paths that satisfy the closed order
    formula phi (read as Hasse-diagram words)."""
    if not mso.is_order_formula(phi):
        raise InputError("po_automaton needs an order formula")
    labels = tuple(labels)
    out = intersect(compile_formula(to_graph_formula(phi), c, labels, config),
                    universal_automaton(c, labels, config), config)
    return out.with_flags(saturated=True, transitively_reduced=True)


def _compile(phi, c: int, labels: tuple, ctx: tuple,
             config: RunConfig) -> SliceAutomaton:
    sorts = _sorts(ctx)
    wf = lambda: well_formed(c, labels, sorts, config)
    try:
        match phi:
            case Truth(value=v):
                if v:
                    return wf()
                base = wf()
                return SliceAutomaton(c, labels, base.alphabet, base.initial, (), ())
            case InSet(elem=e, coll=cl):
                ep, cp = _pos(ctx, e), _pos(ctx, cl)
                if e.sort == VERTEX:
                    return _filter_letters(wf(), lambda s: not (s.vbits[ep] and not s.vbits[cp]))
                return _filter_letters(wf(), lambda s: s.ebits[ep] <= s.ebits[cp])
            case HasLabel(vertex=v, label=lab):
                vp = _pos(ctx, v)
                return _filter_letters(
                    wf(), lambda s: not (s.vbits[vp] and s.base.label != lab))
            case EdgeSource(edge=y, vertex=x):
                yp, xp = _pos(ctx, y), _pos(ctx, x)
                return _filter_letters(
                    wf(), lambda s: not (s.ebits[yp] and not s.vbits[xp]))
            case EdgeTarget(edge=y, vertex=x):
                return intersect(_target_tracker(c, labels, ctx, y, x, config), wf(), config)
            case PathAtom(src=a, vset=x, eset=y, dst=b):
                return intersect(_path_tracker(c, labels, ctx, a, x, y, b, config), wf(),
                                 config)
            case Reduced():
                return intersect(
                    cylindrify(reduced_automaton(c, labels, config), c, labels, sorts),
                    wf(), config)
            case Coverable(count=k):
                return intersect(
                    cylindrify(coverable_automaton(c, labels, k, config), c, labels, sorts),
                    wf(), config)
            case Not(body=b):
                return difference(wf(), _compile(b, c, labels, ctx, config), config)
            case And(left=a, right=b):
                return intersect(_compile(a, c, labels, ctx, config),
                                 _compile(b, c, labels, ctx, config), config)
            case Or(left=a, right=b):
                return union(_compile(a, c, labels, ctx, config),
                             _compile(b, c, labels, ctx, config))
            case Exists(var=v, body=b):
                inner = _compile(b, c, labels, ctx + (v,), config)
                return _erase(inner, c, labels, sorts, v.sort).trim()
        raise InputError(f"not a compilable formula node: {phi!r}")
    except ResourceError as err:
        if err.context and "subformula" in err.context:
            raise
        raise ResourceError(str(err),
                            context=f"subformula {_clip(to_text(phi))}") from err


def _clip(text: str, n: int = 80) -> str:
    return text if len(text) <= n else text[: n - 3] + "..."


def _erase(auto: SliceAutomaton, c: int, labels: tuple, sorts: tuple,
           sort: str) -> SliceAutomaton:
    """Project away the annotation layer of the innermost variable, of the
    given sort, bound inside a context with these sorts."""
    drop = _layer(sorts + (sort,), len(sorts))
    if sort in _VLIKE:
        down = lambda s: s._replace(vbits=s.vbits[:drop] + s.vbits[drop + 1:])
    else:
        down = lambda s: s._replace(ebits=s.ebits[:drop] + s.ebits[drop + 1:])
    return auto.map_letters(annotated_alphabet(c, labels, sorts),
                            {s: (down(s) if sorts else s.base,) for s in auto.alphabet})
