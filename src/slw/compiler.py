"""Compilation of graph formulas to slice automata.

A subformula compiles over its own free variables, its context, sorted:
each letter carries one mark per context variable. A vertex-sorted variable
marks the center vertex or not; an edge-sorted variable marks a set of the
edges born at the letter (an edge is born where its source vertex is the
center). Marks of open edges do not travel on frontiers; the primitive
automata that need them track marked open channels in their states instead.

The induction: atoms become primitive automata of well-formed words (valid
letter sequences with exactly-one marks per first-order variable): letter
filters of the well-formed language, trackers that count the marks
themselves, and the summary automata of the closed atoms `rho` and
`gamma(k)` as they are (their well-formed language is every valid sequence);
conjunction and disjunction move both sides to the union of their contexts
(`cylindrify`) and become product and union; negation is complement relative
to the well-formed language; an existential quantifier marks its variable,
then projects the mark away. Equality is one letter filter: equal marks on
every letter. A closed subformula compiles over the bare unit alphabet
wherever it occurs, and shadowing needs no renaming: the free variable of a
body is always its innermost binder's.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import NamedTuple, Sequence

from .automata import SliceAutomaton, difference, intersect, letter_base, sequences, union
from .config import DEFAULT_CONFIG, InputError, ResourceError, RunConfig
from . import mso
from .mso import (And, Coverable, EdgeSource, EdgeTarget, Equal, Exists, HasLabel, InSet,
                  Not, Or, PathAtom, Reduced, Truth, Var,
                  EDGE, VERTEX, VSET, to_graph_formula, to_text)
from .constructions import coverable_automaton, reduced_automaton, universal_automaton
from .slices import Slice, unit_alphabet


class AnnLetter(NamedTuple):
    """A unit slice with one mark per variable of its context, in context
    order: a bool for a vertex or vertex-set variable (is the center vertex
    marked?), the frozenset of marked born ports for an edge or edge-set
    variable."""
    base: Slice
    marks: tuple


def _context(phi) -> tuple:
    """The variables phi's automaton annotates: its free ones, sorted."""
    return tuple(sorted(mso.free_vars(phi)))


def _sorts(ctx: tuple) -> tuple:
    """The sort signature of a context. Its annotated alphabet and
    well-formed language depend on nothing else, so they are cached on it."""
    return tuple(v.sort for v in ctx)


@lru_cache(maxsize=None)
def annotated_alphabet(c: int, labels: tuple, sorts: tuple) -> tuple:
    """The (c, T) unit alphabet with one mark per variable of a context with
    these sorts.

    First-order edge variables mark at most one born edge per letter; their
    global exactly-one constraint is the well-formed language's job.
    """
    base = unit_alphabet(c, labels)
    if not sorts:
        return base
    letters = []
    for s in base:
        born = s.born_ports
        per_var = [(False, True) if sort in (VERTEX, VSET)
                   else [frozenset()] + [frozenset([o]) for o in born] if sort == EDGE
                   else [frozenset(sub) for r in range(len(born) + 1)
                         for sub in itertools.combinations(born, r)]
                   for sort in sorts]
        letters += [AnnLetter(s, marks) for marks in itertools.product(*per_var)]
    return tuple(letters)


@lru_cache(maxsize=None)
def well_formed(c: int, labels: tuple, sorts: tuple,
                config: RunConfig = DEFAULT_CONFIG) -> SliceAutomaton:
    """Valid letter sequences in which every first-order variable is marked
    exactly once across the word: the tracker that watches nothing else."""
    return _tracker(c, labels, sorts, lambda phase, s: "done", "well-formed language", config)


def _filter_letters(auto: SliceAutomaton, pred) -> SliceAutomaton:
    return auto.map_letters(auto.alphabet,
                            {s: (s,) if pred(s) else () for s in auto.alphabet}).trim()


def cylindrify(auto: SliceAutomaton, c: int, labels: tuple, frm: tuple, to: tuple,
               config: RunConfig = DEFAULT_CONFIG) -> SliceAutomaton:
    """Move an automaton from context `frm` to context `to`: each letter
    becomes every letter of `to` with the same base and the same marks on
    the variables both contexts hold. The marks of variables only in `frm`
    are projected away; a first-order variable only in `to` must then be
    marked exactly once, so the result is cut down to the well-formed
    language."""
    if frm == to:
        return auto
    alphabet = annotated_alphabet(c, labels, _sorts(to))
    shared = [v for v in to if v in frm]
    src, dst = [frm.index(v) for v in shared], [to.index(v) for v in shared]
    by_key = {}
    for s in alphabet:
        by_key.setdefault((letter_base(s), tuple(s.marks[i] for i in dst)), []).append(s)
    out = auto.map_letters(alphabet, {s: by_key[letter_base(s), tuple(s.marks[i] for i in src)]
                                      for s in auto.alphabet})
    if any(v.sort in (VERTEX, EDGE) for v in to if v not in frm):
        return intersect(out, well_formed(c, labels, _sorts(to), config), config)
    return out


# -- primitive automata for the stateful atoms -------------------------------------


def _tracker(c: int, labels: tuple, sorts: tuple, step, name: str,
             config: RunConfig) -> SliceAutomaton:
    """The well-formed words a phase machine accepts, over the annotated
    letters of a context with these sorts: `step(phase, letter)` is the next
    phase, or None to reject. It starts in phase "pre" and accepts in phase
    "done". Beside the phase it counts each first-order variable's marks: a
    second mark rejects, and a word is accepted only with every count at one."""
    fo = [(i, sort == EDGE) for i, sort in enumerate(sorts) if sort in (VERTEX, EDGE)]

    def counted(state, s):
        counts, phase = state
        counts = tuple(n + (len(s.marks[i]) if edge else s.marks[i])
                       for n, (i, edge) in zip(counts, fo))
        if any(n > 1 for n in counts):
            return ()
        phase = step(phase, s)
        return () if phase is None else ((counts, phase),)

    return sequences(c, labels, annotated_alphabet(c, labels, sorts), ((0,) * len(fo), "pre"),
                     counted, lambda state: state[1] == "done" and all(n == 1 for n in state[0]),
                     name=name, config=config).trim()


def _target_tracker(c: int, labels: tuple, ctx: tuple, yvar: Var, xvar: Var,
                    config: RunConfig) -> SliceAutomaton:
    """t(y,x): the edge marked y closes at the letter marked x."""
    ypos, xpos = ctx.index(yvar), ctx.index(xvar)

    def step(phase, s):
        ymarks = s.marks[ypos]
        if phase == "pre":
            return ("riding", next(iter(ymarks))) if ymarks else "pre"
        if ymarks:
            return None
        if phase == "done":
            return "done"
        port = phase[1]
        if port in s.base.closing_ports:
            return "done" if s.marks[xpos] else None
        return ("riding", s.base.bypass_map[port])

    return _tracker(c, labels, _sorts(ctx), step, "edge-target tracker", config)


def _path_tracker(c: int, labels: tuple, ctx: tuple,
                  x1: Var, xset: Var, yset: Var, x2: Var,
                  config: RunConfig) -> SliceAutomaton:
    """path(x1,X,Y,x2): the Y-marked edges form a path from the x1-marked to
    the x2-marked vertex whose internal vertices are exactly the X-marked ones.

    One Y-marked channel is open at any time; the pointer follows it."""
    p1, px, p2, py = (ctx.index(v) for v in (x1, xset, x2, yset))

    def step(phase, s):
        isx1, in_x, isx2 = s.marks[p1], s.marks[px], s.marks[p2]
        born_y = s.marks[py]
        if phase == "pre":
            if in_x or isx2:
                return None
            if isx1:
                return ("riding", next(iter(born_y))) if len(born_y) == 1 else None
            return None if born_y else "pre"
        if phase == "done":
            return None if in_x or born_y else "done"
        port = phase[1]
        if port not in s.base.closing_ports:
            if in_x or isx2 or born_y:
                return None
            return ("riding", s.base.bypass_map[port])
        if isx2:
            return None if in_x or born_y else "done"
        if in_x and len(born_y) == 1:
            return ("riding", next(iter(born_y)))
        return None

    return _tracker(c, labels, _sorts(ctx), step, "path tracker", config)


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
    return _compile(phi, c, tuple(labels), config)


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


def _compile(phi, c: int, labels: tuple, config: RunConfig) -> SliceAutomaton:
    """phi's automaton over the annotated alphabet of its context."""
    ctx = _context(phi)
    wf = lambda: well_formed(c, labels, _sorts(ctx), config)
    to_ctx = lambda sub: cylindrify(_compile(sub, c, labels, config), c, labels,
                                    _context(sub), ctx, config)
    try:
        match phi:
            case Truth(value=v):
                return _filter_letters(wf(), lambda s: v)
            case InSet(elem=e, coll=cl):
                ep, cp = ctx.index(e), ctx.index(cl)
                if e.sort == VERTEX:
                    return _filter_letters(wf(), lambda s: not (s.marks[ep] and not s.marks[cp]))
                return _filter_letters(wf(), lambda s: s.marks[ep] <= s.marks[cp])
            case Equal(left=a, right=b):
                # the well-formed language marks each first-order variable
                # once, a letter has one center and an edge variable marks at
                # most one born port: equal marks everywhere name one element
                ap, bp = ctx.index(a), ctx.index(b)
                return _filter_letters(wf(), lambda s: s.marks[ap] == s.marks[bp])
            case HasLabel(label=lab):  # the context is the vertex alone
                return _filter_letters(wf(), lambda s: not (s.marks[0] and s.base.label != lab))
            case EdgeSource(edge=y, vertex=x):
                yp, xp = ctx.index(y), ctx.index(x)
                return _filter_letters(
                    wf(), lambda s: not (s.marks[yp] and not s.marks[xp]))
            case EdgeTarget(edge=y, vertex=x):
                return _target_tracker(c, labels, ctx, y, x, config)
            case PathAtom(src=a, vset=x, eset=y, dst=b):
                return _path_tracker(c, labels, ctx, a, x, y, b, config)
            # a closed atom's well-formed language is every valid sequence,
            # which holds the summary automaton's language already
            case Reduced():
                return reduced_automaton(c, labels, config)
            case Coverable(count=k):
                return coverable_automaton(c, labels, k, config)
            case Not(body=b):
                return difference(wf(), _compile(b, c, labels, config), config)
            case And(left=a, right=b):
                return intersect(to_ctx(a), to_ctx(b), config)
            case Or(left=a, right=b):
                return union(to_ctx(a), to_ctx(b))
            case Exists(var=v, body=b):
                # marking v first keeps a first-order v that b does not read
                # bound to exactly one element: EX y:e. true is false without edges
                inner, body_ctx = _compile(b, c, labels, config), _context(b)
                with_v = tuple(sorted(set(body_ctx) | {v}))
                return cylindrify(cylindrify(inner, c, labels, body_ctx, with_v, config),
                                  c, labels, with_v, ctx, config)
        raise InputError(f"not a compilable formula node: {phi!r}")
    except ResourceError as err:
        if err.context and "subformula" in err.context:
            raise
        raise ResourceError(str(err),
                            context=f"subformula {_clip(to_text(phi))}") from err


def _clip(text: str, n: int = 80) -> str:
    return text if len(text) <= n else text[: n - 3] + "..."
