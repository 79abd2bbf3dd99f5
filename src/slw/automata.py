"""Finite automata over slice alphabets.

A slice automaton is an NFA whose letters are unit slices (or annotated unit
slices, for the logic compiler): transitions out of the initial state carry
initial slices, transitions into final states carry final slices, and
consecutive transitions carry gluable slices. Languages are sets of unit
decompositions; the empty word is never a member.

States are the integers 0..n-1 in the order a construction discovers them,
with the initial state 0, and each state keeps its out-edges as a list in the
order they were generated. Every construction is one call of `explore`, so
output, `.aut` text included, is deterministic by construction: nothing is
ordered by hash or by `repr`. `sequences` is the one construction of the
gluing rule of unit decompositions, with a caller's step beside it. Every
exploration is capped by `RunConfig.max_states`, and the ResourceError names
the construction.

Automata are immutable and Boolean operations return fresh automata. Nothing
is memoized on an automaton but its per-state successor index. A difference
walks the subsets of its right operand on the fly, building only those its
left operand's words reach. Inclusion, disjointness, emptiness and shortest
words build no automaton: one walk reads the left operand against subsets of
the right one, which may be a successor function such as a token game played
only as far as the walk reads it, and returns the shortest word that escapes
the right operand (inclusion) or that it accepts too (disjointness). A
product is built only where it is an output.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Iterator, Optional, Sequence

from .config import DEFAULT_CONFIG, InputError, ResourceError, RunConfig
from .dag import LabeledDag, LabeledPoset, dedup_posets
from .slices import (Slice, UnitDecomposition, can_glue, compose, from_literal, literal_table,
                     to_literal, unit_alphabet)


# words `SliceAutomaton.enumerate_words` may visit before it gives up
MAX_WORDS = 500_000


def letter_base(letter) -> Slice:
    """The underlying unit slice of a letter (annotated letters carry `.base`)."""
    return getattr(letter, "base", letter)


class SliceAutomaton:
    """NFA over a slice alphabet, with optional language-property flags.

    `adj[q]` lists the out-edges (letter, target) of state q; state 0 is
    initial. `saturated` / `transitively_reduced` record properties guaranteed
    by the construction that produced the automaton; None means unknown.
    """

    initial = 0

    def __init__(self, c: int, labels: Sequence, alphabet: Sequence, initial,
                 finals: Iterable, transitions: Iterable[tuple],
                 states: Optional[Iterable] = None,
                 saturated: Optional[bool] = None,
                 transitively_reduced: Optional[bool] = None):
        """Build from (state, letter, state) triples over any hashable state
        names, numbered in order of first appearance: the initial state, then
        `states`, then the endpoints of the transitions."""
        alphabet = tuple(alphabet)
        letters = frozenset(alphabet)
        ids = {initial: 0}
        for q in states or ():
            ids.setdefault(q, len(ids))
        edges = {}
        for q, s, q2 in transitions:
            if s not in letters:
                raise InputError(f"transition letter not in the declared alphabet: {s!r}")
            edges[ids.setdefault(q, len(ids)), s, ids.setdefault(q2, len(ids))] = None
        adj = [[] for _ in ids]
        for q, s, q2 in edges:
            adj[q].append((s, q2))
        if any(q not in ids for q in finals):
            raise InputError("final states must be states")
        self._set(c, labels, alphabet, adj, frozenset(ids[q] for q in finals),
                  saturated, transitively_reduced)

    def _set(self, c, labels, alphabet, adj, finals, saturated, transitively_reduced):
        self.c = c
        self.labels = tuple(labels)
        self.alphabet = alphabet
        self.adj = adj
        self.finals = finals
        self.saturated = saturated
        self.transitively_reduced = transitively_reduced
        self._index = None

    @classmethod
    def _of(cls, c, labels, alphabet, adj, finals, saturated=None,
            transitively_reduced=None) -> "SliceAutomaton":
        a = cls.__new__(cls)
        a._set(c, labels, alphabet, adj, finals, saturated, transitively_reduced)
        return a

    def with_flags(self, *, saturated: Optional[bool],
                   transitively_reduced: Optional[bool]) -> "SliceAutomaton":
        """The same automaton, sharing its storage, with other property flags."""
        out = SliceAutomaton._of(self.c, self.labels, self.alphabet, self.adj, self.finals,
                                 saturated, transitively_reduced)
        out._index = self._index
        return out

    def map_letters(self, alphabet: Sequence, table: dict) -> "SliceAutomaton":
        """The same states over `alphabet`, each edge on letter s replaced by
        one edge per letter in table[s] (none drops the edge); no flags."""
        adj = [list(dict.fromkeys((t, q2) for s, q2 in edges for t in table[s]))
               for edges in self.adj]
        return SliceAutomaton._of(self.c, self.labels, tuple(alphabet), adj, self.finals)

    # -- read-only views ---------------------------------------------------------

    @property
    def states(self) -> range:
        """The states 0..n-1."""
        return range(len(self.adj))

    @property
    def transitions(self) -> tuple:
        """All (state, letter, state) triples, by state and then in edge order."""
        return tuple((q, s, q2) for q, edges in enumerate(self.adj) for s, q2 in edges)

    def successors(self) -> list:
        """Per state, {letter: [targets]}; built on first use."""
        if self._index is None:
            index = []
            for edges in self.adj:
                row = {}
                for s, q2 in edges:
                    row.setdefault(s, []).append(q2)
                index.append(row)
            self._index = index
        return self._index

    # -- Def-2 validation --------------------------------------------------------

    def validate(self) -> list[str]:
        """Report every violated slice-automaton condition; empty iff valid."""
        report = []
        transitions = self.transitions
        for q, s, q2 in transitions:
            base = letter_base(s)
            if q == 0 and not base.is_initial():
                report.append(
                    f"condition 1: transition out of the initial state carries a "
                    f"non-initial slice: {q!r} --{to_literal(base)}--> {q2!r}")
            if q2 in self.finals and not base.is_final():
                report.append(
                    f"condition 2: transition into a final state carries a "
                    f"non-final slice: {q!r} --{to_literal(base)}--> {q2!r}")
        # the in-port counts of each state's out-letters: an edge into q2 glues
        # to all of them unless they differ from its out-port count
        n_ins = [{letter_base(s).n_in for s, _ in edges} for edges in self.adj]
        for q, s, q2 in transitions:
            if n_ins[q2] <= {letter_base(s).n_out}:
                continue
            for s2, q3 in self.adj[q2]:
                if not can_glue(letter_base(s), letter_base(s2)):
                    report.append(
                        f"condition 3: consecutive transitions carry non-gluable slices: "
                        f"{q!r} --{to_literal(letter_base(s))}--> {q2!r} "
                        f"--{to_literal(letter_base(s2))}--> {q3!r}")
        return report

    # -- language primitives -------------------------------------------------------

    def accepts(self, u) -> bool:
        """NFA acceptance over the letter sequence (a UnitDecomposition or tuple)."""
        letters = tuple(u)
        if not letters:
            return False
        cur = frozenset([0])
        for s in letters:
            cur = _subset_step(self.successors(), cur, s)
            if not cur:
                return False
        return bool(cur & self.finals)

    def trim(self) -> "SliceAutomaton":
        """Drop the states and edges on no accepting path; the initial state
        stays, and the kept states keep their order."""
        adj = self.adj
        reach = [False] * len(adj)
        reach[0] = True
        queue = deque([0])
        while queue:
            for _, q2 in adj[queue.popleft()]:
                if not reach[q2]:
                    reach[q2] = True
                    queue.append(q2)
        rev = [[] for _ in adj]
        for q, edges in enumerate(adj):
            if reach[q]:
                for _, q2 in edges:
                    rev[q2].append(q)
        live = [False] * len(adj)
        queue = deque(q for q in self.finals if reach[q])
        for q in queue:
            live[q] = True
        while queue:
            for q in rev[queue.popleft()]:
                if not live[q]:
                    live[q] = True
                    queue.append(q)
        if all(live):
            return self
        keep = [q for q in self.states if live[q] or q == 0]
        ids = [-1] * len(adj)
        for i, q in enumerate(keep):
            ids[q] = i
        trimmed = [[(s, ids[q2]) for s, q2 in adj[q] if live[q2]] if live[q] else []
                   for q in keep]
        return SliceAutomaton._of(self.c, self.labels, self.alphabet, trimmed,
                                  frozenset(ids[q] for q in self.finals if live[q]),
                                  self.saturated, self.transitively_reduced)

    def is_empty(self, config: RunConfig = DEFAULT_CONFIG) -> bool:
        """True iff no nonempty decomposition is accepted."""
        return self.shortest_accepted(config) is None

    # -- word enumeration ------------------------------------------------------------

    def enumerate_words(self, max_len: int) -> Iterator[tuple]:
        """All accepted words of length <= max_len (letters as stored)."""
        budget = MAX_WORDS

        def rec(q, word):
            nonlocal budget
            budget -= 1
            if budget < 0:
                raise ResourceError("word-enumeration cap exceeded",
                                    context=f"max_words={MAX_WORDS}")
            if word and q in self.finals:
                yield tuple(word)
            if len(word) >= max_len:
                return
            for s, q2 in self.adj[q]:
                word.append(s)
                yield from rec(q2, word)
                word.pop()

        yield from rec(0, [])

    def shortest_accepted(self, config: RunConfig = DEFAULT_CONFIG) -> Optional[tuple]:
        """A length-minimal accepted word, or None: the walk against a right
        operand whose one key never accepts, so its pairs are exactly the
        reachable states."""
        return _walk(self, None, lambda k, s: (k,), lambda k: False, config,
                     name="shortest word")

    def po_members_up_to(self, n: int,
                         config: RunConfig = DEFAULT_CONFIG) -> list[LabeledPoset]:
        """Posets of accepted decompositions with <= n slices, up to isomorphism."""
        if n > config.max_enum_vertices:
            raise ResourceError(f"member enumeration beyond cap: {n}",
                                context=f"max_enum_vertices={config.max_enum_vertices}")
        words = dict.fromkeys(tuple(letter_base(s) for s in w)
                              for w in self.enumerate_words(n))
        return dedup_posets(compose(UnitDecomposition(w)).transitive_closure() for w in words)

    def graph_members_up_to(self, n: int,
                            config: RunConfig = DEFAULT_CONFIG) -> list[LabeledDag]:
        """Composed DAGs of accepted decompositions with <= n slices (deduplicated)."""
        if n > config.max_enum_vertices:
            raise ResourceError(f"member enumeration beyond cap: {n}",
                                context=f"max_enum_vertices={config.max_enum_vertices}")
        by_key = {}
        for w in self.enumerate_words(n):
            g = compose(UnitDecomposition(tuple(letter_base(s) for s in w)))
            by_key.setdefault(g.canonical_key(), g)
        return [by_key[k] for k in sorted(by_key)]

    # -- determinization ------------------------------------------------------------------

    def determinize(self, config: RunConfig = DEFAULT_CONFIG) -> "SliceAutomaton":
        """The subset automaton: deterministic, and a missing letter rejects."""
        succ, finals = self.successors(), self.finals

        def expand(subset):
            for s in dict.fromkeys(s for q in sorted(subset) for s in succ[q]):
                yield s, _subset_step(succ, subset, s)

        return explore(frozenset([0]), expand, lambda subset: not finals.isdisjoint(subset),
                       self.c, self.labels, self.alphabet, name="determinization",
                       config=config)

    # -- serialization ------------------------------------------------------------------

    def to_text(self) -> str:
        header = f"slice-automaton c={self.c} alphabet={','.join(str(x) for x in self.labels)}"
        if self.saturated:
            header += " saturated"
        if self.transitively_reduced:
            header += " reduced"
        lines = [header]
        for q in self.states:
            flags = ["initial"] if q == 0 else []
            if q in self.finals:
                flags.append("final")
            lines.append(" ".join(["state", str(q)] + flags))
        pos = {s: i for i, s in enumerate(self.alphabet)}
        literals = {}
        for q, edges in enumerate(self.adj):
            for s, q2 in sorted(edges, key=lambda e: (pos[e[0]], e[1])):
                lit = literals.get(s)
                if lit is None:
                    lit = literals[s] = to_literal(letter_base(s))
                lines.append(f"trans {q} {lit} {q2}")
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_text(text: str) -> "SliceAutomaton":
        """Parse the `.aut` format: a header, then state lines, then trans lines
        that name only states declared above them."""
        rows = ((n, ln.strip()) for n, ln in enumerate(text.splitlines(), 1))
        rows = ((n, ln) for n, ln in rows if ln and not ln.startswith("#"))
        n, header = next(rows, (0, ""))
        if not header.startswith("slice-automaton"):
            raise InputError("expected a 'slice-automaton c=<c> alphabet=<T>' header")
        c = None
        labels = ()
        saturated = None
        reduced = None
        for tok in header.split()[1:]:
            if tok.startswith("c="):
                if not tok[2:].isdigit():
                    raise InputError(f"line {n}: bad width in {tok!r}")
                c = int(tok[2:])
            elif tok.startswith("alphabet="):
                labels = tuple(tok[len("alphabet="):].split(","))
            elif tok == "saturated":
                saturated = True
            elif tok == "reduced":
                reduced = True
            else:
                raise InputError(f"unknown header token {tok!r}")
        if c is None or not labels:
            raise InputError("header must declare c= and alphabet=")
        # c < 1 is rejected by unit_alphabet below, after the body's own errors
        table = literal_table(c, labels) if c >= 1 else {}
        states, initial, finals, trans = {}, None, set(), []
        for n, ln in rows:
            parts = ln.split(None, 2)
            if parts[0] == "state":
                rest = parts[1:] if len(parts) > 1 else []
                if not rest:
                    raise InputError(f"malformed state line: {ln!r}")
                name = rest[0]
                flags = rest[1].split() if len(rest) > 1 else []
                for flag in flags:
                    if flag not in ("initial", "final"):
                        raise InputError(f"line {n}: unknown state flag {flag!r}")
                states[name] = None
                if "initial" in flags:
                    if initial is not None:
                        raise InputError("multiple initial states declared")
                    initial = name
                if "final" in flags:
                    finals.add(name)
            elif parts[0] == "trans":
                body = parts[2] if len(parts) == 3 else ""
                lit_end = body.rfind("}")
                dst = body[lit_end + 1:].strip()
                if lit_end < 0 or not dst:
                    raise InputError(f"malformed trans line: {ln!r}")
                for q in (parts[1], dst):
                    if q not in states:
                        raise InputError(f"line {n}: transition names undeclared state {q!r}")
                literal = body[: lit_end + 1]
                trans.append((parts[1], table.get(literal) or from_literal(literal), dst))
            else:
                raise InputError(f"unexpected line in automaton file: {ln!r}")
        if initial is None:
            raise InputError("no initial state declared")
        alphabet = unit_alphabet(c, labels)
        return SliceAutomaton(c, labels, alphabet, initial, finals, trans, states=states,
                              saturated=saturated, transitively_reduced=reduced)

    def __repr__(self):
        return (f"SliceAutomaton(c={self.c}, labels={self.labels}, "
                f"|Q|={len(self.states)}, |trans|={len(self.transitions)})")


def explore(start, expand, is_final, c: int, labels: Sequence, alphabet: Sequence, *,
            name: str, config: RunConfig = DEFAULT_CONFIG,
            saturated: Optional[bool] = None,
            transitively_reduced: Optional[bool] = None) -> SliceAutomaton:
    """The automaton of all keys reachable from `start`, built breadth-first.

    `expand(key)` yields (letter, next key) pairs and `is_final(key)` marks the
    accepting keys. Keys are any hashable values; each becomes the next integer
    state when first reached (the start is 0) and is forgotten on return.
    Out-edges keep the order `expand` yields them, without repeats. Reaching
    more than `config.max_states` keys raises a ResourceError naming `name`.
    """
    ids = {start: 0}
    keys = [start]       # the queue: keys in state order, appended while it is read
    adj = []
    finals = []
    for key in keys:
        if is_final(key):
            finals.append(len(adj))
        edges = {}
        for letter, nxt in expand(key):
            q = ids.get(nxt)
            if q is None:
                q = ids[nxt] = len(keys)
                if q >= config.max_states:
                    raise ResourceError(f"state cap exceeded in {name}",
                                        context=f"max_states={config.max_states}")
                keys.append(nxt)
            edges[letter, q] = None
        adj.append(list(edges))
    return SliceAutomaton._of(c, labels, tuple(alphabet), adj, frozenset(finals),
                              saturated, transitively_reduced)


def sequences(c: int, labels: Sequence, alphabet: Sequence, start, step, accepting, *,
              name: str, config: RunConfig = DEFAULT_CONFIG, **flags) -> SliceAutomaton:
    """The unit decompositions a phase machine accepts: the one construction
    of the gluing rule. A state is (started, frontier width, phase), from
    (False, 0, start). At width k it reads the letters with k in-ports, in
    alphabet order, and a letter leads to (True, its out-port count, p) for
    each phase p in `step(phase, letter)`. It accepts once started, at width
    0, in a phase that `accepting` holds. `step` must not read the letter's
    label: it runs once per state and label-blind letter (its base's edges,
    and its marks if it is annotated), and every label shares the result.
    """
    blind, by_width = {}, {}   # in-port count -> (letter, label-blind id, out-port count)
    for s in alphabet:
        base = letter_base(s)
        i = blind.setdefault((base.edges, getattr(s, "marks", None)), len(blind))
        by_width.setdefault(base.n_in, []).append((s, i, base.n_out))

    def expand(state):
        _, width, phase = state
        shared = {}   # label-blind id -> the targets of every letter with it
        for s, i, n_out in by_width.get(width, ()):
            targets = shared.get(i)
            if targets is None:
                targets = shared[i] = [(True, n_out, p) for p in step(phase, s)]
            for target in targets:
                yield s, target

    return explore((False, 0, start), expand,
                   lambda state: state[0] and state[1] == 0 and accepting(state[2]),
                   c, labels, alphabet, name=name, config=config, **flags)


# -- Boolean operations ------------------------------------------------------------


def _require_same_alphabet(a: SliceAutomaton, b: SliceAutomaton):
    # equal letter tuples imply equal label sets, in whatever order they were given
    if a.c != b.c or a.alphabet != b.alphabet:
        raise InputError("operands must share the same (c, T) slice alphabet")


def intersect(a: SliceAutomaton, b: SliceAutomaton,
              config: RunConfig = DEFAULT_CONFIG) -> SliceAutomaton:
    """Product automaton: L = L(a) ∩ L(b)."""
    _require_same_alphabet(a, b)
    a_adj, b_succ = a.adj, b.successors()

    def expand(pair):
        qa, qb = pair
        row = b_succ[qb]
        for s, qa2 in a_adj[qa]:
            for qb2 in row.get(s, ()):
                yield s, (qa2, qb2)

    return explore((0, 0), expand, lambda p: p[0] in a.finals and p[1] in b.finals,
                   a.c, a.labels, a.alphabet, name="intersection", config=config,
                   saturated=True if (a.saturated and b.saturated) else None,
                   transitively_reduced=True if (a.transitively_reduced
                                                 or b.transitively_reduced) else None
                   ).trim()


def union(a: SliceAutomaton, b: SliceAutomaton) -> SliceAutomaton:
    """Disjoint union behind a fresh initial state: L = L(a) ∪ L(b)."""
    _require_same_alphabet(a, b)
    na = len(a.adj)
    adj = [[(s, q + 1) for s, q in edges] for edges in a.adj]
    adj += [[(s, q + 1 + na) for s, q in edges] for edges in b.adj]
    adj.insert(0, adj[0] + adj[na])
    finals = frozenset(q + 1 for q in a.finals) | frozenset(q + 1 + na for q in b.finals)
    return SliceAutomaton._of(
        a.c, a.labels, a.alphabet, adj, finals,
        True if (a.saturated and b.saturated) else None,
        True if (a.transitively_reduced and b.transitively_reduced) else None).trim()


def _subset_step(succ: list, subset: frozenset, letter) -> frozenset:
    """The states reached from `subset` on `letter`; `succ` is `successors()`."""
    return frozenset(q2 for q in subset for q2 in succ[q].get(letter, ()))


def difference(a: SliceAutomaton, b: SliceAutomaton,
               config: RunConfig = DEFAULT_CONFIG) -> SliceAutomaton:
    """L = L(a) \\ L(b): the product of a with the subsets of b's states that
    a's words reach, built on the fly; a pair accepts when a does and no state
    of its subset does (the empty subset rejects everything that follows)."""
    _require_same_alphabet(a, b)
    a_adj, b_succ, b_finals = a.adj, b.successors(), b.finals

    def expand(pair):
        qa, subset = pair
        for s, qa2 in a_adj[qa]:
            yield s, (qa2, _subset_step(b_succ, subset, s))

    return explore((0, frozenset([0])), expand,
                   lambda p: p[0] in a.finals and b_finals.isdisjoint(p[1]),
                   a.c, a.labels, a.alphabet, name="difference", config=config,
                   saturated=True if (a.saturated and b.saturated) else None,
                   transitively_reduced=True if a.transitively_reduced else None).trim()


def _walk(a: SliceAutomaton, start, step, accepting, config: RunConfig, *,
          name: str, meets: bool = False) -> Optional[tuple]:
    """A shortest word of `a` that leads the right operand from `start` to a
    set of keys holding no accepting key (`meets=False`) or some accepting
    key (`meets=True`), or None: `step(key, letter)` gives the keys one
    letter leads to.

    A breadth-first walk over pairs (state of a, set of right-operand keys)
    in `explore`'s order; it stops at the first edge into a final state of a
    whose set answers the question, so only the pairs before it are read.
    Keys are numbered when first reached, as `explore` numbers states, so a
    set is a frozenset of ints, and `step` and `accepting` run once per key
    (and letter). Under `meets=True` an empty set can meet nothing, and its
    pair is dropped. Reading more than `config.max_states` pairs, or more
    than `config.max_states` keys, raises a ResourceError naming `name`.
    """
    a_adj, a_finals, cap = a.adj, a.finals, config.max_states
    ids = {start: 0}
    keys = [start]                  # key id -> key
    accepts = [accepting(start)]    # key id -> accepting?
    memo = {}                       # (key id, letter) -> ids of the keys it leads to

    def image(kids, letter):
        out = set()
        for k in kids:
            nxt = memo.get((k, letter))
            if nxt is None:
                nxt = []
                for key in step(keys[k], letter):
                    i = ids.get(key)
                    if i is None:
                        i = ids[key] = len(keys)
                        if i >= cap:
                            raise ResourceError(f"state cap exceeded in {name}",
                                                context=f"max_states={cap}")
                        keys.append(key)
                        accepts.append(accepting(key))
                    nxt.append(i)
                memo[k, letter] = nxt = tuple(nxt)
            out.update(nxt)
        return frozenset(out)

    first = (0, frozenset([0]))
    parent = {first: None}   # pair -> (the pair it was reached from, letter)
    queue = deque([first])
    while queue:
        pair = queue.popleft()
        qa, kids = pair
        for letter, qa2 in a_adj[qa]:
            kids2 = image(kids, letter)
            if qa2 in a_finals and any(accepts[k] for k in kids2) == meets:
                word = (letter,)
                while parent[pair] is not None:
                    pair, s = parent[pair]
                    word = (s,) + word
                return word
            if meets and not kids2:
                continue
            nxt = (qa2, kids2)
            if nxt not in parent:
                if len(parent) >= cap:
                    raise ResourceError(f"state cap exceeded in {name}",
                                        context=f"max_states={cap}")
                parent[nxt] = (pair, letter)
                queue.append(nxt)
    return None


def _nfa_step(b: SliceAutomaton):
    """`_walk`'s step over the states of b: a state's targets on a letter."""
    succ = b.successors()
    return lambda q, s: succ[q].get(s, ())


def counterexample(a: SliceAutomaton, b: SliceAutomaton,
                   config: RunConfig = DEFAULT_CONFIG) -> Optional[tuple]:
    """A shortest word of L(a) \\ L(b), or None, by one walk of a against the
    subsets of b's states; b is never determinized or complemented."""
    _require_same_alphabet(a, b)
    return _walk(a, 0, _nfa_step(b), b.finals.__contains__, config, name="inclusion")


def includes(a: SliceAutomaton, b: SliceAutomaton,
             config: RunConfig = DEFAULT_CONFIG) -> bool:
    """True iff L(a) ⊆ L(b); with b saturated and both transitively reduced,
    also for the poset languages."""
    return counterexample(a, b, config) is None


def common_word(a: SliceAutomaton, b: SliceAutomaton,
                config: RunConfig = DEFAULT_CONFIG) -> Optional[tuple]:
    """A shortest word of L(a) ∩ L(b), or None, by one walk of a against the
    subsets of b's states that stops at the first word both accept; no
    product is built."""
    _require_same_alphabet(a, b)
    return _walk(a, 0, _nfa_step(b), b.finals.__contains__, config, name="disjointness",
                 meets=True)


def disjoint(a: SliceAutomaton, b: SliceAutomaton,
             config: RunConfig = DEFAULT_CONFIG) -> bool:
    """True iff L(a) ∩ L(b) = ∅, by the `common_word` walk. With both
    transitively reduced and one saturated, this decides poset-language
    disjointness as well."""
    return common_word(a, b, config) is None


def equivalent(a: SliceAutomaton, b: SliceAutomaton,
               config: RunConfig = DEFAULT_CONFIG) -> bool:
    return includes(a, b, config) and includes(b, a, config)


def from_decompositions(c: int, labels: Sequence,
                        decomps: Iterable) -> SliceAutomaton:
    """A trie-shaped automaton accepting exactly the given decompositions."""
    labels = tuple(labels)
    trans = []
    finals = set()
    for u in decomps:
        prefix = ()
        for s in u:
            trans.append((prefix, s, prefix + (s,)))
            prefix += (s,)
        finals.add(prefix)
    return SliceAutomaton(c, labels, unit_alphabet(c, labels), (), finals, trans)


def valid_sequences(c: int, labels: Sequence) -> SliceAutomaton:
    """The automaton of all valid letter sequences over the (c, T) unit alphabet
    (first letter initial, consecutive letters gluable, last letter final).

    This is the complementation baseline; it is NOT the automaton of all
    width-c-coverable partial orders.
    """
    labels = tuple(labels)
    return sequences(c, labels, unit_alphabet(c, labels), None, lambda phase, s: (None,),
                     lambda phase: True, name="valid sequences")
