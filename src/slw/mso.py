"""Monadic second-order formulas over posets and over DAGs.

Order formulas speak about vertices, vertex sets, labels and the order x < y;
graph formulas additionally quantify over edges and edge sets and use the
source/target atoms s(y,x), t(y,x). Equality x = y of two first-order
variables of one sort is an atom. Universal quantification, implication and
biconditional are parser macros over the minimal connective set; `rho`
(transitively reduced), `gamma(c)` (coverable by c paths) and
`path(x1,X,Y,x2)` are builtin atoms with equivalent pure encodings.

Each atom is declared once, in `SIGNATURES`: the sorts its variables may
take, whether it speaks about edges, and its spelling, an infix operator or
a name. The queries, `check_sorts` (which also rejects a binder of none of
the four sorts), the parser and the printer read it. The parser and the
printer also share one table of the binary connectives, `_BINARY`, with
their precedence and associativity. The parser checks the sorts of a named
atom's variables as it reads them; those of an infix atom are `check_sorts`'
to judge. Labels are a set: a repeated label is an input error, and label
order changes no alphabet.

The evaluators are deliberate brute-force oracles: they expand quantifiers
over the finite structure and are meant for desk-scale cross-checking.
"""

from __future__ import annotations

import re
from functools import reduce
from typing import Iterator, NamedTuple, Optional

from .config import (DEFAULT_CONFIG, MAX_ENUM_EDGES, InputError, Record, ResourceError,
                     RunConfig, decimal)
from .dag import LabeledDag, LabeledPoset

VERTEX, EDGE, VSET, ESET = "vertex", "edge", "vset", "eset"
SORTS = (VERTEX, EDGE, VSET, ESET)
_FIRST_ORDER = (VERTEX, EDGE)
_ORDER_SORTS = (VERTEX, VSET)


class Var(NamedTuple):
    """A variable: a name and a sort; equal names of different sorts differ.
    A tuple, so the evaluator's environment hashes it without a Python call."""
    name: str
    sort: str


class Truth(Record):
    __slots__ = ("value",)
    value: bool


class InSet(Record):
    __slots__ = ("elem", "coll")
    elem: Var
    coll: Var


class Less(Record):
    __slots__ = ("left", "right")
    left: Var
    right: Var


class Equal(Record):
    __slots__ = ("left", "right")
    left: Var
    right: Var


class HasLabel(Record):
    __slots__ = ("vertex", "label")
    vertex: Var
    label: str


class EdgeSource(Record):
    __slots__ = ("edge", "vertex")
    edge: Var
    vertex: Var


class EdgeTarget(Record):
    __slots__ = ("edge", "vertex")
    edge: Var
    vertex: Var


class Not(Record):
    __slots__ = ("body",)
    body: object


class And(Record):
    __slots__ = ("left", "right")
    left: object
    right: object


class Or(Record):
    __slots__ = ("left", "right")
    left: object
    right: object


class Exists(Record):
    __slots__ = ("var", "body")
    var: Var
    body: object


class PathAtom(Record):
    """A path from src to dst whose internal vertices are exactly vset and
    whose edges are exactly eset (length >= 1)."""
    __slots__ = ("src", "vset", "eset", "dst")
    src: Var
    vset: Var
    eset: Var
    dst: Var


class Reduced(Record):
    """The DAG equals its own transitive reduction."""
    __slots__ = ()


class Coverable(Record):
    """The DAG is the union of `count` simple paths."""
    __slots__ = ("count",)
    count: int


Formula = object


class Signature(Record):
    """An atom's declaration. Its variables are its first fields, as many as
    each tuple in `sorts` holds; a field after them is read by its annotated
    kind: `str` is any token, `int` a decimal numeral."""
    __slots__ = ("sorts", "graph", "spelling", "infix", "error")
    sorts: tuple              # the sort tuples its variables may take, in field order
    graph: bool               # speaks about edges: no order formula holds it
    spelling: Optional[str]   # its operator or its name; None for true/false
    infix: bool               # written var op var, else name(field,...,field) or bare
    error: str                # check_sorts' message ({0}, {1} name its variables),
                              # or the parser's for a malformed numeral


_ST_ERROR = "s/t atoms need (edge, vertex) arguments: {0}, {1}"

SIGNATURES = {
    Truth: Signature(((),), False, None, False, ""),
    Less: Signature(((VERTEX, VERTEX),), False, "<", True,
                    "order atom needs vertex variables: {0} < {1}"),
    Equal: Signature(((VERTEX, VERTEX), (EDGE, EDGE)), False, "=", True,
                     "equality needs two first-order variables of one sort: {0} = {1}"),
    InSet: Signature(((VERTEX, VSET), (EDGE, ESET)), False, "in", True,
                     "ill-sorted membership: {0} in {1}"),
    HasLabel: Signature(((VERTEX,),), False, "l", False,
                        "label atom needs a vertex variable: {0}"),
    EdgeSource: Signature(((EDGE, VERTEX),), True, "s", False, _ST_ERROR),
    EdgeTarget: Signature(((EDGE, VERTEX),), True, "t", False, _ST_ERROR),
    PathAtom: Signature(((VERTEX, VSET, ESET, VERTEX),), True, "path", False,
                        "path atom needs (vertex, vertex-set, edge-set, vertex)"),
    Reduced: Signature(((),), True, "rho", False, ""),
    Coverable: Signature(((),), True, "gamma", False, "gamma(c) needs a numeral"),
}

# -- convenience constructors (macros share these) ---------------------------------


def forall(var: Var, body) -> Formula:
    return Not(Exists(var, Not(body)))


def implies(a, b) -> Formula:
    return Or(Not(a), b)


def iff(a, b) -> Formula:
    return And(implies(a, b), implies(b, a))


def conj(parts) -> Formula:
    parts = list(parts)
    return reduce(And, parts) if parts else Truth(True)


def disj(parts) -> Formula:
    parts = list(parts)
    return reduce(Or, parts) if parts else Truth(False)


# -- traversal and structural queries ----------------------------------------------


_VARIABLE_FIELDS = {cls: cls.__match_args__[:len(sig.sorts[0])]
                    for cls, sig in SIGNATURES.items()}


def _variables(atom) -> list:
    """An atom's variables, in field order: its first fields, one per sort."""
    return [getattr(atom, f) for f in _VARIABLE_FIELDS[atom.__class__]]


def _children(phi) -> tuple:
    """phi's immediate subformulas; InputError if phi is no formula node."""
    cls = phi.__class__
    if cls is And or cls is Or:
        return (phi.left, phi.right)
    if cls is Not or cls is Exists:
        return (phi.body,)
    if cls in SIGNATURES:
        return ()
    raise InputError(f"not a formula node: {phi!r}")


def _nodes(phi, out: Optional[list] = None) -> list:
    """phi's nodes in depth-first order, left to right, appended to `out`."""
    out = [] if out is None else out
    out.append(phi)
    for child in _children(phi):
        _nodes(child, out)
    return out


def _map_atoms(phi, rule) -> Formula:
    """phi with each atom replaced by rule(atom)."""
    match phi:
        case Not(body=b):
            return Not(_map_atoms(b, rule))
        case And(left=a, right=b):
            return And(_map_atoms(a, rule), _map_atoms(b, rule))
        case Or(left=a, right=b):
            return Or(_map_atoms(a, rule), _map_atoms(b, rule))
        case Exists(var=v, body=b):
            return Exists(v, _map_atoms(b, rule))
    return rule(phi)


def free_vars(phi) -> frozenset:
    if phi.__class__ is Exists:
        return free_vars(phi.body) - {phi.var}
    if phi.__class__ in SIGNATURES:
        return frozenset(_variables(phi))
    return frozenset.union(*map(free_vars, _children(phi)))


def is_order_formula(phi) -> bool:
    """No graph atom anywhere, and no variable of an edge (or unknown) sort."""
    for node in _nodes(phi):
        sig = SIGNATURES.get(node.__class__)
        variables = (node.var,) if node.__class__ is Exists else _variables(node) if sig else ()
        if (sig and sig.graph) or any(v.sort not in _ORDER_SORTS for v in variables):
            return False
    return True


def is_graph_formula(phi) -> bool:
    """No order atom x < y anywhere."""
    return Less not in map(type, _nodes(phi))


def check_sorts(phi):
    """Raise InputError on an atom whose variables' sorts its signature does
    not allow, and on a binder of none of the four sorts."""
    for node in _nodes(phi):
        if node.__class__ is Exists:
            if node.var.sort not in SORTS:
                raise InputError(f"bound variable {node.var.name} has unknown sort "
                                 f"{node.var.sort!r}")
        elif (sig := SIGNATURES.get(node.__class__)) is not None:
            variables = _variables(node)
            if tuple([v.sort for v in variables]) not in sig.sorts:
                raise InputError(sig.error.format(*[v.name for v in variables]))


# -- the order-to-graph rewrite -----------------------------------------------------

def to_graph_formula(phi) -> Formula:
    """Rewrite an order formula for evaluation on Hasse diagrams: each atom
    x < y becomes 'there is a path from x to y'. The path's sets are always
    named PV and PE: sets, so they never capture the vertices x and y."""
    def rule(atom):
        match atom:
            case Less(left=a, right=b):
                xv, yv = Var("PV", VSET), Var("PE", ESET)
                return Exists(xv, Exists(yv, PathAtom(a, xv, yv, b)))
        return atom
    return _map_atoms(phi, rule)


# -- builtins: pure second-order encodings ------------------------------------------


def path_formula(src: Var, vset: Var, eset: Var, dst: Var) -> Formula:
    """Pure encoding of the path builtin (degree characterization; sound on DAGs).
    Its bound variables are named apart from the arguments, so they capture none."""
    taken, suffix = {src.name, vset.name, eset.name, dst.name}, ""
    while taken & {"pfy" + suffix, "pfz" + suffix, "pfv" + suffix}:
        suffix += "_"
    y, z, v = Var("pfy" + suffix, EDGE), Var("pfz" + suffix, EDGE), Var("pfv" + suffix, VERTEX)

    def deg(vertex: Var, incident, want: int) -> Formula:
        # want==1: exactly one eset-edge incident as given; want==0: none
        some = Exists(y, conj([InSet(y, eset), incident(y, vertex),
                               forall(z, implies(And(InSet(z, eset), incident(z, vertex)),
                                                 Equal(z, y)))]))
        none = Not(Exists(y, And(InSet(y, eset), incident(y, vertex))))
        return some if want == 1 else none

    endpoints_ok = forall(y, implies(
        InSet(y, eset),
        forall(v, implies(Or(EdgeSource(y, v), EdgeTarget(y, v)),
                          disj([InSet(v, vset), Equal(v, src), Equal(v, dst)])))))
    internal_ok = forall(v, implies(
        InSet(v, vset),
        And(deg(v, EdgeSource, 1), deg(v, EdgeTarget, 1))))
    src_ok = And(deg(src, EdgeSource, 1), deg(src, EdgeTarget, 0))
    dst_ok = And(deg(dst, EdgeTarget, 1), deg(dst, EdgeSource, 0))
    nonempty = Exists(y, InSet(y, eset))
    return conj([nonempty, endpoints_ok, internal_ok, src_ok, dst_ok])


def reduced_formula() -> Formula:
    """Pure encoding of rho: no edge is subsumed by a longer path or duplicated."""
    y = Var("ry", EDGE)
    z = Var("rz", EDGE)
    v, w, u = Var("rv", VERTEX), Var("rw", VERTEX), Var("ru", VERTEX)
    xs, ys = Var("RX", VSET), Var("RYS", ESET)
    long_path = Exists(xs, Exists(ys, And(path_formula(v, xs, ys, w),
                                          Exists(u, InSet(u, xs)))))
    parallel = Exists(z, conj([Not(Equal(z, y)), EdgeSource(z, v), EdgeTarget(z, w)]))
    bad = Exists(y, Exists(v, Exists(w, conj([
        EdgeSource(y, v), EdgeTarget(y, w), Or(long_path, parallel)]))))
    return Not(bad)


def coverable_formula(count: int) -> Formula:
    """Pure encoding of gamma(c): c path-shaped (X_i, Y_i) pairs covering
    every vertex and every edge."""
    if count < 1:
        raise InputError("gamma(c) needs c >= 1")
    v, w = Var("gv", VERTEX), Var("gw", VERTEX)
    y, z = Var("gy", EDGE), Var("gz", EDGE)

    def path_shape(xs: Var, ys: Var) -> Formula:
        endpoints = forall(y, implies(
            InSet(y, ys),
            forall(v, implies(Or(EdgeSource(y, v), EdgeTarget(y, v)), InSet(v, xs)))))
        at_most_one = conj([
            forall(v, implies(InSet(v, xs), forall(y, forall(z, implies(
                conj([InSet(y, ys), InSet(z, ys), incident(y, v), incident(z, v)]),
                Equal(y, z))))))
            for incident in (EdgeSource, EdgeTarget)])
        no_in = lambda vertex: Not(Exists(y, And(InSet(y, ys), EdgeTarget(y, vertex))))
        one_source = Exists(v, conj([
            InSet(v, xs), no_in(v),
            forall(w, implies(And(InSet(w, xs), no_in(w)), Equal(w, v)))]))
        return conj([endpoints, at_most_one, one_source])

    xsets = [Var(f"GX{i}", VSET) for i in range(1, count + 1)]
    ysets = [Var(f"GYS{i}", ESET) for i in range(1, count + 1)]
    out = conj(
        [path_shape(xs, ys) for xs, ys in zip(xsets, ysets)]
        + [forall(v, disj([InSet(v, xs) for xs in xsets])),
           forall(y, disj([InSet(y, ys) for ys in ysets]))])
    for var in reversed(xsets + ysets):
        out = Exists(var, out)
    return out


def expand_builtins(phi) -> Formula:
    """Replace every builtin atom by its pure second-order encoding."""
    def rule(atom):
        match atom:
            case PathAtom(src=a, vset=x, eset=y, dst=b):
                return path_formula(a, x, y, b)
            case Reduced():
                return reduced_formula()
            case Coverable(count=c):
                return coverable_formula(c)
        return atom
    return _map_atoms(phi, rule)


# -- evaluation oracles ---------------------------------------------------------------


def evaluate_po(poset: LabeledPoset, phi, env: Optional[dict] = None,
                config: RunConfig = DEFAULT_CONFIG) -> bool:
    """Brute-force truth of an order formula on a labeled poset."""
    if not is_order_formula(phi):
        raise InputError("evaluate_po needs an order formula")
    check_sorts(phi)
    if poset.n_vertices() > config.max_enum_vertices:
        raise ResourceError("poset too large for quantifier expansion",
                            context=f"max_enum_vertices={config.max_enum_vertices}")
    return _eval(phi, _bind(phi, env), poset)


def evaluate_dag(dag: LabeledDag, phi, env: Optional[dict] = None,
                 config: RunConfig = DEFAULT_CONFIG) -> bool:
    """Brute-force truth of a graph formula on a labeled DAG."""
    if not is_graph_formula(phi):
        raise InputError("evaluate_dag needs a graph formula (no order atoms)")
    check_sorts(phi)
    if dag.n_vertices() > config.max_enum_vertices or len(dag.edges) > MAX_ENUM_EDGES:
        raise ResourceError("DAG too large for quantifier expansion",
                            context=f"caps {config.max_enum_vertices}/{MAX_ENUM_EDGES}")
    return _eval(phi, _bind(phi, env), dag)


_MISSING = object()


def _bind(phi, env: Optional[dict]) -> dict:
    """Key a caller's environment by Var (name and sort), as _eval does."""
    return {v: env[v.name] for v in free_vars(phi) if env and v.name in env}


def _subsets(items) -> Iterator[frozenset]:
    items = tuple(items)
    for mask in range(1 << len(items)):
        yield frozenset(items[i] for i in range(len(items)) if (mask >> i) & 1)


def _eval(phi, env: dict, st) -> bool:
    """phi's truth on st, a LabeledPoset or a LabeledDag: evaluate_po admits
    only order formulas, which read no edges, and evaluate_dag only graph
    formulas, which read no order."""
    match phi:
        case Not(body=b):
            return not _eval(b, env, st)
        case And(left=a, right=b):
            return _eval(a, env, st) and _eval(b, env, st)
        case Or(left=a, right=b):
            return _eval(a, env, st) or _eval(b, env, st)
        case InSet(elem=e, coll=c):
            return env[e] in env[c]
        case Equal(left=a, right=b):
            return env[a] == env[b]
        case Less(left=a, right=b):
            return st.less(env[a], env[b])
        case PathAtom(src=a, vset=x, eset=y, dst=b):
            return _check_path(st, env[a], env[x], env[y], env[b])
        case HasLabel(vertex=v, label=lab):
            return st.labels[env[v]] == lab
        case EdgeSource(edge=y, vertex=x):
            return st.edges[env[y]][0] == env[x]
        case EdgeTarget(edge=y, vertex=x):
            return st.edges[env[y]][1] == env[x]
        case Truth(value=v):
            return v
        case Reduced():
            return st.is_transitively_reduced()
        case Coverable(count=c):
            return st.min_path_cover()[0] <= c
        case Exists(var=v, body=b):
            items = st.vertices if v.sort in _ORDER_SORTS else range(len(st.edges))
            domain = items if v.sort in _FIRST_ORDER else _subsets(items)
            old = env.get(v, _MISSING)
            found = False
            for value in domain:
                env[v] = value
                if _eval(b, env, st):
                    found = True
                    break
            if old is _MISSING:
                env.pop(v, None)
            else:
                env[v] = old
            return found
    raise InputError(f"not a formula node: {phi!r}")


def _check_path(dag: LabeledDag, src, vset, eset, dst) -> bool:
    """Native semantics of the path builtin; matches the degree encoding."""
    if not eset:
        return False
    outd, ind = {}, {}
    for e in eset:
        u, v = dag.edges[e]
        if u not in vset and u != src and u != dst:
            return False
        if v not in vset and v != src and v != dst:
            return False
        outd[u] = outd.get(u, 0) + 1
        ind[v] = ind.get(v, 0) + 1
    return (outd.get(src, 0) == 1 and ind.get(src, 0) == 0
            and ind.get(dst, 0) == 1 and outd.get(dst, 0) == 0
            and all(outd.get(v, 0) == 1 and ind.get(v, 0) == 1 for v in vset))


# -- concrete syntax --------------------------------------------------------------------

_TOKEN_RE = re.compile(r"\s*(<->|->|[()\.,&|!<=]|:e|[A-Za-z_][A-Za-z0-9_]*|[0-9]+|\S)")
_KEYWORDS = {"EX", "ALL", "in", "true", "false", "rho", "gamma", "path"}
_NAMED = {sig.spelling: cls for cls, sig in SIGNATURES.items() if sig.spelling and not sig.infix}
_INFIX = {sig.spelling: cls for cls, sig in SIGNATURES.items() if sig.infix}

# the binary connectives, loosest first: token -> (precedence, builder, right-associative);
# `!`, the quantifiers and the atoms bind tighter than all of them
_BINARY = {"<->": (0, iff, False), "->": (1, implies, True), "|": (2, Or, False),
           "&": (3, And, False)}
_UNARY = len(_BINARY)
# `->` and `<->` are macros, so only the connectives that are nodes are printed
_PRINTED = {build: (tok, prec, right) for tok, (prec, build, right) in _BINARY.items()
            if isinstance(build, type)}


class _Parser:
    def __init__(self, text: str, free: Optional[dict] = None):
        self.text = text
        self.tokens = [(m.group(1), m.start(1)) for m in _TOKEN_RE.finditer(text)]
        self.i = 0
        self.scope = {name: Var(name, sort) for name, sort in (free or {}).items()}

    def error(self, msg: str):
        pos = self.tokens[self.i][1] if self.i < len(self.tokens) else len(self.text)
        raise InputError(f"syntax error at position {pos}: {msg}")

    def peek(self, ahead: int = 0) -> Optional[str]:
        return self.tokens[self.i + ahead][0] if self.i + ahead < len(self.tokens) else None

    def take(self, expected: Optional[str] = None) -> str:
        tok = self.peek()
        if tok is None:
            self.error("unexpected end of formula" +
                       (f" (expected {expected!r})" if expected else ""))
        if expected is not None and tok != expected:
            self.error(f"expected {expected!r}, found {tok!r}")
        self.i += 1
        return tok

    def formula(self, min_prec: int = 0):
        """Precedence climbing: a unary formula, then every binary connective
        of precedence at least min_prec, each with its right operand."""
        left = self.unary()
        while (op := _BINARY.get(self.peek())) is not None and op[0] >= min_prec:
            prec, build, right = op
            self.take()
            left = build(left, self.formula(prec if right else prec + 1))
        return left

    def unary(self):
        tok = self.peek()
        if tok == "!":
            self.take()
            return Not(self.unary())
        if tok in ("EX", "ALL"):
            return self.quantifier()
        return self.atom()

    def quantifier(self):
        kind = self.take()
        name = self.name()
        edge_sorted = self.peek() == ":e"
        if edge_sorted:
            self.take()
        if name[0].isupper():
            sort = ESET if edge_sorted else VSET
        else:
            sort = EDGE if edge_sorted else VERTEX
        self.take(".")
        var = Var(name, sort)
        outer = self.scope
        self.scope = {**outer, name: var}
        body = self.formula()
        self.scope = outer
        return Exists(var, body) if kind == "EX" else forall(var, body)

    def atom(self):
        tok = self.peek()
        if tok == "(":
            self.take()
            phi = self.formula()
            self.take(")")
            return phi
        if tok in ("true", "false"):
            self.take()
            return Truth(tok == "true")
        cls = _NAMED.get(tok)
        if cls is not None and (tok in _KEYWORDS or self.peek(1) == "("):
            self.take()
            return cls(*self.fields(cls))
        # infix atoms: check_sorts judges their sorts
        left = self.variable(None)
        cls = _INFIX.get(self.peek())
        if cls is None:
            ops = list(map(repr, _INFIX))
            self.error(f"expected {', '.join(ops[:-1])} or {ops[-1]} "
                       f"after variable {left.name!r}")
        self.take()
        return cls(left, self.variable(None))

    def fields(self, cls) -> list:
        """A named atom's fields, in parentheses unless it has none: its
        variables, of the sorts its signature gives, then the rest by kind."""
        sig, names = SIGNATURES[cls], cls.__match_args__
        if not names:
            return []
        sorts = sig.sorts[0]
        self.take("(")
        values = []
        for i, field in enumerate(names):
            if i:
                self.take(",")
            if i < len(sorts):
                values.append(self.variable(sorts[i]))
                continue
            tok = self.take()
            if cls.__annotations__[field] == "int":
                tok = decimal(tok)
                if tok is None:
                    self.error(sig.error)
            values.append(tok)
        self.take(")")
        return values

    def name(self) -> str:
        name = self.take()
        if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", name) or name in _KEYWORDS:
            self.error(f"bad variable name {name!r}")
        return name

    def variable(self, want: Optional[str]) -> Var:
        name = self.name()
        var = self.scope.get(name)
        if var is None:
            self.error(f"unbound variable {name!r}")
        if want is not None and var.sort != want:
            self.error(f"variable {name!r} has sort {var.sort}, expected {want}")
        return var


def parse(text: str, free: Optional[dict] = None) -> Formula:
    """Parse the ASCII syntax; unbound variables are errors unless declared
    in `free` (a name -> sort mapping)."""
    p = _Parser(text, free)
    try:
        phi = p.formula()
        if p.peek() is not None:
            p.error(f"trailing input {p.peek()!r}")
        check_sorts(phi)
    except RecursionError:
        raise InputError("formula nested too deeply") from None
    return phi


def to_text(phi) -> str:
    """Render a formula; parse(to_text(phi)) == phi for closed formulas."""
    return _print(phi, 0)


def _print(phi, prec: int) -> str:
    cls = phi.__class__
    if cls is Truth:
        return "true" if phi.value else "false"
    if cls is Not:
        return "!" + _print(phi.body, _UNARY)
    if cls is Exists:
        suffix = ":e" if phi.var.sort in (EDGE, ESET) else ""
        return _wrap(f"EX {phi.var.name}{suffix}. {_print(phi.body, 0)}", 0, prec)
    if cls in _PRINTED:
        tok, own, right = _PRINTED[cls]
        # only the operand on the associative side may hold the same connective bare
        left_prec, right_prec = (own + 1, own) if right else (own, own + 1)
        s = f"{_print(phi.left, left_prec)} {tok} {_print(phi.right, right_prec)}"
        return _wrap(s, own, prec)
    sig = SIGNATURES.get(cls)
    if sig is None:
        raise InputError(f"not a formula node: {phi!r}")
    variables = _variables(phi)
    fields = [v.name for v in variables] + [str(getattr(phi, f))
                                            for f in cls.__match_args__[len(variables):]]
    if sig.infix:
        return f"{fields[0]} {sig.spelling} {fields[1]}"
    return sig.spelling + (f"({','.join(fields)})" if fields else "")


def _wrap(s: str, node_prec: int, ctx_prec: int) -> str:
    return s if node_prec >= ctx_prec else f"({s})"
