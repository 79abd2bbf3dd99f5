"""Monadic second-order formulas over posets and over DAGs.

Order formulas speak about vertices, vertex sets, labels and the order x < y;
graph formulas additionally quantify over edges and edge sets and use the
source/target atoms s(y,x), t(y,x). Universal quantification, implication,
biconditional and equality are parser macros over the minimal connective set;
`rho` (transitively reduced), `gamma(c)` (coverable by c paths) and
`path(x1,X,Y,x2)` are builtin atoms with equivalent pure encodings.

The evaluators are deliberate brute-force oracles: they expand quantifiers
over the finite structure and are meant for desk-scale cross-checking.
"""

from __future__ import annotations

import re
from typing import Iterator, NamedTuple, Optional

from .config import DEFAULT_CONFIG, InputError, Record, ResourceError, RunConfig
from .dag import LabeledDag, LabeledPoset

VERTEX, EDGE, VSET, ESET = "vertex", "edge", "vset", "eset"
_FIRST_ORDER = (VERTEX, EDGE)


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

# -- convenience constructors (macros share these) ---------------------------------


def forall(var: Var, body) -> Formula:
    return Not(Exists(var, Not(body)))


def implies(a, b) -> Formula:
    return Or(Not(a), b)


def iff(a, b) -> Formula:
    return And(implies(a, b), implies(b, a))


def conj(parts) -> Formula:
    parts = list(parts)
    if not parts:
        return Truth(True)
    out = parts[0]
    for p in parts[1:]:
        out = And(out, p)
    return out


def disj(parts) -> Formula:
    parts = list(parts)
    if not parts:
        return Truth(False)
    out = parts[0]
    for p in parts[1:]:
        out = Or(out, p)
    return out


def equal(a: Var, b: Var) -> Formula:
    """x = y via set quantification: every set containing one contains the other."""
    if a.sort != b.sort or a.sort not in _FIRST_ORDER:
        raise InputError(f"equality needs two first-order variables of one sort: {a}, {b}")
    z = Var("EQ" + a.name.upper() + b.name.upper(), VSET if a.sort == VERTEX else ESET)
    return forall(z, iff(InSet(a, z), InSet(b, z)))


# -- structural queries -----------------------------------------------------------


def free_vars(phi) -> frozenset:
    match phi:
        case Truth() | Reduced() | Coverable():
            return frozenset()
        case InSet(elem=e, coll=c):
            return frozenset([e, c])
        case Less(left=a, right=b):
            return frozenset([a, b])
        case HasLabel(vertex=v):
            return frozenset([v])
        case EdgeSource(edge=y, vertex=x) | EdgeTarget(edge=y, vertex=x):
            return frozenset([y, x])
        case PathAtom(src=a, vset=x, eset=y, dst=b):
            return frozenset([a, x, y, b])
        case Not(body=b):
            return free_vars(b)
        case And(left=a, right=b) | Or(left=a, right=b):
            return free_vars(a) | free_vars(b)
        case Exists(var=v, body=b):
            return free_vars(b) - {v}
    raise InputError(f"not a formula node: {phi!r}")


def is_order_formula(phi) -> bool:
    """No edge-sorted variables and no graph atoms anywhere."""
    match phi:
        case Truth():
            return True
        case InSet(elem=e, coll=c):
            return e.sort == VERTEX and c.sort == VSET
        case Less():
            return True
        case HasLabel():
            return True
        case EdgeSource() | EdgeTarget() | PathAtom() | Reduced() | Coverable():
            return False
        case Not(body=b):
            return is_order_formula(b)
        case And(left=a, right=b) | Or(left=a, right=b):
            return is_order_formula(a) and is_order_formula(b)
        case Exists(var=v, body=b):
            return v.sort in (VERTEX, VSET) and is_order_formula(b)
    return False


def is_graph_formula(phi) -> bool:
    """No order atom x < y anywhere."""
    match phi:
        case Less():
            return False
        case Not(body=b):
            return is_graph_formula(b)
        case And(left=a, right=b) | Or(left=a, right=b):
            return is_graph_formula(a) and is_graph_formula(b)
        case Exists(body=b):
            return is_graph_formula(b)
        case _:
            return True


def check_sorts(phi):
    """Raise InputError on ill-sorted atoms."""
    match phi:
        case Truth() | Reduced() | Coverable():
            return
        case InSet(elem=e, coll=c):
            ok = (e.sort == VERTEX and c.sort == VSET) or (e.sort == EDGE and c.sort == ESET)
            if not ok:
                raise InputError(f"ill-sorted membership: {e.name} in {c.name}")
        case Less(left=a, right=b):
            if a.sort != VERTEX or b.sort != VERTEX:
                raise InputError(f"order atom needs vertex variables: {a.name} < {b.name}")
        case HasLabel(vertex=v):
            if v.sort != VERTEX:
                raise InputError(f"label atom needs a vertex variable: {v.name}")
        case EdgeSource(edge=y, vertex=x) | EdgeTarget(edge=y, vertex=x):
            if y.sort != EDGE or x.sort != VERTEX:
                raise InputError(f"s/t atoms need (edge, vertex) arguments: {y.name}, {x.name}")
        case PathAtom(src=a, vset=x, eset=y, dst=b):
            if (a.sort, x.sort, y.sort, b.sort) != (VERTEX, VSET, ESET, VERTEX):
                raise InputError("path atom needs (vertex, vertex-set, edge-set, vertex)")
        case Not(body=b):
            check_sorts(b)
        case And(left=a, right=b) | Or(left=a, right=b):
            check_sorts(a)
            check_sorts(b)
        case Exists(body=b):
            check_sorts(b)
        case _:
            raise InputError(f"not a formula node: {phi!r}")


# -- the order-to-graph rewrite -----------------------------------------------------

def to_graph_formula(phi) -> Formula:
    """Rewrite an order formula for evaluation on Hasse diagrams: each atom
    x < y becomes 'there is a path from x to y'. The path's sets are always
    named PV and PE: sets, so they never capture the vertices x and y."""
    match phi:
        case Less(left=a, right=b):
            xv, yv = Var("PV", VSET), Var("PE", ESET)
            return Exists(xv, Exists(yv, PathAtom(a, xv, yv, b)))
        case Not(body=b):
            return Not(to_graph_formula(b))
        case And(left=a, right=b):
            return And(to_graph_formula(a), to_graph_formula(b))
        case Or(left=a, right=b):
            return Or(to_graph_formula(a), to_graph_formula(b))
        case Exists(var=v, body=b):
            return Exists(v, to_graph_formula(b))
        case _:
            return phi


# -- builtins: pure second-order encodings ------------------------------------------


def path_formula(src: Var, vset: Var, eset: Var, dst: Var) -> Formula:
    """Pure encoding of the path builtin (degree characterization; sound on DAGs)."""
    y = Var("PFY", EDGE)
    z = Var("PFZ", EDGE)
    v = Var("pfv", VERTEX)

    def deg(vertex: Var, incident, want: int) -> Formula:
        # want==1: exactly one eset-edge incident as given; want==0: none
        some = Exists(y, conj([InSet(y, eset), incident(y, vertex),
                               forall(z, implies(And(InSet(z, eset), incident(z, vertex)),
                                                 equal(z, y)))]))
        none = Not(Exists(y, And(InSet(y, eset), incident(y, vertex))))
        return some if want == 1 else none

    endpoints_ok = forall(y, implies(
        InSet(y, eset),
        forall(v, implies(Or(EdgeSource(y, v), EdgeTarget(y, v)),
                          disj([InSet(v, vset), equal(v, src), equal(v, dst)])))))
    internal_ok = forall(v, implies(
        InSet(v, vset),
        And(deg(v, EdgeSource, 1), deg(v, EdgeTarget, 1))))
    src_ok = And(deg(src, EdgeSource, 1), deg(src, EdgeTarget, 0))
    dst_ok = And(deg(dst, EdgeTarget, 1), deg(dst, EdgeSource, 0))
    nonempty = Exists(y, InSet(y, eset))
    return conj([nonempty, endpoints_ok, internal_ok, src_ok, dst_ok])


def reduced_formula() -> Formula:
    """Pure encoding of rho: no edge is subsumed by a longer path or duplicated."""
    y = Var("RY", EDGE)
    z = Var("RZ", EDGE)
    v, w, u = Var("rv", VERTEX), Var("rw", VERTEX), Var("ru", VERTEX)
    xs, ys = Var("RX", VSET), Var("RYS", ESET)
    long_path = Exists(xs, Exists(ys, And(path_formula(v, xs, ys, w),
                                          Exists(u, InSet(u, xs)))))
    parallel = Exists(z, conj([Not(equal(z, y)), EdgeSource(z, v), EdgeTarget(z, w)]))
    bad = Exists(y, Exists(v, Exists(w, conj([
        EdgeSource(y, v), EdgeTarget(y, w), Or(long_path, parallel)]))))
    return Not(bad)


def coverable_formula(count: int) -> Formula:
    """Pure encoding of gamma(c): c path-shaped (X_i, Y_i) pairs covering
    every vertex and every edge."""
    if count < 1:
        raise InputError("gamma(c) needs c >= 1")
    v, w = Var("gv", VERTEX), Var("gw", VERTEX)
    y, z = Var("GY", EDGE), Var("GZ", EDGE)

    def path_shape(xs: Var, ys: Var) -> Formula:
        endpoints = forall(y, implies(
            InSet(y, ys),
            forall(v, implies(Or(EdgeSource(y, v), EdgeTarget(y, v)), InSet(v, xs)))))
        at_most_one = conj([
            forall(v, implies(InSet(v, xs), forall(y, forall(z, implies(
                conj([InSet(y, ys), InSet(z, ys), incident(y, v), incident(z, v)]),
                equal(y, z))))))
            for incident in (EdgeSource, EdgeTarget)])
        no_in = lambda vertex: Not(Exists(y, And(InSet(y, ys), EdgeTarget(y, vertex))))
        one_source = Exists(v, conj([
            InSet(v, xs), no_in(v),
            forall(w, implies(And(InSet(w, xs), no_in(w)), equal(w, v)))]))
        return conj([endpoints, at_most_one, one_source])

    xsets = [Var(f"GX{i}", VSET) for i in range(1, count + 1)]
    ysets = [Var(f"GYS{i}", ESET) for i in range(1, count + 1)]
    body = conj(
        [path_shape(xs, ys) for xs, ys in zip(xsets, ysets)]
        + [forall(v, disj([InSet(v, xs) for xs in xsets])),
           forall(y, disj([InSet(y, ys) for ys in ysets]))])
    out = body
    for var in reversed(xsets + ysets):
        out = Exists(var, out)
    return out


def builtin(name: str, c: Optional[int] = None) -> Formula:
    """The builtin atoms by name; `expand_builtins` gives their pure encodings
    and the construction modules provide their primitive automata."""
    if name == "rho":
        return Reduced()
    if name == "gamma":
        if c is None or c < 1:
            raise InputError("gamma needs a path budget c >= 1")
        return Coverable(c)
    if name == "path":
        return PathAtom(Var("x1", VERTEX), Var("X", VSET), Var("Y", ESET),
                        Var("x2", VERTEX))
    raise InputError(f"unknown builtin {name!r}")


def expand_builtins(phi) -> Formula:
    """Replace every builtin atom by its pure second-order encoding."""
    match phi:
        case PathAtom(src=a, vset=x, eset=y, dst=b):
            return path_formula(a, x, y, b)
        case Reduced():
            return reduced_formula()
        case Coverable(count=c):
            return coverable_formula(c)
        case Not(body=b):
            return Not(expand_builtins(b))
        case And(left=a, right=b):
            return And(expand_builtins(a), expand_builtins(b))
        case Or(left=a, right=b):
            return Or(expand_builtins(a), expand_builtins(b))
        case Exists(var=v, body=b):
            return Exists(v, expand_builtins(b))
        case _:
            return phi


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
    return _eval(phi, _bind(phi, env), _PoStructure(poset))


def evaluate_dag(dag: LabeledDag, phi, env: Optional[dict] = None,
                 config: RunConfig = DEFAULT_CONFIG) -> bool:
    """Brute-force truth of a graph formula on a labeled DAG."""
    if not is_graph_formula(phi):
        raise InputError("evaluate_dag needs a graph formula (no order atoms)")
    check_sorts(phi)
    if dag.n_vertices() > config.max_enum_vertices or len(dag.edges) > config.max_enum_edges:
        raise ResourceError("DAG too large for quantifier expansion",
                            context=f"caps {config.max_enum_vertices}/{config.max_enum_edges}")
    return _eval(phi, _bind(phi, env), _DagStructure(dag))


class _PoStructure:
    def __init__(self, poset: LabeledPoset):
        self.poset = poset
        self.vertices = poset.vertices
        self.edge_ids = ()

    def less(self, a, b):
        return self.poset.less(a, b)

    def label(self, v):
        return self.poset.labels[v]


class _DagStructure:
    def __init__(self, dag: LabeledDag):
        self.dag = dag
        self.vertices = dag.vertices
        self.edge_ids = tuple(range(len(dag.edges)))

    def label(self, v):
        return self.dag.labels[v]

    def source(self, e):
        return self.dag.edges[e][0]

    def target(self, e):
        return self.dag.edges[e][1]


_MISSING = object()


def _bind(phi, env: Optional[dict]) -> dict:
    """Key a caller's environment by Var (name and sort), as _eval does."""
    return {v: env[v.name] for v in free_vars(phi) if env and v.name in env}


def _subsets(items) -> Iterator[frozenset]:
    items = tuple(items)
    for mask in range(1 << len(items)):
        yield frozenset(items[i] for i in range(len(items)) if (mask >> i) & 1)


def _eval(phi, env: dict, st) -> bool:
    match phi:
        case Truth(value=v):
            return v
        case InSet(elem=e, coll=c):
            return env[e] in env[c]
        case Less(left=a, right=b):
            return st.less(env[a], env[b])
        case HasLabel(vertex=v, label=lab):
            return st.label(env[v]) == lab
        case EdgeSource(edge=y, vertex=x):
            return st.source(env[y]) == env[x]
        case EdgeTarget(edge=y, vertex=x):
            return st.target(env[y]) == env[x]
        case Not(body=b):
            return not _eval(b, env, st)
        case And(left=a, right=b):
            return _eval(a, env, st) and _eval(b, env, st)
        case Or(left=a, right=b):
            return _eval(a, env, st) or _eval(b, env, st)
        case PathAtom(src=a, vset=x, eset=y, dst=b):
            return _check_path(st.dag, env[a], env[x], env[y], env[b])
        case Reduced():
            return st.dag.is_transitively_reduced()
        case Coverable(count=c):
            return st.dag.min_path_cover()[0] <= c
        case Exists(var=v, body=b):
            domain: Iterator
            if v.sort == VERTEX:
                domain = iter(st.vertices)
            elif v.sort == EDGE:
                domain = iter(st.edge_ids)
            elif v.sort == VSET:
                domain = _subsets(st.vertices)
            else:
                domain = _subsets(st.edge_ids)
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
    if outd.get(src, 0) != 1 or ind.get(src, 0) != 0:
        return False
    if ind.get(dst, 0) != 1 or outd.get(dst, 0) != 0:
        return False
    for v in vset:
        if outd.get(v, 0) != 1 or ind.get(v, 0) != 1:
            return False
    return True


# -- concrete syntax --------------------------------------------------------------------

_TOKEN_RE = re.compile(r"\s*(<->|->|[()\.,&|!<=]|:e|[A-Za-z_][A-Za-z0-9_]*|\S)")
_KEYWORDS = {"EX", "ALL", "in", "true", "false", "rho", "gamma", "path"}


class _Parser:
    def __init__(self, text: str, free: Optional[dict] = None):
        self.text = text
        self.tokens = []
        pos = 0
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if not m or not m.group(1).strip():
                break
            self.tokens.append((m.group(1), m.start(1)))
            pos = m.end()
        self.i = 0
        self.scope: dict[str, Var] = {}
        for name, sort in (free or {}).items():
            self.scope[name] = Var(name, sort)

    def error(self, msg: str):
        pos = self.tokens[self.i][1] if self.i < len(self.tokens) else len(self.text)
        raise InputError(f"syntax error at position {pos}: {msg}")

    def peek(self) -> Optional[str]:
        return self.tokens[self.i][0] if self.i < len(self.tokens) else None

    def take(self, expected: Optional[str] = None) -> str:
        tok = self.peek()
        if tok is None:
            self.error("unexpected end of formula" +
                       (f" (expected {expected!r})" if expected else ""))
        if expected is not None and tok != expected:
            self.error(f"expected {expected!r}, found {tok!r}")
        self.i += 1
        return tok

    # precedence: <-> < -> < | < & < ! / quantifiers / atoms
    def formula(self):
        left = self.implication()
        while self.peek() == "<->":
            self.take()
            right = self.implication()
            left = iff(left, right)
        return left

    def implication(self):
        left = self.disjunction()
        if self.peek() == "->":
            self.take()
            return implies(left, self.implication())
        return left

    def disjunction(self):
        left = self.conjunction()
        while self.peek() == "|":
            self.take()
            left = Or(left, self.conjunction())
        return left

    def conjunction(self):
        left = self.unary()
        while self.peek() == "&":
            self.take()
            left = And(left, self.unary())
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
        name = self.take()
        if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", name) or name in _KEYWORDS:
            self.error(f"bad variable name {name!r}")
        edge_sorted = False
        if self.peek() == ":e":
            self.take()
            edge_sorted = True
        if name[0].isupper():
            sort = ESET if edge_sorted else VSET
        else:
            sort = EDGE if edge_sorted else VERTEX
        self.take(".")
        var = Var(name, sort)
        saved = self.scope.get(name)
        self.scope[name] = var
        body = self.formula()
        if saved is None:
            del self.scope[name]
        else:
            self.scope[name] = saved
        phi = Exists(var, body)
        return phi if kind == "EX" else forall(var, body)

    def atom(self):
        tok = self.peek()
        if tok == "(":
            self.take()
            phi = self.formula()
            self.take(")")
            return phi
        if tok == "true":
            self.take()
            return Truth(True)
        if tok == "false":
            self.take()
            return Truth(False)
        if tok == "rho":
            self.take()
            return Reduced()
        if tok == "gamma":
            self.take()
            self.take("(")
            num = self.take()
            if not num.isdigit():
                self.error("gamma(c) needs a numeral")
            self.take(")")
            return Coverable(int(num))
        if tok == "path":
            self.take()
            self.take("(")
            a = self.variable(VERTEX)
            self.take(",")
            x = self.variable(VSET)
            self.take(",")
            y = self.variable(ESET)
            self.take(",")
            b = self.variable(VERTEX)
            self.take(")")
            return PathAtom(a, x, y, b)
        if tok in ("l", "s", "t") and self.i + 1 < len(self.tokens) \
                and self.tokens[self.i + 1][0] == "(":
            fn = self.take()
            self.take("(")
            if fn == "l":
                v = self.variable(VERTEX)
                self.take(",")
                lab = self.take()
                self.take(")")
                return HasLabel(v, lab)
            y = self.variable(EDGE)
            self.take(",")
            x = self.variable(VERTEX)
            self.take(")")
            return EdgeSource(y, x) if fn == "s" else EdgeTarget(y, x)
        # variable-led atoms: x < y, x = y, x in X
        a = self.variable(None)
        op = self.peek()
        if op == "<":
            self.take()
            b = self.variable(VERTEX)
            if a.sort != VERTEX:
                self.error(f"{a.name} must be a vertex variable in an order atom")
            return Less(a, b)
        if op == "=":
            self.take()
            b = self.variable(a.sort)
            return equal(a, b)
        if op == "in":
            self.take()
            coll = self.variable(VSET if a.sort == VERTEX else ESET)
            return InSet(a, coll)
        self.error(f"expected '<', '=' or 'in' after variable {a.name!r}")

    def variable(self, want: Optional[str]) -> Var:
        name = self.take()
        if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", name) or name in _KEYWORDS:
            self.error(f"bad variable name {name!r}")
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


_PREC = {"iff": 0, "imp": 1, "or": 2, "and": 3, "unary": 4}


def _print(phi, prec: int) -> str:
    match phi:
        case Truth(value=v):
            return "true" if v else "false"
        case InSet(elem=e, coll=c):
            return _wrap(f"{e.name} in {c.name}", 4, prec)
        case Less(left=a, right=b):
            return _wrap(f"{a.name} < {b.name}", 4, prec)
        case HasLabel(vertex=v, label=lab):
            return f"l({v.name},{lab})"
        case EdgeSource(edge=y, vertex=x):
            return f"s({y.name},{x.name})"
        case EdgeTarget(edge=y, vertex=x):
            return f"t({y.name},{x.name})"
        case PathAtom(src=a, vset=x, eset=y, dst=b):
            return f"path({a.name},{x.name},{y.name},{b.name})"
        case Reduced():
            return "rho"
        case Coverable(count=c):
            return f"gamma({c})"
        case Not(body=b):
            return _wrap("!" + _print(b, _PREC["unary"]), _PREC["unary"], prec)
        case And(left=a, right=b):
            # left-associative in the grammar: right-nested trees keep parens
            s = f"{_print(a, _PREC['and'])} & {_print(b, _PREC['and'] + 1)}"
            return _wrap(s, _PREC["and"], prec)
        case Or(left=a, right=b):
            s = f"{_print(a, _PREC['or'])} | {_print(b, _PREC['or'] + 1)}"
            return _wrap(s, _PREC["or"], prec)
        case Exists(var=v, body=b):
            suffix = ":e" if v.sort in (EDGE, ESET) else ""
            return _wrap(f"EX {v.name}{suffix}. {_print(b, 0)}", 0, prec)
    raise InputError(f"not a formula node: {phi!r}")


def _wrap(s: str, node_prec: int, ctx_prec: int) -> str:
    return s if node_prec >= ctx_prec else f"({s})"
