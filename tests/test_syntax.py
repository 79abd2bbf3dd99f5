"""The concrete formula syntax: the table-driven parser and printer against
the hand-written ones they replaced, connective precedence and associativity,
and a round trip of every atom class."""

import random
import re
from typing import Optional

import pytest

from slw import corpus
from slw.config import InputError
from slw.mso import (And, Coverable, EdgeSource, EdgeTarget, Equal, Exists, HasLabel, InSet,
                     Less, Not, Or, PathAtom, Reduced, Truth, Var, EDGE, ESET, SIGNATURES, VERTEX,
                     VSET, check_sorts, expand_builtins, forall, iff, implies, parse,
                     to_graph_formula, to_text)

from test_randomized import random_graph_formula, random_order_formula


# -- the parser and printer that the syntax tables replaced, kept as a reference --

REF_TOKEN_RE = re.compile(r"\s*(<->|->|[()\.,&|!<=]|:e|[A-Za-z_][A-Za-z0-9_]*|[0-9]+|\S)")
REF_KEYWORDS = {"EX", "ALL", "in", "true", "false", "rho", "gamma", "path"}
REF_CALLS = {"s": EdgeSource, "t": EdgeTarget, "path": PathAtom}


class RefParser:
    def __init__(self, text: str, free: Optional[dict] = None):
        self.text = text
        self.tokens = [(m.group(1), m.start(1)) for m in REF_TOKEN_RE.finditer(text)]
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

    # precedence: <-> < -> < | < & < ! / quantifiers / atoms
    def formula(self):
        left = self.implication()
        while self.peek() == "<->":
            self.take()
            left = iff(left, self.implication())
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
        if tok == "rho":
            self.take()
            return Reduced()
        if tok == "gamma":
            self.take()
            self.take("(")
            num = self.take()
            if not num.isdecimal():
                self.error("gamma(c) needs a numeral")
            self.take(")")
            return Coverable(int(num))
        if tok == "l" and self.peek(1) == "(":
            self.take()
            self.take("(")
            v = self.variable(VERTEX)
            self.take(",")
            lab = self.take()
            self.take(")")
            return HasLabel(v, lab)
        if tok in REF_CALLS and (tok in REF_KEYWORDS or self.peek(1) == "("):
            cls = REF_CALLS[self.take()]
            self.take("(")
            args = []
            for sort in SIGNATURES[cls].sorts[0]:
                if args:
                    self.take(",")
                args.append(self.variable(sort))
            self.take(")")
            return cls(*args)
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
            return Equal(a, self.variable(None))
        if op == "in":
            self.take()
            coll = self.variable(VSET if a.sort == VERTEX else ESET)
            return InSet(a, coll)
        self.error(f"expected '<', '=' or 'in' after variable {a.name!r}")

    def name(self) -> str:
        name = self.take()
        if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", name) or name in REF_KEYWORDS:
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


def ref_parse(text: str, free: Optional[dict] = None):
    p = RefParser(text, free)
    try:
        phi = p.formula()
        if p.peek() is not None:
            p.error(f"trailing input {p.peek()!r}")
        check_sorts(phi)
    except RecursionError:
        raise InputError("formula nested too deeply") from None
    return phi


REF_PREC = {"iff": 0, "imp": 1, "or": 2, "and": 3, "unary": 4}


def ref_print(phi, prec: int = 0) -> str:
    match phi:
        case Truth(value=v):
            return "true" if v else "false"
        case InSet(elem=e, coll=c):
            return ref_wrap(f"{e.name} in {c.name}", 4, prec)
        case Less(left=a, right=b):
            return ref_wrap(f"{a.name} < {b.name}", 4, prec)
        case Equal(left=a, right=b):
            return ref_wrap(f"{a.name} = {b.name}", 4, prec)
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
            return ref_wrap("!" + ref_print(b, REF_PREC["unary"]), REF_PREC["unary"], prec)
        case And(left=a, right=b):
            s = f"{ref_print(a, REF_PREC['and'])} & {ref_print(b, REF_PREC['and'] + 1)}"
            return ref_wrap(s, REF_PREC["and"], prec)
        case Or(left=a, right=b):
            s = f"{ref_print(a, REF_PREC['or'])} | {ref_print(b, REF_PREC['or'] + 1)}"
            return ref_wrap(s, REF_PREC["or"], prec)
        case Exists(var=v, body=b):
            suffix = ":e" if v.sort in (EDGE, ESET) else ""
            return ref_wrap(f"EX {v.name}{suffix}. {ref_print(b, 0)}", 0, prec)
    raise InputError(f"not a formula node: {phi!r}")


def ref_wrap(s: str, node_prec: int, ctx_prec: int) -> str:
    return s if node_prec >= ctx_prec else f"({s})"


# -- the comparison ------------------------------------------------------------------

FREE = {"x": VERTEX, "z": VERTEX, "y": EDGE, "X": VSET, "Y": ESET}
SOUP = ["EX", "ALL", "x", "z", "y", "X", "Y", "a", "l", "s", "t", "in", ":e", ".", ",",
        "(", "(", ")", ")", "&", "|", "!", "->", "<->", "<", "=", "true", "false", "rho",
        "gamma", "path", "2", "0", "@"]


def _parsed(fn, text, free):
    try:
        return fn(text, free), None
    except InputError as err:
        return None, str(err)


def _infix_sort_error(text: str, message: str) -> bool:
    """Whether the reference rejected an ill-sorted `<` or `in` while parsing:
    by the order-atom check, or by a sort check of the variable after the
    operator (its error position is that of the token after the variable)."""
    if message.endswith("must be a vertex variable in an order atom"):
        return True
    m = re.fullmatch(r"syntax error at position (\d+): variable '\w+' has sort \w+, "
                     r"expected \w+", message)
    if m is None:
        return False
    tokens = [(t.group(1), t.start(1)) for t in REF_TOKEN_RE.finditer(text)]
    after = next((i for i, (_, pos) in enumerate(tokens) if pos == int(m.group(1))), len(tokens))
    return after >= 2 and tokens[after - 2][0] in ("<", "in")


def agree(text: str, free: Optional[dict] = None) -> str:
    """Assert that both parsers give equal trees and equal text, or both raise
    InputError; the message may differ only for an ill-sorted infix atom.
    Returns "parsed", "same error" or "infix sort"."""
    old, old_err = _parsed(ref_parse, text, free)
    new, new_err = _parsed(parse, text, free)
    if old_err is None or new_err is None:
        assert (old_err, new_err) == (None, None), text
        assert new == old, text
        assert to_text(new) == ref_print(old), text
        return "parsed"
    if old_err == new_err:
        return "same error"
    assert _infix_sort_error(text, old_err), (text, old_err, new_err)
    return "infix sort"


CORPUS = (*corpus.ORDER_CORPUS.values(), *corpus.GRAPH_CORPUS.values())


class TestReferenceSyntax:
    def test_corpus_and_its_images(self):
        phis = [parse(text) for text in CORPUS]
        for phi in phis + [image for phi in phis
                           for image in (to_graph_formula(phi), expand_builtins(phi))]:
            text = to_text(phi)
            assert text == ref_print(phi)
            assert agree(text) == "parsed"
        for text in CORPUS:
            assert agree(text) == "parsed"

    def test_random_formulas(self):
        order_rng, graph_rng = random.Random(17), random.Random(19)
        phis = ([random_order_formula(order_rng, 4, []) for _ in range(200)]
                + [random_graph_formula(graph_rng, 4, []) for _ in range(200)])
        for phi in phis:
            text = to_text(phi)
            assert text == ref_print(phi)
            agree(text)

    def test_token_soup(self):
        rng = random.Random(23)
        seen = {"parsed": 0, "same error": 0, "infix sort": 0}
        for _ in range(200_000):
            tokens = rng.choices(SOUP, k=rng.randint(1, 10))
            text = (" " if rng.random() < 0.7 else "").join(tokens)
            for free in (None, FREE):
                seen[agree(text, free)] += 1
        assert seen["parsed"] > 1000 and seen["infix sort"] > 0, seen


# -- precedence, associativity and atoms -----------------------------------------------

_X = Var("x", VERTEX)
A, B, C, D = (HasLabel(_X, lab) for lab in "abcd")


class TestConnectives:
    @pytest.mark.parametrize("text, tree", [
        ("l(x,a) <-> l(x,b) <-> l(x,c)", iff(iff(A, B), C)),
        ("l(x,a) -> l(x,b) -> l(x,c)", implies(A, implies(B, C))),
        ("l(x,a) -> l(x,b) <-> l(x,c)", iff(implies(A, B), C)),
        ("l(x,a) <-> l(x,b) -> l(x,c)", iff(A, implies(B, C))),
        ("l(x,a) | l(x,b) & l(x,c)", Or(A, And(B, C))),
        ("l(x,a) & l(x,b) | l(x,c)", Or(And(A, B), C)),
        ("l(x,a) & l(x,b) & l(x,c)", And(And(A, B), C)),
        ("l(x,a) | l(x,b) -> l(x,c) & l(x,d)", implies(Or(A, B), And(C, D))),
        ("!l(x,a) & l(x,b)", And(Not(A), B)),
    ])
    def test_precedence_and_associativity(self, text, tree):
        assert parse(text, free={"x": VERTEX}) == tree
        assert agree(text, {"x": VERTEX}) == "parsed"

    def test_a_quantifier_body_reaches_to_the_end(self):
        a, b = HasLabel(_X, "a"), HasLabel(_X, "b")
        assert parse("EX x. l(x,a) & l(x,b)") == Exists(_X, And(a, b))
        assert parse("EX x. l(x,a) | l(x,b) <-> l(x,a)") == Exists(_X, iff(Or(a, b), a))
        assert parse("(EX x. l(x,a)) & true") == And(Exists(_X, a), Truth(True))
        assert to_text(And(Exists(_X, a), Truth(True))) == "(EX x. l(x,a)) & true"

    def test_parentheses_nest_twice_as_deep(self):
        # the one deliberate change outside sort messages: a parenthesis costs
        # three parser frames, not six, so 250 levels no longer exhaust the stack
        text = "(" * 250 + "true" + ")" * 250
        assert parse(text) == Truth(True)
        with pytest.raises(InputError, match="nested too deeply"):
            ref_parse(text)
        with pytest.raises(InputError, match="nested too deeply"):
            parse("(" * 5000 + "true" + ")" * 5000)

    def test_the_printer_keeps_needed_parentheses(self):
        assert to_text(And(A, And(B, C))) == "l(x,a) & (l(x,b) & l(x,c))"
        assert to_text(And(Or(A, B), C)) == "(l(x,a) | l(x,b)) & l(x,c)"
        assert to_text(Or(A, Or(B, C))) == "l(x,a) | (l(x,b) | l(x,c))"
        assert to_text(Not(Or(A, B))) == "!(l(x,a) | l(x,b))"


_Z, _Y, _Y2 = Var("z", VERTEX), Var("y", EDGE), Var("w", EDGE)
_VS, _ES = Var("X", VSET), Var("Y", ESET)
ATOMS = [Truth(True), Truth(False), Less(_X, _Z), Equal(_X, _Z), Equal(_Y, _Y2),
         InSet(_X, _VS), InSet(_Y, _ES), HasLabel(_X, "a"), EdgeSource(_Y, _X),
         EdgeTarget(_Y, _Z), PathAtom(_X, _VS, _ES, _Z), Reduced(), Coverable(3)]


class TestAtoms:
    def test_every_atom_class_round_trips(self):
        assert {type(atom) for atom in ATOMS} == set(SIGNATURES)
        free = {**FREE, "w": EDGE}
        for atom in ATOMS:
            for phi in (atom, Not(atom), And(atom, Or(atom, atom)), Exists(_X, atom)):
                assert parse(to_text(phi), free=free) == phi, to_text(phi)
                assert to_text(phi) == ref_print(phi)

    @pytest.mark.parametrize("text, message", [
        ("EX y:e. EX x. y < x", "order atom needs vertex variables: y < x"),
        ("EX x. EX y:e. x < y", "order atom needs vertex variables: x < y"),
        ("EX x. EX Y:e. x in Y", "ill-sorted membership: x in Y"),
        ("EX x. EX y. x in y", "ill-sorted membership: x in y"),
    ])
    def test_check_sorts_judges_infix_atoms(self, text, message):
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            parse(text)
        assert agree(text) == "infix sort"
