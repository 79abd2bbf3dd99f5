"""The graph-formula compiler and the order-formula automaton pipeline."""

import pytest

from slw import compiler
from slw.automata import equivalent, intersect, union, valid_sequences
from slw.compiler import compile_formula, po_automaton
from slw.config import InputError, ResourceError, RunConfig
from slw.constructions import check_saturated_upto, universal_automaton
from slw.dag import all_dags
from slw.mso import (And, Coverable, Equal, Exists, Not, Or, Reduced, Truth, Var, ESET, VSET,
                     evaluate_dag, free_vars, parse, to_graph_formula)
from slw.slices import unit_decompositions

from conftest import cached_po_automaton, hasse_sweep, with_leibniz
from slw import corpus


class TestCompile:
    def test_true_is_all_valid_sequences(self):
        assert equivalent(compile_formula(Truth(True), 1, ("t",)),
                          valid_sequences(1, ("t",)))

    def test_false_is_empty(self):
        assert compile_formula(Truth(False), 1, ("t",)).is_empty()

    def test_open_formula_rejected(self):
        with pytest.raises(InputError, match="closed"):
            compile_formula(parse("l(x,a)", free={"x": "vertex"}), 1, ("a",))

    def test_order_formula_rejected(self):
        with pytest.raises(InputError):
            compile_formula(parse(corpus.TOTAL_ORDER), 1, ("t",))

    def test_label_witness_sweep(self):
        psi = parse("EX x. l(x,a)")
        aut = compile_formula(psi, 1, ("a", "b"))
        for n in range(1, 5):
            for h in all_dags(n, ["a", "b"]):
                expected = evaluate_dag(h, psi)
                for u in unit_decompositions(h, 1):
                    assert aut.accepts(u) == expected, h

    @pytest.mark.parametrize("c", [1, 2])
    def test_gamma_zero_is_empty(self, c):
        # no DAG is covered by zero paths, and a budget of 0 slots admits none
        assert not any(evaluate_dag(h, Coverable(0))
                       for n in range(1, 4) for h in all_dags(n, ["t"]))
        assert compile_formula(Coverable(0), c, ("t",)).is_empty()

    def test_rho_and_gamma_equals_universal(self):
        for c in (1, 2):
            aut = compile_formula(And(Reduced(), Coverable(c)), c, ("t",))
            assert equivalent(aut, universal_automaton(c, ("t",)))

    def test_negation_soundness(self):
        psi = parse("EX x. l(x,a)")
        pos = compile_formula(psi, 1, ("a", "b"))
        neg = compile_formula(Not(psi), 1, ("a", "b"))
        assert intersect(pos, neg).is_empty()
        assert equivalent(union(pos, neg), valid_sequences(1, ("a", "b")))

    def test_edge_atoms_sweep(self):
        psi = parse(corpus.EDGES_A_TO_B)
        aut = compile_formula(psi, 2, ("a", "b"))
        for n in range(1, 4):
            for h in all_dags(n, ["a", "b"]):
                expected = evaluate_dag(h, psi)
                for u in unit_decompositions(h, 2):
                    assert aut.accepts(u) == expected, h

    def test_determinization_cap(self):
        psi = parse(corpus.EDGES_A_TO_B)
        with pytest.raises(ResourceError, match="subformula"):
            compile_formula(psi, 2, ("a", "b"), RunConfig(max_states=2))


class TestScoping:
    @pytest.mark.parametrize("text", [
        "EX x. (l(x,a) & EX x. l(x,b))",
        "EX x. (l(x,a) & EX y:e. (s(y,x) & EX x. (t(y,x) & l(x,b))))",
        # a quantified variable its body does not read still names one element
        "EX y:e. EX x. l(x,a)",
        "!(EX y:e. true)",
        "EX x. EX Y:e. l(x,a)",
    ])
    def test_shadowing_agrees_with_evaluator(self, text):
        # a free variable of a body is its innermost binder's
        psi = parse(text)
        for c in (1, 2):
            aut = compile_formula(psi, c, ("a", "b"))
            for h, _, decomps in hasse_sweep(c, ("a", "b")):
                expected = evaluate_dag(h, psi)
                for u in decomps:
                    assert aut.accepts(u) == expected, (c, h)

    def test_equal_sorts_share_one_well_formed_automaton(self, monkeypatch):
        original, built = compiler.well_formed, []

        def spy(*args):
            built.append(original(*args))
            return built[-1]

        monkeypatch.setattr(compiler, "well_formed", spy)
        compile_formula(parse("(EX x. l(x,a)) & (EX y. l(y,b))"), 1, ("a", "b"))
        assert len(built) == 2 and built[0] is built[1]


    def test_subformulas_compile_over_their_free_variables(self, monkeypatch):
        # even-chain binds 8 variables around its deepest atoms, but no
        # subformula reads more than 4 of them
        phi = to_graph_formula(parse(corpus.EVEN_CHAIN))
        widest = max(len(free_vars(sub)) for sub in _subformulas(phi))
        original, signatures = compiler.annotated_alphabet, []

        def spy(c, labels, sorts):
            signatures.append(sorts)
            return original(c, labels, sorts)

        monkeypatch.setattr(compiler, "annotated_alphabet", spy)
        compile_formula(phi, 1, ("a", "b"))
        assert widest == 4
        assert signatures and max(map(len, signatures)) <= widest


class TestEquality:
    """`x = y` is an atom, compiled as one letter filter; Leibniz equality,
    a set quantifier, is its reference."""

    @pytest.mark.parametrize("name, c", [(name, c) for c in (1, 2)
                                         for name in corpus.ORDER_CORPUS]
                             + [(name, 3) for name in ("total-order", "some-incomparable",
                                                       "a-antichain-pair")])
    def test_filter_changes_no_bytes(self, name, c):
        phi = parse(corpus.ORDER_CORPUS[name])
        assert po_automaton(phi, c, ("a", "b")).to_text() \
            == po_automaton(with_leibniz(phi), c, ("a", "b")).to_text()

    def test_no_set_quantifier_is_compiled_for_equality(self, monkeypatch):
        phi = to_graph_formula(parse(corpus.TOTAL_ORDER))
        original, seen = compiler._compile, []

        def spy(sub, *args):
            seen.append(sub)
            return original(sub, *args)

        monkeypatch.setattr(compiler, "_compile", spy)
        compile_formula(phi, 2, ("t",))
        assert any(isinstance(sub, Equal) for sub in seen)
        # the only set quantifiers are the path sets of the order rewrite
        assert {sub.var for sub in seen if isinstance(sub, Exists)
                and sub.var.sort in (VSET, ESET)} == {Var("PV", VSET), Var("PE", ESET)}

    # each formula, the equality it holds and one-way Leibniz equality for it
    CASES = [
        ("ALL y:e. ALL z:e. ((EX x. (s(y,x) & s(z,x))) -> y = z)",
         "y = z", "(ALL Z:e. (y in Z -> z in Z))"),
        ("EX y:e. EX z:e. (!(y = z) & (EX x. (t(y,x) & t(z,x))))",
         "y = z", "(ALL Z:e. (y in Z -> z in Z))"),
        ("ALL x. (x = x & (l(x,a) | l(x,b)))", "x = x", "(ALL Z. (x in Z -> x in Z))"),
        ("EX y:e. y = y", "y = y", "(ALL Z:e. (y in Z -> y in Z))"),
    ]

    @pytest.mark.parametrize("c", [1, 2])
    @pytest.mark.parametrize("text, eq, leibniz", CASES)
    def test_edge_and_reflexive_equality(self, c, text, eq, leibniz):
        phi, full = parse(text), parse(text.replace(eq, leibniz))
        assert any(isinstance(sub, Equal) for sub in _subformulas(phi))
        assert not any(isinstance(sub, Equal) for sub in _subformulas(full))
        aut, reference = compile_formula(phi, c, ("a", "b")), with_leibniz(phi)
        for h, _, decomps in hasse_sweep(c, ("a", "b")):
            expected = evaluate_dag(h, phi)
            assert expected == evaluate_dag(h, reference), (c, h)
            assert all(aut.accepts(u) == expected for u in decomps), (c, h)
        assert equivalent(aut, compile_formula(full, c, ("a", "b")))


def _subformulas(phi):
    yield phi
    match phi:
        case Not(body=b) | Exists(body=b):
            yield from _subformulas(b)
        case And(left=a, right=b) | Or(left=a, right=b):
            yield from _subformulas(a)
            yield from _subformulas(b)


class TestPoAutomaton:
    def test_true_equals_universal(self):
        pa = cached_po_automaton("true", 1, ("t",))
        assert equivalent(pa, universal_automaton(1, ("t",)))
        assert pa.saturated and pa.transitively_reduced

    def test_false_is_empty(self):
        assert cached_po_automaton("false", 2, ("t",)).is_empty()

    def test_total_order_at_width_two_gives_chains(self):
        pa = cached_po_automaton(corpus.TOTAL_ORDER, 2, ("t",))
        members = pa.po_members_up_to(4)
        for m in members:
            n = m.n_vertices()
            assert len(m.order) == n * (n - 1) // 2
        assert sorted(m.n_vertices() for m in members) == [1, 2, 3, 4]

    def test_saturation_of_outputs(self):
        pa = cached_po_automaton(corpus.TOTAL_ORDER, 2, ("t",))
        assert check_saturated_upto(pa, 4) is None
        assert pa.validate() == []

    def test_coverability_conjunction_saturates(self):
        # conjoining the path-coverability builtin makes any compiled language
        # saturated: every decomposition of every accepted DAG is accepted
        for text in (corpus.SOME_EDGE, corpus.EDGES_A_TO_B):
            for c in (1, 2):
                aut = compile_formula(And(parse(text), Coverable(c)), c, ("a", "b"))
                assert check_saturated_upto(aut, 4) is None, (text, c)

    def test_antichain_pair_excluded_at_width_one(self):
        # 1-partial orders are chains; an antichain pair cannot occur
        pa = cached_po_automaton(corpus.A_ANTICHAIN_PAIR, 1, ("a", "b"))
        assert pa.is_empty()
