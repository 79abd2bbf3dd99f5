"""Seeded differential sweeps: compiled automata against the brute-force
evaluators on randomly generated closed formulas, plus stress probes that
earlier surfaced edge cases (cyclic-language reduction, complement
involution, dead transitions), and random command lines that must end with an
exit code."""

import random
from pathlib import Path

import pytest

from slw.automata import SliceAutomaton, valid_sequences
from slw.cli import main
from slw.compiler import compile_formula, po_automaton
from slw.constructions import poset_complement, transitive_reduce_automaton
from slw.dag import all_dags
from slw.mso import (And, EdgeSource, EdgeTarget, Exists, HasLabel, InSet, Less, Not,
                     Or, Truth, Var, EDGE, ESET, VERTEX, VSET, evaluate_dag, evaluate_po,
                     free_vars, to_text)
from slw.netaut import net_automaton
from slw.ptnet import Place, PtNet, causal_orders, executions
from slw.slices import unit_decompositions

from conftest import cached_net_automaton, cached_po_automaton, make_fixture_nets, poset_keys
from slw import corpus


def random_graph_formula(rng, depth, scope):
    vertex_vars = [v for v in scope if v.sort == VERTEX]
    edge_vars = [v for v in scope if v.sort == EDGE]
    vset_vars = [v for v in scope if v.sort == VSET]
    eset_vars = [v for v in scope if v.sort == ESET]
    atoms = [lambda: Truth(rng.random() < 0.5)]
    if vertex_vars:
        atoms.append(lambda: HasLabel(rng.choice(vertex_vars), rng.choice("ab")))
        if vset_vars:
            atoms.append(lambda: InSet(rng.choice(vertex_vars), rng.choice(vset_vars)))
    if edge_vars and vertex_vars:
        atoms.append(lambda: EdgeSource(rng.choice(edge_vars), rng.choice(vertex_vars)))
        atoms.append(lambda: EdgeTarget(rng.choice(edge_vars), rng.choice(vertex_vars)))
    if edge_vars and eset_vars:
        atoms.append(lambda: InSet(rng.choice(edge_vars), rng.choice(eset_vars)))
    if depth == 0:
        return rng.choice(atoms)()
    roll = rng.random()
    if roll < 0.35 and len(scope) < 3:
        sort = rng.choice([VERTEX, EDGE, VSET, ESET])
        v = Var(f"v{len(scope)}{sort[0]}", sort)
        body = random_graph_formula(rng, depth - 1, scope + [v])
        q = Exists(v, body)
        return q if rng.random() < 0.7 else Not(Exists(v, Not(body)))
    if roll < 0.55:
        return Not(random_graph_formula(rng, depth - 1, scope))
    op = And if rng.random() < 0.5 else Or
    return op(random_graph_formula(rng, depth - 1, scope),
              random_graph_formula(rng, depth - 1, scope))


def random_order_formula(rng, depth, scope):
    vertex_vars = [v for v in scope if v.sort == VERTEX]
    vset_vars = [v for v in scope if v.sort == VSET]
    atoms = [lambda: Truth(rng.random() < 0.5)]
    if vertex_vars:
        atoms.append(lambda: HasLabel(rng.choice(vertex_vars), rng.choice("ab")))
        if len(vertex_vars) >= 2:
            atoms.append(lambda: Less(rng.choice(vertex_vars), rng.choice(vertex_vars)))
        if vset_vars:
            atoms.append(lambda: InSet(rng.choice(vertex_vars), rng.choice(vset_vars)))
    if depth == 0:
        return rng.choice(atoms)()
    roll = rng.random()
    if roll < 0.4 and len(scope) < 4:
        sort = rng.choice([VERTEX, VERTEX, VSET])
        v = Var(f"o{len(scope)}{sort[0]}", sort)
        body = random_order_formula(rng, depth - 1, scope + [v])
        return Exists(v, body) if rng.random() < 0.7 \
            else Not(Exists(v, Not(body)))
    if roll < 0.6:
        return Not(random_order_formula(rng, depth - 1, scope))
    op = And if rng.random() < 0.5 else Or
    return op(random_order_formula(rng, depth - 1, scope),
              random_order_formula(rng, depth - 1, scope))


def _closed_samples(generator, rng, want, depth=4):
    out = []
    tries = 0
    while len(out) < want and tries < 500:
        tries += 1
        phi = generator(rng, depth, [])
        if not free_vars(phi):
            out.append(phi)
    assert len(out) == want
    return out


def test_random_graph_formulas_match_evaluator():
    labels = ("a", "b")
    for c, seed, want in ((1, 42, 20), (2, 1234, 12)):
        sweep = []
        for n in (1, 2, 3):
            for h in all_dags(n, list(labels)):
                uds = unit_decompositions(h, c)
                if uds:
                    sweep.append((h, uds))
        rng = random.Random(seed)
        for phi in _closed_samples(random_graph_formula, rng, want):
            aut = compile_formula(phi, c, labels)
            for h, uds in sweep:
                expected = evaluate_dag(h, phi)
                for u in uds:
                    assert aut.accepts(u) == expected, (to_text(phi), h)


def test_random_order_formulas_match_evaluator():
    labels = ("a", "b")
    hasse = []
    for n in (1, 2, 3):
        for h in all_dags(n, list(labels)):
            if h.is_transitively_reduced() and h.min_path_cover()[0] <= 1:
                hasse.append((h, h.transitive_closure(), unit_decompositions(h, 1)))
    rng = random.Random(7)
    for phi in _closed_samples(random_order_formula, rng, 12):
        aut = po_automaton(phi, 1, labels)
        for h, po, uds in hasse:
            expected = evaluate_po(po, phi)
            for u in uds:
                assert aut.accepts(u) == expected, (to_text(phi), h)


def test_reduction_of_a_cyclic_language():
    # the full width-2 valid-sequence language is infinite and contains
    # non-reduced DAGs; its reduction keeps the poset language intact
    vs2 = valid_sequences(2, ("t",))
    tr_vs = transitive_reduce_automaton(vs2)
    assert poset_keys(tr_vs.po_members_up_to(5)) == poset_keys(vs2.po_members_up_to(5))
    assert all(g.is_transitively_reduced() for g in tr_vs.graph_members_up_to(5))
    assert tr_vs.validate() == []


def test_poset_complement_involution():
    even = cached_po_automaton(corpus.EVEN_CHAIN, 1, ("a",))
    twice = poset_complement(poset_complement(even))
    assert poset_keys(twice.po_members_up_to(5)) == poset_keys(even.po_members_up_to(5))


def test_dead_transition_net():
    # t needs two tokens from a place holding one: nothing ever fires
    net = PtNet(("t",), [Place(1, puts={"t": 2}, takes={"t": 2}),
                         Place(1, puts={"t": 1}, takes={"t": 1})],
                bound=2, name="dead")
    for sem, oracle in (("ex", executions), ("cau", causal_orders)):
        aut = net_automaton(net, 2, sem)
        assert aut.is_empty()
        assert not oracle(net, 4, 2)


# Replacement tokens for mutated input files; no number above 2, so that no
# mutation can ask for a wide (and huge) unit alphabet.
_JUNK = ("x", "-1", "0", "2", "}", "{", "=", "", "state", "trans", "final", "!", "(")


def _mutate(rng, text):
    """One random edit of a file: a line dropped or repeated, or one token
    replaced or cut short."""
    lines = text.splitlines()
    i = rng.randrange(len(lines))
    roll = rng.randrange(4)
    if roll == 0:
        del lines[i]
    elif roll == 1:
        lines.insert(i, lines[i])
    else:
        tokens = lines[i].split(" ")
        j = rng.randrange(len(tokens))
        tokens[j] = rng.choice(_JUNK) if roll == 2 \
            else tokens[j][:rng.randrange(len(tokens[j]) + 1)]
        lines[i] = " ".join(tokens)
    return "\n".join(lines) + "\n"


def _random_cli_case(rng, inputs, tmp_path):
    """A random command line over cheap values: --c <= 2, --b <= 1, a small
    --max-states. Each option is valid nine times in ten, and otherwise zero,
    negative or malformed; each file is valid, mutated or missing."""
    def file(kind):
        roll = rng.random()
        if roll < 0.05:
            return str(tmp_path / f"missing.{kind}")
        text = rng.choice(inputs[kind])
        if roll < 0.45:
            text = _mutate(rng, text)
        path = tmp_path / f"case{rng.randrange(10**6)}.{kind}"
        path.write_text(text)
        return str(path)

    def pick(valid, invalid):
        return rng.choice(valid if rng.random() < 0.9 else invalid)

    c = ["--c", pick(("1", "2"), ("-1", "0", "x"))]
    sem = ["--sem", pick(("ex", "cau"), ("no",))]
    alphabet = ["--alphabet", pick(("a,b", "b,a", "a"), ("", ",", "a,a"))]
    bounds = ["--b", pick(("1",), ("-1", "0")), "--r", pick(("1", "2"), ("0",))] + c + sem
    command = rng.choice(("verify", "synth", "safest", "repair", "contract", "compile",
                          "net-automaton", "aut"))
    argv = ["--max-states", pick(("40", "400", "3000"), ("-1", "0")),
            "--max-enum", pick(("3", "6"), ("-1", "0"))]
    if command == "verify":
        argv += ["verify", "--net", file("net"), "--mso", file("mso")] + c + sem
    elif command == "synth":
        argv += ["synth", "--mso", file("mso")] + alphabet + bounds
    elif command == "safest":
        argv += ["safest", "--net", file("net"), "--mso", file("mso")] + bounds
    elif command == "repair":
        argv += ["repair", "--net", file("net"), "--keep", file("mso"),
                 "--allow", file("mso")] + bounds
    elif command == "contract":
        argv += ["contract", "--yes", file("mso"), "--no", file("mso")] + alphabet + bounds
    elif command == "compile":
        argv += ["compile", "--mso2", file("mso")] + c + alphabet
    elif command == "net-automaton":
        argv += ["net-automaton", "--net", file("net")] + c + sem
    else:
        op = rng.choice(("union", "intersect", "diff", "complement", "includes", "empty",
                         "members", "equivalent"))
        count = 1 if op in ("complement", "empty", "members") else 2
        argv += ["aut", op] + [file("aut") for _ in range(pick((count,), (3 - count,)))] \
            + ["--n", pick(("0", "2", "3"), ("-2",))]
    return argv


def test_random_cli_arguments_end_with_an_exit_code(tmp_path, capsys):
    nets = make_fixture_nets()
    inputs = {
        "net": [nets[name].to_text() for name in ("N0", "N1", "N2")],
        "mso": [corpus.TOTAL_ORDER, corpus.ALTERNATING_AB, corpus.SOME_EDGE, "true"],
        "aut": [cached_net_automaton("N1", c, "ex").to_text() for c in (1, 2)],
    }
    rng = random.Random(5)
    for _ in range(200):
        argv = _random_cli_case(rng, inputs, tmp_path)
        try:
            code = main(argv)
        except Exception as err:
            pytest.fail(f"slw {' '.join(argv)} raised {err!r}")
        assert code in (0, 1, 2, 3), argv
        capsys.readouterr()


# values that str.isdigit or a loose split lets through, and a reader must refuse
JUNK_VALUES = ("\u00b2", "\u0661", "1.0", "-1", "")
JUNK_ALPHABETS = ("a b", "a;b", "a,", ",a", "a-b", "a,,b", "\u00e9")


def _junk_value(rng, text):
    """text with the value after one '=' replaced by a junk value."""
    cuts = [i + 1 for i, ch in enumerate(text) if ch == "="]
    start = rng.choice(cuts)
    end = start
    while end < len(text) and not text[end].isspace():
        end += 1
    return text[:start] + rng.choice(JUNK_VALUES) + text[end:]


def test_random_field_values_end_with_an_exit_code(tmp_path, capsys):
    """Junk after one '=' of a valid .net or .aut file, or a malformed
    --alphabet: every run ends with an exit code and no traceback, and every
    file a run writes with -o reads back."""
    nets = make_fixture_nets()
    texts = {"net": [nets[name].to_text() for name in ("N0", "N1", "N2")],
             "aut": [cached_net_automaton("N1", 1, "ex").to_text()]}
    total, edge, aa = (tmp_path / name for name in ("total.mso", "edge.mso2", "aa.mso"))
    total.write_text(corpus.TOTAL_ORDER)
    edge.write_text(corpus.SOME_EDGE)
    aa.write_text(corpus.CONSECUTIVE_AA)
    bounds = ["--b", "1", "--c", "1", "--sem", "ex"]
    # per input kind: (argv before the input, the option that names it, the
    # reader of the -o file or None where the command writes none)
    commands = {
        "net": [(["net-automaton", "--c", "1", "--sem", "ex"], "--net", SliceAutomaton),
                (["verify", "--mso", str(total), "--c", "1", "--sem", "ex"], "--net", None)],
        "aut": [(["aut", "complement", "--n", "2"], None, SliceAutomaton),
                (["aut", "members", "--n", "2"], None, None)],
        "alphabet": [(["compile", "--mso2", str(edge), "--c", "1"], "--alphabet", SliceAutomaton),
                     (["synth", "--mso", str(total), *bounds], "--alphabet", PtNet),
                     (["contract", "--yes", str(total), "--no", str(aa), *bounds],
                      "--alphabet", PtNet)],
    }
    rng = random.Random(11)
    for i in range(60):
        kind = rng.choice(sorted(commands))
        argv, option, reader = rng.choice(commands[kind])
        if kind == "alphabet":
            value = rng.choice(JUNK_ALPHABETS)
        else:
            value = str(tmp_path / f"case{i}.{kind}")
            Path(value).write_text(_junk_value(rng, rng.choice(texts[kind])))
        argv = argv + ([option, value] if option else [value])
        out = tmp_path / f"out{i}"
        if reader:
            argv += ["-o", str(out)]
        try:
            code = main(argv)
        except Exception as err:
            pytest.fail(f"slw {' '.join(argv)} raised {err!r}")
        assert code in (0, 1, 2, 3), argv
        if code == 0 and reader:
            reader.from_text(out.read_text())
        capsys.readouterr()
