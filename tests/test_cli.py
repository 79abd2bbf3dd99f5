"""The slw command-line interface: subcommands, exit codes, determinism."""

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import slw
from slw import cli
from slw.automata import from_decompositions
from slw.cli import main
from slw.dag import LabeledPoset
from slw.mso import expand_builtins, parse, to_text
from slw.synthesis import VerificationReport
from slw.slices import Slice

from conftest import make_fixture_nets
from slw import corpus

N1_TEXT = make_fixture_nets()["N1"].to_text()
SRC = str(Path(slw.__file__).resolve().parent.parent)
CLI = "import sys; from slw.cli import main; sys.exit(main(sys.argv[1:]))"


@pytest.fixture()
def files(tmp_path):
    def write(name, content):
        p = tmp_path / name
        p.write_text(content)
        return str(p)
    return write, tmp_path


def test_version(capsys):
    assert main(["--version"]) == 0
    assert "slw 0.1.0" in capsys.readouterr().out


def test_verify_exit_codes(files, capsys):
    write, _ = files
    net = write("n1.net", N1_TEXT)
    good = write("total.mso", corpus.TOTAL_ORDER)
    assert main(["verify", "--net", net, "--mso", good, "--c", "1", "--sem", "ex"]) == 0
    out = capsys.readouterr().out
    assert "behavior within specification:      True" in out
    bad = write("anti.mso", corpus.SOME_INCOMPARABLE)
    assert main(["verify", "--net", net, "--mso", bad, "--c", "1", "--sem", "ex"]) == 1


def test_verify_text_lists_labels_in_vertex_order(files, capsys, monkeypatch):
    # from 11 vertices on, repr order puts vertex 10 before vertex 2
    write, _ = files
    chain = LabeledPoset({v: "a" if v < 10 else "b" for v in range(11)},
                         [(u, v) for u in range(11) for v in range(u + 1, 11)])
    monkeypatch.setattr(cli, "verify",
                        lambda *args: VerificationReport({"common": chain}))
    net = write("n1.net", N1_TEXT)
    phi = write("total.mso", corpus.TOTAL_ORDER)
    assert main(["verify", "--net", net, "--mso", phi, "--c", "1", "--sem", "ex"]) == 0
    out = capsys.readouterr().out
    assert f"counterexample (common): labels {['a'] * 10 + ['b']}, " \
           f"order {sorted(chain.order)}\n" in out


def test_out_of_memory_exits_two_without_traceback(files, capsys, monkeypatch):
    def exhaust(*args):
        raise MemoryError
    monkeypatch.setattr(cli, "safest_subsystem", exhaust)
    write, _ = files
    net = write("n1.net", N1_TEXT)
    phi = write("total.mso", corpus.TOTAL_ORDER)
    assert main(["safest", "--net", net, "--mso", phi, "--b", "1", "--c", "1",
                 "--sem", "ex"]) == 2
    assert capsys.readouterr().err == "resource cap exceeded: out of memory\n"


def test_import_loads_no_dataclasses(tmp_path):
    # every command is a fresh process: `dataclasses` and the `inspect` it
    # imports would cost each one about 28 ms before `main` runs
    probe = ("import sys; before = set(sys.modules); import slw.cli; "
             "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))")
    result = subprocess.run([sys.executable, "-c", probe], cwd=tmp_path,
                            env=dict(os.environ, PYTHONPATH=SRC), capture_output=True,
                            text=True, timeout=120, check=True)
    assert result.stdout.strip() == "[]"


def test_verify_structured_output(files, capsys):
    write, _ = files
    net = write("n1.net", N1_TEXT)
    phi = write("total.mso", corpus.TOTAL_ORDER)
    assert main(["--output", "structured", "verify", "--net", net, "--mso", phi,
                 "--c", "1", "--sem", "cau"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("slw-report v1\n")


def test_synth_and_determinism(files, capsys):
    write, tmp = files
    phi = write("alt.mso", corpus.ALTERNATING_AB)
    out1 = str(tmp / "a.net")
    out2 = str(tmp / "b.net")
    args = ["synth", "--mso", phi, "--alphabet", "a,b", "--b", "1", "--c", "1",
            "--sem", "ex"]
    assert main(args + ["-o", out1]) == 0
    assert main(args + ["-o", out2]) == 0
    assert open(out1).read() == open(out2).read()
    assert "net synthesized" in open(out1).read()


def test_net_automaton_then_aut_ops(files, capsys):
    write, tmp = files
    net = write("n1.net", N1_TEXT)
    aut_path = str(tmp / "n1.aut")
    assert main(["net-automaton", "--net", net, "--c", "1", "--sem", "ex",
                 "-o", aut_path]) == 0
    assert main(["aut", "empty", aut_path]) == 1
    assert main(["aut", "includes", aut_path, aut_path]) == 0
    assert main(["aut", "members", aut_path, "--n", "3"]) == 0
    out = capsys.readouterr().out
    assert "poset vertices=1" in out
    comp_path = str(tmp / "comp.aut")
    assert main(["aut", "complement", aut_path, "-o", comp_path]) == 0
    assert main(["aut", "intersect", aut_path, comp_path, "-o", str(tmp / "i.aut")]) == 0
    assert main(["aut", "empty", str(tmp / "i.aut")]) == 0


def test_members_list_vertices_in_numeric_order(files, capsys):
    write, _ = files
    chain = [Slice("ab"[i % 2], 0 if i == 0 else 1, 0 if i == 10 else 1)
             for i in range(11)]
    aut = write("chain.aut", from_decompositions(1, ("a", "b"), [chain]).to_text())
    assert main(["--max-enum", "11", "aut", "members", aut, "--n", "11"]) == 0
    out = capsys.readouterr().out
    order = ";".join(f"{u}<{v}" for u in range(11) for v in range(u + 1, 11))
    assert out == f"poset vertices=11 labels={','.join('ab'[i % 2] for i in range(11))} " \
                  f"order={order}\n"


def test_compile_graph_formula(files, capsys):
    write, tmp = files
    psi = write("edge.mso2", corpus.SOME_EDGE)
    out = str(tmp / "edge.aut")
    assert main(["compile", "--mso2", psi, "--c", "1", "--alphabet", "t",
                 "-o", out]) == 0
    assert open(out).read().startswith("slice-automaton c=1 alphabet=t")


def test_printed_rho_encoding_compiles_like_rho(files, capsys):
    write, tmp = files
    texts = {"rho": corpus.RHO, "encoding": to_text(expand_builtins(parse(corpus.RHO)))}
    for name, text in texts.items():
        assert main(["compile", "--mso2", write(f"{name}.mso2", text), "--c", "1",
                     "--alphabet", "a,b", "-o", str(tmp / f"{name}.aut")]) == 0
    assert main(["aut", "equivalent", str(tmp / "rho.aut"), str(tmp / "encoding.aut")]) == 0
    assert capsys.readouterr().out == "true\n"


def test_contract_cli(files):
    write, tmp = files
    yes = write("yes.mso", corpus.ALTERNATING_AB)
    no = write("no.mso", corpus.CONSECUTIVE_AA)
    assert main(["contract", "--yes", yes, "--no", no, "--alphabet", "a,b",
                 "--b", "1", "--c", "1", "--sem", "ex", "-o", str(tmp / "c.net")]) == 0


def test_proof_log_emission(files):
    write, tmp = files
    net = write("n1.net", N1_TEXT)
    phi = write("total.mso", corpus.TOTAL_ORDER)
    log_path = str(tmp / "proof.log")
    assert main(["--emit-proof-log", log_path, "verify", "--net", net,
                 "--mso", phi, "--c", "1", "--sem", "ex"]) == 0
    assert open(log_path).read().startswith("slw-proof v1\n")


def test_malformed_inputs_exit_three(files, capsys):
    write, _ = files
    bad_net = write("bad.net", "net x bound=1\nplaces oops\n")
    phi = write("t.mso", "true")
    assert main(["verify", "--net", bad_net, "--mso", phi, "--c", "1",
                 "--sem", "ex"]) == 3
    assert "line 2" in capsys.readouterr().err
    net = write("n1.net", N1_TEXT)
    bad_phi = write("bad.mso", "EX x. (")
    assert main(["verify", "--net", net, "--mso", bad_phi, "--c", "1",
                 "--sem", "ex"]) == 3


@pytest.mark.parametrize("text", ["EX X. EX Y. X = Y", "EX x. EX y:e. x = y"])
def test_ill_sorted_equality_exits_three(files, capsys, text):
    write, _ = files
    net = write("n1.net", N1_TEXT)
    phi = write("eq.mso", text)
    assert main(["verify", "--net", net, "--mso", phi, "--c", "1", "--sem", "ex"]) == 3
    err = capsys.readouterr().err
    assert "equality needs two first-order variables of one sort" in err
    assert "Traceback" not in err


def test_resource_cap_exit_two(files, capsys):
    write, _ = files
    phi = write("even.mso", corpus.EVEN_CHAIN)
    code = main(["--max-states", "2", "synth", "--mso", phi, "--alphabet", "a",
                 "--b", "1", "--c", "1", "--sem", "ex"])
    assert code == 2
    assert "cap" in capsys.readouterr().err


def test_candidate_places_are_capped(files, capsys):
    # (9+1)^(1+2*3) = 10^7 candidate places against a cap of 1000: refused
    # before the first probe instead of enumerated
    write, _ = files
    phi = write("total.mso", corpus.TOTAL_ORDER)
    start = time.perf_counter()
    code = main(["--max-states", "1000", "synth", "--mso", phi, "--alphabet", "a,b,c",
                 "--b", "9", "--c", "1", "--sem", "cau"])
    assert time.perf_counter() - start < 2
    assert code == 2
    assert "candidate places" in capsys.readouterr().err


def test_three_label_synthesis_fits_a_small_cap(files, capsys):
    # 3^7 = 2187 candidate places fit under the cap, and the 36 feasible ones
    # are returned without building their net's 6401-state token game
    write, _ = files
    phi = write("total.mso", corpus.TOTAL_ORDER)
    code = main(["--max-states", "2500", "synth", "--mso", phi, "--alphabet", "a,b,c",
                 "--b", "2", "--c", "1", "--sem", "ex"])
    assert code == 0
    out = capsys.readouterr().out
    assert sum(ln.startswith("place") for ln in out.splitlines()) == 36


def test_firing_product_is_capped(files, capsys):
    # after one t, the next t may take either token of each of the six places:
    # 2^6 assignments against a cap of 40, while the game has seen two states
    write, _ = files
    net = write("f.net", "net F bound=2\ntransitions t\n"
                         "place init=2 take(t)=1 put(t)=1 mult=6\n")
    assert main(["--max-states", "40", "net-automaton", "--net", net, "--c", "1",
                 "--sem", "ex"]) == 2
    assert "token game" in capsys.readouterr().err


def test_causal_repair_hits_the_firing_cap(files, capsys):
    # 306 places are feasible; one causal firing of their net has 2^36
    # assignments, so the containment walk is refused instead of exhausting memory
    write, _ = files
    net = write("n3.net", make_fixture_nets()["N3"].to_text())
    keep = write("keep.mso", corpus.ALTERNATING_AB)
    allow = write("allow.mso", f"!({corpus.CONSECUTIVE_AA})")
    start = time.perf_counter()
    code = main(["repair", "--net", net, "--keep", keep, "--allow", allow,
                 "--b", "2", "--c", "1", "--sem", "cau"])
    assert time.perf_counter() - start < 2
    assert code == 2
    assert "state cap exceeded in token game" in capsys.readouterr().err


def test_graph_formula_where_order_expected(files, capsys):
    write, _ = files
    net = write("n1.net", N1_TEXT)
    psi = write("graph.mso", corpus.SOME_EDGE)
    assert main(["verify", "--net", net, "--mso", psi, "--c", "1", "--sem", "ex"]) == 3


def _run_cli(args, cwd, seed="0"):
    """The CLI in a fresh interpreter, so that PYTHONHASHSEED takes effect."""
    env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, "-c", CLI, *args], cwd=cwd, env=env,
                          capture_output=True, timeout=120)


_NET = "net x bound=1\ntransitions a\nplace init=1 take(a)=1 put(a)=1\n"
_AUT = "slice-automaton c=1 alphabet=a\nstate 0 initial\nstate 1 final\n"
# file name -> (text, the error it ends with)
REPEATS_AND_ERRORS = {
    "second-net.net": ("net x bound=1\nnet y bound=1\ntransitions a\n"
                       "place init=1 take(a)=1 put(a)=1\n",
                       "line 2: expected one 'net NAME bound=B' line"),
    "two-place-names.net": (_NET.replace("place", "place p q"),
                            "line 3: expected 'place [NAME] FIELD=COUNT ...' after the "
                            "transitions line"),
    "second-transitions.net": (_NET + "transitions b\n",
                               "line 4: expected one 'transitions T ...' line"),
    "init-twice.net": (_NET.replace("init=1", "init=1 init=0"),
                       "line 3: field 'init' given twice"),
    "take-twice.net": (_NET.replace("take(a)=1", "take(a)=1 take(a)=0"),
                       "line 3: field 'take(a)' given twice"),
    "bound-twice.net": (_NET.replace("bound=1", "bound=1 bound=2"),
                        "line 1: field 'bound' given twice"),
    "state-twice.aut": (_AUT + "state 1\n", "line 4: state '1' given twice"),
    "c-twice.aut": (_AUT.replace("c=1", "c=1 c=2"), "line 1: field 'c' given twice"),
    "alphabet-twice.aut": (_AUT.replace("alphabet=a", "alphabet=a alphabet=b"),
                           "line 1: field 'alphabet' given twice"),
    "saturated-twice.aut": (_AUT.replace("alphabet=a", "alphabet=a saturated saturated"),
                            "line 1: word 'saturated' given twice"),
    "final-twice.aut": (_AUT.replace("state 1 final", "state 1 final final"),
                        "line 3: word 'final' given twice"),
}
REPEATS = {name: text for name, (text, _) in REPEATS_AND_ERRORS.items()}
# a slice literal that does not parse, or that is no slice, on a trans line
BAD_LITERALS = {
    "bad-endpoint.aut": (_AUT + "trans 0 slice{in:0; out:0; center:a; edges: x->y} 1\n",
                         "line 4: malformed slice endpoint: 'x'"),
    "center-loop.aut": (_AUT + "trans 0 slice{in:0; out:0; center:a; edges: c->c} 1\n",
                        "line 4: slice has a loop at its center"),
}
# a header whose width or labels no alphabet can have
BAD_HEADERS = {
    "zero-width.aut": ("slice-automaton c=0 alphabet=a\nstate 0 initial\n",
                       "line 1: width bound must be >= 1"),
    "repeated-label.aut": ("slice-automaton c=1 alphabet=a,a\nstate 0 initial\n",
                           "line 1: labels are a set; repeated label in a,a"),
}

# malformed numbers and literals in input files
BAD_FILES = {
    "bad-width.aut": "slice-automaton c=x alphabet=a\nstate 0 initial\n",
    "open-literal.aut": "slice-automaton c=1 alphabet=a\nstate 0 initial\nstate 1 final\n"
                        "trans 0 slice{in:0; out:0; center:a; edges:  1\n",
    "short-trans.aut": "slice-automaton c=1 alphabet=a\nstate 0 initial\ntrans 0\n",
    "bad-bound.net": "net x bound=x\ntransitions a\nplace init=1 take(a)=1 put(a)=1\n",
    "flag-typo.aut": "slice-automaton c=1 alphabet=a\nstate 0 initial\nstate 1 finale\n"
                     "trans 0 slice{in:0; out:0; center:a; edges: } 1\n",
    "empty-label.aut": "slice-automaton c=1 alphabet=a,\nstate 0 initial\nstate 1 final\n"
                       "trans 0 slice{in:0; out:0; center:; edges: } 1\n",
    "no-label.aut": "slice-automaton c=1 alphabet=\nstate 0 initial\n",
    # "²".isdigit() holds, but int("²") raises: counts are decimal numerals
    "superscript-width.aut": "slice-automaton c=\u00b2 alphabet=a\nstate 0 initial\n",
    "superscript-bound.net": "net x bound=\u00b2\ntransitions a\n"
                             "place init=1 take(a)=1 put(a)=1\n",
    "superscript-init.net": "net x bound=1\ntransitions a\n"
                            "place init=\u00b2 take(a)=1 put(a)=1\n",
    "superscript-mult.net": "net x bound=1\ntransitions a\n"
                            "place init=1 take(a)=1 put(a)=1 mult=\u00b2\n",
    # a line, a field or a flag given twice
    **REPEATS,
    **{name: text for name, (text, _) in BAD_LITERALS.items()},
    **{name: text for name, (text, _) in BAD_HEADERS.items()},
}


@pytest.mark.parametrize("args", [
    ["--max-states", "0", "net-automaton", "--net", "n1.net", "--c", "1", "--sem", "ex"],
    ["aut", "members", "n1.aut", "--n", "-1"],
    ["aut", "empty", "bad-width.aut"],
    ["aut", "empty", "open-literal.aut"],
    ["aut", "empty", "short-trans.aut"],
    ["net-automaton", "--net", "bad-bound.net", "--c", "1", "--sem", "ex"],
    ["aut", "empty", "flag-typo.aut"],
    ["aut", "members", "empty-label.aut", "--n", "2"],
    ["aut", "members", "no-label.aut", "--n", "2"],
    ["aut", "empty", "superscript-width.aut"],
    ["net-automaton", "--net", "superscript-bound.net", "--c", "1", "--sem", "ex"],
    ["net-automaton", "--net", "superscript-init.net", "--c", "1", "--sem", "ex"],
    ["net-automaton", "--net", "superscript-mult.net", "--c", "1", "--sem", "ex"],
    *(["net-automaton", "--net", name, "--c", "1", "--sem", "ex"]
      for name in REPEATS if name.endswith(".net")),
    *(["aut", "empty", name] for name in REPEATS if name.endswith(".aut")),
    *(["aut", "empty", name] for name in BAD_LITERALS),
    *(["aut", "empty", name] for name in BAD_HEADERS),
])
def test_bad_arguments_exit_three_without_traceback(files, args):
    write, tmp = files
    write("n1.net", N1_TEXT)
    for name, text in BAD_FILES.items():
        write(name, text)
    assert main(["net-automaton", "--net", str(tmp / "n1.net"), "--c", "1", "--sem", "ex",
                 "-o", str(tmp / "n1.aut")]) == 0
    result = _run_cli(args, tmp)
    assert result.returncode == 3
    assert b"Traceback" not in result.stderr


@pytest.mark.parametrize("name", sorted(REPEATS_AND_ERRORS))
def test_repeats_name_their_line(files, capsys, name):
    write, _ = files
    text, error = REPEATS_AND_ERRORS[name]
    path = write(name, text)
    args = ["net-automaton", "--net", path, "--c", "1", "--sem", "ex"] \
        if name.endswith(".net") else ["aut", "empty", path]
    assert main(args) == 3
    assert capsys.readouterr() == ("", f"error: {error}\n")


@pytest.mark.parametrize("name", sorted(BAD_LITERALS))
def test_bad_literal_names_its_line(files, capsys, name):
    write, _ = files
    text, error = BAD_LITERALS[name]
    assert main(["aut", "empty", write(name, text)]) == 3
    assert capsys.readouterr() == ("", f"error: {error}\n")


@pytest.mark.parametrize("name", sorted(BAD_HEADERS))
def test_bad_header_names_its_line(files, capsys, name):
    write, _ = files
    text, error = BAD_HEADERS[name]
    assert main(["aut", "empty", write(name, text)]) == 3
    assert capsys.readouterr() == ("", f"error: {error}\n")


def test_place_multiplicity_is_capped_before_expansion(files, capsys):
    write, _ = files
    net = write("huge.net", _NET.replace("put(a)=1", "put(a)=1 mult=100000000"))
    start = time.perf_counter()
    assert main(["net-automaton", "--net", net, "--c", "1", "--sem", "ex"]) == 2
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().err == ("resource cap exceeded: line 3: too many places: "
                                       "100000000 [max_states=1000000]\n")


@pytest.mark.parametrize("command", ["synth", "contract"])
def test_alphabet_order_does_not_matter(files, command):
    write, tmp = files
    alt = write("alt.mso", corpus.ALTERNATING_AB)
    aa = write("aa.mso", corpus.CONSECUTIVE_AA)
    spec = {"synth": ["--mso", alt], "contract": ["--yes", alt, "--no", aa]}[command]
    texts = []
    for alphabet in ("a,b", "b,a"):
        out = str(tmp / f"{alphabet}.net")
        assert main([command, *spec, "--alphabet", alphabet, "--b", "1", "--c", "1",
                     "--sem", "ex", "-o", out]) == 0
        texts.append(open(out, "rb").read())
    assert texts[0] == texts[1]


def test_aut_operations_ignore_label_order(files, capsys):
    # `--alphabet a,b` and `b,a` write one body under two headers
    write, tmp = files
    psi = write("edge.mso2", corpus.SOME_EDGE)
    ab, ba = str(tmp / "ab.aut"), str(tmp / "ba.aut")
    for alphabet, out in (("a,b", ab), ("b,a", ba)):
        assert main(["compile", "--mso2", psi, "--c", "1", "--alphabet", alphabet,
                     "-o", out]) == 0
    assert main(["aut", "includes", ab, ba]) == 0
    assert main(["aut", "equivalent", ba, ab]) == 0
    assert main(["aut", "diff", ab, ba, "-o", str(tmp / "none.aut")]) == 0
    assert main(["aut", "empty", str(tmp / "none.aut")]) == 0
    assert capsys.readouterr().err == ""


def test_repeated_label_exits_three(files, capsys):
    write, _ = files
    psi = write("edge.mso2", corpus.SOME_EDGE)
    assert main(["compile", "--mso2", psi, "--c", "1", "--alphabet", "a,a"]) == 3
    assert "repeated label" in capsys.readouterr().err
    aut = write("aa.aut", "slice-automaton c=1 alphabet=a,a\nstate 0 initial\n")
    assert main(["aut", "empty", aut]) == 3
    assert "repeated label" in capsys.readouterr().err


def test_empty_label_exits_three(files, capsys):
    # an .aut header that ends in a comma, or names no label, declares ""
    write, _ = files
    for name, alphabet in (("empty-label.aut", "'a,'"), ("no-label.aut", "''")):
        aut = write(name, BAD_FILES[name])
        assert main(["aut", "members", aut, "--n", "2"]) == 3
        assert capsys.readouterr() == ("", f"error: line 1: empty label in alphabet {alphabet}\n")


# unit_alphabet judges every label once: a label is letters, digits and
# underscores, the class a slice literal spells; synth and contract sort them
NOT_A_LABEL = "is not letters, digits and underscores"


@pytest.mark.parametrize("command, alphabet, message", [
    ("compile", "a b,c", f"label 'a b' in alphabet 'a b,c' {NOT_A_LABEL}"),
    ("synth", "a b", f"label 'a b' in alphabet 'a b' {NOT_A_LABEL}"),
    ("contract", "b,\u00e9", f"label '\u00e9' in alphabet 'b,\u00e9' {NOT_A_LABEL}"),
    ("compile", "a,", "empty label in alphabet 'a,'"),
    ("synth", "b,a,", "empty label in alphabet ',a,b'"),
    ("contract", "", "empty label in alphabet ''"),
])
def test_bad_labels_exit_three(files, capsys, command, alphabet, message):
    write, tmp = files
    alt = write("alt.mso", corpus.ALTERNATING_AB)
    spec = {"compile": ["--mso2", write("edge.mso2", corpus.SOME_EDGE)],
            "synth": ["--mso", alt, "--b", "1", "--sem", "ex"],
            "contract": ["--yes", alt, "--no", write("aa.mso", corpus.CONSECUTIVE_AA),
                         "--b", "1", "--sem", "ex"]}[command]
    out = tmp / "out"
    assert main([command, *spec, "--c", "1", "--alphabet", alphabet, "-o", str(out)]) == 3
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not out.exists()


def test_output_does_not_depend_on_hash_seed(tmp_path):
    nets = make_fixture_nets()
    for name in ("N0", "N1", "N2", "N3"):
        (tmp_path / f"{name}.net").write_text(nets[name].to_text())
    (tmp_path / "total.mso").write_text(corpus.TOTAL_ORDER)
    outputs = []
    for seed in ("1", "2"):
        out = {}
        for name in ("N1", "N2"):
            result = _run_cli(["net-automaton", "--net", f"{name}.net", "--c", "2",
                               "--sem", "ex"], tmp_path, seed)
            assert result.returncode == 0, result.stderr
            (tmp_path / f"{name}.aut").write_bytes(result.stdout)
            out[name] = result.stdout
        result = _run_cli(["aut", "intersect", "N1.aut", "N2.aut"], tmp_path, seed)
        assert result.returncode == 0, result.stderr
        out["intersect"] = result.stdout
        result = _run_cli(["aut", "members", "N2.aut", "--n", "4"], tmp_path, seed)
        assert result.returncode == 0, result.stderr
        out["members"] = result.stdout
        result = _run_cli(["--output", "structured", "verify", "--net", "N0.net",
                           "--mso", "total.mso", "--c", "2", "--sem", "ex"], tmp_path, seed)
        assert result.returncode == 1, result.stderr
        out["verify"] = result.stdout
        for name, sem in (("N2", "ex"), ("N3", "cau")):
            result = _run_cli(["net-automaton", "--net", f"{name}.net", "--c", "3",
                               "--sem", sem], tmp_path, seed)
            assert result.returncode == 0, result.stderr
            out[f"{name} c=3 {sem}"] = result.stdout
        outputs.append(out)
    assert outputs[0] == outputs[1]


# the universal automaton at c=2 has exactly 10 states; the token game has more
@pytest.mark.parametrize("cap, stage", [("5", "universal automaton"), ("10", "token game")],
                         ids=["universal", "token-game"])
def test_state_cap_names_the_construction(files, capsys, cap, stage):
    write, _ = files
    net = write("n2.net", make_fixture_nets()["N2"].to_text())
    assert main(["--max-states", cap, "net-automaton", "--net", net, "--c", "2",
                 "--sem", "ex"]) == 2
    assert stage in capsys.readouterr().err


def test_aut_intersect_honours_the_state_cap(files, capsys):
    write, tmp = files
    net = write("n1.net", N1_TEXT)
    aut = str(tmp / "n1.aut")
    assert main(["net-automaton", "--net", net, "--c", "2", "--sem", "ex", "-o", aut]) == 0
    assert main(["--max-states", "3", "aut", "intersect", aut, aut]) == 2
    assert "intersection" in capsys.readouterr().err


def test_aut_empty_honours_the_state_cap(files, capsys):
    # without final states the walk would read all 382 states of N2 at c=3
    write, tmp = files
    net = write("n2.net", make_fixture_nets()["N2"].to_text())
    aut = str(tmp / "n2.aut")
    assert main(["net-automaton", "--net", net, "--c", "3", "--sem", "ex", "-o", aut]) == 0
    lines = open(aut).read().splitlines()
    nonfinal = write("nonfinal.aut", "".join(
        ln.replace(" final", "") + "\n" if ln.startswith("state ") else ln + "\n"
        for ln in lines))
    assert main(["aut", "empty", nonfinal]) == 0
    capsys.readouterr()
    assert main(["--max-states", "5", "aut", "empty", nonfinal]) == 2
    assert "shortest word" in capsys.readouterr().err


def test_state_flag_typo_is_named(files, capsys):
    write, _ = files
    typo = write("typo.aut", BAD_FILES["flag-typo.aut"])
    assert main(["aut", "empty", typo]) == 3
    assert "line 3: unknown state flag 'finale'" in capsys.readouterr().err


def test_literal_outside_the_alphabet_exits_three(files, capsys):
    write, _ = files
    text = BAD_FILES["flag-typo.aut"].replace("finale", "final").replace("center:a", "center:z")
    assert main(["aut", "empty", write("z.aut", text)]) == 3
    assert capsys.readouterr().err == ("error: line 4: transition letter not in the declared "
                                       "alphabet: slice{in:0; out:0; center:z; edges: }\n")
    # too wide for c=1, and spelled out of order: the message spells it canonically
    text = BAD_FILES["flag-typo.aut"].replace("finale", "final").replace(
        "out:0; center:a; edges: ", "out:3; center:a; edges: c->o3, c->o1, c->o2")
    assert main(["aut", "empty", write("wide.aut", text)]) == 3
    assert capsys.readouterr().err == ("error: line 4: transition letter not in the declared "
                                       "alphabet: slice{in:0; out:3; center:a; "
                                       "edges: c->o1, c->o2, c->o3}\n")


# one unit decomposition of the antichain a||b, whose header claims more
FAKE_SATURATED = """slice-automaton c=2 alphabet=a,b saturated reduced
state 0 initial
state 1
state 2 final
trans 0 slice{in:0; out:0; center:a; edges: } 1
trans 1 slice{in:0; out:0; center:b; edges: } 2
"""


def test_complement_checks_a_saturated_header(files, capsys):
    write, tmp = files
    fake = write("fake.aut", FAKE_SATURATED)
    assert main(["aut", "complement", fake]) == 3
    assert "claims saturated" in capsys.readouterr().err
    net = write("n1.net", N1_TEXT)
    aut = str(tmp / "n1.aut")
    assert main(["net-automaton", "--net", net, "--c", "2", "--sem", "ex", "-o", aut]) == 0
    assert main(["aut", "complement", aut, "--n", "3"]) == 0
    assert "checked up to 3 vertices" in capsys.readouterr().err


@pytest.mark.parametrize("module", ["slw", "slw.cli"])
def test_module_runs_the_cli(tmp_path, module):
    env = dict(os.environ, PYTHONPATH=SRC)
    result = subprocess.run([sys.executable, "-m", module, "--version"], cwd=tmp_path,
                            env=env, capture_output=True, timeout=120)
    assert result.returncode == 0
    assert result.stdout.decode().strip() == "slw 0.1.0"


def test_deeply_nested_formula_exits_three(files):
    write, tmp = files
    write("n1.net", N1_TEXT)
    write("deep.mso", "!" * 5000 + "true")
    result = _run_cli(["verify", "--net", "n1.net", "--mso", "deep.mso", "--c", "1",
                       "--sem", "ex"], tmp)
    assert result.returncode == 3
    assert b"Traceback" not in result.stderr
    assert b"nested too deeply" in result.stderr


def test_initial_marking_above_bound_exits_three(files, capsys):
    write, _ = files
    net = write("over.net", "net over bound=1\ntransitions a\n"
                            "place init=5 take(a)=1 put(a)=1\n")
    phi = write("total.mso", corpus.TOTAL_ORDER)
    assert main(["verify", "--net", net, "--mso", phi, "--c", "1", "--sem", "ex"]) == 3
    assert "above the declared bound 1" in capsys.readouterr().err
