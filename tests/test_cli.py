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
from slw.synthesis import VerificationReport
from slw.slices import unit_slice

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
                        lambda *args: VerificationReport(False, True, True, {"common": chain}))
    net = write("n1.net", N1_TEXT)
    phi = write("total.mso", corpus.TOTAL_ORDER)
    assert main(["verify", "--net", net, "--mso", phi, "--c", "1", "--sem", "ex"]) == 0
    out = capsys.readouterr().out
    assert f"counterexample (common): labels {['a'] * 10 + ['b']}, " \
           f"order {sorted(chain.order)}\n" in out


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
    chain = [unit_slice("ab"[i % 2], 0 if i == 0 else 1, 0 if i == 10 else 1)
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


# malformed numbers and literals in input files
BAD_FILES = {
    "bad-width.aut": "slice-automaton c=x alphabet=a\nstate 0 initial\n",
    "open-literal.aut": "slice-automaton c=1 alphabet=a\nstate 0 initial\nstate 1 final\n"
                        "trans 0 slice{in:0; out:0; center:a; edges:  1\n",
    "short-trans.aut": "slice-automaton c=1 alphabet=a\nstate 0 initial\ntrans 0\n",
    "bad-bound.net": "net x bound=x\ntransitions a\nplace init=1 take(a)=1 put(a)=1\n",
    "flag-typo.aut": "slice-automaton c=1 alphabet=a\nstate 0 initial\nstate 1 finale\n"
                     "trans 0 slice{in:0; out:0; center:a; edges: } 1\n",
}


@pytest.mark.parametrize("args", [
    ["--max-states", "0", "net-automaton", "--net", "n1.net", "--c", "1", "--sem", "ex"],
    ["aut", "members", "n1.aut", "--n", "-1"],
    ["aut", "empty", "bad-width.aut"],
    ["aut", "empty", "open-literal.aut"],
    ["aut", "empty", "short-trans.aut"],
    ["net-automaton", "--net", "bad-bound.net", "--c", "1", "--sem", "ex"],
    ["aut", "empty", "flag-typo.aut"],
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


def test_output_does_not_depend_on_hash_seed(tmp_path):
    nets = make_fixture_nets()
    for name in ("N0", "N1", "N2"):
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
    assert capsys.readouterr().err == ("error: transition letter not in the declared alphabet: "
                                       "slice{in:0; out:0; center:z; edges: }\n")


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
