"""Byte-identity of slw's outputs: one SHA-256 per output, pinned in golden.json.

Each entry hashes one output that a refactor must leave alone: the literals of
a unit alphabet, the `.aut` text of a net's behavior, a compiled formula, a
transitive reduction or the trie of a DAG's decompositions, the words the
walks return and the Boolean operations' `.aut` text on one net and formula,
or the exit code, stdout, stderr and written files of one benchmark job, run
in-process on the benchmark's seed-1 inputs. A change that moves an output on
purpose rewrites the file and names every entry that changed. To rewrite it,
run from the root of a checkout:

    PYTHONPATH=src python3 tests/test_golden.py

which prints each entry it adds, changes or drops.
"""

import hashlib
import io
import json
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from slw.automata import (common_word, counterexample, difference, from_decompositions,
                          intersect, letter_base, union, valid_sequences)
from slw.cli import main
from slw.constructions import poset_complement, transitive_reduce_automaton
from slw.corpus import GRAPH_CORPUS, ORDER_CORPUS
from slw.dag import all_dags
from slw.netaut import net_automaton
from slw.slices import to_literal, unit_alphabet, unit_decompositions

from conftest import (cached_graph_automaton, cached_net_automaton, cached_po_automaton,
                      make_fixture_nets)
from test_netaut import WEIGHTED
from test_synthesis import NOISY

GOLDEN = Path(__file__).resolve().parent / "golden.json"
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))
import workloads  # noqa: E402  (read only: the benchmark's inputs and job lines)

TAB = ("a", "b")


def _letters():
    for labels in (("a",), TAB):
        for c in (1, 2, 3, 4):
            yield (f"unit_alphabet c={c} {','.join(labels)}",
                   "\n".join(map(to_literal, unit_alphabet(c, labels))))
    for c in (1, 2):
        yield (f"transitive_reduce valid_sequences c={c} a",
               transitive_reduce_automaton(valid_sequences(c, ("a",))).to_text())


def _tries():
    """The trie `from_decompositions` builds from the width-2 decompositions
    of each DAG with up to three vertices over a, b."""
    for n in (1, 2, 3):
        for h in all_dags(n, TAB):
            dag = (" ".join(h.labels[v] for v in h.vertices) + ";"
                   + "".join(f" {x}->{y}" for x, y in h.edges))
            yield (f"from_decompositions c=2 {dag}",
                   from_decompositions(2, TAB, unit_decompositions(h, 2)).to_text())


def _nets():
    for c in (1, 2, 3):
        for sem in ("ex", "cau"):
            for name in ("N0", "N1", "N2", "N3", "N4", "N5"):
                yield f"net {name} c={c} {sem}", cached_net_automaton(name, c, sem).to_text()
            for name, net in (*WEIGHTED.items(), ("noisy", NOISY)):
                yield f"net {name} c={c} {sem}", net_automaton(net, c, sem).to_text()


def _formulas():
    for c in (1, 2):
        for name, text in ORDER_CORPUS.items():
            yield f"po_automaton {name} c={c}", cached_po_automaton(text, c, TAB).to_text()
        for name, text in GRAPH_CORPUS.items():
            yield f"compile_formula {name} c={c}", cached_graph_automaton(text, c, TAB).to_text()


def _spell(word) -> str:
    return "none" if word is None else " ".join(to_literal(letter_base(s)) for s in word)


def _walks():
    """On the net x formula pairs of the walk-word test in test_automata: the
    words of both inclusion walks, the disjointness walk and `shortest_accepted`,
    and the text of union, intersection, difference and poset complement."""
    for c in (1, 2):
        for sem in ("ex", "cau"):
            for name, net in make_fixture_nets().items():
                behavior = cached_net_automaton(name, c, sem)
                yield (f"walks poset_complement {name} c={c} {sem}",
                       poset_complement(behavior).to_text())
                for formula, text in ORDER_CORPUS.items():
                    spec = cached_po_automaton(text, c, tuple(net.transitions))
                    both = intersect(behavior, spec)
                    minus = difference(behavior, spec)
                    words = (counterexample(behavior, spec), counterexample(spec, behavior),
                             common_word(behavior, spec), both.shortest_accepted(),
                             minus.shortest_accepted(), spec.shortest_accepted())
                    yield (f"walks {name} {formula} c={c} {sem}",
                           "\n".join(map(_spell, words)) + "\n" + union(behavior, spec).to_text()
                           + both.to_text() + minus.to_text()
                           + difference(spec, behavior).to_text())
        for formula, text in ORDER_CORPUS.items():
            yield (f"walks poset_complement {formula} c={c}",
                   poset_complement(cached_po_automaton(text, c, TAB)).to_text())


def _jobs():
    """Every benchmark job in the order of seed 1, each stage reading the files
    of the stages before it; temporary paths print as $TMP."""
    labels = workloads.label_map(1)
    with tempfile.TemporaryDirectory() as tmp:
        inputs = workloads.write_inputs(Path(tmp), 1)
        for workload in workloads.WORKLOADS:
            pass_dir = Path(tmp) / workload
            pass_dir.mkdir()
            for job in workloads.job_order(workload, 1):
                before = set(pass_dir.iterdir())
                out, err = io.StringIO(), io.StringIO()
                with redirect_stdout(out), redirect_stderr(err):
                    code = main(workloads.resolve(job.argv, inputs, pass_dir, labels))
                text = f"exit {code}\nstdout\n{out.getvalue()}stderr\n{err.getvalue()}"
                for path in sorted(set(pass_dir.iterdir()) - before):
                    text += f"file {path.name}\n{path.read_text()}"
                yield f"{workload}: {job.name}", text.replace(tmp, "$TMP")


GROUPS = {"letters": _letters, "tries": _tries, "nets": _nets, "formulas": _formulas,
          "walks": _walks, "jobs": _jobs}


def digests(group: str) -> dict:
    return {key: hashlib.sha256(text.encode()).hexdigest() for key, text in GROUPS[group]()}


def moved(want: dict, got: dict) -> list:
    """The entries added, changed or dropped between two digest maps, sorted."""
    return sorted(k for k in want.keys() | got.keys() if want.get(k) != got.get(k))


@pytest.mark.parametrize("group", GROUPS)
def test_outputs_are_unchanged(group):
    changed = moved(json.loads(GOLDEN.read_text())[group], digests(group))
    assert not changed, f"{len(changed)} outputs moved, first {changed[:5]}"


if __name__ == "__main__":
    old = json.loads(GOLDEN.read_text())
    new = {group: digests(group) for group in GROUPS}
    for group in dict.fromkeys([*GROUPS, *old]):
        want, got = old.get(group, {}), new.get(group, {})
        for key in moved(want, got):
            verb = "added" if key not in want else "dropped" if key not in got else "changed"
            print(f"{verb} {group}: {key}")
    GOLDEN.write_text(json.dumps(new, indent=1) + "\n")
