"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

All tolerances are exact equality; every expected value is either computed by
an independent brute-force oracle inside the test or frozen from an
oracle-validated run.
"""

import time
from contextlib import contextmanager

import pytest

from slw.automata import difference, includes, intersect, union
from slw.compiler import compile_formula
from slw.constructions import (check_saturated_upto, poset_complement,
                               transitive_reduce_automaton, universal_automaton)
from slw.dag import LabeledDag, LabeledPoset, all_dags
from slw.mso import evaluate_dag, evaluate_po, parse
from slw.netaut import net_automaton
from slw.ptnet import PtNet, Place, causal_orders, executions, occurrence_sequences
from slw.slices import unit_decompositions
from slw.synthesis import (SynthesisSpec, repair, safest_subsystem, synth_from_contract,
                           synth_from_mso, synthesize, verify)

from conftest import (cached_net_automaton, cached_po_automaton, exhaustive_min_path_cover,
                      hasse_sweep, make_fixture_nets, poset_keys)
from test_constructions import _random_automata
from slw import corpus


@pytest.fixture()
def report_line(capfd):
    """Print through the capture so the line shows in any pytest run."""
    def emit(text):
        with capfd.disabled():
            print(text, flush=True)
    return emit


@contextmanager
def criterion(num: int, desc: str, budget_s: float, emit):
    start = time.time()
    try:
        yield
    except Exception:
        emit(f"\nACCEPTANCE {num} ({desc}): FAIL")
        raise
    elapsed = time.time() - start
    emit(f"\nACCEPTANCE {num} ({desc}): PASS [{elapsed:.1f}s]")
    assert elapsed < budget_s, f"criterion {num} exceeded its time budget"


def test_criterion_1_compiler_oracle_agreement(report_line):
    with criterion(1, "compiler/oracle agreement on the formula corpus", 600, report_line):
        labels = ("a", "b")
        checked = 0
        for c in (1, 2):
            sweep = hasse_sweep(c, labels)
            for name, text in corpus.ORDER_CORPUS.items():
                aut = cached_po_automaton(text, c, labels)
                phi = parse(text)
                for h, po, uds in sweep:
                    expected = evaluate_po(po, phi)
                    for u in uds:
                        assert aut.accepts(u) == expected, (name, c, h)
                        checked += 1
            for name, text in corpus.GRAPH_CORPUS.items():
                aut = compile_formula(parse(text), c, labels)
                psi = parse(text)
                for h, po, uds in sweep:
                    expected = evaluate_dag(h, psi)
                    for u in uds:
                        assert aut.accepts(u) == expected, (name, c, h)
                        checked += 1
        assert len(corpus.ORDER_CORPUS) + len(corpus.GRAPH_CORPUS) >= 8
        assert checked > 25_000  # 13 formulas x 2284 decompositions across widths


def test_criterion_2_net_automaton_oracle_agreement(report_line):
    with criterion(2, "net automata equal process-enumeration oracles", 900, report_line):
        nets = make_fixture_nets()
        assert len(nets) >= 5
        for name, net in nets.items():
            assert len(net.places) <= 3 and len(net.transitions) <= 3 and net.bound <= 2
            for sem, oracle in (("ex", executions), ("cau", causal_orders)):
                for c in (1, 2):
                    aut = cached_net_automaton(name, c, sem)
                    assert poset_keys(aut.po_members_up_to(4)) \
                        == poset_keys(oracle(net, 4, c)), (name, sem, c)


def test_criterion_3_footnote_net_hierarchy(report_line):
    with criterion(3, "footnote-net width hierarchy", 60, report_line):
        nets = make_fixture_nets()
        anti = LabeledPoset({0: "t1", 1: "t2"}, []).canonical_key()
        ex2 = poset_keys(cached_net_automaton("N0", 2, "ex").po_members_up_to(2))
        ex1 = poset_keys(cached_net_automaton("N0", 1, "ex").po_members_up_to(2))
        assert anti in ex2 and anti not in ex1
        mem = poset_keys(cached_net_automaton("N0", 1, "ex").po_members_up_to(4))
        chains = set()
        for seq in occurrence_sequences(nets["N0"], 4):
            if seq:
                chains.add(LabeledPoset(
                    {i: t for i, t in enumerate(seq)},
                    [(i, j) for i in range(len(seq)) for j in range(len(seq))
                     if i < j]).canonical_key())
        assert mem == chains


def test_criterion_4_causal_stabilization(report_line):
    with criterion(4, "causal behavior stabilizes at c = b*|P|", 600, report_line):
        nets = make_fixture_nets()
        # oracle-level equality for every fixture net
        for name, net in nets.items():
            cstar = net.bound * len(net.places)
            assert poset_keys(causal_orders(net, 4, cstar)) \
                == poset_keys(causal_orders(net, 4, cstar + 1)), name
        # automaton-level equality where the width bound stays desk-scale
        for name in ("N0", "N1", "N4", "N3"):
            net = nets[name]
            cstar = net.bound * len(net.places)
            m1 = poset_keys(net_automaton(net, cstar, "cau").po_members_up_to(4))
            m2 = poset_keys(net_automaton(net, cstar + 1, "cau").po_members_up_to(4))
            assert m1 == m2, name


def _saturated_reduced_pairs():
    groups = []
    ta = ("a",)
    groups.append([cached_po_automaton(corpus.EVEN_CHAIN, 1, ta),
                   cached_po_automaton(corpus.ODD_CHAIN, 1, ta),
                   universal_automaton(1, ta),
                   cached_po_automaton(corpus.TOTAL_ORDER, 1, ta)])
    tt = ("t",)
    groups.append([universal_automaton(2, tt),
                   cached_po_automaton(corpus.TOTAL_ORDER, 2, tt),
                   cached_po_automaton(corpus.SOME_INCOMPARABLE, 2, tt)])
    t12 = ("t1", "t2")
    groups.append([cached_net_automaton("N0", 2, "ex"),
                   cached_po_automaton(corpus.TOTAL_ORDER, 2, t12)])
    pairs = []
    for group in groups:
        for i in range(len(group)):
            for j in range(i + 1, len(group)):
                pairs.append((group[i], group[j]))
    return pairs


def test_criterion_5_saturated_language_properties(report_line):
    with criterion(5, "Boolean-operation properties of saturated languages", 600, report_line):
        pairs = _saturated_reduced_pairs()
        assert len(pairs) >= 10
        for a, b in pairs:
            assert a.saturated and a.transitively_reduced
            assert b.saturated and b.transitively_reduced
            ma, mb = poset_keys(a.po_members_up_to(5)), poset_keys(b.po_members_up_to(5))
            u = union(a, b)
            assert poset_keys(u.po_members_up_to(5)) == ma | mb          # item 1
            i = intersect(a, b)
            assert poset_keys(i.po_members_up_to(5)) == ma & mb          # item 2
            full = poset_keys(universal_automaton(a.c, a.labels).po_members_up_to(5))
            comp = poset_complement(a)
            assert poset_keys(comp.po_members_up_to(5)) == full - ma     # item 3
            assert includes(a, b) == (ma <= mb)                          # item 4
            assert includes(b, a) == (mb <= ma)
            assert intersect(a, b).is_empty() == (not (ma & mb))         # item 5
            assert check_saturated_upto(u, 5) is None                    # item 6
            assert check_saturated_upto(i, 5) is None
        # negative control: without saturation, the syntactic difference does
        # not denote the poset complement
        from slw.automata import from_decompositions
        h = LabeledDag({0: "a", 1: "b"}, [])
        uds = unit_decompositions(h, 2)
        partial = from_decompositions(2, ("a", "b"), uds[:1])
        raw = difference(universal_automaton(2, ("a", "b")), partial)
        anti = h.transitive_closure().canonical_key()
        assert anti in poset_keys(partial.po_members_up_to(3))
        assert anti in poset_keys(raw.po_members_up_to(3))


def test_criterion_6_transitive_reduction_of_automata(report_line):
    with criterion(6, "transitive reduction preserves poset languages", 300, report_line):
        autos = _random_automata(seed=20250809, count=10)
        h = LabeledDag({0: "a", 1: "b", 2: "c"}, [(0, 1), (1, 2), (0, 2)])
        from slw.automata import from_decompositions
        autos.append(from_decompositions(2, ("a", "b", "c"), unit_decompositions(h, 2)))
        autos.append(universal_automaton(2, ("t",)))
        assert len(autos) >= 10
        for a in autos:
            tr_a = transitive_reduce_automaton(a)
            assert poset_keys(tr_a.po_members_up_to(5)) == poset_keys(a.po_members_up_to(5))
            for g in tr_a.graph_members_up_to(5):
                assert g.is_transitively_reduced()


def test_criterion_7_path_cover_and_decomposition_width(report_line):
    with criterion(7, "min path cover vs exhaustive search; decomposition widths", 600, report_line):
        for n in range(1, 6):
            for h in all_dags(n, ["t"]):
                k, paths = h.min_path_cover()
                assert k == exhaustive_min_path_cover(h), h
                if k <= 2:
                    uds = unit_decompositions(h, len(h.edges) + 1)
                    assert uds and all(u.width() <= k for u in uds), h


def test_criterion_8_synthesis_round_trip(report_line):
    with criterion(8, "synthesis reproduces net behavior", 900, report_line):
        nets = make_fixture_nets()
        for name in ("N0", "N1", "N3", "N4"):
            net = nets[name]
            assert net.bound == 1
            spec_aut = cached_net_automaton(name, 1, "ex")
            spec = SynthesisSpec(spec_aut, 1, 1, "ex")
            out = synthesize(spec)
            assert out is not None, name
            assert poset_keys(net_automaton(out, 1, "ex").po_members_up_to(4)) \
                == poset_keys(spec_aut.po_members_up_to(4)), name


SYNTH_GOLDEN = """\
net synthesized bound=1
transitions a b
place init=0
place init=0 take(b)=1 put(a)=1
place init=1
place init=1 take(b)=1 put(b)=1
place init=1 take(a)=1 put(b)=1
place init=1 take(a)=1 put(a)=1
place init=1 take(a)=1 take(b)=1 put(a)=1 put(b)=1
"""

SAFEST_GOLDEN = """\
net synthesized bound=1
transitions t1 t2
place init=0
place init=1
place init=1 take(t2)=1 put(t2)=1
place init=1 take(t1)=1 put(t1)=1
place init=1 take(t1)=1 take(t2)=1 put(t1)=1 put(t2)=1
"""

REPAIR_GOLDEN = """\
net synthesized bound=1
transitions a b
place init=0
place init=0 put(b)=1
place init=0 put(a)=1
place init=0 take(b)=1 put(a)=1
place init=0 take(b)=1 put(a)=1 put(b)=1
place init=1
place init=1 take(b)=1
place init=1 take(b)=1 put(b)=1
place init=1 take(a)=1
place init=1 take(a)=1 put(b)=1
place init=1 take(a)=1 put(a)=1
place init=1 take(a)=1 take(b)=1 put(a)=1
place init=1 take(a)=1 take(b)=1 put(a)=1 put(b)=1
"""


def test_criterion_9_end_to_end_procedures(report_line):
    with criterion(9, "end-to-end scenarios for the five procedures", 1200, report_line):
        nets = make_fixture_nets()
        tab = ("a", "b")

        # verification: the footnote net exhibits concurrency at width 2
        report = verify(nets["N0"], parse(corpus.TOTAL_ORDER), 2, "ex")
        assert (report.disjoint, report.net_subset_of_spec,
                report.spec_subset_of_net) == (False, False, True)
        ce = report.counterexamples["net-minus-spec"]
        assert ce.n_vertices() == 2 and not ce.order
        report1 = verify(nets["N1"], parse(corpus.TOTAL_ORDER), 2, "cau")
        assert report1.net_subset_of_spec

        # synthesis from a formula: the alternation language needs the alternator
        net2 = synth_from_mso(parse(corpus.ALTERNATING_AB), tab, 1, 1, 1, "ex")
        assert net2.to_text() == SYNTH_GOLDEN
        assert poset_keys(net_automaton(net2, 1, "ex").po_members_up_to(4)) \
            == poset_keys(executions(nets["N1"], 4, 1))

        # safest subsystem: serializing the footnote net
        net3 = safest_subsystem(nets["N0"], parse(corpus.TOTAL_ORDER), 1, 1, 2, "ex")
        assert net3.to_text() == SAFEST_GOLDEN
        anti = LabeledPoset({0: "t1", 1: "t2"}, []).canonical_key()
        out_members = poset_keys(executions(net3, 4, 2))
        assert anti not in out_members
        assert out_members <= poset_keys(executions(nets["N0"], 4, 2))

        # behavioral repair: keep the alternating runs of a sloppy net, allow
        # only runs without two consecutive a's
        noisy = PtNet(tab, [Place(1, takes={"a": 1}, name="pa"),
                            Place(0, puts={"a": 1}, name="pout"),
                            Place(1, takes={"b": 1}, puts={"b": 1}, name="pb")],
                      bound=1, name="noisy")
        allow = parse("!(" + corpus.CONSECUTIVE_AA + ")")
        net4 = repair(noisy, parse(corpus.ALTERNATING_AB), allow, 1, 1, 1, "ex")
        assert net4.to_text() == REPAIR_GOLDEN
        kept = intersect(cached_po_automaton(corpus.ALTERNATING_AB, 1, tab),
                         net_automaton(noisy, 1, "ex"))
        repaired = poset_keys(executions(net4, 4, 1))
        assert poset_keys(kept.po_members_up_to(4)) <= repaired
        assert all(evaluate_po(m, allow) for m in executions(net4, 4, 1))

        # synthesis from a contract
        net5 = synth_from_contract(parse(corpus.ALTERNATING_AB),
                                   parse(corpus.CONSECUTIVE_AA), tab, 1, 1, 1, "ex")
        assert net5.to_text() == SYNTH_GOLDEN
        bad = poset_keys(cached_po_automaton(corpus.CONSECUTIVE_AA, 1, tab)
                         .po_members_up_to(4))
        assert not (poset_keys(executions(net5, 4, 1)) & bad)
