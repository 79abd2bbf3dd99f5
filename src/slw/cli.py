"""Command-line front end.

Exit codes: 0 for success / a true answer, 1 for a negative answer (property
fails, no net exists), 2 for an exceeded resource cap, 3 for malformed input
or violated preconditions. Output is deterministic byte-for-byte for a given
input and configuration.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import __version__
from .automata import (SliceAutomaton, difference, equivalent, includes,
                       intersect, union)
from .compiler import compile_formula
from .config import InputError, PreconditionError, ResourceError, RunConfig
from .constructions import check_saturated_upto, poset_complement
from .mso import is_graph_formula, is_order_formula, parse
from .netaut import net_automaton
from .ptnet import PtNet
from .synthesis import (ProofLog, repair, safest_subsystem, synth_from_contract,
                        synth_from_mso, verify)


def entry():
    sys.exit(main(sys.argv[1:]))


def main(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 3 if e.code not in (0, None) else 0
    if args.command is None:
        parser.print_help()
        return 3
    log = ProofLog() if getattr(args, "emit_proof_log", None) else None
    try:
        config = RunConfig(max_states=args.max_states, max_enum_vertices=args.max_enum)
        code = args.run(args, config, log)
        if log is not None:
            Path(args.emit_proof_log).write_text(log.to_text())
        return code
    except ResourceError as err:
        print(f"resource cap exceeded: {err}", file=sys.stderr)
        return 2
    except (InputError, PreconditionError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except RecursionError:
        print("error: input nested too deeply", file=sys.stderr)
        return 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slw",
        description="Verification, synthesis and repair of bounded p/t-nets "
                    "over width-bounded partial-order behaviors.")
    parser.add_argument("--version", action="version", version=f"slw {__version__}")
    parser.add_argument("--max-states", type=int, default=RunConfig().max_states,
                        help="state cap of every automaton construction; also caps "
                             "the candidate places that synthesis probes")
    parser.add_argument("--max-enum", type=int, default=RunConfig().max_enum_vertices,
                        help="enumeration cap (vertices/events)")
    parser.add_argument("--output", choices=("text", "structured"), default="text")
    parser.add_argument("--emit-proof-log", metavar="PATH",
                        help="write a machine-readable proof log")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("verify", help="compare a net's behavior with an order formula")
    p.add_argument("--net", required=True)
    p.add_argument("--mso", required=True)
    p.add_argument("--c", type=int, required=True)
    p.add_argument("--sem", choices=("ex", "cau"), required=True)
    p.set_defaults(run=_cmd_verify)

    p = sub.add_parser("synth", help="synthesize a minimal net from an order formula")
    _synth_args(p)
    p.add_argument("--mso", required=True)
    p.add_argument("--alphabet", required=True, help="comma-separated transition labels")
    p.set_defaults(run=_cmd_synth)

    p = sub.add_parser("safest", help="semantically safest subsystem of a net")
    _synth_args(p)
    p.add_argument("--net", required=True)
    p.add_argument("--mso", required=True)
    p.set_defaults(run=_cmd_safest)

    p = sub.add_parser("repair", help="behavioral repair between two formulas")
    _synth_args(p)
    p.add_argument("--net", required=True)
    p.add_argument("--keep", required=True, help="formula of runs to preserve")
    p.add_argument("--allow", required=True, help="formula bounding the repaired runs")
    p.set_defaults(run=_cmd_repair)

    p = sub.add_parser("contract", help="synthesis from a yes/no contract")
    _synth_args(p)
    p.add_argument("--yes", required=True)
    p.add_argument("--no", required=True)
    p.add_argument("--alphabet", required=True)
    p.set_defaults(run=_cmd_contract)

    p = sub.add_parser("compile", help="compile a graph formula to an automaton file")
    p.add_argument("--mso2", required=True)
    p.add_argument("--c", type=int, required=True)
    p.add_argument("--alphabet", required=True)
    p.add_argument("-o", "--out")
    p.set_defaults(run=_cmd_compile)

    p = sub.add_parser("net-automaton", help="emit the behavior automaton of a net")
    p.add_argument("--net", required=True)
    p.add_argument("--c", type=int, required=True)
    p.add_argument("--sem", choices=("ex", "cau"), required=True)
    p.add_argument("-o", "--out")
    p.set_defaults(run=_cmd_net_automaton)

    p = sub.add_parser("aut", help="operations on automaton files")
    p.add_argument("op", choices=("union", "intersect", "diff", "complement",
                                  "includes", "empty", "members", "equivalent"))
    p.add_argument("files", nargs="+")
    p.add_argument("-o", "--out")
    p.add_argument("--n", type=int, default=4,
                   help="member enumeration depth; for complement, the vertex "
                        "count up to which a saturated header is checked")
    p.set_defaults(run=_cmd_aut)
    return parser


def _synth_args(p):
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--r", type=int, default=1)
    p.add_argument("--c", type=int, required=True)
    p.add_argument("--sem", choices=("ex", "cau"), required=True)
    p.add_argument("-o", "--out")


def _read(path: str) -> str:
    return Path(path).read_text()


def _load_net(path: str) -> PtNet:
    return PtNet.from_text(_read(path))


def _load_order_formula(path: str):
    phi = parse(_read(path).strip())
    if not is_order_formula(phi):
        raise InputError(f"{path}: expected an order formula")
    return phi


def _emit(text: str, out):
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _emit_net(net, args) -> int:
    if net is None:
        print("no net satisfies the requirements", file=sys.stderr)
        return 1
    _emit(net.to_text(), args.out)
    return 0


def _labels(arg: str) -> tuple:
    labels = tuple(x for x in arg.split(",") if x)
    if not labels:
        raise InputError("empty alphabet")
    return labels


def _cmd_verify(args, config, log) -> int:
    net = _load_net(args.net)
    phi = _load_order_formula(args.mso)
    report = verify(net, phi, args.c, args.sem, config, log)
    if args.output == "structured":
        sys.stdout.write(report.to_text())
    else:
        print(f"behavior and specification disjoint: {report.disjoint}")
        print(f"behavior within specification:      {report.net_subset_of_spec}")
        print(f"specification within behavior:      {report.spec_subset_of_net}")
        for which, po in sorted(report.counterexamples.items()):
            print(f"counterexample ({which}): labels "
                  f"{[po.labels[v] for v in sorted(po.labels)]}, order {sorted(po.order)}")
    return 0 if report.net_subset_of_spec else 1


def _cmd_synth(args, config, log) -> int:
    phi = _load_order_formula(args.mso)
    net = synth_from_mso(phi, _labels(args.alphabet), args.b, args.r, args.c,
                         args.sem, config, log)
    return _emit_net(net, args)


def _cmd_safest(args, config, log) -> int:
    net = safest_subsystem(_load_net(args.net), _load_order_formula(args.mso),
                           args.b, args.r, args.c, args.sem, config, log)
    return _emit_net(net, args)


def _cmd_repair(args, config, log) -> int:
    net = repair(_load_net(args.net), _load_order_formula(args.keep),
                 _load_order_formula(args.allow),
                 args.b, args.r, args.c, args.sem, config, log)
    return _emit_net(net, args)


def _cmd_contract(args, config, log) -> int:
    net = synth_from_contract(_load_order_formula(args.yes),
                              _load_order_formula(args.no),
                              _labels(args.alphabet),
                              args.b, args.r, args.c, args.sem, config, log)
    return _emit_net(net, args)


def _cmd_compile(args, config, log) -> int:
    phi = parse(_read(args.mso2).strip())
    if not is_graph_formula(phi):
        raise InputError(f"{args.mso2}: expected a graph formula")
    aut = compile_formula(phi, args.c, _labels(args.alphabet), config)
    _emit(aut.to_text(), args.out)
    return 0


def _cmd_net_automaton(args, config, log) -> int:
    aut = net_automaton(_load_net(args.net), args.c, args.sem, config)
    _emit(aut.to_text(), args.out)
    return 0


def _cmd_aut(args, config, log) -> int:
    op = args.op
    needs = {"union": 2, "intersect": 2, "diff": 2, "includes": 2, "equivalent": 2,
             "complement": 1, "empty": 1, "members": 1}[op]
    if len(args.files) != needs:
        raise InputError(f"aut {op} takes {needs} automaton file(s)")
    if args.n < 0:
        raise InputError("--n must be >= 0")
    auts = [SliceAutomaton.from_text(_read(f)) for f in args.files]
    for f, a in zip(args.files, auts):
        problems = a.validate()
        if problems:
            raise InputError(f"{f}: invalid slice automaton: {problems[0]}")
    if op == "union":
        _emit(union(*auts).to_text(), args.out)
        return 0
    if op == "intersect":
        _emit(intersect(auts[0], auts[1], config).to_text(), args.out)
        return 0
    if op == "diff":
        _emit(difference(auts[0], auts[1], config).to_text(), args.out)
        return 0
    if op == "complement":
        # header flags are claims: decide reducedness, check saturation up to --n
        a = auts[0].with_flags(saturated=auts[0].saturated, transitively_reduced=None)
        if a.saturated:
            if check_saturated_upto(a, args.n, config) is not None:
                raise PreconditionError(f"{args.files[0]}: claims saturated, but misses "
                                        f"a unit decomposition of a DAG it accepts")
            print(f"note: saturation checked up to {args.n} vertices", file=sys.stderr)
        _emit(poset_complement(a, config).to_text(), args.out)
        return 0
    if op == "includes":
        ok = includes(auts[0], auts[1], config)
        print(str(ok).lower())
        return 0 if ok else 1
    if op == "equivalent":
        ok = equivalent(auts[0], auts[1], config)
        print(str(ok).lower())
        return 0 if ok else 1
    if op == "empty":
        ok = auts[0].is_empty(config)
        print(str(ok).lower())
        return 0 if ok else 1
    members = auts[0].po_members_up_to(args.n, config)
    for po in members:
        labels = ",".join(str(po.labels[v]) for v in sorted(po.labels))
        order = ";".join(f"{u}<{v}" for u, v in sorted(po.order))
        print(f"poset vertices={len(po.vertices)} labels={labels} order={order}")
    return 0


if __name__ == "__main__":
    entry()
