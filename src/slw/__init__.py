"""slw: a workbench for width-bounded partial-order behaviors.

Slices are width-bounded DAG fragments used as automaton letters; slice
automata denote sets of DAGs and of partial orders. The package compiles
monadic second-order specifications to such automata, represents the
partial-order behavior of bounded place/transition nets the same way, and
builds verification, synthesis, safest-subsystem, repair and
synthesis-from-contract procedures on top.
"""

__version__ = "0.1.0"

from .config import DEFAULT_CONFIG, InputError, PreconditionError, ResourceError, RunConfig
from .dag import LabeledDag, LabeledPoset, dedup_posets
from .slices import (Slice, UnitDecomposition, can_glue, compose, from_literal, to_literal,
                     unit_alphabet, unit_decompositions)
from .automata import (SliceAutomaton, common_word, difference, disjoint, equivalent,
                       from_decompositions, includes, intersect, union, valid_sequences)
from .constructions import (check_saturated_upto, coverable_automaton, poset_complement,
                            reduced_automaton, transitive_reduce_automaton,
                            universal_automaton)
from .mso import (evaluate_dag, evaluate_po, expand_builtins, parse, to_graph_formula,
                  to_text)
from .compiler import compile_formula, po_automaton
from .ptnet import (Place, ProcessNet, PtNet, causal_orders, check_bounded, enabled,
                    executions, fire, occurrence_sequences, processes)
from .netaut import net_automaton
from .synthesis import (ProofLog, SynthesisSpec, VerificationReport, candidate_places,
                        feasible_place, repair, safest_subsystem, separate,
                        synth_from_contract, synth_from_mso, synthesize, verify)
