"""Slices: width-bounded DAG fragments, gluing, and unit decompositions.

A slice has numbered in-ports and out-ports; gluing fuses the edge entering
out-port k with the edge leaving in-port k. A DAG is cut into a sequence of
unit slices (one center vertex each) along a topological ordering, and the
sequence's width is the largest frontier it ever carries. A unit slice is
built from its center's label, its two port counts and its bypass map, the
in-ports whose edge crosses to an out-port; every other port's edge meets
the center.
"""

from slw import LabeledDag, UnitDecomposition, compose, to_literal, unit_alphabet
from slw import Slice, unit_decompositions

# Two letters glued into the two-vertex chain a -> b.
first = Slice("a", 0, 1)
second = Slice("b", 1, 0)
print("letters:", to_literal(first), "+", to_literal(second))
# A letter whose in-port 1 bypasses its center to out-port 2.
print("bypassing letter:", to_literal(Slice("a", 1, 2, {1: 2})))
print("composed DAG:", compose(UnitDecomposition([first, second])))
print()

# The alphabet grows quickly with the width bound.
for c in (1, 2):
    print(f"unit alphabet width<={c}, one label:", len(unit_alphabet(c, ("t",))), "letters")
print()

# Every decomposition of the diamond uses width 2: the two middle vertices
# are incomparable, so some frontier must carry two open edges.
diamond = LabeledDag({0: "t", 1: "t", 2: "t", 3: "t"},
                     [(0, 1), (0, 2), (1, 3), (2, 3)])
count, paths = diamond.min_path_cover()
print("diamond min path cover:", count, "->", paths)
decs = unit_decompositions(diamond, 2)
print("diamond decompositions at width 2:", len(decs))
print("their widths:", sorted({u.width() for u in decs}))
print("one of them:")
for s in decs[0]:
    print("  ", to_literal(s))
