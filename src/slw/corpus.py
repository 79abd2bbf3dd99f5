"""The fixed formula corpus used by the acceptance suite and the demos.

`ORDER_CORPUS` and `GRAPH_CORPUS` map a name to formula text. The helper
macros (minimal element, covering pair, parity via an alternating set) are
spelled out in the concrete syntax so the corpus exercises the parser too.
"""

_COVER = "(x<y & !(EX z. (x<z & z<y)))"
_MIN_X = "(!(EX z. z<x))"
_MAX_X = "(!(EX z. x<z))"

TOTAL_ORDER = "ALL x. ALL y. (x<y | y<x | x=y)"

SOME_INCOMPARABLE = "EX x. EX y. (!(x<y) & !(y<x) & !(x=y))"

A_ANTICHAIN_PAIR = "EX x. EX y. (l(x,a) & l(y,a) & !(x<y) & !(y<x) & !(x=y))"

# Even length of a chain: a set holding exactly the odd positions must exist
# and exclude the maximum. Meaningful on total orders.
EVEN_CHAIN = (
    f"{TOTAL_ORDER} & (EX P. ("
    f"(ALL x. ({_MIN_X} -> x in P))"
    f" & (ALL x. ALL y. ({_COVER} -> ((x in P -> !(y in P)) & (!(x in P) -> y in P))))"
    f" & (ALL x. ({_MAX_X} -> !(x in P)))))"
)

ODD_CHAIN = (
    f"{TOTAL_ORDER} & (EX P. ("
    f"(ALL x. ({_MIN_X} -> x in P))"
    f" & (ALL x. ALL y. ({_COVER} -> ((x in P -> !(y in P)) & (!(x in P) -> y in P))))"
    f" & (ALL x. ({_MAX_X} -> x in P))))"
)

# Chains alternating a and b, starting with a.
ALTERNATING_AB = (
    f"{TOTAL_ORDER}"
    f" & (ALL x. ({_MIN_X} -> l(x,a)))"
    f" & (ALL x. ALL y. ({_COVER} -> ((l(x,a) & l(y,b)) | (l(x,b) & l(y,a)))))"
)

# Two consecutive a's somewhere along a chain.
CONSECUTIVE_AA = f"{TOTAL_ORDER} & (EX x. EX y. ({_COVER} & l(x,a) & l(y,a)))"

# Covering-relation pattern on Hasse diagrams: every edge leaving an a enters a b.
EDGES_A_TO_B = "ALL y:e. ALL x. ALL z. ((s(y,x) & t(y,z) & l(x,a)) -> l(z,b))"

SOME_EDGE = "EX y:e. EX x1. EX x2. (s(y,x1) & t(y,x2))"

# Path shape: some path from an a-labeled vertex to a b-labeled vertex.
A_PATH_TO_B = "EX x1. EX x2. EX P. EX Q:e. (l(x1,a) & l(x2,b) & path(x1,P,Q,x2))"

RHO = "rho"
GAMMA_1 = "gamma(1)"
GAMMA_2 = "gamma(2)"


ORDER_CORPUS: dict[str, str] = {
    "total-order": TOTAL_ORDER,
    "some-incomparable": SOME_INCOMPARABLE,
    "a-antichain-pair": A_ANTICHAIN_PAIR,
    "even-chain": EVEN_CHAIN,
    "odd-chain": ODD_CHAIN,
    "alternating-ab": ALTERNATING_AB,
    "consecutive-aa": CONSECUTIVE_AA,
}

GRAPH_CORPUS: dict[str, str] = {
    "edges-a-to-b": EDGES_A_TO_B,
    "some-edge": SOME_EDGE,
    "a-path-to-b": A_PATH_TO_B,
    "reduced": RHO,
    "coverable-1": GAMMA_1,
    "coverable-2": GAMMA_2,
}

