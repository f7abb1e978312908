"""
Tree decompositions and the permutation-yielding transform
==========================================================

Build tree decompositions (heuristically or exactly), validate the three
axioms, exchange them in PACE .td text, and rebuild any decomposition so
that each vertex lands in exactly one singleton leaf bag.  The left-to-right
leaf order of that rebuilt decomposition is what later aligns grammar words
with automorphisms.
"""

from autgrammar.decomp import (
    compute_path_decomposition,
    compute_tree_decomposition,
    make_permutation_yielding,
    read_pace_td,
    validate_tree_decomposition,
    write_pace_td,
)
from autgrammar.graph import parse_graph
from autgrammar.perm import format_permutation

c4 = parse_graph("4 4\n1 2\n2 3\n3 4\n1 4")

# min-fill heuristic; cycles have treewidth 2 and the heuristic finds it
t = compute_tree_decomposition(c4, "min-fill")
print("min-fill bags:", t.bags)
print("width:", t.width, "valid:", validate_tree_decomposition(c4, t).ok)

# the exact strategy searches all elimination orderings (small graphs only)
exact = compute_tree_decomposition(c4, "exact-small")
print("exact width:", exact.width)

# PACE .td text round-trips
text = write_pace_td(t, c4.vertex_count)
print("\nPACE format:")
print(text)
assert read_pace_td(text) == t

# rebuild so every vertex is a singleton leaf; the yield spells out alpha
ty, alpha = make_permutation_yielding(c4, t)
print("leaf bags in order:", [ty.bag(p) for p in ty.leaves()])
print("alpha:", format_permutation(alpha))
print("width preserved:", ty.width == t.width)

# path decompositions introduce one vertex per bag and support the regular
# grammar construction
pd = compute_path_decomposition(c4)
print("\npath decomposition bags:", [pd.bag(p) for p in pd.positions])
print("pathwidth found:", pd.width)
