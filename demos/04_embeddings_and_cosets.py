"""
Embedded groups, cosets, and building up from a subgroup
========================================================

A group sitting on the first n vertices of a larger connected graph is
compiled by erasing the other vertices out of the host graph's
automorphism grammar; left cosets come from renaming terminals, and a
whole group can be assembled as a union of coset grammars over a
transversal of a subgroup.
"""

import itertools

from autgrammar.annotate import build_aut_grammar, build_embedded_group_grammar
from autgrammar.decomp import compute_tree_decomposition, make_permutation_yielding
from autgrammar.grammar import (
    GrammarError,
    count_parse_trees,
    enumerate_language,
    grammar_size,
    group_from_subgroup,
    rename_terminals,
)
from autgrammar.graph import parse_graph
from autgrammar.oracle import brute_force_automorphisms, group_index, left_transversal
from autgrammar.perm import Permutation, format_permutation

# S4 embedded in the 4-leaf star: the center is fixed, leaves move freely
star = parse_graph("5 4\n1 5\n2 5\n3 5\n4 5")
alpha, gr = build_embedded_group_grammar(star, 4)
print("star embedding: language size", len(enumerate_language(gr).words), "= 4! = 24")

# past the brute-force oracle's 10 vertices: Aut(btree3) sits on the 15
# internal vertices of the depth-4 binary tree (31 vertices).  The builder
# reads invariance off the host's grammar, so no oracle runs; the words
# are the restricted group, the parse trees one per host automorphism
btree4 = parse_graph("31 30\n" + "\n".join(f"{v // 2} {v}" for v in range(2, 32)))
_, internal = build_embedded_group_grammar(btree4, 15)
print("btree4 on its internal vertices: language size", len(enumerate_language(internal).words),
      "= |Aut(btree3)| = 2^7; parse trees", count_parse_trees(internal), "= |Aut(btree4)| = 2^15")
try:  # 1..16 takes in a leaf, which the swap at the root moves to 24
    build_embedded_group_grammar(btree4, 16)
except GrammarError as e:
    print("refused:", e)

# a coset: compose every group element with a fixed representative
beta = Permutation((2, 1, 3, 4))
coset = rename_terminals(gr, beta)
print("coset grammar language size:", len(enumerate_language(coset).words))
print("renaming preserves size exactly:",
      grammar_size(coset).value == grammar_size(gr).value)

# rebuild S4 from the subgroup Aut(C4) and a left transversal
c4 = parse_graph("4 4\n1 2\n2 3\n3 4\n1 4")
aut_c4 = brute_force_automorphisms(c4)
s4 = tuple(sorted(Permutation(p) for p in itertools.permutations(range(1, 5))))
print("\nindex of Aut(C4) in S4:", group_index(s4, aut_c4))
reps = left_transversal(s4, aut_c4)
print("transversal:", [format_permutation(r) for r in reps])

t, _ = make_permutation_yielding(c4, compute_tree_decomposition(c4))
_, grH = build_aut_grammar(c4, t)
full = group_from_subgroup(grH, reps)
print("union grammar language size:", len(enumerate_language(full).words))
print("parse trees (one per element):", count_parse_trees(full))
