"""
From grammar to polytope: exact LP feasibility
==============================================

The rule-flow extended formulation puts one [0,1] variable on every rule,
one unit of flow out of the start variable, and conservation everywhere
else.  Parse trees are exactly the integral flows, and the projection
x_i = sum(symbol * flow) maps the polytope onto the convex hull of the
word vectors.  Membership of a fixed point is decided exactly by column
generation over words: a master LP asks whether the point is a convex
combination of words, and each round a max-plus pass over the grammar
prices every word at once.
"""

import itertools
from fractions import Fraction

from autgrammar.annotate import build_aut_grammar
from autgrammar.decomp import compute_tree_decomposition, make_permutation_yielding
from autgrammar.grammar import enumerate_parse_trees, parse_tree_yield
from autgrammar.graph import parse_graph
from autgrammar.oracle import brute_force_automorphisms
from autgrammar.perm import Permutation, permute_word, to_string_word
from autgrammar.polytope import (
    build_extended_formulation,
    check_projection_feasibility,
    emit_lp,
    lift_parse_tree,
    project_point,
)

c4 = parse_graph("4 4\n1 2\n2 3\n3 4\n1 4")
t, _ = make_permutation_yielding(c4, compute_tree_decomposition(c4))
alpha, gr = build_aut_grammar(c4, t)
ef = build_extended_formulation(gr)
print(f"extended formulation: {len(ef.flow_vars)} flow variables, "
      f"{ef.num_constraints} constraints")

# each parse tree lifts to a feasible 0/1 point projecting to its word
tree = enumerate_parse_trees(gr)[0]
point = lift_parse_tree(ef, tree)
print("first tree yields", parse_tree_yield(gr, tree).symbols,
      "projection", project_point(ef, point))

# the feasibility verdict agrees with group membership on all of S4
auts = set(brute_force_automorphisms(c4))
feasible = []
for img in itertools.permutations(range(1, 5)):
    sigma = Permutation(img)
    x = permute_word(to_string_word(sigma), alpha).symbols
    if check_projection_feasibility(ef, x):
        feasible.append(img)
        assert sigma in auts
print(f"\nfeasible permutation vectors: {len(feasible)} of 24 (= |Aut(C4)|)")

# rational interior points work too: the midpoint of two vertices
w1, w2 = sorted(auts)[0].image, sorted(auts)[1].image
mid = [Fraction(a + b, 2) for a, b in zip(w1, w2)]
print("midpoint", mid, "feasible:", check_projection_feasibility(ef, mid))

# the whole system exports as CPLEX LP text
print("\nLP text (first lines):")
print("\n".join(emit_lp(ef).split("\n")[:6]))
