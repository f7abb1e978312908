"""
Compiling an automorphism group into a context-free grammar
===========================================================

Variables of the grammar are (position, annotated bag) pairs over the
inner positions of a permutation-yielding tree decomposition; an annotated
bag carries a partial automorphism on the bag's closed neighborhood, rules
connect annotations that agree wherever their domains overlap, and each
leaf's vertex image is a terminal in its parent's rules.  Accepting parse
trees correspond one-to-one with automorphisms, and word position i holds
the image of vertex alpha(i).
"""

from autgrammar.annotate import build_aut_grammar
from autgrammar.decomp import compute_tree_decomposition, make_permutation_yielding
from autgrammar.grammar import (
    count_parse_trees,
    enumerate_language,
    grammar_size,
    membership,
    permutation_from_aligned_word,
)
from autgrammar.graph import parse_graph
from autgrammar.oracle import brute_force_automorphisms
from autgrammar.perm import Word, format_permutation, format_word

c4 = parse_graph("4 4\n1 2\n2 3\n3 4\n1 4")
t, _ = make_permutation_yielding(c4, compute_tree_decomposition(c4))
alpha, gr = build_aut_grammar(c4, t)

size = grammar_size(gr)
print(f"grammar: {len(gr.rules)} rules, {len(gr.variables)} variables, "
      f"size {size.value:.1f} bits")
print("alpha:", format_permutation(alpha))

words = enumerate_language(gr).words
print(f"\nlanguage ({len(words)} words):")
for w in words:
    sigma = permutation_from_aligned_word(w, alpha)
    print(f"  {format_word(w)}   <->  automorphism {format_permutation(sigma)}")

# one parse tree per word: the grammar is unambiguous
print("\nparse trees:", count_parse_trees(gr), "==", len(words))

# membership is a dynamic program, no enumeration needed
print("member 2 3 4 1:", membership(gr, Word((2, 3, 4, 1))))
print("member 2 1 3 4:", membership(gr, Word((2, 1, 3, 4))))

# cross-check against the oracle
auts = brute_force_automorphisms(c4)
pulled = sorted(permutation_from_aligned_word(w, alpha) for w in words)
print("matches brute force:", pulled == list(auts))
