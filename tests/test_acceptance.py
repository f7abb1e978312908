"""Acceptance criteria, one test per criterion.

Every expected count below is derived from the brute-force oracle inside
the test itself before being compared; the few fixed numbers (e.g. 24 for
the 4-leaf star) are additionally asserted so that a silent oracle
regression cannot weaken the suite.  Each test prints one pass line; a
failed assert surfaces as the criterion's fail line via pytest.
"""

import itertools
import math
import time
from fractions import Fraction

from autgrammar.annotate import (
    build_aut_grammar,
    build_embedded_group_grammar,
    build_regular_aut_grammar,
    count_assignments,
)
from autgrammar.decomp import (
    compute_path_decomposition,
    compute_tree_decomposition,
    make_permutation_yielding,
    validate_tree_decomposition,
)
from autgrammar.grammar import (
    Grammar,
    count_parse_trees,
    enumerate_language,
    enumerate_parse_trees,
    grammar_size,
    group_from_subgroup,
    is_regular,
    parse_tree_yield,
    permutation_from_aligned_word,
    rename_terminals,
)
from autgrammar.oracle import brute_force_automorphisms, left_transversal
from autgrammar.perm import Permutation, permute_word, to_string_word
from autgrammar.polytope import (
    build_extended_formulation,
    check_projection_feasibility,
    lift_parse_tree,
    project_point,
)
from conftest import evaluate_point

EXPECTED_LANGUAGE_SIZES = {
    "P3": 2,
    "P4": 2,
    "C4": 8,
    "C5": 10,
    "C6": 12,
    "K4": 24,
    "star5": 24,
    "Q3": 48,
}


def pipeline(g):
    t0 = compute_tree_decomposition(g, "min-fill")
    t, y = make_permutation_yielding(g, t0)
    alpha, gr = build_aut_grammar(g, t)
    return t, alpha, gr


def test_c1_oracle_language_equality(corpus):
    start = time.monotonic()
    for name, g in corpus.items():
        auts = brute_force_automorphisms(g)
        _, alpha, gr = pipeline(g)
        words = list(enumerate_language(gr).words)
        expected = sorted(permute_word(to_string_word(s), alpha) for s in auts)
        assert words == expected, f"{name}: language differs from oracle"
        assert len(words) == EXPECTED_LANGUAGE_SIZES[name], name
    elapsed = time.monotonic() - start
    assert elapsed < 60, f"C1 exceeded budget: {elapsed:.1f}s"
    print(f"\nC1 oracle language equality: PASS ({elapsed:.1f}s)")


def test_c2_unambiguity(corpus):
    start = time.monotonic()
    for name, g in corpus.items():
        _, _, gr = pipeline(g)
        n_words = len(enumerate_language(gr).words)
        assert count_parse_trees(gr) == n_words, name
    elapsed = time.monotonic() - start
    assert elapsed < 10, f"C2 exceeded budget: {elapsed:.1f}s"
    print(f"\nC2 unambiguity: PASS ({elapsed:.1f}s)")


def test_c3_annotation_bijection(p3, p4, c4, k4):
    start = time.monotonic()
    for name, g in (("P3", p3), ("P4", p4), ("C4", c4), ("K4", k4)):
        t, _, _ = pipeline(g)
        assert count_assignments(g, t) == len(brute_force_automorphisms(g)), name
    elapsed = time.monotonic() - start
    assert elapsed < 30, f"C3 exceeded budget: {elapsed:.1f}s"
    print(f"\nC3 annotation bijection: PASS ({elapsed:.1f}s)")


def test_c4_yielding_transform(corpus):
    start = time.monotonic()
    for name, g in corpus.items():
        t0 = compute_tree_decomposition(g, "min-fill")
        t, y = make_permutation_yielding(g, t0)
        report = validate_tree_decomposition(g, t)
        assert report.ok, name
        assert t.width == t0.width, name
        leaves = t.leaves()
        assert len(leaves) == g.vertex_count, name
        assert sorted(t.bag(p)[0] for p in leaves) == list(g.vertices), name
    elapsed = time.monotonic() - start
    assert elapsed < 5, f"C4 exceeded budget: {elapsed:.1f}s"
    print(f"\nC4 yielding transform: PASS ({elapsed:.1f}s)")


def test_c5_embedding_and_cosets(star5, c4):
    s4 = tuple(
        sorted(Permutation(img) for img in itertools.permutations(range(1, 5)))
    )
    alpha, gr = build_embedded_group_grammar(star5, 4)
    words = enumerate_language(gr).words
    assert len(words) == 24
    perms = sorted(permutation_from_aligned_word(w, alpha) for w in words)
    assert perms == list(s4)

    aut_c4 = brute_force_automorphisms(c4)
    alpha_h, grH = pipeline(c4)[1:]
    reps = left_transversal(s4, aut_c4)
    assert len(reps) == 24 // len(aut_c4) == 3
    full = group_from_subgroup(grH, reps)
    words = enumerate_language(full).words
    assert len(words) == 24
    assert count_parse_trees(full) == 24
    expected = sorted(permute_word(to_string_word(s), alpha_h) for s in s4)
    assert list(words) == expected
    print("\nC5 embedding and cosets: PASS")


def test_c6_polytope(c4):
    start = time.monotonic()
    _, alpha, gr = pipeline(c4)
    ef = build_extended_formulation(gr)
    trees = enumerate_parse_trees(gr)
    assert len(trees) == 8
    for t in trees:
        point = lift_parse_tree(ef, t)
        assert evaluate_point(ef, point)
        w = parse_tree_yield(gr, t)
        assert project_point(ef, point) == tuple(Fraction(s) for s in w.symbols)
    auts = set(brute_force_automorphisms(c4))
    feasible = 0
    for img in itertools.permutations(range(1, 5)):
        sigma = Permutation(img)
        x = permute_word(to_string_word(sigma), alpha).symbols
        verdict = check_projection_feasibility(ef, x)
        assert verdict == (sigma in auts), img
        feasible += verdict
    assert feasible == 8
    elapsed = time.monotonic() - start
    assert elapsed < 60, f"C6 exceeded budget: {elapsed:.1f}s"
    print(f"\nC6 polytope: PASS (8 feasible, 16 infeasible, {elapsed:.1f}s)")


def test_c7_regular_variant(p4, c4):
    for name, g in (("P4", p4), ("C4", c4)):
        pd = compute_path_decomposition(g)
        alpha_r, gr_r = build_regular_aut_grammar(g, pd)
        assert is_regular(gr_r), name
        _, alpha_t, gr_t = pipeline(g)
        reg = sorted(
            permutation_from_aligned_word(w, alpha_r)
            for w in enumerate_language(gr_r).words
        )
        tree = sorted(
            permutation_from_aligned_word(w, alpha_t)
            for w in enumerate_language(gr_t).words
        )
        assert reg == tree, name
    print("\nC7 regular variant: PASS")


def test_c8_size_formula(p3):
    toy = Grammar(2, "B1", ("B1",), (("B1", (1,)), ("B1", (2,))))
    assert abs(grammar_size(toy).value - 4 * math.log2(3)) < 1e-12
    _, gr = pipeline(p3)[1:]
    renamed = rename_terminals(gr, Permutation((2, 1, 3)))
    assert grammar_size(renamed).value == grammar_size(gr).value
    print("\nC8 size formula: PASS")


def test_c9_petersen_stretch(petersen):
    start = time.monotonic()
    auts = brute_force_automorphisms(petersen)
    assert len(auts) == 120
    _, alpha, gr = pipeline(petersen)
    words = list(enumerate_language(gr).words)
    expected = sorted(permute_word(to_string_word(s), alpha) for s in auts)
    assert words == expected
    elapsed = time.monotonic() - start
    note = "within budget" if elapsed < 300 else "OVER BUDGET (performance note)"
    print(f"\nC9 Petersen stretch: PASS ({elapsed:.1f}s, {note})")
