import collections
import gc
import itertools
import json
import math
import random
import sys
import time
import tracemalloc

import pytest

from autgrammar.annotate import (
    AnnotatedBag,
    _build,
    _share,
    _spelled,
    build_aut_grammar,
    build_embedded_group_grammar,
    build_regular_aut_grammar,
    count_assignments,
    join_annotations,
)
from autgrammar.decomp import (
    DecompositionError,
    TreeDecomposition,
    compute_path_decomposition,
    compute_tree_decomposition,
    introduced_order,
    make_permutation_yielding,
    yield_order_of,
)
from autgrammar.graph import DisconnectedGraphError, Graph
from autgrammar.grammar import (
    CyclicGrammarError,
    Grammar,
    GrammarError,
    ParseTree,
    count_parse_trees,
    enumerate_language,
    enumerate_parse_trees,
    erase_terminals,
    grammar_from_json,
    grammar_size,
    grammar_to_json,
    group_from_subgroup,
    is_regular,
    iter_language,
    membership,
    parse_tree_yield,
    permutation_from_aligned_word,
    rename_terminals,
    trim,
    union_grammar,
)
from autgrammar.grammar import _compiled, _grammar, _writes
from autgrammar.oracle import brute_force_automorphisms, left_transversal
from autgrammar.perm import (
    Permutation,
    Word,
    compose,
    identity,
    inverse,
    permute_word,
    to_string_word,
)
from autgrammar.polytope import (
    build_extended_formulation,
    check_lp_feasibility,
    check_projection_feasibility,
    emit_lp,
    lift_parse_tree,
    parse_lp,
)
from conftest import (
    binary_tree,
    check_every_maker,
    check_full_check,
    complete_graph,
    consistent_bags,
    cube_graph,
    cubic8,
    cycle_graph,
    format_graph,
    grid_graph,
    inline_single_use,
    json_reference,
    oracle_annotations,
    path_graph,
    petersen_graph,
    random_connected_graph,
    reference_language,
    relabel,
    spider,
    star_graph,
    tree_grammar_stages,
)


def aut_grammar(g):
    t0 = compute_tree_decomposition(g, "min-fill")
    t, _ = make_permutation_yielding(g, t0)
    return build_aut_grammar(g, t)


def oracle_language(g, alpha):
    return sorted(
        permute_word(to_string_word(s), alpha) for s in brute_force_automorphisms(g)
    )


def test_language_matches_oracle(p3, p4, c4, star5):
    for g in (p3, p4, c4, star5):
        alpha, gr = aut_grammar(g)
        assert list(enumerate_language(gr).words) == oracle_language(g, alpha)


def test_language_counts(c4, p4, star5):
    assert len(enumerate_language(aut_grammar(c4)[1]).words) == 8
    assert len(enumerate_language(aut_grammar(p4)[1]).words) == 2
    assert len(enumerate_language(aut_grammar(star5)[1]).words) == 24


def test_nontrivial_alignment(p3):
    # handcrafted decomposition whose leaves read 3, 1, 2
    t = TreeDecomposition(
        {(): (1, 2), (1,): (2, 3), (1, 1): (3,), (2,): (1,), (3,): (2,)}
    )
    alpha, gr = build_aut_grammar(p3, t)
    assert alpha == Permutation((3, 1, 2))
    assert list(enumerate_language(gr).words) == oracle_language(p3, alpha)


def test_rejects_disconnected():
    g = Graph(2, [])
    t = TreeDecomposition({(): (1,), (1,): (2,)})
    with pytest.raises(DisconnectedGraphError):
        build_aut_grammar(g, t)


def test_rejects_non_yielding(p3):
    # a valid decomposition whose leaf holds two vertices, and one whose
    # one leaf is a singleton but yields 1..1 of 1..3
    t = TreeDecomposition({(): (1, 2), (1,): (2, 3)})
    with pytest.raises(DecompositionError, match="is not a singleton"):
        build_aut_grammar(p3, t)
    t = TreeDecomposition({(): (1, 2, 3), (1,): (1,)})
    with pytest.raises(DecompositionError, match="^decomposition is not permutation yielding$"):
        build_aut_grammar(p3, t)


def test_pullback_is_a_group(c4, q3):
    for g in (c4, q3):
        alpha, gr = aut_grammar(g)
        perms = {
            permutation_from_aligned_word(w, alpha)
            for w in enumerate_language(gr).words
        }
        assert identity(g.vertex_count) in perms
        for a in perms:
            assert inverse(a) in perms
            for b in perms:
                assert compose(a, b) in perms


def test_unambiguous(corpus):
    for name, g in corpus.items():
        _, gr = aut_grammar(g)
        assert count_parse_trees(gr) == len(enumerate_language(gr).words), name


def test_grammar_size_formula():
    toy = Grammar(2, "B1", ("B1",), (("B1", (1,)), ("B1", (2,))))
    size = grammar_size(toy)
    assert size.rule_symbols == 4
    assert size.symbol_space == 3
    assert abs(size.value - 4 * math.log2(3)) < 1e-12
    empty = Grammar(2, "B1", ("B1",), ())
    assert grammar_size(empty).value == 0.0
    single = Grammar(2, "B1", ("B1",), (("B1", (1, 2)),))
    assert abs(grammar_size(single).value - 3 * math.log2(3)) < 1e-12


def test_enumerate_duplicate_rules():
    dup = Grammar(1, "B1", ("B1",), (("B1", (1,)), ("B1", (1,))))
    assert [w.symbols for w in enumerate_language(dup).words] == [(1,)]
    assert count_parse_trees(dup) == 2


def test_enumerate_cap():
    gr = Grammar(3, "B1", ("B1",), tuple(("B1", (i,)) for i in (1, 2, 3)))
    res = enumerate_language(gr, cap=2)
    assert res.truncated
    assert [w.symbols for w in res.words] == [(1,), (2,)]
    assert enumerate_language(gr, cap=0) == ((), True)
    with pytest.raises(GrammarError):
        enumerate_language(gr, cap=-1)


def test_enumerate_cap_past_maxsize():
    # a cap no listed language can reach means no cap
    gr = Grammar(3, "B1", ("B1",), tuple(("B1", (i,)) for i in (1, 2, 3)))
    every = (tuple(Word((i,)) for i in (1, 2, 3)), False)
    for cap in (sys.maxsize, 10**20):
        assert enumerate_language(gr, cap) == every


def test_enumerate_cap_bounds_memory():
    # btree4's 32 768 words: the first two must not cost the whole
    # language, which took about 35 MB when every variable's words were
    # built first
    _, gr = aut_grammar(binary_tree(4))
    tracemalloc.start()
    try:
        res = enumerate_language(gr, cap=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5_000_000, peak
    reference = reference_language(gr)
    assert len(reference) == 32768
    assert res == (tuple(Word(w) for w in reference[:2]), True)
    assert list(iter_language(gr)) == reference


def test_enumerate_rejects_cyclic():
    cyc = Grammar(1, "B1", ("B1",), (("B1", (1, "B1")), ("B1", (1,))))
    analytics = (
        enumerate_language,
        iter_language,
        count_parse_trees,
        enumerate_parse_trees,
        lambda gr: membership(gr, Word((1, 1))),
        trim,
        lambda gr: erase_terminals(gr, 1),
        build_extended_formulation,
    )
    for analytic in analytics:
        with pytest.raises(CyclicGrammarError):
            analytic(cyc)


def test_topological_order_follows_first_appearance():
    gr = Grammar(2, "B1", ("B1", "A", "C"), (("B1", ("C", "A", "C")), ("B1", ("A",)), ("C", (2,)), ("A", (1,))))
    assert [gr.variables[v] for v in _compiled(gr).order] == ["C", "A", "B1"]
    gr = Grammar(1, "B1", ("B1", "A", "C"), (("B1", ("C", "C")), ("C", ("A",)), ("A", ("C",))))
    with pytest.raises(CyclicGrammarError, match="'C' depends on itself"):
        _compiled(gr)


def test_grammar_is_an_immutable_value():
    rules = (("B1", (1, "A")), ("A", (2,)))
    gr = Grammar(2, "B1", ("B1", "A"), rules)
    for field in ("sigma_max", "start", "variables", "rules", "accepts_empty", "other"):
        with pytest.raises(AttributeError):
            setattr(gr, field, None)
    assert gr == Grammar(2, "B1", ("B1", "A"), rules, False)
    assert gr != Grammar(2, "B1", ("B1", "A"), rules, True)
    assert hash(gr) == hash((2, "B1", ("B1", "A"), rules, False))
    assert repr(gr) == (
        "Grammar(sigma_max=2, start='B1', variables=('B1', 'A'), "
        "rules=(('B1', (1, 'A')), ('A', (2,))), accepts_empty=False)"
    )
    assert enumerate_parse_trees(gr) == [ParseTree(0, (ParseTree(1, ()),))]
    assert repr(ParseTree(1, ())) == "ParseTree(rule_index=1, children=())"


def test_lists_read_as_tuples():
    # a grammar given lists where tuples belong holds tuples: it hashes,
    # and it equals its tuple twin
    listed = Grammar(2, "B1", ["B1", "A"], [("B1", [1, "A"]), ["A", (2,)]])
    twin = Grammar(2, "B1", ("B1", "A"), (("B1", (1, "A")), ("A", (2,))))
    assert listed == twin and hash(listed) == hash(twin) and repr(listed) == repr(twin)
    assert listed.variables == ("B1", "A") and listed.rules == (("B1", (1, "A")), ("A", (2,)))


def test_compiled_table_is_invisible():
    # the read side's table, once built and cached, changes nothing a
    # caller sees of the grammar: equality, hash, repr, pickle, immutability
    import copy
    import pickle

    rules = (("B1", (1, "A")), ("B1", ("A", 2)), ("A", (2,)), ("A", (1,)))
    gr, twin = (Grammar(2, "B1", ("B1", "A"), rules) for _ in range(2))
    before = (repr(gr), hash(gr), pickle.dumps(gr))
    assert count_parse_trees(gr) == 4
    assert hasattr(gr, "_table") and not hasattr(twin, "_table")
    assert gr == twin and twin == gr
    assert (repr(gr), hash(gr), pickle.dumps(gr)) == before
    for back in (pickle.loads(pickle.dumps(gr)), copy.copy(gr), copy.deepcopy(gr)):
        assert back == gr and not hasattr(back, "_table")
        assert count_parse_trees(back) == 4
    for field in ("rules", "_table", "other"):
        with pytest.raises(AttributeError, match="Grammar is immutable"):
            setattr(gr, field, None)
    assert count_parse_trees(gr) == 4
    # so is the table the tree builder compiles, on its own order, as it
    # makes its grammar
    built = aut_grammar(binary_tree(2))[1]
    plain = Grammar(built.sigma_max, built.start, built.variables, built.rules)
    assert hasattr(built, "_table") and not hasattr(plain, "_table")
    assert built == plain and hash(built) == hash(plain) and repr(built) == repr(plain)
    assert pickle.dumps(built) == pickle.dumps(plain)
    back = pickle.loads(pickle.dumps(built))
    assert back == built and not hasattr(back, "_table")
    assert count_parse_trees(built) == count_parse_trees(back) == 8


def test_tree_builder_hands_over_its_table(corpus):
    # the builders and transforms make their grammars without the public
    # constructor's check, and with the builder's order: each passes it
    rng = random.Random(17)
    graphs = [*corpus.values(), path_graph(12), cycle_graph(12), grid_graph(3, 3),
              binary_tree(3), spider(3, 2)]
    for g in graphs:
        for h in (g, relabel(g, rng)):
            regular = build_regular_aut_grammar(h, compute_path_decomposition(h))[1]
            check_every_maker(h, aut_grammar(h)[1], regular)
    # where a class has several partners at a child, the writer takes each
    # class's product: spider 5x4 and a relabelled btree4.  Every child of
    # K6 is pinned.  The regular builder runs up to 10 vertices: above, the
    # path layout is the identity and its grammar slow to build
    for h in (complete_graph(6), spider(5, 4), relabel(binary_tree(4), rng)):
        built = [aut_grammar(h)[1]]
        if h.vertex_count <= 10:
            built.append(build_regular_aut_grammar(h, compute_path_decomposition(h))[1])
        check_every_maker(h, *built)


def test_rules_out_of_lhs_order():
    # the table lists each variable's rules together; a grammar whose rules
    # interleave their left-hand sides reads the same as its grouped twin
    rules = (("A", (2, "C")), ("B1", ("A", 1)), ("C", (3,)), ("B1", (1, "A")), ("A", ("C", 2)))
    gr = Grammar(3, "B1", ("B1", "A", "C"), rules)
    order = sorted(range(len(rules)), key=lambda r: gr.variables.index(rules[r][0]))
    grouped = Grammar(3, "B1", gr.variables, tuple(rules[r] for r in order))
    assert count_parse_trees(gr) == count_parse_trees(grouped) == 4
    assert list(iter_language(gr)) == list(iter_language(grouped)) == reference_language(gr)
    assert [gr.variables[v] for v in _compiled(gr).order] == ["C", "A", "B1"]
    assert trim(gr) == gr
    trees = enumerate_parse_trees(gr)
    assert [t.rule_index for t in trees] == [1, 1, 3, 3]
    assert sorted(parse_tree_yield(gr, t).symbols for t in trees) == reference_language(gr)


def chain_grammar(depth):
    """A_i -> (i+1) A_{i+1}, ending in A_{depth-1} -> depth: one word, 1..depth."""
    names = tuple(f"A{i}" for i in range(depth))
    rules = tuple((names[i], (i + 1, names[i + 1])) for i in range(depth - 1))
    return Grammar(depth, names[0], names, rules + ((names[-1], (depth,)),))


def test_deep_chain_grammar():
    # deeper than Python's default recursion limit of 1000
    depth = 3000
    gr = chain_grammar(depth)
    word = Word(tuple(range(1, depth + 1)))
    assert count_parse_trees(gr) == 1
    assert enumerate_language(gr).words == (word,)
    assert membership(gr, word)
    assert not membership(gr, Word(word.symbols[:-1]))
    (tree,) = enumerate_parse_trees(gr)
    assert parse_tree_yield(gr, tree) == word
    assert trim(gr) == gr
    # rules listed deepest first: reachability must not take one sweep per level
    reversed_rules = Grammar(gr.sigma_max, gr.start, gr.variables, gr.rules[::-1])
    assert trim(reversed_rules) == reversed_rules
    ef = build_extended_formulation(gr)
    assert ef.word_length == depth
    point = lift_parse_tree(ef, tree)
    assert set(point.values()) == {1}


def test_membership(c4):
    alpha, gr = aut_grammar(c4)
    words = enumerate_language(gr).words
    auts = set(brute_force_automorphisms(c4))
    rotation = Permutation((2, 3, 4, 1))
    assert rotation in auts
    assert membership(gr, permute_word(to_string_word(rotation), alpha))
    outside = Permutation((2, 1, 3, 4))
    assert outside not in auts
    assert not membership(gr, permute_word(to_string_word(outside), alpha))
    assert not membership(gr, Word((1, 2)))
    # agreement with a linear scan over every length-4 word on a sample
    for img in itertools.permutations(range(1, 5)):
        w = Word(img)
        assert membership(gr, w) == (w in words)


def test_membership_agrees_with_enumeration(corpus):
    import random

    rng = random.Random(31337)
    grammars = {name: aut_grammar(g)[1] for name, g in corpus.items()}
    # non-positional: images 1 and 2 sit at different positions per automorphism
    grammars["star5 erased to 1..2"] = erase_terminals(grammars["star5"], 2)
    # an epsilon rule derives the empty word without the accepts_empty flag
    grammars["epsilon rule"] = Grammar(1, "B1", ("B1",), (("B1", ()), ("B1", (1,))))
    for name, gr in grammars.items():
        words = set(enumerate_language(gr).words)
        assert membership(gr, Word(())) == (Word(()) in words), name
        for w in sorted(words):
            assert membership(gr, w), name
        for w in [w for w in sorted(words) if len(w) > 1][:4]:
            symbols = list(w.symbols)
            i, j = rng.sample(range(len(symbols)), 2)
            symbols[i], symbols[j] = symbols[j], symbols[i]
            mutated = Word(tuple(symbols))
            assert membership(gr, mutated) == (mutated in words), (name, mutated)


def test_rename_terminals(p3):
    alpha, gr = aut_grammar(p3)
    assert rename_terminals(gr, identity(3)).rules == gr.rules
    beta = Permutation((2, 1, 3))
    renamed = rename_terminals(gr, beta)
    expected = sorted(
        permute_word(to_string_word(compose(beta, s)), alpha)
        for s in brute_force_automorphisms(p3)
    )
    assert list(enumerate_language(renamed).words) == expected
    assert grammar_size(renamed) == grammar_size(gr)


def test_rename_undefined_terminal():
    gr = Grammar(3, "B1", ("B1",), (("B1", (3,)),))
    with pytest.raises(GrammarError):
        rename_terminals(gr, identity(2))


def test_erase_keep_all(c4):
    _, gr = aut_grammar(c4)
    erased = erase_terminals(gr, 4)
    assert erased.rules == gr.rules
    assert not erased.accepts_empty


def test_erase_star(star5):
    _, gr = aut_grammar(star5)
    erased = erase_terminals(gr, 4)
    words = enumerate_language(erased).words
    assert len(words) == 24
    assert {len(w) for w in words} == {4}
    assert all(max(w.symbols) <= 4 for w in words)
    # word count survives erasure here: the restriction to 1..4 is faithful
    assert len(enumerate_language(gr).words) == len(words)


def test_erase_above_the_alphabet_keeps_it():
    # keep past sigma_max erases nothing, and the declared alphabet does
    # not grow to 1..keep, so neither does the grammar's size
    gr = Grammar(3, "B1", ("B1", "A"), (("B1", (1, "A")), ("A", (2, 3)), ("A", (3, 2))))
    for keep in (3, 10):
        erased = erase_terminals(gr, keep)
        assert erased == gr and erased.sigma_max == 3
        assert grammar_size(erased) == grammar_size(gr)
    assert erase_terminals(gr, 2).sigma_max == 2


def test_erase_to_empty_word():
    gr = Grammar(3, "B1", ("B1",), (("B1", (3, 3)),))
    erased = erase_terminals(gr, 2)
    assert erased.accepts_empty
    assert [w.symbols for w in enumerate_language(erased).words] == [()]
    for _, rhs in erased.rules:
        assert len(rhs) > 0


def test_union_grammar():
    g1 = Grammar(3, "B1", ("B1",), (("B1", (1, 2)),))
    g2 = Grammar(3, "B1", ("B1",), (("B1", (1, 3)),))
    u = union_grammar(g1, g2)
    assert [w.symbols for w in enumerate_language(u).words] == [(1, 2), (1, 3)]
    assert count_parse_trees(u) == 2
    uu = union_grammar(u, u)
    assert [w.symbols for w in enumerate_language(uu).words] == [(1, 2), (1, 3)]
    assert count_parse_trees(uu) == 4
    with pytest.raises(GrammarError):
        union_grammar(g1, Grammar(2, "B1", ("B1",), ()))


def s4():
    return tuple(
        sorted(Permutation(img) for img in itertools.permutations(range(1, 5)))
    )


def test_group_from_subgroup(c4):
    alpha, grH = aut_grammar(c4)
    aut = brute_force_automorphisms(c4)
    reps = left_transversal(s4(), aut)
    assert len(reps) == 3
    full = group_from_subgroup(grH, reps)
    words = enumerate_language(full).words
    assert len(words) == 24
    assert count_parse_trees(full) == 24
    expected = sorted(permute_word(to_string_word(s), alpha) for s in s4())
    assert list(words) == expected


def test_group_from_subgroup_trivial(c4):
    _, grH = aut_grammar(c4)
    same = group_from_subgroup(grH, [identity(4)])
    assert enumerate_language(same).words == enumerate_language(grH).words


def test_group_from_subgroup_duplicate_warns(c4):
    _, grH = aut_grammar(c4)
    aut = brute_force_automorphisms(c4)
    dup = [identity(4), sorted(aut)[1]]  # same coset twice
    with pytest.warns(UserWarning):
        group_from_subgroup(grH, dup)


def test_embedded_full_prefix_identity(c4):
    alpha_direct, gr_direct = aut_grammar(c4)
    alpha, gr = build_embedded_group_grammar(c4, 4)
    assert alpha == alpha_direct
    assert gr.rules == gr_direct.rules
    assert gr.variables == gr_direct.variables


def test_embedded_star(star5):
    alpha, gr = build_embedded_group_grammar(star5, 4)
    words = enumerate_language(gr).words
    assert len(words) == 24
    perms = sorted(permutation_from_aligned_word(w, alpha) for w in words)
    assert perms == list(s4())


def test_embedded_star_coset(star5):
    beta = Permutation((2, 1, 3, 4))
    alpha, gr = build_embedded_group_grammar(star5, 4, beta)
    assert len(enumerate_language(gr).words) == 24  # S4 closed under renaming


def test_embedded_rejects_non_invariant(p3):
    # the witness is P3's reversal, in the one-line form `--beta` takes
    with pytest.raises(GrammarError) as caught:
        build_embedded_group_grammar(p3, 2)
    assert str(caught.value) == "prefix 1..2 not invariant under the automorphism group (witness 3 2 1)"


@pytest.mark.parametrize(
    "refused, message",
    [
        (lambda gr, c4: parse_tree_yield(gr, ParseTree(0, (ParseTree(0, ()),))), "parse tree has extra children"),
        (
            lambda gr, c4: rename_terminals(gr, Permutation((1, 2, 4, 3))),
            "renaming sends terminal 3 to 4, outside the declared alphabet",
        ),
        (lambda gr, c4: erase_terminals(gr, -1), "keep must be non-negative"),
        (lambda gr, c4: group_from_subgroup(gr, []), "transversal must be nonempty"),
        (lambda gr, c4: build_embedded_group_grammar(c4, 0), "prefix size 0 out of range 1..4"),
        (lambda gr, c4: build_embedded_group_grammar(c4, 4, identity(3)), "coset representative must permute 1..4"),
    ],
    ids=["extra-child", "rename-past-sigma-max", "erase-negative", "empty-transversal", "embed-n-0", "embed-b-size"],
)
def test_transform_refusals(c4, refused, message):
    gr = Grammar(3, "B1", ("B1",), (("B1", (3,)),))
    with pytest.raises(GrammarError) as caught:
        refused(gr, c4)
    assert str(caught.value) == message


def test_regular_grammar(p4, c4):
    for g, expect in ((p4, 2), (c4, 8)):
        pd = compute_path_decomposition(g)
        alpha, gr = build_regular_aut_grammar(g, pd)
        assert is_regular(gr)
        words = enumerate_language(gr).words
        assert len(words) == expect
        perms = sorted(permutation_from_aligned_word(w, alpha) for w in words)
        assert perms == list(brute_force_automorphisms(g))
        assert count_parse_trees(gr) == len(words)


def test_regular_single_vertex():
    g = Graph(1, [])
    pd = compute_path_decomposition(g)
    alpha, gr = build_regular_aut_grammar(g, pd)
    assert is_regular(gr)
    assert [w.symbols for w in enumerate_language(gr).words] == [(1,)]


def _tree_and_grammar(g):
    t, _ = make_permutation_yielding(g, compute_tree_decomposition(g, "min-fill"))
    return {p: t.bag(p) for p in t.positions}, build_aut_grammar(g, t)[1]


def test_single_vertex_root_writes_into_b1():
    # the root of a one-vertex graph has no children, so it has no
    # variable: it writes its image into B1's rule, its parent's, in the
    # tree grammar as in the regular grammar
    g = Graph(1, [])
    bags, gr = _tree_and_grammar(g)
    assert bags == {(): (1,)}
    regular = build_regular_aut_grammar(g, compute_path_decomposition(g))[1]
    for built in (gr, regular):
        assert built.variables == ("B1",)
        assert built.rules == (("B1", (1,)),)
        check_full_check(built)


def test_leaves_write_into_their_parents_rules():
    # Min-fill's root singleton is merged into its one child, whose bag
    # contains it.  P2: both leaves sit directly under the root.  P3: leaf
    # 1.1 is the one child of position 1, and 2 and 3 sit beside it.
    # No leaf position has a variable, and each rule writes its leaf
    # children's terminals where their variables stood.  The root's
    # classes are B1's rules, and every class below them has one rule
    # that one rule names, so it is written into that rule: each word is
    # one rule of B1.  In the 7-vertex binary tree, (1,), the position
    # with index 1 in preorder, has two classes of two rules each, so they
    # keep their variables p:1|b:0 and p:1|b:1; every other class is
    # written inline
    bags, gr = _tree_and_grammar(path_graph(2))
    assert bags == {(): (1, 2), (1,): (1,), (2,): (2,)}
    assert gr.variables == ("B1",)
    assert gr.rules == (("B1", (1, 2)), ("B1", (2, 1)))
    bags, gr = _tree_and_grammar(path_graph(3))
    assert bags == {(): (2, 3), (1,): (1, 2), (1, 1): (1,), (2,): (2,), (3,): (3,)}
    assert gr.variables == ("B1",)
    assert gr.rules == (("B1", (1, 2, 3)), ("B1", (3, 2, 1)))
    bags, gr = _tree_and_grammar(binary_tree(2))
    assert list(bags)[1] == (1,) and bags[(1,)] == (1, 3)
    assert gr.variables == ("B1", "p:1|b:0", "p:1|b:1")
    assert gr.rules == (
        ("B1", ("p:1|b:1", 4, 2, 5)), ("B1", ("p:1|b:1", 5, 2, 4)),
        ("B1", ("p:1|b:0", 6, 3, 7)), ("B1", ("p:1|b:0", 7, 3, 6)),
        ("p:1|b:0", (4, 5, 2, 1)), ("p:1|b:0", (5, 4, 2, 1)),
        ("p:1|b:1", (6, 7, 3, 1)), ("p:1|b:1", (7, 6, 3, 1)),
    )
    for g in (path_graph(2), path_graph(3), binary_tree(2)):
        alpha, gr = aut_grammar(g)
        words = oracle_language(g, alpha)
        assert list(enumerate_language(gr).words) == words
        assert count_parse_trees(gr) == len(words)


def test_tree_grammar_not_regular(c4):
    _, gr = aut_grammar(c4)
    assert not is_regular(gr)


def test_trim_removes_dead():
    gr = Grammar(
        2,
        "B1",
        ("B1", "A", "Dead", "NoRule"),
        (("B1", ("A",)), ("A", (1,)), ("Dead", (2,)), ("A", ("NoRule",))),
    )
    t = trim(gr)
    assert t.variables == ("B1", "A")
    assert t.rules == (("B1", ("A",)), ("A", (1,)))


def test_parse_trees(c4):
    alpha, gr = aut_grammar(c4)
    trees = enumerate_parse_trees(gr)
    assert len(trees) == 8
    yields = sorted(parse_tree_yield(gr, t) for t in trees)
    assert yields == list(enumerate_language(gr).words)


def test_json_round_trip(c4):
    _, gr = aut_grammar(c4)
    text = grammar_to_json(gr)
    back = grammar_from_json(text)
    assert back == gr
    assert grammar_to_json(back) == text
    # unknown keys are ignored, so files that still carry the provenance
    # copy older versions wrote load to the same grammar
    doc = json.loads(text)
    doc["provenance"] = {v: {"position": "e", "bag": [1], "phi": [[1, 1]]} for v in gr.variables}
    assert grammar_from_json(json.dumps(doc)) == gr


def test_json_writer_matches_json_dumps(corpus):
    odd = 'q"\\\n\u00e9\u03bb'  # a quote, a backslash, a newline, non-ASCII letters
    grammars = [
        Grammar(2, "S", ("S",), ()),  # no rules
        Grammar(2, "S", ("S", "A"), (("S", ()), ("S", ("A", 1)), ("A", (2, 1)))),  # an epsilon rule
        Grammar(1, "S", ("S",), (("S", (1,)),), accepts_empty=True),
        Grammar(0, "S", ("S", "T"), (("S", ("T",)), ("T", ()))),  # sigma_max 0
        Grammar(1, odd, (odd, "B\t"), ((odd, ("B\t", 1)), ("B\t", ()))),
    ]
    for g in corpus.values():
        grammars.append(aut_grammar(g)[1])
        grammars.append(build_regular_aut_grammar(g, compute_path_decomposition(g))[1])
    for gr in grammars:
        assert grammar_to_json(gr) == json_reference(gr), gr
        assert grammar_from_json(grammar_to_json(gr)) == gr


def test_grammar_holds_only_json_types():
    for bad in (
        lambda: Grammar(True, "S", ("S",), ()),
        lambda: Grammar(2.0, "S", ("S",), ()),
        lambda: Grammar(2, "S", ("S",), (("S", (True,)),)),
        lambda: Grammar(2, "S", ("S",), (("S", (1.0,)),)),
        lambda: Grammar(2, "S", ("S", 5), (("S", (1,)), (5, (2,)))),
        lambda: Grammar(2, ["S"], ("S",), ()),  # unhashable: refused, not a TypeError
    ):
        with pytest.raises(GrammarError):
            bad()
    # the flag is true or false: "yes" would not read back, and [] would
    # write as false but compare unequal to it
    for flag in ("yes", [], 1, None):
        with pytest.raises(GrammarError, match="accepts_empty must be true or false"):
            Grammar(1, "B1", ("B1",), (("B1", (1,)),), accepts_empty=flag)
    text = '{"sigma_max": 1, "start": "B1", "variables": ["B1"], "rules": [], "accepts_empty": 0}'
    with pytest.raises(GrammarError, match="^accepts_empty must be true or false, got int$"):
        grammar_from_json(text)


def test_json_bytes_pinned():
    gr = Grammar(2, "S", ("S", "A"), (("S", ("A", 2)), ("A", ())), accepts_empty=True)
    assert grammar_to_json(gr) == (
        '{\n "sigma_max": 2,\n "start": "S",\n "variables": [\n  "S",\n  "A"\n ],\n'
        ' "rules": [\n  [\n   "S",\n   [\n    "A",\n    2\n   ]\n  ],\n  [\n   "A",\n   []\n  ]\n ],\n'
        ' "accepts_empty": true\n}\n'
    )


def test_json_rejects_garbage():
    with pytest.raises(GrammarError):
        grammar_from_json("{not json")
    with pytest.raises(GrammarError):
        grammar_from_json("{}")
    # a name that is not a string, or a terminal that is not an int, is
    # refused, not read as its str(): 7 would become "7" and null "None"
    ok = {"sigma_max": 1, "start": "S", "variables": ["S"], "rules": [["S", [1]]]}
    assert grammar_from_json(json.dumps(ok)) == Grammar(1, "S", ("S",), (("S", (1,)),))
    for change in (
        {"start": 7, "variables": [7, None], "rules": [["7", [1]], ["None", [1]]]},
        {"start": 7},
        {"start": ["S"]},
        {"variables": ["S", None]},
        {"rules": [["S", [None]]]},
        {"rules": [["S", [[1]]]]},
    ):
        with pytest.raises(GrammarError):
            grammar_from_json(json.dumps({**ok, **change}))


def test_random_graphs_cross_check():
    # end-to-end fuzz: language equality, unambiguity, annotation counts
    import random

    from autgrammar.annotate import count_assignments
    from autgrammar.decomp import validate_tree_decomposition

    rng = random.Random(20240817)
    for trial in range(25):
        n = rng.randint(2, 6)
        g = random_connected_graph(rng, n)
        auts = brute_force_automorphisms(g)
        t0 = compute_tree_decomposition(g, "min-fill")
        t, _ = make_permutation_yielding(g, t0)
        assert validate_tree_decomposition(g, t).ok, g
        alpha, gr = build_aut_grammar(g, t)
        words = list(enumerate_language(gr).words)
        expected = sorted(permute_word(to_string_word(s), alpha) for s in auts)
        assert words == expected, g
        assert count_parse_trees(gr) == len(words), g
        assert count_assignments(g, t) == len(auts), g


def test_random_graphs_regular_route():
    import random

    rng = random.Random(987123)
    for trial in range(12):
        n = rng.randint(2, 6)
        g = random_connected_graph(rng, n)
        auts = brute_force_automorphisms(g)
        pd = compute_path_decomposition(g)
        alpha, gr = build_regular_aut_grammar(g, pd)
        assert is_regular(gr)
        perms = sorted(
            permutation_from_aligned_word(w, alpha)
            for w in enumerate_language(gr).words
        )
        assert perms == list(auts), g
        assert count_parse_trees(gr) == len(auts), g


def _regular_stages(g):
    """`_build`'s regular grammar, before `_determinise`, and the
    (alpha, grammar) that build_regular_aut_grammar writes."""
    pd = compute_path_decomposition(g)
    names, lhs, rhs, _ = _build(g, pd, dict(enumerate(introduced_order(g, pd))))
    return _grammar(g.vertex_count, names, lhs, rhs), build_regular_aut_grammar(g, pd)


def test_regular_grammar_of_complete_graph_is_the_subset_automaton():
    # a prefix of S_n's words leaves any order of the vertices not yet
    # written, so a state is the set of vertices written: 2^n - 1 of them
    # (the full set is no variable's), the state of a set of k vertices
    # with n - k rules, n 2^(n - 1) rules in all; before `_determinise`
    # K8's grammar had 109 600
    for n in range(1, 9):
        gr = build_regular_aut_grammar(complete_graph(n), compute_path_decomposition(complete_graph(n)))[1]
        assert (len(gr.rules), len(gr.variables)) == (n * 2 ** (n - 1), 2 ** n - 1), n
        assert count_parse_trees(gr) == math.factorial(n)


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_tree_grammar_of_complete_graph_is_the_subset_automaton(n):
    # min-fill cuts K_n into a chain of nested bags, which the yielding
    # transform merges into one bag whose n leaves write B1's n! words;
    # sharing their prefixes and equal tails folds them to B1 and a
    # variable per set of 2 to n - 1 vertices still to write, a set of k
    # with k rules: n 2^(n - 1) - n in all (K8 had 29 016 before the
    # merge), whatever the labels
    for g in (complete_graph(n), relabel(complete_graph(n), random.Random(n))):
        _, gr = aut_grammar(g)
        assert (len(gr.rules), len(gr.variables)) == (n * 2 ** (n - 1) - n, 2 ** n - n - 1)
        assert count_parse_trees(gr) == math.factorial(n)


def test_regular_grammar_is_the_minimal_automaton(corpus):
    # the regular grammar is a deterministic automaton of the oracle's
    # words, one parse tree per word, no larger than `_build`'s grammar;
    # no two of its variables have equal rules, so, its variables being
    # layered, no two states are equivalent and it is the minimal one
    # (Revuz, TCS 1992): a merge pass would find nothing here
    rng = random.Random(46)
    graphs = [*corpus.values(), petersen_graph(), binary_tree(2), spider(3, 2), grid_graph(3, 3),
              complete_graph(5), cycle_graph(8), Graph(1, [])]
    graphs += [random_connected_graph(rng, rng.randint(2, 10)) for _ in range(40)]
    shrunk = 0
    for g in graphs:
        before, (alpha, gr) = _regular_stages(g)
        rules: dict = {}
        for v, symbols in zip(gr._lhs, gr._rhs):
            rules.setdefault(v, []).append(symbols)
        assert all(len({r[0] for r in rs}) == len(rs) for rs in rules.values()), format_graph(g)
        assert len(set(map(frozenset, rules.values()))) == len(rules) == len(gr.variables), format_graph(g)
        assert is_regular(gr) and _writes(gr) is not None
        words = oracle_language(g, alpha)
        assert list(enumerate_language(gr).words) == words, format_graph(g)
        assert count_parse_trees(gr) == len(words)
        assert grammar_size(gr).value <= grammar_size(before).value
        shrunk += len(gr.rules) < len(before.rules)
    assert shrunk > len(graphs) // 4


def test_lp_paths_agree_on_determinised_grammars():
    # a member word and a permutation outside the group: the LP file's
    # presolve and simplex and the column generation give the same verdict
    for g in (petersen_graph(), cube_graph(), binary_tree(2)):
        before, (_, gr) = _regular_stages(g)
        assert len(gr.rules) < len(before.rules)
        ef = build_extended_formulation(gr)
        parsed = parse_lp(emit_lp(ef))
        words = set(iter_language(gr))
        member = min(words)
        other = next(p for p in itertools.permutations(range(1, g.vertex_count + 1)) if p not in words)
        for x, want in ((member, True), (other, False)):
            point = {f"x_{k}": v for k, v in enumerate(x, start=1)}
            assert check_lp_feasibility(parsed, point) == check_projection_feasibility(ef, x) == want, x


def test_regular_star(star5):
    pd = compute_path_decomposition(star5)
    alpha, gr = build_regular_aut_grammar(star5, pd)
    assert is_regular(gr)
    assert len(enumerate_language(gr).words) == 24


# Reference constructions: every local partial automorphism of every bag,
# from the brute-force oracle, every parent/child pair tested with
# consistent_bags, then trim, then each variable renamed to its rank among
# the variables left at its position.  The tree reference then writes each
# leaf's terminal into its parent's rules (`_substituted`).  Each reference
# also returns, per variable head, the annotations of its variables in
# rank order.  build_aut_grammar and build_regular_aut_grammar must give
# exactly these grammars, minimised by `_minimised`, however their search
# prunes and however they merge.

def _oracle_bags(g, s):
    return [AnnotatedBag(tuple(sorted(s)), phi) for phi in oracle_annotations(g, s)]


def _ranked(gr, bag_of):
    """gr with variable <head>|b:<i> renamed <head>|b:<rank among the
    variables with that head>, in declaration order, and {head: the
    annotations of those variables in rank order}."""
    rename, ranked = {gr.start: gr.start}, {}
    for v in gr.variables[1:]:
        head = v.rsplit("|b:", 1)[0]
        rename[v] = f"{head}|b:{len(ranked.setdefault(head, []))}"
        ranked[head].append(bag_of[v])
    rules = tuple(
        (rename[lhs], tuple(rename[x] if isinstance(x, str) else x for x in rhs))
        for lhs, rhs in gr.rules
    )
    return Grammar(gr.sigma_max, gr.start, tuple(rename[v] for v in gr.variables), rules), ranked


def _head(t, p):
    """The head of the variables of position p of t: p:<its preorder index>."""
    return f"p:{t.positions.index(p)}"


def _minimised(gr):
    """gr with the variables of each head merged while two of them have
    equal rule sets once every child is renamed to its class.  Each
    variable starts as its own class; a round puts each variable in the
    class of the first variable with its head and its renamed rule set,
    until a round changes nothing.  A class keeps its first variable's
    rules, renamed, and <head>|b:<i> names the i-th class of its head."""
    table = {}
    for lhs, rhs in gr.rules:
        table.setdefault(lhs, []).append(rhs)

    def renamed(rhs):
        return tuple(rep[x] if isinstance(x, str) else x for x in rhs)

    rep, changed = {v: v for v in gr.variables}, True
    while changed:
        first = {}
        merged = {
            v: first.setdefault((v.rsplit("|b:", 1)[0], frozenset(map(renamed, table.get(v, ())))), v)
            for v in gr.variables
        }
        changed, rep = merged != rep, merged
    kept = [v for v in gr.variables if rep[v] == v]
    rank, counters = {gr.start: gr.start}, {}
    for v in kept[1:]:
        head = v.rsplit("|b:", 1)[0]
        rank[v] = f"{head}|b:{next(counters.setdefault(head, itertools.count()))}"
    rules = tuple(
        (rank[lhs], tuple(rank[rep[x]] if isinstance(x, str) else x for x in rhs))
        for lhs, rhs in gr.rules
        if rep[lhs] == lhs
    )
    return Grammar(gr.sigma_max, gr.start, tuple(rank[v] for v in kept), rules)


def _substituted(gr, heads):
    """gr with each variable whose head is in heads replaced, wherever a
    rule uses it, by its one rule's one terminal, and then dropped."""
    term = {}
    for lhs, rhs in gr.rules:
        if lhs.rsplit("|b:", 1)[0] in heads:
            assert lhs not in term and len(rhs) == 1 and isinstance(rhs[0], int), (lhs, rhs)
            term[lhs] = rhs[0]
    rules = tuple(
        (lhs, tuple(term.get(x, x) if isinstance(x, str) else x for x in rhs))
        for lhs, rhs in gr.rules
        if lhs not in term
    )
    return Grammar(gr.sigma_max, gr.start, tuple(v for v in gr.variables if v not in term), rules)


def _start_inlined(gr, head):
    """gr with each unit rule of the start to a variable whose head is
    head replaced by that variable's rules, in order, as the start's, and
    those variables dropped."""
    of = {}
    for lhs, rhs in gr.rules:
        if lhs.rsplit("|b:", 1)[0] == head:
            of.setdefault(lhs, []).append(rhs)
    rules = []
    for lhs, rhs in gr.rules:
        if lhs == gr.start:
            (v,) = rhs
            rules.extend((lhs, r) for r in of[v])
        elif lhs not in of:
            rules.append((lhs, rhs))
    return Grammar(gr.sigma_max, gr.start, tuple(v for v in gr.variables if v not in of), tuple(rules))


def reference_aut_grammar(g, t):
    ann = {p: _oracle_bags(g, t.bag(p)) for p in t.positions}
    name = {p: [f"{_head(t, p)}|b:{i}" for i in range(len(bs))] for p, bs in ann.items()}
    bag_of = {name[p][i]: b for p in ann for i, b in enumerate(ann[p])}
    rules = [("B1", (v,)) for v in name[()]]
    for p in t.positions:
        kids = t.children(p)
        for i, b in enumerate(ann[p]):
            if kids:
                per_child = [[name[c][j] for j, cb in enumerate(ann[c]) if consistent_bags(b, cb)]
                             for c in kids]
                rules.extend((name[p][i], combo) for combo in itertools.product(*per_child))
            else:
                rules.append((name[p][i], (dict(b.phi)[t.bag(p)[0]],)))
    gr, ranked = _ranked(trim(Grammar(g.vertex_count, "B1", ("B1", *bag_of), tuple(rules))), bag_of)
    # every position that has no children writes its terminal into its
    # parent's rules, the root of a one-vertex graph into B1's; a root
    # with children writes its classes' rules as B1's
    leaves = {_head(t, p) for p in t.positions if not t.children(p)}
    gr = _substituted(gr, leaves)
    if t.children(()):
        gr = _start_inlined(gr, _head(t, ()))
    return gr, {h: bs for h, bs in ranked.items() if h not in leaves and h != _head(t, ())}


def reference_regular_grammar(g, pd):
    order, chain = introduced_order(g, pd), pd.positions
    ann = [_oracle_bags(g, pd.bag(p)) for p in chain]
    n = len(chain)
    bag_of = {f"p:{i - 2}|b:{j}": b for i in range(2, n + 1) for j, b in enumerate(ann[i - 2])}
    rules = []
    for i in range(1, n + 1):
        lhs = [("B1", None)] if i == 1 else [(f"p:{i - 2}|b:{j}", b) for j, b in enumerate(ann[i - 2])]
        for var, prev in lhs:
            for j, b in enumerate(ann[i - 1]):
                if prev is None or consistent_bags(prev, b):
                    emit = dict(b.phi)[order[i - 1]]
                    rules.append((var, (emit, f"p:{i - 1}|b:{j}") if i < n else (emit,)))
    return _ranked(trim(Grammar(g.vertex_count, "B1", ("B1", *bag_of), tuple(rules))), bag_of)


def test_join_matches_all_pairs_reference(corpus):
    import random

    rng = random.Random(31)
    graphs = []
    # cubic8: the search finds annotations that the join drops, so
    # survivor ranks differ from search positions
    for name, g in [*corpus.items(), ("cubic8", cubic8())]:
        graphs.append((name, g))
        for k in range(2):  # seeded relabellings move the min-fill tie-breaks
            label = list(g.vertices)
            rng.shuffle(label)
            edges = [(label[u - 1], label[v - 1]) for u, v in g.edges]
            graphs.append((f"{name}/{k}", Graph(g.vertex_count, edges)))
    graphs += [(f"random/{k}", random_connected_graph(rng, rng.randint(2, 6))) for k in range(6)]
    for name, g in graphs:
        t, _ = make_permutation_yielding(g, compute_tree_decomposition(g, "min-fill"))
        pd = compute_path_decomposition(g)
        # variable <head>|b:<i> stands for the i-th surviving image tuple
        # over dom[p], with p the position that <head> names
        def survivors(d):
            dom, images, cls, *_ = join_annotations(g, d)
            return {p: [AnnotatedBag(d.bag(p), tuple(zip(dom[j], im)))
                        for im, k in zip(images[j], cls[j]) if k is not None]
                    for j, p in enumerate(d.positions)}

        ann, pann = survivors(t), survivors(pd)
        chain = pd.positions
        # the tree grammar writes each variable with one rule that one rule
        # names into that rule; the regular grammar keeps them all.  The
        # tree grammar is compared before `_share` and the regular grammar
        # before `_determinise`; each pass keeps the parse-tree count and
        # never makes its grammar larger
        unshared = tree_grammar_stages(g, t)[0]
        shared = build_aut_grammar(g, t)[1]
        undeterminised, (_, determinised) = _regular_stages(g)
        for before, after in ((unshared, shared), (undeterminised, determinised)):
            assert count_parse_trees(after) == count_parse_trees(before), name
            assert grammar_size(after).value <= grammar_size(before).value, name
        for gr, (ref, ref_bags), bags, inline in (
            (unshared, reference_aut_grammar(g, t),
             {_head(t, p): ann[p] for p in t.positions if p and t.children(p)}, inline_single_use),
            (undeterminised, reference_regular_grammar(g, pd),
             {f"p:{i - 2}": pann[chain[i - 2]] for i in range(2, len(chain) + 1)}, lambda gr: gr),
        ):
            minimal = inline(_minimised(ref))
            assert grammar_to_json(gr) == grammar_to_json(minimal), name
            assert gr == minimal and trim(gr) == gr, name
            assert {h: list(bs) for h, bs in bags.items()} == ref_bags, name
        assert count_assignments(g, t) == len(brute_force_automorphisms(g)), name


def test_long_paths_build_fast():
    # each bag of P_n has about 2n local partial automorphisms, of which 4
    # take part in an automorphism: a search that enumerated them all took
    # 7 s on P160 and did not finish P1000 in 10 minutes
    for n, limit in ((160, 0.3), (1000, 5.0)):
        g = path_graph(n)
        t, _ = make_permutation_yielding(g, compute_tree_decomposition(g, "min-fill"))
        start = time.process_time()
        _, gr = build_aut_grammar(g, t)
        assert time.process_time() - start < limit, n
        assert count_parse_trees(gr) == 2


def test_deep_build_memory_is_linear():
    # P4000's peak is 4.0x P1000's; it was 13.5x while the builder copied
    # each inlined rule into its user's, so that a chain held rules of
    # every length at once.  Past 4x is mostly the join's search, which
    # holds an n-bit mask per vertex.  A spider's legs are chains below
    # the hub's fan, written as its options, and spider 3x1400's peak is
    # 4.2x spider 3x350's.  A first build loads what the builder loads,
    # and a collection before each trace starts the collector alike
    g = path_graph(3)
    build_aut_grammar(g, make_permutation_yielding(g, compute_tree_decomposition(g))[0])
    for series in ((path_graph(1000), path_graph(4000)), (spider(3, 350), spider(3, 1400))):
        peaks = []
        for g in series:
            t, _ = make_permutation_yielding(g, compute_tree_decomposition(g, "min-fill"))
            gc.collect()
            tracemalloc.start()
            try:
                build_aut_grammar(g, t)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 6 * peaks[0], (series[0].vertex_count, peaks)


def _option_counts(g, t):
    """Read off the join: per position with children, per class, the
    number of its partners at each child that has classes (its options
    there); and per such child, per class, the number of its parent's
    classes' options that it is."""
    written = dict(zip([p for p, ks in enumerate(t.kids) if not ks], yield_order_of(t).image))
    _, _, cls, first, up, members = join_annotations(g, t, written)
    options, uses = {}, {c: [0] * len(first[c]) for c in range(1, len(t.kids)) if t.kids[c]}
    for p, ks in enumerate(t.kids):
        inner = [c for c in ks if t.kids[c]]
        for i in first[p] if ks else ():
            partners = [[up[c][i]] if members[c] is None else members[c][up[c][i]] for c in inner]
            options.setdefault(p, []).append(tuple(map(len, partners)))
            for c, js in zip(inner, partners):
                for j in js:
                    uses[c][cls[c][j]] += 1
    return options, uses


def test_positions_are_spliced_whole(corpus):
    # Aut(g) acts transitively on a position's kept annotations, and the
    # action keeps the classes' option counts at each child and how often
    # each is an option, so every class of a position has the same ones;
    # and in what `_build` writes,
    # the variables of one position's classes, and those of one fan's
    # factor variables, have one rule count and one use count.  `_build`
    # splices each position whose classes have one rule each that one
    # rule names, its parent's or a factor variable's, so no variable of
    # its output but B1 has one rule and one use; some fans are factored
    rng = random.Random(47)
    graphs = [*corpus.values(), petersen_graph(), binary_tree(3), spider(3, 2), spider(4, 3), cubic8(),
              grid_graph(3, 3), path_graph(8), binary_tree(4), spider(5, 4)]
    graphs += [relabel(g, rng) for g in graphs]
    graphs += [random_connected_graph(rng, rng.randint(2, 9)) for _ in range(40)]
    spliced = factored = 0
    for g in graphs:
        for strategy in ("min-fill", "exact-small")[:1 + (g.vertex_count <= 10)]:
            t, _ = make_permutation_yielding(g, compute_tree_decomposition(g, strategy))
            options, uses = _option_counts(g, t)
            assert all(len(set(counts)) == 1 for counts in (*options.values(), *uses.values())), format_graph(g)
            written = dict(zip([p for p, ks in enumerate(t.kids) if not ks], yield_order_of(t).image))
            names, lhs, rhs, _ = _build(g, t, written)
            counts = collections.Counter(lhs)
            named = collections.Counter(~x for symbols in rhs for x in symbols if x < 0)
            assert not [v for v in range(1, len(names)) if counts[v] == named[v] == 1], format_graph(g)
            assert sorted(counts) == list(range(len(names))), format_graph(g)
            groups = collections.defaultdict(set)  # p:<j>|b and p:<j>|f: its rule and use counts
            for v in range(1, len(names)):
                groups[names[v][:names[v].index("|") + 2]].add((counts[v], named[v]))
            assert all(len(pairs) == 1 for pairs in groups.values()), format_graph(g)
            spliced += sum(f"p:{j}|b" not in groups for j, ks in enumerate(t.kids) if j and ks)
            factored += any(name.endswith("|f") for name in groups)
    assert spliced > len(graphs)
    assert factored > 5


def test_inline_matches_recursive_reference(corpus):
    # the regular grammars keep every variable with one rule that one rule
    # names, and there are many (a path's is one chain)
    rng = random.Random(41)
    graphs = [*corpus.values(), petersen_graph(), binary_tree(3), spider(3, 2), grid_graph(3, 3), path_graph(8)]
    graphs += [random_connected_graph(rng, rng.randint(2, 7)) for _ in range(30)]
    dropped = 0
    for g in graphs:
        gr = build_regular_aut_grammar(g, compute_path_decomposition(g))[1]
        inlined = _grammar(gr.sigma_max, *_spelled(gr.variables, gr._lhs, gr._rhs))
        assert inlined == inline_single_use(gr), format_graph(g)
        assert enumerate_language(inlined) == enumerate_language(gr)
        assert count_parse_trees(inlined) == count_parse_trees(gr)
        dropped += len(gr.variables) - len(inlined.variables)
    assert dropped > len(graphs)


def test_inline_flattens_a_deep_chain():
    # 100 000 variables, each with one rule that the one above names: one
    # rule, spelled without recursion
    depth = 100_000
    gr = chain_grammar(depth)
    assert _spelled(gr.variables, gr._lhs, gr._rhs) == (("A0",), [0], [tuple(range(1, depth + 1))])


def test_share_factors_prefixes_and_merges_equal_tails():
    # B1's rules through Y share Y and then 1 or 2: each shared stretch
    # continues in a new variable of the tails after it, and the two tail
    # sets (3 4, 4 3) at one offset are one variable, s:2.  X has those
    # rules too, but it ends at 2 and s:2 at 4, so they stay apart
    names = ("B1", "X", "Y")
    lhs = [0, 0, 0, 0, 0, 0, 1, 1, 2, 2]
    rhs = [(~2, 1, 3, 4), (~2, 1, 4, 3), (~2, 2, 3, 4), (~2, 2, 4, 3), (~1, 2, 1), (~1, 1, 2),
           (3, 4), (4, 3), (1,), (2,)]
    end = [4, 2, 1]  # each variable's word end: B1 spans 1-4, X 1-2 and Y 1
    gr = _grammar(4, *_spelled(*_share(names, lhs, rhs, end)))  # new ones are named as they are numbered
    assert gr.rules == (
        ("B1", ("Y", "s:1")), ("B1", ("X", "s:0")),
        ("s:0", (1, 2)), ("s:0", (2, 1)),
        ("s:1", (1, "s:2")), ("s:1", (2, "s:2")),
        ("s:2", (3, 4)), ("s:2", (4, 3)),
        ("X", (3, 4)), ("X", (4, 3)),
        ("Y", (1,)), ("Y", (2,)),
    )
    assert count_parse_trees(gr) == 12 and _writes(gr) is not None


def test_share_writes_no_empty_rule():
    # two equal rules share every symbol: the shared stretch stops short
    # of the last, so the new variable's rules are that symbol twice and
    # both parse trees stay
    names, lhs, rhs = _share(("B1",), [0, 0], [(1, 2), (1, 2)], [2])
    assert names == ["B1", None]
    gr = _grammar(2, ("B1", "W"), *_spelled(names, lhs, rhs)[1:])
    assert gr.rules == (("B1", (1, "W")), ("W", (2,)), ("W", (2,)))
    assert count_parse_trees(gr) == 2


@pytest.mark.parametrize(
    "g, rules, bits, variables",
    [
        # (rules, bits) while every fan was written as its product: spider
        # 5x4 165, 4 389; spider 6x6 486, 14 381; btree4 168, 5 138; btree6
        # 2 728, 129 107.  btree2 keeps its product: one factored fan would
        # cost more symbols than the two combinations it replaces
        (spider(5, 4), 95, 2184, None),
        (spider(6, 6), 216, 5758, None),
        (binary_tree(4), 156, 4617, None),
        (binary_tree(6), 2668, 115090, None),
        (binary_tree(2), 8, 133, 3),
    ],
    ids=["spider5x4", "spider6x6", "btree4", "btree6", "btree2"],
)
def test_fans_are_written_as_factors(g, rules, bits, variables):
    # natural labels, min-fill: a class's options at a fan are written once,
    # as a factor variable's rules, where the product of its options over
    # the children would be larger
    t, _ = make_permutation_yielding(g, compute_tree_decomposition(g, "min-fill"))
    gr = build_aut_grammar(g, t)[1]
    assert (len(gr.rules), round(grammar_size(gr).value)) == (rules, bits)
    assert variables is None or len(gr.variables) == variables
    assert any("|f:" in v for v in gr.variables) == (variables is None)


def test_star8_grammar_is_shared():
    # 5089 rules, a list of the 5040 words, before the tree grammars
    # shared their rules' prefixes; the language and the counts stay
    g = star_graph(7)
    t, _ = make_permutation_yielding(g, compute_tree_decomposition(g, "min-fill"))
    gr = build_aut_grammar(g, t)[1]
    unshared = tree_grammar_stages(g, t)[0]
    assert len(gr.rules) <= 600 < 5000 < len(unshared.rules)
    assert count_parse_trees(gr) == count_parse_trees(unshared) == 5040
    assert set(iter_language(gr)) == set(iter_language(unshared))
    assert _writes(gr) is not None
