"""Property tests drawn by hypothesis.  On connected graphs: both grammar
builders against the brute-force oracle, and the two exact LP paths and
the Fraction reference simplex against each other, that the count of
whole-tree annotations is |Aut| and the parse-tree count on every kind of
decomposition, that the yielded decomposition merges every position
whose one inner child holds its bag, that every variable a builder
writes is one merge class,
that the tree grammar names no leaf position and no root position,
has no unit rule and no variable but the start with one rule that one
rule names, that the annotation search pinned to a parent's keys
finds what the unpinned search finds for those keys, and that the keys
a fully pinned child takes without a search are annotations.
On random acyclic grammars: the streamed language against the
set-semiring reference, the int length pass against the set semiring's
lengths, with and without erased terminals, `erase_terminals` against a
reference that erases through an intermediate grammar, and the LP text
round trip of every formulation built from one.  On both kinds of
random grammar, wherever the formulation builder accepts one: lifted
parse trees within the [0,1] bounds, and the two check paths agreeing
on words, midpoints and half-integral points.  On random positional grammars: the same round trip, and
the projection path's master LP against its Fraction reference and the
LP file's verdict.  On connected graphs and every prefix size: the embed
builder's invariance check against the oracle's, and the table the
tree builder hands over against the one compiled from its grammar, and
both strategies' decompositions against a second elimination on neighbour
sets.  On any graph: min-fill's kept fill counts against counting them
anew.  On
valid and broken decompositions: the validation report against the
reference that checks on root paths."""

import collections
import random
import re
import warnings
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, example, given, settings, strategies as st

from autgrammar.annotate import (
    AnnotatedBag,
    _Search,
    build_aut_grammar,
    build_embedded_group_grammar,
    build_regular_aut_grammar,
    count_assignments,
    join_annotations,
)
from autgrammar.decomp import (
    EXACT_SMALL_CAP,
    DecompositionError,
    TreeDecomposition,
    _exact_order,
    _min_fill_order,
    compute_path_decomposition,
    compute_tree_decomposition,
    make_permutation_yielding,
    read_pace_td,
    validate_tree_decomposition,
    write_pace_td,
)
from autgrammar.graph import Graph, closed_neighborhood
from autgrammar.grammar import (
    Grammar,
    GrammarError,
    _length_bounds,
    _writes,
    count_parse_trees,
    enumerate_language,
    enumerate_parse_trees,
    erase_terminals,
    grammar_size,
    grammar_to_json,
    iter_language,
)
from autgrammar.oracle import ORACLE_CAP, brute_force_automorphisms, restricted_action
from autgrammar.perm import Word, parse_permutation, permute_word, to_string_word
from autgrammar.polytope import (
    PolytopeError,
    _lp_system,
    _presolve,
    _projection_verdict,
    build_extended_formulation,
    check_lp_feasibility,
    check_projection_feasibility,
    emit_lp,
    lift_parse_tree,
    parse_lp,
)
from conftest import (
    binary_tree,
    check_annotated_bag,
    check_certificate,
    check_every_maker,
    json_reference,
    lp_number_types,
    petersen_graph,
    reference_erase_terminals,
    reference_language,
    reference_lengths,
    reference_elimination_decomposition,
    reference_min_fill_order,
    reference_projection_verdict,
    reference_simplex_feasible,
    reference_validate_tree_decomposition,
    relabel,
    spider,
    tree_grammar_stages,
)


MAX_GROUP = 1440


@st.composite
def connected_graphs(draw, max_vertices: int = 8) -> Graph:
    """A random spanning tree, which keeps the graph connected, plus any
    set of further edges."""
    n = draw(st.integers(1, max_vertices))
    tree = {(draw(st.integers(1, v - 1)), v) for v in range(2, n + 1)}
    others = [(u, v) for u in range(1, n) for v in range(u + 1, n + 1) if (u, v) not in tree]
    extra = draw(st.sets(st.sampled_from(others))) if others else set()
    return Graph(n, tree | extra)


@st.composite
def graphs(draw, max_vertices: int = 14) -> Graph:
    """Any graph, connected or not: each pair is an edge with a drawn
    probability, so dense graphs are drawn as often as sparse ones."""
    n = draw(st.integers(1, max_vertices))
    p = draw(st.sampled_from([0.1, 0.3, 0.5, 0.7, 0.9]))
    rng = draw(st.randoms(use_true_random=False))
    return Graph(n, [(u, v) for u in range(1, n) for v in range(u + 1, n + 1) if rng.random() < p])


@st.composite
def acyclic_grammars(draw) -> Grammar:
    """Variables V0..V(n-1) with start V0, each with up to three rules of
    up to three terminals in 1..3.  Each Vj with j > 0 is then put into a
    rule of some Vi with i < j, which keeps the grammar acyclic and makes
    variables used once, and up to two more times, which makes shared
    ones.  Draws cover words of mixed lengths, empty right-hand sides,
    duplicate rules, variables without rules and the empty word on the
    accepts_empty flag."""
    n = draw(st.integers(1, 6))
    names = tuple(f"V{i}" for i in range(n))
    bodies = [
        [draw(st.lists(st.integers(1, 3), max_size=3)) for _ in range(draw(st.integers(0, 3)))]
        for _ in range(n)
    ]
    uses = list(range(1, n)) + (draw(st.lists(st.integers(1, n - 1), max_size=2)) if n > 1 else [])
    for j in uses:
        body = bodies[draw(st.integers(0, j - 1))]
        if body:
            rhs = body[draw(st.integers(0, len(body) - 1))]
            rhs.insert(draw(st.integers(0, len(rhs))), names[j])
    rules = [(names[i], tuple(rhs)) for i in range(n) for rhs in bodies[i]]
    rules += draw(st.lists(st.sampled_from(rules), max_size=2)) if rules else []
    return Grammar(3, "V0", names, tuple(rules), draw(st.booleans()))


@st.composite
def positional_grammars(draw) -> Grammar:
    """Variables with a fixed span each, which `build_extended_formulation`
    always accepts with a non-empty language.  The start V0 spans words of
    length 1 to 5.  Each variable has one to three rules, and a rule fills
    its span from left to right with terminals in 1..3 and child variables
    of shorter spans, each placed exactly at its own span: a new variable,
    or one made before for the same span, which is then shared.  Past
    eight variables, a span without one takes terminals only."""
    n = draw(st.integers(1, 5))
    names: list[str] = []
    at_span: dict[tuple[int, int], list[str]] = {}
    rules: list = []

    def variable(start: int, length: int) -> str:
        known = at_span.get((start, length))
        if known and (len(names) >= 8 or draw(st.booleans())):
            return draw(st.sampled_from(known))
        v = f"V{len(names)}"
        names.append(v)
        at_span.setdefault((start, length), []).append(v)
        for _ in range(draw(st.integers(1, 3))):
            rhs: list = []
            at = start
            while at < start + length:
                spans = range(1, min(start + length - at, length - 1) + 1)
                if len(names) >= 8:
                    spans = [k for k in spans if (at, k) in at_span]
                if spans and draw(st.booleans()):
                    k = draw(st.sampled_from(spans))
                    rhs.append(variable(at, k))
                    at += k
                else:
                    rhs.append(draw(st.integers(1, 3)))
                    at += 1
            rules.append((v, tuple(rhs)))
        return v

    variable(1, n)
    return Grammar(3, "V0", tuple(names), tuple(rules))


@settings(max_examples=200, deadline=None)
@given(acyclic_grammars())
def test_streamed_language_matches_reference(gr):
    # a language of a few thousand words at most keeps each draw quick
    assume(count_parse_trees(gr) <= 2000)
    reference = reference_language(gr)
    assert list(iter_language(gr)) == reference
    for cap in range(4):
        expected = tuple(Word(w) for w in reference[:cap]), len(reference) > cap
        assert enumerate_language(gr, cap) == expected


@settings(max_examples=200, deadline=None)
@given(acyclic_grammars(), st.integers(0, 3))
def test_length_bounds_match_reference(gr, keep):
    # the shortest and longest word length of each variable, -1 for none,
    # with the terminals above keep erased, and without erasing any
    for k in (keep, None):
        lengths = reference_lengths(gr, k)
        expected = ([min(lengths[v], default=-1) for v in gr.variables],
                    [max(lengths[v], default=-1) for v in gr.variables])
        assert _length_bounds(gr, k) == expected


@settings(max_examples=200, deadline=None)
@given(acyclic_grammars(), st.integers(0, 3))
def test_erase_terminals_matches_reference(gr, keep):
    assert erase_terminals(gr, keep) == reference_erase_terminals(gr, keep)


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(acyclic_grammars().map(lambda gr: (gr, False)), positional_grammars().map(lambda gr: (gr, True))),
    st.sampled_from(("value", "matrix")),
)
def test_lp_round_trip_on_random_grammars(drawn, style):
    # a formulation reads back from its LP text as it is held, number types
    # included; a grammar the builder refuses (not positional, or with an
    # unreachable variable) raises PolytopeError and nothing else, and a
    # positional grammar is always accepted, with a non-empty language
    gr, positional = drawn
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the empty language warns
        try:
            ef = build_extended_formulation(gr, style)
        except PolytopeError:
            assert not positional, gr
            return
        parsed = parse_lp(emit_lp(ef))
    assert not positional or ef.word_length, gr
    assert parsed == ef.lp
    assert lp_number_types(parsed) == lp_number_types(ef.lp)


@settings(max_examples=200, deadline=None)
@given(st.one_of(acyclic_grammars(), positional_grammars()), st.randoms(use_true_random=False))
@example(Grammar(1, "V0", ("V0", "V1"), (("V0", ("V1", "V1", "V1")), ("V1", ()))), random.Random(0))
@example(Grammar(2, "S", ("S", "E", "A"), (("S", ("E", "E", "A")), ("E", ()), ("A", (1,)), ("A", (2,)))),
         random.Random(0))
def test_check_paths_agree_on_accepted_formulations(gr, rng):
    # a formulation the builder accepts has 0/1 parse-tree points: each
    # lifted parse tree lies in the [0,1] bounds, and column generation and
    # the LP file give one verdict on up to three words, the midpoint of
    # two and a half-integral point.  A variable that derives only the
    # empty word would give a rule that uses it k times a flow of k
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the empty language warns
        try:
            ef = build_extended_formulation(gr)
        except PolytopeError:
            return
    assume(count_parse_trees(gr) <= 2000)
    parsed = parse_lp(emit_lp(ef))
    words = [w.symbols for w in enumerate_language(gr).words]
    n = ef.word_length
    points = [(w, True) for w in rng.sample(words, min(3, len(words)))]
    if words:
        a, b = rng.choice(words), rng.choice(words)
        points.append(([Fraction(u + v, 2) for u, v in zip(a, b)], True))
    points.append(([Fraction(rng.randint(0, 8), 2) for _ in range(n)], None))
    for x, member in points:
        verdict = check_projection_feasibility(ef, x)
        assert check_lp_feasibility(parsed, {f"x_{k}": v for k, v in enumerate(x, start=1)}) == verdict, x
        assert member is None or verdict == member, x
    for t in enumerate_parse_trees(gr):
        point = lift_parse_tree(ef, t)
        assert all(lo <= point[y] <= hi for y, (lo, hi) in ef.lp.bounds.items()), t


def builds(g):
    t, _ = make_permutation_yielding(g, compute_tree_decomposition(g, "min-fill"))
    yield build_aut_grammar(g, t)
    yield build_regular_aut_grammar(g, compute_path_decomposition(g))


@settings(max_examples=50, deadline=None)
@given(connected_graphs())
def test_builders_match_oracle(g):
    auts = brute_force_automorphisms(g)
    # a grammar has about |Aut| rules per position when the group acts on
    # every bag, and the oracle lists every automorphism
    assume(len(auts) <= MAX_GROUP)
    for alpha, gr in builds(g):
        expected = sorted(permute_word(to_string_word(s), alpha) for s in auts)
        assert list(enumerate_language(gr).words) == expected
        assert count_parse_trees(gr) == len(auts)
        assert grammar_to_json(gr) == json_reference(gr)


@settings(max_examples=300, deadline=None)
@given(graphs())
def test_min_fill_matches_reference(g):
    # the kept fill counts pick what counting every fill anew picks
    assert [v for v, _ in _min_fill_order(g)] == reference_min_fill_order(g)


@settings(max_examples=200, deadline=None)
@given(connected_graphs(max_vertices=10))
def test_decomposition_matches_reference_elimination(g):
    # the bags read off the elimination that picks the order are the ones
    # a fresh elimination of that order on neighbour sets gives
    assert compute_tree_decomposition(g, "min-fill") == reference_elimination_decomposition(
        g, reference_min_fill_order(g))
    exact = [v for v, _ in _exact_order(g)]
    assert compute_tree_decomposition(g, "exact-small") == reference_elimination_decomposition(g, exact)


@st.composite
def hub_graphs(draw, max_vertices: int = 40) -> Graph:
    """A sparse graph on the other vertices plus a hub, the last vertex,
    joined to a drawn share of them: the hub's fill is recounted after
    most eliminations, over a neighbourhood of many vertices."""
    n = draw(st.integers(2, max_vertices))
    p = draw(st.sampled_from([0.05, 0.1, 0.2]))
    share = draw(st.sampled_from([0.3, 0.6, 1.0]))
    rng = draw(st.randoms(use_true_random=False))
    edges = [(u, v) for u in range(1, n - 1) for v in range(u + 1, n) if rng.random() < p]
    return Graph(n, edges + [(u, n) for u in range(1, n) if rng.random() < share])


@settings(max_examples=100, deadline=None)
@given(hub_graphs())
def test_min_fill_matches_reference_with_a_hub(g):
    # fill counted on neighbour bitmasks, O(deg) per vertex, picks what
    # counting the missing pairs among neighbour sets picks
    assert [v for v, _ in _min_fill_order(g)] == reference_min_fill_order(g)


@settings(max_examples=50, deadline=None)
@given(connected_graphs())
def test_tree_builder_hands_over_its_table(g):
    assume(len(brute_force_automorphisms(g)) <= MAX_GROUP)
    check_every_maker(g, *(gr for _, gr in builds(g)))


NOT_INVARIANT = re.compile(
    r"prefix 1\.\.(\d+) not invariant under the automorphism group \(witness ([\d ]+)\)"
)


@settings(max_examples=50, deadline=None)
@given(connected_graphs())
def test_embed_rejects_exactly_the_non_invariant_prefixes(g):
    # the embed builder reads invariance off the host's grammar: it raises
    # exactly when the oracle finds 1..n not invariant, and names as its
    # witness, in the one-line form `--beta` takes, an automorphism that
    # sends some vertex of 1..n outside it
    auts = brute_force_automorphisms(g)
    assume(len(auts) <= MAX_GROUP)
    for n in range(1, g.vertex_count + 1):
        invariant = restricted_action(g, n).invariant
        try:
            build_embedded_group_grammar(g, n)
        except GrammarError as e:
            assert not invariant, (n, e)
            match = NOT_INVARIANT.fullmatch(str(e))
            assert match and int(match[1]) == n, e
            witness = parse_permutation(match[2])
            assert witness in auts
            assert any(witness(v) > n for v in range(1, n + 1))
        else:
            assert invariant, n


@settings(max_examples=60, deadline=None)
@given(connected_graphs(), st.permutations(range(1, 9)),
       st.sampled_from(["min-fill", "exact-small", "path"]), st.data())
def test_count_assignments_matches_oracle_and_parse_trees(g, label, kind, data):
    # on a relabelled graph: the count of whole-tree annotations equals
    # |Aut| from the oracle and the parse trees of the grammar that the
    # matching builder makes from the same decomposition
    label = [v for v in label if v <= g.vertex_count]
    g = Graph(g.vertex_count, [(label[u - 1], label[v - 1]) for u, v in g.edges])
    auts = brute_force_automorphisms(g)
    assume(len(auts) <= MAX_GROUP)
    if kind == "path":
        d = compute_path_decomposition(g)
        _, gr = build_regular_aut_grammar(g, d)
    else:
        d, _ = make_permutation_yielding(g, compute_tree_decomposition(g, kind))
        _, gr = build_aut_grammar(g, d)
    assert count_assignments(g, d) == len(auts) == count_parse_trees(gr)
    # a decomposition that leaves one vertex out of every bag is invalid
    if g.vertex_count > 1:
        v = data.draw(st.sampled_from(g.vertices))
        broken = TreeDecomposition({p: tuple(u for u in d.bag(p) if u != v) for p in d.positions})
        with pytest.raises(DecompositionError):
            count_assignments(g, broken)


@settings(max_examples=20, deadline=None)
@given(connected_graphs(max_vertices=7), st.data())
def test_lp_paths_agree(g, data):
    # a member word, the midpoint of two words, and a word with one
    # coordinate raised by 1/2, which no word's coordinate sum matches;
    # column generation, the LP file's presolve and simplex, and the
    # Fraction reference simplex on the presolved rows all agree, and the
    # column generation's certificate passes its checker
    # a group of at most 120 keeps the grammars to a few thousand rules
    assume(len(brute_force_automorphisms(g)) <= 120)
    for _, gr in builds(g):
        ef = build_extended_formulation(gr)
        parsed = parse_lp(emit_lp(ef))
        words = enumerate_language(gr).words
        a, b = (data.draw(st.sampled_from(words)).symbols for _ in range(2))
        i = data.draw(st.integers(0, len(a) - 1))
        raised = [v + Fraction(k == i, 2) for k, v in enumerate(a)]
        for x, member in ((a, True), ([Fraction(u + v, 2) for u, v in zip(a, b)], True), (raised, False)):
            point = {f"x_{k}": v for k, v in enumerate(x, start=1)}
            reduced = _presolve(*_lp_system(parsed, point))
            reference = reduced is not None and reference_simplex_feasible(*reduced)
            assert check_lp_feasibility(parsed, point) == reference == member, x
            assert check_projection_feasibility(ef, x) == member, x
            check_certificate(gr, x, *_projection_verdict(ef, x))


@settings(max_examples=100, deadline=None)
@given(positional_grammars(), st.data())
def test_projection_matches_reference_on_positional_grammars(gr, data):
    # a word, a weighted convex combination of up to three words, the same
    # with one coordinate moved by 1/2 either way, and a point with a
    # negative coordinate, whose row the master LP negates: the integer
    # master LP gives the Fraction reference's verdict and certificate,
    # element for element, the certificate passes its checker, and the LP
    # file's presolve and simplex give the same verdict
    ef = build_extended_formulation(gr)
    parsed = parse_lp(emit_lp(ef))
    words = [w.symbols for w in enumerate_language(gr).words]
    assert words and len(words[0]) == ef.word_length
    n = ef.word_length
    chosen = data.draw(st.lists(st.sampled_from(words), min_size=1, max_size=3))
    weights = data.draw(st.lists(st.integers(1, 5), min_size=len(chosen), max_size=len(chosen)))
    combo = [Fraction(sum(c * w[i] for c, w in zip(weights, chosen)), sum(weights)) for i in range(n)]
    i = data.draw(st.integers(0, n - 1))
    step = data.draw(st.sampled_from((-1, 1))) * Fraction(1, 2)
    moved = [v + step * (k == i) for k, v in enumerate(combo)]
    negative = [-Fraction(data.draw(st.integers(1, 4)), 2) if k == i else v for k, v in enumerate(combo)]
    for x in (chosen[0], combo, moved, negative):
        verdict = _projection_verdict(ef, x)
        expected = reference_projection_verdict(ef, x)
        assert verdict == expected and repr(verdict) == repr(expected), x
        check_certificate(gr, x, *verdict)
        assert check_lp_feasibility(parsed, {f"x_{k}": v for k, v in enumerate(x, start=1)}) == verdict[0], x


@settings(max_examples=100, deadline=None)
@given(connected_graphs(max_vertices=11), st.sampled_from(["min-fill", "exact-small"]))
def test_yielding_merges_nested_single_children(g, strategy):
    # the yielded decomposition is valid, has the input's width and no
    # position whose children, leaves aside, are one whose bag contains
    # its own, and its grammar has one parse tree per automorphism (the
    # oracle's, up to its cap)
    assume(g.vertex_count >= 2 and (strategy == "min-fill" or g.vertex_count <= EXACT_SMALL_CAP))
    t = compute_tree_decomposition(g, strategy)
    y, _ = make_permutation_yielding(g, t)
    assert validate_tree_decomposition(g, y).ok
    assert y.width == t.width
    inner = [[c for c in ks if y.kids[c]] for ks in y.kids]
    assert not [i for i, ks in enumerate(inner) if len(ks) == 1 and set(y.bag_list[i]) <= set(y.bag_list[ks[0]])]
    if g.vertex_count <= ORACLE_CAP:
        auts = brute_force_automorphisms(g)
        if len(auts) <= MAX_GROUP:
            assert count_parse_trees(build_aut_grammar(g, y)[1]) == len(auts)


@settings(max_examples=50, deadline=None)
@given(connected_graphs(), st.sampled_from(["min-fill", "exact-small"]))
def test_tree_grammar_has_no_leaf_variables(g, strategy):
    # every leaf writes its terminal into its parent's rules, and the
    # root's classes are B1's rules: the variables name only positions
    # with children other than the root, each p:<its index in preorder>
    # (a position whose classes are all written inline names none, and a
    # factored fan's factor variables name the fan); the language and the
    # parse trees stay the oracle's
    auts = brute_force_automorphisms(g)
    assume(len(auts) <= MAX_GROUP)
    t, _ = make_permutation_yielding(g, compute_tree_decomposition(g, strategy))
    alpha, gr = build_aut_grammar(g, t)
    heads = {v.rsplit("|", 1)[0] for v in gr.variables[1:] if not v.startswith("s:")}
    assert heads <= {f"p:{j}" for j, p in enumerate(t.positions) if j and t.children(p)}
    assert list(enumerate_language(gr).words) == sorted(permute_word(to_string_word(s), alpha) for s in auts)
    assert count_parse_trees(gr) == len(auts)


@settings(max_examples=50, deadline=None)
@given(connected_graphs(), st.sampled_from(["min-fill", "exact-small"]))
def test_tree_grammar_writes_single_use_variables_inline(g, strategy):
    # no variable but B1 has exactly one rule that exactly one rhs
    # occurrence names; the grammar stays positional, spells the oracle's
    # language with one parse tree per automorphism, and the identity's
    # word is feasible on both LP paths
    auts = brute_force_automorphisms(g)
    assume(len(auts) <= MAX_GROUP)
    t, _ = make_permutation_yielding(g, compute_tree_decomposition(g, strategy))
    alpha, gr = build_aut_grammar(g, t)
    rules = collections.Counter(lhs for lhs, _ in gr.rules)
    uses = collections.Counter(x for _, rhs in gr.rules for x in rhs if isinstance(x, str))
    assert not [v for v in gr.variables[1:] if rules[v] == uses[v] == 1]
    assert _writes(gr) is not None
    assert list(enumerate_language(gr).words) == sorted(permute_word(to_string_word(s), alpha) for s in auts)
    assert count_parse_trees(gr) == len(auts)
    ef = build_extended_formulation(gr)
    x = alpha.image  # the identity's word: position i holds alpha(i)
    assert check_projection_feasibility(ef, x)
    assert check_lp_feasibility(parse_lp(emit_lp(ef)), {f"x_{k}": v for k, v in enumerate(x, start=1)})


@settings(max_examples=40, deadline=None)
@given(connected_graphs(max_vertices=10), st.randoms(use_true_random=False))
@example(Graph(4, [(1, 2), (2, 3), (3, 4), (1, 4)]), random.Random(0))  # C4: B1 -> a s:<k>
@example(Graph(6, [(v, 6) for v in range(1, 6)]), random.Random(1))  # a star: 5! words
def test_shared_tree_grammar_keeps_the_group(g, rng):
    # on a graph and on a relabelling of it, the grammar `_share` writes,
    # whether or not the build keeps it, spells the oracle's language with
    # one parse tree per automorphism, stays positional and gets the
    # unshared grammar's verdicts on both LP paths for a word and a point
    # that is none (all ones); the build keeps the smaller of the two
    for h in (g, relabel(g, rng)):
        auts = brute_force_automorphisms(h)
        assume(len(auts) <= MAX_GROUP)
        t, _ = make_permutation_yielding(h, compute_tree_decomposition(h, "min-fill"))
        alpha, gr = build_aut_grammar(h, t)
        unshared, shared = tree_grammar_stages(h, t)
        smaller = grammar_size(shared).value < grammar_size(unshared).value
        assert gr == (shared if smaller else unshared)
        words = sorted(permute_word(to_string_word(s), alpha) for s in auts)
        assert list(enumerate_language(shared).words) == words
        assert count_parse_trees(shared) == len(auts)
        assert _writes(shared) is not None
        ef = build_extended_formulation(shared)
        parsed = parse_lp(emit_lp(ef))
        for x, member in ((words[-1].symbols, True), ((1,) * h.vertex_count, h.vertex_count == 1)):
            assert check_projection_feasibility(ef, x) == member, x
            assert check_lp_feasibility(parsed, {f"x_{k}": v for k, v in enumerate(x, start=1)}) == member, x


def _check_no_unit_layer(g, strategy):
    # no rule of either grammar is a unit rule X -> Y.  The tree grammar's
    # root writes no terminal (a one-vertex graph's has no children), so no
    # variable p:0|b:* exists; the regular grammar's root writes one, so
    # B1 -> a X stays, for every graph with a second vertex, X the state
    # of the root's classes that a reaches: p:0|b:k for one, s:<k> for more
    t, _ = make_permutation_yielding(g, compute_tree_decomposition(g, strategy))
    tree = build_aut_grammar(g, t)[1]
    regular = build_regular_aut_grammar(g, compute_path_decomposition(g))[1]
    for gr in (tree, regular):
        assert not any(len(rhs) == 1 and isinstance(rhs[0], str) for _, rhs in gr.rules)
    assert not any(v.startswith("p:0|") for v in tree.variables)
    named = {rhs[-1] for lhs, rhs in regular.rules if lhs == "B1" and isinstance(rhs[-1], str)}
    assert bool(named) == (g.vertex_count > 1)
    assert all(v.startswith(("p:0|", "s:")) for v in named), named


def test_no_unit_layer_on_corpus(corpus):
    for g in (*corpus.values(), Graph(1, []), petersen_graph(), binary_tree(2), spider(3, 2)):
        for strategy in ("min-fill", "exact-small"):
            _check_no_unit_layer(g, strategy)


@settings(max_examples=50, deadline=None)
@given(connected_graphs(), st.sampled_from(["min-fill", "exact-small"]))
def test_no_unit_layer(g, strategy):
    assume(len(brute_force_automorphisms(g)) <= MAX_GROUP)
    _check_no_unit_layer(g, strategy)


@settings(max_examples=20, deadline=None)
@given(connected_graphs(max_vertices=7))
@example(Graph(6, [(1, 2), (1, 3), (1, 4), (2, 5), (2, 6)]))  # two root classes, one option set at a fan
def test_builders_write_one_variable_per_merge_class(g):
    # merging keeps the oracle's language and |Aut| parse trees, and
    # leaves no two variables of one position with equal rule sets, a
    # fan's factor variables (p:<j>|f:<i>) counted with its classes: every
    # child is already named by its class, and the classes with one option
    # set at a fan share its factor variable, so the sets need no renaming
    auts = brute_force_automorphisms(g)
    assume(len(auts) <= 120)
    for alpha, gr in builds(g):
        expected = sorted(permute_word(to_string_word(s), alpha) for s in auts)
        assert list(enumerate_language(gr).words) == expected
        assert count_parse_trees(gr) == len(auts)
        rule_sets: dict = {v: set() for v in gr.variables}
        for lhs, rhs in gr.rules:
            rule_sets[lhs].add(rhs)
        at_position: dict = {}
        for v in gr.variables:
            at_position.setdefault(v.rsplit("|", 1)[0], []).append(frozenset(rule_sets[v]))
        assert all(len(set(sets)) == len(sets) for sets in at_position.values()), gr


def check_pinned_search(g, strategy, choose_keys):
    # for each parent and child of a yielding tree decomposition and of a
    # path decomposition: the child's search pinned to a subset of the
    # parent's keys (its images on the shared domain), chosen from the
    # sorted keys offered, is the child's unpinned search restricted to
    # those keys; yielding decompositions pin the whole domain of many
    # children
    search = _Search(g)
    t, _ = make_permutation_yielding(g, compute_tree_decomposition(g, strategy))
    for d in (t, compute_path_decomposition(g)):
        for p in d.positions:
            dom_p = closed_neighborhood(g, d.bag(p))
            parent = search.annotations(d.bag(p), dom_p, (), [()])
            for c in d.children(p):
                dom_c = closed_neighborhood(g, d.bag(c))
                pinned = tuple(v for v in dom_c if v in dom_p)
                at_p = [dom_p.index(v) for v in pinned]
                at_c = [dom_c.index(v) for v in pinned]
                offered = sorted({tuple(images[k] for k in at_p) for images in parent})
                keys = choose_keys(offered)
                expected = [
                    images for images in search.annotations(d.bag(c), dom_c, (), [()])
                    if tuple(images[k] for k in at_c) in keys
                ]
                assert search.annotations(d.bag(c), dom_c, pinned, keys) == expected, (p, c)


@settings(max_examples=50, deadline=None)
@given(connected_graphs(), st.permutations(range(1, 9)), st.sampled_from(["min-fill", "exact-small"]),
       st.data())
def test_pinned_search_filters_unpinned_search(g, label, strategy, data):
    # on a relabelled graph with at most MAX_GROUP automorphisms, as the
    # other search tests: the unpinned search of K8 takes seconds
    assume(len(brute_force_automorphisms(g)) <= MAX_GROUP)
    label = [v for v in label if v <= g.vertex_count]
    g = Graph(g.vertex_count, [(label[u - 1], label[v - 1]) for u, v in g.edges])
    check_pinned_search(g, strategy, lambda offered: data.draw(st.sets(st.sampled_from(offered))) if offered
                        else set())


def test_pinned_search_filters_unpinned_search_on_a_large_group():
    # the drawn graphs stop at MAX_GROUP automorphisms; the 8-vertex star
    # centred on 4 has 5040; each child is pinned to every other key offered
    g = Graph(8, [(4, v) for v in range(1, 9) if v != 4])
    assert len(brute_force_automorphisms(g)) == 5040
    check_pinned_search(g, "min-fill", lambda offered: set(offered[::2]))


@settings(max_examples=60, deadline=None)
@given(connected_graphs(), st.permutations(range(1, 9)), st.sampled_from(["min-fill", "exact-small", "path"]))
def test_fully_pinned_children_hold_annotations(g, label, kind):
    # on a relabelled graph and a yielding tree decomposition or a path
    # decomposition: a child whose whole domain its parent pins takes its
    # parent's keys as its annotations, with no search; every one of them,
    # kept or not, is an annotation by the definition (check_annotated_bag)
    label = [v for v in label if v <= g.vertex_count]
    g = Graph(g.vertex_count, [(label[u - 1], label[v - 1]) for u, v in g.edges])
    if kind == "path":
        d = compute_path_decomposition(g)
    else:
        d, _ = make_permutation_yielding(g, compute_tree_decomposition(g, kind))
    dom, ann, *_ = join_annotations(g, d)
    for c in range(1, len(d.parent)):
        if set(dom[c]) <= set(dom[d.parent[c]]):
            for images in ann[c]:
                assert check_annotated_bag(g, AnnotatedBag(d.bag_list[c], tuple(zip(dom[c], images)))), (c, images)


@st.composite
def decompositions(draw):
    """A connected graph and one of its decompositions, then zero to three
    breakages of it as a map from root path to bag: a bag loses a vertex,
    an edge is left uncovered (its second vertex leaves every bag that
    holds both), a vertex is added to a position whose parent lacks it
    (its positions fall apart, inside or outside the subtree of its
    highest), or a bag gets an out-of-range vertex."""
    g = draw(connected_graphs())
    kind = draw(st.sampled_from(["min-fill", "exact-small", "path", "yielding"]))
    if kind == "path":
        t = compute_path_decomposition(g)
    elif kind == "yielding":
        t = make_permutation_yielding(g, compute_tree_decomposition(g))[0]
    else:
        t = compute_tree_decomposition(g, kind)
    bags = {p: set(b) for p, b in t.bags.items()}
    paths = sorted(bags)
    for _ in range(draw(st.integers(0, 3))):
        how = draw(st.sampled_from(["lose", "uncover", "scatter", "out of range"]))
        p = draw(st.sampled_from(paths))
        if how == "lose" and bags[p]:
            bags[p].discard(draw(st.sampled_from(sorted(bags[p]))))
        elif how == "uncover" and g.edges:
            u, v = draw(st.sampled_from(sorted(g.edges)))
            for b in bags.values():
                if u in b:
                    b.discard(v)
        elif how == "scatter":
            v = draw(st.integers(1, g.vertex_count))
            if p and v not in bags[p[:-1]]:
                bags[p].add(v)
        elif how == "out of range":
            bags[p].add(draw(st.sampled_from([0, -1, g.vertex_count + 1, g.vertex_count + 7])))
    return g, TreeDecomposition({p: tuple(b) for p, b in bags.items()})


@settings(max_examples=300, deadline=None)
@given(decompositions())
def test_validation_matches_root_path_reference(drawn):
    # the width and every violation, text and order, on the dict-built
    # decomposition and on one rebuilt from its .td text by the int builder
    g, t = drawn
    expected = reference_validate_tree_decomposition(g, t)
    assert validate_tree_decomposition(g, t) == expected
    assert validate_tree_decomposition(g, read_pace_td(write_pace_td(t, g.vertex_count))) == expected
