import itertools
import random

import pytest

from autgrammar.decomp import (
    DecompositionError,
    TdParseError,
    TreeDecomposition,
    _exact_order,
    _layout_bags,
    _min_fill_order,
    compute_path_decomposition,
    compute_tree_decomposition,
    introduced_order,
    make_permutation_yielding,
    read_pace_td,
    validate_tree_decomposition,
    write_pace_td,
    yield_order_of,
)
from autgrammar.annotate import build_aut_grammar, build_regular_aut_grammar, count_assignments
from autgrammar.grammar import count_parse_trees, grammar_to_json
from autgrammar.graph import DisconnectedGraphError, Graph, is_connected
from autgrammar.perm import Permutation
from conftest import (
    binary_tree,
    petersen_graph,
    spider,
    cycle_graph,
    grid_graph,
    path_graph,
    random_connected_graph,
    reference_min_fill_order,
    reference_validate_tree_decomposition,
    relabel,
)


def connected_graphs(max_vertices):
    """Every connected labelled graph on 1..max_vertices vertices."""
    graphs = []
    for m in range(1, max_vertices + 1):
        pairs = list(itertools.combinations(range(1, m + 1), 2))
        for mask in range(1 << len(pairs)):
            g = Graph(m, [p for k, p in enumerate(pairs) if mask >> k & 1])
            if is_connected(g):
                graphs.append(g)
    return graphs


def treewidth_oracle(g):
    """Branch and bound over elimination orderings; independent of the
    subset dynamic program used by the library."""
    best = [g.vertex_count - 1]

    def rec(adj, worst):
        if worst >= best[0]:
            return
        if len(adj) <= 1:
            best[0] = worst
            return
        for v in sorted(adj):
            ns = adj[v]
            nxt = {u: set(w for w in adj[u] if w != v) for u in adj if u != v}
            for a in ns:
                for b in ns:
                    if a != b:
                        nxt[a].add(b)
            rec(nxt, max(worst, len(ns)))

    rec({v: set(g.neighbors[v]) for v in g.vertices}, 0)
    return best[0]


def test_validate_path_example(p3):
    t = TreeDecomposition({(): (1, 2), (1,): (2, 3)})
    report = validate_tree_decomposition(p3, t)
    assert report.ok
    assert report.width == 1


def test_validate_t1_violation(p3):
    t = TreeDecomposition({(): (1, 2), (1,): (2,)})
    report = validate_tree_decomposition(p3, t)
    assert any(v.axiom == "T1" and "vertex 3" in v.message for v in report.violations)


def test_validate_t2_violation(c4):
    t = TreeDecomposition({(): (1, 2), (1,): (3, 4)})
    report = validate_tree_decomposition(c4, t)
    assert any(v.axiom == "T2" and "{2,3}" in v.message for v in report.violations)


def test_validate_t3_violation(p4):
    t = TreeDecomposition({(): (1, 2), (1,): (2, 3), (1, 1): (3, 4, 1)})
    report = validate_tree_decomposition(p4, t)
    assert any(v.axiom == "T3" for v in report.violations)


def test_shape_errors():
    with pytest.raises(DecompositionError, match="must contain the root"):
        TreeDecomposition({(1,): (1,)})
    with pytest.raises(DecompositionError, match="not well numbered at"):
        TreeDecomposition({(): (1,), (2,): (1,)})
    with pytest.raises(DecompositionError, match="not prefix closed at"):
        TreeDecomposition({(): (1,), (1, 1): (1,)})
    for p in ((0,), (-1,)):
        with pytest.raises(DecompositionError, match="child index must be >= 1 at"):
            TreeDecomposition({(): (1,), p: (1,)})


def test_min_fill_valid_on_corpus(corpus):
    for name, g in corpus.items():
        t = compute_tree_decomposition(g, "min-fill")
        assert validate_tree_decomposition(g, t).ok, name


def test_min_fill_matches_reference_on_relabelled_corpus(corpus):
    # relabelling moves the ties that min-fill breaks by the smallest vertex
    rng = random.Random(11)
    graphs = [*corpus.values(), *map(path_graph, (2, 9, 30)), *map(cycle_graph, (3, 10, 20)),
              grid_graph(3, 4), grid_graph(4, 4), binary_tree(3), binary_tree(4)]
    for g in graphs:
        for h in (g, *(relabel(g, rng) for _ in range(3))):
            assert [v for v, _ in _min_fill_order(h)] == reference_min_fill_order(h), sorted(h.edges)


def test_path_has_width_one():
    for n in (2, 3, 5, 7):
        t = compute_tree_decomposition(path_graph(n), "min-fill")
        assert t.width == 1


def test_cycles_have_width_two():
    for n in (3, 4, 5, 6):
        g = cycle_graph(n)
        exact = compute_tree_decomposition(g, "exact-small")
        assert exact.width == 2
        assert validate_tree_decomposition(g, exact).ok


def test_k4_width(k4):
    assert compute_tree_decomposition(k4, "exact-small").width == 3


def test_exact_small_matches_ordering_oracle(corpus):
    for name, g in corpus.items():
        t = compute_tree_decomposition(g, "exact-small")
        assert t.width == treewidth_oracle(g), name


def test_exact_small_tie_break():
    # brute force: among the elimination orders in which every prefix has
    # the minimum width for its own vertex set, the one whose reversal is
    # lexicographically smallest
    for g in connected_graphs(5):
        costs = {}

        def cost(done, v):
            # the vertices outside done | {v} that v reaches through done
            if (done, v) not in costs:
                seen, stack = {v}, [v]
                while stack:
                    for u in set(g.neighbors[stack.pop()]) - seen:
                        seen.add(u)
                        if u in done:
                            stack.append(u)
                costs[done, v] = len(seen - done - {v})
            return costs[done, v]

        prefix_widths, least = {}, {}
        for order in itertools.permutations(g.vertices):
            widths = []
            for k, v in enumerate(order):
                widths.append(max(widths[-1:] + [cost(frozenset(order[:k]), v)]))
                s = frozenset(order[: k + 1])
                least[s] = min(least.get(s, widths[-1]), widths[-1])
            prefix_widths[order] = widths
        optimal = [
            order
            for order, widths in prefix_widths.items()
            if all(w == least[frozenset(order[: k + 1])] for k, w in enumerate(widths))
        ]
        assert tuple(v for v, _ in _exact_order(g)) == min(optimal, key=lambda o: o[::-1]), g.edges


def test_exact_small_cap():
    g = path_graph(11)
    with pytest.raises(DecompositionError):
        compute_tree_decomposition(g, "exact-small")


def test_unknown_strategy_rejected(p3):
    # the CLI's argparse choices refuse it first; the library says so too
    with pytest.raises(DecompositionError, match="^unknown strategy 'bogus'$"):
        compute_tree_decomposition(p3, "bogus")


def test_disconnected_rejected():
    g = Graph(4, [(1, 2), (3, 4)])
    with pytest.raises(DisconnectedGraphError):
        compute_tree_decomposition(g, "min-fill")


def test_yielding_transform_p3(p3):
    t = TreeDecomposition({(): (1, 2), (1,): (2, 3)})
    out, alpha = make_permutation_yielding(p3, t)
    assert yield_order_of(out) == alpha and alpha.size == 3
    assert out.width == 1
    assert sorted(out.bag(p)[0] for p in out.leaves()) == [1, 2, 3]


def test_yielding_single_vertex():
    g = Graph(1, [])
    t = TreeDecomposition({(): (1,)})
    out, alpha = make_permutation_yielding(g, t)
    assert out.leaves() == ((),)
    assert alpha == Permutation((1,))


def test_yielding_fixed_point(p3):
    t = TreeDecomposition(
        {(): (1, 2), (1,): (2, 3), (1, 1): (3,), (2,): (1,), (3,): (2,)}
    )
    assert yield_order_of(t) == Permutation((3, 1, 2))
    out, alpha = make_permutation_yielding(p3, t)
    assert alpha == Permutation((3, 1, 2))
    assert [out.bag(p) for p in out.leaves()] == [(3,), (1,), (2,)]


def test_yielding_invariants_corpus(corpus):
    for name, g in corpus.items():
        t = compute_tree_decomposition(g, "min-fill")
        out, alpha = make_permutation_yielding(g, t)
        assert validate_tree_decomposition(g, out).ok, name
        assert out.width == t.width, name
        leaves = out.leaves()
        assert len(leaves) == g.vertex_count, name
        assert sorted(out.bag(p)[0] for p in leaves) == list(g.vertices), name
        assert alpha.image == tuple(out.bag(p)[0] for p in leaves)


def test_yielding_rejects_invalid(p3):
    bad = TreeDecomposition({(): (1, 2)})
    with pytest.raises(DecompositionError):
        make_permutation_yielding(p3, bad)


def test_yield_order_rejects_every_non_yielding_leaf_set():
    # leaves must be singletons holding 1..n once each: {1}, {3} skip 2
    for bags in ({(): (1, 3), (1,): (1,), (2,): (3,)},
                 {(): (1, 2), (1,): (1,), (2,): (1,)},
                 {(): (1, 2), (1,): (1, 2)}):
        with pytest.raises(DecompositionError):
            yield_order_of(TreeDecomposition(bags))


@pytest.mark.parametrize("entry", [
    make_permutation_yielding, build_aut_grammar, build_regular_aut_grammar, count_assignments,
])
def test_every_entry_runs_the_one_validity_check(p3, entry):
    # a path-shaped decomposition whose one bag leaves vertex 3 out: each
    # entry that takes a decomposition raises the same error, worded once
    with pytest.raises(DecompositionError) as caught:
        entry(p3, TreeDecomposition({(): (1, 2)}))
    assert str(caught.value) == "invalid decomposition: vertex 3 not covered by any bag"


def test_leaf_order_permutation_examples():
    def yo(seq):
        bags = {(): tuple(sorted(seq))}
        for i, v in enumerate(seq, start=1):
            bags[(i,)] = (v,)
        return yield_order_of(TreeDecomposition(bags))

    assert yo((1, 2, 3)) == Permutation((1, 2, 3))
    assert yo((2, 1, 3)) == Permutation((2, 1, 3))
    # alignment permutation reads the yield itself: see the language
    # contract exercised in test_grammar / test_acceptance
    assert yo((3, 1, 2)) == Permutation((3, 1, 2))


def test_pace_round_trip(c4):
    t = compute_tree_decomposition(c4, "min-fill")
    text = write_pace_td(t, c4.vertex_count)
    back = read_pace_td(text)
    assert back == t
    assert write_pace_td(back, c4.vertex_count) == text


def test_deep_min_fill_and_pace_round_trip():
    # min-fill eliminates a path end to end, so its decomposition is a
    # chain 1199 positions deep, beyond Python's default recursion limit
    g = path_graph(1200)
    t = compute_tree_decomposition(g, "min-fill")
    assert max(len(p) for p in t.positions) == 1199
    assert read_pace_td(write_pace_td(t, g.vertex_count)) == t
    out, alpha = make_permutation_yielding(g, t)
    assert validate_tree_decomposition(g, out).ok
    assert out.width == 1
    # the root singleton {1200} is merged into its child {1199, 1200},
    # which holds it, and a fresh leaf hangs under the deepest bag
    assert max(len(p) for p in out.positions) == 1199
    assert sorted(alpha.image) == list(g.vertices)


def test_pace_reroots_at_bag_one(p3):
    text = "s td 2 2 3\nb 2 1 2\nb 1 2 3\n2 1\n"
    t = read_pace_td(text)
    assert t.bag(()) == (2, 3)
    assert t.bag((1,)) == (1, 2)
    assert validate_tree_decomposition(p3, t).ok


def test_from_file_strategy(c4):
    t = compute_tree_decomposition(c4, "min-fill")
    back = read_pace_td(write_pace_td(t, c4.vertex_count))
    assert back == t
    assert validate_tree_decomposition(c4, back).ok
    bad = read_pace_td("s td 2 2 4\nb 1 1 2\nb 2 3 4\n1 2\n")  # edges {2,3}, {1,4} uncovered
    assert not validate_tree_decomposition(c4, bad).ok


def test_pace_errors():
    with pytest.raises(TdParseError):
        read_pace_td("b 1 1 2\n")
    with pytest.raises(TdParseError):
        read_pace_td("s td 2 2 3\nb 1 1\nb 1 2\n")
    with pytest.raises(TdParseError):
        read_pace_td("s td 2 2 3\nb 1 1\nb 2 2\n")  # bags not linked


def test_path_decomposition(p4, c4, k4, petersen):
    t = compute_path_decomposition(p4)
    assert t.is_path_shaped()
    assert t.width == 1
    assert validate_tree_decomposition(p4, t).ok
    t = compute_path_decomposition(c4)
    assert t.width == 2
    assert validate_tree_decomposition(c4, t).ok
    assert compute_path_decomposition(k4).width == 3
    assert compute_path_decomposition(petersen).width == 5

    def width(g, order):
        return max(len(b) for b in _layout_bags(g, order)) - 1

    # the layout is the lexicographically first one of minimum width, which
    # is what min() over all permutations in lexicographic order keeps
    rng = random.Random(7)
    sampled = [random_connected_graph(rng, m) for m in (6, 6, 7, 7)]
    for g in connected_graphs(5) + sampled:
        order = introduced_order(g, compute_path_decomposition(g))
        best = min(itertools.permutations(g.vertices), key=lambda o: width(g, o))
        assert tuple(order) == best, g.edges


def test_path_decomposition_disconnected():
    with pytest.raises(DisconnectedGraphError):
        compute_path_decomposition(Graph(3, [(1, 2)]))


def test_validate_t3_disjoint_subtrees():
    g = Graph(2, [(1, 2)])
    t = TreeDecomposition({(): (1, 2), (1,): (1,), (2,): (1,)})
    report = validate_tree_decomposition(g, t)
    assert report.ok  # both children hang off the root holding vertex 1
    t2 = TreeDecomposition({(): (2,), (1,): (1, 2), (2,): (1, 2)})
    report2 = validate_tree_decomposition(g, t2)
    assert any(v.axiom == "T3" for v in report2.violations)


def test_validate_t3_reports_from_the_highest_position():
    # vertex 3's positions (1, 1), (1, 1, 1, 1) and (2,) each have a parent
    # without it.  The highest, (2,), is no ancestor of the first, (1, 1),
    # though (1, 1) is an ancestor of (1, 1, 1, 1)
    g = Graph(3, [(1, 2), (1, 3)])
    t = TreeDecomposition({(): (1, 2), (1,): (1,), (1, 1): (1, 3), (1, 1, 1): (1,),
                           (1, 1, 1, 1): (1, 3), (2,): (1, 3)})
    report = validate_tree_decomposition(g, t)
    assert report.violations == (("T3", "positions holding vertex 3 have no common root"),)
    assert report == reference_validate_tree_decomposition(g, t)
    below = TreeDecomposition({p: b for p, b in t.bags.items() if p != (2,)})
    assert validate_tree_decomposition(g, below).violations == (
        ("T3", "positions holding vertex 3 are not connected at (1, 1, 1, 1)"),)


def test_yielding_reroots_below_top():
    # a chain of nested bags is merged into its last position
    g = path_graph(2)
    t = TreeDecomposition(
        {(): (1, 2), (1,): (1, 2), (1, 1): (1, 2), (1, 1, 1): (1,), (1, 1, 2): (2,)}
    )
    out, alpha = make_permutation_yielding(g, t)
    assert validate_tree_decomposition(g, out).ok
    assert out.width == t.width
    assert len(out.positions) == 3  # the chain's last position and its two leaves
    assert alpha.image == (1, 2)


def test_yielding_cuts_above_a_top_with_a_bare_sibling():
    # the root has two children, so nothing is merged.  Its second child
    # holds only 1, whose singleton leaf is under the first, so no picked
    # leaf is below it: the transform keeps the first child's subtree,
    # below the deepest position above every picked leaf
    g = path_graph(2)
    t = read_pace_td("s td 5 2 2\nb 1 1 2\nb 2 1 2\nb 3 1\nb 4 2\nb 5 1\n1 2\n2 3\n2 4\n1 5\n")
    assert t.bags == {(): (1, 2), (1,): (1, 2), (1, 1): (1,), (1, 2): (2,), (2,): (1,)}
    out, alpha = make_permutation_yielding(g, t)
    assert out == TreeDecomposition({(): (1, 2), (1,): (1,), (2,): (2,)})
    assert alpha.image == (1, 2)


def test_introduced_order(c4):
    pd = compute_path_decomposition(c4)
    order = introduced_order(c4, pd)
    assert sorted(order) == [1, 2, 3, 4]


def test_introduced_order_rejects_tree(c4):
    t = compute_tree_decomposition(c4, "min-fill")
    ty, _ = make_permutation_yielding(c4, t)
    with pytest.raises(DecompositionError):
        introduced_order(c4, ty)


def decompositions_of(g):
    """A min-fill decomposition of g, its yielding form and its path
    decomposition."""
    t = compute_tree_decomposition(g, "min-fill")
    return t, make_permutation_yielding(g, t)[0], compute_path_decomposition(g)


@pytest.mark.parametrize("make", [lambda: path_graph(300), lambda: binary_tree(5)], ids=["P300", "btree5"])
def test_library_stages_leave_the_root_path_view_unbuilt(make):
    # every stage indexes the preorder arrays, so none of them spells a
    # root path: on a path those have quadratic total length
    g = make()
    t = compute_tree_decomposition(g, "min-fill")
    y, _ = make_permutation_yielding(g, t)
    _, gr = build_aut_grammar(g, y)
    assert count_parse_trees(gr) == count_assignments(g, y) == (2 if g.vertex_count == 300 else 2 ** 31)
    grammar_to_json(gr)
    write_pace_td(y, g.vertex_count)
    back = read_pace_td(write_pace_td(t, g.vertex_count))
    assert validate_tree_decomposition(g, back).ok
    if g.vertex_count == 300:
        pd = compute_path_decomposition(g)
        _, regular = build_regular_aut_grammar(g, pd)
        assert count_parse_trees(regular) == 2
        assert pd._view is None
    assert t._view is None and y._view is None and back._view is None


def test_root_path_view_round_trips(corpus):
    for name, g in [*corpus.items(), ("petersen", petersen_graph()), ("spider", spider(3, 2))]:
        for t in decompositions_of(g):
            assert TreeDecomposition(t.bags) == t, name
            assert read_pace_td(write_pace_td(t, g.vertex_count)) == t, name


def test_positions_view_is_the_sorted_preorder(corpus):
    # the i-th root path is int position i: the paths sort as tuples, each
    # one's parent path is its prefix, and bags, children and leaves agree
    for name, g in [*corpus.items(), ("btree3", binary_tree(3)), ("spider", spider(3, 2))]:
        for t in decompositions_of(g):
            ps = t.positions
            assert list(ps) == sorted(ps) and ps[0] == (), name
            for i, p in enumerate(ps):
                assert t.bag(p) == t.bag_list[i] == t.bags[p]
                assert i == 0 or ps[t.parent[i]] == p[:-1]
                assert t.children(p) == tuple(p + (j,) for j in range(1, len(t.kids[i]) + 1))
                assert t.children(p) == tuple(ps[c] for c in t.kids[i])
            assert t.leaves() == tuple(p for p in ps if not t.children(p))


def test_int_builder_checks_the_preorder():
    assert TreeDecomposition._of([-1, 0, 1, 0], [(1,)] * 4) == TreeDecomposition(
        {(): (1,), (1,): (1,), (1, 1): (1,), (2,): (1,)})
    # position 4's parent 2 is not on the path from the root to position
    # 3, so no preorder numbers this tree that way
    for parent in ([-1, 0, 1, 0, 2], [0], [-1, 1], [-1, -1], []):
        with pytest.raises(DecompositionError):
            TreeDecomposition._of(parent, [(1,)] * len(parent))
