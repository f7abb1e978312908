import itertools
import random

import pytest

from autgrammar import annotate
from autgrammar.annotate import (
    AnnotatedBag,
    AnnotationError,
    _Search,
    _images_on,
    build_aut_grammar,
    count_assignments,
    enumerate_annotated_bags,
    join_annotations,
)
from autgrammar.decomp import (
    ROOT,
    DecompositionError,
    TreeDecomposition,
    compute_path_decomposition,
    compute_tree_decomposition,
    make_permutation_yielding,
)
from autgrammar.grammar import count_parse_trees, enumerate_language, trim
from autgrammar.graph import (
    DisconnectedGraphError,
    Graph,
    VertexRangeError,
    closed_neighborhood,
    stable_colouring,
)
from autgrammar.oracle import brute_force_automorphisms
from autgrammar.perm import Permutation, identity, permute_word, to_string_word
from autgrammar.polytope import build_extended_formulation
from conftest import (
    annotation_morphism,
    check_annotated_bag,
    complete_graph,
    consistent_bags,
    cubic8,
    cycle_graph,
    fan_graph,
    make_annotated_bag,
    make_assignment,
    oracle_annotations,
    path_graph,
    petersen_graph,
    relabel,
    spider,
)


def test_enumeration_matches_oracle_p3(p3):
    got = enumerate_annotated_bags(p3, (2,))
    assert tuple(b.phi for b in got) == oracle_annotations(p3, (2,))
    assert len(got) == 2
    assert dict(got[0].phi) == {1: 1, 2: 2, 3: 3}
    assert dict(got[1].phi) == {1: 3, 2: 2, 3: 1}

    got1 = enumerate_annotated_bags(p3, (1,))
    assert tuple(b.phi for b in got1) == oracle_annotations(p3, (1,))
    assert {frozenset(b.phi) for b in got1} == {
        frozenset({(1, 1), (2, 2)}),
        frozenset({(1, 3), (2, 2)}),
    }


def test_enumeration_matches_oracle_c4(c4):
    got = enumerate_annotated_bags(c4, (1,))
    assert len(got) == 8
    assert tuple(b.phi for b in got) == oracle_annotations(c4, (1,))


def test_enumeration_matches_oracle_more(p4, k4, star5):
    for g, s in [(p4, (2, 3)), (k4, (1,)), (k4, (1, 2)), (star5, (5,)), (star5, (1,))]:
        got = enumerate_annotated_bags(g, s)
        assert tuple(b.phi for b in got) == oracle_annotations(g, s)


def test_enumeration_matches_oracle_cube(q3):
    # a denser case where the closed neighborhood is a proper subset
    got = enumerate_annotated_bags(q3, (1,))
    assert tuple(b.phi for b in got) == oracle_annotations(q3, (1,))


def test_enumeration_drops_colour_changing_maps():
    # P4's bag {2}: 1 -> 3 with 2 -> 2 and 3 -> 1 is a local partial
    # automorphism, but maps an end to an inner vertex, so no automorphism
    # restricts to it
    p4 = path_graph(4)
    got = enumerate_annotated_bags(p4, (2,))
    assert [dict(b.phi) for b in got] == [{1: 1, 2: 2, 3: 3}, {1: 4, 2: 3, 3: 2}]
    assert len(oracle_annotations(p4, (2,))) == 4
    # a spider's inner leg vertex: locally its centre and leaf neighbours
    # may swap, globally never
    g = spider(3, 2)
    got = enumerate_annotated_bags(g, (2,))
    assert [dict(b.phi) for b in got] == [{1: 1, 2: v, 3: v + 1} for v in (2, 4, 6)]
    assert len(oracle_annotations(g, (2,))) == 6


def sandwich_cases(corpus):
    import random

    rng = random.Random(7)
    graphs = [*corpus.values(), path_graph(5), spider(3, 2), cubic8()]
    for g in list(graphs):
        for _ in range(2):
            label = list(g.vertices)
            rng.shuffle(label)
            graphs.append(Graph(g.vertex_count, [(label[u - 1], label[v - 1]) for u, v in g.edges]))
    for g in graphs:
        t, _ = make_permutation_yielding(g, compute_tree_decomposition(g, "min-fill"))
        pd = compute_path_decomposition(g)
        bags = {t.bag(p) for p in t.positions} | {pd.bag(p) for p in pd.positions}
        yield g, sorted(bags | {(v,) for v in g.vertices})


def test_enumeration_between_restrictions_and_oracle(corpus):
    # pruning may drop local partial automorphisms, but never the
    # restriction of an automorphism, and adds nothing
    for g, bags in sandwich_cases(corpus):
        auts = brute_force_automorphisms(g)
        for s in bags:
            dom = closed_neighborhood(g, s)
            restrictions = {tuple((v, sigma(v)) for v in dom) for sigma in auts}
            got = [b.phi for b in enumerate_annotated_bags(g, s)]
            assert got == sorted(got), (g, s)
            assert restrictions <= set(got) <= set(oracle_annotations(g, s)), (g, s)


def test_fully_pinned_search_keeps_the_neighbourhood_check(p4):
    # P4 = 1-2-3-4, bag (1,), domain (1, 2).  Pinned on the bag alone, the
    # search rejects 1 -> 2, whose image bag's neighbourhood
    # {1, 2, 3} is larger than the domain, as soon as the bag is placed
    search = _Search(p4)
    assert search.annotations((1,), (1, 2), (1,), {(1,), (2,), (4,)}) == [(1, 2), (4, 3)]
    # a child whose whole domain its parent pins takes the distinct keys
    # of its parent's annotations as they stand, without a search or a
    # check, and each is an annotation
    t = yielding(p4)
    dom, ann, *_ = join_annotations(p4, t)
    pinned = [c for c in range(1, len(t.parent)) if set(dom[c]) <= set(dom[t.parent[c]])]
    assert pinned
    for c in pinned:
        p = t.parent[c]
        assert ann[c] == sorted({tuple(im[dom[p].index(v)] for v in dom[c]) for im in ann[p]}), c
        assert all(check_annotated_bag(p4, AnnotatedBag(t.bag_list[c], tuple(zip(dom[c], im)))) for im in ann[c])


def colour_preserving_oracle(g, s) -> list:
    """The image tuples, over the sorted domain, of oracle_annotations(g, s)
    that send every vertex to one of its own stable colour."""
    colour = stable_colouring(g)
    return [tuple(w for _, w in phi) for phi in oracle_annotations(g, s)
            if all(colour[v] == colour[w] for v, w in phi)]


def test_search_matches_colour_preserving_oracle():
    # the search's contract, checked against the brute-force oracle and not
    # against itself: unpinned, a bag's colour-preserving local partial
    # automorphisms; pinned, those whose images on the pinned vertices are
    # among the keys.  The bags are those of a yielding tree decomposition
    # and of a path decomposition, pinned as the join pins them, then
    # every vertex and two non-adjacent vertices, pinned at one vertex of
    # the domain: there the search places vertices with no placed neighbour
    rng = random.Random(3)
    for g in [path_graph(5), cycle_graph(6), cubic8(), spider(3, 2)]:
        for h in (g, relabel(g, rng)):
            search = _Search(h)
            cases = []  # (bag, pinned, keys)
            for d in (yielding(h), compute_path_decomposition(h)):
                cases.append((d.bag(ROOT), (), [()]))
                for p in d.positions:
                    dom_p = closed_neighborhood(h, d.bag(p))
                    for c in d.children(p):
                        pinned = tuple(v for v in closed_neighborhood(h, d.bag(c)) if v in dom_p)
                        at = [dom_p.index(v) for v in pinned]
                        keys = sorted({tuple(im[k] for k in at) for im in colour_preserving_oracle(h, d.bag(p))})
                        cases += [(d.bag(c), pinned, keys), (d.bag(c), pinned, keys[::2])]
            pair = next((u, v) for u, v in itertools.combinations(h.vertices, 2) if not h.has_edge(u, v))
            colour = stable_colouring(h)
            for s in [(v,) for v in h.vertices] + [pair]:
                dom = closed_neighborhood(h, s)
                for u in (dom[0], dom[-1]):
                    cases.append((s, (u,), [(w,) for w in h.vertices if colour[w] == colour[u]][::2]))
            for s, pinned, keys in cases:
                dom = closed_neighborhood(h, s)
                expected = colour_preserving_oracle(h, s)
                assert search.annotations(s, dom, (), [()]) == expected, (h, s)
                at = [dom.index(v) for v in pinned]
                wanted = set(keys)
                filtered = [im for im in expected if tuple(im[k] for k in at) in wanted]
                assert search.annotations(s, dom, pinned, keys) == filtered, (h, s, pinned)


def test_search_of_a_fan_hub_is_not_bounded_by_the_recursion_limit():
    # the hub's bag of the fan F_1100 has every vertex in its domain, so
    # the search has 1101 levels, past Python's default recursion limit;
    # its annotations are the restrictions of the two automorphisms
    n = 1100
    g = fan_graph(n)
    dom = closed_neighborhood(g, (n + 1,))
    assert dom == tuple(g.vertices)
    reversal = (*range(n, 0, -1), n + 1)
    assert _Search(g).annotations((n + 1,), dom, (), [()]) == [tuple(g.vertices), reversal]


def partners_by_key_id(join, c):
    """Per key id of child c, the kept annotations at c with that key: a
    pinned child's key id k is its annotation k alone."""
    if join.members[c] is not None:
        return join.members[c]
    return [[k] if kept is not None else [] for k, kept in enumerate(join.cls[c])]


def test_grouped_links_match_all_pairs(corpus):
    # the partners at child c of kept annotation i at p, read as
    # members[c][up[c][i]] (annotation up[c][i] alone where the parent
    # pins c's whole domain), are exactly the kept annotations at c whose
    # images agree with i's on the shared domain; the key ids in use are
    # exactly those of kept parents, and every kept annotation at c is
    # reached exactly once
    for g, _ in sandwich_cases(corpus):
        for d in (yielding(g), compute_path_decomposition(g)):
            join = join_annotations(g, d)
            dom, ann, cls, _, up, members = join
            kept = [[i for i, k in enumerate(ks) if k is not None] for ks in cls]
            for p, kids in enumerate(d.kids):
                for c in kids:
                    assert len(up[c]) == len(ann[p])
                    assert (members[c] is None) == (set(dom[c]) <= set(dom[p])), (g, p, c)
                    by_key = partners_by_key_id(join, c)
                    for i in kept[p]:
                        phi = dict(zip(dom[p], ann[p][i]))
                        expected = [
                            j for j in kept[c]
                            if all(phi.get(v, w) == w for v, w in zip(dom[c], ann[c][j]))
                        ]
                        assert expected and by_key[up[c][i]] == expected, (g, p, c, i)
                    assert {k for k, js in enumerate(by_key) if js} == {up[c][i] for i in kept[p]}
                    assert sorted(j for js in by_key for j in js) == kept[c]


@pytest.mark.parametrize("make", [lambda: complete_graph(5), petersen_graph], ids=["K5", "Petersen"])
def test_same_domain_children_share_their_parents_annotations(make):
    # a child whose domain equals its parent's holds the parent's very
    # annotation list, with identity key ids, and no member lists; the
    # count over the join still equals |Aut| from the oracle
    g = make()
    t = yielding(g)
    dom, ann, cls, _, up, members = join_annotations(g, t)
    same = [c for c in range(1, len(t.parent)) if dom[c] == dom[t.parent[c]]]
    assert same
    for c in same:
        assert ann[c] is ann[t.parent[c]]
        assert up[c] == range(len(ann[c])) and members[c] is None
    assert count_assignments(g, t) == len(brute_force_automorphisms(g))


def test_enumeration_rejects_empty(p3):
    with pytest.raises(AnnotationError):
        enumerate_annotated_bags(p3, ())


def test_enumeration_count_invariant_under_relabeling(c5):
    # relabel by a rotation and check bag counts transport
    rho = Permutation((2, 3, 4, 5, 1))
    relabeled = Graph(5, [(rho(u), rho(v)) for u, v in c5.edges])
    for s in [(1,), (1, 2), (3,)]:
        image = tuple(sorted(rho(v) for v in s))
        assert len(enumerate_annotated_bags(c5, s)) == len(
            enumerate_annotated_bags(relabeled, image)
        )


def test_check_annotated_bag(p3):
    ok = make_annotated_bag((2,), {1: 1, 2: 2, 3: 3})
    assert check_annotated_bag(p3, ok)
    bad = make_annotated_bag((2,), {1: 2, 2: 1, 3: 3})
    assert not check_annotated_bag(p3, bad)
    with pytest.raises(AnnotationError):
        check_annotated_bag(p3, make_annotated_bag((2,), {1: 1, 2: 2}))


def test_check_cardinality_case(p3):
    # bag {1} mapped onto vertex 2 cannot satisfy the image condition:
    # the closed neighborhoods have different sizes
    assert not check_annotated_bag(p3, make_annotated_bag((1,), {1: 2, 2: 1}))


def test_consistent_bags(p3):
    a = make_annotated_bag((2,), {1: 1, 2: 2, 3: 3})
    b = make_annotated_bag((1,), {1: 1, 2: 2})
    c = make_annotated_bag((1,), {1: 3, 2: 2})
    assert consistent_bags(a, b)
    assert not consistent_bags(a, c)
    d1 = make_annotated_bag((1,), {1: 1, 2: 2})
    far = make_annotated_bag((9,), {9: 9})
    assert consistent_bags(d1, far)  # disjoint domains


def yielding(g):
    t = compute_tree_decomposition(g, "min-fill")
    out, _ = make_permutation_yielding(g, t)
    return out


def test_annotation_morphism_identity(p3):
    t = yielding(p3)
    idmaps = {
        p: make_annotated_bag(t.bag(p), {v: v for v in closed_neighborhood(p3, t.bag(p))})
        for p in t.positions
    }
    a = make_assignment(t, idmaps)
    assert annotation_morphism(p3, a) == Permutation((1, 2, 3))


def test_annotation_morphism_reversal(p3):
    t = yielding(p3)
    rev = {1: 3, 2: 2, 3: 1}
    maps = {
        p: make_annotated_bag(
            t.bag(p), {v: rev[v] for v in closed_neighborhood(p3, t.bag(p))}
        )
        for p in t.positions
    }
    sigma = annotation_morphism(p3, make_assignment(t, maps))
    assert sigma == Permutation((3, 2, 1))
    assert sigma in brute_force_automorphisms(p3)


def test_annotation_morphism_rotation(c4):
    t = yielding(c4)
    rot = {1: 2, 2: 3, 3: 4, 4: 1}
    maps = {
        p: make_annotated_bag(
            t.bag(p), {v: rot[v] for v in closed_neighborhood(c4, t.bag(p))}
        )
        for p in t.positions
    }
    sigma = annotation_morphism(c4, make_assignment(t, maps))
    assert sigma == Permutation((2, 3, 4, 1))
    assert sigma in brute_force_automorphisms(c4)


def test_annotation_morphism_rejects_inconsistent(p3):
    t = yielding(p3)
    maps = {}
    for i, p in enumerate(t.positions):
        src = {1: 1, 2: 2, 3: 3} if i % 2 == 0 else {1: 3, 2: 2, 3: 1}
        dom = closed_neighborhood(p3, t.bag(p))
        maps[p] = make_annotated_bag(t.bag(p), {v: src[v] for v in dom})
    with pytest.raises(AnnotationError):
        annotation_morphism(p3, make_assignment(t, maps))


def oracle_assignments(g, t):
    """Every assignment of one local partial automorphism (from the
    brute-force oracle) per position of t in which each child's agrees
    with its parent's (consistent_bags), by a DFS over the positions in
    preorder.  Independent of the search and the join."""
    positions = t.positions
    bags = {p: [AnnotatedBag(t.bag(p), phi) for phi in oracle_annotations(g, t.bag(p))] for p in positions}

    def extend(chosen):
        if len(chosen) == len(positions):
            yield make_assignment(t, chosen)
            return
        p = positions[len(chosen)]
        for b in bags[p]:
            if p == ROOT or consistent_bags(chosen[p[:-1]], b):
                yield from extend({**chosen, p: b})

    return list(extend({}))


def test_assignment_bijection_with_automorphisms(p3, p4, c4, k4):
    for g in (p3, p4, c4, k4):
        t = yielding(g)
        auts = brute_force_automorphisms(g)
        assignments = oracle_assignments(g, t)
        assert len(assignments) == len(auts)
        morphisms = sorted(annotation_morphism(g, a) for a in assignments)
        assert morphisms == list(auts)


def test_restrictions_of_automorphisms_are_valid(c4):
    # completeness: restricting any automorphism to every closed
    # neighborhood gives a valid assignment
    t = yielding(c4)
    for sigma in brute_force_automorphisms(c4):
        maps = {
            p: make_annotated_bag(
                t.bag(p),
                {v: sigma(v) for v in closed_neighborhood(c4, t.bag(p))},
            )
            for p in t.positions
        }
        a = make_assignment(t, maps)
        assert annotation_morphism(c4, a) == sigma


def test_count_assignments(c4):
    assert count_assignments(c4, yielding(c4)) == 8
    # cubic8's path decomposition: most annotations of the root bag take
    # part in no automorphism, so the join drops them and they count 0
    g, pd = cubic8(), compute_path_decomposition(cubic8())
    assert None in join_annotations(g, pd).cls[0]
    assert count_assignments(g, pd) == len(brute_force_automorphisms(g)) == 4


def test_count_assignments_names_the_first_violation():
    # one bag {1, 2} for P40 leaves 38 vertices uncovered and 38 edges
    # outside every bag; the error names the first, as the builders do
    with pytest.raises(DecompositionError) as caught:
        count_assignments(path_graph(40), TreeDecomposition({(): (1, 2)}))
    assert str(caught.value) == "invalid decomposition: vertex 3 not covered by any bag"


def test_count_assignments_keys_an_empty_bag_on_no_index(monkeypatch):
    # adjacent bags of a connected graph share no vertex of their domains
    # or at least two (N[v] of a shared v), so only a vertex-free bag keys
    # its parent's annotations on no index: each takes the empty key
    calls = []

    def images_on(ks):
        calls.append(list(ks))
        return _images_on(ks)

    monkeypatch.setattr(annotate, "_images_on", images_on)
    t = TreeDecomposition({(): (1, 2), (1,): (2, 3), (1, 1): ()})
    assert count_assignments(path_graph(3), t) == 2
    assert [] in calls and _images_on([])((5, 6)) == ()


@pytest.mark.parametrize("g, t", [
    (Graph(4, [(1, 2), (3, 4)]), TreeDecomposition({(): (1, 2), (1,): (3, 4)})),
    (Graph(2, []), TreeDecomposition({(): (1,), (1,): (2,)})),
], ids=["2K2", "2K1"])
def test_count_assignments_requires_a_connected_graph(g, t):
    # valid decompositions of disconnected graphs: the two components'
    # consistent annotations combine freely (16 on 2K2, 4 on 2K1), more
    # than the 8 and 2 automorphisms, so the count refuses them
    with pytest.raises(DisconnectedGraphError):
        count_assignments(g, t)


def test_enumeration_rejects_out_of_range_vertex(p3):
    # closed_neighborhood, the owner of the vertex check, names the vertex
    with pytest.raises(VertexRangeError, match="7"):
        enumerate_annotated_bags(p3, (1, 7))


# a cubic graph on 28 vertices with no automorphism but the identity
RIGID_CUBIC28 = (
    "1-14 1-20 1-28 2-8 2-11 2-14 3-17 3-21 3-24 4-7 4-19 4-26 5-6 5-13 5-16 6-17 6-24 "
    "7-21 7-22 8-10 8-15 9-11 9-18 9-28 10-20 10-23 11-23 12-21 12-24 12-25 13-18 13-28 "
    "14-19 15-25 15-27 16-17 16-22 18-20 19-23 22-27 25-26 26-27"
)


def bfs_automorphism_count(g: Graph) -> int:
    """|Aut(g)| of a connected graph by a backtracking of its own: the
    vertices in BFS order from vertex 1, each mapped to an unused vertex of
    its degree that is adjacent exactly to the images of its mapped
    neighbours."""
    order, seen = [1], {1}
    for v in order:
        for u in sorted(g.neighbors[v]):
            if u not in seen:
                seen.add(u)
                order.append(u)
    img: dict[int, int] = {}

    def extend(k: int) -> int:
        if k == len(order):
            return 1
        v, total = order[k], 0
        for c in g.vertices:
            if c in img.values() or len(g.neighbors[c]) != len(g.neighbors[v]):
                continue
            if all((w in g.neighbors[v]) == (x in g.neighbors[c]) for w, x in img.items()):
                img[v] = c
                total += extend(k + 1)
                del img[v]
        return total

    return extend(0)


def test_top_down_pass_prunes_below_a_kept_parent():
    # on this graph's min-fill yielding decomposition the join's top-down
    # pass drops, below a kept parent, the annotations whose key id no
    # kept parent annotation uses; without that step the grammar holds
    # unreachable variables (32 rules, not 29, and no formulation), and
    # without the whole pass it holds 34 rules.  Those counts include B1's
    # unit rule to the one root class, whose rule is now B1's own, and
    # every class with one rule that one rule names, which is now written
    # into that rule: the kept grammar is the one rule B1 -> the identity's
    # word, while an unreachable class, which no rule names, keeps its
    # variable and rule
    g = Graph(28, [tuple(map(int, e.split("-"))) for e in RIGID_CUBIC28.split()])
    t, alpha = make_permutation_yielding(g, compute_tree_decomposition(g, "min-fill"))
    assert t.width == 5
    _, gr = build_aut_grammar(g, t)
    assert len(gr.rules) == 1
    assert trim(gr) == gr
    assert count_parse_trees(gr) == count_assignments(g, t) == bfs_automorphism_count(g) == 1
    assert enumerate_language(gr).words == (permute_word(to_string_word(identity(28)), alpha),)
    build_extended_formulation(gr)
