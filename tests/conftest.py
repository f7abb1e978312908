import collections
import functools
import itertools
import json
import math
import operator
import os
import warnings
from fractions import Fraction
from typing import NamedTuple

import pytest

from autgrammar.annotate import (
    AnnotatedBag,
    AnnotationError,
    _build,
    _share,
    _spelled,
    build_aut_grammar,
    build_embedded_group_grammar,
    build_regular_aut_grammar,
)
from autgrammar.decomp import (
    TreeDecomposition,
    ValidationReport,
    Violation,
    compute_path_decomposition,
    compute_tree_decomposition,
    make_permutation_yielding,
    validate_tree_decomposition,
    yield_order_of,
)
from autgrammar.grammar import (
    Grammar,
    _compiled,
    _grammar,
    count_parse_trees,
    enumerate_language,
    erase_terminals,
    group_from_subgroup,
    membership,
    rename_terminals,
    trim,
    union_grammar,
)
from autgrammar.graph import Graph, closed_neighborhood, is_connected
from autgrammar.perm import Permutation
from autgrammar.polytope import PolytopeError, build_extended_formulation, emit_lp, parse_lp

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves
    pass
else:
    # in CI every property test draws the same examples on every run, so a
    # failure there reproduces locally with CI=1
    settings.register_profile("ci", derandomize=True)
    if os.environ.get("CI"):
        settings.load_profile("ci")


def format_graph(g: Graph) -> str:
    """Serialize to normalized edge-list text (round-trips with parse_graph)."""
    lines = [f"{g.vertex_count} {len(g.edges)}"]
    lines.extend(f"{u} {v}" for u, v in sorted(g.edges))
    return "\n".join(lines) + "\n"


def induced_subgraph(g: Graph, s) -> frozenset[tuple[int, int]]:
    """Edges of g with both endpoints in s, keeping the original labels."""
    sset = set()
    for v in s:
        g._check_vertex(v)
        sset.add(v)
    return frozenset(e for e in g.edges if e[0] in sset and e[1] in sset)


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(1, n)])


def cycle_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(1, n)] + [(1, n)])


def complete_graph(n: int) -> Graph:
    return Graph(n, [(i, j) for i in range(1, n) for j in range(i + 1, n + 1)])


def star_graph(leaves: int) -> Graph:
    center = leaves + 1
    return Graph(center, [(i, center) for i in range(1, center)])


def grid_graph(rows: int, cols: int) -> Graph:
    edges = [(cols * i + j, cols * i + j + 1) for i in range(rows) for j in range(1, cols)]
    edges += [(k, k + cols) for k in range(1, cols * (rows - 1) + 1)]
    return Graph(rows * cols, edges)


def binary_tree(depth: int) -> Graph:
    """The complete binary tree with 2^(depth+1) - 1 vertices; v's parent is v // 2."""
    m = 2 ** (depth + 1) - 1
    return Graph(m, [(v // 2, v) for v in range(2, m + 1)])


def fan_graph(n: int) -> Graph:
    """The fan F_n: a hub, vertex n + 1, joined to every vertex of the path
    1..n.  Its treewidth is 2, and its only automorphisms are the identity
    and the path's reversal."""
    return Graph(n + 1, [(i, n + 1) for i in range(1, n + 1)] + [(i, i + 1) for i in range(1, n)])


def spider(legs: int, length: int) -> Graph:
    """A centre (vertex 1) with `legs` paths of `length` vertices hanging off it."""
    edges = []
    for leg in range(legs):
        first = 2 + leg * length
        edges.append((1, first))
        edges.extend((v, v + 1) for v in range(first, first + length - 1))
    return Graph(1 + legs * length, edges)


def cube_graph() -> Graph:
    edges = []
    for a in range(8):
        for b in range(a + 1, 8):
            if bin(a ^ b).count("1") == 1:
                edges.append((a + 1, b + 1))
    return Graph(8, edges)


def petersen_graph() -> Graph:
    outer = [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)]
    spokes = [(i, i + 5) for i in range(1, 6)]
    inner = [(6, 8), (8, 10), (7, 10), (7, 9), (6, 9)]
    return Graph(10, outer + spokes + inner)


def cubic8() -> Graph:
    """A 3-regular graph on 8 vertices with 4 automorphisms: colour
    refinement leaves one class, but vertices 1 and 4 lie in no triangle.
    Its local partial automorphisms include maps that send a non-edge to
    an edge, and not every annotation of its path decomposition's first
    bag takes part in an automorphism."""
    return Graph(8, [(1, 2), (1, 3), (1, 4), (2, 5), (2, 8), (3, 6), (3, 7), (4, 7),
                     (4, 8), (5, 6), (5, 8), (6, 7)])


def random_connected_graph(rng, n: int) -> Graph:
    """Draw G(n, 0.45) until it is connected."""
    while True:
        edges = [
            (i, j)
            for i in range(1, n)
            for j in range(i + 1, n + 1)
            if rng.random() < 0.45
        ]
        g = Graph(n, edges)
        if is_connected(g):
            return g


def relabel(g: Graph, rng) -> Graph:
    """g with its vertices renamed by a permutation that rng draws."""
    label = list(g.vertices)
    rng.shuffle(label)
    return Graph(g.vertex_count, [(label[u - 1], label[v - 1]) for u, v in g.edges])


def reference_min_fill_order(g: Graph) -> list[int]:
    """The min-fill elimination order computed from scratch: at each step,
    every remaining vertex's fill is counted anew and the smallest vertex
    of least fill is eliminated."""
    adj: dict[int, set[int]] = {v: set(g.neighbors[v]) for v in g.vertices}
    order: list[int] = []
    while adj:
        best_v, best_fill = None, None
        for v in sorted(adj):
            ns = adj[v]
            fill = sum(1 for a in ns for b in ns if a < b and b not in adj[a])
            if best_fill is None or fill < best_fill:
                best_v, best_fill = v, fill
        ns = adj[best_v]
        for a in ns:
            for b in ns:
                if a != b:
                    adj[a].add(b)
            adj[a].discard(best_v)
        del adj[best_v]
        order.append(best_v)
    return order


def reference_elimination_decomposition(g: Graph, order: list[int]) -> TreeDecomposition:
    """The decomposition of a connected graph that an elimination ordering
    defines, eliminating on neighbour sets: the bag of v is v plus its
    neighbours in the fill graph when it is eliminated, and it hangs under
    the bag of the earliest-eliminated of them, after the bags hung there
    before it; the last vertex's bag is the root.  Built from root paths."""
    adj: dict[int, set[int]] = {v: set(g.neighbors[v]) for v in g.vertices}
    rank = {v: r for r, v in enumerate(order)}
    bags: dict[int, tuple[int, ...]] = {}
    kids: dict[int, list[int]] = {v: [] for v in order}
    for v in order:
        ns = adj.pop(v)
        for a in ns:
            adj[a] |= ns - {a}
            adj[a].discard(v)
        bags[v] = tuple(sorted(ns | {v}))
        if ns:
            kids[min(ns, key=rank.__getitem__)].append(v)
    paths = {order[-1]: ()}
    stack = [order[-1]]
    while stack:
        v = stack.pop()
        for j, c in enumerate(kids[v], start=1):
            paths[c] = paths[v] + (j,)
            stack.append(c)
    return TreeDecomposition({paths[v]: bags[v] for v in order})


def reference_validate_tree_decomposition(g: Graph, t: TreeDecomposition) -> ValidationReport:
    """validate_tree_decomposition on the root-path view, every position a
    tuple and every vertex's positions a list: the library's check before
    positions became preorder ints, which pins the report's text and
    order."""
    violations: list[Violation] = []
    holding: dict[int, list] = {}  # vertex -> positions holding it, in order
    for p, bag in t.bags.items():
        for v in bag:
            if not (1 <= v <= g.vertex_count):
                violations.append(Violation("T1", f"bag at {p} references out-of-range vertex {v}"))
            holding.setdefault(v, []).append(p)
    for v in g.vertices:
        if v not in holding:
            violations.append(Violation("T1", f"vertex {v} not covered by any bag"))
    for u, v in sorted(g.edges):
        if not any(v in t.bags[p] for p in holding.get(u, ())):
            violations.append(Violation("T2", f"edge {{{u},{v}}} not inside any bag"))
    for v in g.vertices:
        held = holding.get(v, [])
        top = min(held, key=len, default=None)
        holdset = set(held)
        # report the first position whose parent lacks v: a position outside
        # top's subtree has such an ancestor, which comes earlier in preorder
        for p in held:
            if p != top and p[:-1] not in holdset:
                below = p[:len(top)] == top
                where = f"are not connected at {p}" if below else "have no common root"
                violations.append(Violation("T3", f"positions holding vertex {v} {where}"))
                break
    return ValidationReport(max(len(b) for b in t.bags.values()) - 1, tuple(violations))


def check_full_check(gr: Grammar) -> None:
    """gr, which a builder or a transform made from ints without the
    public constructor's check, passes that check: its checked twin equals
    it, the two tables agree on start, ends, ids and kids, and gr's order
    lists each variable once, after every variable its rules use."""
    twin = Grammar(gr.sigma_max, gr.start, gr.variables, gr.rules, gr.accepts_empty)
    assert twin == gr
    table, fresh = _compiled(gr), _compiled(twin)
    assert (table.start, table.ends, list(table.ids), table.kids) == (
        fresh.start, fresh.ends, list(fresh.ids), fresh.kids)
    assert sorted(table.order) == list(range(len(gr.variables)))
    ordered = [False] * len(gr.variables)
    for v in table.order:
        assert all(ordered[k] for ks in table.kids[table.ends[v]:table.ends[v + 1]] for k in ks)
        ordered[v] = True


def check_every_maker(g: Graph, *grammars: Grammar) -> None:
    """`check_full_check` on g's embedded group on all of 1..m renamed by
    the reversal, on each of the grammars built for g, and on what each
    transform makes of it: its trim, its erasures to 1..m-1 and to nothing,
    its renaming by the reversal, the union of the two, and the group of
    the two cosets (for at most 1000 parse trees: it lists each coset's
    language)."""
    m = g.vertex_count
    reversal = Permutation(tuple(range(m, 0, -1)))
    made = [build_embedded_group_grammar(g, m, reversal)[1]]
    for gr in grammars:
        renamed = rename_terminals(gr, reversal)
        made += [gr, trim(gr), erase_terminals(gr, m - 1), erase_terminals(gr, 0), renamed,
                 union_grammar(gr, renamed)]
        if count_parse_trees(gr) <= 1000:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # the two cosets may be one
                made.append(group_from_subgroup(gr, [Permutation(tuple(range(1, m + 1))), reversal]))
    for gr in made:
        check_full_check(gr)


def inline_single_use(gr: Grammar) -> Grammar:
    """gr with each variable other than the start that has one rule, and
    one occurrence in all the rules' right-hand sides, written in place of
    that occurrence and dropped; the other variables and rules keep their
    names and order.  Applied to a tree grammar built with every such
    variable kept, it gives what `build_aut_grammar` writes.  The
    recursive reference for `annotate._spelled`, which spells on a stack."""
    count = collections.Counter(lhs for lhs, _ in gr.rules)
    uses = collections.Counter(x for _, rhs in gr.rules for x in rhs if isinstance(x, str))
    body = {lhs: rhs for lhs, rhs in gr.rules if lhs != gr.start and count[lhs] == uses[lhs] == 1}

    def spelled(rhs):
        return tuple(y for x in rhs for y in (spelled(body[x]) if x in body else (x,)))

    rules = tuple((lhs, spelled(rhs)) for lhs, rhs in gr.rules if lhs not in body)
    return Grammar(gr.sigma_max, gr.start, tuple(v for v in gr.variables if v not in body), rules)


def tree_grammar_stages(g: Graph, t: TreeDecomposition) -> tuple[Grammar, Grammar]:
    """The two grammars `build_aut_grammar` chooses between on t: the tree
    grammar as `_build` writes it, every position whose classes have one
    rule each that one rule names spliced into its parent's rules, and the
    same after `_share` and `_spelled`, its new variables named s:<k> in
    order.  It keeps the second when it is smaller."""
    written = dict(zip([p for p, ks in enumerate(t.kids) if not ks], yield_order_of(t).image))
    names, lhs, rhs, end = _build(g, t, written)
    return (_grammar(g.vertex_count, names, lhs, rhs),
            _grammar(g.vertex_count, *_spelled(*_share(names, lhs, rhs, end))))


def reference_subset_automaton(gr: Grammar) -> Grammar:
    """The subset construction (Rabin & Scott 1959) over a grammar whose
    every rule is B -> a B' or B -> a, each variable at one word position:
    the deterministic automaton of its words, numbered and named as
    `annotate._automaton` does.  A state is the tuple of the variables it
    stands for, in declaration order, and has one rule per terminal, in
    order of first appearance among its variables' rules.  Layer by layer
    from the start, a layer's states of one variable come first, in
    declaration order and named as it, then the others, s:<k> by first
    appearance.  The reference for `_automaton`, which reads the moves
    straight off the join instead of off a grammar."""
    rules = collections.defaultdict(list)
    for lhs, rhs in gr.rules:
        rules[lhs].append(rhs)
    rank = {v: i for i, v in enumerate(gr.variables)}
    name, fresh, out, layer = {(gr.start,): gr.start}, itertools.count(), [], [(gr.start,)]
    while layer:
        reached = {}
        for state in layer:
            moves = {}
            for v in state:
                for a, *to in rules[v]:
                    moves.setdefault(a, set()).update(to)
            for a, to in moves.items():
                target = tuple(sorted(to, key=rank.__getitem__))
                out.append((state, a, target))
                reached.setdefault(target)
        reached.pop((), None)  # the last position's terminals go nowhere
        layer = sorted((s for s in reached if len(s) == 1), key=lambda s: rank[s[0]])
        layer += [s for s in reached if len(s) > 1]
        name.update((s, s[0] if len(s) == 1 else f"s:{next(fresh)}") for s in layer)
    rules = tuple((name[state], (a, name[target]) if target else (a,)) for state, a, target in out)
    return Grammar(gr.sigma_max, gr.start, tuple(name.values()), rules)


def json_reference(gr) -> str:
    """What grammar_to_json must write: the document json.dumps lays out
    with indent=1, plus a final newline."""
    doc = {
        "sigma_max": gr.sigma_max,
        "start": gr.start,
        "variables": list(gr.variables),
        "rules": [[lhs, list(rhs)] for lhs, rhs in gr.rules],
    }
    if gr.accepts_empty:
        doc["accepts_empty"] = True
    return json.dumps(doc, indent=1) + "\n"


def reference_values(gr, weight, leaf, times, plus) -> dict:
    """Each variable's value in a semiring, by name, computed apart from
    the library's own pass and its table: a variable is valued once every
    variable its rules use is (Kahn's order), a rule's value folds its rhs
    with times from weight(rule index), a terminal a counting leaf(a), and
    a variable's value is plus over the list of its rules' values.  A
    variable on a cycle is never valued."""
    rules: dict = {v: [] for v in gr.variables}
    for r, (lhs, rhs) in enumerate(gr.rules):
        rules[lhs].append((r, rhs))
    uses = {v: {x for _, rhs in rs for x in rhs if isinstance(x, str)} for v, rs in rules.items()}
    users: dict = {v: [] for v in gr.variables}
    for v, xs in uses.items():
        for x in xs:
            users[x].append(v)
    waiting = {v: len(xs) for v, xs in uses.items()}
    ready = [v for v, c in waiting.items() if not c]
    value: dict = {}
    while ready:
        v = ready.pop()
        values = []
        for r, rhs in rules[v]:
            acc = weight(r)
            for x in rhs:
                acc = times(acc, value[x] if isinstance(x, str) else leaf(x))
            values.append(acc)
        value[v] = plus(values)
        for u in users[v]:
            waiting[u] -= 1
            if not waiting[u]:
                ready.append(u)
    return value


def reference_language(gr) -> list[tuple[int, ...]]:
    """The language as `enumerate_language` computed it before words were
    streamed, the reference `iter_language` is tested against: every
    variable's word set, bottom-up in the set semiring, then sorted."""
    def concat(xs: set, ys: set) -> set:
        return {x + y for x in xs for y in ys}

    union = lambda sets: set().union(*sets)  # noqa: E731
    raw = reference_values(gr, lambda r: {()}, lambda a: {(a,)}, concat, union)[gr.start]
    if gr.accepts_empty:
        raw = raw | {()}
    return sorted(raw)


def reference_lengths(gr, keep=None) -> dict:
    """Each variable's set of word lengths, by name, from `reference_values`
    in the set semiring; given keep, the terminals above it count 0."""
    union = lambda sets: set().union(*sets)  # noqa: E731
    leaf = lambda a: {1} if keep is None or a <= keep else {0}  # noqa: E731
    return reference_values(gr, lambda r: {0}, leaf, lambda xs, ys: {x + y for x in xs for y in ys}, union)


def reference_erase_terminals(gr, keep: int):
    """`erase_terminals` as it was computed before it ran on the input's
    table: drop the terminals above keep into an intermediate grammar,
    take every variable's set of word lengths there, expand each rule over
    the ways its nullable variables may vanish, then trim by name."""
    dropped = tuple((lhs, tuple(x for x in rhs if isinstance(x, str) or x <= keep)) for lhs, rhs in gr.rules)
    lengths = reference_lengths(Grammar(gr.sigma_max, gr.start, gr.variables, dropped, gr.accepts_empty))
    rules: list = []
    for lhs, rhs in dropped:
        if any(isinstance(x, str) and not lengths[x] for x in rhs):
            continue
        slots = [
            [x] if isinstance(x, int) or 0 not in lengths[x] else [None] if lengths[x] == {0} else [x, None]
            for x in rhs
        ]
        seen: set = set()  # each rule's expansions once; duplicate rules stay
        for combo in itertools.product(*slots):
            new_rhs = tuple(x for x in combo if x is not None)
            if new_rhs and new_rhs not in seen:
                seen.add(new_rhs)
                rules.append((lhs, new_rhs))
    accepts_empty = gr.accepts_empty or 0 in lengths[gr.start]
    # trim: keep what derives a word and is reached from the start through
    # rules whose variables all derive one
    live = reference_lengths(Grammar(keep, gr.start, gr.variables, tuple(rules), accepts_empty))
    usable = [(lhs, rhs) for lhs, rhs in rules if all(live[x] for x in rhs if isinstance(x, str))]
    reached, todo = {gr.start}, [gr.start]
    while todo:
        v = todo.pop()
        for lhs, rhs in usable:
            if lhs == v:
                for x in rhs:
                    if isinstance(x, str) and x not in reached:
                        reached.add(x)
                        todo.append(x)
    kept = {v for v in reached if live[v]} | {gr.start}
    return Grammar(
        keep,
        gr.start,
        tuple(v for v in gr.variables if v in kept),
        tuple(rule for rule in usable if rule[0] in kept),
        accepts_empty,
    )


def check_certificate(gr, x, feasible: bool, certificate) -> None:
    """Checks a projection verdict's certificate in Fractions, without the
    pricing pass.  A member's certificate is (weight, word) pairs, at most
    n + 1, with weights >= 0 summing to 1, whose combination is x, and
    every word passes `membership`.  A non-member's is multipliers pi of
    the rows (x, 1) with pi . (x, 1) > 0 >= pi . (w, 1) for every word w
    that `enumerate_language` lists."""
    x = [Fraction(v) for v in x]
    if feasible:
        assert 0 < len(certificate) <= len(x) + 1
        weights = [Fraction(weight) for weight, _ in certificate]
        assert all(weight >= 0 for weight in weights) and sum(weights) == 1
        for i, xi in enumerate(x):
            assert sum(weight * w.symbols[i] for weight, (_, w) in zip(weights, certificate)) == xi
        assert all(membership(gr, w) for _, w in certificate)
        return
    pi = [Fraction(p) for p in certificate]
    assert len(pi) == len(x) + 1

    def value(point) -> Fraction:
        return sum((p * v for p, v in zip(pi, [*point, 1])), Fraction(0))

    assert value(x) > 0
    # over the words, pi times the lcm of its denominators, in ints
    scale = math.lcm(*(p.denominator for p in pi))
    *slope, offset = (p.numerator * (scale // p.denominator) for p in pi)
    for w in enumerate_language(gr).words:
        assert len(w) == len(x) and sum(map(operator.mul, slope, w.symbols)) + offset <= 0, w


def _lp_corpus():
    """The tree and path grammars of a range of graphs, an erased grammar
    and an empty language with an unreachable rule.  btree4's path grammar
    (210 k rules) is left out for time."""
    graphs = [cycle_graph(5), cycle_graph(6), complete_graph(4), complete_graph(5),
              star_graph(4), path_graph(5), grid_graph(3, 3), cube_graph(), petersen_graph(),
              binary_tree(3),
              Graph(7, [(1, 2), (2, 3), (1, 4), (4, 5), (1, 6), (6, 7)])]
    for g in graphs:
        t, _ = make_permutation_yielding(g, compute_tree_decomposition(g, "min-fill"))
        yield build_aut_grammar(g, t)[1]
        yield build_regular_aut_grammar(g, compute_path_decomposition(g))[1]
    btree4 = binary_tree(4)
    t, _ = make_permutation_yielding(btree4, compute_tree_decomposition(btree4, "min-fill"))
    yield build_aut_grammar(btree4, t)[1]
    yield build_embedded_group_grammar(star_graph(4), 4)[1]
    yield Grammar(2, "B1", ("B1", "A", "C"), (("A", (1,)), ("C", ("A", 2)), ("C", (2, "A"))))


def corpus_formulations():
    """(grammar, formulation, words) for each `_lp_corpus` grammar."""
    for gr in _lp_corpus():
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the empty language warns
            ef = build_extended_formulation(gr)
        yield gr, ef, [w.symbols for w in enumerate_language(gr).words]


def corpus_points(words) -> list:
    """Three points of a language: its first word, the midpoint of its
    first and last words, and the first word with the last coordinate
    raised by 1/2.  The empty language has one point, of dimension 0."""
    if not words:
        return [()]
    a, b = words[0], words[-1]
    return [a, [Fraction(u + v, 2) for u, v in zip(a, b)], [*a[:-1], a[-1] + Fraction(1, 2)]]


def lp_corpus_points():
    """(parsed LP, point) for the `corpus_points` of each `_lp_corpus`
    grammar's LP file."""
    for _, ef, words in corpus_formulations():
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the empty language warns
            parsed = parse_lp(emit_lp(ef))
        for x in corpus_points(words):
            yield parsed, {f"x_{i}": v for i, v in enumerate(x, start=1)}


def lp_number_types(lp) -> tuple[list, list]:
    """The type of every number of a parsed LP, rows then bounds, in order."""
    rows = [type(n) for _, terms, _, rhs in lp.constraints for n in (*(c for c, _ in terms), rhs)]
    return rows, [type(b) for lo_hi in lp.bounds.values() for b in lo_hi]


def evaluate_point(ef, point: dict) -> bool:
    """Exact check of every flow row and bound of the formulation at a
    point of its flow variables: the reference that lifted parse trees and
    their convex combinations are tested against."""
    return all(
        sum(coef * point[v] for coef, v in terms) == rhs for _, terms, _, rhs in ef.constraints
    ) and all(lo <= point[y] <= hi for y, (lo, hi) in ef.lp.bounds.items())


def reference_simplex_feasible(rows: list, bounds: dict) -> bool:
    """The phase-1 simplex of `polytope._simplex_feasible` over Fractions,
    as it was before its tableau moved to integer rows, before it started
    from a crash basis and before it complemented the columns at their
    upper bounds: the reference its verdicts are tested against.  Bounded
    variables, an all-artificial starting basis, Dantzig's pricing (the
    largest reduced cost, ties to the smallest index) with Bland's rule
    after an iteration allowance, and the same ratio test; the two reach
    the same verdict by different pivots."""
    ZERO, ONE = Fraction(0), Fraction(1)

    cols: dict[str, int] = {}
    upper: list = []  # per column: finite span or None

    def col(v: str, hi) -> int:
        if v not in cols:
            cols[v] = len(cols)
            upper.append(hi)
        return cols[v]

    # shift every variable to start at zero; sort for deterministic ids
    for v in sorted(bounds):
        lo, hi = bounds[v]
        span = None if hi is None else Fraction(hi) - Fraction(lo)
        if span is not None and span < 0:
            return False
        col(v, span)

    mat: list[dict[int, Fraction]] = []
    values: list[Fraction] = []  # current value of each row's basic variable
    basis: list[int] = []
    n_structural = len(cols)

    for coeffs, rhs in rows:
        row: dict[int, Fraction] = {}
        shifted = rhs
        for v, c in coeffs.items():
            if c == 0:
                continue
            lo = Fraction(bounds[v][0])
            if lo:
                shifted -= c * lo
            row[cols[v]] = Fraction(c)
        if not row:
            if shifted != 0:
                return False
            continue
        if shifted < 0:
            row = {j: -c for j, c in row.items()}
            shifted = -shifted
        a = col(f"_a:{len(mat)}", None)
        row[a] = ONE
        mat.append(row)
        values.append(shifted)
        basis.append(a)

    at_upper: set[int] = set()  # nonbasic structural columns sitting at their span
    in_basis = set(basis)

    # reduced costs of min(sum of artificials) after eliminating the basis
    obj: dict[int, Fraction] = {}
    for i in range(len(mat)):
        for j, c in mat[i].items():
            if j != basis[i]:
                nv = obj.get(j, ZERO) - c
                if nv:
                    obj[j] = nv
                else:
                    obj.pop(j, None)

    bland_after = 50 + 10 * len(mat)
    iteration = 0
    while True:
        iteration += 1
        bland = iteration > bland_after
        entering, direction, best_score = None, 1, ZERO
        for j, c in obj.items():
            if j >= n_structural or j in in_basis:
                continue
            if j in at_upper:
                if c > 0:
                    score = c
                    d = -1
                else:
                    continue
            elif c < 0:
                score = -c
                d = 1
            else:
                continue
            if bland:
                if entering is None or j < entering:
                    entering, direction = j, d
            elif score > best_score or (score == best_score and (entering is None or j < entering)):
                entering, direction, best_score = j, d, score
        if entering is None:
            break

        # ratio test: tightest event wins; ties go to the smallest variable
        # index (the entering column itself counts as a bound-flip event)
        limit = upper[entering]
        event = (entering, -1, "flip") if limit is not None else None
        for i, row in enumerate(mat):
            d = row.get(entering)
            if not d:
                continue
            step = direction * d
            if step > 0:
                t = values[i] / step
                kind = "lower"
            else:
                span = upper[basis[i]]
                if span is None:
                    continue
                t = (span - values[i]) / (-step)
                kind = "upper"
            if limit is None or t < limit or (t == limit and (event is None or basis[i] < event[0])):
                limit, event = t, (basis[i], i, kind)
        if limit is None:
            raise PolytopeError("phase-1 objective unbounded; inconsistent system")

        if limit > 0:
            for i, row in enumerate(mat):
                d = row.get(entering)
                if d:
                    values[i] -= direction * d * limit

        if event[2] == "flip":
            if direction == 1:
                at_upper.add(entering)
            else:
                at_upper.discard(entering)
            continue

        leaving, r, kind = event
        if kind == "upper":
            at_upper.add(leaving)
        at_upper.discard(entering)
        in_basis.discard(leaving)
        in_basis.add(entering)
        piv_row = mat[r]
        piv = piv_row[entering]
        if piv != 1:
            mat[r] = piv_row = {j: c / piv for j, c in piv_row.items()}
        for i, row in enumerate(mat):
            if i == r:
                continue
            f = row.get(entering)
            if f:
                for j, c in piv_row.items():
                    nv = row.get(j, ZERO) - f * c
                    if nv:
                        row[j] = nv
                    else:
                        row.pop(j, None)
        f = obj.get(entering)
        if f:
            for j, c in piv_row.items():
                nv = obj.get(j, ZERO) - f * c
                if nv:
                    obj[j] = nv
                else:
                    obj.pop(j, None)
        basis[r] = entering
        values[r] = limit if direction == 1 else upper[entering] - limit

    residue = sum(
        (values[i] for i, b in enumerate(basis) if b >= n_structural), ZERO
    )
    return residue == 0


def reference_projection_verdict(ef, x) -> tuple[bool, tuple]:
    """The master LP of `polytope._projection_verdict` over Fractions, as
    it was before its basis inverse moved to integers (the adjugate over
    det B): the reference whose pivots, verdicts and certificates it is
    tested against, element for element.

    Phase 1 minimises the sum of one artificial per row over Fractions,
    with each row of negative rhs negated, a dense basis inverse and the
    lexicographic ratio test (Dantzig, Orden & Wolfe, 1955), under which
    no basis repeats whichever improving word enters.  Each round prices
    every word at once: with pi scaled to integers, a rule weighs pi_i * a
    summed over the positions i and symbols a it writes, and the max-plus
    pass yields the word of largest pi . (w, 1).  When that is <= 0, pi is
    the certificate; when no artificial is left positive, x is a member."""
    from autgrammar.perm import Word

    target = [Fraction(v) for v in x]
    n = ef.word_length
    if len(target) != n:
        raise PolytopeError(f"point has dimension {len(target)}, expected {n}")
    rule_of = {y: r for r, y in enumerate(ef.flow_vars)}
    writes: list[list] = [[] for _ in ef.flow_vars]  # per rule: (position, symbol)
    for i, (_, ((_, defined), *terms), _, _) in enumerate(ef.projection):
        if defined != f"x_{i + 1}":
            raise PolytopeError("a matrix-style formulation has no x coordinates to fix")
        for coef, y in terms:
            writes[rule_of[y]].append((i, -coef))
    gr = ef.grammar
    if len({lhs for lhs, _ in gr.rules}) < len(gr.variables):
        # a variable without rules: only the formulation of an empty
        # language has one, as every variable of another derives a word
        return False, (0,) * n + (1,)
    by_lhs: dict = {v: [] for v in gr.variables}
    for r, (lhs, rhs) in enumerate(gr.rules):
        by_lhs[lhs].append((r, rhs))
    pattern = [(r, i, a) for r, pairs in enumerate(writes) for i, a in pairs]

    m = n + 1
    sign = [-1 if b < 0 else 1 for b in target] + [1]
    beta = [abs(b) for b in target] + [Fraction(1)]  # the basic variables' values
    inverse = [[Fraction(int(i == j)) for j in range(m)] for i in range(m)]
    basis: list = [None] * m  # the word basic in each row; None: its artificial
    duals = [Fraction(1)] * m  # c_B B^-1 with every artificial basic
    while True:
        pi = [s * p for s, p in zip(sign, duals)]  # duals for the rows (x, 1)
        scale = math.lcm(*(p.denominator for p in pi))
        pi = [p.numerator * (scale // p.denominator) for p in pi]
        weight = [0] * len(gr.rules)
        for r, i, a in pattern:
            weight[r] += pi[i] * a
        # max-plus over integers; a rule's weight already counts what it
        # writes, so a terminal adds 0 (0 * a)
        score = reference_values(gr, weight.__getitem__, (0).__mul__, operator.add, max)
        gain = score[gr.start] + pi[n]  # scale * pi . (w, 1) of the best word w
        if gain <= 0:
            return False, tuple(pi)
        word = [0] * n
        stack = [gr.start]
        while stack:  # read w top-down through rules that attain the max
            v = stack.pop()
            for r, rhs in by_lhs[v]:
                kids = [x for x in rhs if isinstance(x, str)]
                if weight[r] + sum(score[x] for x in kids) == score[v]:
                    break
            for i, a in writes[r]:
                word[i] = a
            stack.extend(kids)
        column = [s * w for s, w in zip(sign, word + [1])]
        d = [sum(row[j] * c for j, c in enumerate(column) if c) for row in inverse]

        # the lexicographically smallest row of [beta | inverse] / d_i over d_i > 0
        rows = [i for i in range(m) if d[i] > 0]
        for k in range(-1, m):
            if len(rows) == 1:
                break
            ratio = {i: (beta[i] if k < 0 else inverse[i][k]) / d[i] for i in rows}
            low = min(ratio.values())
            rows = [i for i in rows if ratio[i] == low]
        r = rows[0]

        pivot_row = inverse[r] = [v / d[r] for v in inverse[r]]
        beta[r] /= d[r]
        for i in range(m):
            if i != r and d[i]:
                f = d[i]
                inverse[i] = [v - f * p for v, p in zip(inverse[i], pivot_row)]
                beta[i] -= f * beta[r]
        cost = Fraction(-gain, scale)  # the entering column's reduced cost
        duals = [p + cost * v for p, v in zip(duals, pivot_row)]
        basis[r] = Word(tuple(word))
        if not any(beta[i] for i in range(m) if basis[i] is None):
            return True, tuple((beta[i], w) for i, w in enumerate(basis) if w is not None and beta[i])


@functools.lru_cache(maxsize=None)
def oracle_annotations(g, s):
    """Every local partial automorphism of bag s, by brute force: each
    injective image of the bag whose closed neighbourhood is as large as
    the domain, each way of filling that neighbourhood from the boundary,
    and both conditions checked directly.  Sorted by the image tuple over
    the sorted domain, as pairs (vertex, image)."""
    bag = tuple(sorted(set(s)))
    dom = closed_neighborhood(g, bag)
    boundary = [v for v in dom if v not in bag]
    out = []
    for bag_images in itertools.permutations(g.vertices, len(bag)):
        nbar = set(bag_images)
        for v in bag_images:
            nbar.update(g.neighbors[v])
        if len(nbar) != len(dom):
            continue
        for rest in itertools.permutations(sorted(nbar - set(bag_images))):
            phi = dict(zip(bag, bag_images))
            phi.update(zip(boundary, rest))
            if all(
                g.has_edge(u, v) == g.has_edge(phi[u], phi[v])
                for u, v in itertools.combinations(dom, 2)
            ):
                out.append(tuple(sorted(phi.items())))
    return tuple(sorted(out, key=lambda pairs: tuple(img for _, img in pairs)))


# The paper's definitions of an annotated bag, of consistency and of the
# vertex map a whole-tree assignment unites into, checked one assignment
# at a time.  The tests use them as references independent of the search
# and the join in autgrammar.annotate.

def make_annotated_bag(s, mapping: dict[int, int]) -> AnnotatedBag:
    return AnnotatedBag(tuple(sorted(set(s))), tuple(sorted(mapping.items())))


def check_annotated_bag(g: Graph, b: AnnotatedBag) -> bool:
    """Both annotation conditions: image set matches the closed neighborhood
    of the image bag, and adjacency is preserved in both directions."""
    dom = closed_neighborhood(g, b.s)
    domain = tuple(v for v, _ in b.phi)
    if domain != dom:
        raise AnnotationError(
            f"phi domain {domain} differs from closed neighborhood {dom}"
        )
    phi = dict(b.phi)
    image = set(phi.values())
    if len(image) != len(phi):
        return False
    image_bag = [phi[v] for v in b.s]
    if image != set(closed_neighborhood(g, image_bag)):
        return False
    dom_edges = induced_subgraph(g, dom)
    img_edges = induced_subgraph(g, image)
    mapped = set()
    for u, v in dom_edges:
        a, c = phi[u], phi[v]
        e = (a, c) if a < c else (c, a)
        mapped.add(e)
    return mapped == img_edges


def consistent_bags(parent: AnnotatedBag, child: AnnotatedBag) -> bool:
    """Agreement on every vertex both annotations cover."""
    pphi, cphi = dict(parent.phi), dict(child.phi)
    for v in pphi.keys() & cphi.keys():
        if pphi[v] != cphi[v]:
            return False
    return True


class AnnotationAssignment(NamedTuple):
    """One annotated bag per position of a fixed tree decomposition."""

    decomposition: TreeDecomposition
    bags: tuple[tuple[tuple[int, ...], AnnotatedBag], ...]  # (position, bag)


def make_assignment(t: TreeDecomposition, mapping: dict) -> AnnotationAssignment:
    return AnnotationAssignment(t, tuple(sorted(mapping.items())))


def validate_assignment(g: Graph, a: AnnotationAssignment) -> None:
    """Erasure must reproduce the underlying decomposition, every bag must
    be a genuine annotation, and adjacent positions must be consistent."""
    t = a.decomposition
    positions = {p for p, _ in a.bags}
    if positions != set(t.positions):
        raise AnnotationError("assignment positions differ from the decomposition")
    report = validate_tree_decomposition(g, t)
    if not report.ok:
        raise AnnotationError(f"underlying decomposition invalid: {report.violations}")
    by_pos = dict(a.bags)
    for p in t.positions:
        b = by_pos[p]
        if b.s != t.bag(p):
            raise AnnotationError(f"annotation at {p} erases to {b.s}, bag is {t.bag(p)}")
        if not check_annotated_bag(g, b):
            raise AnnotationError(f"annotation at {p} is not a partial automorphism")
    for p in t.positions:
        for c in t.children(p):
            if not consistent_bags(by_pos[p], by_pos[c]):
                raise AnnotationError(f"annotations at {p} and {c} disagree")


def annotation_morphism(g: Graph, a: AnnotationAssignment) -> Permutation:
    """Unite all bag annotations into one vertex map and verify it is an
    automorphism; fails loudly otherwise."""
    validate_assignment(g, a)
    union: dict[int, int] = {}
    for _, b in a.bags:
        for v, img in b.phi:
            if v in union and union[v] != img:
                raise AnnotationError(f"inconsistent images for vertex {v}")
            union[v] = img
    if set(union) != set(g.vertices):
        raise AnnotationError("united annotation does not cover every vertex")
    image = tuple(union[v] for v in g.vertices)
    if sorted(image) != list(g.vertices):
        raise AnnotationError("united annotation is not a bijection")
    sigma = Permutation(image)
    for u, v in g.edges:
        if not g.has_edge(sigma(u), sigma(v)):
            raise AnnotationError("united annotation does not preserve adjacency")
    return sigma


@pytest.fixture(scope="session")
def p3():
    return path_graph(3)


@pytest.fixture(scope="session")
def p4():
    return path_graph(4)


@pytest.fixture(scope="session")
def c4():
    return cycle_graph(4)


@pytest.fixture(scope="session")
def c5():
    return cycle_graph(5)


@pytest.fixture(scope="session")
def c6():
    return cycle_graph(6)


@pytest.fixture(scope="session")
def k4():
    return complete_graph(4)


@pytest.fixture(scope="session")
def star5():
    return star_graph(4)


@pytest.fixture(scope="session")
def q3():
    return cube_graph()


@pytest.fixture(scope="session")
def petersen():
    return petersen_graph()


@pytest.fixture(scope="session")
def corpus(p3, p4, c4, c5, c6, k4, star5, q3):
    return {
        "P3": p3,
        "P4": p4,
        "C4": c4,
        "C5": c5,
        "C6": c6,
        "K4": k4,
        "star5": star5,
        "Q3": q3,
    }
