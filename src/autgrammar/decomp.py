"""Tree decompositions as terms over tree-like position sets.

A decomposition holds its positions as preorder ints: position 0 is the
root, position i > 0 has parent[i] < i, and the positions of every
subtree are consecutive, its own first.  It keeps one parent list, one
bag list (each bag a sorted tuple of vertices) and each position's
children, in order, derived once from the parents.  Every stage of the
library indexes these lists by position, so no stage pays for depth.

The public view names each position by its root path, a tuple of child
indices (the root is the empty tuple; child j of p is p + (j,)): the set
is prefix closed and well numbered, and sorting it as tuples gives
exactly the preorder, so the i-th position in `positions` is int
position i.  The view (`positions`, `bags`, `bag(p)`, `children(p)`,
`leaves()`, `repr`) is derived from the arrays on first use and cached;
on a path it has quadratic total length, which is why no library stage
reads it.  TreeDecomposition({path: bag}) checks the shape of a path
set and builds the arrays from it.

The module covers: axiom validation (T1 vertex cover, T2 edge cover, T3
connected per-vertex subterm), construction from elimination orderings
(min-fill heuristic and an exact search for small graphs, each bag read
from the record of the one elimination that picks the order), PACE-style
.td file import/export, path decompositions from vertex layouts (exact
for small graphs, by the same subset search), and the transform that
turns any valid decomposition into a permutation-yielding one (every
vertex in exactly one leaf bag, as a singleton).  The transform first
merges each position with one child whose bag contains its own into that
child; compute_tree_decomposition and the path decompositions keep such
nested links.

It is also the one owner of what a decomposition is and what it yields.
Every entry that takes a decomposition from its caller (the yielding
transform, both grammar builders and annotate.count_assignments) checks it
with require_valid, and the builders and the count first require a
connected graph, on which alone consistent whole-tree annotations
correspond to automorphisms.  yield_order_of is the one test that a
decomposition is permutation yielding.  Each raises DecompositionError.
"""

from __future__ import annotations

import heapq
from typing import NamedTuple

from . import PreconditionError
from .graph import Graph, require_connected
from .perm import Permutation

Pos = tuple[int, ...]

ROOT: Pos = ()

EXACT_SMALL_CAP = 10


class DecompositionError(PreconditionError):
    pass


class TdParseError(DecompositionError):
    pass


def _preorder(root, adj: dict) -> tuple[list, list[int]]:
    """Number a tree from its root in preorder: the nodes in that order,
    and each one's parent's number (-1 for the root).  The children of v
    are the entries of adj[v] not yet numbered, in order; with children
    lists that is every entry, and with neighbor lists of an undirected
    tree the parent is the one entry skipped.  Nodes not reached are left
    out."""
    nodes: list = []
    parent: list[int] = []
    up = {root: -1}  # each node numbered or stacked -> its parent's number
    stack = [root]
    while stack:
        v = stack.pop()
        parent.append(up[v])
        i = len(nodes)
        nodes.append(v)
        kids = [c for c in adj.get(v, ()) if c not in up]
        if kids:
            up.update(dict.fromkeys(kids, i))
            stack.extend(reversed(kids))
    return nodes, parent


class TreeDecomposition:
    """A tree of bags (sorted vertex tuples) over preorder int positions.

    parent[i] is the parent of position i (-1 for the root, 0), bag_list[i]
    its bag and kids[i] its children in order.  Immutable after
    construction by convention; the constructors check the shape of the
    position set but not the decomposition axioms (use
    validate_tree_decomposition for those).  The root-path view is built
    on first use and cached in _view: (positions, bags, index of each
    path).
    """

    __slots__ = ("parent", "bag_list", "kids", "_view")

    def __init__(self, bags: dict[Pos, tuple[int, ...]]):
        if ROOT not in bags:
            raise DecompositionError("position set must contain the root")
        for p in bags:
            if p != ROOT and p[:-1] not in bags:
                raise DecompositionError(f"position set not prefix closed at {p}")
            if p != ROOT and p[-1] > 1 and p[:-1] + (p[-1] - 1,) not in bags:
                raise DecompositionError(f"position set not well numbered at {p}")
            if p != ROOT and p[-1] < 1:
                raise DecompositionError(f"child index must be >= 1 at {p}")
        positions = tuple(sorted(bags))
        index = dict(zip(positions, range(len(positions))))
        parent = [-1, *(index[p[:-1]] for p in positions[1:])]
        self._set(parent, [tuple(sorted(set(bags[p]))) for p in positions])

    @classmethod
    def _of(cls, parent: list[int], bag_list: list[tuple[int, ...]]) -> TreeDecomposition:
        """The decomposition with these parents and bags, each bag a
        sorted tuple of distinct vertices: the constructor of every
        builder here.  Raises DecompositionError unless parent numbers a
        tree in preorder."""
        t = cls.__new__(cls)
        t._set(parent, bag_list)
        return t

    def _set(self, parent: list[int], bag_list: list[tuple[int, ...]]) -> None:
        # in preorder, the parent of i is i - 1 or one of its ancestors:
        # the stack holds the path from the root to i - 1
        n = len(parent)
        if not n or parent[0] != -1 or len(bag_list) != n:
            raise DecompositionError("position 0 must be the one root, with one bag per position")
        kids: list[list[int]] = [[] for _ in range(n)]
        stack = [0]
        for i in range(1, n):
            up = parent[i]
            while stack and stack[-1] != up:
                stack.pop()
            if not stack:
                raise DecompositionError(f"parent {up} of position {i} breaks the preorder")
            kids[up].append(i)
            stack.append(i)
        self.parent = list(parent)
        self.bag_list = list(bag_list)
        self.kids = list(map(tuple, kids))
        self._view = None

    def _path(self, i: int) -> Pos:
        """The root path of position i, walked up from i: for messages,
        which name a position without building the view."""
        p = []
        while i:
            up = self.parent[i]
            p.append(self.kids[up].index(i) + 1)
            i = up
        return tuple(reversed(p))

    def _root_paths(self) -> tuple:
        if self._view is None:
            paths: list[Pos] = [ROOT] * len(self.parent)
            for p, ks in enumerate(self.kids):  # parents before children
                for j, c in enumerate(ks, start=1):
                    paths[c] = paths[p] + (j,)
            positions = tuple(paths)
            index = dict(zip(positions, range(len(positions))))
            self._view = (positions, dict(zip(positions, self.bag_list)), index)
        return self._view

    @property
    def positions(self) -> tuple[Pos, ...]:
        return self._root_paths()[0]

    @property
    def bags(self) -> dict[Pos, tuple[int, ...]]:
        return self._root_paths()[1]

    def bag(self, p: Pos) -> tuple[int, ...]:
        return self.bags[p]

    def children(self, p: Pos) -> tuple[Pos, ...]:
        positions, _, index = self._root_paths()
        return tuple(positions[c] for c in self.kids[index[p]])

    def leaves(self) -> tuple[Pos, ...]:
        positions = self.positions
        return tuple(positions[i] for i, ks in enumerate(self.kids) if not ks)

    @property
    def width(self) -> int:
        return max(map(len, self.bag_list)) - 1

    def is_path_shaped(self) -> bool:
        return all(len(ks) <= 1 for ks in self.kids)

    def __eq__(self, other):
        return (isinstance(other, TreeDecomposition) and self.parent == other.parent
                and self.bag_list == other.bag_list)

    def __repr__(self):
        return f"TreeDecomposition({self.bags})"


class Violation(NamedTuple):
    axiom: str
    message: str


class ValidationReport(NamedTuple):
    width: int
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_tree_decomposition(g: Graph, t: TreeDecomposition) -> ValidationReport:
    """Check T1 (vertices covered), T2 (edges covered), T3 (per-vertex
    positions form a connected subterm).  Violations are data, not errors,
    reported per axiom in the order of positions, vertices and sorted
    edges, and a position is named by its root path.

    Each check is one pass over the bags.  T2: per vertex u, the union of
    the bags holding u as a bitmask (Graph.neighbor_masks' convention);
    every edge is covered exactly when each u's neighbours lie in its
    union.  T3: a vertex's positions are connected exactly when one of
    them, a top, has a parent that does not hold it.  With more tops the
    first in preorder other than the highest (the first of least depth)
    is reported, as disconnected when the highest is its ancestor and as
    having no common root otherwise."""
    m, parent, bags = g.vertex_count, t.parent, t.bag_list
    violations: list[Violation] = []
    union = [0] * (m + 1)  # vertex -> the bits of the bags holding it
    tops = [0] * (m + 1)  # vertex -> its positions whose parent does not hold it
    for i, bag in enumerate(bags):
        if bag and (bag[0] < 1 or bag[-1] > m):  # bags are sorted
            violations.extend(Violation("T1", f"bag at {t._path(i)} references out-of-range vertex {v}")
                              for v in bag if not 1 <= v <= m)
            bag = [v for v in bag if 1 <= v <= m]
        mask = 0
        for v in bag:
            mask |= 1 << (v - 1)
        above = bags[parent[i]] if i else ()
        for v in bag:
            union[v] |= mask
            if v not in above:
                tops[v] += 1
    violations.extend(Violation("T1", f"vertex {v} not covered by any bag")
                      for v in g.vertices if not tops[v])
    if any(g.neighbor_masks[u - 1] & ~union[u] for u in g.vertices):
        violations.extend(Violation("T2", f"edge {{{u},{v}}} not inside any bag")
                          for u, v in sorted(g.edges) if not union[u] >> (v - 1) & 1)
    scattered = {v: [] for v in g.vertices if tops[v] > 1}  # vertex -> its tops, in preorder
    if scattered:
        depth = [0] * len(parent)
        size = [1] * len(parent)  # the positions of i's subtree are i .. i + size[i] - 1
        for i in range(1, len(parent)):
            depth[i] = depth[parent[i]] + 1
        for i in range(len(parent) - 1, 0, -1):
            size[parent[i]] += size[i]
        for i, bag in enumerate(bags):
            above = bags[parent[i]] if i else ()
            for v in bag:
                if v in scattered and v not in above:
                    scattered[v].append(i)
        for v, held in scattered.items():
            top = min(held, key=depth.__getitem__)
            i = next(i for i in held if i != top)
            where = (f"are not connected at {t._path(i)}" if top < i < top + size[top]
                     else "have no common root")
            violations.append(Violation("T3", f"positions holding vertex {v} {where}"))
    return ValidationReport(t.width, tuple(violations))


def require_valid(g: Graph, t: TreeDecomposition) -> None:
    """Raise DecompositionError, naming the first violation, unless t is a
    valid decomposition of g: the one check of every entry that takes a
    decomposition from its caller."""
    report = validate_tree_decomposition(g, t)
    if not report.ok:
        raise DecompositionError(f"invalid decomposition: {report.violations[0].message}")


def _decomposition_from_elimination(record: list[tuple[int, int]]) -> TreeDecomposition:
    """Link the decomposition of a connected graph that an elimination
    record defines (see _min_fill_order): the bag of v is v plus its
    fill-graph neighbours at its elimination, and v's node hangs under the
    node of the earliest-eliminated of them, so the last vertex eliminated
    is the root."""
    rank = {v - 1: r for r, (v, _) in enumerate(record)}
    bag_of: dict[int, tuple[int, ...]] = {}
    kids: dict[int, list[int]] = {v: [] for v, _ in record}  # each in elimination order
    for v, ns in record:
        bag_of[v] = tuple(i + 1 for i in _bits(ns | 1 << (v - 1)))
        if ns:
            kids[min(_bits(ns), key=rank.__getitem__) + 1].append(v)
    nodes, parent = _preorder(record[-1][0], kids)
    return TreeDecomposition._of(parent, [bag_of[v] for v in nodes])


def _min_fill_order(g: Graph) -> list[tuple[int, int]]:
    """Eliminate, at each step, the vertex whose neighbours lack the fewest
    edges among themselves, the smallest such vertex on a tie.  Returns the
    elimination record: each vertex in order, with the mask of its
    fill-graph neighbours when it was eliminated.  The fill counts are kept
    between steps in a heap of (fill, vertex index) with lazy deletion: an
    entry whose fill is no longer the vertex's is skipped.  Eliminating x
    joins its neighbours pairwise, which changes their neighbourhoods and
    the edges among the neighbours of a vertex adjacent to two of them, so
    only those are recounted (Amestoy, Davis & Duff, "An approximate
    minimum degree ordering algorithm", 1996, keep degrees the same way).

    The fill graph is a copy of g.neighbor_masks, so a count takes
    O(deg v) mask operations: each neighbour a of v misses the vertices
    of N(v) & ~N(a), which are a itself and one end of each missing edge
    at a, so the sum over a counts every missing edge twice, plus deg v."""
    nb = list(g.neighbor_masks)  # vertex index i = v - 1 -> its neighbours' bits

    def fill(i: int) -> int:
        ns = nb[i]
        return (sum((ns & ~nb[a]).bit_count() for a in _bits(ns)) - ns.bit_count()) // 2

    fills = list(map(fill, range(len(nb))))  # -1 once eliminated
    heap = list(zip(fills, range(len(nb))))
    heapq.heapify(heap)
    record: list[tuple[int, int]] = []
    while heap:
        f, x = heapq.heappop(heap)
        if fills[x] != f:
            continue
        fills[x] = -1
        ns = nb[x]
        record.append((x + 1, ns))
        once = twice = 0  # the vertices adjacent to one, and to two, of N(x)
        for a in _bits(ns):
            nb[a] = na = (nb[a] | ns) & ~(1 << a | 1 << x)
            twice |= once & na
            once |= na
        for i in _bits(ns | twice & ~(ns | 1 << x)):
            f = fill(i)
            if f != fills[i]:
                fills[i] = f
                heapq.heappush(heap, (f, i))
    return record


def _bits(s: int):
    """The indices of the set bits of s, smallest first."""
    while s:
        low = s & -s
        s ^= low
        yield low.bit_length() - 1


def _subset_widths(m: int, cost) -> list[int]:
    """The exact search behind both exact decompositions: a table over the
    subsets s of range(m), as bitmasks, with width[s] the minimum over i in
    s of max(width[s - i], cost(s - i, i)).  Each search reads its own
    order back from the table."""
    width = [0] * (1 << m)
    for s in range(1, 1 << m):
        width[s] = min(max(width[s ^ (1 << i)], cost(s ^ (1 << i), i)) for i in _bits(s))
    return width


def _exact_order(g: Graph) -> list[tuple[int, int]]:
    """Optimal elimination ordering, as an elimination record (see
    _min_fill_order); the table is indexed by the set of already-eliminated
    vertices.  Eliminating v after S has as fill-graph neighbours the
    vertices outside S that v reaches through S, and costs their number."""
    m = g.vertex_count
    if m > EXACT_SMALL_CAP:
        raise DecompositionError(f"exact-small refused above {EXACT_SMALL_CAP} vertices (got {m})")
    nbr_bits = g.neighbor_masks

    def reach(eliminated: int, vi: int) -> int:
        # the vertices outside `eliminated` that vi reaches through it
        seen = 1 << vi
        stack = [vi]
        while stack:
            frontier = nbr_bits[stack.pop()] & ~seen
            seen |= frontier
            stack.extend(_bits(frontier & eliminated))
        return seen & ~(eliminated | 1 << vi)

    width = _subset_widths(m, lambda eliminated, vi: reach(eliminated, vi).bit_count())
    record = []
    s = (1 << m) - 1
    while s:  # backwards: the smallest last vertex that reaches width[s]
        for vi in _bits(s):
            ns = reach(s ^ (1 << vi), vi)
            if max(width[s ^ (1 << vi)], ns.bit_count()) == width[s]:
                break
        record.append((vi + 1, ns))
        s ^= 1 << vi
    return record[::-1]


def compute_tree_decomposition(g: Graph, strategy: str = "min-fill") -> TreeDecomposition:
    """Construct a valid tree decomposition of a connected graph.

    Strategies: "min-fill" (elimination-ordering heuristic) and
    "exact-small" (guaranteed minimum width, refused above EXACT_SMALL_CAP
    vertices).
    """
    require_connected(g)
    if strategy == "min-fill":
        return _decomposition_from_elimination(_min_fill_order(g))
    if strategy == "exact-small":
        return _decomposition_from_elimination(_exact_order(g))
    raise DecompositionError(f"unknown strategy {strategy!r}")


# ---------------------------------------------------------------------------
# PACE-style .td files: "s td <#bags> <width+1> <#vertices>", bag lines
# "b <id> <v...>", then tree edges "<id> <id>".  Import re-roots at bag 1.

def read_pace_td(text: str) -> TreeDecomposition:
    n_bags = None
    bag_by_id: dict[int, tuple[int, ...]] = {}
    edges: list[tuple[int, int]] = []
    for ln in text.split("\n"):
        ln = ln.strip()
        if not ln or ln.startswith("c"):
            continue
        toks = ln.split()
        try:
            if toks[0] == "s":
                if len(toks) != 5 or toks[1] != "td":
                    raise TdParseError(f"bad header {ln!r}")
                n_bags = int(toks[2])
            elif toks[0] == "b":
                if n_bags is None:
                    raise TdParseError("bag line before header")
                bid = int(toks[1])
                if bid in bag_by_id:
                    raise TdParseError(f"duplicate bag id {bid}")
                bag_by_id[bid] = tuple(sorted({int(v) for v in toks[2:]}))
            else:
                a, b = map(int, toks)  # exactly two bag ids
                edges.append((a, b))
        except (ValueError, IndexError):
            raise TdParseError(f"malformed line {ln!r}") from None
    if n_bags is None:
        raise TdParseError("missing 's td' header")
    # the length test comes first so a huge declared count builds no range set
    if n_bags < 1 or len(bag_by_id) != n_bags or set(bag_by_id) != set(range(1, n_bags + 1)):
        raise TdParseError("bag ids must be exactly 1..#bags")
    if len(edges) != n_bags - 1:
        raise TdParseError(f"{len(edges)} tree edges for {n_bags} bags, expected {n_bags - 1}")
    links: dict[int, set[int]] = {}
    for a, b in edges:
        if a not in bag_by_id or b not in bag_by_id:
            raise TdParseError(f"tree edge {a} {b} names an unknown bag")
        links.setdefault(a, set()).add(b)
        links.setdefault(b, set()).add(a)
    nodes, parent = _preorder(1, {b: sorted(ns) for b, ns in links.items()})
    if len(nodes) != n_bags:
        raise TdParseError("tree edges do not connect all bags")
    return TreeDecomposition._of(parent, [bag_by_id[b] for b in nodes])


def write_pace_td(t: TreeDecomposition, vertex_count: int) -> str:
    """The .td text of t: bag i + 1 is position i, so bag 1 is the root."""
    lines = [f"s td {len(t.bag_list)} {t.width + 1} {vertex_count}"]
    for i, bag in enumerate(t.bag_list, start=1):
        lines.append(f"b {i} {' '.join(map(str, bag))}".rstrip())
    for i, up in enumerate(t.parent[1:], start=2):
        lines.append(f"{up + 1} {i}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Permutation-yielding transform.

def yield_order_of(t: TreeDecomposition) -> Permutation:
    """Read the yield off a permutation-yielding decomposition: the
    permutation alpha whose one-line string is the leaf vertices v_1 ... v_n
    in traversal order, raising DecompositionError unless the leaves are
    singletons holding 1..n once each.  It is also the alignment permutation
    used by the grammar pipeline: a grammar word w produced for an
    automorphism s satisfies w_i = s(alpha(i)), i.e. w is the string of s
    repositioned by alpha (see the compose order of permute_word)."""
    seq = []
    for i, bag in enumerate(t.bag_list):
        if not t.kids[i]:
            if len(bag) != 1:
                raise DecompositionError(f"leaf {t._path(i)} bag {bag} is not a singleton")
            seq.append(bag[0])
    if sorted(seq) != list(range(1, len(seq) + 1)):
        raise DecompositionError(f"leaf vertices are not 1..{len(seq)}, each once")
    return Permutation(tuple(seq))


def _without_chains(t: TreeDecomposition) -> TreeDecomposition:
    """t with every position that has one child, whose bag contains its
    own, merged into that child, which takes its slot under the parent: a
    chain of such positions collapses into its last one.  The rest keep
    their bags and their preorder.  Every vertex of a merged bag is in the
    child's, so the result is valid when t is and has its width."""
    bags, kids = t.bag_list, t.kids
    slot = [-1] * len(bags)  # position -> the result's number its children hang under
    out_parent: list[int] = []
    out_bags: list[tuple[int, ...]] = []
    for i, b in enumerate(bags):  # preorder: parents first
        up = slot[t.parent[i]] if i else -1
        if len(kids[i]) == 1 and set(b).issubset(bags[kids[i][0]]):
            slot[i] = up
        else:
            slot[i] = len(out_bags)
            out_parent.append(up)
            out_bags.append(b)
    return TreeDecomposition._of(out_parent, out_bags)


def make_permutation_yielding(
    g: Graph, t: TreeDecomposition
) -> tuple[TreeDecomposition, Permutation]:
    """Rebuild t so that every vertex occurs in exactly one leaf bag, as a
    singleton, without increasing the width.

    First each position with one child whose bag contains its own is
    merged into that child (_without_chains).  Min-fill cuts K_n into a
    chain of nested bags whose positions all see the whole graph, so each
    merge class there is one word and the grammar has about 0.7 n! rules;
    merged, the chain is one bag whose n leaves write B1's words, which
    annotate._share folds to the automaton of the vertex subsets
    (n 2^(n - 1) - n rules).  A decomposition with no such link is small
    (Bodlaender, "A partial k-arboretum of graphs with bounded treewidth",
    1998).

    Then one preorder pass picks each vertex's leaf: its preorder-smallest
    singleton leaf, else a fresh leaf attached as the last child of the
    preorder-smallest position whose bag contains it (fresh leaves in
    vertex order).  The decomposition is then cut down to all positions on
    root-to-picked-leaf paths below the deepest position above every
    picked leaf, and numbered in preorder again, children in their
    relative order.  Returns the new decomposition and its yield alpha
    (yield_order_of).
    """
    require_valid(g, t)
    t = _without_chains(t)
    parent, bags = list(t.parent), list(t.bag_list)
    kids = list(map(list, t.kids))
    pick: dict[int, tuple[bool, int]] = {}  # v -> (needs a fresh leaf, its leaf or the fresh leaf's host)
    for i, b in enumerate(t.bag_list):  # preorder
        if len(b) == 1 and not kids[i] and pick.get(b[0], (True,))[0]:
            pick[b[0]] = (False, i)
        for v in b:
            pick.setdefault(v, (True, i))
    below = [0] * len(parent)  # per position, the picked leaves in its subtree
    for v, (fresh, i) in sorted(pick.items()):
        if fresh:  # a fresh leaf is a picked leaf, numbered after t's positions
            kids[i].append(len(bags))
            parent.append(i)
            bags.append((v,))
            below.append(1)
            below[i] += 1
        else:
            below[i] = 1
    for i in range(len(t.parent) - 1, 0, -1):  # children before parents
        below[parent[i]] += below[i]
    # the deepest position above every picked leaf, then its subtree's
    # positions above a picked leaf
    top = 0
    while True:
        under = [c for c in kids[top] if below[c] == len(pick)]
        if not under:
            break
        top = under[0]
    nodes, out_parent = _preorder(top, {i: [c for c in ks if below[c]] for i, ks in enumerate(kids)})
    out = TreeDecomposition._of(out_parent, [bags[i] for i in nodes])
    out_report = validate_tree_decomposition(g, out)
    assert out_report.ok, "yielding transform produced an invalid decomposition"
    assert out.width == t.width, "yielding transform changed the width"
    return out, yield_order_of(out)


# ---------------------------------------------------------------------------
# Path decompositions from vertex layouts: for an ordering v_1..v_n, bag i
# is v_i plus every earlier vertex with a neighbor at or beyond i.  Each
# vertex is introduced exactly once, at its own bag.

def _layout_bags(g: Graph, order: list[int]) -> list[tuple[int, ...]]:
    rank = {v: i for i, v in enumerate(order)}
    reach = {v: max((rank[u] for u in g.neighbors[v]), default=rank[v]) for v in g.vertices}
    bags, active = [], []
    for i, v in enumerate(order):
        active = [u for u in active if reach[u] >= i]
        bags.append(tuple(sorted(active + [v])))
        active.append(v)
    return bags


def _best_layout(g: Graph) -> list[int]:
    """The lexicographically first layout of minimum width; the identity
    layout above EXACT_SMALL_CAP vertices.  The table is indexed by the set
    of vertices still to place, and placing one costs the number of placed
    vertices with a neighbor not yet placed."""
    m = g.vertex_count
    if m > EXACT_SMALL_CAP:
        return list(g.vertices)
    nbr_bits = g.neighbor_masks
    full = (1 << m) - 1

    def active(rest: int) -> int:
        return sum(1 for u in _bits(full ^ rest) if nbr_bits[u] & rest)

    width = _subset_widths(m, lambda later, vi: active(later | (1 << vi)))
    order = []
    rest = full
    while rest:  # forwards: the smallest vertex that an optimal layout continues with
        step = active(rest)
        vi = next(i for i in _bits(rest) if max(step, width[rest ^ (1 << i)]) <= width[full])
        order.append(vi + 1)
        rest ^= 1 << vi
    return order


def compute_path_decomposition(g: Graph) -> TreeDecomposition:
    """A path-shaped decomposition in which each bag introduces exactly one
    new vertex.  Exact minimum width for graphs up to EXACT_SMALL_CAP
    vertices."""
    require_connected(g)
    order = _best_layout(g)
    bags = _layout_bags(g, order)
    return TreeDecomposition._of(list(range(-1, len(bags) - 1)), bags)


def introduced_order(g: Graph, pd: TreeDecomposition) -> list[int]:
    """The vertex introduced at each bag of a path decomposition, root to
    end; raises unless the shape is a path with one new vertex per bag."""
    if not pd.is_path_shaped():
        raise DecompositionError("decomposition is not path shaped")
    seen: set[int] = set()
    order: list[int] = []
    for i, bag in enumerate(pd.bag_list):  # a path's preorder is its order
        fresh = [v for v in bag if v not in seen]
        if len(fresh) != 1:
            raise DecompositionError(
                f"bag at {pd._path(i)} introduces {len(fresh)} vertices, expected exactly 1"
            )
        order.append(fresh[0])
        seen.update(bag)
    if len(order) != g.vertex_count:
        raise DecompositionError("path decomposition does not introduce every vertex")
    return order
