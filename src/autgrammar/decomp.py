"""Tree decompositions as terms over tree-like position sets.

Positions are tuples of child indices; the root is the empty tuple.  A
position set must be prefix closed (every parent present) and well numbered
(child j present implies children 1..j-1 present).  Sorting positions as
tuples gives exactly the preorder / left-to-right traversal, which is the
canonical order used throughout.

The module covers: axiom validation (T1 vertex cover, T2 edge cover, T3
connected per-vertex subterm), construction from elimination orderings
(min-fill heuristic and an exact search for small graphs), PACE-style .td
file import/export, path decompositions from vertex layouts (exact for
small graphs, by the same subset search), and the transform that turns any
valid decomposition into a permutation-yielding one (every vertex in
exactly one leaf bag, as a singleton).

It is also the one owner of what a decomposition is and what it yields.
Every entry that takes a decomposition from its caller (the yielding
transform, both grammar builders and annotate.count_assignments) checks it
with require_valid, and the builders and the count first require a
connected graph, on which alone consistent whole-tree annotations
correspond to automorphisms.  yield_order_of is the one test that a
decomposition is permutation yielding.  Each raises DecompositionError.
"""

from __future__ import annotations

from typing import NamedTuple

from . import PreconditionError
from .graph import Graph, neighbor_bits, require_connected
from .perm import Permutation

Pos = tuple[int, ...]

ROOT: Pos = ()

EXACT_SMALL_CAP = 10


class DecompositionError(PreconditionError):
    pass


class TdParseError(DecompositionError):
    pass


def is_prefix(p: Pos, q: Pos) -> bool:
    return len(p) <= len(q) and q[: len(p)] == p


def _preorder_positions(root, adj: dict) -> dict:
    """Number a tree from its root: the root gets ROOT, and the i-th not yet
    numbered entry of adj[v] gets pos(v) + (i,).  With children lists, adj
    numbers every child; with neighbor lists of an undirected tree, the
    parent is the one entry skipped.  Nodes not reached are left out."""
    pos = {root: ROOT}
    stack = [root]
    while stack:
        v = stack.pop()
        kids = [c for c in adj.get(v, ()) if c not in pos]
        for i, c in enumerate(kids, start=1):
            pos[c] = pos[v] + (i,)
        stack.extend(kids)
    return pos


class TreeDecomposition:
    """A map position -> bag (sorted vertex tuple) over a tree-like set.

    Immutable after construction by convention; the constructor checks the
    position set shape but not the decomposition axioms (use
    validate_tree_decomposition for those).
    """

    __slots__ = ("bags", "positions", "_children")

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
        self.bags = {p: tuple(sorted(set(bags[p]))) for p in sorted(bags)}
        self.positions = tuple(sorted(bags))
        children: dict[Pos, list[Pos]] = {p: [] for p in self.positions}
        for p in self.positions:
            if p != ROOT:
                children[p[:-1]].append(p)
        self._children = {p: tuple(sorted(cs)) for p, cs in children.items()}

    def bag(self, p: Pos) -> tuple[int, ...]:
        return self.bags[p]

    def children(self, p: Pos) -> tuple[Pos, ...]:
        return self._children[p]

    def leaves(self) -> tuple[Pos, ...]:
        return tuple(p for p in self.positions if not self._children[p])

    @property
    def width(self) -> int:
        return max(len(b) for b in self.bags.values()) - 1

    def is_path_shaped(self) -> bool:
        return all(len(self._children[p]) <= 1 for p in self.positions)

    def __eq__(self, other):
        return isinstance(other, TreeDecomposition) and self.bags == other.bags

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
    positions form a connected subterm).  Violations are data, not errors."""
    violations: list[Violation] = []
    holding: dict[int, list[Pos]] = {}  # vertex -> positions holding it, in order
    for p, bag in t.bags.items():
        for v in bag:
            if not (1 <= v <= g.vertex_count):
                violations.append(
                    Violation("T1", f"bag at {p} references out-of-range vertex {v}")
                )
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
                where = f"are not connected at {p}" if is_prefix(top, p) else "have no common root"
                violations.append(Violation("T3", f"positions holding vertex {v} {where}"))
                break
    return ValidationReport(t.width, tuple(violations))


def require_valid(g: Graph, t: TreeDecomposition) -> None:
    """Raise DecompositionError, naming the first violation, unless t is a
    valid decomposition of g: the one check of every entry that takes a
    decomposition from its caller."""
    report = validate_tree_decomposition(g, t)
    if not report.ok:
        raise DecompositionError(f"invalid decomposition: {report.violations[0].message}")


def _decomposition_from_elimination(g: Graph, order: list[int]) -> TreeDecomposition:
    """Build a decomposition of a connected graph from an elimination
    ordering: the bag of v is v plus its not-yet-eliminated neighbors in
    the fill graph; v's node hangs under the node of the earliest-eliminated
    vertex of its bag rest, so the last vertex eliminated is the root."""
    rank = {v: i for i, v in enumerate(order)}
    adj: dict[int, set[int]] = {v: set(g.neighbors[v]) for v in g.vertices}
    bag_of: dict[int, tuple[int, ...]] = {}
    kids: dict[int, list[int]] = {v: [] for v in order}  # each in elimination order
    for v in order:
        rest = sorted(adj[v], key=lambda u: rank[u])
        bag_of[v] = tuple(sorted([v] + rest))
        if rest:
            kids[rest[0]].append(v)
        for a in rest:
            for b in rest:
                if a != b:
                    adj[a].add(b)
            adj[a].discard(v)
        del adj[v]
    pos = _preorder_positions(order[-1], kids)
    return TreeDecomposition({p: bag_of[v] for v, p in pos.items()})


def _min_fill_order(g: Graph) -> list[int]:
    """Eliminate, at each step, the vertex whose neighbours lack the fewest
    edges among themselves, the smallest such vertex on a tie.  The fill
    counts are kept between steps (Amestoy, Davis & Duff, "An approximate
    minimum degree ordering algorithm", 1996, keep degrees the same way):
    eliminating x changes the neighbourhood of x's neighbours and the
    edges among the neighbours of theirs, so only those are recounted.

    Neighbourhoods are bitmasks (graph.neighbor_bits), so a count takes
    O(deg v) mask operations: each neighbour a of v misses the vertices
    of N(v) & ~N(a), which are a itself and one end of each missing edge
    at a, so the sum over a counts every missing edge twice, plus deg v."""
    nb = dict(enumerate(neighbor_bits(g)))  # vertex index i = v - 1 -> its neighbours' bits

    def fill(i: int) -> int:
        ns = nb[i]
        return (sum((ns & ~nb[a]).bit_count() for a in _bits(ns)) - ns.bit_count()) // 2

    # in increasing vertex order, which deleting keys keeps, so min, which
    # returns the first of equal keys, breaks a tie by the smallest vertex
    fills = {i: fill(i) for i in nb}
    order: list[int] = []
    while fills:
        x = min(fills, key=fills.__getitem__)
        del fills[x]
        ns = nb.pop(x)
        touched = ns
        for a in _bits(ns):
            nb[a] = (nb[a] | ns) & ~(1 << a | 1 << x)
            touched |= nb[a]
        for i in _bits(touched):
            fills[i] = fill(i)
        order.append(x + 1)
    return order


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


def _exact_order(g: Graph) -> list[int]:
    """Optimal elimination ordering; the table is indexed by the set of
    already-eliminated vertices.  The cost of eliminating v after S is the
    number of vertices outside S reachable from v through S."""
    m = g.vertex_count
    if m > EXACT_SMALL_CAP:
        raise DecompositionError(f"exact-small refused above {EXACT_SMALL_CAP} vertices (got {m})")
    nbr_bits = neighbor_bits(g)

    def cost(eliminated: int, vi: int) -> int:
        # vertices outside `eliminated` adjacent to vi or linked via eliminated
        seen = 1 << vi
        stack = [vi]
        out = 0
        while stack:
            frontier = nbr_bits[stack.pop()] & ~seen
            seen |= frontier
            stack.extend(_bits(frontier & eliminated))
            out += (frontier & ~eliminated).bit_count()
        return out

    width = _subset_widths(m, cost)
    order_rev = []
    s = (1 << m) - 1
    while s:  # backwards: the smallest last vertex that reaches width[s]
        vi = next(
            i for i in _bits(s) if max(width[s ^ (1 << i)], cost(s ^ (1 << i), i)) == width[s]
        )
        order_rev.append(vi + 1)
        s ^= 1 << vi
    return order_rev[::-1]


def compute_tree_decomposition(g: Graph, strategy: str = "min-fill") -> TreeDecomposition:
    """Construct a valid tree decomposition of a connected graph.

    Strategies: "min-fill" (elimination-ordering heuristic) and
    "exact-small" (guaranteed minimum width, refused above EXACT_SMALL_CAP
    vertices).
    """
    require_connected(g)
    if strategy == "min-fill":
        return _decomposition_from_elimination(g, _min_fill_order(g))
    if strategy == "exact-small":
        return _decomposition_from_elimination(g, _exact_order(g))
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
                bag_by_id[bid] = tuple(sorted(int(v) for v in toks[2:]))
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
    pos = _preorder_positions(1, {b: sorted(ns) for b, ns in links.items()})
    if len(pos) != n_bags:
        raise TdParseError("tree edges do not connect all bags")
    return TreeDecomposition({p: bag_by_id[b] for b, p in pos.items()})


def write_pace_td(t: TreeDecomposition, vertex_count: int) -> str:
    ids = {p: i for i, p in enumerate(t.positions, start=1)}
    lines = [f"s td {len(t.positions)} {t.width + 1} {vertex_count}"]
    for p in t.positions:
        bag = " ".join(str(v) for v in t.bag(p))
        lines.append(f"b {ids[p]} {bag}".rstrip())
    for p in t.positions:
        if p != ROOT:
            lines.append(f"{ids[p[:-1]]} {ids[p]}")
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
    for p in t.leaves():
        if len(t.bag(p)) != 1:
            raise DecompositionError(f"leaf {p} bag {t.bag(p)} is not a singleton")
        seq.append(t.bag(p)[0])
    if sorted(seq) != list(range(1, len(seq) + 1)):
        raise DecompositionError(f"leaf vertices are not 1..{len(seq)}, each once")
    return Permutation(tuple(seq))


def make_permutation_yielding(
    g: Graph, t: TreeDecomposition
) -> tuple[TreeDecomposition, Permutation]:
    """Rebuild t so that every vertex occurs in exactly one leaf bag, as a
    singleton, without increasing the width.

    One preorder pass picks each vertex's leaf: its preorder-smallest
    singleton leaf, else a fresh leaf attached as the last child of the
    preorder-smallest position whose bag contains it (fresh leaves in
    vertex order).  The decomposition is then cut down to all positions on
    root-to-picked-leaf paths, renumbering children to restore well
    numbering while preserving their relative order.  Returns the new
    decomposition and its yield alpha (yield_order_of).
    """
    require_valid(g, t)
    bags = dict(t.bags)
    children: dict[Pos, list[Pos]] = {p: list(t.children(p)) for p in t.positions}
    pick: dict[int, tuple[bool, Pos]] = {}  # v -> (needs a fresh leaf, its leaf or the fresh leaf's host)
    for p in t.positions:  # preorder
        b = bags[p]
        if len(b) == 1 and not children[p] and pick.get(b[0], (True,))[0]:
            pick[b[0]] = (False, p)
        for v in b:
            pick.setdefault(v, (True, p))
    selected = []
    for v, (fresh, p) in sorted(pick.items()):
        if fresh:
            host, p = p, p + (len(children[p]) + 1,)
            bags[p] = (v,)
            children[host].append(p)
            children[p] = []
        selected.append(p)
    selected.sort()
    # closest ancestral closure: everything between the longest common
    # prefix of the selected leaves (that of the first and the last, as they
    # are sorted) and the leaves themselves
    first, last = selected[0], selected[-1]
    k = 0
    while k < min(len(first), len(last)) and first[k] == last[k]:
        k += 1
    top = first[:k]
    keep = {top}
    for p in selected:
        while p not in keep:  # walk up until the path meets a kept position
            keep.add(p)
            p = p[:-1]

    kept_kids = {p: [c for c in children[p] if c in keep] for p in keep}
    pos = _preorder_positions(top, kept_kids)
    out = TreeDecomposition({new: bags[old] for old, new in pos.items()})
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
    bags = []
    for i, v in enumerate(order):
        active = [u for u in order[:i] if reach[u] >= i]
        bags.append(tuple(sorted(active + [v])))
    return bags


def _best_layout(g: Graph) -> list[int]:
    """The lexicographically first layout of minimum width; the identity
    layout above EXACT_SMALL_CAP vertices.  The table is indexed by the set
    of vertices still to place, and placing one costs the number of placed
    vertices with a neighbor not yet placed."""
    m = g.vertex_count
    if m > EXACT_SMALL_CAP:
        return list(g.vertices)
    nbr_bits = neighbor_bits(g)
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
    positions: dict[Pos, tuple[int, ...]] = {}
    pos: Pos = ROOT
    for i, b in enumerate(bags):
        positions[pos] = b
        pos = pos + (1,)
    return TreeDecomposition(positions)


def introduced_order(g: Graph, pd: TreeDecomposition) -> list[int]:
    """The vertex introduced at each bag of a path decomposition, root to
    end; raises unless the shape is a path with one new vertex per bag."""
    if not pd.is_path_shaped():
        raise DecompositionError("decomposition is not path shaped")
    seen: set[int] = set()
    order: list[int] = []
    p: Pos = ROOT
    while True:
        fresh = [v for v in pd.bag(p) if v not in seen]
        if len(fresh) != 1:
            raise DecompositionError(
                f"bag at {p} introduces {len(fresh)} vertices, expected exactly 1"
            )
        order.append(fresh[0])
        seen.update(pd.bag(p))
        kids = pd.children(p)
        if not kids:
            break
        p = kids[0]
    if len(order) != g.vertex_count:
        raise DecompositionError("path decomposition does not introduce every vertex")
    return order
