"""Simple undirected graphs on vertex set {1, ..., m}.

Vertices are 1-based everywhere; edges are unordered pairs stored with the
smaller endpoint first.  Graph values are immutable after construction, so
they are safe to share across threads.
"""

from __future__ import annotations

from typing import Iterable

from . import PreconditionError, _Value


class GraphError(Exception):
    """Base class for graph construction and query errors."""


class GraphParseError(GraphError):
    """Base class for edge-list text format errors."""


class MalformedLineError(GraphParseError):
    pass


class SelfLoopError(GraphParseError):
    pass


class DuplicateEdgeError(GraphParseError):
    pass


class VertexRangeError(GraphError):
    pass


class DisconnectedGraphError(GraphError, PreconditionError):
    """Raised by pipeline entry points that require a connected graph."""


class Graph(_Value):
    """Immutable simple graph on vertices 1..m, a `_Value` of its vertex
    count and edges: the other fields are derived, and rebuilt on a copy.

    Adjacency is kept as a set of normalized pairs, as per-vertex sorted
    neighbor tuples and as per-vertex neighbor bitmasks.  The neighbor
    tuples are the canonical iteration order for everything built on top.
    neighbor_masks[i] is the bitmask of the neighbors of vertex i + 1: the
    one bit convention of the layers that hold vertex sets as ints, in
    which the bit of v is 1 << (v - 1), so v is its bit's bit_length().
    """

    __slots__ = ("vertex_count", "edges", "neighbors", "neighbor_masks")

    def __init__(self, vertex_count: int, edges: Iterable[tuple[int, int]]):
        if vertex_count < 1:
            raise VertexRangeError(f"vertex count must be positive, got {vertex_count}")
        normalized: set[tuple[int, int]] = set()
        for u, v in edges:
            if not (1 <= u <= vertex_count) or not (1 <= v <= vertex_count):
                raise VertexRangeError(f"edge ({u},{v}) out of range 1..{vertex_count}")
            if u == v:
                raise SelfLoopError(f"self-loop at vertex {u}")
            pair = (u, v) if u < v else (v, u)
            if pair in normalized:
                raise DuplicateEdgeError(f"duplicate edge {{{pair[0]},{pair[1]}}}")
            normalized.add(pair)
        adj: dict[int, list[int]] = {v: [] for v in range(1, vertex_count + 1)}
        for u, v in normalized:
            adj[u].append(v)
            adj[v].append(u)
        neighbors = {v: tuple(sorted(ns)) for v, ns in adj.items()}
        self._set(vertex_count=vertex_count, edges=frozenset(normalized), neighbors=neighbors,
                  neighbor_masks=tuple([sum(1 << (u - 1) for u in ns) for ns in neighbors.values()]))

    def _values(self) -> tuple:
        return (self.vertex_count, self.edges)

    def __repr__(self):
        return f"Graph(vertex_count={self.vertex_count}, edges={sorted(self.edges)})"

    @property
    def vertices(self) -> range:
        return range(1, self.vertex_count + 1)

    def has_edge(self, u: int, v: int) -> bool:
        return (u, v) in self.edges or (v, u) in self.edges

    def _check_vertex(self, v: int) -> None:
        if not (1 <= v <= self.vertex_count):
            raise VertexRangeError(f"vertex {v} out of range 1..{self.vertex_count}")


def parse_graph(text: str) -> Graph:
    """Parse edge-list text: a header line "m k" followed by k lines "u v".
    A header with k < m - 1 raises DisconnectedGraphError at once, as no
    graph with fewer edges than that is connected."""
    lines = [ln for ln in text.split("\n") if ln.strip() != ""]
    if not lines:
        raise MalformedLineError("empty input")
    header = lines[0].split(" ")
    if len(header) != 2:
        raise MalformedLineError(f"header must be 'm k', got {lines[0]!r}")
    try:
        m, k = int(header[0]), int(header[1])
    except ValueError:
        raise MalformedLineError(f"non-integer header {lines[0]!r}") from None
    if m < 1:
        raise MalformedLineError(f"vertex count must be positive, got {m}")
    if k < 0:
        raise MalformedLineError(f"edge count must be non-negative, got {k}")
    if k < m - 1:  # refused before Graph allocates per vertex: every command needs a connected graph
        raise DisconnectedGraphError(f"graph not connected: {k} edges cannot connect {m} vertices")
    if len(lines) - 1 != k:
        raise MalformedLineError(f"expected {k} edge lines, found {len(lines) - 1}")
    edges = []
    for ln in lines[1:]:
        toks = ln.split(" ")
        if len(toks) != 2:
            raise MalformedLineError(f"edge line must be 'u v', got {ln!r}")
        try:
            u, v = int(toks[0]), int(toks[1])
        except ValueError:
            raise MalformedLineError(f"non-integer edge line {ln!r}") from None
        if not (1 <= u <= m) or not (1 <= v <= m):
            raise VertexRangeError(f"edge ({u},{v}) out of range 1..{m}")
        edges.append((u, v))
    return Graph(m, edges)


def closed_neighborhood(g: Graph, s: Iterable[int]) -> tuple[int, ...]:
    """N(s) together with s itself, as a sorted tuple."""
    result: set[int] = set()
    for v in s:
        g._check_vertex(v)
        result.add(v)
        result.update(g.neighbors[v])
    return tuple(sorted(result))


def stable_colouring(g: Graph) -> dict[int, int]:
    """Colour refinement (1-WL): each vertex's colour is its class in the
    coarsest partition, finer than the degree partition, in which vertices
    of one class have equally many neighbours in every class (McKay &
    Piperno, "Practical graph isomorphism II", 2014).  Automorphisms map
    every vertex to one of its own colour.

    A worklist of splitter classes (Cardon & Crochemore, 1982): when a
    class splits, all its parts become splitters if it was waiting, else
    all parts but the largest (Hopcroft's trick: a count over the largest
    part is the count over the old class minus those over the others).
    A split touches only the vertices that the splitter's neighbour counts
    reach (Paige & Tarjan, 1987): those of a class are grouped by count,
    and the rest of the class, with count 0, is one more part, of known
    size, listed only when it does not stay, and then it is no larger
    than the largest group.  So each pass costs the splitter's degree
    sum, and a long path is refined in O(m log m), not O(m^2).  Colours
    number the classes in order of creation, so they depend only on g."""
    cell_of = {v: 0 for v in g.vertices}
    cells = [set(g.vertices)]
    pending = [0]
    waiting = {0}
    while pending:
        w = pending.pop()
        waiting.discard(w)
        count: dict[int, int] = {}
        for x in cells[w]:
            for u in g.neighbors[x]:
                count[u] = count.get(u, 0) + 1
        touched: dict[int, dict[int, list[int]]] = {}  # class -> count -> its vertices there
        for u, k in count.items():
            touched.setdefault(cell_of[u], {}).setdefault(k, []).append(u)
        for c in sorted(touched):
            groups = list(touched[c].values())
            rest = len(cells[c]) - sum(map(len, groups))  # the untouched part's size
            if not rest and len(groups) == 1:
                continue
            # the largest part keeps the class's number (and its place on
            # the worklist); the other parts become new splitters
            largest = max(groups, key=len)
            if rest >= len(largest):
                for part in groups:
                    cells[c].difference_update(part)
            else:
                groups.remove(largest)
                if rest:
                    groups.append(cells[c].difference(*groups, largest))
                cells[c] = set(largest)
            for part in groups:
                for v in part:
                    cell_of[v] = len(cells)
                waiting.add(len(cells))
                pending.append(len(cells))
                cells.append(set(part))
    return cell_of


def is_connected(g: Graph) -> bool:
    """True iff g has a single connected component (K1 counts as connected)."""
    seen = {1}
    stack = [1]
    while stack:
        v = stack.pop()
        for u in g.neighbors[v]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return len(seen) == g.vertex_count


def max_degree(g: Graph) -> int:
    return max(len(g.neighbors[v]) for v in g.vertices)


def require_connected(g: Graph) -> None:
    if not is_connected(g):
        raise DisconnectedGraphError("graph not connected")
