import functools
import itertools
import json
from fractions import Fraction

import pytest

from autgrammar.grammar import enumerate_language, membership
from autgrammar.graph import Graph, closed_neighborhood, is_connected


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
    for w in enumerate_language(gr).words:
        assert len(w) == len(x) and value(w.symbols) <= 0, w


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
