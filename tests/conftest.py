import pytest

from autgrammar.graph import Graph, is_connected


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(1, n)])


def cycle_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(1, n)] + [(1, n)])


def complete_graph(n: int) -> Graph:
    return Graph(n, [(i, j) for i in range(1, n) for j in range(i + 1, n + 1)])


def star_graph(leaves: int) -> Graph:
    center = leaves + 1
    return Graph(center, [(i, center) for i in range(1, center)])


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
