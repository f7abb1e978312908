import pytest

from autgrammar.graph import (
    DisconnectedGraphError,
    DuplicateEdgeError,
    Graph,
    MalformedLineError,
    SelfLoopError,
    VertexRangeError,
    closed_neighborhood,
    is_connected,
    max_degree,
    parse_graph,
    stable_colouring,
)
from conftest import format_graph, induced_subgraph, path_graph, petersen_graph, random_connected_graph


def test_parse_path():
    g = parse_graph("3 2\n1 2\n2 3")
    assert g.vertex_count == 3
    assert g.edges == {(1, 2), (2, 3)}


def test_parse_cycle_normalizes_pair_order():
    g = parse_graph("4 4\n1 2\n2 3\n3 4\n4 1")
    assert (1, 4) in g.edges


def test_parse_self_loop():
    with pytest.raises(SelfLoopError):
        parse_graph("2 1\n1 1")


def test_parse_duplicate_edge():
    with pytest.raises(DuplicateEdgeError):
        parse_graph("3 2\n1 2\n2 1")


def test_parse_vertex_out_of_range():
    with pytest.raises(VertexRangeError):
        parse_graph("2 1\n1 3")


def test_parse_malformed():
    with pytest.raises(MalformedLineError):
        parse_graph("2\n1 2")
    with pytest.raises(MalformedLineError):
        parse_graph("2 2\n1 2")
    with pytest.raises(MalformedLineError):
        parse_graph("2 1\n1 x")


def test_parse_refuses_too_few_edges_from_the_header():
    # k < m - 1 edges connect no m vertices: refused before any edge line
    # is read or any per-vertex list is made, whatever m is
    with pytest.raises(DisconnectedGraphError, match="2 edges cannot connect 4 vertices"):
        parse_graph("4 2\n1 2\n3 4")
    with pytest.raises(DisconnectedGraphError, match="0 edges cannot connect 100000000000000000000 vertices"):
        parse_graph("100000000000000000000 0")
    assert parse_graph("1 0").vertex_count == 1


def test_round_trip_bit_exact():
    text = "4 4\n1 2\n1 4\n2 3\n3 4\n"
    assert format_graph(parse_graph(text)) == text


def test_closed_neighborhood(p3):
    assert closed_neighborhood(p3, [2]) == (1, 2, 3)
    assert closed_neighborhood(p3, [1]) == (1, 2)
    assert closed_neighborhood(p3, []) == ()


def test_closed_neighborhood_contains_input(c5):
    for v in c5.vertices:
        assert v in closed_neighborhood(c5, [v])


def test_closed_neighborhood_out_of_range(p3):
    with pytest.raises(VertexRangeError):
        closed_neighborhood(p3, [7])


def test_induced_subgraph(c4):
    assert induced_subgraph(c4, [1, 2, 3]) == {(1, 2), (2, 3)}
    assert induced_subgraph(c4, [1, 3]) == frozenset()
    assert induced_subgraph(c4, c4.vertices) == c4.edges


def test_induced_monotone(q3):
    small = induced_subgraph(q3, [1, 2, 3, 4])
    big = induced_subgraph(q3, [1, 2, 3, 4, 5, 6])
    assert small <= big


def test_is_connected(c4):
    assert is_connected(c4)
    assert not is_connected(Graph(3, []))
    assert is_connected(Graph(1, []))


def test_max_degree(c4, star5):
    assert max_degree(c4) == 2
    assert max_degree(star5) == 4
    assert max_degree(Graph(1, [])) == 0


def test_graph_survives_pickle_and_copy():
    # the immutable fields cannot be restored one by one, so a graph is
    # rebuilt from its vertex count and edges
    import copy
    import pickle

    for g in (Graph(2, [(1, 2)]), Graph(1, []), petersen_graph(), path_graph(70)):
        for back in (pickle.loads(pickle.dumps(g)), copy.copy(g), copy.deepcopy(g)):
            assert back == g and back is not g
            assert back.neighbor_masks == g.neighbor_masks
            assert back.neighbors == g.neighbors


def test_neighbor_masks_spell_the_neighbors():
    import random

    rng = random.Random(3)
    for g in (Graph(1, []), path_graph(70), petersen_graph(), random_connected_graph(rng, 9)):
        assert isinstance(g.neighbor_masks, tuple) and len(g.neighbor_masks) == g.vertex_count
        for v in g.vertices:
            mask = g.neighbor_masks[v - 1]
            assert [u for u in g.vertices if mask >> (u - 1) & 1] == list(g.neighbors[v])


def naive_refinement(g):
    """Rounds of 1-WL from the degree partition until no class splits, as
    a set of classes."""
    colour = {v: len(g.neighbors[v]) for v in g.vertices}
    while True:
        refined = {v: (colour[v], tuple(sorted(colour[u] for u in g.neighbors[v]))) for v in g.vertices}
        if len(set(refined.values())) == len(set(colour.values())):
            break
        colour = refined
    return classes(colour)


def classes(colour):
    out = {}
    for v, c in colour.items():
        out.setdefault(c, set()).add(v)
    return sorted(map(sorted, out.values()))


def test_stable_colouring_matches_rounds():
    import random

    rng = random.Random(5)
    graphs = [path_graph(7), petersen_graph(), Graph(1, [])]
    graphs += [random_connected_graph(rng, rng.randint(2, 9)) for _ in range(40)]
    for g in graphs:
        assert classes(stable_colouring(g)) == naive_refinement(g), g
    # P7 splits by distance from the nearer end; Petersen stays one class
    assert classes(stable_colouring(path_graph(7))) == [[1, 7], [2, 6], [3, 5], [4]]
    assert len(set(stable_colouring(petersen_graph()).values())) == 1
