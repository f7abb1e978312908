"""Property tests: both grammar builders against the brute-force oracle on
connected graphs drawn by hypothesis."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings, strategies as st

from autgrammar.decomp import (
    compute_path_decomposition,
    compute_tree_decomposition,
    make_permutation_yielding,
)
from autgrammar.graph import Graph
from autgrammar.grammar import (
    build_aut_grammar,
    build_regular_aut_grammar,
    count_parse_trees,
    enumerate_language,
    grammar_to_json,
)
from autgrammar.oracle import brute_force_automorphisms
from autgrammar.perm import permute_word, to_string_word
from conftest import json_reference


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


def builds(g):
    t, _ = make_permutation_yielding(g, compute_tree_decomposition(g, "min-fill"))
    yield build_aut_grammar(g, t)
    yield build_regular_aut_grammar(g, compute_path_decomposition(g))


@settings(max_examples=50, deadline=None)
@given(connected_graphs())
def test_builders_match_oracle(g):
    auts = brute_force_automorphisms(g)
    # a grammar has about |Aut| rules per position when the group acts on
    # every bag; K8's (|Aut| = 40320) takes tens of seconds to build
    assume(len(auts) <= MAX_GROUP)
    for alpha, gr in builds(g):
        expected = sorted(permute_word(to_string_word(s), alpha) for s in auts)
        assert list(enumerate_language(gr).words) == expected
        assert count_parse_trees(gr) == len(auts)
        assert grammar_to_json(gr) == json_reference(gr)
