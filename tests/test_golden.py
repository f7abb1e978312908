"""Golden bytes: sha256 digests of builder output on fixed, naturally
labelled graphs.  Any change to the construction that moves a rule, a
variable name or an LP row shows here; the digests were recorded before
the consistency join and the class merging became one pass, and that
rework keeps them."""

import hashlib

import pytest

from autgrammar.decomp import (
    compute_path_decomposition,
    compute_tree_decomposition,
    make_permutation_yielding,
)
from autgrammar.graph import Graph
from autgrammar.grammar import build_aut_grammar, build_regular_aut_grammar, grammar_to_json
from autgrammar.polytope import build_extended_formulation, emit_lp
from conftest import (
    binary_tree,
    complete_graph,
    cube_graph,
    cycle_graph,
    grid_graph,
    path_graph,
    petersen_graph,
    spider,
    star_graph,
)


GRAPHS = {
    "C6": lambda: cycle_graph(6),
    "P8": lambda: path_graph(8),
    "K4": lambda: complete_graph(4),
    "K5": lambda: complete_graph(5),
    "star5": lambda: star_graph(5),
    "btree3": lambda: binary_tree(3),
    "spider3x2": lambda: spider(3, 2),
    "grid3x3": lambda: grid_graph(3, 3),
    "Q3": cube_graph,
    "Petersen": petersen_graph,
}

# name -> (tree grammar JSON, regular grammar JSON)
GRAMMAR_DIGESTS = {
    "C6": ("5371b2c547d8eee1619ea5e3f9c038e6c256d76f8f149c2704b1ec7a8632db0f",
           "5900e2b80d63c50bb740605270f975678ed3ac46473993f19c1d6293b9650002"),
    "K4": ("8e37cfe947dc1ce18b51c43564a1e4edb2f6aab9acfe190df86709fcb42323e4",
           "541c0e40507fbd75e3b3c0b3c8adcb41cdd76a370492d28aced264105adb893f"),
    "K5": ("958661a169215654b3cf218578fb90efcefeefa2c4b5221d9af0a8a3f7c7c01f",
           "5f9a4261d2c85507c55e412ebbd50ef713944bab05bfb735b3bb4357f7ddc967"),
    "P8": ("6ec039c8c4509d0c31ba61726164b0161373d7fca79fa3ce3fa48f7556e0ae04",
           "2313e30e3a44224f25d3c4678974dbf0696b67f5ae25c99ae2ce82cd6a80fe57"),
    "Petersen": ("7eee2efd9d99be1a480a91c1c8cc67ce97bc2703c6e0d74b615e89f1ed47c1b1",
                 "a627e1ce6eac130d053fc8285e426f602d2c555f097481a14489abdc1647cef2"),
    "Q3": ("c6d03bb016f71ca66c5891e960326b5123a7541fe67e8bd9de1c90e4f979c3c3",
           "f98c9793d15481ecb8e0127462d0f991bad1cbc741d76d0552227890f1cd4a47"),
    "btree3": ("fd6f3b0f24e8b680888fe0ecf2a1cb5b6bac383c2daf744bca81f19f2479dd6d",
               "c58d466c30169cf76125de36f27011517f8617b124991727d61e33edc77fb67b"),
    "grid3x3": ("f8918eeec81ed0ed82678b7f69d929bc54e5814c30279a9630ecf1aa222f46c9",
                "f2d0f765fa9e074d54c8810617ce0734449be928d351a54aad56c879763e117b"),
    "spider3x2": ("299505db241b780196e4a9b8af66c3e4fa7029fc898b24ec5478d53c6fffc579",
                  "13f4a70edf97a717ef319553e7a25595679c7496439954537327f60fe263047c"),
    "star5": ("c9244c750c4f02006345e74c4a478778be96248547a4c851e82cfbffa203cd08",
              "bbb10cdfe74843d8944836fe981b805574b98d582e0a9b1cb401e9fb8e88a5ce"),
}

LP_DIGESTS = {
    "C6": "00c91527eedea47d27f88b5735baa2a7373b713d973c19b70923cc35adf710ea",
    "btree3": "93ae4c62360ef6fdaaaf5af5bbfa9a211f9cb210d10d0264bac535792cf648d8",
}


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def _tree_grammar(g: Graph):
    t, _ = make_permutation_yielding(g, compute_tree_decomposition(g, "min-fill"))
    return build_aut_grammar(g, t)[1]


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_builder_bytes(name):
    g = GRAPHS[name]()
    tree = grammar_to_json(_tree_grammar(g))
    regular = grammar_to_json(build_regular_aut_grammar(g, compute_path_decomposition(g))[1])
    assert (_digest(tree), _digest(regular)) == GRAMMAR_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(LP_DIGESTS))
def test_lp_bytes(name):
    lp = emit_lp(build_extended_formulation(_tree_grammar(GRAPHS[name]())))
    assert _digest(lp) == LP_DIGESTS[name]
