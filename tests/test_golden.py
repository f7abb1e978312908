"""Golden bytes: sha256 digests of builder output on fixed graphs.  Any
change to the construction that moves a rule, a variable name or an LP row
shows here.

The regular-grammar digests (the relabelled graphs' `build --path`
output among them) were recorded before the consistency join and the
class merging became one pass, and every change since keeps them.  The
tree grammar, relabelled `build`, LP, `lift` and `embed` digests were
re-recorded when each leaf's terminal was first written into its
parent's rules instead of into a leaf variable with one rule: that
format change moved every one of them, and moved no regular-grammar
digest.  test_tree_grammar_matches_regular_grammar ties the new tree
digests to output that did not move: each golden graph's tree grammar
spells the same group as its regular grammar, with one parse tree per
automorphism.

Since the two grammars come from one builder, every variable is named
p:<j>|b:<k> by the index j of its position.  That renaming moved every
grammar digest and no rule, so the digests recorded before it, under the
names p:<position>|b:<k> (tree) and q:<j + 2>|b:<k> (regular), are still
asserted on the output renamed back by `_position_named`, beside the
digests of today's bytes.  The LP names flows and rows by index, so no
LP or `lift` digest moved.

The partner-shape digests (K6, btree5 and spider 5x4, natural and
relabelled) were recorded before the builder wrote its rules column by
column, and that change keeps them.  The digests of btree6 and P80, the
first golden graphs above 64 vertices, were recorded before the
annotation search held vertex sets as int bitmasks, and that change
keeps them.  The digest of P2000, a decomposition 2000 positions deep,
was recorded while positions were still named by their root paths, and
holding them as preorder ints keeps it.

The exact-small digests (the `.td` text and the `build` output of seven
small graphs, natural and relabelled) were recorded while the bags were
still read from a second run of the elimination, and reading them from
the one elimination that picks the order keeps them."""

import hashlib
import random
import re

import pytest

from autgrammar.decomp import (
    compute_path_decomposition,
    compute_tree_decomposition,
    make_permutation_yielding,
    write_pace_td,
)
from autgrammar.graph import Graph
from autgrammar.grammar import (
    build_aut_grammar,
    build_embedded_group_grammar,
    build_regular_aut_grammar,
    count_parse_trees,
    grammar_to_json,
    iter_language,
    permutation_from_aligned_word,
)
from autgrammar.perm import Permutation, Word, format_permutation
from autgrammar.polytope import build_extended_formulation, emit_lp
from conftest import (
    binary_tree,
    complete_graph,
    cube_graph,
    cycle_graph,
    grid_graph,
    path_graph,
    petersen_graph,
    relabel,
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

# name -> (tree grammar JSON, regular grammar JSON), position named
GRAMMAR_DIGESTS = {
    "C6": ("8d34c73d74874522e7f80a56ab9aec394607b4208133e4322ab7497588715717",
           "5900e2b80d63c50bb740605270f975678ed3ac46473993f19c1d6293b9650002"),
    "K4": ("27504cafef6bfbfe39f80d02c4fda02f1104d4a28785ed42021e99f7d6521a4a",
           "541c0e40507fbd75e3b3c0b3c8adcb41cdd76a370492d28aced264105adb893f"),
    "K5": ("803e3974e79f0c07afcddc3ca7b741d49de2992a30b71fe58387305f64625536",
           "5f9a4261d2c85507c55e412ebbd50ef713944bab05bfb735b3bb4357f7ddc967"),
    "P8": ("ee314d0d80970633e45fc0c0c93c79252690202e2a0aca12ac1156afd94b3e8c",
           "2313e30e3a44224f25d3c4678974dbf0696b67f5ae25c99ae2ce82cd6a80fe57"),
    "Petersen": ("68a44e6f30da333352f968ef193ca55ae70effeae6f376ef86affc888234e128",
                 "a627e1ce6eac130d053fc8285e426f602d2c555f097481a14489abdc1647cef2"),
    "Q3": ("1619228e4ae9a861d3c119e57ace7f63792e7d7e409186e33102a86519527410",
           "f98c9793d15481ecb8e0127462d0f991bad1cbc741d76d0552227890f1cd4a47"),
    "btree3": ("e38cd02b134eb41b779c655fc63541b903fac092dcc28a668e9ab2504c552891",
               "c58d466c30169cf76125de36f27011517f8617b124991727d61e33edc77fb67b"),
    "grid3x3": ("06b54d77165d9c556e81bb260056d1f3fb7c2e763923467355fce8f761213203",
                "f2d0f765fa9e074d54c8810617ce0734449be928d351a54aad56c879763e117b"),
    "spider3x2": ("8718f9896792d0ba1f26a49fb79c7e5c869aac8e42f474a069c6a3ba2b8af2dd",
                  "13f4a70edf97a717ef319553e7a25595679c7496439954537327f60fe263047c"),
    "star5": ("eb6bb714a947892adce3f705b0173178e44781d98283d7d9432e3de702c84c23",
              "bbb10cdfe74843d8944836fe981b805574b98d582e0a9b1cb401e9fb8e88a5ce"),
}

# name -> (tree grammar JSON, regular grammar JSON), as written
INDEXED_GRAMMAR_DIGESTS = {
    "C6": ("184356eea95d51854f842d37880cfd10a1a3df967201655b6eeaf6255f40ff47",
           "fcb35cea54a11d9a9333bfa2dab3a093789571fd5863e0b9824fcc7d2ce200f6"),
    "K4": ("a91c28792faf12ac251e9e1d5b4a1e04cfdff16c0a34c7a0185fd48d33e0ae83",
           "822b261fffaed415ae99135c8d86496b5b5ab3441ba4dc9edd1aa4caadeb04a9"),
    "K5": ("e71970689ae890dfed17b8e6d7401e01374e3e3ebb06590805a9a22288176b31",
           "1ae76796f3d9d2b48263586f9083df3d20e21c9f215606e1ec77a454b121fb69"),
    "P8": ("b90139042d4309847ab25d1b4b5863c59d2f5204c8ea09dac71e3cf8b84b7173",
           "51b26ae06e453f16867d08b13a8f6e2976bf42e948b943251ab20f8643d74e44"),
    "Petersen": ("063adab151ecd469a66d931557110fd00564bf8bba68264cd51ee10e9eab7133",
                 "eedf76d1df0eae4bd48312db6df4418ee209bdeb807f2ec4203ffc6ad1f3c791"),
    "Q3": ("0552c884f53cefa10d0d50c9af5e8c9421261e07e50a14103404cc8c22fcd12c",
           "0304179ec1fe0bfba476a3fb8a056be1c48e738532b2c130e68d1b77ce6f1c0f"),
    "btree3": ("e4ff3c34abf6cad4d0e78c76d63baae68227e228b15a1788a7ed597d94e9528b",
               "dd97ccfae11883b83864a1d64909a5f24f690a576173af217745e34ca5686dfc"),
    "grid3x3": ("46c796801c0c39c17e2019c22e909fa9e5e4d3505231d69e30464658481b960b",
                "a9bfec1c0239c86b199472b9f847ed317a4070b854fe262fee37ac8a758b6015"),
    "spider3x2": ("34425bbcd7ab0a624e668c09d49958a8562e79ec74a0d34f0fcaa0e079875066",
                  "e20a352b0e77b64585bceb49ac5af774ee665bea60bcbf6b63ac31e97e16d3a2"),
    "star5": ("69e7b4122379c6094d8b461e5bef61d0d4b4e979e94a62d9156e43621fc15ae1",
              "9847b5d96f03fdeb43fcdaaba32e03adb5e075d5db3e371bd75e32845a9038fd"),
}

LP_DIGESTS = {
    "C6": "5257adbd3997e44e33fbf810bf30151d0ae77a75add5e20c1450a088fbad41a3",
    "btree3": "dfc87e93a2d2fa47a9401def2acb366284127171f712e54d022183de08f1e023",
}

# name -> (graph, seed of the relabelling)
RELABELLED = {
    "C20": (lambda: cycle_graph(20), 1),
    "P30": (lambda: path_graph(30), 2),
    "btree4": (lambda: binary_tree(4), 3),
    "grid4x4": (lambda: grid_graph(4, 4), 4),
    "Q3": (cube_graph, 5),
    "Petersen": (petersen_graph, 6),
}

# name -> (`build` output, `build --path` output or None above 10 vertices,
# `lift` output): a build's output is its grammar JSON and its alpha line,
# position named
RELABELLED_DIGESTS = {
    "C20": ("9650d7093964dad3457bac51a36ac12ade8739aee1cfdaf358752caa08769256", None,
            "76f722aeb2288216fbe5ca64ee0c6be1b132c813624dbf4459cc8e87d3f943ec"),
    "P30": ("e7a619797e50aa6b7e6b100223dcaec25b3952b5c67cbf694cd89bf14a499045", None,
            "75de9a75a58afb7bdf26ec62139168a65f2516f96b389f09b74dfdb67f1bc98b"),
    "btree4": ("427d56f59fd52842dddae62f6905311c737de31f580d528a5bb8ef1735de40e8", None,
               "b6cbb8b71029876f5572894e43f5508bae9618735b2b1f5c0f42d8f0fb275bf6"),
    "grid4x4": ("f871e2be61f7a826313c15805db30bf16cee873e2b90d25b568fb7bd9394ee0c", None,
                "251f3c4532cf6e1bc9ced15dc776a2e69fc3b8ab2aa8f3d0ed72fbd83b42c1f4"),
    "Q3": ("2c1ea4ffe90c93cb67d7b6db456bc76f37d6d72064a6dc867a0ddaa81df2d9b4",
           "2adf15dddadd394fd32afde44e76a1ae38709715281964d929e17e0e58cb4cb1",
           "d0f1a7bde117fa50052f3f76be976725afab3b5ea70460fea86bf09ac15c6de0"),
    "Petersen": ("887e244bd068224505456624743008fd506f3071b6fab19d530842f26e17f09b",
                 "0d351cfbfae5e87f20ba6f8270b991c6919720c636a33da454fc0a6bf2d7ce75",
                 "2b7f5421dac3b7f3b4335958c80f67a4580265db047453890a21af8122809563"),
}


# name -> (`build` output, `build --path` output or None), as written
INDEXED_RELABELLED_DIGESTS = {
    "C20": ("eb9e05548c8c3c3e2590d527ebbfb50d78e6809416bac21fbdb3e0c1ebd72279", None),
    "P30": ("93eaca857ffca699ba4a171c37983b48e73f7c9d2434b007ecbe62131a980b65", None),
    "btree4": ("7f1505533d8a2b90ad5b813f6bc468cd4d7e830ad6b9ed042abc44f54d05d9e1", None),
    "grid4x4": ("7ee74e84307f1bce54160b32d993bf518ee6c33ff8e63d82d1560da9c16014cc", None),
    "Q3": ("6c55af4863e2cb1f3d61ee44bfc9dc6fc5f297af4be4ab9c41b17ca4c4338346",
           "56232918388ec27c33b77b9b7c63eee74e85d02d745aa672af569c7ff5aeed98"),
    "Petersen": ("19f46b25499077f0d6a8f659fadaa7926057ca6bc3027d7a9e07285b7f4e59bb",
                 "b08140f670a808e681ef91e2c4c5376fd0811120050deb8123423367c10aff5c"),
}


def _position_named(text: str, t=None) -> str:
    """Grammar JSON text with each variable p:<j>|b:<k> named as it was
    before variables were named by position index: p:<the child indices
    of t.positions[j], joined by dots, e for the root>|b:<k> for a tree
    grammar built from t, q:<j + 2>|b:<k> for a regular grammar (no t)."""

    def name(m) -> str:
        j = int(m[1])
        return f'"q:{j + 2}|b:' if t is None else f'"p:{".".join(map(str, t.positions[j])) or "e"}|b:'

    return re.sub(r'"p:(\d+)\|b:', name, text)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def _tree(g: Graph):
    return make_permutation_yielding(g, compute_tree_decomposition(g, "min-fill"))[0]


def _tree_grammar(g: Graph):
    return build_aut_grammar(g, _tree(g))[1]


def _group(alpha, gr) -> set:
    return {permutation_from_aligned_word(Word(w), alpha) for w in iter_language(gr)}


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_tree_grammar_matches_regular_grammar(name):
    # independent of the tree grammar's format: it spells the same group
    # as the regular grammar, whose bytes the format does not touch, with
    # one parse tree per automorphism
    g = GRAPHS[name]()
    t, _ = make_permutation_yielding(g, compute_tree_decomposition(g, "min-fill"))
    alpha, gr = build_aut_grammar(g, t)
    group = _group(alpha, gr)
    assert group == _group(*build_regular_aut_grammar(g, compute_path_decomposition(g)))
    assert count_parse_trees(gr) == len(group)


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_builder_bytes(name):
    g = GRAPHS[name]()
    t = _tree(g)
    tree = grammar_to_json(build_aut_grammar(g, t)[1])
    regular = grammar_to_json(build_regular_aut_grammar(g, compute_path_decomposition(g))[1])
    assert (_digest(tree), _digest(regular)) == INDEXED_GRAMMAR_DIGESTS[name]
    assert (_digest(_position_named(tree, t)), _digest(_position_named(regular))) == GRAMMAR_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(LP_DIGESTS))
def test_lp_bytes(name):
    lp = emit_lp(build_extended_formulation(_tree_grammar(GRAPHS[name]())))
    assert _digest(lp) == LP_DIGESTS[name]


def _build_output(alpha, gr) -> str:
    return grammar_to_json(gr) + format_permutation(alpha) + "\n"


@pytest.mark.parametrize("name", sorted(RELABELLED))
def test_relabelled_bytes(name):
    make, seed = RELABELLED[name]
    g = relabel(make(), random.Random(seed))
    t = _tree(g)
    alpha, gr = build_aut_grammar(g, t)
    tree = _build_output(alpha, gr)
    regular = regular_named = None
    if g.vertex_count <= 10:
        text = _build_output(*build_regular_aut_grammar(g, compute_path_decomposition(g)))
        regular, regular_named = _digest(text), _digest(_position_named(text))
    lift = _digest(emit_lp(build_extended_formulation(gr)))
    assert (_digest(tree), regular) == INDEXED_RELABELLED_DIGESTS[name]
    assert (_digest(_position_named(tree, t)), regular_named, lift) == RELABELLED_DIGESTS[name]


# name -> (graph, seed of the relabelling).  Their tree grammars cover
# every shape of partners in the benchmark's compile corpus: K6's children
# are all pinned by their parents, btree5 has classes with two partners at
# a child and spider 5x4 classes with 24
PARTNER_SHAPES = {
    "K6": (lambda: complete_graph(6), 7),
    "btree5": (lambda: binary_tree(5), 8),
    "spider5x4": (lambda: spider(5, 4), 9),
}

# name -> (`build` output with natural labels, relabelled), as written; a
# relabelled complete graph is the same graph, so K6's two are equal
PARTNER_SHAPE_DIGESTS = {
    "K6": ("393114c9ff19462daefa3dbec2d8519be5606b9c78e08047aaea898a910a83a9",
           "393114c9ff19462daefa3dbec2d8519be5606b9c78e08047aaea898a910a83a9"),
    "btree5": ("5a91a19989a9c03bc38c1f77729ed40527cc58a5091d517560b6b771eac0616e",
               "c8a3b3e7f50ff560de68e612c3cc0f23fe021eabac76db528ed4a50ebbb94850"),
    "spider5x4": ("01e4daf82b7ddaf423067eb60ca7a59abb4911a07a6aa1f0a45ae6f93adc59a1",
                  "ad4b79c2e4064ca5d1ac96053fc52fe29ed8cfd4e708b549acd6561c725d7f4a"),
}


@pytest.mark.parametrize("name", sorted(PARTNER_SHAPES))
def test_partner_shape_bytes(name):
    make, seed = PARTNER_SHAPES[name]
    digests = tuple(_digest(_build_output(*build_aut_grammar(g, _tree(g))))
                    for g in (make(), relabel(make(), random.Random(seed))))
    assert digests == PARTNER_SHAPE_DIGESTS[name]


# name -> (graph, seed of the relabelling).  Above 64 vertices a vertex
# set takes more than one machine word as an int, as the annotation
# search holds it; the digests were recorded on the set-based search
MULTIWORD = {
    "btree6": (lambda: binary_tree(6), 12),
    "P80": (lambda: path_graph(80), 10),
}

# name -> (`build` output with natural labels, relabelled), as written
MULTIWORD_DIGESTS = {
    "btree6": ("3c39b711ab9bd01d85e41dbb698e8a8113cf04332a943099a399f028545265be",
               "98522533b4a3c5bb59bf73cbf964e5594e12631d7d2a49515639f65c9e6e301d"),
    "P80": ("10728e745a6aa841f6e2a90081e8e83b32cafb7dd20a9d40000db9313047ebed",
            "3dd9dba5c3456bcfe8e901c6ce9fc34534270e83af4cd5f620d096387bd528da"),
}


@pytest.mark.parametrize("name", sorted(MULTIWORD))
def test_multiword_bytes(name):
    make, seed = MULTIWORD[name]
    digests = tuple(_digest(_build_output(*build_aut_grammar(g, _tree(g))))
                    for g in (make(), relabel(make(), random.Random(seed))))
    assert digests == MULTIWORD_DIGESTS[name]


# name -> (host graph, kept prefix, coset representative or None)
EMBEDDED = {
    "btree4 keep 15": (lambda: binary_tree(4), 15, None),
    "btree4 keep 7": (lambda: binary_tree(4), 7, None),
    "btree5 keep 31": (lambda: binary_tree(5), 31, None),
    "spider5x4 keep 1": (lambda: spider(5, 4), 1, None),
    "btree4 keep 15, b reversed": (lambda: binary_tree(4), 15, Permutation(tuple(range(15, 0, -1)))),
}

# name -> (`embed` output: grammar JSON and alpha line, position named,
# `lift` output)
EMBEDDED_DIGESTS = {
    "btree4 keep 15": ("6e95846e7747e041958c41fd71dca8529aab5800701138879fb236f827aa2bc7",
                       "d81e121275e435f9f171e34831e32da807336b3cdf65f3682c4a98d9c0e998b3"),
    "btree4 keep 7": ("7d76b5edc86e4841d4b0c046e668375fb5e418d8e2a024bbb0d6d370fe958e19",
                      "0028313ef1713a39feb317074ba7eb9d76eb4605921b62731ddca032f8d3765d"),
    "btree5 keep 31": ("1b95569d1f29c4a469a4ec8afe7b19e408a02a158b0169e28103a1acf98e8048",
                       "455af497fb54438db010b8ae1dd6efdbe9c108645e56f5d7440feafea3d46346"),
    "spider5x4 keep 1": ("5e52df1580ede3d4d63684d8aa14fda9263de952d834023690fbf7b36ed92f8f",
                         "967831603213e0030579e36cfb609b9849c9466779c7547d2f58a0f9762867ff"),
    "btree4 keep 15, b reversed": (
        "7f381612edf0c2f642c6f1208a4e6739ed528b6d75b2be7d8a4f32f4e93d9abc",
        "e2dead8d59c3a8827ab3b70edb59bbdd5a5248d1ceb57950f88402afd5289a8d",
    ),
}


# name -> `embed` output, as written
INDEXED_EMBEDDED_DIGESTS = {
    "btree4 keep 15": "ce27af3bb1c16772931e1a69c988c8ca4c2378dd7532d7d48f3758af559d0814",
    "btree4 keep 7": "a5cbb59a7561b743787bce09bd14d76ac2984773a2b3aa31ff90cc259d400954",
    "btree5 keep 31": "c26f411ead6f09a05a965b2e43ef3a33906bac9e3afe1c3baf594a4ab027e642",
    "spider5x4 keep 1": "779dc867f9ddc839e6cff36b436729637d835388cfb226110fb8c400b292502c",
    "btree4 keep 15, b reversed": "3c77020946d37b24b34fb359c9bc0453110f73f742811908c67bf2ad5fc11162",
}


@pytest.mark.parametrize("name", sorted(EMBEDDED))
def test_embedded_bytes(name):
    make, n, b = EMBEDDED[name]
    alpha, gr = build_embedded_group_grammar(make(), n, b)
    text = _build_output(alpha, gr)
    lift = _digest(emit_lp(build_extended_formulation(gr)))
    assert _digest(text) == INDEXED_EMBEDDED_DIGESTS[name]
    # the embed builder erases the grammar built from the host's min-fill tree
    assert (_digest(_position_named(text, _tree(make()))), lift) == EMBEDDED_DIGESTS[name]


# natural-label P2000's `build` output (grammar JSON and alpha line)
DEEP_PATH_DIGEST = "cbb6b310388690737d5fa1a89099b283b1135611b184e7a71aba3ffe6b897001"


def test_deep_path_bytes():
    g = path_graph(2000)
    assert _digest(_build_output(*build_aut_grammar(g, _tree(g)))) == DEEP_PATH_DIGEST


# name -> (graph, seed of the relabelling): exact-small decompositions
EXACT_SMALL = {
    "C5": (lambda: cycle_graph(5), 13),
    "C6": (lambda: cycle_graph(6), 14),
    "K4": (lambda: complete_graph(4), 15),
    "star5": (lambda: star_graph(5), 16),
    "grid3x3": (lambda: grid_graph(3, 3), 17),
    "Q3": (cube_graph, 18),
    "Petersen": (petersen_graph, 19),
}

# name -> ((.td text, `build --strategy exact-small` output) with natural
# labels, the same relabelled); a relabelled complete graph is the same graph
EXACT_SMALL_DIGESTS = {
    "C5": (("1d9a3acae1404401569f25d41c9214fccd98da7a32a470d3eb374f3f831031bf",
            "24e09cba8c3d4905cd661789fdedc2fecc352e5389c3d81ece87fe8e5b68e769"),
           ("7ba595e72d90a92fe20bf340d22e5d2d61ea5b1e686821189106186b3bd830e0",
            "57119384244a68a789b7ea1e12bec9bba6299f5628dd99e9dadd07b4065c13d7")),
    "C6": (("8da0df1bd838dbc21941c8fe62add39e2ee5079aba9fbe5b7e5a18bd150cd4c0",
            "2494d955d96c98ae3245bf27f02c9559ce26f598c14e3464622e03ebda3dbad0"),
           ("8e299cb79b8f7aa3ae7154badc9cc343fa0cb65706382f64798d1c7c3317159d",
            "34ba38382948c13eae1974ec1b2bf2ad27718eff2fa326d464c715b01ed33f7b")),
    "K4": (("eea56d514e85e72e56446ffbbf6b3a9f0215585895b786b64e2d8f3b35ca2fe7",
            "265faef70dbfd635629404bc315eb87455e6f0e80a8227416031345c6ad46b36"),
           ("eea56d514e85e72e56446ffbbf6b3a9f0215585895b786b64e2d8f3b35ca2fe7",
            "265faef70dbfd635629404bc315eb87455e6f0e80a8227416031345c6ad46b36")),
    "star5": (("1f8da8ceb3272122c7bcbc9b669698da16a28d3037f5757d1ba2ed60f5cffc3d",
               "1942683c3c58ce0894de227fcb7d9e38f194cb436687602f862f0bf779234782"),
              ("b36e0ae60182df9daf9f7ba757499a313e05864eef9cb173adb2fc193d6cb997",
               "a46c01e165b54e41686997e624e47c41f74e9a1b307abadbeefa35112a2350f8")),
    "grid3x3": (("4b57004ff2b42b5d6a6c58889300c0b71a05a3f942686b793638f06a1f3c61f0",
                 "1acfda2c0f45407614a7f23ce4dd2ea8807606af52f41021544a3ef870738fc6"),
                ("87237d1eac852a95d8a19044d74ca775d94c7f5ed9a40ca4eb61709af5678477",
                 "d0c28ff6f2575f697203123c24fb9e21db9297006ddb3536135990ce34ebd8bd")),
    "Q3": (("80c7b83c8d7f5419b7fb327db27d13d06889693db2b50ffb5aaeddff53ff0a75",
            "71f2597bd7f9cd0e4efa8915a89a86aac97a1f058fa5e9881d9b207fe035e040"),
           ("c534e46f708856a3fd190950c209acc4c9328dd133022751e870083a53e68a8a",
            "4ba099f86f898e33731ffa88e8b2ded1734fb3f72372b7dd894aa5fac910d1d5")),
    "Petersen": (("496be403f46f6007c82ce9e41e61b082751c69fd6a12fc591117af3c84377585",
                  "547aff70735958952b983b7d50549456c2a98c741e517d4d614e38779a728d01"),
                 ("d92a26a30507f2baa358cac614249120b44085a844b9caf5bb39d2fbe432c97a",
                  "e7ac01494a5e11eae4042327f550539a75c8afc57c77ae0144fee80d202dc045")),
}


@pytest.mark.parametrize("name", sorted(EXACT_SMALL))
def test_exact_small_bytes(name):
    make, seed = EXACT_SMALL[name]
    digests = []
    for g in (make(), relabel(make(), random.Random(seed))):
        t = compute_tree_decomposition(g, "exact-small")
        alpha, gr = build_aut_grammar(g, make_permutation_yielding(g, t)[0])
        digests.append((_digest(write_pace_td(t, g.vertex_count)), _digest(_build_output(alpha, gr))))
    assert tuple(digests) == EXACT_SMALL_DIGESTS[name]
