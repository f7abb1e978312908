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
    "C6": ("0725e7a9a70700d14ff9880d1d0cd4d61aa9cee756da6c5017fa35d17c73c2ef",
           "5900e2b80d63c50bb740605270f975678ed3ac46473993f19c1d6293b9650002"),
    "K4": ("bf84cbf5aad3ebb86463bda5ddd0dfb2eecfd571616f1114676dd0b58dee6148",
           "541c0e40507fbd75e3b3c0b3c8adcb41cdd76a370492d28aced264105adb893f"),
    "K5": ("ee8a2c3cb8f604d19e2b41f760bedef00c90fe5c50c6f47a8773f4e432f4c6ea",
           "5f9a4261d2c85507c55e412ebbd50ef713944bab05bfb735b3bb4357f7ddc967"),
    "P8": ("de8842b28f394907189e322f7b66ee5f768198807a90f97eef1d18516d899d8c",
           "2313e30e3a44224f25d3c4678974dbf0696b67f5ae25c99ae2ce82cd6a80fe57"),
    "Petersen": ("36b127a49e8f4e34b1340321d3b5583a7fa43412fc4ef3933d5fa6b013710a6f",
                 "a627e1ce6eac130d053fc8285e426f602d2c555f097481a14489abdc1647cef2"),
    "Q3": ("9cf4ab336518f49f67867644944989d5d54d8f8a9ab9346e04bad8a2ad9ab7ea",
           "f98c9793d15481ecb8e0127462d0f991bad1cbc741d76d0552227890f1cd4a47"),
    "btree3": ("d5d701bb682e41260b373ed77f7b192a40e9f14e7a2f8730e1fbd7e0e5c10a0d",
               "c58d466c30169cf76125de36f27011517f8617b124991727d61e33edc77fb67b"),
    "grid3x3": ("a8e299b7ae1c96e3c69a09e43221da948fb7c548f4a315aacd92cfffd21eae34",
                "f2d0f765fa9e074d54c8810617ce0734449be928d351a54aad56c879763e117b"),
    "spider3x2": ("a51b40395c170174e5389b474ee536eb55493943545a580d33c5c03469891276",
                  "13f4a70edf97a717ef319553e7a25595679c7496439954537327f60fe263047c"),
    "star5": ("8d736dea1f44453a67efff2ad0457627d291f0869e4b50cec77a3c7355887781",
              "bbb10cdfe74843d8944836fe981b805574b98d582e0a9b1cb401e9fb8e88a5ce"),
}

# name -> (tree grammar JSON, regular grammar JSON), as written
INDEXED_GRAMMAR_DIGESTS = {
    "C6": ("9f56a9447cff767a95c7615152597becc0addf63740af6fb3514d0f127c4cbf3",
           "fcb35cea54a11d9a9333bfa2dab3a093789571fd5863e0b9824fcc7d2ce200f6"),
    "K4": ("c822c983dee697d8268046d437312b66c338b2a2ddddcecbfb490ac0be52368b",
           "822b261fffaed415ae99135c8d86496b5b5ab3441ba4dc9edd1aa4caadeb04a9"),
    "K5": ("01622417c73a376ac1ca3efcde6b6e2e1f59da4278fc666632f5541838bb1f21",
           "1ae76796f3d9d2b48263586f9083df3d20e21c9f215606e1ec77a454b121fb69"),
    "P8": ("0d3cf5af72d014090e5fe43c75cc82c4e97ff6fa57c7402a819db741a27ffa71",
           "51b26ae06e453f16867d08b13a8f6e2976bf42e948b943251ab20f8643d74e44"),
    "Petersen": ("62e08f4eee313b3aa9af2c4f33c96ab20f53b6addad4b837ce7f47591eabb821",
                 "eedf76d1df0eae4bd48312db6df4418ee209bdeb807f2ec4203ffc6ad1f3c791"),
    "Q3": ("d49710b21522a50155ccc8a6c3c577c9720fcada8737428eea8158db9f74bc98",
           "0304179ec1fe0bfba476a3fb8a056be1c48e738532b2c130e68d1b77ce6f1c0f"),
    "btree3": ("9e389159545b8bbf5d03244fdbf6ac5c196e3a52ea8fd300ebfe662d97900544",
               "dd97ccfae11883b83864a1d64909a5f24f690a576173af217745e34ca5686dfc"),
    "grid3x3": ("3470e01ca95e7b712634927d1f8c8c0aeeacc4cfc2f226066c65d71c47989444",
                "a9bfec1c0239c86b199472b9f847ed317a4070b854fe262fee37ac8a758b6015"),
    "spider3x2": ("f55228f2106a29e26e9a5d5f61a33a552694495c1ef7403f2fbb361145120f93",
                  "e20a352b0e77b64585bceb49ac5af774ee665bea60bcbf6b63ac31e97e16d3a2"),
    "star5": ("63c097855695f56ed103a9358b7f1112c153033e706783f50267ce0ceb7de62e",
              "9847b5d96f03fdeb43fcdaaba32e03adb5e075d5db3e371bd75e32845a9038fd"),
}

LP_DIGESTS = {
    "C6": "88dd4a312300cec0a9049dabc4e7e4efb25e9fcc97848d0014ec41e3524d2ecb",
    "btree3": "704a38410312b09391868dfa2a460e5a6babeb79895710b1b18cd27268a3d55a",
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
    "C20": ("28f56eb0d410300a715c567eb507a3efe1465ee317ee915158266be2139547c0", None,
            "e2c168af26c12d92fa76825ff10ef2fbedf1458f96bce782b44820b72e50d1c0"),
    "P30": ("b8905abbca6286f2f6cc3338566c0b237c90d3ab592bd743fe177703251e8dd7", None,
            "c26f2da636cf88c626104d40307ef7216c6b173021d8589dd357887429c1b2f9"),
    "btree4": ("3722455b3f924ef63ccb24792849412ed2325a5e9cd7937888fa2f147f964b9a", None,
               "d2821feee2ad07c8230cac6d792d380f1ac833b911b36b7071dc2cc77a26e4c2"),
    "grid4x4": ("11c6afc79d1eebc457639c76f8df39c5c3c6cc57af4aac475a8c32017b3846bd", None,
                "2135c023603549835133e368a02cc8d90e57342f95270671eea52ca379e6c464"),
    "Q3": ("debc49399c1da6159c92dbe89414d89c73ee0226392caedd250ec4a02d39e930",
           "2adf15dddadd394fd32afde44e76a1ae38709715281964d929e17e0e58cb4cb1",
           "f67908173f3f1f2a3349688bd579a1558d3d8094e1afdd7e36c710dd33ff5604"),
    "Petersen": ("e9409485e6c44f6a20418e573f8c5f55416504fcaf2e23ea3823e7e11fa00bbf",
                 "0d351cfbfae5e87f20ba6f8270b991c6919720c636a33da454fc0a6bf2d7ce75",
                 "5b6d0c752cbcdd285f9572cf1a4c66eb11fc84a1e072ca16507a431f4c3064b8"),
}


# name -> (`build` output, `build --path` output or None), as written
INDEXED_RELABELLED_DIGESTS = {
    "C20": ("75ab703fad58c8e865594126f47640d7e0b645df5e9df1361e25657ec725cbf0", None),
    "P30": ("63fc5daacd5d29abf112e0c8e7a2779a9776594834453fdbf1042bf3cbbdcb3f", None),
    "btree4": ("7597ddc304218de2cfe2cef1504972b13019ddf4be7074f328cc840c6fc8013a", None),
    "grid4x4": ("ddea7e576ed3c414bf3e4ed139aa687d8613413fb7f18217094e7a427e1d974f", None),
    "Q3": ("56fe94054caa464ad84315b556af1ebc1c1b76937c59f758e32af1442c457a11",
           "56232918388ec27c33b77b9b7c63eee74e85d02d745aa672af569c7ff5aeed98"),
    "Petersen": ("644cc49d478d0feceb7d20d0189ab640f2316d0bb5e76e20a9cbbad5138c8437",
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
    "K6": ("f4359e3b2ccff77d9212d9b087e69c456b790e33f5c74e9c7556dc324dfe0c5e",
           "f4359e3b2ccff77d9212d9b087e69c456b790e33f5c74e9c7556dc324dfe0c5e"),
    "btree5": ("eee1d9c57095f54a503692e47dad225bf59a63978aff7feab17c4a96f00f67a4",
               "47f0054be08149bc3eadb348377bb80f7d085543c8ff4df50f11319b5b51cecf"),
    "spider5x4": ("d05351e3ae9a0cc8ce4d5b6956f120dec32f12c48482fe6cd5a5e9717a1612ea",
                  "6f9b57a8b0de16a482c36f6bf13818f636264a741811460dfb6235cd2d5a39d6"),
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
    "btree6": ("84176eb3ecb79e0a85da6f550f7ef1cb5d3b3871dfc470f304c8dea3c7e8136d",
               "36b1931f2478fa0a265db2bdc52a2892af4107b2fe74b97bd3ac60811873c39d"),
    "P80": ("2ecca985ba1b49668acc5a04d21ea94354ab7b9d2309f93f72c877f3ca5d13f9",
            "3124ec010225dec7c2af14b577d89520f5c995c8f82e8f6a463687d04dbae048"),
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
    "btree4 keep 15": ("f30f295a1a2a44b6ec7e24405e08c50a5a4520512145404ec6e139c41be72ffa",
                       "9935881dbafc0e5d2c571fc3f031a103c74f57292e5047466e1d816d758b2cbf"),
    "btree4 keep 7": ("fbff256afdd2709b717d255993c9eeca1f9b6c91b028a675abe8de36d8f690ec",
                      "b3fa4c7938e9c911454807113a01f933c0c1fe89897d7d75f5b0aa9efb6b90b5"),
    "btree5 keep 31": ("cb79dc16a0d55899547b90087405ee94a96468ce4492d2707cc24cc22815c2fe",
                       "99fa375aec883df258bcab01239da667b5f2cc40ddd753bfe904f441dd48769d"),
    "spider5x4 keep 1": ("6c2a09ded9cf1888239259ebd39c723113d659f8a13e5a3a600775b7d40c3044",
                         "97595e1b7715dd9c32474509d649e8bfaa99d6004613fecf538adc2a5f82c9cd"),
    "btree4 keep 15, b reversed": (
        "f1d5e64b166f71c0d5cc036aae64a6887540b03b2e70c182ed5a952025d9f571",
        "99e5ab71c34dd26a8ac36546ad1c70de73cd5b8e7dde24f5b3a5e7ba1e4a0e88",
    ),
}


# name -> `embed` output, as written
INDEXED_EMBEDDED_DIGESTS = {
    "btree4 keep 15": "bdb07eb3077d6d98af7a9fbc9f9832f008b7b9cf90d47d72c2c3514c3edf16cd",
    "btree4 keep 7": "9e48d955492cbf3f4d658975503fd2cec179089004024a2e8b09643796bd6086",
    "btree5 keep 31": "bef046889efbbf18c40e8e896eeb020544d200f45a19ae967b1b64ff660626df",
    "spider5x4 keep 1": "77cc16c6494a3ad3f5be5e87c49b6d7b0e30c936c5e533776af8c4318e389b13",
    "btree4 keep 15, b reversed": "77fc78ec3c9a0e06ffbfa0b8ad6e49b3626e688157863db33c64c3ba507c5752",
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
DEEP_PATH_DIGEST = "4d13215202729e3fe082cb2308a70729999de4dd7e965245a34fcf00c1075b53"


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
            "14d31cc6e1c0c72ca1c16636c880a8a4a81d31d5c74918446490be63c98031d7"),
           ("7ba595e72d90a92fe20bf340d22e5d2d61ea5b1e686821189106186b3bd830e0",
            "a269debc8e6764c88b220db615113bf003d688702c030e7c5d3cef83f2c01ab8")),
    "C6": (("8da0df1bd838dbc21941c8fe62add39e2ee5079aba9fbe5b7e5a18bd150cd4c0",
            "8edcb69b61d940c35f37c36a4558bbeed13be20179dab2819d818c3f7e906c5a"),
           ("8e299cb79b8f7aa3ae7154badc9cc343fa0cb65706382f64798d1c7c3317159d",
            "8d8075cb739d3ea5d81a56ce05b58cfdc7ecb64b0b9d57815660aadfb2aa7bce")),
    "K4": (("eea56d514e85e72e56446ffbbf6b3a9f0215585895b786b64e2d8f3b35ca2fe7",
            "2fc0437230a4b06ed1f1bb97d199d488b01189660f5c3a1697b7c55d8e8e2d0a"),
           ("eea56d514e85e72e56446ffbbf6b3a9f0215585895b786b64e2d8f3b35ca2fe7",
            "2fc0437230a4b06ed1f1bb97d199d488b01189660f5c3a1697b7c55d8e8e2d0a")),
    "star5": (("1f8da8ceb3272122c7bcbc9b669698da16a28d3037f5757d1ba2ed60f5cffc3d",
               "8ea3ed575915ace75451fb413d6ffc6f13494508978d7b691a568d30edd632ca"),
              ("b36e0ae60182df9daf9f7ba757499a313e05864eef9cb173adb2fc193d6cb997",
               "a2b23cd49d5ce864e57741d74cfc9327728c78407dbef8f337efe9835ecf5fbd")),
    "grid3x3": (("4b57004ff2b42b5d6a6c58889300c0b71a05a3f942686b793638f06a1f3c61f0",
                 "abef6faad5114ccf117adbd2b53284ae7e4dcb574324e31dd101500225972e0b"),
                ("87237d1eac852a95d8a19044d74ca775d94c7f5ed9a40ca4eb61709af5678477",
                 "d55e924f8ac852d145e18b5dcc352c1ffa805c111e2fbe05723bda161c77d481")),
    "Q3": (("80c7b83c8d7f5419b7fb327db27d13d06889693db2b50ffb5aaeddff53ff0a75",
            "ac389955928dea6fe5d05896f83e78dfcb050b9820ede5c243ee3ff9959d7635"),
           ("c534e46f708856a3fd190950c209acc4c9328dd133022751e870083a53e68a8a",
            "d6ea0ad4fa404a41a30385b7ff347b69bb5d3001c492c5ae926f1a186989e1ae")),
    "Petersen": (("496be403f46f6007c82ce9e41e61b082751c69fd6a12fc591117af3c84377585",
                  "4e71f06c6e0ca283f08ec3327052def4090aec86297d6bff72a839010cfb271c"),
                 ("d92a26a30507f2baa358cac614249120b44085a844b9caf5bb39d2fbe432c97a",
                  "c139cc65e37f8a5e6333035eeed03fcd4fed3bdd42bcc19bf3e6364b8ae81b4a")),
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
