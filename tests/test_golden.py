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
relabelled) pin every shape of partners in the benchmark's compile
corpus; writing the rules column by column kept them.  The digests of
btree6 and P80 are the first golden graphs above 64 vertices; holding
vertex sets as int bitmasks kept them.  The digest of P2000 pins a
decomposition 2000 positions deep; holding positions as preorder ints
kept it.  The exact-small digests pin the `.td` text and the `build`
output of seven small graphs, natural and relabelled; reading the bags
from the one elimination that picks the order kept them.

Every tree-grammar digest here (tree grammar, relabelled `build`,
partner-shape, multiword, deep-path, exact-small `build`, `embed`, and
the LP and `lift` text of tree grammars) was re-recorded when the tree
builder began writing each class with one rule, which one rule names,
into that rule instead of giving it a variable.  That moved all of them
but natural-label star5's tree grammar, which has no such class, and
moved no regular-grammar and no `.td` digest; the language, the
parse-tree count and the LP verdicts did not change."""

import hashlib
import random
import re

import pytest

from autgrammar.annotate import build_aut_grammar, build_embedded_group_grammar, build_regular_aut_grammar
from autgrammar.decomp import (
    compute_path_decomposition,
    compute_tree_decomposition,
    make_permutation_yielding,
    write_pace_td,
)
from autgrammar.graph import Graph
from autgrammar.grammar import (
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
    "C6": ("e133c2a424a30be5188707aa78da21813b5c32c2ed3267b44363f4a6fe3fcad9",
           "5900e2b80d63c50bb740605270f975678ed3ac46473993f19c1d6293b9650002"),
    "K4": ("8710073a65f33d5b124df323fe5b57a8fe2d1a2631c5add5268a3d85647b8d2e",
           "541c0e40507fbd75e3b3c0b3c8adcb41cdd76a370492d28aced264105adb893f"),
    "K5": ("d58991289bb8a80a4f73f59b4cba665b1f069f77a6fda55b3c149333e213095d",
           "5f9a4261d2c85507c55e412ebbd50ef713944bab05bfb735b3bb4357f7ddc967"),
    "P8": ("7eba0c5f12a731a43ea378c9a27e2dc10eb0106248ca07f3fcb7210f7939dbc5",
           "2313e30e3a44224f25d3c4678974dbf0696b67f5ae25c99ae2ce82cd6a80fe57"),
    "Petersen": ("c06fa7e10e93f67675410601eab1248e1e7ea738940905ce27d8e5c0af4fe0ad",
                 "a627e1ce6eac130d053fc8285e426f602d2c555f097481a14489abdc1647cef2"),
    "Q3": ("0e77a301abd52a4e3dcb798e209d9716c01019893c4100adf0d777a6af92c2f3",
           "f98c9793d15481ecb8e0127462d0f991bad1cbc741d76d0552227890f1cd4a47"),
    "btree3": ("72366878338bc19326af0c658d40ea6f5111d9149d3ac8982f7c23bee80a107e",
               "c58d466c30169cf76125de36f27011517f8617b124991727d61e33edc77fb67b"),
    "grid3x3": ("755173510a2c8216a4dd502daf973d215e249c9cebc3186b7b7816c94b7821cc",
                "f2d0f765fa9e074d54c8810617ce0734449be928d351a54aad56c879763e117b"),
    "spider3x2": ("9db6953669650b2f813e52e09d2113a4e26b8e76b44e626a41364c4d2a5d1691",
                  "13f4a70edf97a717ef319553e7a25595679c7496439954537327f60fe263047c"),
    "star5": ("8d736dea1f44453a67efff2ad0457627d291f0869e4b50cec77a3c7355887781",
              "bbb10cdfe74843d8944836fe981b805574b98d582e0a9b1cb401e9fb8e88a5ce"),
}

# name -> (tree grammar JSON, regular grammar JSON), as written
INDEXED_GRAMMAR_DIGESTS = {
    "C6": ("c39ed3dfa62ffc7c88865cc922a10bef0cfa7aefc312006f5e49f98e3f70b7c1",
           "fcb35cea54a11d9a9333bfa2dab3a093789571fd5863e0b9824fcc7d2ce200f6"),
    "K4": ("732bd2eae99bf49580b1204703d119047fa62ebb41912a5c429c31023bee9488",
           "822b261fffaed415ae99135c8d86496b5b5ab3441ba4dc9edd1aa4caadeb04a9"),
    "K5": ("2491a7ed852b3ce892a797314f53b1e1c1522c4f1ba5aa9174bb68519f2250cd",
           "1ae76796f3d9d2b48263586f9083df3d20e21c9f215606e1ec77a454b121fb69"),
    "P8": ("7eba0c5f12a731a43ea378c9a27e2dc10eb0106248ca07f3fcb7210f7939dbc5",
           "51b26ae06e453f16867d08b13a8f6e2976bf42e948b943251ab20f8643d74e44"),
    "Petersen": ("2ea888d8a53499efadc6d9cbd4a5373c049ab51b579b4b4193eec7702e9c8347",
                 "eedf76d1df0eae4bd48312db6df4418ee209bdeb807f2ec4203ffc6ad1f3c791"),
    "Q3": ("71185776af0179e5ccd7437621572e7b5592ff95ab76e7464a8118138fffb276",
           "0304179ec1fe0bfba476a3fb8a056be1c48e738532b2c130e68d1b77ce6f1c0f"),
    "btree3": ("88ec22e85172869a400269a4622bfa7358a614854beea70dccf214e0fe3bc5b8",
               "dd97ccfae11883b83864a1d64909a5f24f690a576173af217745e34ca5686dfc"),
    "grid3x3": ("41fb2119dd2ea89ce911f47ce95d4f85ac4f1abda3c3615ca579957523c43e17",
                "a9bfec1c0239c86b199472b9f847ed317a4070b854fe262fee37ac8a758b6015"),
    "spider3x2": ("4e127630dd2a1218c15a6c84b260740c44245fc4fdd3885ffe3ebc71b972d442",
                  "e20a352b0e77b64585bceb49ac5af774ee665bea60bcbf6b63ac31e97e16d3a2"),
    "star5": ("63c097855695f56ed103a9358b7f1112c153033e706783f50267ce0ceb7de62e",
              "9847b5d96f03fdeb43fcdaaba32e03adb5e075d5db3e371bd75e32845a9038fd"),
}

LP_DIGESTS = {
    "C6": "34a0893a9da3052ee9514b51b0a400246f627cd04062fdc6c7680f18000f412c",
    "btree3": "8474a8bbd19d31f35dabe4bb293438e00adad04b7e96d6b9be5d37e08db38850",
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
    "C20": ("29c7c41ffb3abbeef4314e3ad977839994f43e997ef36e3a49541124abe3ca47", None,
            "259586e584aa90702c2d697621f0e3f3931446c979dc96f5f45b823daae715c5"),
    "P30": ("b3482edfd2adff1f282fe6070f58c30187dee8eb761ec18eb7f1babf2c676576", None,
            "bc3033b2954312db08f0fae790e0882347e0ca2d717deb8bab81abda9f383da0"),
    "btree4": ("fd2a0f7b69563b3ae3243ad83d062fc483880cbae64ae908bb46882be826f12d", None,
               "9d4d4acbf4a89e30cf567c89ffbf89b1030ebbe37908adc14afed3d5c063321e"),
    "grid4x4": ("2f55f191f38377433ebdccd55da56556acff5abb50cb578a2716d77ed108b050", None,
                "5700d84fc44350a92e6e86c709c74b31a51f57ac0b46ffbf1712731de00d5c1f"),
    "Q3": ("aa3d7ddbc2813e01f86229dd54e2ba6a42902d120dcaca441dc488cd47e46657",
           "2adf15dddadd394fd32afde44e76a1ae38709715281964d929e17e0e58cb4cb1",
           "6ae1c366c5ecb13d9298696d6d4083e60aabb480cf96a1bc28bebec9ad055628"),
    "Petersen": ("06e0cfb85353770da571a9881828d561a2cecfefe9d3dec39d01f7983f543109",
                 "0d351cfbfae5e87f20ba6f8270b991c6919720c636a33da454fc0a6bf2d7ce75",
                 "207dc6a98ffa8996334b4b50996325fb7e0bc1c9b7c9b9fa6e60054f31ccb09b"),
}


# name -> (`build` output, `build --path` output or None), as written
INDEXED_RELABELLED_DIGESTS = {
    "C20": ("c7d2002708e86e51b1e06d636ff9cfe6edc4de7368129d569719796f31e52eed", None),
    "P30": ("b3482edfd2adff1f282fe6070f58c30187dee8eb761ec18eb7f1babf2c676576", None),
    "btree4": ("ff6bff2c648094a0f75259ecc49cddc40fc093c33927cc3daa7a92a5e384393c", None),
    "grid4x4": ("6220391acf28756956748041f6135816b32a4e8423db0ff4c90341f4379959f2", None),
    "Q3": ("46c71e330381535140929341228593ff776959147a31f6cca94f89d6a9d2cd86",
           "56232918388ec27c33b77b9b7c63eee74e85d02d745aa672af569c7ff5aeed98"),
    "Petersen": ("ea762b9e36a4eca6132271008c55ada221b88a156e1eb4e5ab396b2b4ab60be4",
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
    "K6": ("0230649b403bcc5f303f5ff5b69f88e6fc5c9e9df268cbbaec0be3213c02ec44",
           "0230649b403bcc5f303f5ff5b69f88e6fc5c9e9df268cbbaec0be3213c02ec44"),
    "btree5": ("b865ff81086faed9683aa97ea1e382c38734e86e006ad56e455163bb6717b383",
               "3509052aa651e52e6713b44d858ecf1439d058cfac7bf8b410b9405402ceb4be"),
    "spider5x4": ("1ab4034956d1647f608ba66a14ecf8e8bdef5d0d2998cf3f3cd912c3847108a0",
                  "1ddad22657be1433b7c5f7a229e0c2c4d482d2849a2904165cdf0fc280301516"),
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
    "btree6": ("fce07e03c1c72c10cd2c1df8e43ab998b478dc714eef76761a1c9aa5799fd588",
               "a556e918208ebc19f29307aff20a6342187314018c81823f4ce27bd0e41527af"),
    "P80": ("b7e15bba3b3831b03f28d12c301b8f74a656fd9069b81b2cd31e1c8399267042",
            "3b814d827a770f91eba1a850cbefae87b83c7b9bd3061fa3c3d23077e53f4521"),
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
    "btree4 keep 15": ("91fd11af271f1066d453435229e580f02a64c392988fee7332463a2f8004dcc4",
                       "68dcee4f8cc887abaa65e8541ee5428882775001ee9bcf2893978565bbc0c9ec"),
    "btree4 keep 7": ("3068cc7c13c1d000bdacf041498d324188a89886ec7a4b21f95bf2c070dec351",
                      "8a690689cd9171a86ef6e3d8a8582553c9b60a46fa10d3ed1f2b4b43c5f959bb"),
    "btree5 keep 31": ("df89d917f94cb5fa26e760a8270cd6f3735da9cae342eba1385687b9826f1530",
                       "c83724fada35f987873f81088fd357cd30a25ed4359665df8a592fc34df8d99e"),
    "spider5x4 keep 1": ("20c06515c1aea36241a9c54786e49e6f43329ac7b583b229f886a697687c6e66",
                         "4162877c79f8a7e3a10338b370e384c8a703141318fe3b47099a3a994665b9c0"),
    "btree4 keep 15, b reversed": (
        "e11a907cb7093dfcc2b8d3035c1ea3ce012cfecade13ae511b9ae9b5a8c4f93c",
        "9c38655a008f357e598abe9638b4c4b401a314d8e6ccfa98d3d8164505533bb6",
    ),
}


# name -> `embed` output, as written
INDEXED_EMBEDDED_DIGESTS = {
    "btree4 keep 15": "4814ee0b5e4be01b1e8f3ebbdc01035fe1e021141056d7db5aaa24978c54c0fc",
    "btree4 keep 7": "9bdc88f9f926a6a14aef9467b461d39a50a80063ddb5e3ef881a038f7f79256c",
    "btree5 keep 31": "1c84fcbdae45445adac866b30104ae1eee0fc15e825c6e4be6c80a7a25763b88",
    "spider5x4 keep 1": "0d30399d5323a4963143c68e064809b7cd23ce426e30312ef53634a47812796d",
    "btree4 keep 15, b reversed": "ddeb334c311749ef8aa04f137a33f0455b9000ccf2b1e0090dab7b7acbf7c06f",
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
DEEP_PATH_DIGEST = "311e3cb3d0272ff06edd0d08e419df4bb8cd484f036adfb56655b204dceb3a07"


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
            "6fcddc7e7d4716b340c9805e1ece7f0598a00d0de7c7cf60e58d1b00b58a5666"),
           ("7ba595e72d90a92fe20bf340d22e5d2d61ea5b1e686821189106186b3bd830e0",
            "07d668d6a58e780555574e86d650c0d5cf6af13d71b7176348993bba1caf83b8")),
    "C6": (("8da0df1bd838dbc21941c8fe62add39e2ee5079aba9fbe5b7e5a18bd150cd4c0",
            "941a464b90c88f3b87fdadc52dde761c86bd7d1f9d4ca65a1b88714965cfa96c"),
           ("8e299cb79b8f7aa3ae7154badc9cc343fa0cb65706382f64798d1c7c3317159d",
            "54a9d8cd8852cb42792754c8c6859452a82e020913c2070576f53d7361eb4115")),
    "K4": (("eea56d514e85e72e56446ffbbf6b3a9f0215585895b786b64e2d8f3b35ca2fe7",
            "b8b8c799fa0c873f208cec100141ee308799897ef60613a4d1f7816b0e5b3106"),
           ("eea56d514e85e72e56446ffbbf6b3a9f0215585895b786b64e2d8f3b35ca2fe7",
            "b8b8c799fa0c873f208cec100141ee308799897ef60613a4d1f7816b0e5b3106")),
    "star5": (("1f8da8ceb3272122c7bcbc9b669698da16a28d3037f5757d1ba2ed60f5cffc3d",
               "6b7aae8f86f62598cc359c0871f6830849b7741f206de97254a9afec5929f28b"),
              ("b36e0ae60182df9daf9f7ba757499a313e05864eef9cb173adb2fc193d6cb997",
               "2ccbc0ae8d362529c25b05ed3db808b8b787d141aa8621e2d887fb6628d2f319")),
    "grid3x3": (("4b57004ff2b42b5d6a6c58889300c0b71a05a3f942686b793638f06a1f3c61f0",
                 "fdfcc2c5f9f6e64480daf8ec62ca95cfab0173970ec97221c9afc34bbedf7081"),
                ("87237d1eac852a95d8a19044d74ca775d94c7f5ed9a40ca4eb61709af5678477",
                 "db7ffed059cd2cd022108f7fb6d62bb6f49820b837c38f4fd1b7660f17da6906")),
    "Q3": (("80c7b83c8d7f5419b7fb327db27d13d06889693db2b50ffb5aaeddff53ff0a75",
            "4df8a5e419922a6bd1b4e96f0ffcf47f571f21ea7d085181c57869f4cac7037d"),
           ("c534e46f708856a3fd190950c209acc4c9328dd133022751e870083a53e68a8a",
            "b385a82bd6be9eb3ea13f06c45f47b6d226eb89efac4f0f6da4c523413c87ea0")),
    "Petersen": (("496be403f46f6007c82ce9e41e61b082751c69fd6a12fc591117af3c84377585",
                  "b2713524d52abb804d94cc3a6b064d5f6ec7204ff59b605bd8601cd29d2915cf"),
                 ("d92a26a30507f2baa358cac614249120b44085a844b9caf5bb39d2fbe432c97a",
                  "84da2368d8564a28d4131a4ebf863a0c8d9f5fd028547de2d69b4123f2a364be")),
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
