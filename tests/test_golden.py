"""Golden bytes: sha256 digests of builder output on fixed graphs.  Any
change to the construction that moves a rule, a variable name or an LP row
shows here.

The regular-grammar digests (the relabelled graphs' `build --path`
output among them) were recorded before the consistency join and the
class merging became one pass, and every change kept them until the
regular grammar became a deterministic automaton (the last paragraph).  The
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
parse-tree count and the LP verdicts did not change.

The tree-grammar digests of the grammars that `annotate._share` changes
were re-recorded when the tree builder began factoring each variable's
rules by their shared prefixes and making equal tails at one offset one
variable (s:<k>): every such digest above but those of P8, P30, P80,
P2000, spider 3x2, and natural and relabelled Q3, whose grammars the
pass leaves as they were (paths have nothing to share, and on Q3 and
spider 3x2 the shared grammar is larger, so it is not kept).  No
regular-grammar and no `.td` digest moved, and neither did any language,
parse-tree count or LP verdict.

The regular-grammar digests were re-recorded when `build --path` began
writing the deterministic automaton of the group's words
(`annotate._determinise`) instead of the join's classes: every one but
P8's, a path's grammar having no variable with two rules that begin
alike, both as written and position named (a state of several of the
join's classes is named s:<k>, which `_position_named` leaves as it is).
That moved no tree-grammar, relabelled `build`, LP, `lift`, `embed` or
`.td` digest, and no alpha line; the languages, parse-tree counts and LP
verdicts of the regular grammars stayed as they were.

The tree-grammar digests were re-recorded when the yielding transform
began merging each position that has one child whose bag contains its
own into that child.  That moved 28 entries: the tree grammars of K4,
K5, Petersen, Q3, btree3, grid3x3 and spider3x2; the relabelled `build`
of C20, Petersen, Q3, btree4 and grid4x4; every partner-shape entry but
relabelled spider 5x4's digest; both of btree6's; the `embed` output of
btree4 keep 15 (both entries), btree4 keep 7, btree5 keep 31 and
spider5x4 keep 1; and the exact-small `build` output of C5, C6, K4,
Petersen, Q3, grid3x3 and star5.  Only K4 (28 rules to 24), K5 (105 to
75), spider3x2 (15 to 12) and K6 (546 to 186) changed size; the others
lost positions, so their variables' position numbers shifted.  Of the
`lift` digests only relabelled Q3's moved: its 72 rules changed, though
their count did not.  No LP, regular-grammar, `.td` or deep-path digest
moved, and neither did any language, parse-tree count or LP verdict.

The digests of the grammars with a factored fan were re-recorded when
the tree builder began writing a class's options at a fan once, as the
rules of a factor variable p:<c>|f:<i>, wherever the product of its
options over the children is larger by symbol count.  That moved 11
entries: btree3's tree grammar (both digests) and its LP; relabelled
btree4's `build` (both) and `lift`; the partner-shape entries of btree5
and spider 5x4; both of btree6's; and the `embed` output of btree4 keep
15 (both entries), btree4 keep 7, btree5 keep 31 and spider5x4 keep 1.
Every other golden grammar, btree2's among them, keeps the product at
each of its fans, so its bytes did not move.  No regular-grammar, `.td`,
deep-path or exact-small digest moved, and neither did any language,
parse-tree count or LP verdict."""

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
    "C6": ("70714cff5dbc7b440a415fa80dcb16f823a3e033e9481aa9e3c83d442f590267",
           "6dc4c500f8faafc49217a139c375b60c9e5fcd649078fb02690b6eedf0733297"),
    "K4": ("81578187ebaa79e4e27f073e6923e4ba3fc181c115491d021b59d0c46637b79e",
           "2d6a5ab978444b84528236b6da3c29ab9b7083e5c67cb277e2bcc6d5dac105e6"),
    "K5": ("202c23f5a235c3d02225be2cdefc1db27dddb5486a26b4e6ae9ce3f1423d0f8a",
           "f09004d850d3334ee9e37c0e3b3836b4cd28c0162a2b74c1848f6a590122ed0e"),
    "P8": ("7eba0c5f12a731a43ea378c9a27e2dc10eb0106248ca07f3fcb7210f7939dbc5",
           "2313e30e3a44224f25d3c4678974dbf0696b67f5ae25c99ae2ce82cd6a80fe57"),
    "Petersen": ("22f6a280014dce27b38bb485eb3ef40a054f64cc9ca98029ec1bef8fd88b18fb",
                 "6b3f6748d74e00a5be9a10e678a94eaaefa0ed6cc011576e1ef2527d857a06b8"),
    "Q3": ("21c7a8b2087a388bd23c39f4d24c37b4d01602efa338d53fc828d969873cf091",
           "296511661e3f2e16d39225c5123dae4bdbce9922157d3a784ec401e279c824b7"),
    "btree3": ("1cccc9df74b7482f2f69f496e023c5aa6fdb32be626d16f019010635bba4dcf7",
               "8f9a10ba02c75b0d5d234303cb6218749a7b4b1fe865e5ca1f27166daed5a5c7"),
    "grid3x3": ("9fbbe299bac6985f43614795e31066638166f6e4ca1b95d97c74ee150bc9709a",
                "d3c1bbcf0ff691223623ed179fa52c99a46dccb095fc6804a223b57c25065d43"),
    "spider3x2": ("56302396527b8235ddf352d4cb5905f802905e7b9c368b17af57fd32cf71d820",
                  "60825e861fb447690f3701001dc302f62b7481e23e4ad8cb0fe1491053ee3c43"),
    "star5": ("6b98497980e77dda468435bf8f910b0536cae8ed16a253c5bf6f5f62906e6ad6",
              "501c211a6b28689b33b623920229dacad17e72524ea05416e5b253b23924ad80"),
}

# name -> (tree grammar JSON, regular grammar JSON), as written
INDEXED_GRAMMAR_DIGESTS = {
    "C6": ("70714cff5dbc7b440a415fa80dcb16f823a3e033e9481aa9e3c83d442f590267",
           "79f173c3210563c7840ea5d1a8a55e84ca88b76559ecef8329f0a9b735c6cc0f"),
    "K4": ("81578187ebaa79e4e27f073e6923e4ba3fc181c115491d021b59d0c46637b79e",
           "f7f5d8af7b44ad42aab0b6dde7f16fe0b2c291bf3600a9be206cba303c57d057"),
    "K5": ("202c23f5a235c3d02225be2cdefc1db27dddb5486a26b4e6ae9ce3f1423d0f8a",
           "fc3bb2a936323f9ae5354b8618ad15ced9b496e1b159d33422d63a7d5a34ec7a"),
    "P8": ("7eba0c5f12a731a43ea378c9a27e2dc10eb0106248ca07f3fcb7210f7939dbc5",
           "51b26ae06e453f16867d08b13a8f6e2976bf42e948b943251ab20f8643d74e44"),
    "Petersen": ("22fa5e5ce6360be8d48695203d5f8d38414bc622c1395a3d7bd56a0533fe6443",
                 "38b4f7d4447ec00e258062b5907f5266b1098512da0b6a76a76edd6c8d67fec0"),
    "Q3": ("03f501d9e1195e736956f1e5850453ec89f9c504a77f708820b517462222aece",
           "f7443813de59ada76af5381cb132ddc2c626e19175daefd41b51f7ea0abd421a"),
    "btree3": ("eb617f0698f0f8aa0735e1098b74602161257e91025e1b3ad002d0b2b2b55549",
               "191d5aec82596ec4b0146ff7f4787e8a230b9eda1243e3e9ab8747dd204c9968"),
    "grid3x3": ("b26f60a8b8168733845fec2293a56b26fe8b5086f30ca7a34697c5ded2148f25",
                "7b3fd72dc08023739d18da790d5a6e13416d8b64b42afc71c5ea319458558df5"),
    "spider3x2": ("c985e2300052d85ebb7e712d075689de756de648eefed2e1c34412d61d3b30b6",
                  "da4f3dd53e831d163d5799183e4ed22b078bdb294a6925effdd6adc732ecb004"),
    "star5": ("b5a5e2cb43dc95651f11a29bd290bda32607de21e16e7879b0defc3ee22fbddf",
              "39bf0544bd729d07ad074a19bb0f3a516181df636add6584655596008c103ff8"),
}

LP_DIGESTS = {
    "C6": "e32e4c760f08739a16c4c6f3f500cb21d5f0afcf7bff962cc4138ead0998668b",
    "btree3": "aecb87858887e1c9efff672155b600107bf9ed1a9f0c614a4384aaf8a37fb344",
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
    "C20": ("7abeb89419080622b82fedfbe3f151b6ad028c260e7e199e92a13dd772410961", None,
            "aed3766b5fc2dbe22418f402b634419bae0ced67e32673d33aae03eb06b025fe"),
    "P30": ("b3482edfd2adff1f282fe6070f58c30187dee8eb761ec18eb7f1babf2c676576", None,
            "bc3033b2954312db08f0fae790e0882347e0ca2d717deb8bab81abda9f383da0"),
    "btree4": ("8b6e24eb948266b6e650f108b254229fc99e4bad04bb919414f7bc77dc72fcdb", None,
               "683192214c3b38544baa8a7b169fb3e8c70ff20a51bf4ad1b1775cd846fa9583"),
    "grid4x4": ("c18b813bc8c5d29bb0cd843117a3eaad3b9ed0f00e5398e079da6bd3effb7e69", None,
                "06fbf32d8bb0a658999103c99a7c1f9f718f0b3dba7c9c5b76096a252d01cd74"),
    "Q3": ("2f6002bd0d96f9be27f6f57117463bb9a13173332921643b2fc7b5b212d7b0bd",
           "2812b54a3ae2ef6f3a1cbb6934fa8ea20cacc47258ffad86629bf4c0b4a24da4",
           "dcec85ce7062fd4daf77b49597c0be889d057ff823b65b57986fe91412fc17de"),
    "Petersen": ("8a24513528d4501b990b6f44819b5802ca859cb55408970c64adf91cacdaa323",
                 "c49651b4dedfb02b1bd8a42eba27bdedef0fc4045ab4f6e41359d800922fc241",
                 "eab4d82c8eba907db4ed02ce470494a549f686e3c8a0df77493759e9352a0108"),
}


# name -> (`build` output, `build --path` output or None), as written
INDEXED_RELABELLED_DIGESTS = {
    "C20": ("7cd9137f1acd07d58da959eca52002f448167409ec6e3e34a8cce2bcf141eba4", None),
    "P30": ("b3482edfd2adff1f282fe6070f58c30187dee8eb761ec18eb7f1babf2c676576", None),
    "btree4": ("4d90890d038df268639ccf8d2bb777e3f221be9d463b687490aae7554faa1e78", None),
    "grid4x4": ("ca52867af84d42dc7469ec7067456db90b96a1058a9ae30fa378b56d1d0b05d7", None),
    "Q3": ("39587281a816c89d5b2682ab5769ed70f84d93401900b5edd8f41f687c80e1cc",
           "0982cbec035b3019f329d1450c29d6ff433c71592636cb01a9e4ada3c9eba4ae"),
    "Petersen": ("5f57ad806bc7423cfdf5429dcd9d4b8d8cd206e150fe2d9486558adcec5fe1bc",
                 "f4a0b7ce892e2122bf92eb9f18ae8c5ffd24a82c65cacdfd0812d122d0c0e413"),
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
    "K6": ("4e43ad37ecd019c58d61425e955806b223564ca6ce000e4b0da5fd81a4742f5c",
           "4e43ad37ecd019c58d61425e955806b223564ca6ce000e4b0da5fd81a4742f5c"),
    "btree5": ("05d368a6df7a78cdb27995006326bc87da5d11f3dfbc760a38edc651e067dabf",
               "d67972d9eeba82fb185e6fa28eaffcea4aaa5601ad63b988723f5d2b12e18d3b"),
    "spider5x4": ("abfbfb82f866a0db1c7206b478e689e0a7e87631c5bec0c9f0f32034f1b31282",
                  "a6c619cf31f05ca337fcc4bb531e321666ae6eff51c579d016b4e4c1cdf05be9"),
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
    "btree6": ("a2599aa757ad1c05816d004516e2a9e937e561cf588156f2fc67bf6043e722fb",
               "7caf43435b01d0223ebffd97295ca014c9ed6fbeac1ad38e7d4cb672b8b2e554"),
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
    "btree4 keep 15": ("059ad7de6e732ae106b84ecf9dec4e5caf9887a094faaa18df8955e738cbf9b0",
                       "0d71348e6b363825ac3e53997b709f52909c5a196054e2a08d8f8ac2f0e4b077"),
    "btree4 keep 7": ("b82f4bc32e67f39743349b1e82c44d3918c93ea248999a89fdaf4a3b86fef2ce",
                      "d63d42ad7891c577a7198a1c0859b651de2d69de6bc2dad1c6f13a12fed656b2"),
    "btree5 keep 31": ("20c8d71e37e7891e45794c65afe0233bf570b051480937fa48e6d7ff77e904f0",
                       "44cb196ef9cc77b2c478e0528814911aab26333f885868e3406bb5fe63635672"),
    "spider5x4 keep 1": ("159616add83c73ee262a36b72149555717f2cca4e1164a164a98ed28e974543d",
                         "4d72d47e7ae879a92188622d127ceb59e50a2ad6da0f3a1024bb64b3a488397f"),
    "btree4 keep 15, b reversed": (
        "82529249995c2b880201594ceffba37ed7a1321b33355e6760ed46242efb51b9",
        "bedf2890cc67d54b3eedd15106a32f55c88bd8cb99e9532fb1691d9d8ade5d72",
    ),
}


# name -> `embed` output, as written
INDEXED_EMBEDDED_DIGESTS = {
    "btree4 keep 15": "c1dff49bd3dc86e41ba92c194c80e9ce872c3d0d5c78f1dfeae30b69733a1e49",
    "btree4 keep 7": "675e08101e0e603014edc93eed551a8962f868d39686da5b5ab113b0a9affff5",
    "btree5 keep 31": "712cc1faecbb134d489a9c9a3d0ce72b6ae09f250a58a3cc1f0b687360bc41a0",
    "spider5x4 keep 1": "159616add83c73ee262a36b72149555717f2cca4e1164a164a98ed28e974543d",
    "btree4 keep 15, b reversed": "abb45909ee924eea8ee6cd5675ee4ff72724cee4ea7a70436929ff0b441afddc",
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
            "b3f36bdd3a97e86b76f4eb62722e9c958ebf4f80cb704941e92e0d9ae2b0bf2d"),
           ("7ba595e72d90a92fe20bf340d22e5d2d61ea5b1e686821189106186b3bd830e0",
            "da6b00180f5070987294560581ecc78654882c8533506d06ad43118c89a0cfff")),
    "C6": (("8da0df1bd838dbc21941c8fe62add39e2ee5079aba9fbe5b7e5a18bd150cd4c0",
            "6ce9d91b596482579dc1f49dd0c87c8f5f97882e848fa83e32ac0b1e46c54ece"),
           ("8e299cb79b8f7aa3ae7154badc9cc343fa0cb65706382f64798d1c7c3317159d",
            "cf1c88e5966db3a60f6b1609e96cb0721944d751a0ff51eb81155b978da4a6ad")),
    "K4": (("eea56d514e85e72e56446ffbbf6b3a9f0215585895b786b64e2d8f3b35ca2fe7",
            "9e52fcab3b5d31bd3278eb5a6f7f1b1711ff845c9f1cba462c86881784b78252"),
           ("eea56d514e85e72e56446ffbbf6b3a9f0215585895b786b64e2d8f3b35ca2fe7",
            "9e52fcab3b5d31bd3278eb5a6f7f1b1711ff845c9f1cba462c86881784b78252")),
    "star5": (("1f8da8ceb3272122c7bcbc9b669698da16a28d3037f5757d1ba2ed60f5cffc3d",
               "7f977af127b3da1c77cc7e412244d724fb5166bbde12d844661c05a28fdde0ee"),
              ("b36e0ae60182df9daf9f7ba757499a313e05864eef9cb173adb2fc193d6cb997",
               "0fd711eaffb7d50d73efad5abf1c049e37e44c31a0d38b09e1ccb16a4577a6fe")),
    "grid3x3": (("4b57004ff2b42b5d6a6c58889300c0b71a05a3f942686b793638f06a1f3c61f0",
                 "753f01f1ec543decdd52ea85f2b2f46a8e27fcc2e928cb08e4594b39eae47ab1"),
                ("87237d1eac852a95d8a19044d74ca775d94c7f5ed9a40ca4eb61709af5678477",
                 "e382b9bb23671f29614814ca2f768272c57be9170c925727e6c345f1d3888660")),
    "Q3": (("80c7b83c8d7f5419b7fb327db27d13d06889693db2b50ffb5aaeddff53ff0a75",
            "a656c51e96d6fdb7bf3312e9990cd19d615c8d901c63d1f2c33e4b48940544b6"),
           ("c534e46f708856a3fd190950c209acc4c9328dd133022751e870083a53e68a8a",
            "5234c2e1e4ad0506fff6068d4533234ada5b92ff0108a0745f25817ea868d88e")),
    "Petersen": (("496be403f46f6007c82ce9e41e61b082751c69fd6a12fc591117af3c84377585",
                  "c283a04eae01e6b2a437bb8808e72eec654d52877beae028c4a4f0eebcdb2853"),
                 ("d92a26a30507f2baa358cac614249120b44085a844b9caf5bb39d2fbe432c97a",
                  "a4f603c89b9fed12bca6e88b57945ecd41a2b58b8df0cecdcf4607cb88bedfc4")),
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
