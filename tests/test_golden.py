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
verdicts of the regular grammars stayed as they were."""

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
    "K4": ("1ee7fef0ef4ce51fc1dc73b2b19813c52f11f2fd31cd172bea9f01d066d0d182",
           "2d6a5ab978444b84528236b6da3c29ab9b7083e5c67cb277e2bcc6d5dac105e6"),
    "K5": ("a81856e99d840f1d901bf1e1a5317d53970d57d89903ba2f9738491a74d93c69",
           "f09004d850d3334ee9e37c0e3b3836b4cd28c0162a2b74c1848f6a590122ed0e"),
    "P8": ("7eba0c5f12a731a43ea378c9a27e2dc10eb0106248ca07f3fcb7210f7939dbc5",
           "2313e30e3a44224f25d3c4678974dbf0696b67f5ae25c99ae2ce82cd6a80fe57"),
    "Petersen": ("eb005214852a7581c3577b8cd422fbe22667ec60b970ab143b897414a7ca3f93",
                 "6b3f6748d74e00a5be9a10e678a94eaaefa0ed6cc011576e1ef2527d857a06b8"),
    "Q3": ("0e77a301abd52a4e3dcb798e209d9716c01019893c4100adf0d777a6af92c2f3",
           "296511661e3f2e16d39225c5123dae4bdbce9922157d3a784ec401e279c824b7"),
    "btree3": ("ad14d416e79a1346d5c2242e3e27222e254d764b962ddfc70556c1550aa15038",
               "8f9a10ba02c75b0d5d234303cb6218749a7b4b1fe865e5ca1f27166daed5a5c7"),
    "grid3x3": ("1ec153df510b16ad37fa994cd34cf3013a76f8c5578fd3c5092a9fa57cf1f7ec",
                "d3c1bbcf0ff691223623ed179fa52c99a46dccb095fc6804a223b57c25065d43"),
    "spider3x2": ("9db6953669650b2f813e52e09d2113a4e26b8e76b44e626a41364c4d2a5d1691",
                  "60825e861fb447690f3701001dc302f62b7481e23e4ad8cb0fe1491053ee3c43"),
    "star5": ("6b98497980e77dda468435bf8f910b0536cae8ed16a253c5bf6f5f62906e6ad6",
              "501c211a6b28689b33b623920229dacad17e72524ea05416e5b253b23924ad80"),
}

# name -> (tree grammar JSON, regular grammar JSON), as written
INDEXED_GRAMMAR_DIGESTS = {
    "C6": ("70714cff5dbc7b440a415fa80dcb16f823a3e033e9481aa9e3c83d442f590267",
           "79f173c3210563c7840ea5d1a8a55e84ca88b76559ecef8329f0a9b735c6cc0f"),
    "K4": ("4031c93f84c701cf6ccb4c67dfa302edc0aee8c5faa7ca5ba556a42cc0ff6607",
           "f7f5d8af7b44ad42aab0b6dde7f16fe0b2c291bf3600a9be206cba303c57d057"),
    "K5": ("89d1f637b39186d2ea67b7e6014e1fa606a3921ff3511990e606336ca863385f",
           "fc3bb2a936323f9ae5354b8618ad15ced9b496e1b159d33422d63a7d5a34ec7a"),
    "P8": ("7eba0c5f12a731a43ea378c9a27e2dc10eb0106248ca07f3fcb7210f7939dbc5",
           "51b26ae06e453f16867d08b13a8f6e2976bf42e948b943251ab20f8643d74e44"),
    "Petersen": ("65f554803c9f9e513fa0b7f246dc64b3ae8fbf0eb78fc2f3c059ea42eb7727d1",
                 "38b4f7d4447ec00e258062b5907f5266b1098512da0b6a76a76edd6c8d67fec0"),
    "Q3": ("71185776af0179e5ccd7437621572e7b5592ff95ab76e7464a8118138fffb276",
           "f7443813de59ada76af5381cb132ddc2c626e19175daefd41b51f7ea0abd421a"),
    "btree3": ("ed926e047c5e6366b6d43d739a5e338b39416292503fbf1db2afa50e6e4701f9",
               "191d5aec82596ec4b0146ff7f4787e8a230b9eda1243e3e9ab8747dd204c9968"),
    "grid3x3": ("3e5b7d26e000e2e2b1a6c72e5ce8707d86c073860bf63d646fed894989344f37",
                "7b3fd72dc08023739d18da790d5a6e13416d8b64b42afc71c5ea319458558df5"),
    "spider3x2": ("4e127630dd2a1218c15a6c84b260740c44245fc4fdd3885ffe3ebc71b972d442",
                  "da4f3dd53e831d163d5799183e4ed22b078bdb294a6925effdd6adc732ecb004"),
    "star5": ("b5a5e2cb43dc95651f11a29bd290bda32607de21e16e7879b0defc3ee22fbddf",
              "39bf0544bd729d07ad074a19bb0f3a516181df636add6584655596008c103ff8"),
}

LP_DIGESTS = {
    "C6": "e32e4c760f08739a16c4c6f3f500cb21d5f0afcf7bff962cc4138ead0998668b",
    "btree3": "3215fcaff618c0e3a75d2bc4c254725ff661e70e800faa3a6ffe60064cfe2986",
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
    "C20": ("54423b1a23627d890c18862a06f35a63e9ccb33787f472037299d1d4eb61dc03", None,
            "aed3766b5fc2dbe22418f402b634419bae0ced67e32673d33aae03eb06b025fe"),
    "P30": ("b3482edfd2adff1f282fe6070f58c30187dee8eb761ec18eb7f1babf2c676576", None,
            "bc3033b2954312db08f0fae790e0882347e0ca2d717deb8bab81abda9f383da0"),
    "btree4": ("8f36932c7cce088d8fcb70935b4196110bf869b0acaeb49c437c8fde54372dd0", None,
               "43c77216390aaf7682de73b19ce3c8b3fd3a23d809c48c31cba7c4a43948c4dc"),
    "grid4x4": ("ffe02e3f06469bc21d99179fd2aff7203b7113c0c5eaff2abaee643dcdd16ec1", None,
                "06fbf32d8bb0a658999103c99a7c1f9f718f0b3dba7c9c5b76096a252d01cd74"),
    "Q3": ("aa3d7ddbc2813e01f86229dd54e2ba6a42902d120dcaca441dc488cd47e46657",
           "2812b54a3ae2ef6f3a1cbb6934fa8ea20cacc47258ffad86629bf4c0b4a24da4",
           "6ae1c366c5ecb13d9298696d6d4083e60aabb480cf96a1bc28bebec9ad055628"),
    "Petersen": ("68e23d36c987e86f619aae37633cdd9413a4ed7aa55515382d1f6e917db19d08",
                 "c49651b4dedfb02b1bd8a42eba27bdedef0fc4045ab4f6e41359d800922fc241",
                 "eab4d82c8eba907db4ed02ce470494a549f686e3c8a0df77493759e9352a0108"),
}


# name -> (`build` output, `build --path` output or None), as written
INDEXED_RELABELLED_DIGESTS = {
    "C20": ("d58581c87d57ba0182b38b012dbc5846b4814564c1c0e9f26d5280f87f08438b", None),
    "P30": ("b3482edfd2adff1f282fe6070f58c30187dee8eb761ec18eb7f1babf2c676576", None),
    "btree4": ("83fe8754285f67dfc97fdc78012f9336ec9edfc915aeae36ed4c54066b57f39a", None),
    "grid4x4": ("69ab091f8f4b878ca8c578d348b7e5773f28c0fdcb4b2d679d1cb0547c4f5beb", None),
    "Q3": ("46c71e330381535140929341228593ff776959147a31f6cca94f89d6a9d2cd86",
           "0982cbec035b3019f329d1450c29d6ff433c71592636cb01a9e4ada3c9eba4ae"),
    "Petersen": ("1aa9a248ff78a545319b058b56a3a400cd08a39dbd7dd31c50e49843abbe3dbf",
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
    "K6": ("ce14bc8f82c9562607fe07e0e66f7c5fc4c282d73af142d9321b4da3a830bedb",
           "ce14bc8f82c9562607fe07e0e66f7c5fc4c282d73af142d9321b4da3a830bedb"),
    "btree5": ("9f491662026d007014d3d2f190a73059cdb765576f8d8b67aa1d512dd0418ce6",
               "a4a2d7a585326ce4f51ee00136e443d4314bb048266a0fe0ed3cc43ec5920389"),
    "spider5x4": ("56251a2c703bee73864e4914087fe5aec6bcd66ff9f44e4c1435370c2f5d1927",
                  "ecf68243d24f1176fe4823560e427e45a4bd58db75bdcd4965d9777f944af885"),
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
    "btree6": ("17db2c90506866106807859d92a9e4626ece4757e48e68042bd040c43dedde28",
               "f3984c7bb1edf4039d5304ce30cf18d5a93a39a039df358c709b3eba63592013"),
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
    "btree4 keep 15": ("7b67e4f2ad53cddc8f1bfea07e3377e2f30e376be31a7fcfff4d69d3289d76de",
                       "08c2d3063859afbcb90e8e38fb378c54b9bca54998a4aa701def7f5e862fabe5"),
    "btree4 keep 7": ("baa0309e60c89474eee535807241fa7dfed875ff1f8df6c120a3d20f8310f484",
                      "e61b1fb0bf1b389bf5cd6b60c1ae2eb1dddbe3700eb3e240225cfe9b613aee22"),
    "btree5 keep 31": ("1edd9ff3f0ae35f7d1fd858a7963c5227f6544785a8db96fe292d1731b319fe7",
                       "a4f9db221f23b990dca22811c77cb5534d91df0339f48a6fbdd926f6968a5500"),
    "spider5x4 keep 1": ("b3cfaae15292c76ddfcb297f6de28d145f0ca0a406e71022fea6131b751d6fbe",
                         "3198ed0c32091ab8dd0b89d9b05dbe733d21089cb598572c5b01ccba4bb5d583"),
    "btree4 keep 15, b reversed": (
        "baf718be4dc8310877efa2182c206febea837672babf8f642961aee3e7e44d4c",
        "f5b93ae91cb6700611f31831b745f0009d57c5cd715a7a33a029c8c4f9375fb6",
    ),
}


# name -> `embed` output, as written
INDEXED_EMBEDDED_DIGESTS = {
    "btree4 keep 15": "9887471b80c1ec563c2f12ddebe9f768de5023de73702d3aba404001efc42e5a",
    "btree4 keep 7": "5be233ad8820904ff8cd1abb7b652ffa77f3980662cb39b2a355a356d09e0cee",
    "btree5 keep 31": "429df69cb9340e49daed98c2e395fb1ee4043e58d870ce466f870fd55ea64431",
    "spider5x4 keep 1": "c8bdf9fae9630d37da10862ca050f4162ff6c2f0d3e56b43aa706694ef150254",
    "btree4 keep 15, b reversed": "762ba2ecee0135af8aa2a17201adfb270be9443f2fcb416d9da98d50cbe9a210",
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
            "0734fdf452f3d46763fb9e312b9b3c330b9e917e5d848d0641b4c06fe5def6e1"),
           ("7ba595e72d90a92fe20bf340d22e5d2d61ea5b1e686821189106186b3bd830e0",
            "781f106b3f70d8eaf3b5968e7c1d830d53c15b0fd64b0afcd64a416785a35e37")),
    "C6": (("8da0df1bd838dbc21941c8fe62add39e2ee5079aba9fbe5b7e5a18bd150cd4c0",
            "bf33737ddf4c5674d2465b12b1d292413e0747bb5104821f33a1c7222236cd1b"),
           ("8e299cb79b8f7aa3ae7154badc9cc343fa0cb65706382f64798d1c7c3317159d",
            "ade5a7a638f0fb6686bd925a76dab29a62fcb9af5d8575f7234a9dbc893c2a10")),
    "K4": (("eea56d514e85e72e56446ffbbf6b3a9f0215585895b786b64e2d8f3b35ca2fe7",
            "84d25ee2faf6ca6ec377caaf73dca165f3578b2557a0b1566e547782c24fc585"),
           ("eea56d514e85e72e56446ffbbf6b3a9f0215585895b786b64e2d8f3b35ca2fe7",
            "84d25ee2faf6ca6ec377caaf73dca165f3578b2557a0b1566e547782c24fc585")),
    "star5": (("1f8da8ceb3272122c7bcbc9b669698da16a28d3037f5757d1ba2ed60f5cffc3d",
               "f39bc103d7a03bc8f59eea7defda2a5640db1ff58be1da038a4e48cc43de9b50"),
              ("b36e0ae60182df9daf9f7ba757499a313e05864eef9cb173adb2fc193d6cb997",
               "f7dd8062e6672e657f47ae3660ec46a1b5537c58b9797dccf075ed1173cfe645")),
    "grid3x3": (("4b57004ff2b42b5d6a6c58889300c0b71a05a3f942686b793638f06a1f3c61f0",
                 "e83cb03c7cd3d9ead8700bbd14f106de4e0fd9b5d190d7bf3c3f99f1f7ef6dbd"),
                ("87237d1eac852a95d8a19044d74ca775d94c7f5ed9a40ca4eb61709af5678477",
                 "4a993a2ac8ee6ac72beb4ae02d157849c23934e0c836b5fe43f19c8111333bbf")),
    "Q3": (("80c7b83c8d7f5419b7fb327db27d13d06889693db2b50ffb5aaeddff53ff0a75",
            "4df8a5e419922a6bd1b4e96f0ffcf47f571f21ea7d085181c57869f4cac7037d"),
           ("c534e46f708856a3fd190950c209acc4c9328dd133022751e870083a53e68a8a",
            "b385a82bd6be9eb3ea13f06c45f47b6d226eb89efac4f0f6da4c523413c87ea0")),
    "Petersen": (("496be403f46f6007c82ce9e41e61b082751c69fd6a12fc591117af3c84377585",
                  "18d5d3360504b936fabc0c564388cc6f92539aa1ecdb4c4cf00e45beb71b4bfa"),
                 ("d92a26a30507f2baa358cac614249120b44085a844b9caf5bb39d2fbe432c97a",
                  "94456d2656a5027933b81b123198c8256262e91d2186c26abe48dc2428a4c016")),
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
