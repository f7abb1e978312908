"""Golden bytes: sha256 digests of builder output on fixed graphs.  Any
change to the construction that moves a rule, a variable name or an LP row
shows here.  The digests of the naturally labelled graphs were recorded
before the consistency join and the class merging became one pass, and
that rework keeps them.  The digests of the relabelled graphs, where
min-fill's tie-breaks and the annotation search's candidate order act,
were recorded before min-fill kept its fill counts, the search tested
adjacency once per placed vertex and the tree builder handed over its
table, and those changes keep them.  The digests of `embed`'s output and of
`lift` on it were recorded before `erase_terminals` took its lengths from
the int length pass on the host's own table instead of an intermediate
grammar, and before the semiring pass valued variables by index; those
changes keep them."""

import hashlib
import random

import pytest

from autgrammar.decomp import (
    compute_path_decomposition,
    compute_tree_decomposition,
    make_permutation_yielding,
)
from autgrammar.graph import Graph
from autgrammar.grammar import (
    build_aut_grammar,
    build_embedded_group_grammar,
    build_regular_aut_grammar,
    grammar_to_json,
)
from autgrammar.perm import Permutation, format_permutation
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
# `lift` output): a build's output is its grammar JSON and its alpha line
RELABELLED_DIGESTS = {
    "C20": ("afb26a5d58eb49c1a7b1d84ec5c82b8e7527296dbf11bdc87f7f270db7179ef9", None,
            "bf36d4499c8bf34c6bbf868b5c7875d3570472cf15ab9bf101919d37b0755dc5"),
    "P30": ("787c3e026faf303b834baaee3c6d109aed289b693de7298ec2cfdbf8259152a8", None,
            "866f78ea6f38ac42e3103e232d5452131fadc2445aec57bc346d46cace33926f"),
    "btree4": ("2da8727c15bc8be469f45f3a145f1348dca4874d3eb1c00176e6f1da524c289e", None,
               "c865e0d25046db04ec7b2409a0ee77bb922d4a64aa8cacf9e42b4708f6f8521d"),
    "grid4x4": ("9c0dbb07b3301eed81b47baf38f34ccb85cc9762d98fabdc3d58fd00b85f0b30", None,
                "08a84a2a254be5c59a2dfc8d8189f034628b43716aac63faed44146bda27244a"),
    "Q3": ("8cf853d464079df2297b02a0902b5698fce6eb514993e9c1046f95c089162b35",
           "2adf15dddadd394fd32afde44e76a1ae38709715281964d929e17e0e58cb4cb1",
           "66a91f332b4312579d2e9364a57fa2d715f67823d51a6408cb7117648bc39baa"),
    "Petersen": ("78c2238b86a72f60487398905cb72e6763ce958663da6d2f67f7ab24641dab0d",
                 "0d351cfbfae5e87f20ba6f8270b991c6919720c636a33da454fc0a6bf2d7ce75",
                 "a62dd08c2c5885820ad945e8734c8a9088933f0fa5265d34155550ce9c65fe80"),
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


def _build_output(alpha, gr) -> str:
    return grammar_to_json(gr) + format_permutation(alpha) + "\n"


@pytest.mark.parametrize("name", sorted(RELABELLED))
def test_relabelled_bytes(name):
    make, seed = RELABELLED[name]
    g = relabel(make(), random.Random(seed))
    t, _ = make_permutation_yielding(g, compute_tree_decomposition(g, "min-fill"))
    alpha, gr = build_aut_grammar(g, t)
    regular = None
    if g.vertex_count <= 10:
        regular = _digest(_build_output(*build_regular_aut_grammar(g, compute_path_decomposition(g))))
    lift = _digest(emit_lp(build_extended_formulation(gr)))
    assert (_digest(_build_output(alpha, gr)), regular, lift) == RELABELLED_DIGESTS[name]


# name -> (host graph, kept prefix, coset representative or None)
EMBEDDED = {
    "btree4 keep 15": (lambda: binary_tree(4), 15, None),
    "btree4 keep 7": (lambda: binary_tree(4), 7, None),
    "btree5 keep 31": (lambda: binary_tree(5), 31, None),
    "spider5x4 keep 1": (lambda: spider(5, 4), 1, None),
    "btree4 keep 15, b reversed": (lambda: binary_tree(4), 15, Permutation(tuple(range(15, 0, -1)))),
}

# name -> (`embed` output: grammar JSON and alpha line, `lift` output)
EMBEDDED_DIGESTS = {
    "btree4 keep 15": ("508f136b0e722bab547bd1cadd4bd1a22c84696a04a8acd32296039f1b3c523b",
                       "3b516f4b43bab2696f18fa5ad3198cd1a83aa852a85683c3d33ff4dc0219a6ba"),
    "btree4 keep 7": ("50a32f99f187288777934bfd0688e78605ce399ce82f3587334642c049013f3b",
                      "7a01563f9fc6d3dedbec2ae47c519c489e35db89e5f5a9630bdd25dbec2b78be"),
    "btree5 keep 31": ("8b49ba294994cad9e46daafb148c9d48d1dce44e64db4fcf50a9c0c5f8f51668",
                       "65d5ab4e79c78229079b9913a8e327d0671edb68b8f0b7a90971c2faa2cc361d"),
    "spider5x4 keep 1": ("cf3614c2b1f68a234b4412a2a63302f15787307d2c96bdc88245d5c087ff3001",
                         "cfed910ade8416efb969e14002715c59caf189dfde79b7a9412ed86e470680cd"),
    "btree4 keep 15, b reversed": (
        "53527221aa7cb0a90437bd04273fe15ad1cc3af6fe4a6176b2bbdddcf7c86944",
        "0b50d2bd9107a1995ee0f1ebb8796a7864d1b87470e5bcc53f5b8d9e5f50113b",
    ),
}


@pytest.mark.parametrize("name", sorted(EMBEDDED))
def test_embedded_bytes(name):
    make, n, b = EMBEDDED[name]
    alpha, gr = build_embedded_group_grammar(make(), n, b)
    lift = _digest(emit_lp(build_extended_formulation(gr)))
    assert (_digest(_build_output(alpha, gr)), lift) == EMBEDDED_DIGESTS[name]
