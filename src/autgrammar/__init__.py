"""Compile graph automorphism groups (and groups embedded on a vertex
prefix) into context-free grammars via annotated tree decompositions, and
compile those grammars into exact extended formulations of the associated
permutation polytopes."""

from .annotate import (
    AnnotatedBag,
    AnnotationAssignment,
    annotation_morphism,
    check_annotated_bag,
    consistent_bags,
    count_assignments,
    enumerate_annotated_bags,
    enumerate_assignments,
)
from .decomp import (
    TreeDecomposition,
    compute_path_decomposition,
    compute_tree_decomposition,
    make_permutation_yielding,
    read_pace_td,
    validate_tree_decomposition,
    write_pace_td,
)
from .graph import (
    Graph,
    closed_neighborhood,
    format_graph,
    induced_subgraph,
    is_connected,
    max_degree,
    parse_graph,
)
from .grammar import (
    Grammar,
    build_aut_grammar,
    build_embedded_group_grammar,
    build_regular_aut_grammar,
    count_parse_trees,
    enumerate_language,
    enumerate_parse_trees,
    erase_terminals,
    grammar_from_json,
    grammar_size,
    grammar_to_json,
    group_from_subgroup,
    is_regular,
    membership,
    permutation_from_aligned_word,
    rename_terminals,
    union_grammar,
)
from .oracle import (
    brute_force_automorphisms,
    group_index,
    is_group,
    left_transversal,
    restricted_action,
)
from .perm import (
    Permutation,
    Word,
    compose,
    identity,
    inverse,
    permutation_from_word,
    permute_word,
    to_string_word,
)
from .polytope import (
    ExtendedFormulation,
    build_extended_formulation,
    check_projection_feasibility,
    emit_lp,
    evaluate_point,
    lift_parse_tree,
    parse_lp,
    project_point,
)

__version__ = "0.1.0"
