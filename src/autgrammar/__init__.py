"""Compile graph automorphism groups (and groups embedded on a vertex
prefix) into context-free grammars via annotated tree decompositions, and
compile those grammars into exact extended formulations of the associated
permutation polytopes.

`import autgrammar` loads no submodule: each public name below is imported
from its module on first use (PEP 562), so a process pays only for the
layers it touches.
"""

from importlib import import_module

__version__ = "0.1.0"


class PreconditionError(Exception):
    """Base class of the errors raised when an input violates a documented
    precondition (a disconnected graph, an invalid decomposition, a prefix
    that is not invariant, a size cap); the CLI exits 3 on them."""


def _quote(value) -> str:
    """A name (as its repr) or a number for an error line, cut to 20
    characters: a 5000-digit number or a 3000-term row must not fill the
    screen.  Defined here so that every layer can share it without
    loading another."""
    text = str(value)
    head = repr(text[:20]) if isinstance(value, str) else text[:20]
    return head if len(text) <= 20 else f"{head}… ({len(text)} characters)"


class _Value:
    """An immutable value: equal to one of its own class with equal
    `_values()` (its constructor's arguments), hashed as them, and pickled
    and copied by calling the class on them; `_set` alone fills its slots,
    and neither assignment nor deletion changes them.  Not a frozen
    dataclass: importing `dataclasses` loads `inspect`, and each dataclass
    compiles its methods with `exec`, a fixed cost that every CLI process
    would pay.  Here so that every layer can share it."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _set(self, **fields) -> None:
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __reduce__(self):
        return type(self), self._values()


_EXPORTS = {
    "annotate": (
        "AnnotatedBag",
        "build_aut_grammar",
        "build_embedded_group_grammar",
        "build_regular_aut_grammar",
        "count_assignments",
        "enumerate_annotated_bags",
    ),
    "decomp": (
        "TreeDecomposition",
        "compute_path_decomposition",
        "compute_tree_decomposition",
        "make_permutation_yielding",
        "read_pace_td",
        "validate_tree_decomposition",
        "write_pace_td",
    ),
    "graph": (
        "Graph",
        "closed_neighborhood",
        "is_connected",
        "max_degree",
        "parse_graph",
    ),
    "grammar": (
        "Grammar",
        "count_parse_trees",
        "enumerate_language",
        "enumerate_parse_trees",
        "erase_terminals",
        "grammar_from_json",
        "grammar_size",
        "grammar_to_json",
        "group_from_subgroup",
        "is_regular",
        "iter_language",
        "membership",
        "permutation_from_aligned_word",
        "rename_terminals",
        "union_grammar",
    ),
    "oracle": (
        "brute_force_automorphisms",
        "group_index",
        "is_group",
        "left_transversal",
        "restricted_action",
    ),
    "perm": (
        "Permutation",
        "Word",
        "compose",
        "identity",
        "inverse",
        "permute_word",
        "to_string_word",
    ),
    "polytope": (
        "ExtendedFormulation",
        "build_extended_formulation",
        "check_projection_feasibility",
        "emit_lp",
        "lift_parse_tree",
        "parse_lp",
        "project_point",
    ),
}

# public name -> the submodule that defines it
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["PreconditionError", *_MODULE_OF]


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups bypass this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
