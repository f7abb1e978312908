"""Checks that read the library's outputs without calling the library.

Grammars are read from their JSON text with `json.loads`; counts and
languages are recomputed here by an independent pass over the rules, and
compared with answers from `corpus` (closed forms and structural
automorphism samplers) or from the brute-force oracle.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

from corpus import Family, is_automorphism


def _rules_by_lhs(doc) -> dict:
    table: dict = {v: [] for v in doc["variables"]}
    for lhs, rhs in doc["rules"]:
        table[lhs].append(rhs)
    return table


def _bottom_up(doc, leaf, combine):
    """Evaluate every variable reachable from the start, children first,
    without recursion: value(v) = combine over v's rules of the rule's
    symbols, where a terminal t contributes leaf(t).  Raises ValueError on
    a cyclic grammar."""
    table = _rules_by_lhs(doc)
    value: dict = {}
    open_vars: set = set()  # expanded, children not all evaluated: ancestors
    stack = [(doc["start"], False)]
    while stack:
        v, children_done = stack.pop()
        if v in value:
            continue
        if children_done:
            open_vars.discard(v)
            value[v] = combine([[value[x] if isinstance(x, str) else leaf(x) for x in rhs] for rhs in table[v]])
            continue
        if v in open_vars:
            raise ValueError(f"grammar is cyclic at {v!r}")
        open_vars.add(v)
        stack.append((v, True))
        stack.extend((x, False) for rhs in table[v] for x in rhs if isinstance(x, str) and x not in value)
    return value[doc["start"]]


def count_trees(doc) -> int:
    """Accepting parse trees of a grammar JSON document."""
    return _bottom_up(doc, lambda t: 1, lambda rules: sum(math.prod(r) for r in rules))


def language(doc) -> set[tuple[int, ...]]:
    """Every word of a (small) grammar JSON document."""

    def combine(rules):
        out: set = set()
        for parts in rules:
            words = {()}
            for p in parts:
                words = {w + u for w in words for u in p}
            out |= words
        return out

    return _bottom_up(doc, lambda t: {(t,)}, combine)


def grammar_bits(doc) -> float:
    """The paper's size measure: sum over rules of (1 + |rhs|) symbols,
    each worth log2(|alphabet| + |variables|) bits."""
    symbols = sum(1 + len(rhs) for _, rhs in doc["rules"])
    return symbols * math.log2(doc["sigma_max"] + len(doc["variables"])) if symbols else 0.0


def lp_nonzeros(doc) -> int:
    """Nonzeros of the full rule-flow formulation of a positional grammar:
    each rule's flow variable sits in its left side's row (or the source
    row), once in the row of each distinct variable on its right side, and
    in the projection row of each terminal it writes; each of the
    sigma_max projection rows also holds its x variable."""
    rules = doc["rules"]
    distinct_vars = sum(len({x for x in rhs if isinstance(x, str)}) for _, rhs in rules)
    terminals = sum(1 for _, rhs in rules for x in rhs if isinstance(x, int))
    return len(rules) + distinct_vars + terminals + doc["sigma_max"]


def word_of(perm, alpha) -> tuple[int, ...]:
    """The grammar word of automorphism perm: position i holds perm(alpha(i))."""
    return tuple(perm[a - 1] for a in alpha)


def perm_of(word, alpha) -> tuple[int, ...]:
    """Inverse of word_of."""
    img = [0] * len(alpha)
    for w, a in zip(word, alpha):
        img[a - 1] = w
    return tuple(img)


def words_are_automorphisms(fam: Family, words, alpha) -> bool:
    return all(is_automorphism(fam.m, fam.edges, perm_of(w, alpha)) for w in words)


# ---------------------------------------------------------------------------
# LP points with known answers.  Membership is decided by the edge test,
# never by the grammar.

FEASIBLE = {"identity": True, "member": True, "midpoint": True, "nonmember": False, "badsum": False, "swap": False}


def _first_swap_outside(fam: Family) -> tuple:
    """The identity with the first pair u < v swapped (in lexicographic
    order) that is not an automorphism."""
    for u, v in itertools.combinations(range(1, fam.m + 1), 2):
        p = list(range(1, fam.m + 1))
        p[u - 1], p[v - 1] = v, u
        if not is_automorphism(fam.m, fam.edges, tuple(p)):
            return tuple(p)
    raise ValueError(f"{fam.name}: every transposition is an automorphism")


def pick_points(fam: Family, classes, rng: random.Random) -> list[tuple[str, tuple]]:
    """(class, vertex-space recipe) per requested class.  A recipe holds
    permutations of 1..m; `point_in_word_space` turns it into coordinates
    once the grammar's alignment alpha is known.  The nonmember class is
    skipped when every permutation is an automorphism, as for K_n."""
    out = []
    for cls in classes:
        if cls == "identity":  # a member word that does not depend on the seed
            out.append((cls, (tuple(range(1, fam.m + 1)),)))
        elif cls == "swap":  # a non-member that does not depend on the seed
            out.append((cls, (_first_swap_outside(fam),)))
        elif cls == "member":
            out.append((cls, (fam.sample_aut(rng),)))
        elif cls == "midpoint":
            a = fam.sample_aut(rng)
            b = fam.sample_aut(rng)
            while b == a:
                b = fam.sample_aut(rng)
            out.append((cls, (a, b)))
        elif cls == "badsum":
            out.append((cls, (fam.sample_aut(rng),)))
        elif cls == "nonmember":
            if fam.aut_order == math.factorial(fam.m):
                continue
            while True:
                p = list(range(1, fam.m + 1))
                rng.shuffle(p)
                if not is_automorphism(fam.m, fam.edges, tuple(p)):
                    break
            out.append((cls, (tuple(p),)))
        else:
            raise ValueError(f"unknown point class {cls!r}")
    return out


def point_in_word_space(cls: str, recipe, alpha) -> list[Fraction]:
    words = [word_of(p, alpha) for p in recipe]
    if cls == "midpoint":
        return [Fraction(a + b, 2) for a, b in zip(*words)]
    x = [Fraction(v) for v in words[0]]
    if cls == "badsum":  # coordinate sum is no longer n(n+1)/2
        x[-1] += Fraction(1, 2)
    return x
