"""Brute-force ground truth for small graphs and permutation sets.

Automorphism groups are found by backtracking over vertex images of the
same stable colour; everything downstream in the package is validated
against these results at desk scale.  All functions are pure and return
deterministically ordered values.
"""

from __future__ import annotations

from typing import NamedTuple

from . import PreconditionError
from .graph import Graph, stable_colouring
from .perm import Permutation, compose, identity, inverse, restrict

ORACLE_CAP = 10


class OracleError(PreconditionError):
    pass


def brute_force_automorphisms(g: Graph) -> tuple[Permutation, ...]:
    """All adjacency-and-non-adjacency-preserving bijections of V(g), for
    at most ORACLE_CAP vertices."""
    m = g.vertex_count
    if m > ORACLE_CAP:
        raise OracleError(f"graph has {m} vertices, oracle cap is {ORACLE_CAP}")
    colour = stable_colouring(g)  # automorphisms preserve it
    candidates = {v: tuple(u for u in g.vertices if colour[u] == colour[v]) for v in g.vertices}
    found: list[Permutation] = []
    image = [0] * (m + 1)
    used = [False] * (m + 1)

    def extend(v: int) -> None:
        if v > m:
            found.append(Permutation(tuple(image[1:])))
            return
        for u in candidates[v]:
            if used[u]:
                continue
            ok = True
            for w in range(1, v):
                if g.has_edge(v, w) != g.has_edge(u, image[w]):
                    ok = False
                    break
            if ok:
                image[v] = u
                used[u] = True
                extend(v + 1)
                used[u] = False
        image[v] = 0

    extend(1)
    return tuple(sorted(found))


class RestrictionResult(NamedTuple):
    """Either the restricted group on 1..n, or a witness that 1..n is not
    invariant under the automorphism group."""

    invariant: bool
    group: tuple[Permutation, ...] | None
    witness: Permutation | None


def restricted_action(g: Graph, n: int) -> RestrictionResult:
    """Restrict Aut(g) to 1..n if that set is invariant; else return the
    violating automorphism as a value."""
    if n < 1 or n > g.vertex_count:
        raise OracleError(f"prefix size {n} out of range 1..{g.vertex_count}")
    auts = brute_force_automorphisms(g)
    prefix = set(range(1, n + 1))
    for a in auts:
        if {a(i) for i in prefix} != prefix:
            return RestrictionResult(False, None, a)
    restricted = tuple(sorted({restrict(a, n) for a in auts}))
    return RestrictionResult(True, restricted, None)


def is_group(perms: tuple[Permutation, ...] | frozenset[Permutation]) -> bool:
    """Closed under composition and inverse, and contains the identity."""
    elems = set(perms)
    if not elems:
        return False
    n = next(iter(elems)).size
    if any(p.size != n for p in elems):
        raise OracleError("permutations of mixed sizes")
    if identity(n) not in elems:
        return False
    for p in elems:
        if inverse(p) not in elems:
            return False
    for p in elems:
        for q in elems:
            if compose(p, q) not in elems:
                return False
    return True


def _require_subgroup(big: tuple[Permutation, ...], small: tuple[Permutation, ...]) -> None:
    big_set, small_set = set(big), set(small)
    if not small_set <= big_set:
        raise OracleError("small is not a subset of big")
    if not is_group(big_set) or not is_group(small_set):
        raise OracleError("inputs must both be groups")


def group_index(big: tuple[Permutation, ...], small: tuple[Permutation, ...]) -> int:
    """|big| / |small|, with Lagrange divisibility asserted."""
    _require_subgroup(big, small)
    nbig, nsmall = len(set(big)), len(set(small))
    if nbig % nsmall != 0:
        raise OracleError(f"|big|={nbig} not divisible by |small|={nsmall}")
    return nbig // nsmall


def left_transversal(
    big: tuple[Permutation, ...], small: tuple[Permutation, ...]
) -> list[Permutation]:
    """One representative per left coset of small in big; identity first."""
    _require_subgroup(big, small)
    small_set = sorted(set(small))
    n = small_set[0].size
    reps: list[Permutation] = []
    covered: set[Permutation] = set()
    scan = [identity(n)] + sorted(set(big))
    for beta in scan:
        if beta in covered:
            continue
        reps.append(beta)
        covered.update(compose(beta, h) for h in small_set)
    if len(covered) != len(set(big)):
        raise OracleError("cosets do not partition the big group")
    return reps
