"""Annotated bags: a bag together with a partial automorphism defined on
the bag's closed neighborhood.

A map phi qualifies as an annotation of bag S when (1) the image of the
closed neighborhood of S under phi equals the closed neighborhood of
phi(S), and (2) phi is an isomorphism between the subgraphs induced by its
domain and its image.  Annotations of adjacent decomposition nodes are
consistent when they agree on the full intersection of their domains; the
union of a consistent family over a whole decomposition is then a single
well-defined vertex map, and for connected graphs that map is exactly an
automorphism.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .decomp import ROOT, TreeDecomposition, validate_tree_decomposition
from .graph import Graph, closed_neighborhood, induced_subgraph
from .perm import Permutation


class AnnotationError(Exception):
    pass


@dataclass(frozen=True)
class AnnotatedBag:
    """Bag s plus an injective map phi with domain N(s) union s, stored as
    (vertex, image) pairs sorted by vertex."""

    s: tuple[int, ...]
    phi: tuple[tuple[int, int], ...]

    @property
    def domain(self) -> tuple[int, ...]:
        return tuple(v for v, _ in self.phi)

    def maps(self, v: int) -> int:
        for u, img in self.phi:
            if u == v:
                return img
        raise AnnotationError(f"vertex {v} not in annotation domain")

    def as_dict(self) -> dict[int, int]:
        return dict(self.phi)


def make_annotated_bag(s, mapping: dict[int, int]) -> AnnotatedBag:
    return AnnotatedBag(tuple(sorted(set(s))), tuple(sorted(mapping.items())))


def check_annotated_bag(g: Graph, b: AnnotatedBag) -> bool:
    """Both annotation conditions: image set matches the closed neighborhood
    of the image bag, and adjacency is preserved in both directions."""
    dom = closed_neighborhood(g, b.s)
    if b.domain != dom:
        raise AnnotationError(
            f"phi domain {b.domain} differs from closed neighborhood {dom}"
        )
    phi = b.as_dict()
    image = set(phi.values())
    if len(image) != len(phi):
        return False
    image_bag = [phi[v] for v in b.s]
    if image != set(closed_neighborhood(g, image_bag)):
        return False
    dom_edges = induced_subgraph(g, dom)
    img_edges = induced_subgraph(g, image)
    mapped = set()
    for u, v in dom_edges:
        a, c = phi[u], phi[v]
        e = (a, c) if a < c else (c, a)
        mapped.add(e)
    return mapped == img_edges


def enumerate_annotated_bags(g: Graph, s) -> list[AnnotatedBag]:
    """Every annotation of bag s, ordered lexicographically by the image
    tuple over the sorted domain.

    Search assigns images to the bag vertices first (exact degree match is
    necessary for them), then extends over the boundary, which must land
    inside the closed neighborhood of the image bag; adjacency is checked
    in both directions at every step.
    """
    bag = tuple(sorted(set(s)))
    if not bag:
        raise AnnotationError("empty bag has no annotations")
    for v in bag:
        g._check_vertex(v)
    return list(_enumerate_cached(g, bag))


@lru_cache(maxsize=4096)
def _enumerate_cached(g: Graph, bag: tuple[int, ...]) -> tuple[AnnotatedBag, ...]:
    dom = closed_neighborhood(g, bag)
    boundary = tuple(v for v in dom if v not in bag)
    order = bag + boundary
    degree = {v: len(g.neighbors[v]) for v in g.vertices}
    results: list[AnnotatedBag] = []
    phi: dict[int, int] = {}
    used: set[int] = set()

    def adjacency_ok(v: int, cand: int) -> bool:
        for u, img in phi.items():
            if g.has_edge(u, v) != g.has_edge(img, cand):
                return False
        return True

    def extend(k: int, allowed: tuple[int, ...] | None) -> None:
        if k == len(order):
            b = AnnotatedBag(bag, tuple(sorted(phi.items())))
            if check_annotated_bag(g, b):
                results.append(b)
            return
        v = order[k]
        if allowed is None:
            candidates = [c for c in g.vertices if degree[c] == degree[v]]
        else:
            candidates = list(allowed)
        for cand in candidates:
            if cand in used or not adjacency_ok(v, cand):
                continue
            phi[v] = cand
            used.add(cand)
            if k + 1 == len(bag):
                # bag fully placed: remaining images must fill the closed
                # neighborhood of the image bag
                target = closed_neighborhood(g, [phi[u] for u in bag])
                if len(target) == len(dom):
                    extend(k + 1, tuple(c for c in target if c not in used))
            elif k + 1 < len(bag):
                extend(k + 1, None)
            else:
                extend(k + 1, tuple(c for c in allowed if c != cand))
            del phi[v]
            used.discard(cand)

    extend(0, None)
    results.sort(key=lambda b: tuple(img for _, img in b.phi))
    return tuple(results)


def consistent_bags(parent: AnnotatedBag, child: AnnotatedBag) -> bool:
    """Agreement on every vertex both annotations cover."""
    pphi, cphi = parent.as_dict(), child.as_dict()
    for v in pphi.keys() & cphi.keys():
        if pphi[v] != cphi[v]:
            return False
    return True


@dataclass(frozen=True)
class AnnotationAssignment:
    """One annotated bag per position of a fixed tree decomposition."""

    decomposition: TreeDecomposition
    bags: tuple[tuple[tuple[int, ...], AnnotatedBag], ...]  # (position, bag)

    def bag_at(self, pos) -> AnnotatedBag:
        for p, b in self.bags:
            if p == pos:
                return b
        raise AnnotationError(f"no annotation at position {pos}")


def make_assignment(t: TreeDecomposition, mapping: dict) -> AnnotationAssignment:
    return AnnotationAssignment(t, tuple(sorted(mapping.items())))


def validate_assignment(g: Graph, a: AnnotationAssignment) -> None:
    """Erasure must reproduce the underlying decomposition, every bag must
    be a genuine annotation, and adjacent positions must be consistent."""
    t = a.decomposition
    positions = {p for p, _ in a.bags}
    if positions != set(t.positions):
        raise AnnotationError("assignment positions differ from the decomposition")
    report = validate_tree_decomposition(g, t)
    if not report.ok:
        raise AnnotationError(f"underlying decomposition invalid: {report.violations}")
    by_pos = dict(a.bags)
    for p in t.positions:
        b = by_pos[p]
        if b.s != t.bag(p):
            raise AnnotationError(f"annotation at {p} erases to {b.s}, bag is {t.bag(p)}")
        if not check_annotated_bag(g, b):
            raise AnnotationError(f"annotation at {p} is not a partial automorphism")
    for p in t.positions:
        for c in t.children(p):
            if not consistent_bags(by_pos[p], by_pos[c]):
                raise AnnotationError(f"annotations at {p} and {c} disagree")


def annotation_morphism(g: Graph, a: AnnotationAssignment) -> Permutation:
    """Unite all bag annotations into one vertex map and verify it is an
    automorphism; fails loudly otherwise."""
    validate_assignment(g, a)
    union: dict[int, int] = {}
    for _, b in a.bags:
        for v, img in b.phi:
            if v in union and union[v] != img:
                raise AnnotationError(f"inconsistent images for vertex {v}")
            union[v] = img
    if set(union) != set(g.vertices):
        raise AnnotationError("united annotation does not cover every vertex")
    image = tuple(union[v] for v in g.vertices)
    if sorted(image) != list(g.vertices):
        raise AnnotationError("united annotation is not a bijection")
    sigma = Permutation(image)
    for u, v in g.edges:
        if not g.has_edge(sigma(u), sigma(v)):
            raise AnnotationError("united annotation does not preserve adjacency")
    return sigma


def join_annotations(g: Graph, t: TreeDecomposition) -> tuple[dict, dict]:
    """(ann, links): ann[p] lists the annotations of the bag at p in
    enumeration order; links[p] maps the index of each annotation at p that
    takes part in some consistent annotation of the whole tree to a tuple
    holding, per child c of p, the indices of such annotations at c that
    are consistent with it.

    Annotations at p and c are consistent when their images agree on the
    shared domain N[S_p] & N[S_c], which is fixed, so one dict lookup finds
    a parent's partners.  A bottom-up pass keeps the annotations with a
    partner in every child and a top-down pass those a surviving parent
    reaches: Yannakakis' full reducer (VLDB 1981)."""
    ann = {p: enumerate_annotated_bags(g, t.bag(p)) for p in t.positions}

    def images_on(p, shared: set) -> list[tuple[int, ...]]:
        at = [k for k, v in enumerate(ann[p][0].domain) if v in shared]
        return [tuple(b.phi[k][1] for k in at) for b in ann[p]]

    links: dict = {}
    for p in reversed(t.positions):  # children before parents
        columns = []
        for c in t.children(p):
            shared = set(ann[p][0].domain) & set(ann[c][0].domain)
            child_keys = images_on(c, shared)
            buckets: dict = {}
            for j in links[c]:
                buckets.setdefault(child_keys[j], []).append(j)
            columns.append([buckets.get(key, ()) for key in images_on(p, shared)])
        partners = zip(*columns) if columns else ((),) * len(ann[p])
        links[p] = {i: ps for i, ps in enumerate(partners) if all(ps)}
    for p in t.positions:  # parents before children
        for k, c in enumerate(t.children(p)):
            reached = {j for ps in links[p].values() for j in ps[k]}
            links[c] = {j: ps for j, ps in links[c].items() if j in reached}
    return ann, links


def enumerate_assignments(g: Graph, t: TreeDecomposition):
    """Yield every valid annotation assignment of t, in canonical order
    (per-position bag choices explored in enumeration order)."""
    report = validate_tree_decomposition(g, t)
    if not report.ok:
        raise AnnotationError(f"decomposition invalid: {report.violations}")
    ann, links = join_annotations(g, t)
    positions = t.positions  # preorder: parents precede children
    slot = {c: (p, k) for p in positions for k, c in enumerate(t.children(p))}
    chosen: dict = {}
    stack = [iter(links[ROOT])]  # choices left at each placed position
    while stack:
        i = next(stack[-1], None)
        if i is None:
            stack.pop()
            continue
        chosen[positions[len(stack) - 1]] = i
        if len(stack) == len(positions):
            yield make_assignment(t, {p: ann[p][chosen[p]] for p in positions})
        else:
            par, k = slot[positions[len(stack)]]
            stack.append(iter(links[par][chosen[par]][k]))


def count_assignments(g: Graph, t: TreeDecomposition) -> int:
    return sum(1 for _ in enumerate_assignments(g, t))
