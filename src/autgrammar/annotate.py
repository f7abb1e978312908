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

Only annotations that can take part in such a family are searched for.
Every vertex maps to one of its own stable colour (graph.stable_colouring),
which automorphisms preserve, and join_annotations enumerates each child's
annotations only as extensions of its parent's images on their shared
domain.  When the parent pins the child's whole domain, as it does for
most children of a permutation-yielding decomposition, each such image
is its own only extension and is checked without a search.  Nothing is
cached between calls: the colouring is computed once per call and
dropped with the annotations.

The search and the join hold an annotation of bag S as its image tuple
over the sorted domain N[S], and the grammar builders read images from
those tuples.  An annotation's partners in a child depend only on its
images on the shared domain, its key, so the join stores them once per
key and gives each annotation the group of its key.  AnnotatedBag, which
pairs each domain vertex with its image, is the public type:
enumerate_annotated_bags and enumerate_assignments wrap the tuples in it
at their boundary.
"""

from __future__ import annotations

import operator
from typing import NamedTuple

from . import PreconditionError
from .decomp import ROOT, TreeDecomposition, validate_tree_decomposition
from .graph import Graph, closed_neighborhood, induced_subgraph, stable_colouring
from .perm import Permutation


class AnnotationError(PreconditionError):
    pass


class AnnotatedBag(NamedTuple):
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
    """Every colour-preserving annotation of bag s, ordered
    lexicographically by the image tuple over the sorted domain.

    Colour-preserving means each vertex of the domain maps to one of its
    own stable colour (graph.stable_colouring); the restriction of every
    automorphism is one, so no annotation that can take part in a
    whole-tree annotation is missing.  The colouring is computed afresh on
    each call and nothing is cached; join_annotations searches further
    only among extensions of a parent's images."""
    bag = tuple(sorted(set(s)))
    if not bag:
        raise AnnotationError("empty bag has no annotations")
    for v in bag:
        g._check_vertex(v)
    dom = closed_neighborhood(g, bag)
    found = _Search(g).annotations(bag, (), [()])
    return [AnnotatedBag(bag, tuple(zip(dom, images))) for images in found]


class _Search:
    """The backtracking search for colour-preserving annotations of one
    graph, holding its stable colouring, neighbour sets and closed
    neighbourhoods."""

    def __init__(self, g: Graph):
        self.g = g
        self.colour = stable_colouring(g)
        self.classes: dict[int, list[int]] = {}
        for v in g.vertices:
            self.classes.setdefault(self.colour[v], []).append(v)
        self.adjacent = {v: frozenset(ns) for v, ns in g.neighbors.items()}
        self.closed = {v: ns | {v} for v, ns in self.adjacent.items()}

    def annotations(self, bag: tuple[int, ...], pinned: tuple[int, ...], keys) -> list[tuple[int, ...]]:
        """The annotations of the sorted bag that map the vertices pinned,
        a sorted part of its domain, to one of the keys, as image tuples
        over the sorted domain N[bag], in enumeration (lexicographic)
        order.  Each key is the image of pinned under some
        colour-preserving partial isomorphism (join_annotations passes a
        parent's images on the shared domain), so the pinned vertices need
        no check among themselves.

        The other bag vertices are placed first, then the other boundary
        vertices, whose images must fill the closed neighbourhood of the
        image bag.  Each placement checks colour, injectivity and adjacency
        to every placed vertex in both directions, so every complete map is
        an annotation.  When pinned is the whole domain there is nothing to
        place: a key is kept, as it stands, when the closed neighbourhood
        of its image bag has as many vertices as the domain."""
        colour, adjacent, classes, closed = self.colour, self.adjacent, self.classes, self.closed
        dom = closed_neighborhood(self.g, bag)
        order = [v for v in bag if v not in pinned]
        placed_bag = len(order)
        order += [v for v in dom if v not in pinned and v not in bag]
        if not order:
            # the whole domain is pinned, so each key, read over the sorted
            # domain, is its own only extension: keep it when the search's
            # one check at the placed bag holds
            at_bag = [dom.index(v) for v in bag]
            return sorted(
                key for key in keys
                if len(set().union(*[closed[key[k]] for k in at_bag])) == len(dom)
            )
        found: list[tuple[int, ...]] = []
        phi: dict[int, int] = {}
        used: set[int] = set()

        def extend(k: int, target: set[int] | None) -> None:
            if k == placed_bag and target is None:
                # bag placed: the boundary's images must fill the closed
                # neighbourhood of the image bag.  A pinned boundary vertex's
                # image already lies in it, being adjacent to the image of a
                # bag neighbour: by the key when that neighbour is pinned too,
                # by the placement check when it is not.
                target = set().union(*(closed[phi[u]] for u in bag))
                if len(target) != len(dom):
                    return
            if k == len(order):
                found.append(tuple([phi[v] for v in dom]))
                return
            v = order[k]
            adj_v = adjacent[v]
            for c in classes[colour[v]] if k < placed_bag else target:
                if c in used or colour[c] != colour[v]:
                    continue
                adj_c = adjacent[c]
                if any((u in adj_v) != (img in adj_c) for u, img in phi.items()):
                    continue
                phi[v] = c
                used.add(c)
                extend(k + 1, target)
                del phi[v]
                used.discard(c)

        for key in keys:
            phi.clear()
            phi.update(zip(pinned, key))
            used.clear()
            used.update(key)
            extend(0, None)
        found.sort()
        return found


def consistent_bags(parent: AnnotatedBag, child: AnnotatedBag) -> bool:
    """Agreement on every vertex both annotations cover."""
    pphi, cphi = parent.as_dict(), child.as_dict()
    for v in pphi.keys() & cphi.keys():
        if pphi[v] != cphi[v]:
            return False
    return True


class AnnotationAssignment(NamedTuple):
    """One annotated bag per position of a fixed tree decomposition."""

    decomposition: TreeDecomposition
    bags: tuple[tuple[tuple[int, ...], AnnotatedBag], ...]  # (position, bag)


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


def _images_on(ks: list[int]):
    """The function taking an image tuple to its images at indices ks, as
    a tuple: itemgetter, which returns a bare item for one index and takes
    no empty list, where it can."""
    if len(ks) > 1:
        return operator.itemgetter(*ks)
    return lambda images: tuple([images[k] for k in ks])


def join_annotations(g: Graph, t: TreeDecomposition) -> tuple[dict, dict, dict]:
    """(dom, ann, links): dom[p] is the sorted domain N[S_p] of the bag at
    p; ann[p] lists, in enumeration order, the image tuples over dom[p] of
    the annotations of that bag that take part in some consistent
    annotation of the whole tree; links[p] holds, per child c of p, a pair
    (groups, partners): survivor i at p is consistent with the survivors
    at c whose indices into ann[c] are partners[groups[i]].

    Annotations at p and c are consistent when their images agree on the
    shared domain N[S_p] & N[S_c], which is fixed, so an annotation's join
    key is its image tuple read at the shared domain's indices, and its
    partners at c depend on that key alone: a group is a key, numbered in
    order of first use by the survivors at p.  The search runs top down:
    the root's colour-preserving annotations, then each child's only as
    extensions of the distinct keys its parent's annotations give.  A
    bottom-up pass then buckets each child's live annotations by key and
    keeps the parent annotations whose every child key has a bucket, and a
    top-down pass keeps the buckets that a surviving parent's key uses:
    Yannakakis' full reducer (VLDB 1981).  An annotation's index is its
    rank among the survivors, which no pruning of the search can shift."""
    search = _Search(g)
    dom = {p: closed_neighborhood(g, t.bag(p)) for p in t.positions}
    ann = {ROOT: search.annotations(t.bag(ROOT), (), [()])}
    parent_keys: dict = {}  # c -> the key of each annotation at c's parent
    child_key: dict = {}  # c -> the key function of the annotations at c
    for p in t.positions:  # parents before children
        for c in t.children(p):
            shared = set(dom[p]) & set(dom[c])
            parent_key = _images_on([k for k, v in enumerate(dom[p]) if v in shared])
            child_key[c] = _images_on([k for k, v in enumerate(dom[c]) if v in shared])
            parent_keys[c] = list(map(parent_key, ann[p]))
            pinned = tuple(v for v in dom[c] if v in shared)  # sorted, as in dom[p]
            ann[c] = search.annotations(t.bag(c), pinned, set(parent_keys[c]))
    live: dict = {}  # p -> the indices into ann[p] still taking part
    buckets: dict = {}  # c -> key -> the live indices at c with that key
    for p in reversed(t.positions):  # children before parents
        alive = range(len(ann[p]))
        for c in t.children(p):
            key, images, bucket = child_key[c], ann[c], {}
            for j in live[c]:
                bucket.setdefault(key(images[j]), []).append(j)
            keys = parent_keys[c]
            alive = [i for i in alive if keys[i] in bucket]
            buckets[c] = bucket
        live[p] = alive
    links: dict = {}
    for p in t.positions:  # parents before children
        links[p] = []
        for c in t.children(p):
            keys, bucket, group = parent_keys.pop(c), buckets.pop(c), {}
            groups = [group.setdefault(keys[i], len(group)) for i in live[p]]
            live[c] = sorted(j for k in group for j in bucket[k])
            rank = {j: r for r, j in enumerate(live[c])}
            links[p].append((groups, [tuple([rank[j] for j in bucket[k]]) for k in group]))
    survivors = {p: [ann[p][i] for i in live[p]] for p in t.positions}
    return dom, survivors, links


def enumerate_assignments(g: Graph, t: TreeDecomposition):
    """Yield every valid annotation assignment of t, in canonical order
    (per-position bag choices explored in enumeration order)."""
    report = validate_tree_decomposition(g, t)
    if not report.ok:
        raise AnnotationError(f"decomposition invalid: {report.violations}")
    dom, ann, links = join_annotations(g, t)
    positions = t.positions  # preorder: parents precede children
    slot = {c: (p, k) for p in positions for k, c in enumerate(t.children(p))}
    chosen: dict = {}
    stack = [iter(range(len(ann[ROOT])))]  # choices left at each placed position
    while stack:
        i = next(stack[-1], None)
        if i is None:
            stack.pop()
            continue
        chosen[positions[len(stack) - 1]] = i
        if len(stack) == len(positions):
            yield make_assignment(t, {
                p: AnnotatedBag(t.bag(p), tuple(zip(dom[p], ann[p][chosen[p]]))) for p in positions
            })
        else:
            par, k = slot[positions[len(stack)]]
            groups, partners = links[par][k]
            stack.append(iter(partners[groups[chosen[par]]]))


def count_assignments(g: Graph, t: TreeDecomposition) -> int:
    return sum(1 for _ in enumerate_assignments(g, t))
