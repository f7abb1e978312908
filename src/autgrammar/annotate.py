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
is an annotation already and no search runs.  The search places one
domain vertex at a time and checks a candidate image's adjacency to all
placed vertices with one set comparison, against the images of the
vertex's placed neighbours, collected once per vertex.  Nothing is
cached between calls: the colouring is computed once per call and
dropped with the annotations.

The search and the join hold an annotation of bag S as its image tuple
over the sorted domain N[S], and the grammar builders read images from
those tuples.  An annotation's partners in a child depend only on its
images on the shared domain, its key, so the join indexes each child's
annotations by key, and one bottom-up pass both prunes them and merges
them into classes that derive the same words.  AnnotatedBag, which pairs
each domain vertex with its image, is the public type:
enumerate_annotated_bags wraps the tuples in it at its boundary.
count_assignments counts the consistent annotations of the whole tree, one
per automorphism, in one product-sum pass over the join.
"""

from __future__ import annotations

import math
import operator
from typing import NamedTuple

from . import PreconditionError
from .decomp import ROOT, TreeDecomposition, validate_tree_decomposition
from .graph import Graph, closed_neighborhood, stable_colouring


class AnnotationError(PreconditionError):
    pass


class AnnotatedBag(NamedTuple):
    """Bag s plus an injective map phi with domain N(s) union s, stored as
    (vertex, image) pairs sorted by vertex."""

    s: tuple[int, ...]
    phi: tuple[tuple[int, int], ...]


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
        an annotation.  The adjacency rule is one set comparison per
        candidate: the images of the vertex's placed neighbours are
        collected once per vertex, and a candidate c passes when the used
        images adjacent to c are exactly those."""
        colour, adjacent, classes, closed = self.colour, self.adjacent, self.classes, self.closed
        dom = closed_neighborhood(self.g, bag)
        order = [v for v in bag if v not in pinned]
        placed_bag = len(order)
        order += [v for v in dom if v not in pinned and v not in bag]
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
                found.append(tuple(map(phi.__getitem__, dom)))
                return
            v = order[k]
            # phi is injective and used holds its images, so c keeps
            # adjacency both ways to every placed vertex exactly when the
            # placed images adjacent to c are the images of v's neighbours
            images = {phi[u] for u in adjacent[v] if u in phi}
            last = k + 1 == len(order) and target is not None  # each c completes a map
            for c in classes[colour[v]] if k < placed_bag else target:
                if c in used or colour[c] != colour[v] or adjacent[c] & used != images:
                    continue
                phi[v] = c
                if last:
                    found.append(tuple(map(phi.__getitem__, dom)))
                else:
                    used.add(c)
                    extend(k + 1, target)
                    used.discard(c)
                del phi[v]

        for key in keys:
            phi.clear()
            phi.update(zip(pinned, key))
            used.clear()
            used.update(key)
            extend(0, None)
        found.sort()
        return found


def _images_on(ks: list[int]):
    """The function taking an image tuple to its images at indices ks, as
    a tuple: itemgetter, which returns a bare item for one index and takes
    no empty list, where it can."""
    if len(ks) > 1:
        return operator.itemgetter(*ks)
    return lambda images: tuple([images[k] for k in ks])


class Join(NamedTuple):
    """The consistency join of a decomposition's annotations; see
    join_annotations."""

    dom: dict  # p -> the sorted domain N[S_p]
    ann: dict  # p -> the image tuples over dom[p], in enumeration order
    cls: dict  # p -> the class of each annotation at p, None if not kept
    first: dict  # p -> the first annotation of each class at p
    keys: dict  # c -> the key of each annotation at c's parent
    index: dict  # c -> key -> the kept annotations at c with that key


def join_annotations(g: Graph, t: TreeDecomposition, written: dict | None = None) -> Join:
    """The annotations of each bag of t that take part in some consistent
    annotation of the whole tree, merged into classes that derive the same
    words.  written maps a position to the vertex whose image its
    annotations write, a terminal of the grammar built from the join;
    count_assignments passes none, as it counts annotations, not words.

    Annotations at p and c are consistent when their images agree on the
    shared domain N[S_p] & N[S_c], which is fixed, so an annotation's key
    is its image tuple read there, and the partners at c of annotation i
    at p are index[c][keys[c][i]].  The search runs top down: the root's
    colour-preserving annotations, then each child's only as extensions of
    the distinct keys its parent's annotations give.  A child whose whole
    domain the parent pins takes those keys as they are: a parent's
    annotation preserves colours, so degrees, so it maps each N[v] onto
    N[phi(v)] and its key is an annotation of the child.

    One bottom-up pass then prunes and merges (Yannakakis' full reducer,
    VLDB 1981, fused with the signature minimisation of acyclic automata,
    Revuz, TCS 1992).  A childless annotation's class is the image it
    writes.  Any other's is, per child, the set of (image written, class)
    pairs of its partners, or None when some child has no partner; the
    set is built once per key, and a child's pair is its class alone when
    the child writes nothing or has no children (a fully pinned child's
    set has one pair, which stands for it).  Two annotations at a
    position share a class exactly when they derive the same words.  A
    top-down pass keeps the root's annotations with a class and, at each
    child, the annotations whose key some kept parent uses, and numbers
    the classes by first appearance among the kept annotations."""
    search = _Search(g)
    written = written or {}
    dom = {p: closed_neighborhood(g, t.bag(p)) for p in t.positions}
    ann = {ROOT: search.annotations(t.bag(ROOT), (), [()])}
    keys: dict = {}
    key_of: dict = {}  # c -> the key function at c, or None where each annotation is its key
    for p in t.positions:  # parents before children
        for c in t.children(p):
            shared = set(dom[p]) & set(dom[c])
            keys[c] = list(map(_images_on([k for k, v in enumerate(dom[p]) if v in shared]), ann[p]))
            if len(shared) == len(dom[c]):
                key_of[c] = None
                ann[c] = sorted(set(keys[c]))
            else:
                key_of[c] = _images_on([k for k, v in enumerate(dom[c]) if v in shared])
                pinned = tuple(v for v in dom[c] if v in shared)  # sorted, as in dom[p]
                ann[c] = search.annotations(t.bag(c), pinned, set(keys[c]))
    cls: dict = {}
    index: dict = {}
    pairs: dict = {}  # c -> key -> the pairs of the live annotations at c with that key
    for p in reversed(t.positions):  # children before parents
        kids, images, wrote = t.children(p), ann[p], None
        if p in written:
            wrote = list(map(operator.itemgetter(dom[p].index(written[p])), images))
        if not kids:
            sigs = [0] * len(images) if wrote is None else wrote
        elif len(kids) == 1:
            sigs = list(map(pairs.pop(kids[0]).get, keys[kids[0]]))
        else:
            columns = [map(pairs.pop(c).get, keys[c]) for c in kids]
            sigs = [None if None in sig else sig for sig in zip(*columns)]
        ids: dict = {}
        cls[p] = [None if sig is None else ids.setdefault(sig, len(ids)) for sig in sigs]
        if p == ROOT:
            continue
        live = range(len(images))
        if None in cls[p]:
            live = [j for j, k in enumerate(cls[p]) if k is not None]
        pair = cls[p] if wrote is None or not kids else list(zip(wrote, cls[p]))
        if key_of[p] is None:  # one annotation per key: its pair stands for the set
            index[p] = {images[j]: [j] for j in live}
            pairs[p] = {images[j]: pair[j] for j in live}
            continue
        key, bucket = key_of[p], {}
        for j in live:
            bucket.setdefault(key(images[j]), []).append(j)
        index[p] = bucket
        pairs[p] = {k: frozenset(map(pair.__getitem__, js)) for k, js in bucket.items()}
    first: dict = {}
    for p in t.positions:  # parents before children
        if p != ROOT:  # keep the keys some kept parent uses, and renumber if any is dropped
            up, bucket, used = cls[p[:-1]], index[p], set(keys[p])
            if None in up:
                used = {k for k, i in zip(keys[p], up) if i is not None}
            if len(used) < len(bucket):
                index[p] = {k: bucket[k] for k in used}
                kept = {j for k in used for j in bucket[k]}
                ids, merged = {}, cls[p]
                cls[p] = [ids.setdefault(k, len(ids)) if j in kept else None for j, k in enumerate(merged)]
        # each class's first annotation: the last one met walking backwards
        back = dict(zip(reversed(cls[p]), range(len(cls[p]) - 1, -1, -1)))
        back.pop(None, None)
        first[p] = sorted(back.values())
    return Join(dom, ann, cls, first, keys, index)


def count_assignments(g: Graph, t: TreeDecomposition) -> int:
    """The number of consistent annotations of the whole of t, one per
    automorphism of g.  It counts annotations, not the classes they merge
    into, so it checks the merge against the grammar's parse-tree count.
    One bottom-up pass over join_annotations: a kept annotation i at p
    counts the product, over the children c, of the summed counts of its
    partners index[c][keys[c][i]], one that is not kept counts 0, and the
    root's counts sum to the total."""
    report = validate_tree_decomposition(g, t)
    if not report.ok:
        raise AnnotationError(f"decomposition invalid: {report.violations[0].message}")
    _, _, cls, _, keys, index = join_annotations(g, t)
    count: dict = {}
    for p in reversed(t.positions):  # children before parents
        kids = t.children(p)
        sums = [{k: sum(count[c][j] for j in js) for k, js in index[c].items()} for c in kids]
        count[p] = [
            0 if k is None else math.prod(by_key[keys[c][i]] for c, by_key in zip(kids, sums))
            for i, k in enumerate(cls[p])
        ]
    return sum(count[ROOT])
