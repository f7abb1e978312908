"""Compile a graph's automorphism group into a grammar, out of the
annotated bags of a permutation-yielding tree decomposition.

An annotated bag is a bag together with a partial automorphism defined on
the bag's closed neighborhood.  A map phi qualifies as an annotation of
bag S when (1) the image of the closed neighborhood of S under phi equals
the closed neighborhood of phi(S), and (2) phi is an isomorphism between
the subgraphs induced by its domain and its image.  Annotations of
adjacent decomposition nodes are consistent when they agree on the full
intersection of their domains; the union of a consistent family over a
whole decomposition is then a single well-defined vertex map, and for
connected graphs that map is exactly an automorphism.

Only annotations that can take part in such a family are searched for.
Every vertex maps to one of its own stable colour (graph.stable_colouring),
which automorphisms preserve, and join_annotations enumerates each child's
annotations only as extensions of its parent's images on their shared
domain.  When the parent pins the child's whole domain, as it does for
every leaf of a permutation-yielding decomposition and for many of its
inner positions, each such image is an annotation already and no search
runs.  The search follows a plan over the indexes of the domain, which
its caller computes and passes in, made once per call: each step fills
one index of an image list.  Vertex sets are int bitmasks in
Graph.neighbor_masks' convention, so a step's candidates are its colour's
mask, less the used images, ANDed with the neighbour mask of each placed
neighbour's image, and each candidate is checked with one mask test.
The search is one loop over levels, not a recursion, so a domain of any
size is searched (a fan's hub has every vertex in its domain).  Nothing
else is cached between calls: the colouring and the colour masks are
computed once per call of join_annotations or enumerate_annotated_bags
and dropped with the annotations; the neighbour masks are the graph's.

The search and the join hold an annotation of bag S as its image tuple
over the sorted domain N[S], and the builders read images from those
tuples (`_image`).  An annotation's partners in a child depend only on
its images on the shared domain, its key.  The join numbers each child's
keys once, indexes its annotations by key id, and in one bottom-up pass
both prunes them and merges them into classes that derive the same
words.  AnnotatedBag, which pairs each domain vertex with its image, is
the public type: enumerate_annotated_bags wraps the tuples in it at its
boundary.  count_assignments counts the consistent annotations of the
whole tree in one product-sum pass over the join.  That is one per
automorphism only on a connected graph (two disjoint edges have 16
consistent annotations and 8 automorphisms), so, as the builders do, it
requires a connected graph and a valid decomposition, both checked by
their owners (graph.require_connected, decomp.require_valid).

The grammar's variables are inner positions other than the root paired
with the join's classes, and its rules connect annotations that agree on
their shared domain.  Each leaf's terminal, the image of its vertex read
off its parent's annotations, stands in its parent's rules where a leaf
variable with one rule would, and the root's classes' rules are the
start's own, where the start's unit rule to each would be.  Parse trees
then correspond one-to-one with consistent whole-tree annotations, hence
with automorphisms, and they still do with a position whose classes
each have one rule, which one rule names, spliced: its classes have no
variables, and their rules are written into their parent's.  Such
positions are whole: Aut(g) acts transitively on a position's kept
annotations, by phi -> tau o phi, and that action sends classes to
classes and keeps their rule and use counts, so a position's classes are
all spliced or none is.  A class with several partners at some child, a
fan, has the product of its options at the children as its rules, or,
where that is larger by symbol count, one rule that names at each fan a
factor variable whose rules are its options there (p:<c>|f:<i> at the
fan c): Σ k_i options in place of Π k_i combinations.  The join merges
annotations only by the words they derive below, so rules that begin
alike are not shared: a second pass (`_share`) factors each variable's
sorted rules by their shared prefixes into new variables s:<k> and
makes variables with equal rules at one offset one, as the minimal
acyclic automaton of a sorted word list is built, and a last pass
(`_spelled`) writes each variable that then has one rule, which one rule
names, into that rule, and numbers the rest.  The grammar stays
positional, parse trees still map one to one, and the shared grammar is
kept only when its `grammar_size` is smaller.
A word w produced for automorphism s satisfies w_i = s(alpha(i)) where
alpha spells the leaf vertex order, so the language is exactly the
string set of the group repositioned by alpha.  The regular grammar is
the same construction on a path decomposition that introduces one vertex
per bag, each bag writing the image of the vertex it introduces: one
builder (`_build`) serves both, and since its root writes a terminal,
the start keeps its rules B1 -> a X there.  No written position is
spliced, and no pass shares its variables, so every rule stays B -> a or
B -> a B'; but a class may have both a X and a X', so the classes are
not an automaton's states.  One pass (`_determinise`) runs the subset
construction forward from B1, so the regular grammar is the
deterministic automaton of the group's words, still one parse tree per
word.  The embed builder decides whether the prefix is invariant from
the host's grammar itself, so no builder loads `oracle` or `polytope`.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import operator
from typing import NamedTuple

from . import PreconditionError
from .decomp import (DecompositionError, TreeDecomposition, compute_tree_decomposition, introduced_order,
                     make_permutation_yielding, require_valid, yield_order_of)
from .grammar import (Grammar, GrammarError, _compiled, _evaluate, _grammar, _writes, erase_terminals,
                      grammar_size, permutation_from_aligned_word, rename_terminals)
from .graph import Graph, closed_neighborhood, require_connected, stable_colouring
from .perm import Permutation, Word, format_permutation, identity


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
    dom = closed_neighborhood(g, bag)
    found = _Search(g).annotations(bag, dom, (), [()])
    return [AnnotatedBag(bag, tuple(zip(dom, images))) for images in found]


class _Search:
    """The search for colour-preserving annotations of one graph, holding
    its vertex sets as ints in Graph.neighbor_masks' convention (the bit of
    v is 1 << (v - 1)): per vertex its bit and its neighbours, and per
    stable colour its vertices.  Lists indexed by vertex have an unused
    entry 0."""

    def __init__(self, g: Graph):
        self.neighbors = g.neighbors
        self.colour = stable_colouring(g)
        self.bit = [0] + [1 << i for i in range(g.vertex_count)]
        self.nbits = [0, *g.neighbor_masks]
        self.cmask: dict[int, int] = {}
        for v in g.vertices:
            self.cmask[self.colour[v]] = self.cmask.get(self.colour[v], 0) | self.bit[v]

    def annotations(self, bag: tuple[int, ...], dom: tuple[int, ...], pinned: tuple[int, ...],
                    keys) -> list[tuple[int, ...]]:
        """The annotations of the sorted bag that map the vertices pinned,
        a sorted part of its domain dom = N[bag], to one of the keys, as
        image tuples over dom, in enumeration (lexicographic) order.  Each
        key is the image of pinned under some colour-preserving partial
        isomorphism (join_annotations passes a parent's images on the
        shared domain), so the pinned vertices need no check among
        themselves.

        The search follows a plan over the indexes (slots) of dom, made
        once per call, a static matching order as in VF2 (Cordella et al.,
        IEEE TPAMI 2004): the other bag vertices first, then the other
        boundary vertices, each step with its slot, its colour's mask and
        the slots of its neighbours pinned or placed before it.  Each key
        fills the pinned slots of one image list.  A step's candidates are
        its colour's vertices, not used, adjacent to every placed
        neighbour's image; c passes when the used images adjacent to c are
        exactly the placed neighbours' images, so each complete list is an
        annotation.  A boundary vertex's image is adjacent to a bag image,
        so the boundary fills the image bag's closed neighbourhood when
        that is as large as the domain, which is checked once the bag is
        placed.

        One loop over levels, one per step, replaces recursion, so the
        domain's size is not bounded by the interpreter's recursion limit:
        each level keeps the mask of its passing candidates not yet tried
        and the used mask it was entered with."""
        bit, nbits = self.bit, self.nbits
        slot = dict(zip(dom, range(len(dom))))
        order = [v for v in bag if v not in pinned]
        placed_bag = len(order)
        order += [v for v in dom if v not in pinned and v not in bag]
        placed = set(pinned)
        plan = []  # per step: its slot, its colour's mask, its placed neighbours' slots
        for v in order:
            plan.append((slot[v], self.cmask[self.colour[v]], [slot[u] for u in self.neighbors[v] if u in placed]))
            placed.add(v)
        at_bag, at_pinned = [slot[v] for v in bag], [slot[v] for v in pinned]
        size, steps = len(dom), len(plan)
        last = steps - 1 if steps > placed_bag else -1  # each candidate there completes a map
        found: list[tuple[int, ...]] = []
        img = [0] * size  # the image of each slot, read only where pinned or placed
        untried = [0] * (steps + 1)  # per level: its passing candidates not yet tried
        entered = [0] * (steps + 1)  # per level: the used mask it was entered with
        try:
            for key in keys:
                used = 0
                for s, x in zip(at_pinned, key):
                    img[s] = x
                    used |= bit[x]
                k = 0
                while True:
                    # enter level k, with used the mask of the images so far
                    reach = size
                    if k == placed_bag:  # the bag's images' closed neighbourhood fills the domain
                        reach = 0
                        for s in at_bag:
                            reach |= nbits[img[s]] | bit[img[s]]
                        reach = reach.bit_count()
                    if reach != size:
                        passing = 0
                    elif k == steps:
                        found.append(tuple(img))
                        passing = 0
                    else:
                        at, cand, nbrs = plan[k]
                        cand &= ~used
                        images = 0
                        for s in nbrs:
                            x = img[s]
                            images |= bit[x]
                            cand &= nbits[x]
                        # img is injective and used holds its images, so c keeps
                        # adjacency both ways to every placed vertex exactly when
                        # the used images adjacent to c are the images of the
                        # step's placed neighbours
                        passing = 0
                        while cand:
                            low = cand & -cand
                            cand ^= low
                            if nbits[low.bit_length()] & used == images:
                                passing |= low
                        if k == last:
                            while passing:
                                low = passing & -passing
                                passing ^= low
                                img[at] = low.bit_length()
                                found.append(tuple(img))
                    untried[k], entered[k] = passing, used
                    # back to the deepest level with a candidate left: place it
                    # and enter the next level
                    while k >= 0 and not untried[k]:
                        k -= 1
                    if k < 0:
                        break
                    low = untried[k] & -untried[k]
                    untried[k] ^= low
                    img[plan[k][0]] = low.bit_length()
                    used = entered[k] | low
                    k += 1
            found.sort()
        except MemoryError:
            # freed here, as the traceback keeps this frame's locals: with no
            # memory left, CPython 3.11 loses the error on its way up
            found = None
            raise
        return found


def _image(dom: tuple[int, ...], v: int):
    """The function taking an image tuple over the sorted domain dom to
    the image of v."""
    return operator.itemgetter(dom.index(v))


def _images_on(ks: list[int]):
    """The function taking an image tuple to its images at indices ks, as
    a tuple: itemgetter where it can (it takes no empty list and returns a
    bare item for one index).  Only a vertex-free bag keys on no index:
    adjacent bags sharing a vertex v share N[v], two or more vertices."""
    if len(ks) > 1:
        return operator.itemgetter(*ks)
    return lambda images: tuple([images[k] for k in ks])


class Join(NamedTuple):
    """The consistency join of a decomposition's annotations; see
    join_annotations.  Each field is a list indexed by position (preorder
    int), None where it has no entry: at a leaf that the join reads from
    its parent (a childless position other than the root, in written), and
    at the root for up and members."""

    dom: list  # p -> the sorted domain N[S_p]
    ann: list  # p -> the image tuples over dom[p], in enumeration order
    cls: list  # p -> the class of each annotation at p, None if not kept
    first: list  # p -> the first annotation of each class at p
    up: list  # c -> the key id of each annotation at c's parent
    members: list  # c -> per key id, the kept annotations at c; None where key id k is annotation k


def join_annotations(g: Graph, t: TreeDecomposition, written: dict | None = None) -> Join:
    """The annotations of each bag of t that take part in some consistent
    annotation of the whole tree, merged into classes that derive the same
    words.  written maps a position (a preorder int, as in every field of
    the Join) to the vertex whose image its annotations write, a terminal
    of the grammar built from the join; count_assignments passes none, as
    it counts annotations, not words.

    A childless position c other than the root that is in written, a
    leaf, gets no annotations, key ids or classes of its own.  Its domain
    must lie in its parent p's, as it does for a permutation-yielding
    decomposition's leaves, whose one vertex is in the parent's bag, and
    for the last bag of a path that introduces one vertex per bag: then
    every annotation at p extends to exactly one at c, and the image c
    writes is read off p's by _image(dom[p], written[c]).

    Annotations at p and c are consistent when their images agree on the
    shared domain N[S_p] & N[S_c], which is fixed, so an annotation's key
    is its image tuple read there.  Each child numbers its parent's keys
    once: annotation i at p has key id up[c][i], and its partners at c
    are members[c][up[c][i]].  The search runs top down: the root's
    colour-preserving annotations, then each child's only as extensions
    of those keys.  A child whose whole domain the parent pins takes them,
    sorted, as its annotations, key id k being annotation k (members[c] is
    None; with the parent's very domain, ann[c] is ann[p]): a parent's
    annotation preserves colours, so degrees, so it maps each N[v] onto
    N[phi(v)] and its key is an annotation of the child.

    One bottom-up pass then prunes and merges (Yannakakis' full reducer,
    VLDB 1981, fused with the signature minimisation of acyclic automata,
    Revuz, TCS 1992).  A childless annotation's class is the image it
    writes, or 0 when it writes none.  Any other's is, per child, the
    image the child writes when it is a leaf, else the set of (image
    written, class) pairs of its partners, or None when some child has
    no partner; the set is built once per key id, and a child's pair is
    its class alone when the child writes nothing or has no children (a
    pinned child's one pair stands for its set).  Two annotations at a
    position share a class exactly when they derive the same words.  A
    top-down pass keeps the root's annotations with a class and each
    child's whose key id a kept parent uses, numbering classes by first
    appearance among them."""
    search = _Search(g)
    written = written or {}
    n, parent, bags, children = len(t.parent), t.parent, t.bag_list, t.kids
    leaf = {p for p in written if p and not children[p]}  # read from their parents
    inner = [p for p in range(n) if p not in leaf]
    dom: list = [None] * n
    for p in inner:
        dom[p] = closed_neighborhood(g, bags[p])
    ann: list = [None] * n
    ann[0] = search.annotations(bags[0], dom[0], (), [()])
    up: list = [None] * n
    members: list = [None] * n
    for p in inner:  # parents before children
        for c in children[p]:
            if c in leaf:
                continue
            if dom[c] == dom[p]:  # each annotation is its own key
                ann[c], up[c] = ann[p], range(len(ann[p]))
                continue
            shared = set(dom[p]) & set(dom[c])
            keys = list(map(_images_on([k for k, v in enumerate(dom[p]) if v in shared]), ann[p]))
            pinned = tuple(v for v in dom[c] if v in shared)  # sorted, as in dom[p]
            distinct = sorted(set(keys)) if pinned == dom[c] else dict.fromkeys(keys)
            ids = dict(zip(distinct, range(len(distinct))))
            up[c] = list(map(ids.__getitem__, keys))
            if pinned == dom[c]:
                ann[c] = distinct
                continue
            ann[c] = search.annotations(bags[c], dom[c], pinned, ids)
            members[c] = bucket = [[] for _ in ids]
            key = _images_on([k for k, v in enumerate(dom[c]) if v in shared])
            for j, k in enumerate(map(ids.__getitem__, map(key, ann[c]))):
                bucket[k].append(j)
    cls: list = [None] * n
    first: list = [None] * n
    sig: list = [None] * n  # c -> per key id, the pair, or the pair set, of its live annotations at c; else None
    for p in reversed(inner):  # children before parents
        kids, images = children[p], ann[p]
        wrote = list(map(_image(dom[p], written[p]), images)) if p in written else None
        # a leaf child's column is the image it writes, read off p's
        # annotation; any other child's is its pair, or pair set, by key id
        columns = [map(_image(dom[p], written[c]), images) if c in leaf
                   else map(sig[c].__getitem__, up[c]) for c in kids]
        if not kids:
            sigs = [0] * len(images) if wrote is None else wrote
        elif len(kids) == 1:
            sigs = list(columns[0])
        else:
            sigs = [None if None in s else s for s in zip(*columns)]
        for c in kids:
            sig[c] = None
        ids: dict = {}
        cls[p] = [None if s is None else ids.setdefault(s, len(ids)) for s in sigs]
        if not p:
            continue
        pair = cls[p]
        if wrote is not None and kids:
            pair = [None if k is None else (w, k) for w, k in zip(wrote, pair)]
        if members[p] is None:  # one annotation per key id: its pair stands for the set
            sig[p] = pair
            continue
        if None in cls[p]:
            members[p] = [[j for j in js if cls[p][j] is not None] for js in members[p]]
        sig[p] = [frozenset(map(pair.__getitem__, js)) if js else None for js in members[p]]
    for p in inner:  # parents before children
        if p and None in cls[parent[p]]:  # keep what a kept parent reaches, renumbered
            used = {k for k, i in zip(up[p], cls[parent[p]]) if i is not None}
            if members[p] is not None:  # from key ids to annotations
                members[p] = [js if k in used else [] for k, js in enumerate(members[p])]
                used = {j for js in members[p] for j in js}
            ids, merged = {}, cls[p]
            cls[p] = [ids.setdefault(k, len(ids)) if j in used else None for j, k in enumerate(merged)]
        # each class's first annotation: the last one met walking backwards
        back = dict(zip(reversed(cls[p]), range(len(cls[p]) - 1, -1, -1)))
        back.pop(None, None)
        first[p] = sorted(back.values())
    return Join(dom, ann, cls, first, up, members)


def count_assignments(g: Graph, t: TreeDecomposition) -> int:
    """The number of consistent annotations of the whole of t, one per
    automorphism of g when g is connected; so it raises
    DisconnectedGraphError unless g is, and DecompositionError unless t
    is a valid decomposition of g.  It counts annotations, not the classes
    they merge into, so it checks the merge against the grammar's
    parse-tree count.
    One bottom-up pass over join_annotations, summing each child's counts
    per key id: a kept annotation i at p counts the product, over the
    children c, of the sums at key id up[c][i], one that is not kept
    counts 0, and the root's counts sum to the total."""
    require_connected(g)
    require_valid(g, t)
    _, _, cls, _, up, members = join_annotations(g, t)
    count: list = [None] * len(t.parent)
    for p in reversed(range(len(t.parent))):  # children before parents
        kids = t.kids[p]
        count[p] = [0 if k is None else math.prod(count[c][up[c][i]] for c in kids)
                    for i, k in enumerate(cls[p])]
        if p and members[p] is not None:
            count[p] = [sum(map(count[p].__getitem__, js)) for js in members[p]]
    return sum(count[0])


# ---------------------------------------------------------------------------
# Grammars from the join: the tree grammar from a permutation-yielding tree
# decomposition, the regular grammar from a path decomposition, and the
# group embedded on a vertex prefix.

def _build(g: Graph, t: TreeDecomposition, written: dict) -> tuple[tuple, list, list, list]:
    """Compile Aut(g) out of t, a checked decomposition, into the int
    rules (names, lhs, rhs) of a grammar over alphabet V(g), B1 being
    variable 0, and each variable's word end: the number of positions up
    to the end of its position's subtree that write.  written maps each
    position (a preorder int) that writes a terminal, every childless
    position among them, to the vertex whose image it writes; word
    position i holds the i-th one's image.  The variables number parents
    first, so backwards they are in dependencies-first order.

    Each position with children has one variable per merge class of its
    annotations, but for a root that writes no terminal (every tree
    grammar's but a one-vertex graph's): its classes' rules, in class
    order, are B1's.  A written position writes its terminal into its
    parent's rules, just before its own variable when it has children, a
    written root into B1's.  A childless position writes only its
    terminal and has no variable, the root of a one-vertex graph too.

    Each child of a position gives a column of ints over its classes,
    read off each class's first annotation i: a childless child the image
    of its vertex, a spliced one its own columns, read through an index
    list from the parent's classes to its own that composes one position
    at a time, any other the variable of i's partner there (a written one
    the partner's image first).  The rules are the columns zipped, unless
    some class has several partners at a child, a fan: each partner is
    then an option, a tuple of symbols (its class's variable, a written
    one's image first, or its class's row where the fan is spliced).  A
    position with f fans, k_i options of r_i symbols at the i-th and rules
    of L symbols, writes each class either as its product over the
    children, Π k_i rules and Π k_i·(1 + L) symbols, or as one rule that
    names a factor variable at each fan, whose rules are the class's
    options there: 1 + L − Σ r_i + f + Σ k_i·(1 + r_i) symbols.  Positions
    are whole (see the module docstring), so each position is decided
    once, children first, on the totals over its classes, and keeps the
    product where it is no larger.  One fan with nothing beside it costs
    two symbols more factored, so the regular grammar, all written, keeps
    its rules B -> a B'.  A factor variable stands at its fan c, named
    p:<c>|f:<i>, and the parent's classes with one option set there, one
    signature at c in the join, share it.

    A position has no variables, spliced, when it is unwritten and its
    classes each have one rule, each named by one rule: when its classes
    number its own rules and the rules that name them, its parent's, or
    at a factored fan its factor variables' (positions are whole).  So no
    variable but B1 has one rule and one use."""
    # The columns are re-read off each class's first annotation, not kept
    # from the join's signatures, which spell the same order: keeping those
    # raised C400's peak here from 160.9 to 186.0 MiB, to save 14 lines.
    dom, ann, cls, first, up, members = join_annotations(g, t, written)
    n, kids = len(t.kids), t.kids
    # per position c but the root, its column over its parent's classes: a
    # childless c's image, any other's partner annotation, or at a fan each
    # class's list of them; per fan, its options over all its parent's
    # classes; per position, its rule count if written as the product; and
    # the positions with a fan
    col: list = [None] * n
    options, rules, fan_parents = [0] * n, [0] * n, []
    for p, ks in enumerate(kids):
        heads, count = first[p], None
        for c in ks:
            if not kids[c]:
                col[c] = list(map(_image(dom[p], written[c]), map(ann[p].__getitem__, heads)))
                continue
            # up[c] is a range at the parent's very domain: the heads are the partners, no new ints
            partners = heads if up[c].__class__ is range else list(map(up[c].__getitem__, heads))
            if members[c] is not None:  # from key ids to partner lists; else key id k is annotation k
                partners = list(map(members[c].__getitem__, partners))
                if max(map(len, partners)) > 1:
                    options[c] = sum(map(len, partners))
                    count = [len(js) * k for js, k in zip(partners, count or itertools.repeat(1))]
                else:
                    partners = list(itertools.chain.from_iterable(partners))
            col[c] = partners
        if ks:
            rules[p] = len(heads) if count is None else sum(count)
        if count is not None:
            fan_parents.append(p)

    # children first, each position with a fan keeps the product or writes
    # factors, on the product's row lengths: there a child is spliced only
    # as the one fan, its rows its options.  The classes of a factored
    # fan's parent that have one option set, their signature there in the
    # join, share one factor variable: ids[c] maps each of them to its
    # set's, and heads[c] lists each set's first class
    factored, ids, heads = set(), [None] * n, [None] * n

    def width(c: int) -> int:
        # the symbols in c's rules, each spliced position below c read in place
        total, stack = 0, [c]
        while stack:
            q = stack.pop()
            for d in kids[q]:
                if not kids[d] or options[d] and q in factored:  # a terminal, or a factor variable
                    total += 1
                elif d not in written and rules[d] == len(first[d]) == rules[q]:
                    stack.append(d)
                else:
                    total += 1 + (d in written)
        return total

    for p in reversed(fan_parents):
        classes, line, fans, factors = len(first[p]), 0, 0, 0
        for c in kids[p]:
            w = 1 + (c in written) if kids[c] else 1
            if options[c]:
                if c not in written and rules[c] == len(first[c]) == rules[p]:
                    w = width(c)
                fans += 1
                factors += options[c] * (1 + w) - classes * w
            line += w
        if rules[p] * (1 + line) <= classes * (1 + line + fans) + factors:
            continue
        factored.add(p)
        rules[p] = classes
        for c in kids[p]:
            if not options[c]:
                continue
            if options[c] == len(first[c]):  # each class of c is one option: the sets are disjoint
                ids[c] = heads[c] = range(classes)
                continue
            of, sets = cls[c], {}
            ids[c] = [sets.setdefault(frozenset(map(of.__getitem__, js)), len(sets)) for js in col[c]]
            heads[c] = sorted(dict(zip(reversed(ids[c]), range(classes - 1, -1, -1))).values())
            options[c] = sum(len(col[c][x]) for x in heads[c])  # the factor variables' rules
    # spliced: the positions whose classes each have one rule, named by one
    # rule of their parent's, or at a factored fan of its factor variables'
    parent = t.parent
    spliced = {c for c in range(1, n) if kids[c] and c not in written and rules[c] == len(first[c])
               == (options[c] if ids[c] is not None else rules[parent[c]])}

    # per position with children, in preorder after B1 (variable 0): a
    # factored fan's factor variables, p:<j>|f:<i> for its i-th option set,
    # then, unless it is spliced, one variable per merge class,
    # p:<j>|b:<k> for its k-th class in first-appearance order.  factor[j]
    # holds the fan's symbols over its parent's classes, and class k at j
    # is variable base[j] + k; an unwritten root's classes are B1's rules
    # instead: base[0] is 0.  A variable at position j ends at word offset
    # lead[last[j]]: the positions that write up to the last one in j's
    # subtree, a preorder run (`_share` keys on it)
    lead = list(itertools.accumulate(p in written for p in range(n)))
    last = list(range(n))
    for p in reversed(range(n)):
        if kids[p]:
            last[p] = last[kids[p][-1]]
    base, names, end, factor = {}, ["B1"], [lead[-1]], [None] * n
    for j, ks in enumerate(kids):
        if not ks:
            continue
        if ids[j] is not None:
            factor[j] = list(map((~len(names)).__sub__, ids[j]))
            names.extend([f"p:{j}|f:{i}" for i in range(len(heads[j]))])
            end.extend(itertools.repeat(lead[last[j]], len(heads[j])))
        if j not in spliced:
            base[j] = len(names) if j or 0 in written else 0
            if base[j]:
                head = f"p:{j}|b:"
                names.extend([f"{head}{k}" for k in range(len(first[j]))])
                end.extend(itertools.repeat(lead[last[j]], len(first[j])))

    def gathered(p: int) -> list:
        # p's columns, each spliced child's own in place of its variable's, a
        # fan's as a list of options per class unless factored; below p, ks
        # maps p's classes to those of the spliced position being read
        columns, stack = [], [(iter(kids[p]), None)]
        while stack:
            below, ks = stack[-1]
            for c in below:
                column = col[c] if factor[c] is None else factor[c]
                if ks is not None:
                    column = list(map(column.__getitem__, ks))
                if not kids[c] or factor[c] is not None:
                    columns.append(column)
                    continue
                if options[c]:  # a product fan: only at p, as a spliced position has none
                    columns.append(fanned(c, column))
                    continue
                of = cls[c]
                if c in spliced:
                    stack.append((iter(kids[c]), list(map(of.__getitem__, column))))
                    break
                if c in written:  # each partner's image, then its variable
                    columns.append(list(map(_image(dom[c], written[c]), map(ann[c].__getitem__, column))))
                # class k at c is variable base[c] + k, written code - k
                columns.append(list(map((~base[c]).__sub__, map(of.__getitem__, column))))
            else:
                stack.pop()
        return columns

    def fanned(c: int, column: list) -> list:
        # the options at the fan c of each of its parent's classes in column
        of = cls[c]
        if c in spliced:  # the partner classes' rows
            rows = list(zip(*gathered(c)))
            return [[rows[of[j]] for j in js] for js in column]
        code = ~base[c]
        if c in written:
            wrote, row = _image(dom[c], written[c]), ann[c]
            return [[(wrote(row[j]), code - of[j]) for j in js] for js in column]
        return [[(code - of[j],) for j in js] for js in column]

    # the rules as they are written, each variable's together, variable k
    # as ~k.  A written root gives B1 one rule per kept annotation: the
    # image it writes, then the annotation's variable, if it has one
    lhs: list = []
    rhs: list = []
    if 0 in written:
        kept = [j for j, k in enumerate(cls[0]) if k is not None]
        columns = [list(map(_image(dom[0], written[0]), map(ann[0].__getitem__, kept)))]
        if 0 in base:
            columns.append([~(base[0] + cls[0][j]) for j in kept])
        lhs = [0] * len(kept)
        rhs = list(zip(*columns))
    chain, repeat = itertools.chain.from_iterable, itertools.repeat
    for p, ks in enumerate(kids):
        if not ks:
            continue
        if factor[p] is not None:
            groups = fanned(p, list(map(col[p].__getitem__, heads[p])))
            at = ~factor[p][0]  # class 0's set is the first
            lhs.extend(chain(map(repeat, range(at, at + len(groups)), map(len, groups))))
            rhs.extend(chain(groups))
        at = base.get(p)
        if at is None:
            continue
        owners = range(at, at + len(first[p])) if at else repeat(0, len(first[p]))
        columns = gathered(p)
        if rules[p] == len(first[p]):  # one rule per class
            lhs.extend(owners)
            rhs.extend(zip(*columns))
            continue
        # each class's options at each child, a plain column's its one symbol
        groups = [[tuple(chain(combo)) for combo in itertools.product(*os)] for os in zip(*[
            column if column[0].__class__ is list else zip(zip(column)) for column in columns])]
        lhs.extend(chain(map(repeat, owners, map(len, groups))))
        rhs.extend(chain(groups))
    del gathered, fanned  # they call each other, a cycle that would hold the join until a collection
    return tuple(names), lhs, rhs, end


def _spelled(names, lhs: list, rhs: list) -> tuple[tuple, list, list]:
    """The int rules (names, lhs, rhs) of an acyclic grammar with each
    variable that has one rule, and one occurrence in all the right-hand
    sides, written in place of that occurrence and dropped (the start,
    which no rule names, stays).  The others are numbered in the order
    their rules first appear, and one with no name (None) is named s:<k>
    in that order: so when each variable's rules come before those of the
    variables it names, the start's first, the start is 0 and the reverse
    of the numbers is a dependencies-first order.  The kept rules keep
    their order, and each is spelled and numbered once: one that names no
    dropped variable symbol by symbol, any other on a stack of the rules
    it is inside, so a chain of any depth costs time linear in what is
    written and no recursion."""
    count, uses = [0] * len(names), [0] * len(names)  # per variable: its rules, its occurrences
    for v in lhs:
        count[v] += 1
    for x in itertools.chain.from_iterable(rhs):
        if x < 0:
            uses[~x] += 1
    body = {~v: symbols for v, symbols in zip(lhs, rhs) if count[v] == 1 and uses[v] == 1}
    del count, uses  # freed before the spelling
    kept = [v for v in dict.fromkeys(lhs) if ~v not in body]
    code = {~v: ~k for k, v in enumerate(kept)}  # a kept variable's symbol, renumbered
    get, plain = code.get, body.keys().isdisjoint
    out_rhs = []
    for v, symbols in zip(lhs, rhs):
        if ~v in body:
            continue
        if plain(symbols):
            out_rhs.append(tuple(map(get, symbols, symbols)))
            continue
        out, stack = [], [iter(symbols)]
        while stack:
            for x in stack[-1]:
                if x in body:
                    stack.append(iter(body[x]))
                    break
                out.append(get(x, x))
            else:
                stack.pop()
        out_rhs.append(tuple(out))
    fresh = itertools.count()
    names = tuple([f"s:{next(fresh)}" if names[v] is None else names[v] for v in kept])
    return names, [~code[~v] for v in lhs if ~v not in body], out_rhs


def _share(names: tuple, lhs: list, rhs: list, end: list) -> tuple[list, list, list]:
    """The int rules (names, lhs, rhs) of a positional grammar, each
    variable's word end end[v] beside them, with each variable's rules
    factored by their shared prefixes and equal tails at one offset made
    one variable.  The input lists each variable's rules together, in
    variable order, every variable having some, the start 0 and each
    variable after the rules that name it, and no two variables at one
    position have equal rules: the join's classes derive different words,
    and a fan's factor variables have different option sets.
    This is the minimal acyclic automaton construction of Revuz (TCS
    1992) and of Daciuk, Mihov, Watson & Watson ("Incremental
    construction of minimal acyclic finite-state automata", 2000), run
    over sorted rule lists.

    Children first, each variable's rules are sorted.  Rules that share a
    first symbol keep their longest common prefix, short of the last
    symbol of the first of them, and continue in a new variable that
    holds the different suffixes, factored alike: it ends where its parent
    ends.  Every variable with two rules or more, old or new, is looked up
    in one register keyed by (end, rules); equal rules derive words of
    one length, so equal tails at one offset become one variable, and
    none is merged with one at another offset.  A new variable has two
    rules or more, so a variable with one rule is not looked up.  The
    grammar stays positional, and each variable keeps its parse trees one
    to one.  An old variable keeps its number and name, so no rule is
    renamed: a new variable equal to it is it, and it is never merged
    into another, as no two old variables at one position have equal
    rules; new variables are numbered from len(names) and have no name
    (None) yet.  The rules are listed in the reverse of the order
    their variables were registered, the start's first, so each
    variable's rules come before those of the variables it names, as
    `_spelled` expects."""
    first = operator.itemgetter(0)
    names = list(names)
    register: dict = {}  # (end, rules) -> the variable registered under it
    out_lhs, out_rhs = [], []  # each registered variable's rules, listed backwards

    def entry(stop: int, rules: tuple) -> int:  # a new variable, or the equal one registered
        k = register.setdefault((stop, rules), len(names))
        if k == len(names):
            names.append(None)
            out_lhs.extend(itertools.repeat(k, len(rules)))
            out_rhs.extend(reversed(rules))
        return k

    def factored(rules: list, stop: int) -> list:
        # one frame per variable being factored: its groups of rules by
        # first symbol still to read, its rules so far, the prefix before
        # it and the rules that prefix ends
        top: list = []
        stack = [(itertools.groupby(rules, first), top, (), None)]
        while stack:
            groups, out, head, into = stack[-1]
            for _, group in groups:
                group = list(group)
                a = group[0]
                if len(group) == 1 or len(a) == 1:
                    out.extend(group)
                    continue
                b, k = group[-1], 1  # the sorted group's first and last share what all share
                while k < len(a) - 1 and a[k] == b[k]:
                    k += 1
                tails = [r[k:] for r in group]
                if len(set(map(first, tails))) == len(tails):  # a variable with nothing to factor
                    out.append((*a[:k], ~entry(stop, tuple(tails))))
                    continue
                stack.append((itertools.groupby(tails, first), [], a[:k], out))
                break
            else:
                stack.pop()
                if into is not None:
                    into.append((*head, ~entry(stop, tuple(out))))
        return top

    ends = [*map(functools.partial(bisect.bisect_left, lhs), range(len(names))), len(lhs)]
    for v in range(len(names) - 1, -1, -1):  # children first
        lo, hi = ends[v], ends[v + 1]
        if hi - lo == 1:  # a new variable has two rules or more, so one with one is not looked up
            out_lhs.append(v)
            out_rhs.append(rhs[lo])
            continue
        rules = sorted(rhs[lo:hi])
        if len(set(map(first, rules))) < len(rules):  # some rules share a first symbol
            rules = factored(rules, end[v])
        register.setdefault((end[v], tuple(rules)), v)
        out_lhs.extend(itertools.repeat(v, len(rules)))
        out_rhs.extend(reversed(rules))
    out_lhs.reverse()
    out_rhs.reverse()
    return names, out_lhs, out_rhs


def _determinise(names: tuple, lhs: list, rhs: list) -> tuple[tuple, list, list]:
    """The int rules (names, lhs, rhs) of `_build`'s regular grammar, every
    rule B -> a or B -> a B', made the deterministic automaton of its
    words by the subset construction (Rabin & Scott, IBM J. Res. Dev.
    1959), run forward from B1 one layer at a time.  The input lists each
    variable's rules together, in variable order, B1 (0) first, and every
    variable writes one word position, its layer.

    A state is the sorted tuple of the input variables it stands for,
    registered once, so only the subsets that some prefix reaches are
    built.  A state has one rule per terminal a, in order of a's first
    appearance among its variables' rules: a alone at the last layer, and
    otherwise a T, T the state of the variables those rules name.  A state
    of one variable keeps that variable's name, any other is s:<k>,
    numbered by first appearance.  The states are numbered layer by layer,
    B1 first, and within a layer those of one variable come first, in
    variable order, then the others; so the reverse of the numbers is a
    dependencies-first order, and a grammar in which no variable has two
    rules that begin alike comes out as it went in."""
    starts = [0] * (len(names) + 1)  # variable v's rules are rhs[starts[v]:starts[v + 1]]
    for v in lhs:
        starts[v + 1] += 1
    starts = list(itertools.accumulate(starts))
    out_names, out_lhs, out_rhs = [names[0]], [], []
    fresh = itertools.count()
    layer, at = [(0,)], 0  # the layer's states, numbered from at
    while layer:
        rows = []  # per state of the layer: its rules, each a terminal and its state's symbol
        reached: dict = {}  # the next layer's states, in first-appearance order
        for state in layer:
            if len(rhs[starts[state[0]]]) == 1:  # the last layer: terminals alone
                rows.append(list(dict.fromkeys([r for v in state for r in rhs[starts[v]:starts[v + 1]]])))
                continue
            by: dict = {}  # terminal -> the variables its rules name, as ~v
            for v in state:
                for a, x in rhs[starts[v]:starts[v + 1]]:
                    to = by.get(a)
                    if to is None:
                        by[a] = [x]
                    else:
                        to.append(x)
            row = [(a, (~xs[0],) if len(xs) == 1 else tuple(sorted(map(operator.invert, set(xs)))))
                   for a, xs in by.items()]
            reached.update(dict.fromkeys([s for _, s in row]))
            rows.append(row)
        nxt = len(out_names)
        layer = sorted([s for s in reached if len(s) == 1])
        layer += [s for s in reached if len(s) > 1]
        out_names.extend([names[s[0]] if len(s) == 1 else f"s:{next(fresh)}" for s in layer])
        code = dict(zip(layer, range(~nxt, ~(nxt + len(layer)), -1)))  # a state's symbol ~k
        for k, row in enumerate(rows, at):
            out_lhs.extend(itertools.repeat(k, len(row)))
            out_rhs.extend(row if not reached else [(a, code[s]) for a, s in row])  # the last layer's are rules
        at = nxt
    return tuple(out_names), out_lhs, out_rhs


def build_aut_grammar(g: Graph, t: TreeDecomposition) -> tuple[Permutation, Grammar]:
    """Compile Aut(g) into a grammar over alphabet V(g).

    Returns (alpha, grammar) where the language equals the set of one-line
    automorphism strings repositioned by alpha (word position i holds the
    image of vertex alpha(i)), alpha being the leaf vertices in position
    order (`decomp.yield_order_of`).  Each leaf writes that image as a
    terminal into its parent's rules and has no variable of its own, and
    so does each position whose classes have one rule each that one rule
    names (`_build`); a class with several partners at some child names
    a factor variable of its options there where its product would be
    larger.  Then `_share` factors each variable's rules by their
    shared prefixes and makes equal tails at one offset one variable, and
    `_spelled` writes each variable left with one rule that one rule names
    into that rule and numbers the others.  The shared grammar is kept
    only when its `grammar_size` is smaller.  Raises
    DecompositionError unless t is a valid permutation-yielding
    decomposition of g, and DisconnectedGraphError unless g is connected."""
    require_connected(g)
    require_valid(g, t)
    alpha = yield_order_of(t)
    if alpha.size != g.vertex_count:
        raise DecompositionError("decomposition is not permutation yielding")
    written = dict(zip([p for p, ks in enumerate(t.kids) if not ks], alpha.image))
    names, lhs, rhs, end = _build(g, t, written)
    gr = _grammar(g.vertex_count, *_spelled(*_share(names, lhs, rhs, end)))
    # the unshared grammar's `grammar_size`, counted on its int rules
    if grammar_size(gr).value >= (len(lhs) + sum(map(len, rhs))) * math.log2(g.vertex_count + len(names)):
        gr = _grammar(g.vertex_count, names, lhs, rhs)
    _compiled(gr, range(len(gr.variables) - 1, -1, -1))
    return alpha, gr


def build_regular_aut_grammar(g: Graph, pd: TreeDecomposition) -> tuple[Permutation, Grammar]:
    """Compile Aut(g) into a regular grammar, every rule (B, a) or
    (B, a B'), from a path decomposition that introduces one vertex per
    bag (`decomp.introduced_order`).  Returns (alpha, grammar) as
    `build_aut_grammar` does, alpha being the introduced vertices in order:
    each bag writes the image of the vertex it introduces into its
    parent's rules, before the variable of its annotation's class.  Then
    `_determinise` makes those rules the deterministic automaton of the
    words: no variable has two rules that begin with one terminal, and a
    variable stands for the set of classes that some prefix reaches."""
    require_connected(g)
    require_valid(g, pd)
    introduced = introduced_order(g, pd)
    names, lhs, rhs, _ = _build(g, pd, dict(enumerate(introduced)))
    names, lhs, rhs = _determinise(names, lhs, rhs)
    gr = _grammar(g.vertex_count, names, lhs, rhs, order=range(len(names) - 1, -1, -1))
    return Permutation(tuple(introduced)), gr


def _word_through(gr: Grammar, rule: int) -> Word:
    """A word of some parse tree that uses the given rule, which must lie on
    one (as every rule of a trim grammar does).  One semiring pass values
    each variable by a word it derives and one it derives through the rule,
    or None when it derives none."""

    def times(x: tuple, y: tuple) -> tuple:
        (a, via_a), (b, via_b) = x, y
        return a + b, (via_a + b if via_a is not None else None if via_b is None else a + via_b)

    def plus(values) -> tuple:
        word = via = None
        for w, v in values:
            word = w if word is None else word
            via = v if via is None else via
        return word, via

    values = _evaluate(gr, lambda r: ((), () if r == rule else None), lambda a: ((a,), None), times, plus)
    return Word(values[_compiled(gr).start][1])


def build_embedded_group_grammar(
    g: Graph, n: int, b: Permutation | None = None
) -> tuple[Permutation, Grammar]:
    """Compile the group that Aut(g) induces on the vertices 1..n, renamed
    by the coset representative b (the identity by default): the non-prefix
    vertices are erased out of the host's automorphism grammar, which is
    then renamed by b.

    Returns (alpha, grammar) as `build_aut_grammar` does, over alphabet
    1..n: the language is the set of one-line strings of the restricted
    automorphisms, composed with b and repositioned by alpha.  The parse
    trees stay those of the host's grammar, one per automorphism of g, so
    `count_parse_trees` gives |Aut(g)|, not the restricted group's order.
    Raises GrammarError unless
    g is connected, 1 <= n <= |V(g)|, b permutes 1..n, and 1..n is
    invariant under Aut(g); the last error names a witness, an
    automorphism that sends some vertex of 1..n outside it."""
    require_connected(g)
    m = g.vertex_count
    if not 1 <= n <= m:
        raise GrammarError(f"prefix size {n} out of range 1..{m}")
    if b is None:
        b = identity(n)
    if b.size != n:
        raise GrammarError(f"coset representative must permute 1..{n}")
    t, _ = make_permutation_yielding(g, compute_tree_decomposition(g))
    alpha_big, gr_full = build_aut_grammar(g, t)
    # word position i holds s(alpha(i)), so 1..n is invariant unless a rule
    # writes a terminal above n at a position i with alpha(i) <= n; the
    # grammar is trim, so a parse tree through that rule is an automorphism
    writes = _writes(gr_full)
    moved = (r for i in range(1, m + 1) if alpha_big(i) <= n for a, r in writes[i] if a > n)
    bad = next(moved, None)
    if bad is not None:
        witness = permutation_from_aligned_word(_word_through(gr_full, bad), alpha_big)
        raise GrammarError(
            f"prefix 1..{n} not invariant under the automorphism group "
            f"(witness {format_permutation(witness)})"
        )
    kept = [i for i in range(1, m + 1) if alpha_big(i) <= n]
    alpha = Permutation(tuple(alpha_big(i) for i in kept))
    erased = erase_terminals(gr_full, n)
    return alpha, rename_terminals(erased, b)
