"""Benchmark graphs with answers that do not come from the code under test.

Each generator returns a `Family`: the edge list on vertices 1..m, the
closed-form order of its automorphism group, and a sampler that draws a
uniformly random automorphism from the known structure of the family.
`relabel` applies a seeded vertex relabelling to all three, so the
benchmark can vary labels (and with them the min-fill tie-breaks) while the
answers stay known.  Only the standard library is used here.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Callable

Perm = tuple[int, ...]  # one-line image form: p[v - 1] is the image of v


@dataclass(frozen=True)
class Family:
    name: str
    m: int
    edges: tuple[tuple[int, int], ...]
    aut_order: int
    sample_aut: Callable[[random.Random], Perm]

    def text(self) -> str:
        """Edge-list text in the library's input format."""
        lines = [f"{self.m} {len(self.edges)}"]
        lines.extend(f"{u} {v}" for u, v in sorted(self.edges))
        return "\n".join(lines) + "\n"


def _norm(edges) -> tuple[tuple[int, int], ...]:
    return tuple(sorted((u, v) if u < v else (v, u) for u, v in edges))


def _from_maps(m: int, f) -> Perm:
    return tuple(f(v) for v in range(1, m + 1))


def cycle(n: int) -> Family:
    def sample(rng):
        k, flip = rng.randrange(n), rng.random() < 0.5
        return _from_maps(n, lambda v: ((-(v - 1) if flip else v - 1) + k) % n + 1)

    return Family(f"C{n}", n, _norm((i, i % n + 1) for i in range(1, n + 1)), 2 * n, sample)


def path(n: int) -> Family:
    def sample(rng):
        flip = rng.random() < 0.5
        return _from_maps(n, lambda v: n + 1 - v if flip else v)

    return Family(f"P{n}", n, _norm((i, i + 1) for i in range(1, n)), 2, sample)


def complete(n: int) -> Family:
    def sample(rng):
        img = list(range(1, n + 1))
        rng.shuffle(img)
        return tuple(img)

    edges = _norm(itertools.combinations(range(1, n + 1), 2))
    return Family(f"K{n}", n, edges, math.factorial(n), sample)


def star(leaves: int) -> Family:
    """Leaves 1..leaves, centre leaves+1; 'star5' is star(4)."""
    c = leaves + 1

    def sample(rng):
        img = list(range(1, c))
        rng.shuffle(img)
        return tuple(img) + (c,)

    return Family(f"star{c}", c, _norm((i, c) for i in range(1, c)), math.factorial(leaves), sample)


def grid(r: int, c: int) -> Family:
    def vid(i, j):
        return i * c + j + 1

    edges = [(vid(i, j), vid(i, j + 1)) for i in range(r) for j in range(c - 1)]
    edges += [(vid(i, j), vid(i + 1, j)) for i in range(r - 1) for j in range(c)]
    maps = [
        lambda i, j: (i, j),
        lambda i, j: (r - 1 - i, j),
        lambda i, j: (i, c - 1 - j),
        lambda i, j: (r - 1 - i, c - 1 - j),
    ]
    if r == c:
        maps += [lambda i, j, f=f: f(j, i) for f in list(maps)]

    def sample(rng):
        f = rng.choice(maps)
        return _from_maps(r * c, lambda v: vid(*f(*divmod(v - 1, c))))

    return Family(f"grid{r}x{c}", r * c, _norm(edges), len(maps), sample)


def binary_tree(depth: int) -> Family:
    """Complete binary tree with 2^depth - 1 internal nodes, heap-numbered."""
    m = 2 ** (depth + 1) - 1
    internal = 2 ** depth - 1

    def sample(rng):
        img = [0] * (m + 1)
        img[1] = 1
        for v in range(1, internal + 1):  # parents before children
            kids = [2 * img[v], 2 * img[v] + 1]
            if rng.random() < 0.5:
                kids.reverse()
            img[2 * v], img[2 * v + 1] = kids
        return tuple(img[1:])

    edges = _norm((v // 2, v) for v in range(2, m + 1))
    return Family(f"btree{depth}", m, edges, 2 ** internal, sample)


def spider(legs: int, length: int) -> Family:
    """Centre 1; leg k holds 2 + k*length .. 1 + (k+1)*length, outward."""
    m = 1 + legs * length

    def sample(rng):
        order = list(range(legs))
        rng.shuffle(order)
        return (1,) + tuple(
            2 + order[k] * length + s for k in range(legs) for s in range(length)
        )

    edges = []
    for k in range(legs):
        first = 2 + k * length
        edges.append((1, first))
        edges.extend((first + s, first + s + 1) for s in range(length - 1))
    return Family(f"spider{legs}x{length}", m, _norm(edges), math.factorial(legs), sample)


def cube() -> Family:
    def sample(rng):
        axes = list(range(3))
        rng.shuffle(axes)
        mask = rng.randrange(8)

        def f(v):
            bits = v - 1
            out = sum(((bits >> a) & 1) << k for k, a in enumerate(axes))
            return (out ^ mask) + 1

        return _from_maps(8, f)

    edges = [(a + 1, b + 1) for a in range(8) for b in range(a + 1, 8) if bin(a ^ b).count("1") == 1]
    return Family("Q3", 8, _norm(edges), 48, sample)


def petersen() -> Family:
    """Vertices are the 2-subsets of {0..4}; adjacent when disjoint."""
    pairs = list(itertools.combinations(range(5), 2))
    index = {p: i + 1 for i, p in enumerate(pairs)}

    def sample(rng):
        s = list(range(5))
        rng.shuffle(s)
        return tuple(index[tuple(sorted((s[a], s[b])))] for a, b in pairs)

    edges = [(index[p], index[q]) for p, q in itertools.combinations(pairs, 2) if not set(p) & set(q)]
    return Family("Petersen", 10, _norm(edges), 120, sample)


def relabel(fam: Family, rng: random.Random, fixed_prefix: int = 0) -> Family:
    """Rename vertices by a random bijection r.  Vertices 1..fixed_prefix
    are only permuted among themselves, so an invariant prefix stays one."""
    rest = list(range(fixed_prefix + 1, fam.m + 1))
    head = list(range(1, fixed_prefix + 1))
    rng.shuffle(head)
    rng.shuffle(rest)
    r = (0, *head, *rest)  # r[v] = new label of old vertex v
    back = [0] * (fam.m + 1)
    for old in range(1, fam.m + 1):
        back[r[old]] = old

    def sample(rng2):
        s = fam.sample_aut(rng2)  # conjugate: new = r . s . r^-1
        return tuple(r[s[back[v] - 1]] for v in range(1, fam.m + 1))

    edges = _norm((r[u], r[v]) for u, v in fam.edges)
    return Family(fam.name, fam.m, edges, fam.aut_order, sample)


def is_automorphism(m: int, edges, p: Perm) -> bool:
    """Independent membership test: p is a bijection of 1..m that maps the
    edge set onto itself."""
    if sorted(p) != list(range(1, m + 1)):
        return False
    es = set(edges)
    return all(((a, b) if a < b else (b, a)) in es for a, b in ((p[u - 1], p[v - 1]) for u, v in edges))


# (generator, relabel by the seed?).  C20 keeps its natural labels: under a
# random relabelling min-fill breaks its ties differently, and the number of
# parent x child consistency tests swings from 2.4 M to 237 M over 12 seeds
# (natural labels: 10.7 M), which no run length can average out.
COMPILE_CORPUS = (
    (lambda: cycle(20), False),
    (lambda: path(80), True),
    (lambda: complete(6), True),
    (lambda: binary_tree(5), True),
    (lambda: spider(5, 4), True),
    (lambda: grid(4, 4), True),
    (cube, True),
    (petersen, True),
)

COMPILE_SMALL = (
    (lambda: cycle(6), False),
    (lambda: path(8), True),
    (lambda: complete(4), True),
    (lambda: binary_tree(2), True),
    (lambda: spider(3, 2), True),
    (lambda: grid(2, 3), True),
    (cube, True),
    (petersen, True),
)

# (generator, relabel?, point classes).  Every class is one instance: a
# graph relabelled on its own, its grammar, and one point decided on both
# paths.  The simplex's cost depends on the labels and the point (relabelled
# grid3x3's four points took 3.1 s over both paths for one seed and 7.6 s for
# another), so a labelling of its own per point makes the draws of one run
# independent and their sum steadier.  The random classes appear two or
# three times each, two per graph (K4 has no non-member permutation).
# btree3 and Q3 keep their natural labels and decide fixed points: btree3
# the identity's word and the first transposition outside the group (its
# random points took 1.2 s to 3.6 s each, the largest share of the spread
# between seeds), Q3 the identity's word (about 40% of the pass).
LP_CORPUS = (
    (lambda: cycle(5), True, ("member", "nonmember")),
    (lambda: cycle(6), True, ("midpoint", "badsum")),
    (lambda: complete(4), True, ("midpoint", "badsum")),
    (lambda: star(4), True, ("member", "nonmember")),
    (lambda: grid(3, 3), True, ("midpoint", "badsum")),
    (lambda: binary_tree(3), False, ("identity", "swap")),
    (cube, False, ("identity",)),
)

LP_SMALL = (
    (lambda: cycle(5), True, ("member", "nonmember")),
    (lambda: complete(4), True, ("midpoint", "badsum")),
)
