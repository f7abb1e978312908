"""Context-free grammars for finite permutation languages.

Terminals are integers 1..sigma_max, variables are interned strings, and a
rule is (lhs, rhs) with the rhs mixing both.  Every grammar this package
constructs is non-recursive (the variable dependency relation is acyclic),
so the language analytics (enumeration, parse-tree counting, membership)
are finite dynamic programs and refuse cyclic inputs.

The central constructor compiles the automorphism group of a connected
graph out of a permutation-yielding tree decomposition: variables are
inner positions other than the root paired with classes of annotated
bags that derive the same words, and rules connect annotations that
agree on their shared domain.  Each leaf's terminal, the image of its
vertex, stands in its parent's rules where a leaf variable with one rule
would, and the root's classes' rules are the start's own, where the
start's unit rule to each would be.  Parse trees then correspond
one-to-one with consistent whole-tree annotations, hence with
automorphisms.  A word w produced for automorphism s satisfies
w_i = s(alpha(i)) where alpha spells the leaf vertex order, so the
language is exactly the string set of the group repositioned by alpha.
The regular grammar is the same construction on a path decomposition
that introduces one vertex per bag, each bag writing the image of the
vertex it introduces: one builder (`_build`) serves both, and since its
root writes a terminal, the start keeps its rules B1 -> a X there.  The
consistency join (annotate.join_annotations) prunes the annotations and
merges them into classes in one pass on int key ids; the builder names
each class p:<j>|b:<k> by its position's index j in preorder and writes
the rules of a position's classes column by column, one column per
child, from each class's first annotation.

Layering: the read side (JSON, the compiled table, the semiring pass
`_evaluate` and what is built on it: counting, enumeration, membership,
size, regularity and the transforms) imports no builder layer.  The
builders import `annotate`, `decomp` and `graph` inside their own bodies,
so a process that only reads a grammar file never loads them.  The embed
builder decides whether the prefix is invariant from the host's grammar
itself, so no builder loads `oracle` or `polytope`.

The read side runs on one table per grammar (`_compiled`), built on first
use and cached on the grammar: the variables as ints in dependencies-first
order, and each variable's rules with their rhs variables as int indexes.
The builder writes its rules from that table's ints and hands the table
over with the grammar, so reading a built grammar hashes no name.
Parse-tree counting, the word lengths and the positions each rule writes
(`_length_bounds`, `_writes`: read by the extended formulation, the embed
check, `trim` and `erase_terminals`) and the polytope's max-plus pricing
loop over it directly; the semiring pass walks its order and rule lists
for the semirings of sets, spans and trees, valuing variables by index.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import operator
import warnings
from collections.abc import Iterator
from json.encoder import encode_basestring_ascii
from typing import TYPE_CHECKING, NamedTuple

from . import PreconditionError, _quote
from .perm import Permutation, Word, format_permutation, identity, inverse

if TYPE_CHECKING:
    from .decomp import TreeDecomposition
    from .graph import Graph


class GrammarError(PreconditionError):
    pass


class CyclicGrammarError(GrammarError):
    pass


class Grammar:
    """Immutable; equal, and hashed alike, when every field is equal."""

    # _table caches `_compiled(self)`, set on first use or by the
    # builder; it is derived from the other fields, so no comparison,
    # hash, repr or pickle reads it
    __slots__ = ("sigma_max", "start", "variables", "rules", "accepts_empty", "_table")

    def __init__(
        self,
        sigma_max: int,
        start: str,
        variables: tuple[str, ...],
        rules: tuple,
        accepts_empty: bool = False,
    ):
        # only what the JSON format holds: true or false for the flag, a
        # string per variable, and a plain int (not a bool, which is an int
        # subclass) for every number
        if type(accepts_empty) is not bool:
            raise GrammarError(f"accepts_empty must be true or false, got {type(accepts_empty).__name__}")
        if type(sigma_max) is not int:
            raise GrammarError(f"sigma_max {_quote(sigma_max)} is not an integer")
        if sigma_max < 0:
            raise GrammarError(f"sigma_max {_quote(sigma_max)} is negative")
        declared: set[str] = set()
        for v in variables:
            if not isinstance(v, str):
                raise GrammarError(f"variable {_quote(v)} is not a string")
            if v in declared:
                raise GrammarError(f"variable {_quote(v)} declared twice")
            declared.add(v)
        if not isinstance(start, str):
            raise GrammarError(f"start variable {_quote(start)} is not a string")
        if start not in declared:
            raise GrammarError(f"start variable {_quote(start)} not declared")
        for lhs, rhs in rules:
            if lhs not in declared:
                raise GrammarError(f"rule lhs {_quote(lhs)} not declared")
            for x in rhs:
                if isinstance(x, str):
                    if x not in declared:
                        raise GrammarError(f"rhs variable {_quote(x)} not declared")
                elif type(x) is not int or not 1 <= x <= sigma_max:
                    raise GrammarError(
                        f"terminal {_quote(x)} is not an integer in 1..{_quote(sigma_max)}"
                    )
        object.__setattr__(self, "sigma_max", sigma_max)
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "rules", rules)
        object.__setattr__(self, "accepts_empty", accepts_empty)

    def _values(self) -> tuple:
        return (self.sigma_max, self.start, self.variables, self.rules, self.accepts_empty)

    def __setattr__(self, name, value):
        raise AttributeError("Grammar is immutable")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __reduce__(self):
        return Grammar, self._values()

    def __repr__(self):
        return (
            f"Grammar(sigma_max={self.sigma_max!r}, start={self.start!r}, "
            f"variables={self.variables!r}, rules={self.rules!r}, "
            f"accepts_empty={self.accepts_empty!r})"
        )


class _Table(NamedTuple):
    """A grammar's read side on ints.  Variable v is gr.variables[v].  The
    rules are listed grouped by lhs, in rule order within each group: the
    j-th listed rule is gr.rules[ids[j]], and variable v's rules are those
    listed from ends[v] to ends[v + 1].  order is a dependencies-first
    order: `_compiled` finds one by depth-first search, which names the
    variable of a cycle, and the builder of tree and regular grammars,
    which have none, hands over the reverse of its numbering."""

    start: int
    order: list  # the variables, dependencies first
    ends: list  # len(gr.variables) + 1 bounds into the listed rules
    ids: range | list  # each listed rule's index: range(len(gr.rules)) when already grouped
    kids: list  # per listed rule: the variables of its rhs, in order


def _compiled(gr: Grammar) -> _Table:
    """The grammar's `_Table`, built on first use (unless the builder
    handed it over) and kept in the grammar's `_table` slot, which no
    comparison, hash, repr or pickle reads.  Raises on recursion.

    The order is a depth-first search from each variable in declaration
    order, visiting a variable's dependencies in order of first appearance
    in its rules' right-hand sides (a repeat finds its variable ordered)."""
    try:
        return gr._table
    except AttributeError:
        pass
    names = gr.variables
    index = dict(zip(names, range(len(names))))  # one int object per variable
    lhs = [index[v] for v, _ in gr.rules]
    kids = [tuple([index[x] for x in rhs if x.__class__ is not int]) for _, rhs in gr.rules]
    count = [0] * len(names)
    for v in lhs:
        count[v] += 1
    ends = list(itertools.accumulate(count, initial=0))
    ids = range(len(lhs))  # the builders write each variable's rules together, in order
    if not all(map(operator.le, lhs, itertools.islice(lhs, 1, None))):
        ids = sorted(ids, key=lhs.__getitem__)
        kids = [kids[r] for r in ids]
    del lhs, count  # freed before the search

    order: list = []
    state = [0] * len(names)  # 1 while on the stack, 2 once ordered
    chain = itertools.chain.from_iterable
    for root in range(len(names)):
        if state[root]:
            continue
        state[root] = 1
        stack = [(root, chain(kids[ends[root]:ends[root + 1]]))]
        while stack:
            v, pending = stack[-1]
            for u in pending:
                seen = state[u]
                if seen == 1:
                    raise CyclicGrammarError(f"variable {names[u]!r} depends on itself")
                if not seen:
                    deps = kids[ends[u]:ends[u + 1]]
                    if any(deps):
                        state[u] = 1
                        stack.append((u, chain(deps)))
                        break
                    state[u] = 2  # no dependencies: ordered at once
                    order.append(u)
            else:
                stack.pop()
                state[v] = 2
                order.append(v)
    table = _Table(index[gr.start], order, ends, ids, kids)
    object.__setattr__(gr, "_table", table)
    return table


def _length_bounds(gr: Grammar, keep: int | None = None) -> tuple[list[int], list[int]]:
    """Each variable's shortest and longest word length, by index, both -1
    when it derives no word; given keep, the terminals above it count as
    erased.  A variable derives words of one length when low == high >= 0."""
    _, order, ends, ids, kids = _compiled(gr)
    rules = gr.rules
    low, high = [-1] * len(order), [-1] * len(order)
    for v in order:
        lo = hi = -1
        for j in range(ends[v], ends[v + 1]):
            ks, rhs = kids[j], rules[ids[j]][1]
            a = len(rhs) - len(ks) if keep is None else sum([x.__class__ is int and x <= keep for x in rhs])
            b = a
            for k in ks:
                if low[k] < 0:
                    break
                a += low[k]
                b += high[k]
            else:
                if lo < 0 or a < lo:
                    lo = a
                if b > hi:
                    hi = b
        low[v], high[v] = lo, hi
    return low, high


def _writes(gr: Grammar, length: list[int]) -> dict[int, list[tuple[int, int]]]:
    """Word position -> the (symbol, rule index) pairs of the terminals
    written there, for a grammar whose variables each derive words of one
    length, given by index (`_length_bounds`).  A breadth-first walk by index
    from the start places each variable at its one start offset; raises
    GrammarError when a variable is met at two offsets or is never reached."""
    start, order, ends, ids, kids = _compiled(gr)
    rules = gr.rules
    writes: dict[int, list[tuple[int, int]]] = {}
    offset = [0] * len(order)  # 0: not reached yet
    offset[start] = 1
    reached = [start]
    for v in reached:  # breadth first; grows as the walk reaches new variables
        for j in range(ends[v], ends[v + 1]):
            r = ids[j]
            at, ks = offset[v], iter(kids[j])
            for x in rules[r][1]:
                if x.__class__ is int:
                    writes.setdefault(at, []).append((x, r))
                    at += 1
                    continue
                k = next(ks)
                if not offset[k]:
                    offset[k] = at
                    reached.append(k)
                elif offset[k] != at:
                    raise GrammarError(
                        f"variable {_quote(x)} occurs at spans starting {offset[k]} "
                        f"and {at}; not positional"
                    )
                at += length[k]
    if len(reached) < len(order):
        v = gr.variables[offset.index(0)]
        raise GrammarError(f"variable {_quote(v)} unreachable; trim the grammar first")
    return writes


class GrammarSize(NamedTuple):
    value: float
    rule_symbols: int
    symbol_space: int


def grammar_size(gr: Grammar) -> GrammarSize:
    """Sum over rules of (1 + |rhs|) * log2(|alphabet| + |variables|)."""
    rule_symbols = sum(1 + len(rhs) for _, rhs in gr.rules)
    symbol_space = gr.sigma_max + len(gr.variables)
    value = rule_symbols * math.log2(symbol_space) if rule_symbols else 0.0
    return GrammarSize(value, rule_symbols, symbol_space)


def is_regular(gr: Grammar) -> bool:
    """Every rule is (B, a) or (B, a B') with a a terminal."""
    for _, rhs in gr.rules:
        if len(rhs) == 1 and isinstance(rhs[0], int):
            continue
        if (
            len(rhs) == 2
            and isinstance(rhs[0], int)
            and isinstance(rhs[1], str)
        ):
            continue
        return False
    return True


def _evaluate(gr: Grammar, weight, leaf, times, plus, roots=None) -> list:
    """Each variable's value, by index, from one bottom-up pass over the
    `_compiled` table's order, valued in a semiring (Goodman, "Semiring
    parsing", 1999).

    A rule's value folds its rhs with times, starting from weight(rule
    index): a terminal a contributes leaf(a), a variable the value already
    computed for it.  A variable's value is plus over the values of its
    rules, which plus receives as an iterable (empty for no rules).  Given
    root indexes, only the variables that the roots derive from are valued;
    the others stay None."""
    _, order, ends, ids, kids = _compiled(gr)
    rules = gr.rules
    todo = order
    if roots is not None:
        needed = [False] * len(order)
        for v in roots:
            needed[v] = True
        for v in reversed(order):  # users before the variables they use
            if needed[v]:
                for k in itertools.chain.from_iterable(kids[ends[v]:ends[v + 1]]):
                    needed[k] = True
        todo = [v for v in order if needed[v]]
    value: list = [None] * len(order)

    def rule_values(v: int):
        for j in range(ends[v], ends[v + 1]):
            acc, kid = weight(ids[j]), iter(kids[j]).__next__
            for x in rules[ids[j]][1]:
                acc = times(acc, leaf(x) if x.__class__ is int else value[kid()])
            yield acc

    for v in todo:
        value[v] = plus(rule_values(v))
    return value


def _union(sets) -> set:
    # consumes rule values one at a time, so a variable's rule values are
    # never all held at once (the enum command's peak memory)
    out: set = set()
    for s in sets:
        out |= s
    return out


def _pairwise_sums(xs: set, ys: set) -> set:
    # concatenation of word sets, Minkowski sum of length sets
    return {x + y for x in xs for y in ys}


def iter_language(gr: Grammar) -> Iterator[tuple[int, ...]]:
    """The distinct words as int tuples, in lexicographic order, produced
    lazily (Mäkinen, "On lexicographic enumeration of regular and
    context-free languages", Acta Cybernetica 1997).

    The start is streamed, and so is every variable met in a rule of a
    streamed variable with only terminals before it, if it occurs once in
    all right-hand sides or has more parse trees than the square root of
    the start's.  A shared variable is streamed anew at each occurrence,
    which multiplies the paths below it, so only one too large to hold
    cheaply is.  The streamed occurrences form a tree, and each rule of
    one whose first variable is not streamed ends a path from the start:
    the path's words are the terminals met on the way down followed by
    the product of the factors left after them.  Every other variable is
    held: its language is computed once by the set pass and sorted.  A
    path walks its product in order while every factor but the last has
    words of one length; from the first factor that does not, it
    concatenates the rest up front.  A heap merges the paths, so words of
    different lengths come out in order and repeats are dropped, and the
    grammar's depth costs no recursion.

    The held languages are computed before this returns; the words are
    spelled as the iterator is advanced."""
    import heapq  # here, not at the top: every command that reads a grammar would load it

    table = _compiled(gr)
    _, _, ends, ids, kids = table
    uses = [0] * len(gr.variables)
    for ks in kids:
        for k in ks:
            uses[k] += 1
    trees = _tree_counts(table)
    whole = trees[table.start]
    paths: list = []  # (terminal prefix, factors after it)
    todo = [(table.start, (), ())]  # streamed variable, prefix before it, factors after it
    while todo:
        v, before, after = todo.pop()
        for j in range(ends[v], ends[v + 1]):
            # the rhs with each variable k spelled ~k, which is negative
            kid = iter(kids[j]).__next__
            rhs = tuple([x if x.__class__ is int else ~kid() for x in gr.rules[ids[j]][1]])
            i = 0
            while i < len(rhs) and rhs[i] > 0:
                i += 1
            if i < len(rhs) and (uses[k := ~rhs[i]] == 1 or trees[k] ** 2 > whole):
                todo.append((k, before + rhs[:i], rhs[i + 1:] + after))
            else:
                paths.append((before + rhs[:i], rhs[i:] + after))
    del uses, trees  # the set pass is the peak: free what only the walk needed
    factors = {~x for _, fs in paths for x in fs if x < 0}
    held = _evaluate(gr, lambda r: {()}, lambda a: {(a,)}, _pairwise_sums, _union, factors)
    words = {~k: tuple(sorted(held[k])) for k in factors}
    del held  # the sets of every held variable, read by the paths or not
    low, high = _length_bounds(gr)
    mixed = {~k for k in factors if low[k] != high[k]}
    words.update({a: ((a,),) for _, fs in paths for a in fs if a > 0})
    streams = [[()]] if gr.accepts_empty else []
    for head, fs in paths:
        k = next((j for j, x in enumerate(fs[:-1]) if x in mixed), len(fs))
        lists = [words[x] for x in fs[:k]]
        if k < len(fs):
            lists.append(tuple(sorted(functools.reduce(_pairwise_sums, map(words.get, fs[k:])))))
        streams.append(map(functools.partial(sum, start=head), itertools.product(*lists)))
    return map(operator.itemgetter(0), itertools.groupby(heapq.merge(*streams)))


class LanguageResult(NamedTuple):
    words: tuple[Word, ...]
    truncated: bool


def enumerate_language(gr: Grammar, cap: int | None = None) -> LanguageResult:
    """All distinct words, lexicographically sorted, truncated at cap."""
    if cap is not None and cap < 0:
        raise GrammarError(f"cap must be non-negative, got {cap}")
    words = tuple(map(Word, itertools.islice(iter_language(gr), None if cap is None else cap + 1)))
    truncated = cap is not None and len(words) > cap
    return LanguageResult(words[:cap] if truncated else words, truncated)


def _tree_counts(table: _Table) -> list[int]:
    """Each variable's number of parse trees, by index."""
    _, order, ends, _, kids = table
    count = [0] * len(order)
    for v in order:
        total = 0
        for ks in kids[ends[v]:ends[v + 1]]:
            c = 1
            for k in ks:
                c *= count[k]
            total += c
        count[v] = total
    return count


def count_parse_trees(gr: Grammar) -> int:
    """Number of accepting parse trees (duplicate rules count separately)."""
    table = _compiled(gr)
    return _tree_counts(table)[table.start]


def membership(gr: Grammar, w: Word) -> bool:
    """Whether w is in the language: each variable is valued by the spans
    (i, j) of w it derives, and w is a member iff the start derives (0, |w|)."""
    symbols = w.symbols
    at: dict[int, set] = {}
    for i, a in enumerate(symbols):
        at.setdefault(a, set()).add((i, i + 1))
    empty_spans = {(i, i) for i in range(len(symbols) + 1)}

    def join(left: set, right: set) -> set:
        ends: dict[int, list[int]] = {}
        for j, k in right:
            ends.setdefault(j, []).append(k)
        return {(i, k) for i, j in left for k in ends.get(j, ())}

    spans = _evaluate(gr, lambda r: empty_spans, lambda a: at.get(a, set()), join, _union)
    return (0, len(symbols)) in spans[_compiled(gr).start] or (not symbols and gr.accepts_empty)


def trim(gr: Grammar) -> Grammar:
    """Drop variables deriving no terminal string or unreachable from the
    start; declaration and rule order are preserved."""
    start, order, ends, ids, kids = _compiled(gr)
    low = _length_bounds(gr)[0]  # -1: derives no word

    def usable(ks: tuple) -> bool:
        return all(low[k] >= 0 for k in ks)

    reach = [False] * len(order)
    reach[start] = True
    todo = [start]  # reached variables whose rules are not yet walked
    while todo:
        v = todo.pop()
        for ks in kids[ends[v]:ends[v + 1]]:
            if usable(ks):
                for k in ks:
                    if not reach[k]:
                        reach[k] = True
                        todo.append(k)
    keep = {v for v, lo, seen in zip(gr.variables, low, reach) if lo >= 0 and seen}
    keep.add(gr.start)
    good = [False] * len(gr.rules)
    for r, ks in zip(ids, kids):
        good[r] = usable(ks)
    variables = tuple(v for v in gr.variables if v in keep)
    rules = tuple(rule for rule, ok in zip(gr.rules, good) if ok and rule[0] in keep)
    return Grammar(gr.sigma_max, gr.start, variables, rules, gr.accepts_empty)


# ---------------------------------------------------------------------------
# Construction from a decomposition.  The tree grammar is built from a
# permutation-yielding tree decomposition, whose leaves write the terminals,
# and the regular grammar from a path decomposition that introduces one
# vertex per bag, every bag writing the image of the vertex it introduces:
# one construction, `_build`, on the positions each builder says write.

def _build(g: Graph, t: TreeDecomposition, written: dict) -> tuple[Permutation, Grammar]:
    """Compile Aut(g) out of t, a checked decomposition, into a grammar
    over alphabet V(g).  written maps each position (a preorder int) that
    writes a terminal, every childless position among them, to the vertex
    whose image it writes; alpha is the written vertices in position order.

    Each position with children has one variable per merge class of its
    annotations, but for a root that writes no terminal (every tree
    grammar's but a one-vertex graph's): its classes' rules, in class
    order, are B1's.  A written position writes its terminal into its
    parent's rules, just before its own variable when it has children, a
    written root into B1's.  A childless position writes only its
    terminal and has no variable, the root of a one-vertex graph too.  The
    grammar's table is handed over with it.

    Each child of a position gives a column over its classes, read off
    each class's first annotation i: a childless child the image of its
    vertex, any other the variable of i's partner there, as a name and an
    int (a written one, an only child as on a path, the partner's image
    first).  The rules are the name columns zipped, and their table
    entries the int columns, unless some class has several partners at a
    child: that child gives tuples, and each class's rules are then its
    product over the children."""
    from .annotate import join_annotations

    dom, ann, cls, first, up, members = join_annotations(g, t, written)
    # one variable per merge class at each position with children, in
    # position order after B1 (variable 0): p:<j>|b:<k>, variable base[j] + k,
    # stands for the k-th class at position j, in first-appearance order.
    # An unwritten root's classes are B1's rules instead: base[0] is 0
    base, names = {}, ["B1"]
    for j, ks in enumerate(t.kids):
        if ks:
            base[j] = len(names) if j or 0 in written else 0
            if base[j]:
                head = f"p:{j}|b:"
                names.extend([f"{head}{k}" for k in range(len(first[j]))])
    variables = tuple(names)

    def image(p, v):  # the image of vertex v, read off an annotation at p
        return operator.itemgetter(dom[p].index(v))

    # the read table as the rules are written, each variable's together:
    # their rhs variables as ints, and each variable's number of rules.
    # A written root gives B1 one rule per kept annotation: the image it
    # writes, then the annotation's variable, if it has one
    kids: list = []
    rules: list = []
    count: list = []
    if 0 in written:
        kept = [j for j, k in enumerate(cls[0]) if k is not None]
        symbols: list = [map(image(0, written[0]), map(ann[0].__getitem__, kept))]
        kids = [()] * len(kept)
        if 0 in base:
            kids = [(base[0] + cls[0][j],) for j in kept]
            symbols.append([variables[k] for (k,) in kids])
        rules = [("B1", rhs) for rhs in zip(*symbols)]
        count = [len(kids)]
    chain, product = itertools.chain.from_iterable, itertools.product

    def per_class(columns):  # each class's options at each child: its tuple of partners, or its one entry
        return zip(*[column if column[0].__class__ is tuple else zip(column) for column in columns])

    for p, at in base.items():
        heads = first[p]
        lhs = variables[at:at + len(heads)] if at else ("B1",) * len(heads)
        names, ints, rhs = [], [], None  # the columns over the classes, as names and as ints
        for c in t.kids[p]:
            var_at = base.get(c)
            if var_at is None:
                names.append(list(map(image(p, written[c]), map(ann[p].__getitem__, heads))))
                continue
            partners, of, fan = list(map(up[c].__getitem__, heads)), cls[c], False
            if members[c] is not None:  # from key ids to partner lists; else key id k is annotation k
                partners = list(map(members[c].__getitem__, partners))
                fan = max(map(len, partners)) > 1
                if not fan:
                    partners = list(chain(partners))
            if fan:
                ints.append([tuple([var_at + of[j] for j in js]) for js in partners])
                names.append([tuple(map(variables.__getitem__, vs)) for vs in ints[-1]])
            else:
                ints.append(list(map(var_at.__add__, map(of.__getitem__, partners))))
                names.append(list(map(variables.__getitem__, ints[-1])))
            v = written.get(c)
            if v is not None:  # each partner's image, then its variable
                assert t.kids[p] == (c,), "a written position with children has no siblings"
                wrote = map(image(c, v), map(ann[c].__getitem__, chain(partners) if fan else partners))
                if fan:
                    rhs = zip(wrote, chain(names[-1]))
                else:
                    names.insert(-1, list(wrote))
        if not any(column[0].__class__ is tuple for column in ints):  # one rule per class
            rules.extend(zip(lhs, zip(*names)))
            kids.extend(zip(*ints) if ints else itertools.repeat((), len(lhs)))
            count.extend(itertools.repeat(1, len(lhs)))
            continue
        products = list(map(list, itertools.starmap(product, per_class(ints))))
        sizes = list(map(len, products))
        kids.extend(chain(products))
        count.extend(sizes)
        if rhs is None:
            rhs = chain(itertools.starmap(product, per_class(names)))
        rules.extend(zip(chain(map(itertools.repeat, lhs, sizes)), rhs))
    if 0 not in written:  # B1's count: the sum of the root classes' counts
        count[:len(first[0])] = [sum(count[:len(first[0])])]
    gr = Grammar(g.vertex_count, "B1", variables, tuple(rules))
    # positions number parents first, so the variables backwards list each
    # class before the classes whose rules use it
    order = list(range(len(variables) - 1, -1, -1))
    ends = list(itertools.accumulate(count, initial=0))
    object.__setattr__(gr, "_table", _Table(0, order, ends, range(len(rules)), kids))
    return Permutation(tuple(written[p] for p in sorted(written))), gr


def build_aut_grammar(g: Graph, t: TreeDecomposition) -> tuple[Permutation, Grammar]:
    """Compile Aut(g) into a grammar over alphabet V(g).

    Returns (alpha, grammar) where the language equals the set of one-line
    automorphism strings repositioned by alpha (word position i holds the
    image of vertex alpha(i)), alpha being the leaf vertices in position
    order (`decomp.yield_order_of`).  Each leaf writes that image as a
    terminal into its parent's rules and has no variable of its own.
    Raises DecompositionError unless t is a valid permutation-yielding
    decomposition of g, and DisconnectedGraphError unless g is connected."""
    from .decomp import DecompositionError, require_valid, yield_order_of
    from .graph import require_connected

    require_connected(g)
    require_valid(g, t)
    alpha = yield_order_of(t)
    if alpha.size != g.vertex_count:
        raise DecompositionError("decomposition is not permutation yielding")
    return _build(g, t, dict(zip([p for p, ks in enumerate(t.kids) if not ks], alpha.image)))


def build_regular_aut_grammar(g: Graph, pd: TreeDecomposition) -> tuple[Permutation, Grammar]:
    """Compile Aut(g) into a regular grammar, every rule (B, a) or
    (B, a B'), from a path decomposition that introduces one vertex per
    bag (`decomp.introduced_order`).  Returns (alpha, grammar) as
    `build_aut_grammar` does, alpha being the introduced vertices in order:
    each bag writes the image of the vertex it introduces into its
    parent's rules, before the variable of its annotation's class."""
    from .decomp import introduced_order, require_valid
    from .graph import require_connected

    require_connected(g)
    require_valid(g, pd)
    return _build(g, pd, dict(enumerate(introduced_order(g, pd))))


# ---------------------------------------------------------------------------
# Language-preserving transforms.

def rename_terminals(gr: Grammar, b: Permutation) -> Grammar:
    """Apply b symbol-wise to the language; rule shapes and size unchanged."""
    occurring = {x for _, rhs in gr.rules for x in rhs if isinstance(x, int)}
    for t in sorted(occurring):
        if t > b.size:
            raise GrammarError(f"renaming undefined on terminal {t}")
        if b(t) > gr.sigma_max:
            raise GrammarError(
                f"renaming sends terminal {t} to {b(t)}, outside the declared alphabet"
            )
    rules = tuple(
        (lhs, tuple(b(x) if isinstance(x, int) else x for x in rhs))
        for lhs, rhs in gr.rules
    )
    return Grammar(gr.sigma_max, gr.start, gr.variables, rules, gr.accepts_empty)


def erase_terminals(gr: Grammar, keep: int) -> Grammar:
    """Homomorphic image erasing every terminal above `keep`.

    The result has no epsilon anywhere in its rules; if the empty word
    arises it is recorded on the accepts_empty flag instead.  The declared
    alphabet shrinks to 1..keep."""
    if keep < 0:
        raise GrammarError("keep must be non-negative")
    # after erasure a variable with no word is dead, one whose shortest word
    # is empty is nullable, and one whose longest is empty derives only it
    low, high = _length_bounds(gr, keep)
    start, _, _, ids, kids = _compiled(gr)
    rules: list = []
    for r, ks in sorted(zip(ids, kids)):
        if any(low[k] < 0 for k in ks):
            continue
        lhs, rhs = gr.rules[r]
        kid = iter(ks).__next__
        slots: list[tuple] = []
        for x in rhs:
            if x.__class__ is not int:
                k = kid()
                slots.append((x,) if low[k] else (None,) if not high[k] else (x, None))
            elif x <= keep:
                slots.append((x,))
        seen: set[tuple] = set()
        for combo in itertools.product(*slots):
            new_rhs = tuple(x for x in combo if x is not None)
            if new_rhs and new_rhs not in seen:
                seen.add(new_rhs)
                rules.append((lhs, new_rhs))
    accepts_empty = gr.accepts_empty or low[start] == 0
    return trim(Grammar(keep, gr.start, gr.variables, tuple(rules), accepts_empty))


def union_grammar(g1: Grammar, g2: Grammar) -> Grammar:
    """Fresh start with unit rules to both operands, renamed apart."""
    if g1.sigma_max != g2.sigma_max:
        raise GrammarError(
            f"alphabet mismatch: {g1.sigma_max} vs {g2.sigma_max}"
        )
    variables = ["B1"]
    variables.extend(f"a:{v}" for v in g1.variables)
    variables.extend(f"b:{v}" for v in g2.variables)

    def tag(prefix: str, rhs) -> tuple:
        return tuple(x if isinstance(x, int) else f"{prefix}:{x}" for x in rhs)

    rules: list = [("B1", (f"a:{g1.start}",)), ("B1", (f"b:{g2.start}",))]
    rules.extend((f"a:{lhs}", tag("a", rhs)) for lhs, rhs in g1.rules)
    rules.extend((f"b:{lhs}", tag("b", rhs)) for lhs, rhs in g2.rules)
    return Grammar(
        g1.sigma_max,
        "B1",
        tuple(variables),
        tuple(rules),
        g1.accepts_empty or g2.accepts_empty,
    )


def group_from_subgroup(grH: Grammar, transversal: list[Permutation]) -> Grammar:
    """Union of terminal renamings of grH, one per coset representative."""
    if not transversal:
        raise GrammarError("transversal must be nonempty")
    parts = [rename_terminals(grH, beta) for beta in transversal]
    langs = [frozenset(iter_language(p)) for p in parts]
    for i in range(len(parts)):
        for j in range(i + 1, len(parts)):
            if langs[i] == langs[j]:
                warnings.warn(
                    f"transversal entries {i} and {j} give the same coset language",
                    stacklevel=2,
                )
    combined = parts[0]
    for p in parts[1:]:
        combined = union_grammar(combined, p)
    return combined


# ---------------------------------------------------------------------------
# Embedded groups and cosets: erase the non-prefix vertices out of the
# automorphism grammar of the host graph, then rename by the coset
# representative.

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
    by the coset representative b (the identity by default).

    Returns (alpha, grammar) as `build_aut_grammar` does, over alphabet
    1..n: the language is the set of one-line strings of the restricted
    automorphisms, composed with b and repositioned by alpha.  The parse
    trees stay those of the host's grammar, one per automorphism of g, so
    `count_parse_trees` gives |Aut(g)|, not the restricted group's order.
    Raises GrammarError unless
    g is connected, 1 <= n <= |V(g)|, b permutes 1..n, and 1..n is
    invariant under Aut(g); the last error names a witness, an
    automorphism that sends some vertex of 1..n outside it."""
    from .decomp import compute_tree_decomposition, make_permutation_yielding
    from .graph import require_connected

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
    writes = _writes(gr_full, _length_bounds(gr_full)[0])
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


# ---------------------------------------------------------------------------
# Reading grammar words back as permutations.

def permutation_from_aligned_word(w: Word, alpha: Permutation) -> Permutation:
    """Invert the alignment: given w with w_i = s(alpha(i)), recover s."""
    inv = inverse(alpha)
    if len(w) != alpha.size:
        raise GrammarError(f"word length {len(w)} does not match alpha size {alpha.size}")
    return Permutation(tuple(w.symbols[inv(j) - 1] for j in range(1, alpha.size + 1)))


# ---------------------------------------------------------------------------
# Parse trees.

class ParseTree(NamedTuple):
    rule_index: int
    children: tuple[ParseTree, ...]


def enumerate_parse_trees(gr: Grammar) -> list[ParseTree]:
    """Every accepting parse tree, in rule order."""

    def graft(partial: list, trees: list | None) -> list:
        # partial trees are (rule index, children so far); terminals add none
        if trees is None:
            return partial
        return [(r, kids + (t,)) for r, kids in partial for t in trees]

    def finish(partials) -> list[ParseTree]:
        return [ParseTree(r, kids) for partial in partials for r, kids in partial]

    return _evaluate(gr, lambda r: [(r, ())], lambda a: None, graft, finish)[_compiled(gr).start]


def parse_tree_yield(gr: Grammar, t: ParseTree) -> Word:
    out: list[int] = []
    stack: list = [t]  # terminals and subtrees still to spell, last first
    while stack:
        node = stack.pop()
        if isinstance(node, int):
            out.append(node)
            continue
        kids = iter(node.children)
        items: list = []
        for x in gr.rules[node.rule_index][1]:
            if isinstance(x, str):
                child = next(kids, None)
                if child is None or gr.rules[child.rule_index][0] != x:
                    raise GrammarError("parse tree does not follow the grammar rules")
                x = child
            items.append(x)
        if next(kids, None) is not None:
            raise GrammarError("parse tree has extra children")
        stack.extend(reversed(items))
    return Word(tuple(out))


# ---------------------------------------------------------------------------
# JSON serialization.  The layout is fixed: the keys sigma_max, start,
# variables and rules in that order, then "accepts_empty": true only when
# that flag is set, laid out byte for byte as json.dumps(doc, indent=1)
# lays out that document, plus a final newline.  grammar_to_json writes it
# directly, since with an indent json.dumps runs its pure-Python encoder;
# strings go through the C string quoter that json.dumps itself uses.

def _json_array(items: list[str], indent: str) -> str:
    """A JSON array of encoded items, laid out as by json.dumps(indent=1)
    at the nesting depth len(indent)."""
    if not items:
        return "[]"
    inner = "\n " + indent
    return "[" + inner + ("," + inner).join(items) + "\n" + indent + "]"


class _SymbolText(dict):
    """The JSON text of each grammar symbol: filled with the quoted
    variables, it spells each terminal the first time it is looked up."""

    def __missing__(self, a: int) -> str:
        text = self[a] = str(a)
        return text


def grammar_to_json(gr: Grammar) -> str:
    text = _SymbolText(zip(gr.variables, map(encode_basestring_ascii, gr.variables)))
    spell = text.__getitem__
    # each rule as _json_array([lhs, _json_array(rhs, "   ")], "  ") lays it out
    rules = [
        "[\n   " + text[lhs] + ",\n   ["
        + ("\n    " + ",\n    ".join(map(spell, rhs)) + "\n   ]" if rhs else "]") + "\n  ]"
        for lhs, rhs in gr.rules
    ]
    return "".join((
        '{\n "sigma_max": ', str(gr.sigma_max),
        ',\n "start": ', text[gr.start],
        ',\n "variables": ', _json_array([text[v] for v in gr.variables], " "),
        ',\n "rules": ', _json_array(rules, " "),
        ',\n "accepts_empty": true' if gr.accepts_empty else "",
        "\n}\n",
    ))


def grammar_from_json(text: str) -> Grammar:
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as e:  # RecursionError: nesting too deep
        raise GrammarError(f"bad grammar JSON: {e}") from None
    except ValueError:  # an integer over Python's limit on int-string digits
        raise GrammarError("bad grammar JSON: an integer has too many digits") from None
    if not isinstance(doc, dict):
        raise GrammarError("grammar JSON must be an object")
    for key in ("sigma_max", "start", "variables", "rules"):
        if key not in doc:
            raise GrammarError(f"grammar JSON missing field {key!r}")
    shapes_ok = isinstance(doc["variables"], list) and isinstance(doc["rules"], list) and all(
        isinstance(r, list) and len(r) == 2 and isinstance(r[0], str) and isinstance(r[1], list)
        for r in doc["rules"]
    )
    if not shapes_ok:
        raise GrammarError("grammar JSON needs a variables array and [lhs, rhs] rule pairs")
    # Python's bool is an int, so true would otherwise read as terminal 1
    if any(isinstance(x, bool) for _, rhs in doc["rules"] for x in rhs):
        raise GrammarError("grammar JSON has true or false where an integer belongs")
    rules = tuple((lhs, tuple(rhs)) for lhs, rhs in doc["rules"])
    variables, flag = tuple(doc["variables"]), doc.get("accepts_empty", False)
    return Grammar(doc["sigma_max"], doc["start"], variables, rules, flag)
