"""Context-free grammars for finite permutation languages: the grammar
value and its read side.

Terminals are integers 1..sigma_max and variables are named by strings.
A grammar holds its rules once, as ints: rule r is (lhs[r], rhs[r]), with
lhs a variable's index and rhs a tuple in which terminal a is a and
variable k is ~k.  Names live only at the boundary: the public constructor
and `grammar_from_json` check the names as they intern them,
`grammar_to_json` spells them from the ints, and `Grammar.rules` is the
view by name, spelled on first read.  Every grammar this package
constructs is non-recursive (the variable dependency relation is acyclic),
so the language analytics (enumeration, parse-tree counting, membership)
are finite dynamic programs and refuse cyclic inputs.

Layering: this module imports no sibling but `perm`.  The builders, which
compile a graph into a grammar, live in `annotate` next to the join they
read, so a process that only reads a grammar file never loads them.

The read side runs on one table per grammar (`_compiled`), derived from
the int rules on first use and cached on the grammar: the variables in
dependencies-first order, and each variable's rules listed together.  The
builders and transforms make their grammars from ints, unchecked
(`_grammar`), the builders with their own order, so no search for one runs.
Parse-tree counting, the word lengths (`_length_bounds`: read by `trim`
and `erase_terminals`), the positions each rule writes (`_writes`) and the
polytope's max-plus pricing loop over the table directly; the semiring
pass walks its order and rule lists for the semirings of sets, spans and
trees, valuing variables by index.  `_writes` is the one check that a
grammar is positional, the precondition of the extended formulation and
the embed check: every variable derives words of one positive length and
sits at one offset, so it spans one non-empty window."""

from __future__ import annotations

import functools
import itertools
import json
import math
import operator
import sys
import warnings
from collections.abc import Iterator
from json.encoder import encode_basestring_ascii
from typing import NamedTuple

from . import PreconditionError, _quote, _Value
from .perm import Permutation, Word, inverse


class GrammarError(PreconditionError):
    pass


class CyclicGrammarError(GrammarError):
    pass


class Grammar(_Value):
    """An immutable `_Value` of its fields: sigma_max, start, variables,
    rules and accepts_empty.

    Construction checks every name and symbol and interns the rules as
    ints (see the module docstring); lists are read as tuples."""

    # _start, _lhs and _rhs are the int store; _rules caches the `rules`
    # view and _table `_compiled(self)`, each set on first use and derived
    # from the store, so whether they are set changes no comparison or pickle
    __slots__ = ("sigma_max", "variables", "accepts_empty", "_start", "_lhs", "_rhs", "_rules", "_table")

    def __init__(self, sigma_max: int, start: str, variables: tuple[str, ...], rules: tuple,
                 accepts_empty: bool = False):
        # only what the JSON format holds: true or false for the flag, a
        # string per variable, and a plain int (not a bool, which is an int
        # subclass) for every number
        if type(accepts_empty) is not bool:
            raise GrammarError(f"accepts_empty must be true or false, got {type(accepts_empty).__name__}")
        if type(sigma_max) is not int:
            raise GrammarError(f"sigma_max {_quote(sigma_max)} is not an integer")
        if sigma_max < 0:
            raise GrammarError(f"sigma_max {_quote(sigma_max)} is negative")
        variables = tuple(variables)
        code: dict = {}  # each declared name -> ~its index, as rhs symbols write it
        for v in variables:
            if not isinstance(v, str):
                raise GrammarError(f"variable {_quote(v)} is not a string")
            if v in code:
                raise GrammarError(f"variable {_quote(v)} declared twice")
            code[v] = ~len(code)
        if not isinstance(start, str):
            raise GrammarError(f"start variable {_quote(start)} is not a string")
        if start not in code:
            raise GrammarError(f"start variable {_quote(start)} not declared")
        lhs, rhs = [], []
        for name, symbols in rules:
            k = code.get(name)
            if k is None:
                raise GrammarError(f"rule lhs {_quote(name)} not declared")
            try:  # a name not declared, or anything else, fails the lookup
                rhs.append(tuple([x if x.__class__ is int and 0 < x <= sigma_max else code[x]
                                  for x in symbols]))
            except (KeyError, TypeError):
                for x in symbols:  # the first symbol that fails, to name it
                    if isinstance(x, str):
                        if x not in code:
                            raise GrammarError(f"rhs variable {_quote(x)} not declared") from None
                    elif type(x) is not int or not 1 <= x <= sigma_max:
                        raise GrammarError(
                            f"terminal {_quote(x)} is not an integer in 1..{_quote(sigma_max)}") from None
                raise
            lhs.append(~k)
        self._set(sigma_max=sigma_max, variables=variables, accepts_empty=accepts_empty,
                  _start=~code[start], _lhs=lhs, _rhs=rhs)

    @property
    def start(self) -> str:
        return self.variables[self._start]

    @property
    def rules(self) -> tuple:
        """The rules as (lhs, rhs) pairs by name, each terminal an int."""
        try:
            return self._rules
        except AttributeError:
            pass
        names = self.variables
        spell = {~k: name for k, name in enumerate(names)}.get  # terminals are no key
        rules = tuple([(names[v], tuple(map(spell, rhs, rhs))) for v, rhs in zip(self._lhs, self._rhs)])
        self._set(_rules=rules)
        return rules

    def _values(self) -> tuple:
        return (self.sigma_max, self.start, self.variables, self.rules, self.accepts_empty)

    def __repr__(self):
        fields = ("sigma_max", "start", "variables", "rules", "accepts_empty")
        return f"Grammar({', '.join(f'{k}={v!r}' for k, v in zip(fields, self._values()))})"


def _grammar(sigma_max: int, variables: tuple, lhs, rhs, accepts_empty: bool = False,
             start: int = 0, order=None) -> Grammar:
    """The grammar with these int rules (see the module docstring), built
    without a check: the builders and transforms write valid ones.  Given
    a dependencies-first order of the variables, its table is compiled at
    once on that order."""
    gr = Grammar.__new__(Grammar)
    gr._set(sigma_max=sigma_max, variables=variables, accepts_empty=accepts_empty,
            _start=start, _lhs=lhs, _rhs=rhs)
    if order is not None:
        _compiled(gr, order)
    return gr


class _Table(NamedTuple):
    """A grammar's read side.  Variable v is gr.variables[v].  The rules
    are listed grouped by lhs, in rule order within each group: the j-th
    listed rule is rule ids[j], and variable v's rules are those listed
    from ends[v] to ends[v + 1].  order is a dependencies-first order:
    `_compiled` finds one by depth-first search, which names the variable
    of a cycle, unless the grammar's maker gives one."""

    start: int
    order: list | range  # the variables, dependencies first
    ends: list  # len(gr.variables) + 1 bounds into the listed rules
    ids: range | list  # each listed rule's index: range(len(rules)) when already grouped
    kids: list  # per listed rule: the variables of its rhs, in order


def _compiled(gr: Grammar, order=None) -> _Table:
    """The grammar's `_Table`, derived from its int rules on first use and
    kept in the grammar's `_table` slot.  Raises on recursion.

    Without a given order, the order is a depth-first search from each
    variable in declaration order, visiting a variable's dependencies in
    order of first appearance in its rules' right-hand sides (a repeat
    finds its variable ordered)."""
    try:
        return gr._table
    except AttributeError:
        pass
    lhs, rhs = gr._lhs, gr._rhs
    count = [0] * len(gr.variables)
    for v in lhs:
        count[v] += 1
    ends = list(itertools.accumulate(count, initial=0))
    ids = range(len(lhs))  # the builders write each variable's rules together, in order
    if not all(map(operator.le, lhs, itertools.islice(lhs, 1, None))):
        ids = sorted(ids, key=lhs.__getitem__)
    kids = [tuple([~x for x in rhs[r] if x < 0]) for r in ids]
    del count  # freed before the search
    if order is None:
        order = []
        names = gr.variables
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
    table = _Table(gr._start, order, ends, ids, kids)
    gr._set(_table=table)
    return table


def _length_bounds(gr: Grammar, keep: int | None = None) -> tuple[list[int], list[int]]:
    """Each variable's shortest and longest word length, by index, both -1
    when it derives no word; given keep, the terminals above it count as
    erased.  A variable derives words of one length when low == high >= 0."""
    _, order, ends, ids, kids = _compiled(gr)
    rules = gr._rhs
    low, high = [-1] * len(order), [-1] * len(order)
    for v in order:
        lo = hi = -1
        for j in range(ends[v], ends[v + 1]):
            ks, rhs = kids[j], rules[ids[j]]
            a = len(rhs) - len(ks) if keep is None else sum([0 < x <= keep for x in rhs])
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


def _writes(gr: Grammar) -> dict[int, list[tuple[int, int]]] | None:
    """Word position -> the (symbol, rule index) pairs of the terminals
    written there, or None for a grammar with no words.  The one check that
    a grammar is positional: raises GrammarError unless every variable
    derives words of one positive length (`_length_bounds`) and a
    breadth-first walk by index from the start places it at one offset, so
    it spans one non-empty window and a parse tree uses it at most once."""
    if gr.accepts_empty:
        raise GrammarError("grammar accepts the empty word; not positional")
    low, high = _length_bounds(gr)
    start, order, ends, ids, _ = _compiled(gr)
    if low[start] < 0:
        return None
    bad = next((v for v in order if not 0 < low[v] == high[v]), None)
    if bad is not None:
        name = _quote(gr.variables[bad])
        if not high[bad]:
            raise GrammarError(f"variable {name} derives only the empty word; not positional")
        # the set semiring, only to word the error
        ls = _evaluate(gr, lambda r: {0}, lambda a: {1}, _pairwise_sums, _union, [bad])[bad]
        raise GrammarError(f"variable {name} derives strings of lengths {sorted(ls)}; not positional")
    rules = gr._rhs
    writes: dict[int, list[tuple[int, int]]] = {}
    offset = [0] * len(order)  # 0: not reached yet
    offset[start] = 1
    reached = [start]
    for v in reached:  # breadth first; grows as the walk reaches new variables
        for j in range(ends[v], ends[v + 1]):
            r = ids[j]
            at = offset[v]
            for x in rules[r]:
                if x > 0:
                    writes.setdefault(at, []).append((x, r))
                    at += 1
                    continue
                k = ~x
                if not offset[k]:
                    offset[k] = at
                    reached.append(k)
                elif offset[k] != at:
                    raise GrammarError(f"variable {_quote(gr.variables[k])} occurs at spans starting "
                                       f"{offset[k]} and {at}; not positional")
                at += low[k]
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
    rule_symbols = len(gr._rhs) + sum(map(len, gr._rhs))
    symbol_space = gr.sigma_max + len(gr.variables)
    value = rule_symbols * math.log2(symbol_space) if rule_symbols else 0.0
    return GrammarSize(value, rule_symbols, symbol_space)


def is_regular(gr: Grammar) -> bool:
    """Every rule is (B, a) or (B, a B') with a a terminal."""
    return all(rhs[0] > 0 if len(rhs) == 1 else len(rhs) == 2 and rhs[0] > 0 > rhs[1]
               for rhs in gr._rhs)


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
    rules = gr._rhs
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
            acc = weight(ids[j])
            for x in rules[ids[j]]:
                acc = times(acc, leaf(x) if x > 0 else value[~x])
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
            rhs = gr._rhs[ids[j]]  # each variable k is ~k, which is negative
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
    stop = None if cap is None or cap >= sys.maxsize else cap + 1  # a larger cap cannot truncate
    words = tuple(map(Word, itertools.islice(iter_language(gr), stop)))
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
    reach = [False] * len(order)
    reach[start] = True
    todo = [start]  # reached variables whose rules are not yet walked
    while todo:
        v = todo.pop()
        for ks in kids[ends[v]:ends[v + 1]]:
            if all(low[k] >= 0 for k in ks):
                for k in ks:
                    if not reach[k]:
                        reach[k] = True
                        todo.append(k)
    keep = [lo >= 0 and seen for lo, seen in zip(low, reach)]
    keep[start] = True
    new = list(itertools.accumulate(keep, initial=0))  # a kept variable's index after the trim
    code = {~v: ~new[v] for v in range(len(order)) if keep[v]}  # terminals are no key
    lhs, rhs = [], []
    for v, symbols in zip(gr._lhs, gr._rhs):
        if keep[v] and all(x > 0 or low[~x] >= 0 for x in symbols):
            lhs.append(new[v])
            rhs.append(tuple(map(code.get, symbols, symbols)))
    order = [new[v] for v in order if keep[v]]
    variables = tuple(itertools.compress(gr.variables, keep))
    return _grammar(gr.sigma_max, variables, lhs, rhs, gr.accepts_empty, new[start], order)


# ---------------------------------------------------------------------------
# Language-preserving transforms.

def rename_terminals(gr: Grammar, b: Permutation) -> Grammar:
    """Apply b symbol-wise to the language; rule shapes and size unchanged."""
    occurring = {x for rhs in gr._rhs for x in rhs if x > 0}
    for t in sorted(occurring):
        if t > b.size:
            raise GrammarError(f"renaming undefined on terminal {t}")
        if b(t) > gr.sigma_max:
            raise GrammarError(f"renaming sends terminal {t} to {b(t)}, outside the declared alphabet")
    renamed = {t: b(t) for t in occurring}.get  # variables are no key
    rhs = [tuple(map(renamed, symbols, symbols)) for symbols in gr._rhs]
    return _grammar(gr.sigma_max, gr.variables, gr._lhs, rhs, gr.accepts_empty, gr._start)


def erase_terminals(gr: Grammar, keep: int) -> Grammar:
    """Homomorphic image erasing every terminal above `keep`.

    The result has no epsilon anywhere in its rules; if the empty word
    arises it is recorded on the accepts_empty flag instead.  The declared
    alphabet shrinks to 1..keep, or stays 1..sigma_max if that is smaller."""
    if keep < 0:
        raise GrammarError("keep must be non-negative")
    # after erasure a variable with no word is dead, one whose shortest word
    # is empty is nullable, and one whose longest is empty derives only it
    low, high = _length_bounds(gr, keep)
    start, order = _compiled(gr)[:2]
    lhs, rhs = [], []
    for v, symbols in zip(gr._lhs, gr._rhs):
        if any(x < 0 and low[~x] < 0 for x in symbols):
            continue
        slots: list[tuple] = []
        for x in symbols:
            if x < 0:
                slots.append((x,) if low[~x] else (None,) if not high[~x] else (x, None))
            elif x <= keep:
                slots.append((x,))
        seen: set[tuple] = set()
        for combo in itertools.product(*slots):
            new_rhs = tuple(x for x in combo if x is not None)
            if new_rhs and new_rhs not in seen:
                seen.add(new_rhs)
                lhs.append(v)
                rhs.append(new_rhs)
    accepts_empty = gr.accepts_empty or low[start] == 0
    return trim(_grammar(min(keep, gr.sigma_max), gr.variables, lhs, rhs, accepts_empty, start, order))


def union_grammar(g1: Grammar, g2: Grammar) -> Grammar:
    """Fresh start with unit rules to both operands, renamed apart."""
    if g1.sigma_max != g2.sigma_max:
        raise GrammarError(f"alphabet mismatch: {g1.sigma_max} vs {g2.sigma_max}")
    variables = ("B1", *[f"a:{v}" for v in g1.variables], *[f"b:{v}" for v in g2.variables])
    shifts = ((g1, 1), (g2, 1 + len(g1.variables)))  # each operand's variable k is k + shift
    lhs, rhs = [0, 0], [(~(gr._start + shift),) for gr, shift in shifts]
    for gr, shift in shifts:
        lhs.extend([v + shift for v in gr._lhs])
        rhs.extend([tuple([x if x > 0 else x - shift for x in symbols]) for symbols in gr._rhs])
    return _grammar(g1.sigma_max, variables, lhs, rhs, g1.accepts_empty or g2.accepts_empty)


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
        for x in gr._rhs[node.rule_index]:
            if x < 0:
                child = next(kids, None)
                if child is None or gr._lhs[child.rule_index] != ~x:
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
    variables, variable k under key ~k, it spells each terminal the first
    time it is looked up."""

    def __missing__(self, a: int) -> str:
        text = self[a] = str(a)
        return text


def grammar_to_json(gr: Grammar) -> str:
    names = gr.variables
    text = _SymbolText({~k: encode_basestring_ascii(name) for k, name in enumerate(names)})
    spell = text.__getitem__
    # each rule as _json_array([lhs, _json_array(rhs, "   ")], "  ") lays it out
    rules = [
        "[\n   " + text[~v] + ",\n   ["
        + ("\n    " + ",\n    ".join(map(spell, rhs)) + "\n   ]" if rhs else "]") + "\n  ]"
        for v, rhs in zip(gr._lhs, gr._rhs)
    ]
    return "".join((
        '{\n "sigma_max": ', str(gr.sigma_max),
        ',\n "start": ', text[~gr._start],
        ',\n "variables": ', _json_array([text[~v] for v in range(len(names))], " "),
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
    flag = doc.get("accepts_empty", False)
    return Grammar(doc["sigma_max"], doc["start"], doc["variables"], doc["rules"], flag)
