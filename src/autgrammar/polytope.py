"""Rule-flow extended formulations for the word polytope of an acyclic
positional grammar, with exact rational feasibility checks.

One flow variable per rule instance; one unit leaves the start variable,
and flow is conserved at every other variable.  Because the grammars built
by this package give every variable a single fixed, non-empty span, a
parse tree uses each rule at most once, the flow polytope is integral
(Martin, Rardin & Campbell, 1990), integral flows are exactly parse trees,
and the projection x_i (the symbol value written at word position i) maps
the flow polytope onto the convex hull of the word vectors.

The extended formulation is an LP: `ExtendedFormulation` holds its rows in
the form `parse_lp` returns them, so `parse_lp(emit_lp(ef)) == ef.lp`.  The
emitted LP is always the full formulation.

Every number is exact, so no floating point enters any verdict.  On the
LP-file path, from `parse_lp` to the simplex, a number is an int when it
is integral and a Fraction otherwise, so the formulation's integer rows
are taken as they are.  A point is decided on two independent paths:

- a projection point (`check_projection_feasibility`) by column generation
  over words: x is a member exactly when it is a convex combination of
  words, a master LP of n + 1 rows whose columns a max-plus pass over the
  grammar prices, so the flow LP is never built.  The pass is an int loop
  over the grammar's compiled table (`grammar._compiled`), built once per
  grammar, and it keeps each variable's first best rule, so the best word
  is read back top-down without a second pass.  The master LP holds its
  basis as det B and the integer adjugate, so its rounds make no
  Fraction; only a member's certificate weights are Fractions;
- a point of an LP file (`check_lp_feasibility`, the `check` command),
  which has no grammar, by an exact doubleton presolve that removes the
  rows of at most two terms (a tree grammar's LP has few: the variables
  that would give them are written inline), then a phase-1 simplex on
  integer rows on what is left.
  Each row carries its rhs as one more int entry, and a column that
  reaches its upper bound is complemented, so every nonbasic column sits
  at 0 and the simplex makes no Fraction after its set-up.  A crash
  basis starts the simplex: each row whose rhs is 0, which are the flow
  rows that the presolve leaves, puts a structural column in its
  artificial's place by a degenerate pivot.  Pricing is by the largest
  reduced cost, with Bland's rule as the fallback that guards against
  cycling.

The two agree exactly when the flow polytope projects onto conv(words),
so their agreement tests that claim directly.

`build_extended_formulation` takes the grammar layer's one check that a
grammar is positional, `_writes`.

Layering: the LP-file path (`parse_lp`, `check_lp_feasibility`, the
presolve and the simplex) imports nothing from `grammar`.  Only the
functions that take a formulation import it, inside their bodies, so
deciding a point of an LP file never loads the grammar layer.
"""

from __future__ import annotations

import math
import operator
import re
import warnings
from collections import Counter
from fractions import Fraction
from itertools import chain
from typing import TYPE_CHECKING, NamedTuple

from . import PreconditionError, _quote

if TYPE_CHECKING:
    from .grammar import Grammar, ParseTree


class PolytopeError(PreconditionError):
    pass


class ParsedLP(NamedTuple):
    # every number an int when integral, else a Fraction
    constraints: tuple  # (name, ((coef, var), ...), rel, rhs)
    bounds: dict  # var -> (lo, hi or None)


_UNIT = (0, 1)


class ExtendedFormulation(NamedTuple):
    """Rows are (name, ((coef, var), ...), rel, rhs), as `parse_lp` returns
    them, with integer numbers.  Immutable, and equal only to itself: `==`
    and `hash` are `object`'s, not the tuple's."""

    grammar: Grammar
    flow_vars: tuple[str, ...]
    constraints: tuple  # src, then c_<k> conserving flow at every other variable
    projection: tuple  # px<i> defining x_i, or pz<i>_<a> defining z_i_a
    word_length: int

    __eq__ = object.__eq__
    __ne__ = object.__ne__
    __hash__ = object.__hash__

    @property
    def lp(self) -> ParsedLP:
        """The LP that `emit_lp` writes, as `parse_lp` reads it back."""
        return ParsedLP(self.constraints + self.projection, dict.fromkeys(self.flow_vars, _UNIT))

    @property
    def num_constraints(self) -> int:
        # conservation + source + two bound rows per flow var + projection
        return len(self.constraints) + 2 * len(self.flow_vars) + self.word_length


def build_extended_formulation(gr: Grammar, style: str = "value") -> ExtendedFormulation:
    """Flow conservation + unit source + [0,1] bounds, with the value
    projection x_i = sum of (symbol written at i) * (rule flow), or, in
    the matrix style, z_i_a = sum of the flows of the rules writing a at i.

    Raises unless the grammar is positional (`grammar._writes`): every
    variable derives words of one positive length, from one start offset,
    and is reachable, so a parse tree uses each rule at most once and its
    flows are 0/1.  A grammar with no words gives the formulation with an
    infeasible source row, with one warning."""
    from .grammar import GrammarError, _compiled, _writes

    if style not in ("value", "matrix"):
        raise PolytopeError(f"unknown projection style {style!r}")
    start, order, ends, ids, _ = _compiled(gr)  # a cyclic grammar raises its own error
    try:
        writes = _writes(gr)
    except GrammarError as e:
        raise PolytopeError(str(e)) from None
    if writes is None:
        # no words to project; the flow system itself is infeasible, and
        # every rule keeps its flow terms
        warnings.warn("grammar generates no words; source row is infeasible", stacklevel=2)

    flow = [f"y_{r}" for r in range(len(ids))]
    into = [(1, flow[r]) for r in ids]  # per listed rule: the flow into its lhs
    out: list = [[] for _ in order]  # per variable: the flows of the rules using it, in rule order
    for y, symbols in zip(flow, gr._rhs):
        for x in symbols:
            if x < 0:
                out[~x].append((-1, y))
    constraints = [("src", tuple(into[ends[start]:ends[start + 1]]), "=", 1)]
    for k in range(len(order)):
        if k != start:
            constraints.append((f"c_{k}", tuple(into[ends[k]:ends[k + 1]] + out[k]), "=", 0))

    n = len(writes or ())  # the positions 1..n of the one word length
    projection: list = []
    for i in range(1, n + 1):
        written = sorted(writes[i])
        if style == "value":
            terms = [(1, f"x_{i}"), *((-a, flow[r]) for a, r in written)]
            projection.append((f"px{i}", tuple(terms), "=", 0))
            continue
        per_symbol: dict[int, list] = {}
        for a, r in written:
            per_symbol.setdefault(a, [(1, f"z_{i}_{a}")]).append((-1, flow[r]))
        projection.extend((f"pz{i}_{a}", tuple(t), "=", 0) for a, t in per_symbol.items())
    return ExtendedFormulation(
        grammar=gr,
        flow_vars=tuple(flow),
        constraints=tuple(constraints),
        projection=tuple(projection),
        word_length=n,
    )


def lift_parse_tree(ef: ExtendedFormulation, t: ParseTree) -> dict:
    """0/1 point with one unit of flow on every rule the tree uses."""
    from .grammar import parse_tree_yield

    parse_tree_yield(ef.grammar, t)  # raises if the tree does not fit the rules
    counts: dict[int, int] = {}
    stack = [t]
    while stack:
        node = stack.pop()
        counts[node.rule_index] = counts.get(node.rule_index, 0) + 1
        stack.extend(node.children)
    if ef.grammar._lhs[t.rule_index] != ef.grammar._start:
        raise PolytopeError("parse tree is not accepting (root is not the start rule)")
    return {y: Fraction(counts.get(r, 0)) for r, y in enumerate(ef.flow_vars)}


def project_point(ef: ExtendedFormulation, point: dict) -> tuple[Fraction, ...]:
    """The values that the projection rows give their x (or z) variables."""
    return tuple(
        rhs - sum((coef * point[v] for coef, v in terms), Fraction(0))
        for _, (_, *terms), _, rhs in ef.projection
    )


def check_projection_feasibility(ef: ExtendedFormulation, x) -> bool:
    """Exact membership of the point x in the projected polytope, which is
    conv(words): decided by column generation over the grammar's words,
    not by the LP-file path."""
    return _projection_verdict(ef, x)[0]


# ---------------------------------------------------------------------------
# Column generation over words (Dantzig & Wolfe, 1960): x is in conv(words)
# exactly when the master LP  sum_w lambda_w (w, 1) = (x, 1), lambda >= 0,
# is feasible.  It has n + 1 rows and a column per word, and a max-plus
# pass over the grammar finds the best column, so the flow LP is not built.

def _projection_verdict(ef: ExtendedFormulation, x) -> tuple[bool, tuple]:
    """The verdict on x with a certificate of it.

    Feasible: (weight, word) pairs, at most n + 1, with positive weights
    summing to 1 and sum of weight * word equal to x.  Infeasible: integer
    multipliers pi of the rows (x, 1) with pi . (x, 1) > 0 >= pi . (w, 1)
    for every word w, which no convex combination of words can meet.

    Phase 1 minimises the sum of one artificial per row, with each row of
    negative rhs negated and the lexicographic ratio test (Dantzig, Orden
    & Wolfe, 1955), under which no basis repeats whichever improving word
    enters.  Every number of a round is an int (integer-preserving
    elimination: Edmonds 1967, Bareiss 1968).  The basis B is held as
    den = det B > 0 and its adjugate den * B^-1; the basic values as
    den * B^-1 applied to the rhs lift * (|x|, 1), with lift the lcm of
    x's denominators.  A pivot on row r, whose entry in the entering
    column is d_r > 0, forms (d_r * row - d_i * pivot_row) / den in every
    other row, an exact division since the entries are minors of B, and
    makes d_r the new den.  The ratio test cross-multiplies, so each
    choice is that of the same simplex over Fractions.

    Each round prices every word at once.  The duals are the column sums
    y of the adjugate's rows whose artificial is still basic, over den, so
    pi = sign * y / gcd(den, y) is the duals of the rows (x, 1) times the
    lcm of their denominators, in ints.  A rule weighs pi_i * a summed
    over the positions i and symbols a it writes, and the max-plus pass
    over the grammar's int table yields the word of largest pi . (w, 1),
    read back top-down through each variable's first rule in rule order
    that attains its max.  When that is <= 0, pi is the certificate; when
    no artificial is left positive, x is a member, and each basic word's
    weight is its basic value over den * lift."""
    from .grammar import _compiled
    from .perm import Word

    target = [_coordinate(f"x_{i}", v) for i, v in enumerate(x, start=1)]
    n = ef.word_length
    if len(target) != n:
        raise PolytopeError(f"point has dimension {len(target)}, expected {n}")
    rule_of = {y: r for r, y in enumerate(ef.flow_vars)}
    writes: list[list] = [[] for _ in ef.flow_vars]  # per rule: (position, symbol)
    for i, (_, ((_, defined), *terms), _, _) in enumerate(ef.projection):
        if defined != f"x_{i + 1}":
            raise PolytopeError("a matrix-style formulation has no x coordinates to fix")
        for coef, y in terms:
            writes[rule_of[y]].append((i, -coef))
    start, order, ends, ids, kids = _compiled(ef.grammar)
    if any(map(operator.eq, ends, ends[1:])):
        # a variable without rules: only the formulation of an empty
        # language has one, as every variable of another derives a word
        return False, (0,) * n + (1,)
    # per listed rule of the table (j), the positions and symbols it writes
    pattern = [(j, i, a) for j, r in enumerate(ids) for i, a in writes[r]]

    m = n + 1
    sign = [-1 if b < 0 else 1 for b in target] + [1]
    lift = math.lcm(*(b.denominator for b in target))
    beta = [abs(b.numerator) * (lift // b.denominator) for b in target] + [lift]  # den * B^-1 rhs
    inverse = [[int(i == j) for j in range(m)] for i in range(m)]  # den * B^-1
    den = 1  # det B
    basis: list = [None] * m  # the word basic in each row; None: its artificial
    while True:
        y = [sum(col) for col in zip(*(row for row, w in zip(inverse, basis) if w is None))]
        g = math.gcd(den, *y)
        pi = [s * v // g for s, v in zip(sign, y)]  # multipliers of the rows (x, 1)
        weight = [0] * len(kids)
        for j, i, a in pattern:
            weight[j] += pi[i] * a
        # max-plus over integers, bottom-up: a rule's weight already counts
        # what it writes, and each variable keeps its first rule in rule
        # order that attains its max
        score = [0] * len(order)
        best = [0] * len(order)
        for v in order:
            arg, last = ends[v], ends[v + 1]
            top = weight[arg]
            for k in kids[arg]:
                top += score[k]
            for j in range(arg + 1, last):
                s = weight[j]
                for k in kids[j]:
                    s += score[k]
                if s > top:
                    top, arg = s, j
            score[v], best[v] = top, arg
        gain = score[start] + pi[n]  # pi . (w, 1) of the best word w
        if gain <= 0:
            return False, tuple(pi)
        word = [0] * n
        stack = [start]
        while stack:  # read w top-down through the rules that attain the max
            j = best[stack.pop()]
            for i, a in writes[ids[j]]:
                word[i] = a
            stack.extend(kids[j])
        column = [s * w for s, w in zip(sign, word + [1])]
        d = [sum(map(operator.mul, row, column)) for row in inverse]

        # the lexicographically smallest row of [beta | inverse] / d_i over
        # d_i > 0, compared by cross-multiplying
        rows = [i for i in range(m) if d[i] > 0]
        for k in range(-1, m):
            if len(rows) == 1:
                break
            top = {i: beta[i] if k < 0 else inverse[i][k] for i in rows}
            low = rows[0]
            for i in rows:
                if top[i] * d[low] < top[low] * d[i]:
                    low = i
            rows = [i for i in rows if top[i] * d[low] == top[low] * d[i]]
        r = rows[0]

        pivot, pivot_row, pivot_beta = d[r], inverse[r], beta[r]
        for i in range(m):
            # a row with d_i = 0 is only rescaled, to the new den
            if i != r and (d[i] or pivot != den):
                f = d[i]
                inverse[i] = [(pivot * v - f * p) // den for v, p in zip(inverse[i], pivot_row)]
                beta[i] = (pivot * beta[i] - f * pivot_beta) // den
        den = pivot
        basis[r] = Word(tuple(word))
        if not any(beta[i] for i in range(m) if basis[i] is None):
            return True, tuple(
                (Fraction(beta[i], den * lift), w) for i, w in enumerate(basis) if w is not None and beta[i]
            )


# ---------------------------------------------------------------------------
# Exact presolve and phase-1 simplex over sparse rows: (coeffs dict
# var->number, rhs number) equality rows over variables with bounds
# var -> (finite lo, hi or None).  Numbers are ints or Fractions: in the
# presolve each integral value that arithmetic makes is held as an int,
# and every division goes through `_quotient`, so no float is ever made;
# the simplex scales each row to ints and divides only exactly.

def _whole(v):
    """The int or Fraction v, as an int when it is integral."""
    return v.numerator if v.denominator == 1 else v


def _quotient(a, b):
    """a / b exactly, as an int when it is integral, else a Fraction: `/`
    on two ints would give a float."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    return _whole(a / b)


def _phase_one_feasible(rows: list, bounds: dict) -> bool:
    """Feasibility of the system: the presolve, then the simplex on what
    is left."""
    reduced = _presolve(rows, bounds)
    return reduced is not None and _simplex_feasible(*reduced)


def _presolve(rows: list, bounds: dict):
    """Exact doubleton presolve (Andersen & Andersen, "Presolving in linear
    programming", 1995).  A worklist visits every row of at most two terms:
    an empty row is infeasible unless its rhs is 0; a singleton a*u = c
    fixes u = c/a within u's bounds; a doubleton a*u + b*w = c, with u the
    last name in sorted order, substitutes u = c/a - (b/a)*w into u's
    other rows and narrows w's bounds by u's, mapped through that map.  The
    row and u then go, and rows that shrink to two terms join the worklist.
    Returns None when infeasible, else the remaining rows and the bounds of
    the variables in them: a system feasible exactly when the input is.

    Which name survives a chain of doubletons only renames a column of the
    reduced system, but the simplex breaks ties by column name.  On the
    LP of the Petersen graph's min-fill tree grammar at its identity word,
    as built while variables with one rule, used by one rule, were kept,
    keeping each chain's first name took 4 pivots after the crash and
    136 from an all-artificial start, and keeping its last took 4 and
    336.

    A regular grammar's LP has such chains, and the presolve makes its
    verdicts 1.4-9.3x faster.  A tree grammar writes its one-rule,
    one-use variables inline, so its LP has no row this short.  When no
    row has at most two nonzero terms, the presolve returns at once what
    its worklist would: the rows, a zero entry dropped as the worklist's
    copies drop it, and the bounds of their variables."""
    if any(b is not None and a > b for a, b in bounds.values()):
        return None
    if all(len(coeffs) - [*coeffs.values()].count(0) > 2 for coeffs, _ in rows):
        rows = [(coeffs if 0 not in coeffs.values() else {v: c for v, c in coeffs.items() if c}, rhs)
                for coeffs, rhs in rows]
        return rows, {v: bounds[v] for coeffs, _ in rows for v in coeffs}
    lo = {v: a for v, (a, _) in bounds.items()}
    hi = {v: b for v, (_, b) in bounds.items()}
    mat = [{v: c for v, c in coeffs.items() if c} for coeffs, _ in rows]  # copies: mutated
    rhs = [r for _, r in rows]
    holders: dict[str, set[int]] = {}
    for i, row in enumerate(mat):
        for v in row:
            holders.setdefault(v, set()).add(i)
    alive = [True] * len(mat)
    work = [i for i, row in enumerate(mat) if len(row) <= 2]
    while work:
        i = work.pop()
        if not alive[i]:
            continue
        alive[i] = False
        row = mat[i]
        if not row:
            if rhs[i]:
                return None
            continue
        *rest, u = sorted(row)
        p = _quotient(rhs[i], row[u])  # u = p + q*w
        if rest:
            w = rest[0]
            q = _quotient(-row[w], row[u])
            holders[w].discard(i)
            # p + q*w in [lo[u], hi[u]] bounds w on the side sign(q) says
            ends = (_quotient(lo[u] - p, q), None if hi[u] is None else _quotient(hi[u] - p, q))
            new_lo, new_hi = ends if q > 0 else ends[::-1]
            if new_lo is not None and new_lo > lo[w]:
                lo[w] = new_lo
            if new_hi is not None and (hi[w] is None or new_hi < hi[w]):
                hi[w] = new_hi
            if hi[w] is not None and lo[w] > hi[w]:
                return None
        elif p < lo[u] or (hi[u] is not None and p > hi[u]):
            return None
        holders[u].discard(i)
        for j in holders.pop(u):
            other = mat[j]
            d = other.pop(u)
            if p:
                rhs[j] = _whole(rhs[j] - d * p)
            if rest:
                c = _whole(d * q + other.get(w, 0))
                if c:
                    other[w] = c
                    holders[w].add(j)
                else:
                    del other[w]
                    holders[w].discard(j)
            if len(other) <= 2:
                work.append(j)
    kept = [(mat[i], rhs[i]) for i in range(len(mat)) if alive[i]]
    return kept, {v: (lo[v], hi[v]) for row, _ in kept for v in row}


# The tableau's sparse int rows are scaled, combined and divided in place:
# a new dict for each step costs more than its arithmetic.

def _scale(row: dict, a: int) -> None:
    for j, c in row.items():
        row[j] = a * c


def _combine(row: dict, a: int, b: int, piv_row: dict) -> None:
    """Makes row a * row - b * piv_row, in one pass over piv_row after
    the scaling.  An entry that cancels was in row: b * c is never 0."""
    if a != 1:
        _scale(row, a)
    get = row.get
    for j, c in piv_row.items():
        v = get(j, 0) - b * c
        if v:
            row[j] = v
        else:
            del row[j]


def _divide_out(row: dict, g: int) -> None:
    if g > 1:
        for j, c in row.items():
            row[j] = c // g


# Dantzig's pricing runs for this many pivots per row of the tableau, plus
# five rows' worth, before `_simplex_feasible` falls back to Bland's rule
_DANTZIG_PIVOTS_PER_ROW = 10


def _simplex_feasible(rows: list, bounds: dict) -> bool:
    """Decides feasibility of the system, reduced or not, by minimizing
    the total artificial infeasibility with a bounded-variable simplex:
    upper bounds are handled by complementing instead of slack rows.
    Pricing is Dantzig's rule (the largest reduced cost, ties to the
    smallest index) and falls back to Bland's smallest-index rule after
    an iteration allowance, which guarantees termination; artificials
    never re-enter the basis, so a positive residue at optimality is a
    Farkas certificate.

    Before the first pivot, a crash (Bixby, "Implementing the simplex
    method: the initial basis", 1992) swaps each artificial whose row's
    shifted rhs is 0 for that row's structural column that occurs in the
    fewest rows, ties to the smallest index.  The column enters at 0, so
    the swap is a degenerate pivot with no ratio test, and the phase-1
    objective sums only the artificials still basic.  On Petersen's
    identity word (the LP of its min-fill tree grammar, 101 rows, which
    the presolve keeps) the crash makes 90 swaps and leaves 4 pivots of
    the 605 that an all-artificial start takes.

    The tableau stays over the integers (integer-preserving elimination:
    Edmonds 1967, Bareiss 1968).  Each row is held as coprime ints, its
    rhs one more entry under the key R, and its coefficient on its basic
    column, kept positive, is the row's denominator: the basic value is
    row[R] / row[basis].  A pivot on p forms row * p - f * pivot_row,
    where f is the row's entry in the entering column, and divides out
    the gcd, so the rhs moves with the rest of the row.  Every nonbasic
    column sits at 0: a column that reaches its span s, by a bound flip
    or by leaving the basis at its upper end, is complemented, x = s - x',
    which takes s times the column from every row's rhs and negates the
    column and its reduced cost (a row is first scaled by the denominator
    of a fractional s).  The phase-1 objective row is coprime ints over
    one positive denominator, so pricing compares ints, and the ratio
    test compares its candidate steps, quotients of ints, by
    cross-multiplying.  After the set-up no Fraction is made, and every
    choice, and the verdict, is that of the same simplex over Fractions:
    the system is feasible when no basic artificial's row has an rhs."""
    R = -1  # the key of each row's rhs
    # shift every variable to start at zero; sort for deterministic ids
    cols: dict[str, int] = {}
    upper: list = []  # per column: finite span as (numerator, denominator), or None
    for v in sorted(bounds):
        cols[v] = len(upper)
        lo, hi = bounds[v]
        if hi is None:
            upper.append(None)
            continue
        span = hi - lo
        if span < 0:
            return False
        upper.append((span.numerator, span.denominator))
    low = {v: lo for v, (lo, _) in bounds.items() if lo}

    mat: list[dict[int, int]] = []  # row i is mat[i] / mat[i][basis[i]]
    basis: list[int] = []
    n_structural = len(cols)

    for coeffs, rhs in rows:
        row = {cols[v]: c for v, c in coeffs.items() if c}
        shifted = rhs - sum(c * low[v] for v, c in coeffs.items() if v in low) if low else rhs
        if not row:
            if shifted != 0:
                return False
            continue
        # over the lcm of the denominators, the rhs's among them, the row
        # is coprime ints, the artificial's 1 included; the sign makes the
        # rhs, the artificial's value, at least 0.  An int row whose rhs
        # is at least 0 is that already, with a scale of 1: its sum is an
        # int, where one Fraction among its numbers makes it a Fraction
        if shifted:
            row[R] = shifted
        if shifted >= 0 and type(sum(row.values())) is int:
            scale = 1
        else:
            scale = math.lcm(*(c.denominator for c in row.values()))
            sign = -1 if shifted < 0 else 1
            row = {j: sign * c.numerator * (scale // c.denominator) for j, c in row.items()}
        a = len(upper)  # the row's artificial
        upper.append(None)
        row[a] = scale
        mat.append(row)
        basis.append(a)

    in_basis = set(basis)

    def pivot(r: int, entering: int, hits) -> dict:
        """Makes entering basic in row r, eliminating it from the other
        rows of hits (row, its entry in the entering column); returns
        the pivot row."""
        piv_row = mat[r]
        piv = piv_row[entering]
        if piv < 0:
            _scale(piv_row, -1)
            piv = -piv
        for i, f in hits:
            if i != r:
                g = math.gcd(piv, f)
                row = mat[i]
                _combine(row, piv // g, f // g, piv_row)
                if row[basis[i]] > 1:
                    _divide_out(row, math.gcd(*row.values()))
        in_basis.discard(basis[r])
        in_basis.add(entering)
        basis[r] = entering
        return piv_row

    def complement(j: int, at: list) -> None:
        """Substitutes x_j = span - x_j' in the rows at, which hold every
        entry of column j, so that the column sits at 0 again."""
        p, q = upper[j]
        for i in at:
            row = mat[i]
            c = row[j]
            if q > 1:
                _scale(row, q)
            rhs = row.get(R, 0) - p * c
            row[j] = -row[j]
            if rhs:
                row[R] = rhs
            else:
                row.pop(R, None)
            if q > 1:
                _divide_out(row, math.gcd(*row.values()))
        if j in obj:
            obj[j] = -obj[j]

    # crash (Bixby, "Implementing the simplex method: the initial basis",
    # 1992): a row whose rhs is 0 hands its artificial's place to its
    # structural column that occurs in the fewest rows, ties to the
    # smallest index.  The column enters at 0, so the pivot is degenerate
    # and needs no ratio test, and the artificial, now nonbasic at 0,
    # never re-enters.
    occurs = Counter(chain.from_iterable(mat))
    for r, row in enumerate(mat):
        if R not in row:
            free = sorted([j for j in row if j < n_structural and j not in in_basis])
            if free:
                entering = min(free, key=occurs.__getitem__)  # the first of the fewest
                pivot(r, entering, [(i, row[entering]) for i, row in enumerate(mat) if entering in row])

    # reduced costs of min(sum of the artificials still basic) after
    # eliminating the basis, over one positive denominator; pricing
    # compares them only with each other and with 0, so the denominator is
    # not kept
    artificial = [(row, b) for row, b in zip(mat, basis) if b >= n_structural]
    scale = math.lcm(*(row[b] for row, b in artificial))
    obj: dict[int, int] = {}
    for row, b in artificial:
        m = scale // row[b]
        for j, c in row.items():
            if j != b and j != R:
                nv = obj.get(j, 0) - c * m
                if nv:
                    obj[j] = nv
                else:
                    obj.pop(j, None)
    _divide_out(obj, math.gcd(*obj.values()))

    bland_after = _DANTZIG_PIVOTS_PER_ROW * (5 + len(mat))
    iteration = 0
    while True:
        iteration += 1
        bland = iteration > bland_after
        entering, best_score = None, 0
        for j, c in obj.items():
            if c >= 0 or j >= n_structural:  # a basic column has no reduced cost
                continue
            if bland:
                if entering is None or j < entering:
                    entering = j
            elif -c > best_score or (-c == best_score and j < entering):
                entering, best_score = j, -c
        if entering is None:
            break

        # ratio test: the tightest event, a step num / den compared by
        # cross-multiplying, wins; ties go to the smallest variable index.
        # The entering column's own bound flip is an event in row -1
        event = None if upper[entering] is None else (*upper[entering], entering, -1)
        hits = [(i, row[entering]) for i, row in enumerate(mat) if entering in row]
        for i, d in hits:
            row, b = mat[i], basis[i]
            if d > 0:  # the basic column falls to 0
                num, den = row.get(R, 0), d
            elif upper[b] is None:
                continue
            else:  # the basic column rises to its span
                p, q = upper[b]
                num, den = p * row[b] - q * row.get(R, 0), -d * q
            if event is None or num * event[1] < event[0] * den or (
                num * event[1] == event[0] * den and b < event[2]
            ):
                event = (num, den, b, i)
        if event is None:
            raise PolytopeError("phase-1 objective unbounded; inconsistent system")

        *_, leaving, r = event
        if r < 0:
            complement(entering, [i for i, _ in hits])
            continue
        if mat[r][entering] < 0:  # leaving at its span: complemented, it leaves at 0
            complement(leaving, [r])
        piv_row = pivot(r, entering, hits)
        f = obj.get(entering)
        if f:
            piv = piv_row[entering]
            g = math.gcd(piv, f)
            _combine(obj, piv // g, f // g, piv_row)
            obj.pop(R, None)
            _divide_out(obj, math.gcd(*obj.values()))

    return not any(R in row for row, b in zip(mat, basis) if b >= n_structural)


# ---------------------------------------------------------------------------
# CPLEX LP text.

def _render_flow_terms(terms) -> str:
    # every flow coefficient is 1 or -1
    return " ".join([f"+ {v}" if coef > 0 else f"- {v}" for coef, v in terms]).removeprefix("+ ") or "0"


def emit_lp(ef: ExtendedFormulation) -> str:
    """Feasibility LP: flow rows, definitional projection rows introducing
    the x (or z) variables, and [0,1] bounds on every flow variable."""
    lines = ["Minimize", " obj: 0", "Subject To"]
    for name, terms, rel, rhs in ef.constraints:
        lines.append(f" {name}: {_render_flow_terms(terms)} {rel} {rhs}")
    for name, ((_, defined), *terms), rel, rhs in ef.projection:
        body = "".join(f" - {-coef} {v}" for coef, v in terms)
        lines.append(f" {name}: {defined}{body} {rel} {rhs}")
    lines.append("Bounds")
    lines.extend(f" {lo} <= {y} <= {hi}" for y, (lo, hi) in ef.lp.bounds.items())
    lines.append("End")
    return "\n".join(lines) + "\n"


# each section's header, lower-cased, and the section it opens
_HEADERS = {"minimize": "objective", "maximize": "objective", "subject to": "rows", "bounds": "bounds", "end": "end"}


def parse_lp(text: str) -> ParsedLP:
    section = None
    constraints: list = []
    bounds: dict = {}
    numbers = _Numbers()
    for raw in text.split("\n"):
        line = raw.strip()
        if not line or line.startswith("\\"):
            continue
        header = _HEADERS.get(line.lower())
        if header == "end":
            break
        if header is not None:
            section = header
        elif section == "rows":
            constraints.append(_parse_row(line, numbers))
        elif section == "bounds":
            var, span = _parse_bound(line, numbers)
            bounds[var] = span
    return ParsedLP(tuple(constraints), bounds)


class _Numbers(dict):
    """The number of each token, read once per distinct token of one
    `parse_lp` call: numbers are immutable, so every row can share them."""

    def __missing__(self, tok: str):
        x = self[tok] = parse_number(tok)
        return x


_RELATIONS = frozenset(("=", "<=", ">="))


def _parse_row(line: str, numbers: dict):
    if ":" not in line:
        raise PolytopeError(f"row without name: {_quote(line)}")
    name, expr = line.split(":", 1)
    toks = expr.split()
    if len(toks) < 2 or toks[-2] not in _RELATIONS or not _RELATIONS.isdisjoint(toks[:-2]):
        raise PolytopeError(f"row must end with 'rel number': {_quote(line)}")
    rhs = numbers[toks[-1]]
    terms: list[tuple] = []
    sign = 1  # the sign since the last name
    coef = None  # the number read since the last sign or name
    constant = 0
    for t in toks[:-2]:
        if t == "+" or t == "-":
            if coef is not None:
                constant += sign * coef
            sign, coef = -1 if t == "-" else 1, None
            continue
        if t[0].isalpha():  # a name: no number starts with a letter
            x = None
        else:
            x = numbers.get(t)
            if x is None and _NUMBER_START.match(t):  # a malformed number is an error, not a name
                x = numbers[t]
        if x is None:
            terms.append((sign if coef is None else sign * coef, t))
            sign, coef = 1, None
        else:
            if coef is not None:
                constant += sign * coef
            coef = x
    if coef is not None:
        constant += sign * coef
    return (name.strip(), tuple(terms), toks[-2], _whole(rhs - constant) if constant else rhs)


_NUMBER_START = re.compile(r"[-+]?\.?\d")  # how every token Fraction reads starts
_EXPONENT = re.compile(r"[-+]?(?=\.?\d)[\d_.]*[eE][-+]?([\d_]+)")  # as Fraction reads it


def parse_number(tok: str) -> int | Fraction:
    """An exact number of an LP file or a projection point: an int when
    it is integral, else a Fraction.  A decimal exponent has at most four
    digits: Fraction expands it exactly, so 1e10000000 alone takes
    seconds."""
    try:
        if tok.isdigit() and tok.isascii():  # the usual token, read without Fraction's regex
            return int(tok)
        exponent = _EXPONENT.fullmatch(tok)
        if exponent and len(exponent.group(1)) > 4:
            raise PolytopeError(f"exponent of {_quote(tok)} has more than 4 digits")
        return _whole(Fraction(tok))
    except (ValueError, ZeroDivisionError):
        raise PolytopeError(f"bad number {_quote(tok)}") from None


def _coordinate(name: str, v) -> int | Fraction:
    """The exact value of one coordinate of a point, on either path: an
    int when it is integral, else a Fraction.  A float means its exact
    binary value, so 0.5 is 1/2.  A string is read by parse_number, with
    its cap on the exponent, so '1e-2000000' fails at once instead of
    being expanded.  A NaN, an infinity or anything else that either
    refuses is an error that names the coordinate."""
    try:
        return parse_number(v) if isinstance(v, str) else _whole(Fraction(v))
    except PolytopeError as e:
        raise PolytopeError(f"coordinate {_quote(name)}: {e}") from None
    except (TypeError, ValueError, OverflowError, ZeroDivisionError):
        raise PolytopeError(f"coordinate {_quote(name)} is not a number: {_quote(v)}") from None


_BOUND_VARIABLE_AT = {2: 0, 3: 0, 5: 2}  # where each shape of bound line writes its variable


def _parse_bound(line: str, numbers: dict):
    """(variable, (lo, hi)) of a bound line, hi None for no upper end:
    `lo <= x <= hi`, `x <= hi` or `x free`, and no other shape.  A token
    that starts like a number names no variable, so `lo <= x`, `1 free`
    and `0 <= 2 <= 3` are refused."""
    toks = line.split()
    at = _BOUND_VARIABLE_AT.get(len(toks))
    if at is not None and (toks[at][0].isalpha() or not _NUMBER_START.match(toks[at])):
        if len(toks) == 2 and toks[1].lower() == "free":
            return toks[0], (None, None)
        if len(toks) == 5 and toks[1] == "<=" and toks[3] == "<=":
            return toks[2], (numbers[toks[0]], numbers[toks[4]])
        if len(toks) == 3 and toks[1] == "<=":
            return toks[0], (0, numbers[toks[2]])
    raise PolytopeError(f"unsupported bound line: {_quote(line)}")


def check_lp_feasibility(parsed: ParsedLP, point: dict) -> bool:
    """Feasibility of the parsed LP with the variables of `point` fixed."""
    return _phase_one_feasible(*_lp_system(parsed, point))


def _lp_system(parsed: ParsedLP, point: dict) -> tuple[list, dict]:
    """The equality rows that the presolve and the simplex take, and the
    bounds of their variables, every number an int when integral and else
    a Fraction.

    Fixed variables (typically the projection coordinates x_<i>) are
    substituted, each inequality gets a slack, and remaining variables
    take their Bounds entries, defaulting to [0, +inf) as in the LP
    format.  The k-th slack is named _r:<k>, its prefix lengthened by an
    underscore while a variable of the file starts with it, so no slack
    shares a name with a variable."""
    point = {v: _coordinate(v, c) for v, c in point.items()}
    rows: list = []
    slack_id = 0
    bounds: dict = {}
    prefix = "_r:"
    names = {v for _, terms, _, _ in parsed.constraints for _, v in terms}
    names.update(parsed.bounds)
    while any(v.startswith(prefix) for v in names):
        prefix = "_" + prefix
    for name, terms, rel, rhs in parsed.constraints:
        coeffs: dict = {}
        for coef, v in terms:
            if v in point:
                rhs -= coef * point[v]
            elif v in coeffs:  # a repeated variable: its coefficients add up
                coeffs[v] = _whole(coeffs[v] + coef)
            else:
                coeffs[v] = coef
        if rel in ("<=", ">="):
            sv = f"{prefix}{slack_id}"
            slack_id += 1
            coeffs[sv] = 1 if rel == "<=" else -1
            bounds[sv] = (0, None)
        rows.append((coeffs, _whole(rhs)))
    for coeffs, _ in rows:
        for v in coeffs:
            if v not in bounds:
                lo, hi = parsed.bounds.get(v, (0, None))
                if lo is None:
                    raise PolytopeError(f"free variable {_quote(v)} must be fixed by the point")
                bounds[v] = (lo, hi)
    return rows, bounds
