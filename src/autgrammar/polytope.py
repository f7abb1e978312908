"""Rule-flow extended formulations for the word polytope of an acyclic
positional grammar, with exact rational feasibility checks.

One flow variable per rule instance; one unit leaves the start variable,
and flow is conserved at every other variable.  Because the grammars built
by this package give every variable a single fixed span, integral flows are
exactly parse trees and the projection x_i (the symbol value written at
word position i) maps the flow polytope onto the convex hull of the word
vectors.  Feasibility of a fixed projection is decided over Fractions by an
exact doubleton presolve, which removes nearly every flow row, followed by
a phase-1 simplex on what is left, with Bland's rule guarding against
cycling; no floating point enters any verdict.  The emitted LP is always
the full formulation.

Layering: the LP-file path (`parse_lp`, `check_lp_feasibility`, the
presolve and the simplex) imports nothing from `grammar`.  Only
`build_extended_formulation` and `lift_parse_tree` import it, inside their
bodies, so deciding a point of an LP file never loads the grammar layer.
"""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

from . import PreconditionError

if TYPE_CHECKING:
    from .grammar import Grammar, ParseTree


class PolytopeError(PreconditionError):
    pass


@dataclass(frozen=True)
class Constraint:
    name: str
    terms: tuple[tuple[int, str], ...]  # (integer coefficient, variable)
    rel: str  # "=", "<=", ">="
    rhs: int


@dataclass(frozen=True, eq=False)
class ExtendedFormulation:
    grammar: Grammar
    flow_vars: tuple[str, ...]
    constraints: tuple[Constraint, ...]  # source + conservation
    bounds: dict  # flow var -> (0, 1)
    projection: dict  # word position -> ((coef, var), ...)
    word_length: int
    style: str = "value"
    matrix_projection: dict | None = None

    @property
    def num_constraints(self) -> int:
        # conservation + source + two bound rows per flow var + projection
        return len(self.constraints) + 2 * len(self.flow_vars) + self.word_length


def _spans(gr: Grammar, length_sets: dict) -> tuple[int, dict[str, int], dict[str, int]]:
    """Fixed length and start offset per variable; raises unless positional."""
    from .grammar import _rules_by_lhs

    if gr.accepts_empty:
        raise PolytopeError("grammar accepts the empty word; not positional")
    lengths: dict[str, int] = {}
    for v, ls in length_sets.items():
        if len(ls) != 1:
            raise PolytopeError(
                f"variable {v!r} derives strings of lengths {sorted(ls)}; not positional"
            )
        lengths[v] = next(iter(ls))
    offset: dict[str, int] = {gr.start: 1}
    pending = [gr.start]
    rules_by_lhs = _rules_by_lhs(gr)
    while pending:
        v = pending.pop(0)
        for _, rhs in rules_by_lhs[v]:
            at = offset[v]
            for x in rhs:
                if isinstance(x, int):
                    at += 1
                else:
                    if x in offset:
                        if offset[x] != at:
                            raise PolytopeError(
                                f"variable {x!r} occurs at spans starting {offset[x]} "
                                f"and {at}; not positional"
                            )
                    else:
                        offset[x] = at
                        pending.append(x)
                    at += lengths[x]
    for v in gr.variables:
        if v not in offset:
            raise PolytopeError(f"variable {v!r} unreachable; trim the grammar first")
    return lengths[gr.start], lengths, offset


def build_extended_formulation(gr: Grammar, style: str = "value") -> ExtendedFormulation:
    """Flow conservation + unit source + [0,1] bounds, with the value
    projection x_i = sum of (symbol written at i) * (rule flow)."""
    from .grammar import _variable_lengths

    if style not in ("value", "matrix"):
        raise PolytopeError(f"unknown projection style {style!r}")
    length_sets = _variable_lengths(gr)
    empty_language = not length_sets[gr.start] and not gr.accepts_empty
    if empty_language:
        # no words to project; the flow system itself is infeasible
        warnings.warn("grammar generates no words; source row is infeasible", stacklevel=2)
        n, lengths, offset = 0, {}, {}
    else:
        n, lengths, offset = _spans(gr, length_sets)
    flow_vars = tuple(f"y_{r}" for r in range(len(gr.rules)))

    out_rules: dict[str, list[int]] = {v: [] for v in gr.variables}
    occurrences: dict[str, list[int]] = {v: [] for v in gr.variables}
    writes: dict[int, list[tuple[int, int]]] = {}  # position -> (symbol, rule)
    for r, (lhs, rhs) in enumerate(gr.rules):
        out_rules[lhs].append(r)
        at = offset.get(lhs, 0)
        for x in rhs:
            if isinstance(x, int):
                if not empty_language:
                    writes.setdefault(at, []).append((x, r))
                at += 1
            else:
                occurrences[x].append(r)
                at += lengths.get(x, 0)

    constraints: list[Constraint] = []
    src_terms = tuple((1, f"y_{r}") for r in out_rules[gr.start])
    if not src_terms:
        warnings.warn("grammar has no start rule; source row is infeasible", stacklevel=2)
    constraints.append(Constraint("src", src_terms, "=", 1))
    var_index = {v: i for i, v in enumerate(gr.variables)}
    for v in gr.variables:
        if v == gr.start:
            continue
        terms = [(1, f"y_{r}") for r in out_rules[v]]
        in_count: dict[int, int] = {}
        for r in occurrences[v]:
            in_count[r] = in_count.get(r, 0) + 1
        terms.extend((-c, f"y_{r}") for r, c in sorted(in_count.items()))
        constraints.append(Constraint(f"c_{var_index[v]}", tuple(terms), "=", 0))

    projection = {
        i: tuple((sym, f"y_{r}") for sym, r in sorted(writes.get(i, [])))
        for i in range(1, n + 1)
    }
    matrix = None
    if style == "matrix":
        matrix = {}
        for i in range(1, n + 1):
            per_symbol: dict[int, list[int]] = {}
            for sym, r in writes.get(i, []):
                per_symbol.setdefault(sym, []).append(r)
            for sym in sorted(per_symbol):
                matrix[(i, sym)] = tuple((1, f"y_{r}") for r in sorted(per_symbol[sym]))
    return ExtendedFormulation(
        grammar=gr,
        flow_vars=flow_vars,
        constraints=tuple(constraints),
        bounds={y: (0, 1) for y in flow_vars},
        projection=projection,
        word_length=n,
        style=style,
        matrix_projection=matrix,
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
    lhs, _ = ef.grammar.rules[t.rule_index]
    if lhs != ef.grammar.start:
        raise PolytopeError("parse tree is not accepting (root is not the start rule)")
    return {y: Fraction(counts.get(r, 0)) for r, y in enumerate(ef.flow_vars)}


def evaluate_point(ef: ExtendedFormulation, point: dict) -> bool:
    """Exact check of every constraint and bound at the given point."""
    for c in ef.constraints:
        total = sum((Fraction(coef) * point[v] for coef, v in c.terms), Fraction(0))
        if c.rel == "=" and total != c.rhs:
            return False
        if c.rel == "<=" and total > c.rhs:
            return False
        if c.rel == ">=" and total < c.rhs:
            return False
    for v, (lo, hi) in ef.bounds.items():
        if not (lo <= point[v] <= hi):
            return False
    return True


def project_point(ef: ExtendedFormulation, point: dict) -> tuple[Fraction, ...]:
    return tuple(
        sum((Fraction(coef) * point[v] for coef, v in ef.projection[i]), Fraction(0))
        for i in range(1, ef.word_length + 1)
    )


# ---------------------------------------------------------------------------
# Exact presolve and phase-1 simplex over sparse rows: (coeffs dict
# var->Fraction, rhs Fraction) equality rows over variables with bounds
# var -> (finite lo, hi or None).

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
    reduced system, but the simplex breaks ties by column name: on the
    Petersen graph, keeping each chain's first name rather than its last
    took under a sixth of the pivots."""
    lo = {v: a for v, (a, _) in bounds.items()}
    hi = {v: b for v, (_, b) in bounds.items()}
    if any(b is not None and lo[v] > b for v, b in hi.items()):
        return None
    mat = [{v: c for v, c in coeffs.items() if c} for coeffs, _ in rows]
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
        p = rhs[i] / row[u]  # u = p + q*w
        if rest:
            w = rest[0]
            q = -row[w] / row[u]
            holders[w].discard(i)
            # p + q*w in [lo[u], hi[u]] bounds w on the side sign(q) says
            ends = ((lo[u] - p) / q, None if hi[u] is None else (hi[u] - p) / q)
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
                rhs[j] -= d * p
            if rest:
                c = d * q + other.get(w, 0)
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


def _simplex_feasible(rows: list, bounds: dict) -> bool:
    """Decides feasibility of the system, reduced or not, by minimizing
    the total artificial infeasibility with a bounded-variable simplex:
    upper bounds are handled as nonbasic-at-upper statuses instead
    of slack rows.  Pricing starts out steepest (largest reduced cost) and
    falls back to Bland's smallest-index rule after an iteration allowance,
    which guarantees termination; artificials never re-enter the basis, so
    a positive residue at optimality is a Farkas certificate."""
    ZERO, ONE = Fraction(0), Fraction(1)

    cols: dict[str, int] = {}
    upper: list = []  # per column: finite span or None

    def col(v: str, hi) -> int:
        if v not in cols:
            cols[v] = len(cols)
            upper.append(hi)
        return cols[v]

    # shift every variable to start at zero; sort for deterministic ids
    for v in sorted(bounds):
        lo, hi = bounds[v]
        span = None if hi is None else Fraction(hi) - Fraction(lo)
        if span is not None and span < 0:
            return False
        col(v, span)

    mat: list[dict[int, Fraction]] = []
    values: list[Fraction] = []  # current value of each row's basic variable
    basis: list[int] = []
    n_structural = len(cols)

    for coeffs, rhs in rows:
        row: dict[int, Fraction] = {}
        shifted = rhs
        for v, c in coeffs.items():
            if c == 0:
                continue
            lo = Fraction(bounds[v][0])
            if lo:
                shifted -= c * lo
            row[cols[v]] = Fraction(c)
        if not row:
            if shifted != 0:
                return False
            continue
        if shifted < 0:
            row = {j: -c for j, c in row.items()}
            shifted = -shifted
        a = col(f"_a:{len(mat)}", None)
        row[a] = ONE
        mat.append(row)
        values.append(shifted)
        basis.append(a)

    at_upper: set[int] = set()  # nonbasic structural columns sitting at their span
    in_basis = set(basis)

    # reduced costs of min(sum of artificials) after eliminating the basis
    obj: dict[int, Fraction] = {}
    for i in range(len(mat)):
        for j, c in mat[i].items():
            if j != basis[i]:
                nv = obj.get(j, ZERO) - c
                if nv:
                    obj[j] = nv
                else:
                    obj.pop(j, None)

    bland_after = 50 + 10 * len(mat)
    iteration = 0
    while True:
        iteration += 1
        bland = iteration > bland_after
        entering, direction, best_score = None, 1, ZERO
        for j, c in obj.items():
            if j >= n_structural or j in in_basis:
                continue
            if j in at_upper:
                if c > 0:
                    score = c
                    d = -1
                else:
                    continue
            elif c < 0:
                score = -c
                d = 1
            else:
                continue
            if bland:
                if entering is None or j < entering:
                    entering, direction = j, d
            elif score > best_score or (score == best_score and (entering is None or j < entering)):
                entering, direction, best_score = j, d, score
        if entering is None:
            break

        # ratio test: tightest event wins; ties go to the smallest variable
        # index (the entering column itself counts as a bound-flip event)
        limit = upper[entering]
        event = (entering, -1, "flip") if limit is not None else None
        for i, row in enumerate(mat):
            d = row.get(entering)
            if not d:
                continue
            step = direction * d
            if step > 0:
                t = values[i] / step
                kind = "lower"
            else:
                span = upper[basis[i]]
                if span is None:
                    continue
                t = (span - values[i]) / (-step)
                kind = "upper"
            if limit is None or t < limit or (t == limit and (event is None or basis[i] < event[0])):
                limit, event = t, (basis[i], i, kind)
        if limit is None:
            raise PolytopeError("phase-1 objective unbounded; inconsistent system")

        if limit > 0:
            for i, row in enumerate(mat):
                d = row.get(entering)
                if d:
                    values[i] -= direction * d * limit

        if event[2] == "flip":
            if direction == 1:
                at_upper.add(entering)
            else:
                at_upper.discard(entering)
            continue

        leaving, r, kind = event
        if kind == "upper":
            at_upper.add(leaving)
        at_upper.discard(entering)
        in_basis.discard(leaving)
        in_basis.add(entering)
        piv_row = mat[r]
        piv = piv_row[entering]
        if piv != 1:
            mat[r] = piv_row = {j: c / piv for j, c in piv_row.items()}
        for i, row in enumerate(mat):
            if i == r:
                continue
            f = row.get(entering)
            if f:
                for j, c in piv_row.items():
                    nv = row.get(j, ZERO) - f * c
                    if nv:
                        row[j] = nv
                    else:
                        row.pop(j, None)
        f = obj.get(entering)
        if f:
            for j, c in piv_row.items():
                nv = obj.get(j, ZERO) - f * c
                if nv:
                    obj[j] = nv
                else:
                    obj.pop(j, None)
        basis[r] = entering
        values[r] = limit if direction == 1 else upper[entering] - limit

    residue = sum(
        (values[i] for i, b in enumerate(basis) if b >= n_structural), ZERO
    )
    return residue == 0


def check_projection_feasibility(ef: ExtendedFormulation, x) -> bool:
    """Exact membership of the point x in the projected polytope."""
    return _phase_one_feasible(*_projection_system(ef, x))


def _projection_system(ef: ExtendedFormulation, x) -> tuple[list, dict]:
    """The flow rows, one row per coordinate of x, and the flow bounds."""
    values = [Fraction(v) for v in x]
    if len(values) != ef.word_length:
        raise PolytopeError(
            f"point has dimension {len(values)}, expected {ef.word_length}"
        )
    rows: list[tuple[dict[str, Fraction], Fraction]] = []
    for c in ef.constraints:
        coeffs: dict[str, Fraction] = {}
        for coef, v in c.terms:
            coeffs[v] = coeffs.get(v, Fraction(0)) + coef
        rows.append((coeffs, Fraction(c.rhs)))
    for i in range(1, ef.word_length + 1):
        coeffs = {}
        for coef, v in ef.projection[i]:
            coeffs[v] = coeffs.get(v, Fraction(0)) + coef
        rows.append((coeffs, values[i - 1]))
    return rows, {v: (Fraction(0), Fraction(1)) for v in ef.flow_vars}


# ---------------------------------------------------------------------------
# CPLEX LP text.

def _render_flow_terms(terms) -> str:
    if not terms:
        return "0"
    parts: list[str] = []
    for k, (coef, v) in enumerate(terms):
        mag = abs(coef)
        body = v if mag == 1 else f"{mag} {v}"
        if k == 0:
            parts.append(body if coef > 0 else f"- {body}")
        else:
            parts.append(f"+ {body}" if coef > 0 else f"- {body}")
    return " ".join(parts)


def emit_lp(ef: ExtendedFormulation) -> str:
    """Feasibility LP: flow rows, definitional projection rows introducing
    the x (or z) variables, and [0,1] bounds on every flow variable."""
    lines = ["Minimize", " obj: 0", "Subject To"]
    for c in ef.constraints:
        if c.name == "src" and not c.terms:
            warnings.warn("emitting infeasible source row for empty grammar", stacklevel=2)
        lines.append(f" {c.name}: {_render_flow_terms(c.terms)} {c.rel} {c.rhs}")
    if ef.style == "matrix":
        for (i, sym), terms in sorted(ef.matrix_projection.items()):
            body = " ".join(f"- {coef} {v}" for coef, v in terms)
            lines.append(f" pz{i}_{sym}: z_{i}_{sym} {body} = 0")
    else:
        for i in range(1, ef.word_length + 1):
            body = " ".join(f"- {coef} {v}" for coef, v in ef.projection[i])
            row = f" px{i}: x_{i} {body} = 0" if body else f" px{i}: x_{i} = 0"
            lines.append(row)
    lines.append("Bounds")
    for y in ef.flow_vars:
        lo, hi = ef.bounds[y]
        lines.append(f" {lo} <= {y} <= {hi}")
    lines.append("End")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class ParsedLP:
    constraints: tuple  # (name, ((Fraction coef, var), ...), rel, Fraction rhs)
    bounds: dict  # var -> (Fraction lo, Fraction hi or None)


def parse_lp(text: str) -> ParsedLP:
    section = None
    constraints: list = []
    bounds: dict = {}
    for raw in text.split("\n"):
        line = raw.strip()
        if not line or line.startswith("\\"):
            continue
        lowered = line.lower()
        if lowered in ("minimize", "maximize"):
            section = "objective"
            continue
        if lowered == "subject to":
            section = "rows"
            continue
        if lowered == "bounds":
            section = "bounds"
            continue
        if lowered == "end":
            break
        if section == "objective":
            continue
        if section == "rows":
            constraints.append(_parse_row(line))
        elif section == "bounds":
            var, lo, hi = _parse_bound(line)
            bounds[var] = (lo, hi)
    return ParsedLP(tuple(constraints), bounds)


def _parse_row(line: str):
    if ":" not in line:
        raise PolytopeError(f"row without name: {_quote(line)}")
    name, expr = line.split(":", 1)
    toks = expr.split()
    rel_at = next((k for k, t in enumerate(toks) if t in ("=", "<=", ">=")), None)
    if rel_at is None or rel_at != len(toks) - 2:
        raise PolytopeError(f"row must end with 'rel number': {_quote(line)}")
    rel = toks[rel_at]
    rhs = parse_number(toks[-1])
    terms: list[tuple[Fraction, str]] = []
    sign = Fraction(1)
    coef: Fraction | None = None
    constant = Fraction(0)
    for t in toks[:rel_at]:
        if t == "+":
            if coef is not None:
                constant += sign * coef
            sign, coef = Fraction(1), None
        elif t == "-":
            if coef is not None:
                constant += sign * coef
            sign, coef = Fraction(-1), None
        elif _NUMBER_START.match(t):  # a malformed number is an error, not a name
            if coef is not None:
                constant += sign * coef
            coef = parse_number(t)
        else:
            terms.append((sign * (coef if coef is not None else 1), t))
            sign, coef = Fraction(1), None
    if coef is not None:
        constant += sign * coef
    return (name.strip(), tuple(terms), rel, rhs - constant)


_NUMBER_START = re.compile(r"[-+]?\.?\d")  # how every token Fraction reads starts
_EXPONENT = re.compile(r"[-+]?(?=\.?\d)[\d_.]*[eE][-+]?([\d_]+)")  # as Fraction reads it


def _fraction(tok: str) -> Fraction:
    """Fraction(tok) with a decimal exponent of at most four digits:
    Fraction expands it exactly, so 1e10000000 alone takes seconds."""
    exponent = _EXPONENT.fullmatch(tok)
    if exponent and len(exponent.group(1)) > 4:
        raise PolytopeError(f"exponent of {_quote(tok)} has more than 4 digits")
    return Fraction(tok)


def _quote(tok: str) -> str:
    """tok for an error line: a 5000-digit number or a 3000-term row must
    not fill the screen."""
    if len(tok) <= 20:
        return repr(tok)
    return f"{tok[:20]!r}… ({len(tok)} characters)"


def parse_number(tok: str) -> Fraction:
    """An exact number of an LP file or a projection point."""
    try:
        return _fraction(tok)
    except (ValueError, ZeroDivisionError):
        raise PolytopeError(f"bad number {_quote(tok)}") from None


def _parse_bound(line: str):
    toks = line.split()
    if len(toks) == 2 and toks[1].lower() == "free":
        return toks[0], None, None
    if len(toks) == 5 and toks[1] == "<=" and toks[3] == "<=":
        return toks[2], parse_number(toks[0]), parse_number(toks[4])
    if len(toks) == 3 and toks[1] == "<=":
        return toks[0], Fraction(0), parse_number(toks[2])
    raise PolytopeError(f"unsupported bound line: {_quote(line)}")


def check_lp_feasibility(parsed: ParsedLP, point: dict) -> bool:
    """Feasibility of the parsed LP with the given variables fixed.

    Fixed variables (typically the projection coordinates x_<i>) are
    substituted; remaining variables take their Bounds entries, defaulting
    to [0, +inf) as in the LP format."""
    rows: list[tuple[dict[str, Fraction], Fraction]] = []
    slack_id = 0
    bounds: dict[str, tuple[Fraction, Fraction | None]] = {}
    for name, terms, rel, rhs in parsed.constraints:
        coeffs: dict[str, Fraction] = {}
        adjusted = rhs
        for coef, v in terms:
            if v in point:
                adjusted -= coef * point[v]
                continue
            coeffs[v] = coeffs.get(v, Fraction(0)) + coef
        if rel in ("<=", ">="):
            sv = f"_r:{slack_id}"
            slack_id += 1
            coeffs[sv] = Fraction(1) if rel == "<=" else Fraction(-1)
            bounds[sv] = (Fraction(0), None)
        rows.append((coeffs, adjusted))
    for coeffs, _ in rows:
        for v in coeffs:
            if v not in bounds:
                lo, hi = parsed.bounds.get(v, (Fraction(0), None))
                if lo is None:
                    raise PolytopeError(f"free variable {v!r} must be fixed by the point")
                bounds[v] = (lo, hi)
    return _phase_one_feasible(rows, bounds)
