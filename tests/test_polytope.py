import copy
import fractions
import functools
import itertools
import math
import pickle
import sys
import time
import warnings
from fractions import Fraction

import pytest

from autgrammar.annotate import build_aut_grammar, build_regular_aut_grammar
from autgrammar.decomp import (
    compute_path_decomposition,
    compute_tree_decomposition,
    make_permutation_yielding,
)
from autgrammar.grammar import (
    Grammar,
    enumerate_language,
    enumerate_parse_trees,
    parse_tree_yield,
    union_grammar,
)
from autgrammar.oracle import brute_force_automorphisms
from autgrammar.perm import Permutation, permute_word, to_string_word
from autgrammar import polytope
from autgrammar.polytope import (
    PolytopeError,
    _phase_one_feasible,
    _lp_system,
    _presolve,
    _projection_verdict,
    _simplex_feasible,
    build_extended_formulation,
    check_lp_feasibility,
    check_projection_feasibility,
    emit_lp,
    lift_parse_tree,
    parse_lp,
    project_point,
)
from conftest import (
    _lp_corpus,
    binary_tree,
    check_certificate,
    complete_graph,
    corpus_formulations,
    corpus_points,
    cycle_graph,
    evaluate_point,
    grid_graph,
    lp_corpus_points,
    lp_number_types,
    petersen_graph,
    reference_projection_verdict,
    reference_simplex_feasible,
    star_graph,
)


def aut_ef(g):
    t, _ = make_permutation_yielding(g, compute_tree_decomposition(g, "min-fill"))
    alpha, gr = build_aut_grammar(g, t)
    return alpha, gr, build_extended_formulation(gr)


def test_single_rule_grammar():
    gr = Grammar(2, "B1", ("B1",), (("B1", (1, 2)),))
    ef = build_extended_formulation(gr)
    assert ef.flow_vars == ("y_0",)
    assert ef.word_length == 2
    assert ef.projection == (
        ("px1", ((1, "x_1"), (-1, "y_0")), "=", 0),
        ("px2", ((1, "x_2"), (-2, "y_0")), "=", 0),
    )
    point = {"y_0": Fraction(1)}
    assert evaluate_point(ef, point)
    assert project_point(ef, point) == (Fraction(1), Fraction(2))


def test_extended_formulation_equals_only_itself():
    gr = Grammar(2, "B1", ("B1",), (("B1", (1, 2)),))
    a, b = build_extended_formulation(gr), build_extended_formulation(gr)
    assert (a.flow_vars, a.constraints, a.projection, a.word_length) == (
        b.flow_vars, b.constraints, b.projection, b.word_length
    )
    assert a != b and a == a and len({a, b}) == 2
    with pytest.raises(AttributeError):
        a.word_length = 3
    assert repr(a).startswith("ExtendedFormulation(grammar=Grammar(sigma_max=2, ")


@pytest.mark.parametrize("style", ["value", "matrix"])
def test_extended_formulation_pickles_and_copies(style):
    # pickle and both copies give a new formulation, equal only to itself,
    # with the same rows and the same repr
    _, gr, _ = aut_ef(cycle_graph(5))
    ef = build_extended_formulation(gr, style)
    for back in (pickle.loads(pickle.dumps(ef)), copy.copy(ef), copy.deepcopy(ef)):
        assert back is not ef and back != ef
        assert back.lp == ef.lp and repr(back) == repr(ef)


def test_unknown_projection_style_rejected():
    gr = Grammar(2, "B1", ("B1",), (("B1", (1, 2)),))
    with pytest.raises(PolytopeError, match="^unknown projection style 'bogus'$"):
        build_extended_formulation(gr, "bogus")


def test_single_rule_lp_rows():
    gr = Grammar(2, "B1", ("B1",), (("B1", (1, 2)),))
    lp = emit_lp(build_extended_formulation(gr))
    lines = [ln.strip() for ln in lp.split("\n")]
    assert "src: y_0 = 1" in lines
    assert "px1: x_1 - 1 y_0 = 0" in lines
    assert "px2: x_2 - 2 y_0 = 0" in lines
    assert "0 <= y_0 <= 1" in lines


def test_lifts_feasible_and_project(c4):
    alpha, gr, ef = aut_ef(c4)
    trees = enumerate_parse_trees(gr)
    assert len(trees) == 8
    for t in trees:
        point = lift_parse_tree(ef, t)
        assert set(point.values()) <= {Fraction(0), Fraction(1)}
        assert evaluate_point(ef, point)
        w = parse_tree_yield(gr, t)
        assert project_point(ef, point) == tuple(Fraction(s) for s in w.symbols)


def test_convex_combinations_feasible(c4):
    _, gr, ef = aut_ef(c4)
    trees = enumerate_parse_trees(gr)
    p1 = lift_parse_tree(ef, trees[0])
    p2 = lift_parse_tree(ef, trees[1])
    mid = {v: (p1[v] + p2[v]) / 2 for v in p1}
    assert evaluate_point(ef, mid)
    third = {v: p1[v] / 3 + 2 * p2[v] / 3 for v in p1}
    assert evaluate_point(ef, third)


def test_union_midpoint_projects_to_average():
    g1 = Grammar(4, "B1", ("B1",), (("B1", (1, 2)),))
    g2 = Grammar(4, "B1", ("B1",), (("B1", (3, 4)),))
    u = union_grammar(g1, g2)
    ef = build_extended_formulation(u)
    trees = enumerate_parse_trees(u)
    assert len(trees) == 2
    pts = [lift_parse_tree(ef, t) for t in trees]
    mid = {v: (pts[0][v] + pts[1][v]) / 2 for v in pts[0]}
    assert evaluate_point(ef, mid)
    assert project_point(ef, mid) == (Fraction(2), Fraction(3))


def test_feasibility_matches_group_membership(p3):
    alpha, gr, ef = aut_ef(p3)
    auts = set(brute_force_automorphisms(p3))
    for img in itertools.permutations(range(1, 4)):
        sigma = Permutation(img)
        x = permute_word(to_string_word(sigma), alpha).symbols
        assert check_projection_feasibility(ef, x) == (sigma in auts)


def test_feasibility_exhaustive_small_corpus(p3, p4, c4, c5, k4, star5):
    # complete agreement with group membership over every permutation
    # vector, for all corpus graphs on at most five vertices, on both the
    # projection path and the LP-text path of the `check` command; every
    # projection verdict's certificate passes the independent checker
    for g in (p3, p4, c4, c5, k4, star5):
        alpha, gr, ef = aut_ef(g)
        parsed = parse_lp(emit_lp(ef))
        auts = set(brute_force_automorphisms(g))
        for img in itertools.permutations(range(1, g.vertex_count + 1)):
            sigma = Permutation(img)
            x = permute_word(to_string_word(sigma), alpha).symbols
            verdict, certificate = _projection_verdict(ef, x)
            assert verdict == (sigma in auts), img
            check_certificate(gr, x, verdict, certificate)
            point = {f"x_{i}": Fraction(v) for i, v in enumerate(x, start=1)}
            assert check_lp_feasibility(parsed, point) == (sigma in auts), img


def test_projection_agrees_with_lp_file_on_random_points():
    # seeded rational points: convex combinations of words (members), the
    # same with one coordinate moved by 1/2 (non-members: every word has
    # the coordinate sum 1 + ... + n), with two coordinates moved by 1/2
    # in opposite directions (either), and permutation words outside the
    # language (non-members: a vertex of the permutahedron is in conv(words)
    # only if it is a word); both paths give each the same verdict
    import random

    rng = random.Random(1990)
    for g in (cycle_graph(5), complete_graph(4), star_graph(4), grid_graph(3, 3)):
        alpha, gr, ef = aut_ef(g)
        parsed = parse_lp(emit_lp(ef))
        language = [w.symbols for w in enumerate_language(gr).words]
        n = g.vertex_count
        points = []
        for _ in range(10):
            chosen = rng.sample(language, min(len(language), rng.randint(1, 4)))
            weights = [Fraction(rng.randint(1, 9)) for _ in chosen]
            x = [sum(c * w[i] for c, w in zip(weights, chosen)) / sum(weights) for i in range(n)]
            points.append((x, True))
            i, j = rng.sample(range(n), 2)
            step = rng.choice((-1, 1)) * Fraction(1, 2)
            points.append(([v + step * (k == i) for k, v in enumerate(x)], False))
            points.append(([v + step * ((k == i) - (k == j)) for k, v in enumerate(x)], None))
        for _ in range(10):
            x = permute_word(to_string_word(Permutation(tuple(rng.sample(range(1, n + 1), n)))), alpha)
            points.append((x.symbols, None if x.symbols in language else False))
        verdicts = []
        for x, known in points:
            verdict, certificate = _projection_verdict(ef, x)
            check_certificate(gr, x, verdict, certificate)
            point = {f"x_{i}": Fraction(v) for i, v in enumerate(x, start=1)}
            assert verdict == check_lp_feasibility(parsed, point), x
            assert known is None or verdict == known, x
            verdicts.append(verdict)
        assert 0 < sum(verdicts) < len(verdicts)


def test_projection_points_of_larger_groups():
    # the Petersen graph (|Aut| = 120, 690 rules) and btree4 (|Aut| = 2^15,
    # 524 rules): answers from the closed forms, each decided in under 1 s
    import time

    def word(g, alpha, swap=None):
        image = list(g.vertices)
        if swap:
            u, v = swap
            image[u - 1], image[v - 1] = v, u
        sigma = Permutation(tuple(image))
        is_aut = all(g.has_edge(sigma(u), sigma(v)) for u, v in g.edges)
        return permute_word(to_string_word(sigma), alpha).symbols, is_aut

    petersen, btree4 = petersen_graph(), binary_tree(4)
    cases = []
    alpha, gr, ef = aut_ef(petersen)
    cases.append((gr, ef, *word(petersen, alpha)))
    cases.append((gr, ef, *word(petersen, alpha, (1, 2))))  # maps edge 2-3 to non-edge 1-3
    alpha, gr, ef = aut_ef(btree4)
    cases.append((gr, ef, *word(btree4, alpha)))
    leaf_swap, member = word(btree4, alpha, (16, 17))  # two leaves of one parent
    identity_word = word(btree4, alpha)[0]
    cases.append((gr, ef, [Fraction(a + b, 2) for a, b in zip(identity_word, leaf_swap)], member))
    assert [expected for *_, expected in cases] == [True, False, True, True]
    for gr, ef, x, expected in cases:
        start = time.perf_counter()
        verdict, certificate = _projection_verdict(ef, x)
        elapsed = time.perf_counter() - start
        assert verdict == expected and elapsed < 1.0, (len(x), elapsed)
        check_certificate(gr, x, verdict, certificate)


def test_projection_matches_reference():
    # the integer master LP takes the Fraction reference's pivots: the same
    # verdict and the same certificate, element for element and type for
    # type, on each corpus grammar's words, midpoint, raised point,
    # centroid and reversed first word
    decided = 0
    for gr, ef, words in corpus_formulations():
        points = corpus_points(words)
        if words:
            n = len(words[0])
            points += [[Fraction(sum(w[i] for w in words), len(words)) for i in range(n)], words[0][::-1]]
        for x in points:
            verdict = _projection_verdict(ef, x)
            expected = reference_projection_verdict(ef, x)
            assert verdict == expected and repr(verdict) == repr(expected), x
            check_certificate(gr, x, *verdict)
            decided += 1
    assert decided == 121


def test_projection_makes_no_fraction_per_round(monkeypatch):
    # btree4's identity word (feasible) makes one Fraction per coordinate
    # and one per certificate weight, and the word with its last
    # coordinate raised by 1/2 (infeasible) only the coordinates': no
    # round of the master LP makes one
    made = []

    class Counting(Fraction):
        def __new__(cls, *args, **kwargs):
            made.append(args)
            return super().__new__(cls, *args, **kwargs)

    g = binary_tree(4)
    alpha, gr, ef = aut_ef(g)
    x = permute_word(to_string_word(Permutation(tuple(g.vertices))), alpha).symbols
    raised = [*x[:-1], x[-1] + Fraction(1, 2)]
    monkeypatch.setattr(polytope, "Fraction", Counting)
    verdict, certificate = _projection_verdict(ef, x)
    assert verdict and len(made) <= len(x) + len(certificate), len(made)
    made.clear()
    verdict, _ = _projection_verdict(ef, raised)
    assert not verdict and len(made) <= len(x), len(made)


def test_float_and_bad_coordinates(c4):
    # on both paths a float coordinate means its exact binary value, and
    # a NaN, an infinity or None is a PolytopeError naming the coordinate.
    # A string is read by parse_number, so '1/2' is 1/2 and an exponent of
    # more than four digits is refused at once, not expanded: Fraction
    # alone took about 1 s on '1e-2000000'
    lp = parse_lp("Subject To\n r1: x_1 - y_0 = 0\nBounds\n 0 <= y_0 <= 1\nEnd\n")
    assert check_lp_feasibility(lp, {"x_1": 0.5}) == check_lp_feasibility(lp, {"x_1": Fraction(1, 2)}) is True
    assert check_lp_feasibility(lp, {"x_1": "1/2"}) is True
    assert not check_lp_feasibility(lp, {"x_1": 1.5})
    _, gr, ef = aut_ef(c4)
    centroid = (2.5,) * 4
    assert _projection_verdict(ef, centroid) == _projection_verdict(ef, (Fraction(5, 2),) * 4)
    assert _projection_verdict(ef, ("5/2", "2.5", "25e-1", 2.5)) == _projection_verdict(ef, centroid)
    half = (1, 2, 3, Fraction(1, 2))
    assert _projection_verdict(ef, (1, 2, 3, "1/2")) == _projection_verdict(ef, (1, 2, 3, 0.5)) == _projection_verdict(ef, half)
    assert check_projection_feasibility(ef, centroid)
    assert not check_projection_feasibility(ef, (2.5, 2.5, 2.5, 3.0))
    for bad in (math.nan, math.inf, -math.inf, None, "1e-2000000", "1e" + "9" * 40, "1/0", "x"):
        start = time.process_time()
        with pytest.raises(PolytopeError, match="coordinate 'x_1'"):
            check_lp_feasibility(lp, {"x_1": bad})
        with pytest.raises(PolytopeError, match="coordinate 'x_2'"):
            check_projection_feasibility(ef, (1, bad, 3, 4))
        assert time.process_time() - start < 0.1, bad


def test_projection_edge_points(c4):
    # zero, negative and non-integral coordinates, on both paths; C4's
    # group is transitive, so its centroid (5/2, ..., 5/2) is a member
    _, gr, ef = aut_ef(c4)
    parsed = parse_lp(emit_lp(ef))
    points = [
        (0, 0, 0, 0), (-1, 2, 3, 4), (Fraction(5, 2),) * 4, (Fraction(5, 2),) * 3 + (3,),
        (1, -2, 3, 8), (Fraction(1, 3), Fraction(11, 3), 2, 4), (Fraction(3, 2), 2, 3, Fraction(7, 2)),
    ]
    verdicts = []
    for x in points:
        verdict, certificate = _projection_verdict(ef, x)
        check_certificate(gr, x, verdict, certificate)
        point = {f"x_{i}": Fraction(v) for i, v in enumerate(x, start=1)}
        assert verdict == check_lp_feasibility(parsed, point), x
        verdicts.append(verdict)
    assert verdicts[:4] == [False, False, True, False]


def _random_system(rng, span_denominator=1):
    # rows through a planted point, some with a shifted rhs; bounds around
    # the point, some without an upper end and a few empty.  Each upper
    # end lies 0, 1 or 2 over span_denominator above the point
    names = [f"v{k}" for k in range(rng.randint(1, 6))]
    point = {v: Fraction(rng.randint(-4, 4), rng.choice((1, 2))) for v in names}
    bounds = {}
    for v in names:
        lo = point[v] - rng.randint(0, 2)
        hi = None if rng.random() < 0.3 else point[v] + Fraction(rng.randint(0, 2), span_denominator)
        if rng.random() < 0.05:
            lo, hi = point[v] + 1, point[v]
        bounds[v] = (lo, hi)
    rows = []
    for _ in range(rng.randint(1, 6)):
        size = min(len(names), rng.choice((0, 1, 2, 2, 2, 3, 4)))
        coeffs = {
            v: Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 1, 2)))
            for v in rng.sample(names, size)
        }
        rhs = sum((c * point[v] for v, c in coeffs.items()), Fraction(0))
        if rng.random() < 0.15:
            rhs += rng.choice((-1, 1))
        rows.append((coeffs, rhs))
    return rows, bounds


def test_presolve_keeps_verdicts():
    import random

    rng = random.Random(1995)
    verdicts = []
    for _ in range(400):
        rows, bounds = _random_system(rng)
        verdict = _simplex_feasible(rows, bounds)
        assert _phase_one_feasible(rows, bounds) == verdict, (rows, bounds)
        verdicts.append(verdict)
    assert 100 < sum(verdicts) < 300  # both verdicts well represented


def _whole_as_int(rows, bounds):
    # the same system with every integral number a plain int
    def whole(v):
        return v if v is None or v.denominator != 1 else v.numerator

    return (
        [({v: whole(c) for v, c in coeffs.items()}, whole(rhs)) for coeffs, rhs in rows],
        {v: (whole(lo), whole(hi)) for v, (lo, hi) in bounds.items()},
    )


def test_simplex_matches_reference_on_random_systems():
    # the integer tableau against the Fraction one, raw and presolved, with
    # the numbers as Fractions and with integral ones as plain ints (where
    # a stray `/` on two ints would make a float).  The second round puts
    # upper ends a third of a unit off the point, so columns reach spans
    # such as 7/3 by bound flips and by leaving the basis at their upper
    # end, where each complemented row is first scaled by the span's
    # denominator
    import random

    for span_denominator in (1, 3):
        rng = random.Random(1968)
        verdicts = []
        for _ in range(2000):
            rows, bounds = _random_system(rng, span_denominator)
            expected = reference_simplex_feasible(rows, bounds)
            as_ints = _whole_as_int(rows, bounds)
            assert _simplex_feasible(rows, bounds) == expected, (rows, bounds)
            assert _simplex_feasible(*as_ints) == expected, (rows, bounds)
            for system in (rows, bounds), as_ints:
                reduced = _presolve(*system)
                assert (reduced is not None and reference_simplex_feasible(*reduced)) == expected
                assert (reduced is not None and _simplex_feasible(*reduced)) == expected
            verdicts.append(expected)
        assert 500 < sum(verdicts) < 1500


@functools.cache
def _decided_lp_corpus() -> list:
    """(parsed LP, point, presolved system, the reference's verdict) for
    the LP-file points of every corpus grammar whose presolved system has
    at most 150 rows, and (parsed LP, point, None, False) for those the
    presolve alone rejects.  Left out is Petersen's path grammar's (181
    rows, 141 before the regular grammars were determinised).  btree3's
    path grammar's, left out at 228 rows, where the reference took up to
    14 s a point, is 38 rows since and is decided."""
    out = []
    for parsed, point in lp_corpus_points():
        reduced = _presolve(*_lp_system(parsed, point))
        if reduced is None:
            out.append((parsed, point, None, False))
        elif len(reduced[0]) <= 150:
            out.append((parsed, point, reduced, reference_simplex_feasible(*reduced)))
    return out


def test_simplex_matches_reference_on_lp_corpus():
    # every graph the lp-check benchmark decides.  Petersen's tree
    # grammar's system, 161 rows while B1 had a unit rule to each root
    # class, is 101 since the root's classes are B1's rules, so its three
    # points are decided here too (61 before, 64 now).  The presolve alone
    # rejects the raised points of P5's two grammars; that of star4's tree
    # grammar, which it rejected while each leaf had a variable of its
    # own, reaches the simplex (22 rows).  btree4's tree grammar's system,
    # 170 rows before the tree grammars shared their rules' prefixes, is
    # 114 since, so its three points are decided too (67).  Since the
    # regular grammars are deterministic automata, btree3's path grammar's
    # three points are decided and Petersen's are not, so it stays 67
    decided = 0
    for parsed, point, reduced, expected in _decided_lp_corpus():
        if reduced is None:
            assert not check_lp_feasibility(parsed, point)
            continue
        assert _simplex_feasible(*reduced) == expected == check_lp_feasibility(parsed, point), point
        decided += 1
    assert decided == 67


def test_blands_rule_matches_reference_on_lp_corpus(monkeypatch):
    # with no allowance for Dantzig's rule every pivot is priced by
    # Bland's smallest-index rule, the anti-cycling fallback: its verdicts
    # are the reference's on the same systems
    monkeypatch.setattr(polytope, "_DANTZIG_PIVOTS_PER_ROW", 0)
    decided = [_simplex_feasible(*reduced) == expected
               for _, _, reduced, expected in _decided_lp_corpus() if reduced is not None]
    assert decided == [True] * 67


def _integral(system) -> bool:
    rows, bounds = system
    numbers = [n for coeffs, rhs in rows for n in (*coeffs.values(), rhs)]
    numbers += [b for lo_hi in bounds.values() for b in lo_hi if b is not None]
    return all(type(n) is int for n in numbers)


def test_simplex_makes_no_fraction_on_integral_systems():
    # each basic value is the rhs entry of its integer row over the row's
    # basic coefficient, and the ratio test cross-multiplies, so on a
    # system whose numbers are all ints after the presolve the simplex
    # calls nothing in fractions.py: every such system of the LP corpus,
    # and Petersen's and btree4's identity words.  Their rows are taken
    # times their lcm of denominators, as the simplex's set-up takes them:
    # while each leaf had a variable of its own, btree4's presolve left two
    # rows with a coefficient -2/3 (from a projection row that the point
    # made -2 y_a - 3 y_b = -2); now every lcm is 1.  Determinising the
    # regular grammars made no system integral or fractional that was not,
    # so the count stayed 34
    systems = [_presolve(*_lp_system(parsed, point)) for parsed, point in lp_corpus_points()]
    systems = [s for s in systems if s is not None and _integral(s)]
    assert len(systems) == 34
    for g in (petersen_graph(), binary_tree(4)):
        alpha, gr, ef = aut_ef(g)
        x = permute_word(to_string_word(Permutation(tuple(g.vertices))), alpha).symbols
        rows, bounds = _presolve(*_lp_system(ef.lp, {f"x_{i}": v for i, v in enumerate(x, start=1)}))
        scales = [math.lcm(*(n.denominator for n in (*coeffs.values(), rhs))) for coeffs, rhs in rows]
        rows = [({v: int(c * k) for v, c in coeffs.items()}, int(rhs * k)) for (coeffs, rhs), k in zip(rows, scales)]
        systems.append((rows, bounds))
        assert _integral(systems[-1])
    calls = []

    def hook(frame, event, arg):
        if event == "call" and frame.f_code.co_filename == fractions.__file__:
            calls.append(frame.f_code.co_name)

    for rows, bounds in systems:
        sys.setprofile(hook)
        try:
            _simplex_feasible(rows, bounds)
        finally:
            sys.setprofile(None)
        assert not calls, (len(rows), calls[:5])


def test_variable_named_like_an_artificial():
    # the simplex's artificials are numbered columns with no name, so a
    # variable named `_a:0` is a structural column like any other: three
    # variables in [0, 1] cannot sum to 5
    for name in ("_a:0", "a0"):
        lp = parse_lp(f"Subject To\n r: x_1 + {name} + y + z = 5\nBounds\n"
                      + "".join(f" 0 <= {v} <= 1\n" for v in (name, "y", "z")) + "End\n")
        assert not check_lp_feasibility(lp, {"x_1": 0}), name


def test_bound_flip_at_fractional_span():
    # one row of three terms, which the presolve keeps, over columns of
    # span 1/2: x_1 = 3/2 puts all three at their span (bound flips that
    # complement a column at a Fraction span), 7/5 stops inside it, and 2
    # and -1 are out of reach
    lp = parse_lp(
        "Subject To\n r1: x_1 - y_0 - y_1 - y_2 = 0\nBounds\n"
        + "".join(f" 0 <= y_{k} <= 1/2\n" for k in range(3)) + "End\n"
    )
    for x, expected in ((Fraction(3, 2), True), (Fraction(7, 5), True), (0, True), (2, False), (-1, False)):
        rows, bounds = _presolve(*_lp_system(lp, {"x_1": x}))
        assert len(rows) == 1 and bounds == dict.fromkeys(("y_0", "y_1", "y_2"), (0, Fraction(1, 2)))
        assert _simplex_feasible(rows, bounds) == reference_simplex_feasible(rows, bounds) == expected, x
        assert check_lp_feasibility(lp, {"x_1": x}) == expected, x


def test_petersen_lp_file_point_time():
    # Petersen's identity word on the LP-file path: 101 rows after the
    # presolve, most of them crashed before the first pivot; 9 ms on a
    # 2-core VM (161 rows and 20 ms while B1 had a unit rule to each root
    # class, 231 rows and 43 ms while each leaf had a variable of its own),
    # 3-5 s before the grammar's variables were merged and the crash added
    import time

    g = petersen_graph()
    alpha, gr, ef = aut_ef(g)
    x = permute_word(to_string_word(Permutation(tuple(g.vertices))), alpha).symbols
    parsed = parse_lp(emit_lp(ef))
    start = time.process_time()
    verdict = check_lp_feasibility(parsed, {f"x_{i}": v for i, v in enumerate(x, start=1)})
    elapsed = time.process_time() - start
    assert verdict and elapsed < 1.0, elapsed


def path_ef(g):
    alpha, gr = build_regular_aut_grammar(g, compute_path_decomposition(g))
    return alpha, gr, build_extended_formulation(gr)


def test_presolve_returns_long_rows_as_they_are():
    # no row has at most two nonzero terms: the rows come back as they
    # are, a zero entry dropped, with the bounds of their variables only
    rows = [({"a": 1, "b": -1, "c": 2}, 1), ({"b": 1, "c": 1, "d": 1, "e": 0}, 2)]
    bounds = {"a": (0, 1), "b": (0, None), "c": (0, 1), "d": (-1, 3), "e": (0, 1), "unused": (0, 1)}
    kept, kept_bounds = _presolve(rows, bounds)
    assert kept == [rows[0], ({"b": 1, "c": 1, "d": 1}, 2)] and kept[0][0] is rows[0][0]
    assert kept_bounds == {"a": (0, 1), "b": (0, None), "c": (0, 1), "d": (-1, 3)}


def test_presolve_counts_nonzero_terms():
    # three entries, one of them 0, make a doubleton, which the presolve
    # removes: a + b = 1 turns the second row into c + d = 1, which goes too
    rows = [({"a": 1, "b": 1, "c": 0}, 1), ({"a": 1, "b": 1, "c": 1, "d": 1}, 2)]
    assert _presolve(rows, dict.fromkeys("abcd", (0, 1))) == ([], {})


def test_presolve_empty_bound_interval_without_short_rows():
    rows = [({"a": 1, "b": 1, "c": 1}, 1)]
    assert _presolve(rows, {"a": (0, 1), "b": (0, 1), "c": (2, 1)}) is None
    # also on a variable in no row
    assert _presolve(rows, {"a": (0, 1), "b": (0, 1), "c": (0, 1), "d": (1, 0)}) is None


def test_presolve_reduction_sizes(c5, q3):
    # the rows left are the flow rows of shared variables, which have more
    # than two terms, and what substitution made of them.  A tree grammar
    # writes its variables of one rule, used once, inline, so its system
    # has no doubleton to remove; a regular grammar keeps them.  The
    # regular grammars are deterministic automata, with fewer rules and
    # variables than the join's classes had (C5 (41, 45) -> (11, 15), Q3
    # (281, 320) -> (41, 80) then) but more of them shared, so fewer rows
    # are removed
    for g, make, before, after in ((c5, aut_ef, (11, 15), (11, 15)), (q3, aut_ef, (33, 72), (33, 72)),
                                   (c5, path_ef, (36, 40), (16, 20)), (q3, path_ef, (217, 256), (73, 112))):
        alpha, gr, ef = make(g)
        x = permute_word(to_string_word(Permutation(tuple(g.vertices))), alpha).symbols
        point = {f"x_{i}": Fraction(v) for i, v in enumerate(x, start=1)}
        system = _lp_system(ef.lp, point)
        assert tuple(map(len, system)) == before
        rows, bounds = _presolve(*system)
        assert (len(rows), len(bounds)) == after
        assert _simplex_feasible(rows, bounds)


def _exact(v):
    # the LP-file path's number rule: an int when integral, else a
    # Fraction, never a float
    return type(v) is int or (type(v) is Fraction and v.denominator != 1)


def test_lp_system_is_exact(c5):
    # every number that reaches the presolve follows the rule, on an
    # integral point, a fractional one (whose integral coordinates are
    # Fractions) and no point at all
    alpha, gr, ef = aut_ef(c5)
    words = enumerate_language(gr).words
    a, b = words[0].symbols, words[1].symbols
    integral = {f"x_{i}": v for i, v in enumerate(a, start=1)}
    fractional = {f"x_{i}": Fraction(u + v, 2) for i, (u, v) in enumerate(zip(a, b), start=1)}
    assert any(v.denominator == 1 for v in fractional.values())
    assert any(v.denominator != 1 for v in fractional.values())
    for point in (integral, fractional, {}):
        rows, bounds = _lp_system(ef.lp, point)
        assert all(_exact(rhs) for _, rhs in rows)
        assert all(_exact(c) for coeffs, _ in rows for c in coeffs.values())
        assert all(b is None or _exact(b) for lo_hi in bounds.values() for b in lo_hi)
    assert any(type(rhs) is Fraction for _, rhs in _lp_system(ef.lp, fractional)[0])
    # a repeated variable's coefficients add up, and a substituted one
    # moves to the rhs: both follow the rule too
    lp = parse_lp("Subject To\n r1: 1/2 y_0 + 1/2 y_0 - x_1 <= 1/2\nEnd\n")
    rows, bounds = _lp_system(lp, {"x_1": Fraction(1, 2)})
    assert rows == [({"y_0": 1, "_r:0": 1}, 1)]
    assert all(_exact(v) for v in (*rows[0][0].values(), rows[0][1]))
    assert bounds == {"_r:0": (0, None), "y_0": (0, None)}


def test_slack_names_avoid_the_files_variables():
    # the file's own _r:0, bounded to [0, 1], takes the value 3 in r2, so
    # the LP is infeasible; a slack named _r:0 as well would have taken
    # the file's bound and the file's row for its own
    text = ("Subject To\n r1: x_1 + y <= 5\n r2: {v} = 3\n"
            "Bounds\n 0 <= {v} <= 1\n 0 <= y <= 3\nEnd\n")
    for v in ("_r:0", "r0", "__r:0"):
        lp = parse_lp(text.format(v=v))
        assert check_lp_feasibility(lp, {"x_1": 0}) is False, v
    rows, bounds = _lp_system(parse_lp(text.format(v="_r:0")), {"x_1": 0})
    assert rows == [({"y": 1, "__r:0": 1}, 5), ({"_r:0": 1}, 3)]
    assert bounds == {"__r:0": (0, None), "y": (0, 3), "_r:0": (0, 1)}
    # a name that starts with the lengthened prefix lengthens it again
    lp = parse_lp("Subject To\n r1: x_1 + y <= 5\n r2: _r:0 + __r:7 = 3\nEnd\n")
    assert [sorted(coeffs) for coeffs, _ in _lp_system(lp, {"x_1": 0})[0]] == [["___r:0", "y"], ["__r:7", "_r:0"]]


def test_feasibility_midpoint(c4):
    alpha, gr, ef = aut_ef(c4)
    words = enumerate_language(gr).words
    a, b = words[0].symbols, words[1].symbols
    mid = [Fraction(x + y, 2) for x, y in zip(a, b)]
    assert check_projection_feasibility(ef, mid)


def test_feasibility_dimension_mismatch(p3):
    _, _, ef = aut_ef(p3)
    with pytest.raises(PolytopeError):
        check_projection_feasibility(ef, [1, 2])


def test_constraint_count_bound(c4, q3):
    for g in (c4, q3):
        _, gr, ef = aut_ef(g)
        bound = len(gr.variables) + 1 + 2 * len(gr.rules) + ef.word_length
        assert ef.num_constraints <= bound


def test_lp_round_trip():
    for k, gr in enumerate(_lp_corpus()):
        for style in ("value", "matrix"):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # the empty language warns
                ef = build_extended_formulation(gr, style)
                parsed = parse_lp(emit_lp(ef))
                assert parsed == ef.lp, (k, style)
                assert lp_number_types(parsed) == lp_number_types(ef.lp), (k, style)


# S -> A 3 | 3 B, A -> 1 2 | 2 1, B -> 1 2: words 123, 213, 312
PINNED = Grammar(3, "S", ("S", "A", "B"), (
    ("S", ("A", 3)), ("S", (3, "B")), ("A", (1, 2)), ("A", (2, 1)), ("B", (1, 2)),
))
PINNED_FLOW = (
    "Minimize\n obj: 0\nSubject To\n src: y_0 + y_1 = 1\n c_1: y_2 + y_3 - y_0 = 0\n"
    " c_2: y_4 - y_1 = 0\n"
)
PINNED_BOUNDS = "Bounds\n" + "".join(f" 0 <= y_{r} <= 1\n" for r in range(5)) + "End\n"


def test_lp_bytes_pinned():
    value = (
        " px1: x_1 - 1 y_2 - 2 y_3 - 3 y_1 = 0\n px2: x_2 - 1 y_3 - 1 y_4 - 2 y_2 = 0\n"
        " px3: x_3 - 2 y_4 - 3 y_0 = 0\n"
    )
    matrix = (
        " pz1_1: z_1_1 - 1 y_2 = 0\n pz1_2: z_1_2 - 1 y_3 = 0\n pz1_3: z_1_3 - 1 y_1 = 0\n"
        " pz2_1: z_2_1 - 1 y_3 - 1 y_4 = 0\n pz2_2: z_2_2 - 1 y_2 = 0\n"
        " pz3_2: z_3_2 - 1 y_4 = 0\n pz3_3: z_3_3 - 1 y_0 = 0\n"
    )
    assert emit_lp(build_extended_formulation(PINNED)) == PINNED_FLOW + value + PINNED_BOUNDS
    assert emit_lp(build_extended_formulation(PINNED, style="matrix")) == (
        PINNED_FLOW + matrix + PINNED_BOUNDS
    )


def test_lp_feasibility_from_file(c4, tmp_path):
    alpha, gr, ef = aut_ef(c4)
    parsed = parse_lp(emit_lp(ef))
    words = enumerate_language(gr).words
    good = {f"x_{i}": Fraction(v) for i, v in enumerate(words[0].symbols, start=1)}
    assert check_lp_feasibility(parsed, good)
    sigma = Permutation((2, 1, 3, 4))
    badw = permute_word(to_string_word(sigma), alpha)
    bad = {f"x_{i}": Fraction(v) for i, v in enumerate(badw.symbols, start=1)}
    assert not check_lp_feasibility(parsed, bad)


def test_lp_shifted_bounds():
    lp = "Minimize\n obj: 0\nSubject To\n r1: y_0 = 5/2\nBounds\n 2 <= y_0 <= 3\nEnd\n"
    assert check_lp_feasibility(parse_lp(lp), {})
    assert not check_lp_feasibility(parse_lp(lp.replace("5/2", "4")), {})
    assert not check_lp_feasibility(parse_lp(lp.replace("5/2", "3/2")), {})


def test_lp_number_exponents():
    lp = "Minimize\n obj: 0\nSubject To\n r1: y_0 = 5/2\nBounds\n 2 <= y_0 <= 3\nEnd\n"
    assert check_lp_feasibility(parse_lp(lp.replace("5/2", "0.025e2")), {})
    assert not check_lp_feasibility(parse_lp(lp.replace("5/2", "25e-9999")), {})
    for huge in ("1e10000", "-.5E-10000", "1e10000000"):  # expanded exactly, so refused
        with pytest.raises(PolytopeError):
            parse_lp(lp.replace("5/2", huge))
    # a name is never read as a number, however it ends
    assert check_lp_feasibility(parse_lp(lp.replace("y_0", "e12345")), {})
    # and a token that starts like a number is never read as a name
    row = "Minimize\n obj: 0\nSubject To\n px1: x_1 - {} y_0 = 0\nEnd\n"
    for bad in ("1" * 5000, "2x", "-.5z"):  # over the int-string limit, malformed
        with pytest.raises(PolytopeError):
            parse_lp(row.format(bad))


def test_lp_row_syntax():
    # a number that no name follows is a constant, moved to the rhs with
    # its sign; a number read twice in one file keeps each use's sign; a
    # row with a relation anywhere but second to last is refused
    def row(text):
        return parse_lp(f"Subject To\n r1: {text}\nEnd\n").constraints[0][1:]

    half = Fraction(1, 2)
    assert row("1 + y_0 - 1/2 = 3") == (((1, "y_0"),), "=", Fraction(5, 2))
    assert row("2 3 y_0 = 6") == (((3, "y_0"),), "=", 4)
    assert row("1/2 y_0 - 1/2 y_1 - y_2 >= -1/2") == (((half, "y_0"), (-half, "y_1"), (-1, "y_2")), ">=", -half)
    for bad in ("y_0 = 1 = 2", "y_0 <= 1 >= 0", "= y_0 1", "y_0 =", "y_0 1"):
        with pytest.raises(PolytopeError):
            row(bad)


def test_lp_free_variable_requires_point():
    lp = (
        "Minimize\n obj: 0\nSubject To\n r1: x_1 - y_0 = 0\n"
        "Bounds\n x_1 free\n 0 <= y_0 <= 1\nEnd\n"
    )
    parsed = parse_lp(lp)
    with pytest.raises(PolytopeError):
        check_lp_feasibility(parsed, {})
    assert check_lp_feasibility(parsed, {"x_1": Fraction(1, 2)})
    assert not check_lp_feasibility(parsed, {"x_1": Fraction(2)})


def test_lp_bound_lines():
    # "y <= hi" is "0 <= y <= hi", as in the LP format; a bound line of any
    # other shape is refused, and so is one whose variable is a number
    lp = "Subject To\n r1: y_0 = 1/2\nBounds\n y_0 <= {}\nEnd\n"
    parsed = parse_lp(lp.format("1"))
    assert parsed.bounds == {"y_0": (0, 1)}
    assert check_lp_feasibility(parsed, {})
    assert not check_lp_feasibility(parse_lp(lp.format("1/4")), {})
    for bad in ("y_0 >= 1", "y_0 bounded", "1 >= y_0 >= 0", "0 <= y_0 <= 1 <= 2", "0 <= y_0",
                "1 free", "0 <= 2 <= 3"):
        with pytest.raises(PolytopeError, match="unsupported bound line"):
            parse_lp(f"Subject To\n r1: y_0 = 1\nBounds\n {bad}\nEnd\n")


def test_lp_inequality_rows():
    lp = (
        "Minimize\n obj: 0\nSubject To\n r1: y_0 >= 1/2\n r2: y_0 <= 3/4\n"
        "Bounds\n 0 <= y_0 <= 1\nEnd\n"
    )
    assert check_lp_feasibility(parse_lp(lp), {})
    bad = lp.replace("1/2", "3")
    assert not check_lp_feasibility(parse_lp(bad), {})


def test_empty_language_lp_warns():
    # one warning per cause: the formulation warns once, also when the
    # start has no rule, and writing its LP adds none
    gr = Grammar(2, "B1", ("B1", "A"), (("A", (1,)),))
    with pytest.warns(UserWarning) as caught:
        ef = build_extended_formulation(gr)
    assert [str(w.message) for w in caught] == ["grammar generates no words; source row is infeasible"]
    # unreachable rules keep their flow terms, also where they use a variable
    unreachable = Grammar(2, "B1", ("B1", "A", "C"), (("A", (1,)), ("C", ("A", 2))))
    with pytest.warns(UserWarning):
        rows = build_extended_formulation(unreachable).constraints
    assert rows == (
        ("src", (), "=", 1),
        ("c_1", ((1, "y_0"), (-1, "y_1")), "=", 0),
        ("c_2", ((1, "y_1"),), "=", 0),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lp = emit_lp(ef)
    parsed = parse_lp(lp)
    assert not check_lp_feasibility(parsed, {})
    # no words, so no point is a member; the start may have rules or not
    dead_end = Grammar(2, "B1", ("B1", "A", "C"), (("B1", ("A", "C")), ("A", (1,))))
    for g in (gr, dead_end):
        with pytest.warns(UserWarning):
            ef = build_extended_formulation(g)
        verdict, certificate = _projection_verdict(ef, ())
        assert not verdict and not check_projection_feasibility(ef, [])
        check_certificate(g, (), verdict, certificate)
        assert not check_lp_feasibility(parse_lp(emit_lp(ef)), {})


@pytest.mark.parametrize(
    "gr, message",
    [
        (
            Grammar(1, "B1", ("B1",), (("B1", (1,)),), True),
            "grammar accepts the empty word; not positional",
        ),
        (
            Grammar(3, "B1", ("B1", "A"), (("B1", ("A",)), ("A", (1, 2, 3)), ("A", (1,)), ("A", (1, 2)))),
            "variable 'A' derives strings of lengths [1, 2, 3]; not positional",
        ),
        (
            Grammar(2, "B1", ("B1", "A", "C"), (("B1", (1,)), ("B1", ("A", 2)), ("A", ("C",)))),
            "variable 'C' derives strings of lengths []; not positional",
        ),
        (
            Grammar(2, "B1", ("B1", "A"), (("B1", ("A", 1)), ("B1", (1, "A")), ("A", (2,)))),
            "variable 'A' occurs at spans starting 1 and 2; not positional",
        ),
        (
            Grammar(2, "B1", ("B1", "A", "C"), (("C", (2,)), ("B1", ("A", "C")), ("A", (1,)), ("B1", ("C", "A")))),
            "variable 'C' occurs at spans starting 2 and 1; not positional",
        ),
        (
            Grammar(2, "B1", ("B1", "A", "C"), (("B1", ("A",)), ("A", (1,)), ("C", (2,)))),
            "variable 'C' unreachable; trim the grammar first",
        ),
        (
            Grammar(2, "S", ("S", "E", "A"), (("S", ("E", "E", "A")), ("E", ()), ("A", (1,)), ("A", (2,)))),
            "variable 'E' derives only the empty word; not positional",
        ),
    ],
    ids=["empty-word", "lengths", "no-lengths", "spans", "spans-rules-interleaved", "unreachable", "empty-variable"],
)
def test_formulation_error_messages(gr, message):
    with pytest.raises(PolytopeError) as caught:
        build_extended_formulation(gr)
    assert str(caught.value) == message


def test_non_positional_rejected():
    mixed = Grammar(2, "B1", ("B1",), (("B1", (1,)), ("B1", (1, 2))))
    with pytest.raises(PolytopeError):
        build_extended_formulation(mixed)
    shifted = Grammar(
        2,
        "B1",
        ("B1", "A"),
        (("B1", ("A", 1)), ("B1", (1, "A")), ("A", (2,))),
    )
    with pytest.raises(PolytopeError):
        build_extended_formulation(shifted)


def test_random_convex_combinations(c4):
    import random

    _, gr, ef = aut_ef(c4)
    pts = [lift_parse_tree(ef, t) for t in enumerate_parse_trees(gr)]
    rng = random.Random(5150)
    for _ in range(10):
        weights = [Fraction(rng.randint(0, 9), 1) for _ in pts]
        total = sum(weights)
        if total == 0:
            continue
        combo = {
            v: sum(w * p[v] for w, p in zip(weights, pts)) / total for v in pts[0]
        }
        assert evaluate_point(ef, combo)
        assert check_projection_feasibility(ef, project_point(ef, combo))


def test_coordinate_sum_outside_hull(c4):
    # every word vector sums to 1+2+3+4, so a point with a different sum
    # cannot be feasible
    _, gr, ef = aut_ef(c4)
    assert not check_projection_feasibility(ef, (5, 2, 3, 4))
    assert not check_projection_feasibility(ef, (Fraction(1, 2), 2, 3, 4))


def test_union_of_unequal_lengths_not_positional():
    g1 = Grammar(3, "B1", ("B1",), (("B1", (1, 2)),))
    g2 = Grammar(3, "B1", ("B1",), (("B1", (1, 2, 3)),))
    u = union_grammar(g1, g2)
    assert len(enumerate_language(u).words) == 2
    with pytest.raises(PolytopeError):
        build_extended_formulation(u)


def test_lift_rejects_foreign_tree(c4, p3):
    _, gr_c4, ef = aut_ef(c4)
    _, gr_p3, _ = aut_ef(p3)
    from autgrammar.grammar import enumerate_parse_trees as trees

    foreign = trees(gr_p3)[0]
    with pytest.raises(Exception):
        lift_parse_tree(ef, foreign)


def test_lift_rejects_a_subtree(c4):
    # a subtree follows the rules, but its root is no start rule
    _, gr, ef = aut_ef(c4)
    subtree = enumerate_parse_trees(gr)[0].children[0]
    with pytest.raises(PolytopeError) as caught:
        lift_parse_tree(ef, subtree)
    assert str(caught.value) == "parse tree is not accepting (root is not the start rule)"


def test_matrix_projection(c4):
    t, _ = make_permutation_yielding(c4, compute_tree_decomposition(c4, "min-fill"))
    _, gr = build_aut_grammar(c4, t)
    ef = build_extended_formulation(gr, style="matrix")
    lp = emit_lp(ef)
    assert " pz1_1: z_1_1" in lp
    trees = enumerate_parse_trees(gr)
    point = lift_parse_tree(ef, trees[0])
    w = parse_tree_yield(gr, trees[0])
    z = project_point(ef, point)
    for (_, ((_, name), *_), _, _), val in zip(ef.projection, z):
        _, i, sym = name.split("_")
        assert val == (1 if w.symbols[int(i) - 1] == int(sym) else 0)
    # the projection has no x coordinates, so a point cannot be fixed;
    # `check` on the same LP file exits 2
    with pytest.raises(PolytopeError):
        check_projection_feasibility(ef, w.symbols)
