"""The `compile` and `lp-check` workloads: library calls in this process,
one operation at a time."""

from __future__ import annotations

import json
import random
import sys
import time

import autgrammar as ag
from autgrammar.polytope import check_lp_feasibility

import corpus
import reference as ref
from passes import PassResult

ORACLE_CAP = 10  # the library's brute-force oracle refuses larger graphs


def cold_caches() -> None:
    """Empty every functools cache in the library, so each build pays the
    annotation enumeration as a fresh CLI process would."""
    for name, mod in list(sys.modules.items()):
        if name == "autgrammar" or name.startswith("autgrammar."):
            for obj in vars(mod).values():
                clear = getattr(obj, "cache_clear", None)
                if callable(clear):
                    clear()


class Built:
    """One graph compiled to a grammar, with what the checks need."""

    __slots__ = ("decomp", "alpha", "grammar", "trees", "json", "annotations")


def build_grammar(text: str, tracer) -> Built:
    """graph text -> min-fill tree decomposition -> yielding form ->
    grammar -> parse-tree count -> JSON.  With tracing on, the annotated
    bags of every position are enumerated first under their own span, so
    the grammar.build span is the consistency join plus trim."""
    b = Built()
    with tracer.span("graph.parse"):
        g = ag.parse_graph(text)
    with tracer.span("decomp.tree"):
        t0 = ag.compute_tree_decomposition(g, "min-fill")
    with tracer.span("decomp.yield"):
        t, _ = ag.make_permutation_yielding(g, t0)
    b.annotations = None
    if tracer.enabled:
        with tracer.span("annotate.enumerate"):
            b.annotations = {p: len(ag.enumerate_annotated_bags(g, t.bag(p))) for p in t.positions}
    with tracer.span("grammar.build"):
        alpha, gr = ag.build_aut_grammar(g, t)
    with tracer.span("grammar.count"):
        b.trees = ag.count_parse_trees(gr)
    with tracer.span("grammar.json"):
        b.json = ag.grammar_to_json(gr)
    b.decomp, b.alpha, b.grammar = t, alpha.image, gr
    return b


def check_build(fam: corpus.Family, b: Built, doc, oracle_words, res: PassResult) -> None:
    """Compare a build with the closed-form |Aut| and, up to the oracle
    cap, the whole language with the oracle's automorphisms."""
    res.check(sorted(b.alpha) == list(range(1, fam.m + 1)), f"{fam.name}: alpha is not a permutation")
    res.check(b.trees == fam.aut_order, f"{fam.name}: count_parse_trees {b.trees} != {fam.aut_order}")
    try:
        trees = ref.count_trees(doc)
        words = ref.language(doc) if oracle_words is not None else None
    except (KeyError, TypeError, ValueError) as e:
        res.wrong_answer(f"{fam.name}: grammar JSON unreadable: {type(e).__name__}: {e}")
        return
    res.check(trees == fam.aut_order, f"{fam.name}: parse trees in the JSON != {fam.aut_order}")
    if oracle_words is not None:
        expected = {ref.word_of(s, b.alpha) for s in oracle_words}
        res.check(words == expected, f"{fam.name}: language differs from the oracle")


def record_layer_counts(b: Built, res: PassResult) -> None:
    """Per-layer sizes of one build, summed over the pass."""
    t, ann, gr = b.decomp, b.annotations, b.grammar
    res.counts["decomp.width"] = max(res.counts.get("decomp.width", 0), t.width)
    res.add("annotate.bags", sum(ann.values()))
    res.add("grammar.join_pairs", sum(ann[p[:-1]] * ann[p] for p in t.positions if p))
    res.add("grammar.join_links", len({(lhs, x) for lhs, rhs in gr.rules if lhs != gr.start for x in rhs if isinstance(x, str)}))
    res.add("grammar.kept_bags", len(gr.variables) - 1)  # the start variable is no bag
    res.add("grammar.rules", len(gr.rules))
    res.add("grammar.variables", len(gr.variables))
    res.add("grammar.trees", b.trees)


def _oracle_words(fam: corpus.Family, timer: list) -> list | None:
    if fam.m > ORACLE_CAP:
        return None
    g = ag.parse_graph(fam.text())
    t = time.perf_counter()
    auts = ag.brute_force_automorphisms(g)
    timer[0] += time.perf_counter() - t
    return [a.image for a in auts]


def _warm_up() -> None:
    """Load every code path once, then drop what that cached."""
    g = ag.parse_graph(corpus.cycle(4).text())
    t, _ = ag.make_permutation_yielding(g, ag.compute_tree_decomposition(g))
    _, gr = ag.build_aut_grammar(g, t)
    ef = ag.build_extended_formulation(gr)
    ag.check_projection_feasibility(ef, [1, 2, 3, 4])
    check_lp_feasibility(ag.parse_lp(ag.emit_lp(ef)), {f"x_{i}": i for i in range(1, 5)})
    ag.grammar_from_json(ag.grammar_to_json(gr))
    cold_caches()


def relabelled(entries, rng: random.Random) -> list[corpus.Family]:
    return [corpus.relabel(make(), rng) if relabel else make() for make, relabel, *_ in entries]


class Compile:
    """Compile each corpus graph in turn, caches cold at every pass."""

    def __init__(self, small: bool, seed: int, workdir):
        self.entries = corpus.COMPILE_SMALL if small else corpus.COMPILE_CORPUS
        self.seed = seed
        self.oracle_s = 0.0

    def setup(self):
        rng = random.Random(self.seed)
        timer = [0.0]
        graphs = [(fam, fam.text(), _oracle_words(fam, timer)) for fam in relabelled(self.entries, rng)]
        self.oracle_s = timer[0]
        _warm_up()
        return graphs

    def run_pass(self, graphs, tracer, clock, res: PassResult) -> None:
        for fam, text, oracle_words in graphs:
            key = f"build {fam.name}"
            cold_caches()
            with tracer.span("pass.graph"):
                try:
                    with clock.unit(res, key, build=True):
                        b = build_grammar(text, tracer)
                except Exception as e:  # one failed graph must not stop the pass
                    res.fail(f"{fam.name}: {type(e).__name__}: {e}")
                    continue
                if tracer.enabled:
                    with tracer.span("grammar.json"):
                        back = ag.grammar_from_json(b.json)
                    res.check(back == b.grammar, f"{fam.name}: JSON round trip changed the grammar")
                    record_layer_counts(b, res)
            doc = json.loads(b.json)
            res.size_bits += ag.grammar_size(b.grammar).value
            check_build(fam, b, doc, oracle_words, res)


class LpCheck:
    """Build small grammars, then decide seeded points on both exact paths:
    check_projection_feasibility, and emit_lp -> parse_lp ->
    check_lp_feasibility (the `check` command's path).  One instance per
    point: its own relabelled graph, built cold BUILD_REPEATS times (the
    builds take milliseconds, and `build_s` sums their per-instance medians),
    then the point decided on both paths."""

    BUILD_REPEATS = 5

    def __init__(self, small: bool, seed: int, workdir):
        self.entries = corpus.LP_SMALL if small else corpus.LP_CORPUS
        self.seed = seed
        self.oracle_s = 0.0

    def setup(self):
        rng = random.Random(self.seed)
        timer = [0.0]
        instances = []
        for make, relabel, classes in self.entries:
            for cls in classes:
                fam = corpus.relabel(make(), rng) if relabel else make()
                points = ref.pick_points(fam, (cls,), rng)
                instances.append((f"{fam.name}/{cls}", fam, fam.text(), _oracle_words(fam, timer), points))
        self.oracle_s = timer[0]
        _warm_up()
        return instances

    def run_pass(self, instances, tracer, clock, res: PassResult) -> None:
        for name, fam, text, oracle_words, points in instances:
            b = None
            for _ in range(1 if tracer.enabled else self.BUILD_REPEATS):
                cold_caches()
                try:
                    with clock.unit(res, f"build {name}", build=True):
                        b = build_grammar(text, tracer)
                except Exception as e:
                    res.fail(f"{name}: {type(e).__name__}: {e}")
                    b = None
                    break
            if b is None:
                continue
            doc = json.loads(b.json)
            res.size_bits += ag.grammar_size(b.grammar).value
            check_build(fam, b, doc, oracle_words, res)
            if tracer.enabled:
                record_layer_counts(b, res)
            self._verdicts(name, b, doc, points, tracer, clock, res)

    def _verdicts(self, name: str, b: Built, doc, points, tracer, clock, res: PassResult) -> None:
        xs = [(cls, ref.point_in_word_space(cls, recipe, b.alpha)) for cls, recipe in points]

        def timed(what, k, fn, *args):
            key = f"{what} {name}" if k is None else f"{what} {name} {k}"
            with clock.unit(res, key):
                with tracer.span(f"polytope.{what}"):
                    return fn(*args)

        try:
            ef = timed("ef", None, ag.build_extended_formulation, b.grammar)
            first = [timed("check", k, ag.check_projection_feasibility, ef, x) for k, (_, x) in enumerate(xs)]
            parsed = timed("lp_io", None, lambda: ag.parse_lp(ag.emit_lp(ef)))
            second = [
                timed("lp_check", k, check_lp_feasibility, parsed, {f"x_{i}": v for i, v in enumerate(x, start=1)})
                for k, (_, x) in enumerate(xs)
            ]
        except Exception as e:
            res.fail(f"{name}: LP verdicts: {type(e).__name__}: {e}")
            return
        for (cls, _), v1, v2 in zip(xs, first, second):
            res.check(v1 == ref.FEASIBLE[cls], f"{name}: projection path says {v1}")
            res.check(v2 == ref.FEASIBLE[cls], f"{name}: LP text path says {v2}")
        nonzeros = sum(len(terms) for _, terms, _, _ in parsed.constraints)
        res.check(nonzeros == ref.lp_nonzeros(doc), f"{name}: emitted LP is not the full formulation")
        if tracer.enabled:
            rule_count: dict = {}
            for lhs, _ in doc["rules"]:
                rule_count[lhs] = rule_count.get(lhs, 0) + 1
            res.add("polytope.rows", len(ef.constraints) + ef.word_length)
            res.add("polytope.cols", len(ef.flow_vars))
            res.add("polytope.single_rule_vars", sum(1 for c in rule_count.values() if c == 1))
            res.add("polytope.lp_nonzeros", nonzeros)
