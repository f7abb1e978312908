"""The `cli` workload: a user's shell session, one `python -m autgrammar`
process per command, over graph files written during set-up.

Every command's exit code and output are compared with an answer worked
out here (closed-form |Aut|, the edge test, or the grammar file read with
`json.loads`).  Failures must exit with their documented code and print
exactly one `error:` line on stderr and nothing on stdout.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import autgrammar as ag
from autgrammar.polytope import check_lp_feasibility

import corpus
import reference as ref
from passes import PassResult

COMMAND_TIMEOUT_S = 120


def _fmt(xs) -> str:
    return " ".join(str(x) for x in xs)


class Cli:
    def __init__(self, small: bool, seed: int, workdir: Path):
        self.small = small
        self.seed = seed
        self.dir = workdir
        src = str(Path(ag.__file__).resolve().parent.parent)
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        self.oracle_s = 0.0

    # -- set-up ------------------------------------------------------------

    def setup(self):
        rng = random.Random(self.seed)
        # the tree keeps its natural labels: relabelled, min-fill's tie-breaks
        # change the grammar, and with it the `enum` child's peak memory
        # (33, 43 or 54 MB over 8 seeds), the largest child of the session
        tree = corpus.binary_tree(2 if self.small else 4)
        # build --path runs the exact layout search; Petersen is its costly case
        layout = corpus.cycle(6) if self.small else corpus.petersen()
        fams = {
            "tree": tree,
            "layout": corpus.relabel(layout, rng),
            "q3": corpus.relabel(corpus.cube(), rng),
            "petersen": corpus.relabel(corpus.petersen(), rng),
            "c5": corpus.relabel(corpus.cycle(5), rng),
            "star5": corpus.relabel(corpus.star(4), rng, fixed_prefix=4),
        }
        if self.small:
            del fams["petersen"]
        for key, fam in fams.items():
            (self.dir / f"{key}.txt").write_text(fam.text())
        files = {
            "malformed.txt": "3 2\n1 2\n",
            "disconnected.txt": "4 2\n1 2\n3 4\n",
            "over_oracle_cap.txt": corpus.path(11).text(),
            # a well-formed .td whose single bag misses vertex 5
            "uncovering.td": "s td 1 4 5\nb 1 1 2 3 4\n",
            # ROADMAP item 5(a): these two crash with a traceback today
            "bad_token.td": "s td 1 5 5\nb 1 1 2 x\n",
            "bad_rule.json": json.dumps({"sigma_max": 1, "start": "B1", "variables": ["B1"], "rules": [["B1", [1], 1]]}),
        }
        for name, text in files.items():
            (self.dir / name).write_text(text)
        return {
            "fams": fams,
            "points": ref.pick_points(fams["c5"], ("member", "midpoint", "nonmember"), rng),
            "words": ref.pick_points(fams["tree"], ("member", "nonmember"), rng),
        }

    # -- one pass ----------------------------------------------------------

    def _run(self, category: str, args, res: PassResult):
        key = f"{category}: {' '.join(args)}"
        with self.clock.unit(res, key, build=category in ("build", "build_path", "embed")):
            with self.tracer.span(f"cli.{category}"):
                try:
                    return subprocess.run(
                        [sys.executable, "-m", "autgrammar", *args],
                        cwd=self.dir, env=self.env, capture_output=True, text=True,
                        timeout=COMMAND_TIMEOUT_S,
                    )
                except subprocess.TimeoutExpired:
                    return None

    def _expect_ok(self, r, what: str, res: PassResult) -> bool:
        if r is None or r.returncode != 0 or r.stderr:
            res.fail(f"{what}: exit {None if r is None else r.returncode}, stderr {'' if r is None else r.stderr[-200:]!r}")
            return False
        return True

    def _alpha(self, r, m: int, what: str, res: PassResult):
        """A build's stdout: one line, the alignment permutation."""
        try:
            alpha = tuple(int(x) for x in r.stdout.split())
        except ValueError:
            alpha = ()
        good = r.stdout.count("\n") == 1 and sorted(alpha) == list(range(1, m + 1))
        res.check(good, f"{what}: stdout is not a permutation line: {r.stdout[:80]!r}")
        return alpha if good else None

    def _size(self, gfile: str, res: PassResult) -> None:
        res.size_bits += ag.grammar_size(ag.grammar_from_json((self.dir / gfile).read_text())).value

    def _count(self, gfile: str, expected: int, res: PassResult) -> None:
        r = self._run("count", ["count", gfile], res)
        if self._expect_ok(r, f"count {gfile}", res):
            res.check(r.stdout == f"{expected}\n", f"count {gfile}: {r.stdout!r} != {expected}")

    def run_pass(self, state, tracer, clock, res: PassResult) -> None:
        self.tracer, self.clock = tracer, clock
        fams = state["fams"]
        r = self._run("startup", ["--help"], res)
        if self._expect_ok(r, "--help", res):
            res.check(r.stdout.startswith("usage: autgrammar"), "--help: no usage text")

        tree = fams["tree"]
        outs = []
        for name in ("tree_a.json", "tree_b.json"):
            r = self._run("build", ["build", "--graph", "tree.txt", "--out", name], res)
            outs.append(r if self._expect_ok(r, f"build {name}", res) else None)
        tree_alpha = None
        if all(outs):
            tree_alpha = self._alpha(outs[0], tree.m, "build tree", res)
            same = outs[0].stdout == outs[1].stdout and (self.dir / "tree_a.json").read_bytes() == (self.dir / "tree_b.json").read_bytes()
            res.check(same, "build twice: outputs differ")
            self._size("tree_a.json", res)
            self._count("tree_a.json", tree.aut_order, res)
            self._stats("tree_a.json", res)
            self._enum(tree, tree_alpha, res)
            if tree_alpha:
                for cls, (perm,) in state["words"]:
                    r = self._run("member", ["member", "tree_a.json", "--word", _fmt(ref.word_of(perm, tree_alpha))], res)
                    want = "true\n" if ref.FEASIBLE[cls] else "false\n"
                    if self._expect_ok(r, "member", res):
                        res.check(r.stdout == want, f"member {cls}: {r.stdout!r} != {want!r}")

        layout = fams["layout"]
        r = self._run("build_path", ["build", "--graph", "layout.txt", "--path", "--out", "layout.json"], res)
        if self._expect_ok(r, "build --path", res) and self._alpha(r, layout.m, "build --path", res):
            self._size("layout.json", res)
            self._count("layout.json", layout.aut_order, res)

        r = self._run("embed", ["embed", "--graph", "star5.txt", "--keep", "4", "--out", "star_embed.json"], res)
        if self._expect_ok(r, "embed", res) and self._alpha(r, 4, "embed", res):
            self._size("star_embed.json", res)
            self._count("star_embed.json", fams["star5"].aut_order, res)

        c5_alpha = self._lift_and_check(fams["c5"], state["points"], res)

        for key in ("q3", "petersen"):
            if key in fams:
                n = fams[key].aut_order
                r = self._run("validate", ["validate", "--graph", f"{key}.txt"], res)
                want = f"language: {n} == {n}\nparse_trees: {n} == {n}\nannotations: {n} == {n}\nresult: ok\n"
                if self._expect_ok(r, f"validate {key}", res):
                    res.check(r.stdout == want, f"validate {key}: {r.stdout!r}")

        self._errors(res)
        if self.tracer.enabled:
            self._library_mirror(state, tree_alpha, c5_alpha, res)

    def _stats(self, gfile: str, res: PassResult) -> None:
        r = self._run("stats", ["stats", gfile], res)
        if not self._expect_ok(r, "stats", res):
            return
        doc = json.loads((self.dir / gfile).read_text())
        want = (
            f"rules: {len(doc['rules'])}\nvariables: {len(doc['variables'])}\n"
            f"size: {ref.grammar_bits(doc)!r}\nregular: false\n"
        )
        res.check(r.stdout == want, f"stats: {r.stdout!r} != {want!r}")

    def _enum(self, fam: corpus.Family, alpha, res: PassResult) -> None:
        r = self._run("enum", ["enum", "tree_a.json"], res)
        if not self._expect_ok(r, "enum", res) or alpha is None:
            return
        words = [tuple(int(x) for x in ln.split()) for ln in r.stdout.splitlines()]
        good = (
            len(words) == fam.aut_order
            and all(a < b for a, b in zip(words, words[1:]))  # sorted, so distinct
            and ref.words_are_automorphisms(fam, words, alpha)
        )
        res.check(good, f"enum: {len(words)} words, expected the {fam.aut_order} automorphisms in order")

    def _lift_and_check(self, fam: corpus.Family, points, res: PassResult):
        """build, lift and check on C5; returns the build's alpha."""
        r = self._run("build", ["build", "--graph", "c5.txt", "--out", "c5.json"], res)
        if not self._expect_ok(r, "build c5", res):
            return None
        alpha = self._alpha(r, fam.m, "build c5", res)
        self._size("c5.json", res)
        r = self._run("lift", ["lift", "c5.json", "--out", "c5.lp"], res)
        if not self._expect_ok(r, "lift", res) or alpha is None:
            return None
        doc = json.loads((self.dir / "c5.json").read_text())
        parsed = ag.parse_lp((self.dir / "c5.lp").read_text())
        nonzeros = sum(len(terms) for _, terms, _, _ in parsed.constraints)
        res.check(nonzeros == ref.lp_nonzeros(doc), "lift: the LP is not the full formulation")
        for cls, recipe in points:
            x = ref.point_in_word_space(cls, recipe, alpha)
            r = self._run("check", ["check", "c5.lp", "--point", _fmt(x)], res)
            want = "feasible\n" if ref.FEASIBLE[cls] else "infeasible\n"
            if self._expect_ok(r, f"check {cls}", res):
                res.check(r.stdout == want, f"check {cls}: {r.stdout!r} != {want!r}")
        return alpha

    ERROR_CASES = (
        # (arguments, documented exit code)
        ([], 2),
        (["frobnicate"], 2),
        (["stats", "missing.json"], 2),
        (["build", "--graph", "malformed.txt", "--out", "x.json"], 2),
        (["build", "--graph", "disconnected.txt", "--out", "x.json"], 3),
        (["embed", "--graph", "c5.txt", "--keep", "2", "--out", "x.json"], 3),
        (["member", "tree_a.json", "--word", "1 x"], 2),
        (["check", "c5.lp", "--point", "1 2"], 2),
        (["validate", "--graph", "over_oracle_cap.txt"], 3),
        (["build", "--graph", "c5.txt", "--td", "uncovering.td", "--out", "x.json"], 3),
        (["stats", "bad_rule.json"], 2),
        (["build", "--graph", "c5.txt", "--td", "bad_token.td", "--out", "x.json"], 2),
    )

    def _errors(self, res: PassResult) -> None:
        for args, code in self.ERROR_CASES:
            r = self._run("errors", args, res)
            if r is None:
                res.fail(f"{args}: timed out")
                continue
            lines = r.stderr.splitlines()
            good = r.returncode == code and r.stdout == "" and len(lines) == 1 and lines[0].startswith("error: ")
            if good:
                res.ok()
            else:
                res.fail(f"{_fmt(args) or '(no arguments)'}: exit {r.returncode} (documented {code}), {len(lines)} stderr lines")

    # -- traced only: the library calls behind the commands ---------------

    def _library_mirror(self, state, tree_alpha, c5_alpha, res: PassResult) -> None:
        """Time in this process the library functions the commands spend
        their time in, so the per-layer numbers have spans; this runs
        outside the pass's timed wall."""
        tracer = self.tracer
        fams = state["fams"]
        g = ag.parse_graph(fams["layout"].text())
        with tracer.span("decomp.path"):
            pd = ag.compute_path_decomposition(g)
        with tracer.span("grammar.regular_build"):
            _, gr = ag.build_regular_aut_grammar(g, pd)
        res.check(ag.count_parse_trees(gr) == fams["layout"].aut_order, "regular grammar count")
        text = (self.dir / "tree_a.json").read_text()
        with tracer.span("grammar.json"):
            tree_gr = ag.grammar_from_json(text)
            res.check(ag.grammar_to_json(tree_gr) == text, "grammar JSON round trip")
        with tracer.span("grammar.count"):
            count = ag.count_parse_trees(tree_gr)
        res.check(count == fams["tree"].aut_order, "count_parse_trees")
        with tracer.span("grammar.enum"):
            words = ag.enumerate_language(tree_gr).words
        res.check(len(words) == fams["tree"].aut_order, "enumerate_language")
        if tree_alpha:
            for cls, (perm,) in state["words"]:
                w = ag.Word(ref.word_of(perm, tree_alpha))
                with tracer.span("grammar.member"):
                    got = ag.membership(tree_gr, w)
                res.check(got == ref.FEASIBLE[cls], "membership")
        star = ag.parse_graph(fams["star5"].text())
        with tracer.span("grammar.erase"):
            _, gr = ag.build_embedded_group_grammar(star, 4)
        res.check(ag.count_parse_trees(gr) == fams["star5"].aut_order, "embedded grammar count")
        for key in ("q3", "petersen"):
            if key in fams:
                g = ag.parse_graph(fams[key].text())
                with tracer.span("oracle.auts"):
                    auts = ag.brute_force_automorphisms(g)
                res.check(len(auts) == fams[key].aut_order, "oracle count")
        if c5_alpha is None:
            return
        lp_text = (self.dir / "c5.lp").read_text()
        with tracer.span("polytope.lp_io"):
            parsed = ag.parse_lp(lp_text)
        for cls, recipe in state["points"]:
            x = ref.point_in_word_space(cls, recipe, c5_alpha)
            with tracer.span("polytope.lp_check"):
                got = check_lp_feasibility(parsed, {f"x_{i}": v for i, v in enumerate(x, start=1)})
            res.check(got == ref.FEASIBLE[cls], f"check_lp_feasibility {cls}")
