import json
import os
import subprocess
import sys
import tracemalloc

import pytest

from autgrammar import _quote, annotate
from autgrammar.cli import main
from autgrammar.grammar import (
    Grammar,
    GrammarError,
    enumerate_language,
    erase_terminals,
    grammar_from_json,
    grammar_to_json,
)
from autgrammar.oracle import brute_force_automorphisms
from autgrammar.perm import Word, format_word, permute_word, to_string_word
from conftest import binary_tree, fan_graph, format_graph, reference_language, star_graph

C4_TEXT = "4 4\n1 2\n2 3\n3 4\n1 4\n"
STAR5_TEXT = "5 4\n1 5\n2 5\n3 5\n4 5\n"
P3_TEXT = "3 2\n1 2\n2 3\n"
DISCONNECTED = "4 2\n1 2\n3 4\n"


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "autgrammar.cli", *args],
        capture_output=True,
        text=True,
    )


@pytest.fixture
def c4_file(tmp_path):
    p = tmp_path / "c4.edges"
    p.write_text(C4_TEXT)
    return str(p)


@pytest.fixture
def star5_file(tmp_path):
    p = tmp_path / "star5.edges"
    p.write_text(STAR5_TEXT)
    return str(p)


def test_build_and_stats(c4_file, tmp_path):
    out = str(tmp_path / "g.json")
    r = run_cli("build", "--graph", c4_file, "--out", out)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "1 2 3 4"
    s = run_cli("stats", out)
    assert s.returncode == 0
    lines = dict(ln.split(": ") for ln in s.stdout.strip().split("\n"))
    assert lines["regular"] == "false"
    assert int(lines["rules"]) > 0


def test_build_deterministic(c4_file, tmp_path):
    out1, out2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    r1 = run_cli("build", "--graph", c4_file, "--out", out1)
    r2 = run_cli("build", "--graph", c4_file, "--out", out2)
    assert r1.stdout == r2.stdout
    assert open(out1, "rb").read() == open(out2, "rb").read()


def test_build_path_regular(c4_file, tmp_path):
    out = str(tmp_path / "g.json")
    r = run_cli("build", "--graph", c4_file, "--path", "--out", out)
    assert r.returncode == 0, r.stderr
    s = run_cli("stats", out)
    assert "regular: true" in s.stdout
    c = run_cli("count", out)
    assert c.stdout.strip() == "8"


def test_build_from_td(c4_file, tmp_path):
    td = tmp_path / "c4.td"
    td.write_text("s td 3 3 4\nb 1 1 2 4\nb 2 2 3 4\nb 3 4\n1 2\n1 3\n")
    out = str(tmp_path / "g.json")
    r = run_cli("build", "--graph", c4_file, "--td", str(td), "--out", out)
    assert r.returncode == 0, r.stderr
    c = run_cli("count", out)
    assert c.stdout.strip() == "8"


P4_TEXT = "4 3\n1 2\n2 3\n3 4\n"
P4_PATH_TD = "s td 4 2 4\nb 1 1\nb 2 1 2\nb 3 2 3\nb 4 3 4\n1 2\n2 3\n3 4\n"


@pytest.mark.parametrize(
    "td",
    [P4_PATH_TD, "s td 4 2 4\nb 1 1\nb 2 3 4\nb 3 1 2\nb 4 2 3\n1 3\n3 4\n4 2\n"],
    ids=["in-order", "ids-permuted"],
)
def test_build_path_from_td(tmp_path, td):
    # P4's path {1}, {1,2}, {2,3}, {3,4} rooted at bag 1 is the one build
    # --path constructs: the same bytes, whatever the ids of bags 2..4
    (tmp_path / "p4.edges").write_text(P4_TEXT)
    (tmp_path / "p4.td").write_text(td)
    graph, built, read = str(tmp_path / "p4.edges"), tmp_path / "a.json", tmp_path / "b.json"
    assert run_cli("build", "--graph", graph, "--path", "--out", str(built)).returncode == 0
    r = run_cli("build", "--graph", graph, "--path", "--td", str(tmp_path / "p4.td"), "--out", str(read))
    assert (r.returncode, r.stdout, r.stderr) == (0, "1 2 3 4\n", "")
    assert read.read_bytes() == built.read_bytes()


@pytest.mark.parametrize(
    "td, reason",
    [
        ("s td 3 2 4\nb 1 2 3\nb 2 1 2\nb 3 3 4\n1 2\n1 3\n", "decomposition is not path shaped"),
        ("s td 3 2 4\nb 1 1 2\nb 2 2 3\nb 3 3 4\n1 2\n2 3\n",
         "bag at () introduces 2 vertices, expected exactly 1"),
    ],
    ids=["tree", "two-at-root"],
)
def test_build_path_from_td_refused_exit_3(tmp_path, td, reason):
    # a .td given with --path must be a path from bag 1 that introduces one
    # vertex per bag
    (tmp_path / "p4.edges").write_text(P4_TEXT)
    (tmp_path / "p4.td").write_text(td)
    out = tmp_path / "g.json"
    r = run_cli("build", "--graph", str(tmp_path / "p4.edges"), "--path", "--td", str(tmp_path / "p4.td"),
                "--out", str(out))
    assert (r.returncode, r.stdout, r.stderr) == (3, "", f"error: {reason}\n")
    assert not out.exists()


def test_build_fan_from_td(tmp_path):
    # the fan F_1100 on the path decomposition with bags {i, i + 1, hub}:
    # the hub's annotations are searched over all 1101 vertices, past
    # Python's recursion limit, and the build exits 0, quietly
    n, hub = 1100, 1101
    graph, td, out = tmp_path / "fan.edges", tmp_path / "fan.td", str(tmp_path / "fan.json")
    graph.write_text(format_graph(fan_graph(n)))
    bags = [f"b {i} {i} {i + 1} {hub}" for i in range(1, n)]
    links = [f"{i} {i + 1}" for i in range(1, n - 1)]
    td.write_text("\n".join([f"s td {n - 1} 3 {hub}", *bags, *links]) + "\n")
    r = run_cli("build", "--graph", str(graph), "--td", str(td), "--out", out)
    assert (r.returncode, r.stderr) == (0, "")
    assert run_cli("count", out).stdout == "2\n"


def test_build_disconnected_exit_3(tmp_path):
    p = tmp_path / "disc.edges"
    p.write_text(DISCONNECTED)
    out = str(tmp_path / "g.json")
    r = run_cli("build", "--graph", str(p), "--out", out)
    assert r.returncode == 3
    assert r.stderr.startswith("error:")
    assert "not connected" in r.stderr


def test_usage_errors(c4_file, tmp_path):
    r = run_cli("build", "--graph", str(tmp_path / "missing.edges"), "--out", "x")
    assert r.returncode == 2
    assert r.stderr.startswith("error:")
    r = run_cli("frobnicate")
    assert r.returncode == 2
    bad = tmp_path / "bad.edges"
    bad.write_text("2 1\n1 1\n")
    r = run_cli("build", "--graph", str(bad), "--out", str(tmp_path / "g.json"))
    assert r.returncode == 2
    out = str(tmp_path / "c4.json")
    run_cli("build", "--graph", c4_file, "--out", out)
    r = run_cli("enum", out, "--cap", "-1")
    assert (r.returncode, r.stdout) == (2, "")
    assert r.stderr.startswith("error:") and len(r.stderr.splitlines()) == 1
    for keep in ("-1", "5"):  # C4 has 4 vertices
        r = run_cli("embed", "--graph", c4_file, "--keep", keep, "--out", str(tmp_path / "e.json"))
        assert (r.returncode, r.stdout) == (2, ""), r.stderr
        assert r.stderr.startswith("error:") and len(r.stderr.splitlines()) == 1


@pytest.mark.parametrize("where", ["missing directory", "directory"])
@pytest.mark.parametrize("command", ["build", "embed", "lift"])
def test_unwritable_out_exit_2(c4_file, star5_file, tmp_path, capsys, command, where):
    grammar = tmp_path / "c4.json"
    assert main(["build", "--graph", c4_file, "--out", str(grammar)]) == 0
    args = {
        "build": ["build", "--graph", c4_file],
        "embed": ["embed", "--graph", star5_file, "--keep", "4"],
        "lift": ["lift", str(grammar)],
    }[command]
    out, reason = {
        "missing directory": (tmp_path / "missing" / "x.out", "No such file or directory"),
        "directory": (tmp_path, "Is a directory"),
    }[where]
    capsys.readouterr()
    assert main([*args, "--out", str(out)]) == 2
    # one error line; build and embed print alpha only after the write
    assert capsys.readouterr() == ("", f"error: cannot write {out}: {reason}\n")
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize("strategy", ["min-fill", "exact-small"])
@pytest.mark.parametrize("other", ["--td", "--path"])
def test_build_strategy_with_td_or_path_exit_2(c4_file, tmp_path, capsys, strategy, other):
    # --strategy picks the tree decomposition that build constructs, so it
    # cannot go with a given .td file or with the path construction
    td = tmp_path / "c4.td"
    td.write_text("s td 3 3 4\nb 1 1 2 4\nb 2 2 3 4\nb 3 4\n1 2\n1 3\n")
    out = tmp_path / "g.json"
    extra = [other, str(td)] if other == "--td" else [other]
    assert main(["build", "--graph", c4_file, *extra, "--strategy", strategy, "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", "error: --strategy cannot be combined with --td or --path\n")
    assert not out.exists()


def test_build_strategy_defaults_to_min_fill(c4_file, tmp_path, capsys):
    outs = [tmp_path / "default.json", tmp_path / "min-fill.json"]
    assert main(["build", "--graph", c4_file, "--out", str(outs[0])]) == 0
    assert main(["build", "--graph", c4_file, "--strategy", "min-fill", "--out", str(outs[1])]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()
    alpha = capsys.readouterr().out.splitlines()
    assert alpha[0] == alpha[1]


def test_validate(c4_file):
    r = run_cli("validate", "--graph", c4_file)
    assert r.returncode == 0, r.stderr
    assert "language: 8 == 8" in r.stdout
    assert "result: ok" in r.stdout


def test_validate_names_first_difference(c4_file, monkeypatch, capsys):
    # a builder that drops a rule of terminals only loses words, and one
    # that adds a rule writing that rule's first terminal throughout gains
    # some: either way the smallest word in one list only is named, with
    # the list it is in
    build = annotate.build_aut_grammar
    for change, side in ((lambda rules, r: rules[:r] + rules[r + 1:], "oracle"),
                         (lambda rules, r: rules + ((rules[r][0], rules[r][1][:1] * len(rules[r][1])),),
                          "grammar")):
        made = []

        def broken(g, t):
            alpha, gr = build(g, t)
            leaf = next(r for r, (_, rhs) in enumerate(gr.rules) if all(isinstance(x, int) for x in rhs))
            rules = change(gr.rules, leaf)
            made.append((g, alpha, Grammar(gr.sigma_max, gr.start, gr.variables, rules)))
            return made[-1][1:]

        monkeypatch.setattr(annotate, "build_aut_grammar", broken)
        assert main(["validate", "--graph", c4_file]) == 1
        lines = capsys.readouterr().out.splitlines()
        ((g, alpha, gr),) = made
        expected = {permute_word(to_string_word(s), alpha).symbols for s in brute_force_automorphisms(g)}
        first = min(set(reference_language(gr)) ^ expected)
        assert (first in expected) == (side == "oracle")
        assert lines[-2:] == [f"first_difference: {format_word(Word(first))} (only in the {side})",
                              "result: mismatch"]


def test_validate_star(star5_file):
    r = run_cli("validate", "--graph", star5_file)
    assert r.returncode == 0
    assert "language: 24 == 24" in r.stdout


def test_embed_count_24(star5_file, tmp_path):
    out = str(tmp_path / "g.json")
    r = run_cli("embed", "--graph", star5_file, "--keep", "4", "--out", out)
    assert r.returncode == 0, r.stderr
    c = run_cli("count", out)
    assert c.stdout.strip() == "24"
    e = run_cli("enum", out)
    assert len(e.stdout.strip().split("\n")) == 24


def test_embed_non_invariant_exit_3(tmp_path):
    p = tmp_path / "p3.edges"
    p.write_text(P3_TEXT)
    r = run_cli("embed", "--graph", str(p), "--keep", "2", "--out", str(tmp_path / "g.json"))
    assert r.returncode == 3
    assert "not invariant" in r.stderr


def test_embed_above_oracle_cap(tmp_path):
    # the depth-4 binary tree has 31 vertices, past the oracle's cap: its
    # 15 internal vertices are invariant, and the grammar keeps one parse
    # tree per automorphism of the host (2^15) for the 2^7 restricted words
    p = tmp_path / "btree4.edges"
    p.write_text(format_graph(binary_tree(4)))
    out = tmp_path / "g.json"
    r = run_cli("embed", "--graph", str(p), "--keep", "15", "--out", str(out))
    assert r.returncode == 0, r.stderr
    words = run_cli("enum", str(out)).stdout.splitlines()
    assert len(words) == 128
    assert run_cli("count", str(out)).stdout == "32768\n"
    # its formulation holds a word, and not the all-ones point, whose
    # coordinates sum to 15 where every word's sum to 120
    model = str(tmp_path / "model.lp")
    assert run_cli("lift", str(out), "--out", model).returncode == 0
    assert run_cli("check", model, "--point", words[0]).stdout == "feasible\n"
    assert run_cli("check", model, "--point", " ".join(["1"] * 15)).stdout == "infeasible\n"
    # 1..16 takes in one leaf, which the root's swap sends to 24
    out.unlink()
    r = run_cli("embed", "--graph", str(p), "--keep", "16", "--out", str(out))
    assert (r.returncode, r.stdout) == (3, "")
    assert r.stderr.startswith("error: prefix 1..16 not invariant") and len(r.stderr.splitlines()) == 1
    assert not out.exists()


def test_member(c4_file, tmp_path):
    out = str(tmp_path / "g.json")
    run_cli("build", "--graph", c4_file, "--out", out)
    r = run_cli("member", out, "--word", "2 3 4 1")
    assert r.stdout.strip() == "true"
    r = run_cli("member", out, "--word", "2 1 3 4")
    assert r.stdout.strip() == "false"
    r = run_cli("member", out, "--word", "1 2")
    assert r.stdout.strip() == "false"


def test_bad_argument_wins_over_bad_file(tmp_path):
    missing = str(tmp_path / "missing")
    for args, reason in (
        (("member", missing, "--word", "1 x"), "bad --word"),
        (("check", missing, "--point", "1 x"), "bad --point"),
        (("embed", "--graph", missing, "--keep", "2", "--beta", "1 x", "--out", "e.json"), "bad --beta"),
    ):
        r = run_cli(*args)
        assert (r.returncode, r.stdout) == (2, ""), args
        assert r.stderr.startswith(f"error: {reason}") and len(r.stderr.splitlines()) == 1, r.stderr


def test_lift_and_check(c4_file, tmp_path):
    out = str(tmp_path / "g.json")
    model = str(tmp_path / "model.lp")
    run_cli("build", "--graph", c4_file, "--out", out)
    r = run_cli("lift", out, "--out", model)
    assert r.returncode == 0, r.stderr
    text = open(model).read()
    assert text.startswith("Minimize")
    r = run_cli("check", model, "--point", "1 2 3 4")
    assert r.returncode == 0
    assert r.stdout.strip() == "feasible"
    r = run_cli("check", model, "--point", "2 1 3 4")
    assert r.stdout.strip() == "infeasible"
    r = run_cli("check", model, "--point", "3/2 3/2 7/2 7/2")
    assert r.stdout.strip() == "feasible"
    r = run_cli("check", model, "--point", "1 2")
    assert r.returncode == 2


LP_NUMBERS = ("1/2", "3/2", "-1", "2/3", "2", "0", "1")


def _mutate_lp(lines: list, rng) -> list:
    """One to three line-aware edits of an LP file: a bound's numbers
    (sometimes lo > hi, sometimes `free`), a row's coefficient, relation
    or rhs, or a deleted line."""
    lines = list(lines)
    for _ in range(rng.randint(1, 3)):
        rows = [k for k, ln in enumerate(lines) if ":" in ln and not ln.lstrip().startswith("obj:")]
        bounds = [k for k, ln in enumerate(lines) if ln.count("<=") == 2]
        kind = rng.choice(("bound", "bound", "coef", "coef", "rel", "rhs", "delete"))
        if kind == "delete" or not rows or (kind == "bound" and not bounds):
            del lines[rng.randrange(len(lines))]
        elif kind == "bound":
            k, odds = rng.choice(bounds), rng.random()
            name = lines[k].split()[2]
            lo, hi = rng.sample(LP_NUMBERS, 2) if odds < 0.8 else ("3/2", "1/2")
            lines[k] = f" {lo} <= {name} <= {hi}" if odds < 0.9 else f" {name} free"
        else:
            k = rng.choice(rows)
            toks = lines[k].split()
            if kind == "rel":
                toks[-2] = rng.choice(("<=", ">=", "="))
            elif kind == "rhs":
                toks[-1] = rng.choice(LP_NUMBERS)
            else:
                names = [i for i, t in enumerate(toks[:-2]) if i and t[0].isalpha()]
                if not names:
                    continue
                i = rng.choice(names)
                if toks[i - 1][0].isdigit():
                    toks[i - 1] = rng.choice(LP_NUMBERS).lstrip("-")
                else:
                    toks.insert(i, rng.choice(LP_NUMBERS).lstrip("-"))
            lines[k] = " " + " ".join(toks)
    return lines


def test_check_contract_on_mutated_lp_files(tmp_path, capsys):
    # seeded mutants of C5's `lift` output through `check`: every exit is
    # 0 with exactly one verdict line and nothing on stderr, or 2 or 3
    # with one `error:` line and nothing on stdout
    import random

    graph, grammar, model = (str(tmp_path / f) for f in ("c5.edges", "c5.json", "c5.lp"))
    (tmp_path / "c5.edges").write_text("5 5\n1 2\n2 3\n3 4\n4 5\n1 5\n")
    assert main(["build", "--graph", graph, "--out", grammar]) == 0
    assert main(["lift", grammar, "--out", model]) == 0
    capsys.readouterr()
    lines = open(model).read().splitlines()
    points = ("1 2 3 4 5", "2 1 3 4 5", "3 3 3 3 3", "1 2 3 4 11/2", "3/2 3/2 7/2 7/2 7/2")
    rng = random.Random(2009)
    seen = set()
    for k in range(500):
        mutant = tmp_path / "mutant.lp"
        mutant.write_text("\n".join(_mutate_lp(lines, rng)) + "\n")
        status = main(["check", str(mutant), "--point", rng.choice(points)])
        out, err = capsys.readouterr()
        if status == 0:
            assert out in ("feasible\n", "infeasible\n") and err == "", (k, out, err)
            seen.add(out)
        else:
            assert status in (2, 3) and out == "", (k, status, out)
            assert err.startswith("error: ") and err.count("\n") == 1, (k, err)
            seen.add(status)
    assert seen == {"feasible\n", "infeasible\n", 2, 3}


EMPTY_LANGUAGE = '{"sigma_max": 1, "start": "S", "variables": ["S"], "rules": []}\n'
CYCLIC = '{"sigma_max": 1, "start": "S", "variables": ["S"], "rules": [["S", ["S", 1]]]}\n'


EMPTY_VARIABLE = (
    '{"sigma_max": 2, "start": "S", "variables": ["S", "E", "A"], '
    '"rules": [["S", ["E", "E", "A"]], ["E", []], ["A", [1]], ["A", [2]]]}\n'
)


def test_lift_of_empty_variable_exit_3(tmp_path, capsys):
    # E spans an empty window, so a parse tree would give S -> E E A a flow
    # of 2 into E: not positional, and no LP is written
    grammar, model = tmp_path / "e.json", tmp_path / "e.lp"
    grammar.write_text(EMPTY_VARIABLE)
    assert main(["lift", str(grammar), "--out", str(model)]) == 3
    assert capsys.readouterr() == ("", "error: variable 'E' derives only the empty word; not positional\n")
    assert not model.exists()


@pytest.mark.parametrize("action", ["default", "error", "ignore"])
def test_lift_of_empty_language_warns_once(tmp_path, capsys, action):
    # one `warning:` line per cause, whatever the warnings filter says;
    # the LP is written, and its source row 0 = 1 is infeasible
    import warnings

    grammar, model = tmp_path / "empty.json", tmp_path / "empty.lp"
    grammar.write_text(EMPTY_LANGUAGE)
    with warnings.catch_warnings():
        warnings.simplefilter(action)
        assert main(["lift", str(grammar), "--out", str(model)]) == 0
    assert capsys.readouterr() == ("", "warning: grammar generates no words; source row is infeasible\n")
    assert " src: 0 = 1\n" in model.read_text()


def test_lift_of_empty_language_under_warnings_as_errors(tmp_path):
    grammar, model = tmp_path / "empty.json", tmp_path / "empty.lp"
    grammar.write_text(EMPTY_LANGUAGE)
    r = subprocess.run(
        [sys.executable, "-m", "autgrammar.cli", "lift", str(grammar), "--out", str(model)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONWARNINGS": "error"},
    )
    assert (r.returncode, r.stdout) == (0, "")
    assert r.stderr == "warning: grammar generates no words; source row is infeasible\n"
    assert model.is_file()


@pytest.mark.parametrize(
    "command",
    [("count",), ("enum",), ("member", "--word", "1"), ("lift", "--out", "cyclic.lp")],
    ids=["count", "enum", "member", "lift"],
)
def test_cyclic_grammar_exit_3(tmp_path, command):
    grammar = tmp_path / "cyclic.json"
    grammar.write_text(CYCLIC)
    name, *extra = command
    extra = [str(tmp_path / a) if a.endswith(".lp") else a for a in extra]
    r = run_cli(name, str(grammar), *extra)
    assert (r.returncode, r.stdout) == (3, "")
    assert r.stderr == "error: variable 'S' depends on itself\n"


@pytest.mark.parametrize("value", ["1", 1.5, True], ids=["string", "float", "bool"])
def test_sigma_max_type_error_is_the_constructors(tmp_path, capsys, value):
    # a sigma_max that is no integer reads with the constructor's words
    # from a file as from Python, and count exits 2 on one error line
    with pytest.raises(GrammarError) as built:
        Grammar(value, "B1", ("B1",), (("B1", (1,)),))
    doc = {"sigma_max": value, "start": "B1", "variables": ["B1"], "rules": [["B1", [1]]]}
    with pytest.raises(GrammarError) as read:
        grammar_from_json(json.dumps(doc))
    assert str(read.value) == str(built.value) == f"sigma_max {_quote(value)} is not an integer"
    grammar = tmp_path / "g.json"
    grammar.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["count", str(grammar)]) == 2
    assert capsys.readouterr() == ("", f"error: bad grammar file {grammar}: {built.value}\n")


@pytest.mark.parametrize("megabytes", [300, 500])
def test_build_out_of_memory_exit_3(tmp_path, megabytes):
    # star10's join holds about 40 M annotations, some 2 GB: under a cap on
    # the child's address space, build runs out of memory, and it exits 3
    # on one error line, with nothing on stdout and no --out file
    resource = pytest.importorskip("resource")
    graph, out = tmp_path / "star10.edges", tmp_path / "star10.json"
    graph.write_text(format_graph(star_graph(10)))
    limit = megabytes << 20

    def cap():  # in the child only, between fork and exec
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    r = subprocess.run([sys.executable, "-m", "autgrammar", "build", "--graph", str(graph), "--out", str(out)],
                       capture_output=True, text=True, preexec_fn=cap)
    assert (r.returncode, r.stdout, r.stderr) == (3, "", "error: out of memory in build\n")
    assert not out.exists()


@pytest.mark.parametrize("header, command", [
    ("100000000000000000000 0", ["build", "--out"]),
    ("100000000000000000000 0", ["validate"]),
    ("100000000000000000000 0", ["embed", "--keep", "1", "--out"]),
    ("100000000 5", ["build", "--out"]),
    ("100000000 5", ["validate"]),
    ("100000000 5", ["embed", "--keep", "1", "--out"]),
])
def test_huge_header_is_refused_as_disconnected(tmp_path, header, command):
    # a header of m vertices and k < m - 1 edges names no connected graph,
    # and every command that reads a graph needs one: it is refused before
    # any per-vertex allocation, so a small cap on the child's address
    # space is never reached (before, the line said out of memory)
    resource = pytest.importorskip("resource")
    graph, out = tmp_path / "big.edges", tmp_path / "big.json"
    graph.write_text(header + "\n" + "".join(f"{v} {v + 1}\n" for v in range(1, int(header.split()[1]) + 1)))
    limit = 300 << 20

    def cap():  # in the child only, between fork and exec
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    argv = [*command, str(out)] if command[-1] == "--out" else command
    r = subprocess.run([sys.executable, "-m", "autgrammar", *argv, "--graph", str(graph)],
                       capture_output=True, text=True, preexec_fn=cap, timeout=1)
    m, k = header.split()
    assert (r.returncode, r.stdout) == (3, "")
    assert r.stderr == f"error: graph not connected: {k} edges cannot connect {m} vertices\n"
    assert not out.exists()


def test_build_from_invalid_td_exit_3(c4_file, tmp_path):
    td = tmp_path / "bad.td"
    td.write_text("s td 2 2 4\nb 1 1 2\nb 2 3 4\n1 2\n")  # misses edge {2,3}
    r = run_cli("build", "--graph", c4_file, "--td", str(td),
                "--out", str(tmp_path / "g.json"))
    assert r.returncode == 3
    assert r.stderr.startswith("error:")


def test_single_vertex_validate(tmp_path):
    p = tmp_path / "k1.edges"
    p.write_text("1 0\n")
    r = run_cli("validate", "--graph", str(p))
    assert r.returncode == 0
    assert "language: 1 == 1" in r.stdout


def test_embed_beta(star5_file, tmp_path):
    out = str(tmp_path / "g.json")
    r = run_cli("embed", "--graph", star5_file, "--keep", "4",
                "--beta", "2 1 3 4", "--out", out)
    assert r.returncode == 0, r.stderr
    assert run_cli("count", out).stdout.strip() == "24"
    r = run_cli("embed", "--graph", star5_file, "--keep", "4",
                "--beta", "2 1 3", "--out", out)
    assert r.returncode == 2


def test_lift_matrix(c4_file, tmp_path):
    out = str(tmp_path / "g.json")
    model = str(tmp_path / "model.lp")
    run_cli("build", "--graph", c4_file, "--out", out)
    r = run_cli("lift", out, "--out", model, "--matrix")
    assert r.returncode == 0, r.stderr
    assert "pz1_1: z_1_1" in open(model).read()


@pytest.mark.parametrize("point", ["", "1 2 3 4"])
def test_check_refuses_a_matrix_model(c4_file, tmp_path, point):
    # a matrix model has z_<i>_<j> and no x_<i>: no point of the value
    # projection, not even the empty one, can be decided on it
    out, model = str(tmp_path / "g.json"), str(tmp_path / "model.lp")
    run_cli("build", "--graph", c4_file, "--out", out)
    assert run_cli("lift", out, "--out", model, "--matrix").returncode == 0
    r = run_cli("check", model, "--point", point)
    assert (r.returncode, r.stdout) == (2, "")
    assert r.stderr.startswith("error: model has no x_<i> coordinates") and r.stderr.count("\n") == 1, r.stderr


def test_enum_cap(c4_file, tmp_path):
    out = str(tmp_path / "g.json")
    run_cli("build", "--graph", c4_file, "--out", out)
    r = run_cli("enum", out, "--cap", "3")
    assert len(r.stdout.strip().split("\n")) == 3
    assert "truncated" in r.stderr


def test_enum_cap_past_maxsize(c4_file, tmp_path, capsys):
    # a cap past sys.maxsize cannot truncate: every word, no message
    out = str(tmp_path / "g.json")
    assert main(["build", "--graph", c4_file, "--out", out]) == 0
    capsys.readouterr()
    assert main(["enum", out, "--cap", "99999999999999999999"]) == 0
    stdout, stderr = capsys.readouterr()
    assert (len(stdout.splitlines()), stderr) == (8, "")


def test_enum_memory_does_not_follow_sigma_max(tmp_path, capsys):
    # one word over a declared alphabet of 10^6 symbols: enum spells only
    # the terminals its words use (about 70 MB when it spelled them all)
    path = tmp_path / "wide.json"
    path.write_text(grammar_to_json(Grammar(10**6, "S", ("S",), (("S", (1, 10**6)),))))
    tracemalloc.start()
    try:
        status = main(["enum", str(path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (status, capsys.readouterr().out) == (0, f"1 {10**6}\n")
    assert peak < 5_000_000, peak


BTREE3_TEXT = "15 14\n" + "".join(f"{i} {2 * i + k}\n" for i in range(1, 8) for k in (0, 1))


def test_enum_output_bytes(tmp_path):
    """enum writes exactly format_word(w) + newline per word, in order."""
    btree3, erased = tmp_path / "btree3.json", tmp_path / "erased.json"
    graph = tmp_path / "btree3.edges"
    graph.write_text(BTREE3_TEXT)
    assert run_cli("build", "--graph", str(graph), "--out", str(btree3)).returncode == 0
    # B1 -> 3 erases to the empty word, which sorts first
    three = Grammar(3, "B1", ("B1",), (("B1", (3,)), ("B1", (1, 2)), ("B1", (2, 1))))
    erased.write_text(grammar_to_json(erase_terminals(three, 2)))
    for path, cap in ((btree3, None), (btree3, 5), (erased, None)):
        words = enumerate_language(grammar_from_json(path.read_text())).words
        cap_args = ("--cap", str(cap)) if cap else ()
        r = subprocess.run([sys.executable, "-m", "autgrammar", "enum", str(path), *cap_args],
                           capture_output=True)
        assert r.returncode == 0
        assert r.stdout == "".join(format_word(w) + "\n" for w in words[:cap]).encode()
        assert r.stderr == (f"truncated at {cap}\n".encode() if cap else b"")
    assert r.stdout == b"\n1 2\n2 1\n"  # the erased grammar's empty word comes first


def test_enum_closed_pipe_exits_quietly(tmp_path):
    """A reader that stops early (`enum G.json | head -1`) ends enum with
    exit 0 and nothing on stderr; the words it does read are the first
    ones, across the blocks enum writes in."""
    graph, out = tmp_path / "btree4.edges", tmp_path / "btree4.json"
    graph.write_text(format_graph(binary_tree(4)))
    assert run_cli("build", "--graph", str(graph), "--out", str(out)).returncode == 0
    words = enumerate_language(grammar_from_json(out.read_text()), cap=2500).words
    r = subprocess.run([sys.executable, "-m", "autgrammar", "enum", str(out), "--cap", "2500"],
                       capture_output=True)
    assert r.stdout == "".join(format_word(w) + "\n" for w in words).encode()
    # 32 768 lines of about 80 bytes: far more than a pipe holds
    p = subprocess.Popen([sys.executable, "-m", "autgrammar", "enum", str(out)],
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert p.stdout.readline() == (format_word(words[0]) + "\n").encode()
    p.stdout.close()
    err = p.stderr.read()
    p.stderr.close()
    assert p.wait() == 0
    assert err == b""


@pytest.mark.parametrize("unbuffered", ["1", ""])
def test_closed_pipe_exits_quietly(c4_file, tmp_path, unbuffered):
    """`build` and `stats` whose reader has already closed the pipe end
    with exit 0 and nothing on stderr, and `build` still writes its file;
    buffered, the output meets the closed pipe at the final flush."""
    out = tmp_path / "c4.json"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    for command in (["build", "--graph", c4_file, "--out", str(out)], ["stats", str(out)]):
        p = subprocess.Popen([sys.executable, "-m", "autgrammar", *command],
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        p.stdout.close()  # before the command has started up
        err = p.stderr.read()
        p.stderr.close()
        assert p.wait() == 0, (command[0], err)
        assert err == b"", command[0]
    again = tmp_path / "again.json"
    assert run_cli("build", "--graph", c4_file, "--out", str(again)).returncode == 0
    assert out.read_text() == again.read_text()



@pytest.mark.parametrize("unbuffered", ["1", ""])
@pytest.mark.parametrize("argv", [["--help"], ["build", "--help"]])
def test_help_into_closed_pipe_exits_quietly(argv, unbuffered):
    """Help whose reader has closed the pipe before the process started
    ends like any command there: exit 0, nothing on stderr.  Buffered, the
    help meets the closed pipe at the flush after parsing."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        r = subprocess.run([sys.executable, "-m", "autgrammar", *argv],
                           stdout=write_end, stderr=subprocess.PIPE, env=env)
    finally:
        os.close(write_end)
    assert (r.returncode, r.stderr) == (0, b"")
    shown = run_cli(*argv)
    assert (shown.returncode, shown.stderr) == (0, "")
    assert shown.stdout.startswith("usage: autgrammar")


@pytest.mark.parametrize(
    "argv, usage",
    [
        ([], "[-h] {build,embed,stats,enum,count,member,lift,check,validate} ..."),
        (["build"], "build [-h] --graph GRAPH [--td TD] [--strategy {min-fill,exact-small}] [--path] --out OUT"),
        (["embed"], "embed [-h] --graph GRAPH --keep KEEP [--beta BETA] --out OUT"),
        (["stats"], "stats [-h] grammar"),
        (["enum"], "enum [-h] [--cap CAP] grammar"),
        (["count"], "count [-h] grammar"),
        (["member"], "member [-h] --word WORD grammar"),
        (["lift"], "lift [-h] --out OUT [--matrix] grammar"),
        (["check"], "check [-h] --point POINT model"),
        (["validate"], "validate [-h] --graph GRAPH [--strategy {min-fill,exact-small}]"),
    ],
    ids=["top", "build", "embed", "stats", "enum", "count", "member", "lift", "check", "validate"],
)
def test_help_usage_lines(argv, usage):
    # each command's arguments, as --help spells them, on one wide line
    r = subprocess.run([sys.executable, "-m", "autgrammar", *argv, "--help"],
                       capture_output=True, text=True, env={**os.environ, "COLUMNS": "200"})
    assert (r.returncode, r.stderr) == (0, "")
    assert r.stdout.splitlines()[0] == f"usage: autgrammar {usage}"


def test_check_lower_bound_only_line_exit_2(tmp_path):
    # `lo <= x` is no bound shape the reader takes: it names the line, and
    # does not read the number as a variable
    lp = tmp_path / "lo.lp"
    lp.write_text("Subject To\n r1: x_1 - y = 0\nBounds\n 0 <= y\nEnd\n")
    r = run_cli("check", str(lp), "--point", "1")
    assert (r.returncode, r.stdout) == (2, "")
    assert r.stderr == f"error: bad LP file {lp}: unsupported bound line: '0 <= y'\n"


@pytest.mark.parametrize("bound", ["1 free", "0 <= 2 <= 3"])
def test_check_numeric_bound_variable_exit_2(tmp_path, bound):
    # a number names no variable: the bound line is refused, not read as
    # the bound of a variable that no row can name and then ignored
    lp = tmp_path / "num.lp"
    lp.write_text(f"Subject To\n r1: x_1 - y = 0\nBounds\n {bound}\nEnd\n")
    r = run_cli("check", str(lp), "--point", "1")
    assert (r.returncode, r.stdout) == (2, "")
    assert r.stderr == f"error: bad LP file {lp}: unsupported bound line: {bound!r}\n"


C4_TD_BAGS = "b 1 1 2 4\nb 2 2 3 4\n"
RULES_OK = '"start": "B1", "variables": ["B1"], "rules": [["B1", [1]]]'
LP_HEAD = "Minimize\n obj: 0\nSubject To\n"


@pytest.mark.parametrize(
    "command, text",
    [
        ("build", "s td 2 3 4\nb 1 1 2 x\nb 2 2 3 4\n1 2\n"),  # non-integer token
        ("build", "s td 2 3 4\n" + C4_TD_BAGS + "1\n"),  # edge line with one token
        ("build", "s td 2 3 4\n" + C4_TD_BAGS + "1 3\n"),  # edge to an unknown bag
        ("build", "s td 3 3 4\n" + C4_TD_BAGS + "b 3 4\n1 2\n2 3\n1 3\n"),  # 3 edges, 3 bags
        ("stats", '{"sigma_max": 1, "start": "B1", "variables": ["B1"], "rules": [["B1", [1], 1]]}'),
        ("stats", '["sigma_max", "start", "variables", "rules"]'),
        ("stats", '{"sigma_max": "one", ' + RULES_OK + "}"),
        ("stats", '{"sigma_max": 4.9, ' + RULES_OK + "}"),
        ("enum", '{"sigma_max": 1, "accepts_empty": "no", ' + RULES_OK + "}"),
        ("stats", '{"sigma_max": 1, ' + RULES_OK.replace("B1", "B\u00e9") + "}"),
        ("stats", '{"sigma_max": 1, ' + RULES_OK.replace("[1]", "[true]") + "}"),
        ("stats", '{"sigma_max": ' + "1" * 5000 + ", " + RULES_OK + "}"),
        ("stats", '{"sigma_max": -2, "start": "B1", "variables": ["B1", "A"], "rules": [["B1", ["A"]]]}'),
        ("stats", '{"sigma_max": 1, ' + RULES_OK.replace('["B1"]', '["B1", "B1"]') + "}"),
        ("stats", '{"sigma_max": 1, ' + RULES_OK.replace('"start": "B1"', f'"start": "{"S" * 3000}"') + "}"),
        ("stats", '{"sigma_max": 1, ' + RULES_OK.replace("[1]", f"[{'9' * 4000}]") + "}"),
        ("stats", '{"sigma_max": 1, "start": 7, "variables": [7, null], "rules": [["7", [1]], ["None", [1]]]}'),
        ("stats", '{"sigma_max": 1, ' + RULES_OK.replace('["B1"]', '["B1", null]') + "}"),
        ("check", LP_HEAD + " px1: x_1 - y_0 = 1.2.3\nBounds\n 0 <= y_0 <= 1\nEnd\n"),
        ("check", LP_HEAD + " px1: x_1 - 1e10000000 y_0 = 1\nBounds\n 0 <= y_0 <= 1\nEnd\n"),
        ("check", LP_HEAD + f" px1: x_1 - {'1' * 5000} y_0 = 0\nBounds\n 0 <= y_0 <= 1\nEnd\n"),
        ("point", LP_HEAD + " px1: x_1 - y_0 = 0\nBounds\n 0 <= y_0 <= 1\nEnd\n"),
        ("check", LP_HEAD + " px1: " + " + ".join(f"x_{i}" for i in range(1, 3001)) + "\nEnd\n"),
        ("long-point", LP_HEAD + " px1: x_1 - y_0 = 0\nBounds\n 0 <= y_0 <= 1\nEnd\n"),
    ],
    ids=[
        "td-token",
        "td-short-edge",
        "td-unknown-bag",
        "td-edge-count",
        "grammar-rule-shape",
        "grammar-not-object",
        "grammar-sigma-max",
        "grammar-sigma-max-float",
        "grammar-accepts-empty-string",
        "grammar-non-ascii",
        "grammar-bool-terminal",
        "grammar-long-integer",
        "grammar-negative-sigma-max",
        "grammar-variable-twice",
        "grammar-long-start",
        "grammar-long-terminal",
        "grammar-non-string-names",
        "grammar-null-variable",
        "lp-number",
        "lp-exponent",
        "lp-long-number",
        "point-exponent",
        "lp-long-row",
        "point-long",
    ],
)
def test_malformed_input_exit_2(c4_file, tmp_path, command, text):
    f = tmp_path / "input"
    f.write_text(text, encoding="utf-8")
    args = {
        "build": ("build", "--graph", c4_file, "--td", str(f), "--out", str(tmp_path / "g.json")),
        "stats": ("stats", str(f)),
        "enum": ("enum", str(f)),
        "check": ("check", str(f), "--point", "1"),
        "point": ("check", str(f), "--point", "1e10000000"),
        "long-point": ("check", str(f), "--point", " ".join(["1"] * 2999 + ["1e10000000"])),
    }[command]
    r = run_cli(*args)
    assert r.returncode == 2, r.stderr
    assert r.stdout == ""
    assert len(r.stderr.splitlines()) == 1
    assert r.stderr.startswith("error: ")
    assert len(r.stderr) < 200  # a long token is quoted in part
