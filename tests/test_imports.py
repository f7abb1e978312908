"""Import boundaries: a process loads only the layers its command runs."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import autgrammar
from autgrammar import annotate, cli, grammar

C4_TEXT = "4 4\n1 2\n2 3\n3 4\n1 4\n"
BUILDERS = {"annotate", "decomp", "oracle"}
# standard modules that no command may load: `dataclasses` loads `inspect`,
# which loads `ast`, `dis` and `tokenize`
SLOW_STDLIB = ("dataclasses", "inspect")

# runs one CLI command in a fresh interpreter, then prints its exit code,
# the package's submodules that were loaded and the SLOW_STDLIB modules
# that were, as the last line of stdout
PROBE = f"""
import sys
from autgrammar import cli
try:
    code = cli.main(sys.argv[1:])
except SystemExit as e:
    code = e.code
loaded = sorted(m.split(".", 1)[1] for m in sys.modules if m.startswith("autgrammar."))
print(code, *loaded, *(m for m in {SLOW_STDLIB} if m in sys.modules))
"""


def loaded_by(*args):
    """The exit code and the package's submodules loaded by one command;
    asserts that the command loaded no SLOW_STDLIB module."""
    r = subprocess.run([sys.executable, "-c", PROBE, *args], capture_output=True, text=True)
    code, *modules = r.stdout.splitlines()[-1].split()
    modules = set(modules)
    assert not modules & set(SLOW_STDLIB), (args, modules)
    return int(code), modules


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    d = tmp_path_factory.mktemp("imports")
    graph, grammar, lp = str(d / "c4.edges"), str(d / "c4.json"), str(d / "c4.lp")
    (d / "c4.edges").write_text(C4_TEXT)
    assert cli.main(["build", "--graph", graph, "--out", grammar]) == 0
    assert cli.main(["lift", grammar, "--out", lp]) == 0
    return {"graph": graph, "grammar": grammar, "lp": lp, "out": str(d / "out.json")}


def test_package_import_loads_no_submodule():
    probe = "import sys, autgrammar; print(*[m for m in sys.modules if m.startswith('autgrammar.')])"
    r = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout.split() == []


@pytest.mark.parametrize(
    "args, code",
    [(["--help"], 0), ([], 2), (["frobnicate"], 2), (["build", "--out", "x.json"], 2)],
    ids=["help", "no-command", "unknown-command", "missing-option"],
)
def test_help_and_usage_errors_load_only_cli(args, code):
    assert loaded_by(*args) == (code, {"cli"})


@pytest.mark.parametrize("command", ["stats", "count", "enum", "member"])
def test_read_side_loads_no_builder(files, command):
    extra = ["--word", "1 2 3 4"] if command == "member" else []
    code, modules = loaded_by(command, files["grammar"], *extra)
    assert code == 0
    assert "grammar" in modules
    assert not modules & (BUILDERS | {"polytope"})


def test_check_on_lp_file_loads_no_grammar(files):
    code, modules = loaded_by("check", files["lp"], "--point", "1 2 3 4")
    assert code == 0
    assert "polytope" in modules
    assert not modules & (BUILDERS | {"grammar"})


@pytest.mark.parametrize(
    "command, expected",
    [(["build"], 0), (["build", "--path"], 0), (["embed", "--keep", "4"], 0), (["embed", "--keep", "2"], 3)],
    ids=["tree", "path", "embed", "embed-rejected"],
)
def test_build_loads_no_oracle_or_polytope(files, command, expected):
    # embed decides invariance from the grammar it builds, on an invariant
    # prefix and on one that is not (C4's 1..2)
    code, modules = loaded_by(*command, "--graph", files["graph"], "--out", files["out"])
    assert code == expected
    assert not modules & {"oracle", "polytope"}


@pytest.mark.parametrize(
    "args, loaded",
    [
        (["stats", "missing.json"], {"cli"}),
        (["member", "missing.json", "--word", "1 2"], {"cli", "perm"}),
        (["lift", "missing.json", "--out", "x.lp"], {"cli"}),
        (["check", "missing.lp", "--point", "1 2"], {"cli", "polytope"}),
        (["build", "--graph", "missing.edges", "--out", "x.json"], {"cli"}),
        (["validate", "--graph", "missing.edges"], {"cli"}),
    ],
    ids=["stats", "member", "lift", "check", "build", "validate"],
)
def test_unreadable_file_loads_no_parser(tmp_path, args, loaded):
    args = [str(tmp_path / a) if a.startswith("missing") else a for a in args]
    assert loaded_by(*args) == (2, loaded)


DISCONNECTED_TEXT = "4 2\n1 2\n3 4\n"
P11_TEXT = "11 10\n" + "".join(f"{i - 1} {i}\n" for i in range(2, 12))  # past the oracle's cap
C5_TEXT = "5 5\n1 2\n2 3\n3 4\n4 5\n1 5\n"
UNCOVERING_TD = "s td 1 4 5\nb 1 1 2 3 4\n"  # well formed, but its one bag misses vertex 5


@pytest.mark.parametrize(
    "text, args, loaded",
    [
        (DISCONNECTED_TEXT, ["build", "--out"], {"cli", "graph"}),
        (DISCONNECTED_TEXT, ["build", "--path", "--out"], {"cli", "graph"}),
        (P11_TEXT, ["validate"], {"cli", "graph", "oracle", "perm"}),
    ],
    ids=["build-disconnected", "build-path-disconnected", "validate-past-oracle-cap"],
)
def test_refusal_loads_no_builder(tmp_path, text, args, loaded):
    # a disconnected graph is refused before any builder layer loads, and
    # a graph past the oracle's cap before any but the oracle's own
    (tmp_path / "g.edges").write_text(text)
    if args[-1] == "--out":
        args = [*args, str(tmp_path / "out.json")]
    assert loaded_by(*args, "--graph", str(tmp_path / "g.edges")) == (3, loaded)


def test_invalid_td_loads_no_builder(tmp_path):
    # the yielding transform refuses a .td that does not cover the graph
    # before annotate or grammar loads: exit 3 and one error line
    (tmp_path / "c5.edges").write_text(C5_TEXT)
    (tmp_path / "bad.td").write_text(UNCOVERING_TD)
    args = ["build", "--graph", str(tmp_path / "c5.edges"), "--td", str(tmp_path / "bad.td"),
            "--out", str(tmp_path / "out.json")]
    code, modules = loaded_by(*args)
    assert code == 3
    assert not modules & {"annotate", "grammar"}, modules
    r = subprocess.run([sys.executable, "-m", "autgrammar", *args], capture_output=True, text=True)
    assert (r.returncode, r.stdout) == (3, "")
    assert len(r.stderr.splitlines()) == 1 and r.stderr.startswith("error: "), r.stderr
    assert not (tmp_path / "out.json").exists()


def test_invalid_path_td_loads_no_builder(tmp_path):
    # a path .td that misses a vertex is refused before annotate or
    # grammar loads, as a tree-shaped one is: exit 3 and one error line
    (tmp_path / "c5.edges").write_text(C5_TEXT)
    (tmp_path / "bad.td").write_text(UNCOVERING_TD)
    args = ["build", "--graph", str(tmp_path / "c5.edges"), "--path", "--td", str(tmp_path / "bad.td"),
            "--out", str(tmp_path / "out.json")]
    code, modules = loaded_by(*args)
    assert code == 3
    assert not modules & {"annotate", "grammar"}, modules
    r = subprocess.run([sys.executable, "-m", "autgrammar", *args], capture_output=True, text=True)
    assert (r.returncode, r.stdout) == (3, "")
    assert len(r.stderr.splitlines()) == 1 and r.stderr.startswith("error: "), r.stderr
    assert not (tmp_path / "out.json").exists()


def test_public_names_resolve():
    for name in autgrammar.__all__:
        assert getattr(autgrammar, name) is not None, name
    assert set(autgrammar.__all__) <= set(dir(autgrammar))
    from autgrammar import Grammar, parse_graph  # noqa: F401

    with pytest.raises(AttributeError):
        autgrammar.no_such_name


def test_grammar_imports_no_sibling_but_perm():
    # the read side holds no builder: grammar.py imports no module of the
    # package but perm, in a function body neither, and the builders are
    # annotate's, resolved from the package as well
    siblings = {p.stem for p in Path(autgrammar.__file__).parent.glob("*.py")} - {"__init__"}
    imported = set()
    for node in ast.walk(ast.parse(Path(grammar.__file__).read_text())):
        if isinstance(node, ast.ImportFrom) and node.level:
            imported |= {node.module.split(".")[0]} if node.module else {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("autgrammar"):
            imported |= {node.module.split(".")[1]} if "." in node.module else {a.name for a in node.names}
        elif isinstance(node, ast.Import):
            imported |= {a.name.split(".")[1] for a in node.names if a.name.startswith("autgrammar.")}
    assert imported & siblings == {"perm"}
    assert not [name for name in dir(grammar) if name.startswith("build_")]
    for name in ("build_aut_grammar", "build_embedded_group_grammar", "build_regular_aut_grammar"):
        assert getattr(autgrammar, name) is getattr(annotate, name)
