"""Command-line surface: build/transform grammars, inspect them, emit LP
files, and cross-check everything against the brute-force oracle.

Exit codes: 0 success, 1 validation mismatch, 2 usage error, 3 precondition
violation or out of memory.  Every failure prints a single machine-parsable
line on stderr, `error: <reason>`, and every warning the library raises one
line before it, `warning: <message>`, whatever the warnings filter says.

Layering: each command handler imports the layers it runs, so a process
loads only those, and `--help` or a usage error loads none.  A handler
checks each argument it can check without a file before it reads one (so
a bad argument is reported even when a file is bad too), reads each
file before it imports the layer that parses it, and refuses a graph it
cannot take (a disconnected one, or one past the oracle's cap), and a
tree decomposition that the yielding transform refuses, before it
imports the layers that would build from it.  Every precondition error
derives from `autgrammar.PreconditionError`, defined in the package
itself, so mapping errors to exit codes loads no layer either.

One table, `_COMMANDS`, is the one list of commands: each name's help,
handler and arguments.  The parser lists every command but gives
arguments only to the one that runs.
"""

from __future__ import annotations

import argparse
import importlib  # loaded at interpreter start-up anyway
import itertools
import os
import sys
import warnings  # loaded at interpreter start-up anyway

from . import PreconditionError, _quote


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # one-line reason, stable exit code
        raise _UsageError(message)


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            fh.write(text)
    except OSError as e:
        raise _UsageError(f"cannot write {path}: {e.strerror}") from None


# each file kind's module, parser and parse error, imported once the file is read
_PARSERS = {
    "graph": ("graph", "parse_graph", "GraphError"),
    "grammar": ("grammar", "grammar_from_json", "GrammarError"),
    "LP": ("polytope", "parse_lp", "PolytopeError"),
    "td": ("decomp", "read_pace_td", "TdParseError"),
}


def _load(path: str, kind: str):
    try:
        with open(path, "r", encoding="ascii") as fh:
            text = fh.read()
    except OSError as e:
        raise _UsageError(f"cannot read {path}: {e.strerror}") from None
    except UnicodeDecodeError:
        raise _UsageError(f"cannot read {path}: not ASCII text") from None
    module, parser, error = _PARSERS[kind]
    mod = importlib.import_module(f".{module}", __package__)
    try:
        return getattr(mod, parser)(text)
    except getattr(mod, error) as e:
        if kind == "graph" and isinstance(e, PreconditionError):  # too few edges to be connected: exit 3
            raise
        raise _UsageError(f"bad {kind} file {path}: {e}") from None


def _cmd_build(args) -> int:
    if args.strategy is not None and (args.td or args.path):
        raise _UsageError("--strategy cannot be combined with --td or --path")
    g = _load(args.graph, "graph")
    td = _load(args.td, "td") if args.td else None
    from .graph import require_connected

    require_connected(g)  # before the builder layers load
    from . import decomp

    if args.path:
        t = td if td is not None else decomp.compute_path_decomposition(g)
    else:  # the transform validates a .td input, before the builder layers load too
        t0 = td if td is not None else decomp.compute_tree_decomposition(g, args.strategy or "min-fill")
        t, _ = decomp.make_permutation_yielding(g, t0)
    from . import annotate, grammar as gmod
    from .perm import format_permutation

    alpha, gr = (annotate.build_regular_aut_grammar if args.path else annotate.build_aut_grammar)(g, t)
    _write(args.out, gmod.grammar_to_json(gr))
    print(format_permutation(alpha))
    return 0


def _cmd_embed(args) -> int:
    from .perm import PermError, format_permutation, parse_permutation

    beta = None
    if args.beta is not None:
        try:
            beta = parse_permutation(args.beta)
        except PermError as e:
            raise _UsageError(f"bad --beta: {e}") from None
        if beta.size != args.keep:
            raise _UsageError(f"--beta must permute 1..{args.keep}")
    g = _load(args.graph, "graph")
    if not 1 <= args.keep <= g.vertex_count:
        raise _UsageError(f"--keep must be in 1..{g.vertex_count}, got {args.keep}")
    from . import annotate, grammar as gmod

    alpha, gr = annotate.build_embedded_group_grammar(g, args.keep, beta)
    _write(args.out, gmod.grammar_to_json(gr))
    print(format_permutation(alpha))
    return 0


def _cmd_stats(args) -> int:
    gr = _load(args.grammar, "grammar")
    from . import grammar as gmod

    size = gmod.grammar_size(gr)
    print(f"rules: {len(gr._lhs)}")
    print(f"variables: {len(gr.variables)}")
    print(f"size: {size.value!r}")
    print(f"regular: {'true' if gmod.is_regular(gr) else 'false'}")
    return 0


def _cmd_enum(args) -> int:
    if args.cap < 0:
        raise _UsageError(f"--cap must be non-negative, got {args.cap}")
    gr = _load(args.grammar, "grammar")
    from . import grammar as gmod

    words = gmod.iter_language(gr)
    names = gmod._SymbolText()  # spells each terminal the words use, once
    cap = args.cap if args.cap < sys.maxsize else None  # a larger cap cannot truncate
    lines = (" ".join(map(names.__getitem__, w)) + "\n" for w in itertools.islice(words, cap))
    # one write per block of lines: unbuffered, each write is a system call
    while block := "".join(itertools.islice(lines, 1024)):
        sys.stdout.write(block)
    sys.stdout.flush()
    if next(words, None) is not None:
        print(f"truncated at {args.cap}", file=sys.stderr)
    return 0


def _cmd_count(args) -> int:
    gr = _load(args.grammar, "grammar")
    from . import grammar as gmod

    print(gmod.count_parse_trees(gr))
    return 0


def _cmd_member(args) -> int:
    from .perm import PermError, parse_word

    try:
        w = parse_word(args.word)
    except PermError as e:
        raise _UsageError(f"bad --word: {e}") from None
    gr = _load(args.grammar, "grammar")
    from . import grammar as gmod

    print("true" if gmod.membership(gr, w) else "false")
    return 0


def _cmd_lift(args) -> int:
    gr = _load(args.grammar, "grammar")
    from . import polytope

    ef = polytope.build_extended_formulation(gr, style="matrix" if args.matrix else "value")
    _write(args.out, polytope.emit_lp(ef))
    return 0


def _cmd_check(args) -> int:
    from . import polytope

    try:
        values = [polytope.parse_number(tok) for tok in args.point.split()]
    except polytope.PolytopeError as e:
        raise _UsageError(f"bad --point {_quote(args.point)}: {e}") from None
    parsed = _load(args.model, "LP")
    names = {v for _, terms, _, _ in parsed.constraints for _, v in terms}
    xs = sorted(
        (v for v in names if v.startswith("x_") and v[2:].isdigit()), key=lambda v: int(v[2:])
    )
    if not xs:  # a `lift --matrix` model: no value projection to fix a point in
        raise _UsageError("model has no x_<i> coordinates; check decides points of the value projection only")
    if len(values) != len(xs):
        raise _UsageError(f"point has {len(values)} coordinates, model has {len(xs)}")
    point = dict(zip(xs, values))
    feasible = polytope.check_lp_feasibility(parsed, point)
    print("feasible" if feasible else "infeasible")
    return 0


def _cmd_validate(args) -> int:
    g = _load(args.graph, "graph")
    from . import oracle

    auts = oracle.brute_force_automorphisms(g)  # refuses past its cap before the builders load
    from . import annotate, decomp, grammar as gmod
    from .perm import permute_word, to_string_word

    t0 = decomp.compute_tree_decomposition(g, args.strategy)
    t, _ = decomp.make_permutation_yielding(g, t0)
    alpha, gr = annotate.build_aut_grammar(g, t)
    expected = sorted(permute_word(to_string_word(a), alpha).symbols for a in auts)
    # both lists are sorted, so where they first part, the smaller word is
    # in one list only
    n_words, difference = 0, None
    for w in gmod.iter_language(gr):
        if difference is None:
            if n_words == len(expected) or w < expected[n_words]:
                difference = w, "grammar"
            elif w > expected[n_words]:
                difference = expected[n_words], "oracle"
        n_words += 1
    if difference is None and n_words < len(expected):
        difference = expected[n_words], "oracle"
    lang_ok = _check("language", n_words, len(expected), difference is None)
    trees = gmod.count_parse_trees(gr)
    trees_ok = _check("parse_trees", trees, n_words, trees == n_words)
    annotations = annotate.count_assignments(g, t)
    ann_ok = _check("annotations", annotations, len(auts), annotations == len(auts))
    if lang_ok and trees_ok and ann_ok:
        print("result: ok")
        return 0
    if difference is not None:
        word, side = difference
        print(f"first_difference: {' '.join(map(str, word))} (only in the {side})")
    print("result: mismatch")
    return 1


def _check(name: str, got: int, expected: int, held: bool) -> bool:
    """Print one check line of validate; whether the check held."""
    print(f"{name}: {got} {'==' if held else '!='} {expected}")
    return held


_STRATEGIES = ["min-fill", "exact-small"]
_REQUIRED = {"required": True}

# in --help's order; each argument is a flag or name and its add_argument options
_COMMANDS = {
    "build": ("compile the automorphism grammar of a graph", _cmd_build, [
        ("--graph", _REQUIRED),
        ("--td", {"help": "PACE .td file to use instead of constructing one"}),
        ("--strategy", {"choices": _STRATEGIES, "help": "default min-fill"}),
        ("--path", {"action": "store_true", "help": "regular grammar via a path decomposition"}),
        ("--out", _REQUIRED),
    ]),
    "embed": ("grammar for the group embedded on the first vertices", _cmd_embed, [
        ("--graph", _REQUIRED),
        ("--keep", {"type": int, "required": True}),
        ("--beta", {"help": "coset representative, one-line image form"}),
        ("--out", _REQUIRED),
    ]),
    "stats": ("rule/variable counts, size, regularity", _cmd_stats, [("grammar", {})]),
    "enum": ("enumerate the language", _cmd_enum, [("grammar", {}), ("--cap", {"type": int, "default": 1000000})]),
    "count": ("number of accepting parse trees", _cmd_count, [("grammar", {})]),
    "member": ("decide membership of a word", _cmd_member, [("grammar", {}), ("--word", _REQUIRED)]),
    "lift": ("emit the extended formulation as a CPLEX LP file", _cmd_lift, [
        ("grammar", {}),
        ("--out", _REQUIRED),
        ("--matrix", {"action": "store_true", "help": "0/1 assignment-matrix projection"}),
    ]),
    "check": ("feasibility of a fixed projection point", _cmd_check, [("model", {}), ("--point", _REQUIRED)]),
    "validate": ("full oracle cross-check for a graph", _cmd_validate,
                 [("--graph", _REQUIRED), ("--strategy", {"choices": _STRATEGIES, "default": "min-fill"})]),
}


def _build_parser(command: str | None) -> _Parser:
    """The parser with every command listed, and the arguments of the
    named command only: no other subparser reads argv, so no other needs
    them, and each command's --help text is the same."""
    p = _Parser(prog="autgrammar")
    sub = p.add_subparsers(dest="command", required=True)
    for name, (help_text, _, arguments) in _COMMANDS.items():
        s = sub.add_parser(name, help=help_text)
        if name == command:
            for flag, options in arguments:
                s.add_argument(flag, **options)
    return p


def main(argv=None) -> int:
    # each library warning is one `warning:` line on stderr, also under a
    # filter that ignores warnings or turns them into errors
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        status, error = _run(argv)
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
    return status


def _run(argv) -> tuple[int, Exception | str | None]:
    """The exit status, and the reason to print for a failure or None."""
    argv = sys.argv[1:] if argv is None else argv
    # the command is the first word that is no option: the top-level parser
    # has none that takes a value
    command = next((a for a in argv if not a.startswith("-")), None)
    parser = _build_parser(command)
    try:
        try:
            args = parser.parse_args(argv)
        except SystemExit as e:  # --help, written into stdout's buffer
            status = e.code
        else:
            status = _COMMANDS[args.command][1](args)  # its handler
        sys.stdout.flush()
        return status, None
    except BrokenPipeError:
        # the reader has closed the pipe (`enum G.json | head -1`, `build
        # ... | head -c 1`): stop quietly, and point stdout at the null
        # device so that the flush at shutdown reports nothing either
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0, None
    except _UsageError as e:
        return 2, e
    except PreconditionError as e:
        return 3, e
    except MemoryError:
        pass  # leaving the handler frees the traceback's frames, and what they hold
    return 3, f"out of memory in {command}"


if __name__ == "__main__":
    sys.exit(main())
