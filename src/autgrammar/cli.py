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
cannot take (a disconnected one, or one past the oracle's cap) before it
imports the layers that would build from it.  The parser lists every
command but gives arguments only to the one that runs.  Every
precondition error derives from `autgrammar.PreconditionError`, defined in
the package itself, so mapping errors to exit codes loads no layer either.
"""

from __future__ import annotations

import argparse
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


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="ascii") as fh:
            return fh.read()
    except OSError as e:
        raise _UsageError(f"cannot read {path}: {e.strerror}") from None
    except UnicodeDecodeError:
        raise _UsageError(f"cannot read {path}: not ASCII text") from None


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            fh.write(text)
    except OSError as e:
        raise _UsageError(f"cannot write {path}: {e.strerror}") from None


def _load_graph(path: str):
    text = _read(path)
    from .graph import GraphError, parse_graph

    try:
        return parse_graph(text)
    except GraphError as e:
        raise _UsageError(f"bad graph file {path}: {e}") from None


def _load_grammar(path: str):
    text = _read(path)
    from . import grammar as gmod

    try:
        return gmod.grammar_from_json(text)
    except gmod.GrammarError as e:
        raise _UsageError(f"bad grammar file {path}: {e}") from None


def _load_lp(path: str):
    text = _read(path)
    from . import polytope

    try:
        return polytope.parse_lp(text)
    except polytope.PolytopeError as e:
        raise _UsageError(f"bad LP file {path}: {e}") from None


def _build_parser(command: str | None) -> _Parser:
    """The parser with every command listed, and the arguments of the
    named command only: no other subparser reads argv, so no other needs
    them, and each command's --help text is the same."""
    p = _Parser(prog="autgrammar")
    sub = p.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="compile the automorphism grammar of a graph")
    if command == "build":
        b.add_argument("--graph", required=True)
        b.add_argument("--td", help="PACE .td file to use instead of constructing one")
        b.add_argument("--strategy", choices=["min-fill", "exact-small"], help="default min-fill")
        b.add_argument("--path", action="store_true", help="regular grammar via a path decomposition")
        b.add_argument("--out", required=True)

    e = sub.add_parser("embed", help="grammar for the group embedded on the first vertices")
    if command == "embed":
        e.add_argument("--graph", required=True)
        e.add_argument("--keep", type=int, required=True)
        e.add_argument("--beta", help="coset representative, one-line image form")
        e.add_argument("--out", required=True)

    s = sub.add_parser("stats", help="rule/variable counts, size, regularity")
    if command == "stats":
        s.add_argument("grammar")

    en = sub.add_parser("enum", help="enumerate the language")
    if command == "enum":
        en.add_argument("grammar")
        en.add_argument("--cap", type=int, default=1000000)

    c = sub.add_parser("count", help="number of accepting parse trees")
    if command == "count":
        c.add_argument("grammar")

    m = sub.add_parser("member", help="decide membership of a word")
    if command == "member":
        m.add_argument("grammar")
        m.add_argument("--word", required=True)

    lf = sub.add_parser("lift", help="emit the extended formulation as a CPLEX LP file")
    if command == "lift":
        lf.add_argument("grammar")
        lf.add_argument("--out", required=True)
        lf.add_argument("--matrix", action="store_true", help="0/1 assignment-matrix projection")

    ck = sub.add_parser("check", help="feasibility of a fixed projection point")
    if command == "check":
        ck.add_argument("model")
        ck.add_argument("--point", required=True)

    v = sub.add_parser("validate", help="full oracle cross-check for a graph")
    if command == "validate":
        v.add_argument("--graph", required=True)
        v.add_argument("--strategy", choices=["min-fill", "exact-small"], default="min-fill")
    return p


def _cmd_build(args) -> int:
    if args.strategy is not None and (args.td or args.path):
        raise _UsageError("--strategy cannot be combined with --td or --path")
    g = _load_graph(args.graph)
    td = _load_td(args.td) if args.td else None
    from .graph import require_connected

    require_connected(g)  # before the builder layers load
    from . import decomp, grammar as gmod
    from .perm import format_permutation

    if args.path:
        pd = td if td is not None else decomp.compute_path_decomposition(g)
        alpha, gr = gmod.build_regular_aut_grammar(g, pd)
    else:
        t0 = td if td is not None else decomp.compute_tree_decomposition(g, args.strategy or "min-fill")
        t, _ = decomp.make_permutation_yielding(g, t0)  # validates a .td input
        alpha, gr = gmod.build_aut_grammar(g, t)
    _write(args.out, gmod.grammar_to_json(gr))
    print(format_permutation(alpha))
    return 0


def _load_td(path: str):
    text = _read(path)
    from . import decomp

    try:
        return decomp.read_pace_td(text)
    except decomp.TdParseError as e:
        raise _UsageError(f"bad td file {path}: {e}") from None


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
    g = _load_graph(args.graph)
    if not 1 <= args.keep <= g.vertex_count:
        raise _UsageError(f"--keep must be in 1..{g.vertex_count}, got {args.keep}")
    from . import grammar as gmod

    alpha, gr = gmod.build_embedded_group_grammar(g, args.keep, beta)
    _write(args.out, gmod.grammar_to_json(gr))
    print(format_permutation(alpha))
    return 0


def _cmd_stats(args) -> int:
    gr = _load_grammar(args.grammar)
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
    gr = _load_grammar(args.grammar)
    from . import grammar as gmod

    words = gmod.iter_language(gr)
    names = gmod._SymbolText()  # spells each terminal the words use, once
    cap = args.cap if args.cap < sys.maxsize else None  # a larger cap cannot truncate
    lines = (" ".join([names[a] for a in w]) + "\n" for w in itertools.islice(words, cap))
    # one write per block of lines: unbuffered, each write is a system call
    while block := "".join(itertools.islice(lines, 1024)):
        sys.stdout.write(block)
    sys.stdout.flush()
    if next(words, None) is not None:
        print(f"truncated at {args.cap}", file=sys.stderr)
    return 0


def _cmd_count(args) -> int:
    gr = _load_grammar(args.grammar)
    from . import grammar as gmod

    print(gmod.count_parse_trees(gr))
    return 0


def _cmd_member(args) -> int:
    from .perm import PermError, parse_word

    try:
        w = parse_word(args.word)
    except PermError as e:
        raise _UsageError(f"bad --word: {e}") from None
    gr = _load_grammar(args.grammar)
    from . import grammar as gmod

    print("true" if gmod.membership(gr, w) else "false")
    return 0


def _cmd_lift(args) -> int:
    gr = _load_grammar(args.grammar)
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
    parsed = _load_lp(args.model)
    names = {v for _, terms, _, _ in parsed.constraints for _, v in terms}
    xs = sorted(
        (v for v in names if v.startswith("x_") and v[2:].isdigit()), key=lambda v: int(v[2:])
    )
    if len(values) != len(xs):
        raise _UsageError(f"point has {len(values)} coordinates, model has {len(xs)}")
    point = dict(zip(xs, values))
    feasible = polytope.check_lp_feasibility(parsed, point)
    print("feasible" if feasible else "infeasible")
    return 0


def _cmd_validate(args) -> int:
    g = _load_graph(args.graph)
    from . import oracle

    auts = oracle.brute_force_automorphisms(g)  # refuses past its cap before the builders load
    from . import annotate, decomp, grammar as gmod
    from .perm import permute_word, to_string_word

    t0 = decomp.compute_tree_decomposition(g, args.strategy)
    t, _ = decomp.make_permutation_yielding(g, t0)
    alpha, gr = gmod.build_aut_grammar(g, t)
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
    lang_ok = difference is None
    print(f"language: {n_words} == {len(expected)}" if lang_ok
          else f"language: {n_words} != {len(expected)}")
    trees = gmod.count_parse_trees(gr)
    trees_ok = trees == n_words
    print(f"parse_trees: {trees} == {n_words}" if trees_ok
          else f"parse_trees: {trees} != {n_words}")
    annotations = annotate.count_assignments(g, t)
    ann_ok = annotations == len(auts)
    print(f"annotations: {annotations} == {len(auts)}" if ann_ok
          else f"annotations: {annotations} != {len(auts)}")
    if lang_ok and trees_ok and ann_ok:
        print("result: ok")
        return 0
    if difference is not None:
        word, side = difference
        print(f"first_difference: {' '.join(map(str, word))} (only in the {side})")
    print("result: mismatch")
    return 1


_COMMANDS = {
    "build": _cmd_build,
    "embed": _cmd_embed,
    "stats": _cmd_stats,
    "enum": _cmd_enum,
    "count": _cmd_count,
    "member": _cmd_member,
    "lift": _cmd_lift,
    "check": _cmd_check,
    "validate": _cmd_validate,
}


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
            status = _COMMANDS[args.command](args)
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
