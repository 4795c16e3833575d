"""Command-line front end: run and check RankPL programs.

``rankpl run program.rpl`` enumerates outcomes most-plausible-first and
prints one line per outcome, ``rank <r>: <var>=<val>[, ...]``, in ascending
rank order.  External inputs are bound before execution with ``--define``
(scalars, arrays or nested arrays), ``--input`` files holding one
``name = value`` entry each, and ``--enum`` mappings that give symbolic
tokens integer values.  ``--format records`` emits one JSON object per line,
``{"rank": ..., "bindings": {...}}``, with the same content as the text
lines.

Exit codes: 0 success, 1 failure ranking, 2 parse error, 3 runtime error,
4 input/output error, 5 internal error (an unexpected exception in the
interpreter itself).
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from .engine import (
    BudgetExhaustedError,
    EvalError,
    SearchOptions,
    enumerate_outcomes,
)
from .parser import ParseError, parse_program
from .ranking import INF, format_binding
from .syntax import Assign, IntLit, Seq, Skip

FAILED_MESSAGE = "failed (observation ruled out all possibilities)"

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_PARSE = 2
EXIT_RUNTIME = 3
EXIT_IO = 4
EXIT_INTERNAL = 5


class InputError(Exception):
    """Malformed --define/--enum/--input data."""


# -- input values ---------------------------------------------------------------


_VALUE_TOKEN = re.compile(r"-?[0-9]+|[A-Za-z_][A-Za-z0-9_]*|\[|\]|,")


def _tokenize_value(text: str) -> list[str]:
    tokens = []
    pos = 0
    for match in _VALUE_TOKEN.finditer(text):
        if text[pos : match.start()].strip():
            raise InputError(f"junk in value: {text[pos:match.start()]!r}")
        tokens.append(match.group())
        pos = match.end()
    if text[pos:].strip():
        raise InputError(f"junk in value: {text[pos:]!r}")
    return tokens


def _parse_value(tokens: list[str], enums: dict) -> "int | list":
    if not tokens:
        raise InputError("empty value")
    head = tokens.pop(0)
    if head == "[":
        items = []
        while True:
            if not tokens:
                raise InputError("unterminated '['")
            if tokens[0] == "]":
                tokens.pop(0)
                return items
            items.append(_parse_value(tokens, enums))
            if tokens and tokens[0] == ",":
                tokens.pop(0)
    if head in ("]", ","):
        raise InputError(f"unexpected {head!r}")
    if re.fullmatch(r"-?[0-9]+", head):
        return int(head)
    if head in enums:
        return enums[head]
    raise InputError(f"unknown token {head!r} (missing --enum mapping?)")


def parse_define_value(text: str, enums: dict) -> "int | list":
    tokens = _tokenize_value(text)
    value = _parse_value(tokens, enums)
    if tokens:
        raise InputError(f"trailing data in value: {' '.join(tokens)}")
    return value


def _strip_comments(text: str) -> str:
    return "\n".join(line.split("//", 1)[0] for line in text.splitlines())


_ENTRY = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)\s*=")


def parse_input_file(text: str, enums: dict) -> dict:
    """Parse ``name = value`` entries; values may span lines."""
    body = _strip_comments(text)
    defines = {}
    pos = 0
    while True:
        match = _ENTRY.search(body, pos)
        if match is None:
            if body[pos:].strip():
                raise InputError(f"junk in input file: {body[pos:].strip()!r}")
            return defines
        if body[pos : match.start()].strip():
            raise InputError(f"junk in input file: {body[pos:match.start()].strip()!r}")
        following = _ENTRY.search(body, match.end())
        stop = following.start() if following else len(body)
        defines[match.group(1)] = parse_define_value(body[match.end() : stop], enums)
        pos = stop


def binding_prelude(defines: dict):
    """Turn defines into assignment statements executed before the program."""
    statements = []

    def bind(name, indices, value):
        if isinstance(value, list):
            for i, item in enumerate(value):
                bind(name, indices + (IntLit(i),), item)
        else:
            statements.append(Assign(name, indices, IntLit(value)))

    for name, value in defines.items():
        bind(name, (), value)
    prelude = Skip()
    for stmt in reversed(statements):
        prelude = Seq(stmt, prelude)
    return prelude


# -- output ---------------------------------------------------------------------


def _line_bindings(valuation, projection):
    """(label, value) pairs for one output line.

    Projected names always appear (scalars default to 0); indexed variables
    contribute their bound entries.  Without a projection, all non-zero
    bindings are shown.
    """
    if projection is None:
        return [(format_binding(k), v) for k, v in valuation.items]
    parts = []
    for name in sorted(projection):
        bound = [(k, v) for k, v in valuation.items if k[0] == name]
        if bound:
            parts.extend((format_binding(k), v) for k, v in bound)
        else:
            parts.append((name, 0))
    return parts


def _emit(out, rank, valuation, projection, fmt):
    pairs = _line_bindings(valuation, projection)
    if fmt == "records":
        record = {"rank": rank, "bindings": {label: v for label, v in pairs}}
        out.write(json.dumps(record, sort_keys=True) + "\n")
    else:
        shown = ", ".join(f"{label}={v}" for label, v in pairs)
        out.write(f"rank {rank}: {shown or '(all variables 0)'}\n")


# -- commands -------------------------------------------------------------------


def cmd_run(args, out, err) -> int:
    try:
        source = _read(args.file)
        enums = {}
        for mapping in args.enum:
            for piece in mapping.split(","):
                name, _, number = piece.partition("=")
                if not name.strip() or not re.fullmatch(r"-?[0-9]+", number.strip()):
                    raise InputError(f"bad --enum entry {piece!r}")
                enums[name.strip()] = int(number.strip())
        defines = {}
        for path in args.input:
            defines.update(parse_input_file(_read(path), enums))
        for entry in args.define:
            name, eq, text = entry.partition("=")
            if not eq or not name.strip():
                raise InputError(f"bad --define entry {entry!r}")
            defines[name.strip()] = parse_define_value(text, enums)
    except InputError as exc:
        err.write(f"input error: {exc}\n")
        return EXIT_IO
    except OSError as exc:
        err.write(f"cannot read input: {exc}\n")
        return EXIT_IO

    try:
        program = parse_program(source)
    except ParseError as exc:
        err.write(f"{args.file}: parse error: {exc}\n")
        return EXIT_PARSE

    try:
        if args.top is not None and args.top < 0:
            raise ValueError("--top must be non-negative")
        options = SearchOptions(
            max_rank=INF if args.max_rank is None else args.max_rank,
            max_outcomes=None,
            max_while_iterations=args.iter_limit,
        )
    except ValueError as exc:
        err.write(f"input error: {exc}\n")
        return EXIT_IO
    projection = None
    if args.project is not None:
        projection = [v.strip() for v in args.project.split(",") if v.strip()]

    try:
        stream = enumerate_outcomes(Seq(binding_prelude(defines), program), options)
        emitted = 0
        seen = set()
        pending_rank = None
        pending = []

        def flush():
            nonlocal emitted
            for valuation in sorted(pending):
                if args.top is not None and emitted >= args.top:
                    return False
                _emit(out, pending_rank, valuation, projection, args.format)
                emitted += 1
            return True

        for outcome in stream:
            state = (
                outcome.valuation.restrict(projection)
                if projection is not None
                else outcome.valuation
            )
            if state in seen:
                continue
            seen.add(state)
            if outcome.rank != pending_rank:
                if pending and not flush():
                    return EXIT_OK
                pending_rank, pending = outcome.rank, []
            pending.append(state)
        if pending and not flush():
            return EXIT_OK
        if stream.failed:
            out.write(FAILED_MESSAGE + "\n")
            return EXIT_FAILED
        return EXIT_OK
    except EvalError as exc:
        err.write(f"runtime error: {exc}\n")
        return EXIT_RUNTIME
    except BudgetExhaustedError as exc:
        err.write(f"runtime error: {exc}\n")
        return EXIT_RUNTIME


def cmd_check(args, out, err) -> int:
    try:
        source = _read(args.file)
    except OSError as exc:
        err.write(f"cannot read input: {exc}\n")
        return EXIT_IO
    try:
        parse_program(source)
    except ParseError as exc:
        err.write(f"{args.file}: parse error: {exc}\n")
        return EXIT_PARSE
    out.write(f"{args.file}: ok\n")
    return EXIT_OK


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rankpl", description="Run RankPL programs."
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="run a program and print ranked outcomes")
    run.add_argument("file", help="program file (.rpl)")
    run.add_argument(
        "--define",
        action="append",
        default=[],
        metavar="NAME=VALUE",
        help="bind a variable before execution; VALUE is an integer, an "
        "[a, b, ...] array, or a nested array",
    )
    run.add_argument(
        "--input",
        action="append",
        default=[],
        metavar="FILE",
        help="read NAME = VALUE defines from a file",
    )
    run.add_argument(
        "--enum",
        action="append",
        default=[],
        metavar="NAME=INT[,NAME=INT...]",
        help="integer values for symbolic tokens used in defines",
    )
    run.add_argument(
        "--project",
        metavar="V1,V2,...",
        help="restrict the report to these variables",
    )
    run.add_argument("--top", type=int, metavar="N", help="print at most N outcomes")
    run.add_argument(
        "--max-rank", type=int, metavar="R", help="ignore outcomes above rank R"
    )
    run.add_argument(
        "--iter-limit",
        type=int,
        default=10000,
        metavar="N",
        help="while-loop iteration limit (default 10000)",
    )
    run.add_argument(
        "--format", choices=("text", "records"), default="text",
        help="output style (default text)",
    )
    run.set_defaults(handler=cmd_run)

    check = commands.add_parser("check", help="parse a program and report errors")
    check.add_argument("file", help="program file (.rpl)")
    check.set_defaults(handler=cmd_check)
    return parser


#: built by the first ``main`` call and reused; ``parse_args`` returns a new
#: namespace each time and copies the list defaults it appends to, so no
#: value carries over from one call to the next
_arg_parser = None


def main(argv=None, out=None, err=None) -> int:
    global _arg_parser
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    if _arg_parser is None:
        _arg_parser = build_arg_parser()
    args = _arg_parser.parse_args(argv)
    try:
        return args.handler(args, out, err)
    except Exception as exc:  # a crash must never read as a program's result
        err.write(f"internal error: {exc!r}\n")
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
