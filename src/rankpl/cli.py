"""Command-line front end: run and check RankPL programs.

``rankpl run program.rpl`` enumerates outcomes most-plausible-first and
prints one line per outcome, ``rank <r>: <var>=<val>[, ...]``, in ascending
rank order.  External inputs are bound before execution with ``--define``
(scalars, arrays or nested arrays), ``--input`` files holding one
``name = value`` entry each, and ``--enum`` mappings that give symbolic
tokens integer values.  ``--format records`` emits one JSON object per line,
``{"rank": ..., "bindings": {...}}``, with the same content as the text
lines, and ``{"failed": true}`` for the failure ranking.

Exit codes: 0 success, 1 failure ranking, 2 parse error, 3 runtime error,
4 input/output error, 5 internal error (an unexpected exception in the
interpreter itself).
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from itertools import groupby
from operator import itemgetter

from .engine import (
    BudgetExhaustedError,
    EvalError,
    SearchOptions,
    enumerate_outcomes,
)
from .parser import ParseError, _is_name, _lex, parse_program
from .ranking import INF, format_binding
from .syntax import Assign, IntLit, Seq, Skip

#: the stdout line of the failure ranking, per ``--format``
FAILED_LINES = {
    "text": "failed (observation ruled out all possibilities)",
    "records": '{"failed": true}',
}

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_PARSE = 2
EXIT_RUNTIME = 3
EXIT_IO = 4
EXIT_INTERNAL = 5


class ReadError(Exception):
    """A program or input file that cannot be opened or decoded."""


class InputError(Exception):
    """Malformed --define/--enum/--input data or a bad option value."""


class OutputError(Exception):
    """An outcome that cannot be printed."""


# -- input values ---------------------------------------------------------------


_NAME_TOKEN = r"[A-Za-z_][A-Za-z0-9_]*"
_VALUE_TOKEN = re.compile(rf"-?[0-9]+|{_NAME_TOKEN}|\[|\]|,")


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


def _integer(text: str) -> int:
    """``text``, a signed run of ASCII digits, as an int; ``int()`` refuses
    more digits than ``sys.get_int_max_str_digits()``."""
    try:
        return int(text)
    except ValueError:
        raise InputError(f"integer too long ({len(text)} characters)") from None


def _scalar(token: str, enums: dict) -> int:
    if token in ("]", ","):
        raise InputError(f"unexpected {token!r}")
    if re.fullmatch(r"-?[0-9]+", token):
        return _integer(token)
    if token in enums:
        return enums[token]
    raise InputError(f"unknown token {token!r} (missing --enum mapping?)")


def parse_define_value(text: str, enums: dict) -> "int | list":
    """An integer, an enum token, or an array ``[v, ...]`` of values whose
    items are separated by commas (a trailing one is allowed).  The arrays
    being read are kept on a stack, so values nest to any depth."""
    tokens = _tokenize_value(text)
    top = []  # receives the value itself
    arrays = [top]  # the arrays being read, innermost last
    ended = False  # an item just ended, so ',' or ']' comes next
    for i, token in enumerate(tokens):
        if top:
            raise InputError(f"trailing data in value: {' '.join(tokens[i:])}")
        if token == "]" and len(arrays) > 1:
            item = arrays.pop()
            arrays[-1].append(item)
            ended = True
        elif ended:
            if token != ",":
                raise InputError(f"expected ',' or ']' after an item, found {token!r}")
            ended = False
        elif token == "[":
            arrays.append([])
        else:
            arrays[-1].append(_scalar(token, enums))
            ended = True
    if len(arrays) > 1:
        raise InputError("unterminated '['")
    if not top:
        raise InputError("empty value")
    return top[0]


_ENTRY = re.compile(r"([^\W\d]\w*)\s*=")


def _variable_name(name: str) -> str:
    """``name`` without surrounding blanks, if the program's tokenizer reads
    it as one variable name; a define bound or a variable projected under
    any other name could never be read by a program."""
    name = name.strip()
    try:
        texts = _lex(name)[0]
    except ParseError:
        texts = []
    if texts != [name, ""] or not _is_name(name):
        raise InputError(f"{name!r} is not a variable name")
    return name


def _enum_name(name: str) -> str:
    """``name`` without surrounding blanks, if a value can name it: values
    are read with ``_VALUE_TOKEN``, so an enum under any other name could
    never be used."""
    name = name.strip()
    if not re.fullmatch(_NAME_TOKEN, name):
        raise InputError(f"{name!r} is not an enum name")
    return name


def parse_input_file(text: str, enums: dict) -> dict:
    """Parse ``name = value`` entries; values may span lines, and a ``//``
    comment ends at ``"\\n"``, as in programs."""
    body = "\n".join(re.sub(r"//[^\n]*", "", text).splitlines())
    junk, *entries = _ENTRY.split(body)
    if junk.strip():
        raise InputError(f"junk in input file: {junk.strip()!r}")
    return {
        _variable_name(name): parse_define_value(value, enums)
        for name, value in zip(entries[::2], entries[1::2])
    }


def binding_prelude(defines: dict):
    """Turn defines into assignment statements executed before the program:
    one per integer of each value, in order, at any depth of arrays."""
    statements = []
    for name, value in defines.items():
        pending = [((), value)]  # (indices, value) still to bind, next one last
        while pending:
            indices, value = pending.pop()
            if isinstance(value, list):
                pending.extend(
                    (indices + (IntLit(i),), value[i])
                    for i in range(len(value) - 1, -1, -1)
                )
            else:
                statements.append(Assign(name, indices, IntLit(value)))
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
    try:
        pairs = _line_bindings(valuation, projection)
        if fmt == "records":
            record = {"rank": rank, "bindings": {label: v for label, v in pairs}}
            line = json.dumps(record, sort_keys=True)
        else:
            shown = ", ".join(f"{label}={v}" for label, v in pairs)
            line = f"rank {rank}: {shown or '(all variables 0)'}"
    except ValueError as exc:
        # int() refuses to print more than sys.get_int_max_str_digits() digits
        raise OutputError(f"cannot print an outcome: {exc}") from None
    out.write(line + "\n")


# -- commands -------------------------------------------------------------------


def _read_defines(args) -> dict:
    """The ``--define`` and ``--input`` values, read with the ``--enum`` ones."""
    enums = {}
    for mapping in args.enum:
        for piece in mapping.split(","):
            name, _, number = piece.partition("=")
            if not name.strip() or not re.fullmatch(r"-?[0-9]+", number.strip()):
                raise InputError(f"bad --enum entry {piece!r}")
            enums[_enum_name(name)] = _integer(number.strip())
    defines = {}
    for path in args.input:
        defines.update(parse_input_file(_read(path), enums))
    for entry in args.define:
        name, eq, text = entry.partition("=")
        if not eq or not name.strip():
            raise InputError(f"bad --define entry {entry!r}")
        defines[_variable_name(name)] = parse_define_value(text, enums)
    return defines


def _fresh(stream, projection):
    """``(rank, state)`` for each outcome whose projected state is new."""
    seen = set()
    for outcome in stream:
        state = outcome.valuation
        if projection is not None:
            state = state.restrict(projection)
        if state not in seen:
            seen.add(state)
            yield outcome.rank, state


def cmd_run(args, out) -> int:
    source = _read(args.file)
    defines = _read_defines(args)
    program = parse_program(source)
    # the option values are checked after the program parses
    if args.top is not None and args.top < 0:
        raise InputError("--top must be non-negative")
    if args.max_rank is not None and args.max_rank < 0:
        raise InputError("max_rank must be a rank")
    if args.iter_limit <= 0:
        raise InputError("max_while_iterations must be positive")
    options = SearchOptions(
        max_rank=INF if args.max_rank is None else args.max_rank,
        max_while_iterations=args.iter_limit,
    )
    projection = None
    if args.project is not None:
        projection = {
            _variable_name(name) for name in args.project.split(",") if name.strip()
        }
    stream = enumerate_outcomes(Seq(binding_prelude(defines), program), options)
    emitted = 0
    for rank, group in groupby(_fresh(stream, projection), key=itemgetter(0)):
        # a rank's outcomes arrive sorted; a projection can reorder them
        for _, state in sorted(group):
            if args.top is not None and emitted >= args.top:
                return EXIT_OK
            _emit(out, rank, state, projection, args.format)
            emitted += 1
    if stream.failed:
        out.write(FAILED_LINES[args.format] + "\n")
        return EXIT_FAILED
    return EXIT_OK


def cmd_check(args, out) -> int:
    parse_program(_read(args.file))
    out.write(f"{args.file}: ok\n")
    return EXIT_OK


def _read(path: str) -> str:
    """A file's text, UTF-8 with an optional byte order mark; a file that
    cannot be opened or decoded raises ``ReadError``."""
    try:
        with open(path, encoding="utf-8-sig") as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        raise ReadError(f"{path}: not UTF-8 text ({exc.reason})") from None
    except OSError as exc:
        raise ReadError(exc) from None


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
    # each error ends the command with one stderr line and its exit code
    try:
        return args.handler(args, out)
    except ReadError as exc:
        code, line = EXIT_IO, f"cannot read input: {exc}"
    except InputError as exc:
        code, line = EXIT_IO, f"input error: {exc}"
    except ParseError as exc:
        code, line = EXIT_PARSE, f"{args.file}: parse error: {exc}"
    except (EvalError, BudgetExhaustedError) as exc:
        code, line = EXIT_RUNTIME, f"runtime error: {exc}"
    except (OutputError, OSError) as exc:  # _read leaves only write failures
        code, line = EXIT_IO, f"output error: {exc}"
    except Exception as exc:  # a crash must never read as a program's result
        code, line = EXIT_INTERNAL, f"internal error: {exc!r}"
    err.write(line + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
