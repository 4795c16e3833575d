"""Concrete syntax for RankPL programs.

The textual rendering is deliberately plain ASCII: ``:=`` assignment, ``==``
``<`` ``<=`` ``>`` ``>=`` ``!=`` comparisons, ``!`` ``&&`` ``||`` boolean
operators, ``rank(b)`` rank expressions, ``either { s1 } or (e) { s2 }``
ranked choice, ``x := e1 or(e) e2`` and ``if b then { s }`` (built as the
core statements they abbreviate), the sugar ``x := any_of(lo .. hi)``
(each bound an integer with an optional ``-``), and
``observeJ(x, b)`` / ``observeL(x, b)`` for the generalized observations.
``//`` starts a line comment.  Simple statements end with ``;`` (omittable
before ``}`` or end of input); block statements may carry an optional ``;``.

Operator precedence, tightest first: ``*`` ``/`` ``%``; ``+`` ``-``; ``xor``
``band`` ``bor``; comparisons; ``!``; ``&&``; ``||``.  Conditions and numbers
are read by one precedence-climbing routine; ``!`` takes one operand at
comparison strength, so ``!x < 1`` is ``!(x < 1)``.

The lexer reads each line with one ``findall`` into two flat lists, token
texts and ``(line, column)`` positions; the parser reads those, and each
node takes its position tuple as it is.  Only ``tokenize`` builds tokens.
"""

from __future__ import annotations

import re
from itertools import accumulate, chain, repeat
from typing import NamedTuple

from .ranking import INF
from .syntax import (
    And,
    Assign,
    BinOp,
    BoolExpr,
    Cmp,
    DesugarError,
    IfThenElse,
    IntLit,
    Not,
    NumExpr,
    Observe,
    ObserveJ,
    ObserveL,
    Or,
    RankedChoice,
    RankOf,
    Skip,
    Stmt,
    UniformPick,
    Var,
    While,
    sequence,
)

KEYWORDS = frozenset(
    "skip observe observeJ observeL if then else while do either or rank inf"
    " any_of xor band bor".split()
)

#: One (blanks, token) pair: spaces, tabs and ``\r``, then a symbol, an
#: integer or a name.  A name starts with a letter or ``_`` (``str.isalpha``)
#: and goes on with letters, digits or ``_`` (``str.isalnum``); ``[^\W\d]``
#: also starts one with a non-decimal digit such as ``²``, which is an error.
_PAIR = re.compile(
    r"([ \t\r]*)(:=|==|!=|<=|>=|&&|\|\||\.\.|[-+*/%<>!(){}\[\];,]|[0-9]+|[^\W\d]\w*)"
)


class Token(NamedTuple):
    kind: str  # keyword | identifier | integer | symbol | eof
    text: str
    line: int
    column: int


class ParseError(Exception):
    def __init__(self, message, line, column):
        super().__init__(f"line {line}, column {column}: {message}")
        self.message = message
        self.line = line
        self.column = column


def _lex(source: str) -> tuple[list[str], list[tuple[int, int]]]:
    """The token texts of ``source`` and the ``(line, column)`` of each,
    ending with the end of input's text ``""`` just past the last character.

    Each line, split on ``"\\n"`` alone and cut at its first ``//``, is read
    by one ``findall`` of ``_PAIR``; columns are running sums of the pairs'
    lengths.  ``findall`` skips characters that start no token, so the pairs
    must cover the line up to its trailing blanks, and ``_check_line`` also
    reads each non-ASCII line, where a name may start with a non-letter.
    """
    texts, where = [], []
    findall = _PAIR.findall
    for number, line in enumerate(source.split("\n"), 1):
        body = line.split("//", 1)[0]
        pairs = findall(body)
        columns = list(accumulate(map(len, chain.from_iterable(pairs)), initial=1))
        texts += [text for _, text in pairs]
        where += zip(repeat(number), columns[1::2])
        if columns[-1] <= len(body.rstrip(" \t\r")) or not body.isascii():
            _check_line(body, number)
    texts.append("")
    where.append((number, len(line) + 1))
    return texts, where


def _check_line(body: str, number: int):
    """Raise ``ParseError`` at the first character of ``body``, line
    ``number``, that starts no token, if there is one."""
    pos = 0
    for match in _PAIR.finditer(body):
        first = match[2][0]
        if match.start() != pos or not (first.isalpha() or first.isascii()):
            break
        pos = match.end()
    pos = len(body) - len(body[pos:].lstrip(" \t\r"))
    if pos == len(body):
        return
    ch = body[pos]
    message = {
        "=": "'=' is not an operator (use '==' or ':=')",
        ":": "':' is not an operator (use ':=')",
    }.get(ch, f"unexpected character {ch!r}")
    raise ParseError(message, number, pos + 1)


_DIGITS = frozenset("0123456789")
#: first characters of integers, symbols and the end of input, never of names
_NOT_NAME_STARTS = _DIGITS | frozenset(":=!<>&|.-+*/%(){}[];,") | {""}


def _is_name(text: str) -> bool:
    """Whether ``text``, a token's text, is an identifier."""
    return text[:1] not in _NOT_NAME_STARTS and text not in KEYWORDS


def tokenize(source: str) -> list[Token]:
    """Split ``source`` into tokens, ending with one ``eof`` token.

    Lines and columns count from 1; a column is the offset in its line plus
    one, so a tab or ``\\r`` counts as one character, and only ``"\\n"`` ends
    a line.  Integer literals are ASCII digits only.  The ``eof`` token sits
    just past the last character, also after a ``//`` comment.  Raises
    ``ParseError`` at the first character that starts no token.
    """
    texts, where = _lex(source)
    kinds = (
        "keyword" if text in KEYWORDS else "identifier" if _is_name(text)
        else "integer" if text[:1] in _DIGITS else "symbol" if text else "eof"
        for text in texts
    )
    return list(map(Token, kinds, texts, *zip(*where)))


#: how tightly each binary operator binds: 1 and 2 join conditions, 3
#: compares numbers and 4 to 6 combine them; all group to the left, and a
#: comparison, whose result is a condition, cannot be compared again
_BINDING_POWER = {
    op: power
    for power, ops in enumerate(
        ["||", "&&", "== != < <= > >=", "xor band bor", "+ -", "* / %"], start=1
    )
    for op in ops.split()
}
_TOO_LONG = "integer literal too long"
_TOP_LEVEL = ("",)  # a sequence ends at eof, whose text is empty ...
_IN_BLOCK = ("", "}")  # ... or, inside a block, at its '}'


class _Parser:
    """Recursive descent over the token texts, with precedence climbing
    for expressions.  Texts alone decide: a symbol or keyword never equals
    another kind's text, and a first character tells identifiers and
    integers apart."""

    def __init__(self, source: str):
        self.texts, self.where = _lex(source)
        self.pos = 0

    # token plumbing

    def at(self, text: str) -> bool:
        return self.texts[self.pos] == text

    def accept(self, text: str) -> bool:
        if self.texts[self.pos] == text:
            self.pos += 1
            return True
        return False

    def expect(self, text: str):
        found = self.texts[self.pos]
        if found != text:
            raise ParseError(
                f"expected '{text}', found '{found or 'end of input'}'",
                *self.where[self.pos],
            )
        self.pos += 1

    def fail(self, message: str):
        raise ParseError(message, *self.where[self.pos])

    # statements

    def program(self) -> Stmt:
        return self.sequence(_TOP_LEVEL)

    def sequence(self, stop: tuple) -> Stmt:
        """Statements up to a text in ``stop``; a '}' at top level is an
        error, not the end."""
        texts = self.texts
        statements = []
        while (text := texts[self.pos]) not in stop:
            parse = _STATEMENTS.get(text)
            if parse is None:
                if not _is_name(text):
                    self.fail(f"expected a statement, found '{text}'")
                parse = _Parser.assignment
            statements.append(parse(self, self.pos, stop))
        if not statements:
            return Skip(pos=self.where[self.pos])
        return sequence(statements)

    def block(self) -> Stmt:
        self.expect("{")
        body = self.sequence(_IN_BLOCK)
        self.expect("}")
        return body

    # Each statement parser takes the index of the statement's first token,
    # not yet consumed, and the texts that may end the enclosing sequence.

    def block_statement(self, start, stop) -> Stmt:
        body = self.block()
        self.accept(";")
        return body

    def skip_statement(self, start, stop) -> Stmt:
        self.pos += 1
        self.terminator(stop)
        return Skip(pos=self.where[start])

    def observe_statement(self, start, stop) -> Stmt:
        self.pos += 1
        cond = self.condition()
        self.terminator(stop)
        return Observe(cond, pos=self.where[start])

    def observe_jl_statement(self, start, stop) -> Stmt:
        self.pos += 1
        self.expect("(")
        strength = self.number()
        self.expect(",")
        cond = self.condition()
        self.expect(")")
        self.terminator(stop)
        node = ObserveJ if self.texts[start] == "observeJ" else ObserveL
        return node(strength, cond, pos=self.where[start])

    def if_statement(self, start, stop) -> Stmt:
        self.pos += 1
        cond = self.condition()
        self.expect("then")
        then_branch = self.block()
        where = self.where[start]
        if not self.accept("else"):
            self.accept(";")
            else_branch = Skip(pos=where)
        elif self.at("if"):
            else_branch = self.if_statement(self.pos, stop)
        else:
            else_branch = self.block()
            self.accept(";")
        return IfThenElse(cond, then_branch, else_branch, pos=where)

    def while_statement(self, start, stop) -> Stmt:
        self.pos += 1
        cond = self.condition()
        self.expect("do")
        body = self.block()
        self.accept(";")
        return While(cond, body, pos=self.where[start])

    def either_statement(self, start, stop) -> Stmt:
        self.pos += 1
        first = self.block()
        self.expect("or")
        self.expect("(")
        rank = self.number()
        self.expect(")")
        second = self.block()
        self.accept(";")
        return RankedChoice(first, rank, second, pos=self.where[start])

    def terminator(self, stop):
        text = self.texts[self.pos]
        if text == ";":
            self.pos += 1
        elif text not in stop:
            self.fail("expected ';'")

    def assignment(self, start, stop) -> Stmt:
        self.pos += 1
        name, where = self.texts[start], self.where[start]
        indices = []
        while self.accept("["):
            indices.append(self.number())
            self.expect("]")
        indices = tuple(indices)
        self.expect(":=")
        if self.at("any_of"):
            any_of = self.where[self.pos]
            self.pos += 1
            self.expect("(")
            lower = self.int_literal()
            self.expect("..")
            upper = self.int_literal()
            self.expect(")")
            self.terminator(stop)
            try:
                return UniformPick(name, indices, lower, upper, pos=where)
            except DesugarError as exc:
                raise ParseError(str(exc), *any_of) from None
        value = self.number()
        if self.accept("or"):
            self.expect("(")
            rank = self.number()
            self.expect(")")
            second = self.number()
            self.terminator(stop)
            return RankedChoice(
                Assign(name, indices, value, pos=where),
                rank,
                Assign(name, indices, second, pos=where),
                pos=where,
            )
        self.terminator(stop)
        return Assign(name, indices, value, pos=where)

    def int_literal(self) -> int:
        """An ``any_of`` bound: an integer with an optional ``-``."""
        sign = -1 if self.accept("-") else 1
        text = self.texts[self.pos]
        if text[:1] not in _DIGITS:
            self.fail("expected an integer literal")
        self.pos += 1
        try:
            return sign * int(text)
        except ValueError:  # more digits than int() converts
            raise ParseError(_TOO_LONG, *self.where[self.pos - 1]) from None

    # expressions

    def condition(self) -> BoolExpr:
        return self.checked(self.expression(1), BoolExpr)

    def number(self) -> NumExpr:
        # a number leaves comparisons and boolean operators to its context
        return self.checked(self.expression(4), NumExpr)

    def checked(self, node, kind):
        """Check ``node``'s kind; a wrong one fails at the current token,
        the one right after the operand."""
        if not isinstance(node, kind):
            if kind is BoolExpr:
                self.fail("expected a comparison operator")
            self.fail("expected a number, not a condition")
        return node

    def expression(self, min_power: int):
        """Precedence climbing over ``_BINDING_POWER``: read an operand, then
        every operator that binds at least ``min_power``.  Conditions and
        numbers share the one table; each operator checks the kind of its
        operands, and the node built tells a condition from a number.  A
        parenthesized expression is read right here, so each level of
        parentheses costs one frame."""
        texts, where = self.texts, self.where
        text = texts[self.pos]
        if text == "(":
            self.pos += 1
            left = self.expression(1)
            self.expect(")")
        elif text == "!":
            # one operand at comparison strength: !x < 1 is !(x < 1)
            at = where[self.pos]
            self.pos += 1
            operand = self.checked(self.expression(3), BoolExpr)
            left = Not(operand, pos=at)
        else:
            left = self.atom()
        while True:
            op = texts[self.pos]
            power = _BINDING_POWER.get(op, 0)
            if power < min_power:
                return left
            operands = NumExpr if power > 2 else BoolExpr
            self.checked(left, operands)
            at = where[self.pos]
            self.pos += 1
            right = self.checked(self.expression(power + 1), operands)
            if power > 3:
                left = BinOp(op, left, right, pos=at)
            elif power == 3:
                left = _comparison(op, left, right, at)
            elif op == "&&":
                left = And(left, right, pos=at)
            else:
                left = Or(left, right, pos=at)

    def atom(self) -> NumExpr:
        # no call, not even of a str method, before the token is consumed:
        # each would move the token that "program nested too deeply" names
        text, where = self.texts[self.pos], self.where[self.pos]
        first = text[:1]
        if first in _DIGITS:
            self.pos += 1
            try:
                return IntLit(int(text), pos=where)
            except ValueError:  # more digits than int() converts
                raise ParseError(_TOO_LONG, *where) from None
        if first not in _NOT_NAME_STARTS and text not in KEYWORDS:
            self.pos += 1
            indices = []
            while self.accept("["):
                indices.append(self.number())
                self.expect("]")
            return Var(text, tuple(indices), pos=where)
        if text == "inf":
            self.pos += 1
            return IntLit(INF, pos=where)
        if text == "rank":
            self.pos += 1
            self.expect("(")
            cond = self.condition()
            self.expect(")")
            return RankOf(cond, pos=where)
        self.fail(f"expected an expression, found '{text or 'end of input'}'")


def _comparison(op: str, left: NumExpr, right: NumExpr, where) -> BoolExpr:
    """``>``/``>=`` swap into ``<``/``<=``, and ``!=`` negates ``==``."""
    if op in (">", ">="):
        return Cmp(op.replace(">", "<"), right, left, pos=where)
    if op == "!=":
        return Not(Cmp("==", left, right, pos=where), pos=where)
    return Cmp(op, left, right, pos=where)


#: statement parsers by the text of a statement's first token; any other
#: identifier starts an assignment
_STATEMENTS = {
    "{": _Parser.block_statement,
    "skip": _Parser.skip_statement,
    "observe": _Parser.observe_statement,
    "observeJ": _Parser.observe_jl_statement,
    "observeL": _Parser.observe_jl_statement,
    "if": _Parser.if_statement,
    "while": _Parser.while_statement,
    "either": _Parser.either_statement,
}


def parse_program(source: str) -> Stmt:
    """Parse a whole program into one statement tree.

    The source is split by ``_lex`` first.  Sequences come out
    right-nested.  ``if b then { s }`` comes out as ``if b then { s } else
    { skip }`` and ``x := e1 or(e) e2`` as a ranked choice between two
    assignments, both at the statement's position; ``any_of`` and
    ``observeJ``/``observeL`` stay sugar nodes, for the interpreter to run
    as they are.
    An empty program is accepted and behaves like ``skip``.  Raises
    ``ParseError`` on a syntax error, at the ``any_of`` token on an empty
    range, at an integer literal too long for ``int()``, and
    ``ParseError("program nested too deeply")`` at the token being read
    when the nesting exhausts Python's recursion limit.
    """
    parser = _Parser(source)
    try:
        return parser.program()
    except RecursionError:
        raise ParseError("program nested too deeply", *parser.where[parser.pos]) from None
