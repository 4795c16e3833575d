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
"""

from __future__ import annotations

import re
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
    Seq,
    Skip,
    Stmt,
    UniformPick,
    Var,
    While,
)

KEYWORDS = frozenset(
    {
        "skip",
        "observe",
        "observeJ",
        "observeL",
        "if",
        "then",
        "else",
        "while",
        "do",
        "either",
        "or",
        "rank",
        "inf",
        "any_of",
        "xor",
        "band",
        "bor",
    }
)

#: One match skips spaces, tabs, ``\r`` and a ``//`` comment, then reads a
#: newline (group 1) or one token: 2 symbol, 3 integer, 4 name with an ASCII
#: first character, 5 any other name.  Group 5 also takes a non-decimal digit
#: such as ``²`` as a first character, which ``tokenize`` rejects: a name
#: starts with a letter or ``_`` (``str.isalpha``) and goes on with letters,
#: digits or ``_`` (``str.isalnum``).  No group matches at the end of the
#: input or at a character that starts no token.  The token group is
#: optional, so a match never backtracks into the blanks it skipped.
_TOKEN = re.compile(
    r"[ \t\r]*(?://[^\n]*)?"
    r"(?:(\n)|(:=|==|!=|<=|>=|&&|\|\||\.\.|[-+*/%<>!(){}\[\];,])"
    r"|([0-9]+)|([A-Za-z_]\w*)|([^\W\d]\w*))?"
)
_GROUP_KIND = (None, None, "symbol", "integer", "identifier", "identifier")
_KEYWORD_KIND = dict.fromkeys(KEYWORDS, "keyword")


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


def tokenize(source: str) -> list[Token]:
    """Split ``source`` into tokens, ending with one ``eof`` token.

    One compiled pattern is matched at each position; it skips blanks and
    a comment and reads the next token or newline in the same match.  Lines
    and columns count from 1, and a column is the offset from the start of
    its line plus one, so a tab or carriage return counts as one character.
    Integer literals are ASCII digits only.  The ``eof`` token sits just past
    the last character, also when that character ends a ``//`` comment.
    Raises ``ParseError`` at the first character that starts no token.
    """
    tokens = []
    append = tokens.append
    match = _TOKEN.match
    new = tuple.__new__  # builds a Token without the Python-level __new__ call
    pos = line_start = 0
    line = 1
    while True:
        m = match(source, pos)
        group = m.lastindex
        if group is None:
            pos = m.end()
            break
        start, pos = m.span(group)
        if group == 1:
            line += 1
            line_start = pos
            continue
        text = source[start:pos]
        if group == 5 and not text[0].isalpha():
            pos = start
            break
        kind = _KEYWORD_KIND.get(text, _GROUP_KIND[group])
        append(new(Token, (kind, text, line, start - line_start + 1)))
    column = pos - line_start + 1
    if pos == len(source):
        append(Token("eof", "", line, column))
        return tokens
    ch = source[pos]
    if ch == "=":
        raise ParseError("'=' is not an operator (use '==' or ':=')", line, column)
    if ch == ":":
        raise ParseError("':' is not an operator (use ':=')", line, column)
    raise ParseError(f"unexpected character {ch!r}", line, column)


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
_TOP_LEVEL = ("",)  # a sequence ends at eof, whose text is empty ...
_IN_BLOCK = ("", "}")  # ... or, inside a block, at its '}'


class _Parser:
    """Recursive descent over the token list, with precedence climbing
    for expressions.

    Token texts alone decide: a symbol or keyword text never equals an
    identifier, integer or eof text, so no check needs a token's kind
    except where identifiers and integers are told apart.
    """

    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.texts = [tok.text for tok in tokens]
        self.pos = 0

    # token plumbing

    def advance(self) -> Token:
        """Consume the current token; never called at eof."""
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def at(self, text: str) -> bool:
        return self.texts[self.pos] == text

    def accept(self, text: str) -> bool:
        if self.texts[self.pos] == text:
            self.pos += 1
            return True
        return False

    def expect(self, text: str):
        if self.texts[self.pos] != text:
            tok = self.tokens[self.pos]
            raise ParseError(
                f"expected '{text}', found '{tok.text or 'end of input'}'",
                tok.line,
                tok.column,
            )
        self.pos += 1

    def fail(self, message: str):
        tok = self.tokens[self.pos]
        raise ParseError(message, tok.line, tok.column)

    # statements

    def program(self) -> Stmt:
        return self.sequence(_TOP_LEVEL)

    def sequence(self, stop: tuple) -> Stmt:
        """Statements up to a text in ``stop``; a '}' at top level is an
        error, not the end."""
        tokens, texts = self.tokens, self.texts
        statements = []
        while texts[self.pos] not in stop:
            tok = tokens[self.pos]
            parse = _STATEMENTS.get(tok.text)
            if parse is None:
                if tok.kind != "identifier":
                    self.fail(f"expected a statement, found '{tok.text}'")
                parse = _Parser.assignment
            statements.append(parse(self, tok, stop))
        if not statements:
            tok = tokens[self.pos]
            return Skip(pos=(tok.line, tok.column))
        result = statements[-1]
        for stmt in reversed(statements[:-1]):
            result = Seq(stmt, result, pos=stmt.pos)
        return result

    def block(self) -> Stmt:
        self.expect("{")
        body = self.sequence(_IN_BLOCK)
        self.expect("}")
        return body

    # Each statement parser takes the statement's first token, not yet
    # consumed, and the texts that may end the enclosing sequence.

    def block_statement(self, tok, stop) -> Stmt:
        body = self.block()
        self.accept(";")
        return body

    def skip_statement(self, tok, stop) -> Stmt:
        self.pos += 1
        self.terminator(stop)
        return Skip(pos=(tok.line, tok.column))

    def observe_statement(self, tok, stop) -> Stmt:
        self.pos += 1
        cond = self.condition()
        self.terminator(stop)
        return Observe(cond, pos=(tok.line, tok.column))

    def observe_jl_statement(self, tok, stop) -> Stmt:
        self.pos += 1
        self.expect("(")
        strength = self.number()
        self.expect(",")
        cond = self.condition()
        self.expect(")")
        self.terminator(stop)
        node = ObserveJ if tok.text == "observeJ" else ObserveL
        return node(strength, cond, pos=(tok.line, tok.column))

    def if_statement(self, tok, stop) -> Stmt:
        self.pos += 1
        cond = self.condition()
        self.expect("then")
        then_branch = self.block()
        where = (tok.line, tok.column)
        if not self.accept("else"):
            self.accept(";")
            else_branch = Skip(pos=where)
        elif self.at("if"):
            else_branch = self.if_statement(self.tokens[self.pos], stop)
        else:
            else_branch = self.block()
            self.accept(";")
        return IfThenElse(cond, then_branch, else_branch, pos=where)

    def while_statement(self, tok, stop) -> Stmt:
        self.pos += 1
        cond = self.condition()
        self.expect("do")
        body = self.block()
        self.accept(";")
        return While(cond, body, pos=(tok.line, tok.column))

    def either_statement(self, tok, stop) -> Stmt:
        self.pos += 1
        first = self.block()
        self.expect("or")
        self.expect("(")
        rank = self.number()
        self.expect(")")
        second = self.block()
        self.accept(";")
        return RankedChoice(first, rank, second, pos=(tok.line, tok.column))

    def terminator(self, stop):
        text = self.texts[self.pos]
        if text == ";":
            self.pos += 1
        elif text not in stop:
            self.fail("expected ';'")

    def assignment(self, name_tok, stop) -> Stmt:
        self.pos += 1
        where = (name_tok.line, name_tok.column)
        indices = []
        while self.accept("["):
            indices.append(self.number())
            self.expect("]")
        self.expect(":=")
        if self.at("any_of"):
            any_of = self.advance()
            self.expect("(")
            lower = self.int_literal()
            self.expect("..")
            upper = self.int_literal()
            self.expect(")")
            self.terminator(stop)
            try:
                return UniformPick(
                    name_tok.text, tuple(indices), lower, upper, pos=where
                )
            except DesugarError as exc:
                raise ParseError(str(exc), any_of.line, any_of.column) from None
        value = self.number()
        if self.accept("or"):
            self.expect("(")
            rank = self.number()
            self.expect(")")
            second = self.number()
            self.terminator(stop)
            name, indices = name_tok.text, tuple(indices)
            return RankedChoice(
                Assign(name, indices, value, pos=where),
                rank,
                Assign(name, indices, second, pos=where),
                pos=where,
            )
        self.terminator(stop)
        return Assign(name_tok.text, tuple(indices), value, pos=where)

    def int_literal(self) -> int:
        """An ``any_of`` bound: an integer with an optional ``-``."""
        sign = -1 if self.accept("-") else 1
        tok = self.tokens[self.pos]
        if tok.kind != "integer":
            self.fail("expected an integer literal")
        self.pos += 1
        return sign * int(tok.text)

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
        tok = self.tokens[self.pos]
        text = tok.text
        if text == "(":
            self.pos += 1
            left = self.expression(1)
            self.expect(")")
        elif text == "!":
            # one operand at comparison strength: !x < 1 is !(x < 1)
            self.pos += 1
            operand = self.checked(self.expression(3), BoolExpr)
            left = Not(operand, pos=(tok.line, tok.column))
        else:
            left = self.atom(tok)
        texts = self.texts
        while True:
            power = _BINDING_POWER.get(texts[self.pos], 0)
            if power < min_power:
                return left
            operands = NumExpr if power > 2 else BoolExpr
            self.checked(left, operands)
            tok = self.advance()
            right = self.checked(self.expression(power + 1), operands)
            where = (tok.line, tok.column)
            op = tok.text
            if power > 3:
                left = BinOp(op, left, right, pos=where)
            elif power == 3:
                left = _comparison(op, left, right, where)
            elif op == "&&":
                left = And(left, right, pos=where)
            else:
                left = Or(left, right, pos=where)

    def atom(self, tok) -> NumExpr:
        where = (tok.line, tok.column)
        kind = tok.kind
        if kind == "integer":
            self.pos += 1
            return IntLit(int(tok.text), pos=where)
        if kind == "identifier":
            self.pos += 1
            indices = []
            while self.accept("["):
                indices.append(self.number())
                self.expect("]")
            return Var(tok.text, tuple(indices), pos=where)
        text = tok.text
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

    The source is split by ``tokenize`` first.  Sequences come out
    right-nested.  ``if b then { s }`` comes out as ``if b then { s } else
    { skip }`` and ``x := e1 or(e) e2`` as a ranked choice between two
    assignments, both at the statement's position; ``any_of`` and
    ``observeJ``/``observeL`` stay sugar nodes, for the interpreter to run
    as they are.
    An empty program is accepted and behaves like ``skip``.  Raises
    ``ParseError`` on a syntax error, at the ``any_of`` token on an empty
    range, and ``ParseError("program nested too deeply")`` at the token
    being read when the nesting exhausts Python's recursion limit.
    """
    parser = _Parser(tokenize(source))
    try:
        return parser.program()
    except RecursionError:
        tok = parser.tokens[parser.pos]
        raise ParseError("program nested too deeply", tok.line, tok.column) from None
