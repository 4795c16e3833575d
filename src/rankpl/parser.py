"""Concrete syntax for RankPL programs.

The textual rendering is deliberately plain ASCII: ``:=`` assignment, ``==``
``<`` ``<=`` ``>`` ``>=`` ``!=`` comparisons, ``!`` ``&&`` ``||`` boolean
operators, ``rank(b)`` rank expressions, ``either { s1 } or (e) { s2 }``
ranked choice, ``x := e1 or(e) e2`` and ``if b then { s }`` (built as the
core statements they abbreviate), the sugar ``x := any_of(lo .. hi)``, and
``observeJ(x, b)`` / ``observeL(x, b)`` for the generalized observations.
``//`` starts a line comment.  Simple statements end with ``;`` (omittable
before ``}`` or end of input); block statements may carry an optional ``;``.

Operator precedence, tightest first: unary ``!`` on booleans; ``*`` ``/``
``%``; ``+`` ``-``; ``xor`` ``band`` ``bor``; comparisons; ``&&``; ``||``.
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


_CMP_TOKENS = frozenset({"==", "!=", "<", "<=", ">", ">="})
_NUM_FOLLOW = _CMP_TOKENS | {"+", "-", "*", "/", "%", "xor", "band", "bor", ".."}
_BIT_OPS = frozenset({"xor", "band", "bor"})
_ADD_OPS = frozenset({"+", "-"})
_MUL_OPS = frozenset({"*", "/", "%"})
_TOP_LEVEL = ("",)  # a sequence ends at eof, whose text is empty ...
_IN_BLOCK = ("", "}")  # ... or, inside a block, at its '}'


class _Parser:
    """Recursive descent over the token list.

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
        cond = self.bool_expr()
        self.terminator(stop)
        return Observe(cond, pos=(tok.line, tok.column))

    def observe_jl_statement(self, tok, stop) -> Stmt:
        self.pos += 1
        self.expect("(")
        strength = self.num_expr()
        self.expect(",")
        cond = self.bool_expr()
        self.expect(")")
        self.terminator(stop)
        node = ObserveJ if tok.text == "observeJ" else ObserveL
        return node(strength, cond, pos=(tok.line, tok.column))

    def if_statement(self, tok, stop) -> Stmt:
        self.pos += 1
        cond = self.bool_expr()
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
        cond = self.bool_expr()
        self.expect("do")
        body = self.block()
        self.accept(";")
        return While(cond, body, pos=(tok.line, tok.column))

    def either_statement(self, tok, stop) -> Stmt:
        self.pos += 1
        first = self.block()
        self.expect("or")
        self.expect("(")
        rank = self.num_expr()
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
            indices.append(self.num_expr())
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
        value = self.num_expr()
        if self.accept("or"):
            self.expect("(")
            rank = self.num_expr()
            self.expect(")")
            second = self.num_expr()
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
        tok = self.tokens[self.pos]
        if tok.kind != "integer":
            self.fail("expected an integer literal")
        self.pos += 1
        return int(tok.text)

    # boolean expressions

    def bool_expr(self) -> BoolExpr:
        return self.bool_or()

    def bool_or(self) -> BoolExpr:
        left = self.bool_and()
        while self.texts[self.pos] == "||":
            tok = self.advance()
            left = Or(left, self.bool_and(), pos=(tok.line, tok.column))
        return left

    def bool_and(self) -> BoolExpr:
        left = self.bool_unary()
        while self.texts[self.pos] == "&&":
            tok = self.advance()
            left = And(left, self.bool_unary(), pos=(tok.line, tok.column))
        return left

    def bool_unary(self) -> BoolExpr:
        text = self.texts[self.pos]
        if text == "!":
            tok = self.advance()
            return Not(self.bool_unary(), pos=(tok.line, tok.column))
        if text == "(":
            # '(' is ambiguous: a parenthesized boolean or the start of a
            # numeric comparison.  Try the boolean reading, fall back.
            saved = self.pos
            try:
                self.pos += 1
                inner = self.bool_or()
                self.expect(")")
                if self.texts[self.pos] not in _NUM_FOLLOW:
                    return inner
            except ParseError:
                pass
            self.pos = saved
        return self.comparison()

    def comparison(self) -> BoolExpr:
        left = self.num_expr()
        if self.texts[self.pos] not in _CMP_TOKENS:
            self.fail("expected a comparison operator")
        tok = self.advance()
        right = self.num_expr()
        where = (tok.line, tok.column)
        if tok.text == "==":
            return Cmp("==", left, right, pos=where)
        if tok.text == "<":
            return Cmp("<", left, right, pos=where)
        if tok.text == "<=":
            return Cmp("<=", left, right, pos=where)
        if tok.text == ">":
            return Cmp("<", right, left, pos=where)
        if tok.text == ">=":
            return Cmp("<=", right, left, pos=where)
        return Not(Cmp("==", left, right, pos=where), pos=where)

    # numeric expressions

    def num_expr(self) -> NumExpr:
        left = self.num_additive()
        while self.texts[self.pos] in _BIT_OPS:
            tok = self.advance()
            left = BinOp(tok.text, left, self.num_additive(), pos=(tok.line, tok.column))
        return left

    def num_additive(self) -> NumExpr:
        left = self.num_multiplicative()
        while self.texts[self.pos] in _ADD_OPS:
            tok = self.advance()
            left = BinOp(
                tok.text, left, self.num_multiplicative(), pos=(tok.line, tok.column)
            )
        return left

    def num_multiplicative(self) -> NumExpr:
        left = self.num_atom()
        while self.texts[self.pos] in _MUL_OPS:
            tok = self.advance()
            left = BinOp(tok.text, left, self.num_atom(), pos=(tok.line, tok.column))
        return left

    def num_atom(self) -> NumExpr:
        tok = self.tokens[self.pos]
        where = (tok.line, tok.column)
        kind = tok.kind
        if kind == "integer":
            self.pos += 1
            return IntLit(int(tok.text), pos=where)
        if kind == "identifier":
            self.pos += 1
            indices = []
            while self.accept("["):
                indices.append(self.num_expr())
                self.expect("]")
            return Var(tok.text, tuple(indices), pos=where)
        text = tok.text
        if text == "inf":
            self.pos += 1
            return IntLit(INF, pos=where)
        if text == "rank":
            self.pos += 1
            self.expect("(")
            cond = self.bool_expr()
            self.expect(")")
            return RankOf(cond, pos=where)
        if text == "(":
            self.pos += 1
            inner = self.num_expr()
            self.expect(")")
            return inner
        self.fail(f"expected an expression, found '{text or 'end of input'}'")


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
