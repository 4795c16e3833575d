import random
import sys

import pytest

from proggen import random_program
from test_syntax import random_core_stmt

from rankpl.parser import ParseError, Token, parse_program, tokenize
from rankpl.syntax import (
    And,
    Assign,
    BinOp,
    Cmp,
    IfThenElse,
    IntLit,
    Not,
    Observe,
    ObserveL,
    RankedChoice,
    RankOf,
    Seq,
    Skip,
    UniformPick,
    Var,
    While,
    pretty_print,
)
from rankpl.ranking import INF


class TestTokenize:
    def test_assignment(self):
        kinds = [(t.kind, t.text) for t in tokenize("x := 1;")]
        assert kinds == [
            ("identifier", "x"),
            ("symbol", ":="),
            ("integer", "1"),
            ("symbol", ";"),
            ("eof", ""),
        ]

    def test_keywords_and_comparison(self):
        kinds = [(t.kind, t.text) for t in tokenize("observe y > 1;")]
        assert kinds == [
            ("keyword", "observe"),
            ("identifier", "y"),
            ("symbol", ">"),
            ("integer", "1"),
            ("symbol", ";"),
            ("eof", ""),
        ]

    def test_unknown_character(self):
        with pytest.raises(ParseError) as err:
            tokenize("@")
        assert err.value.line == 1 and err.value.column == 1

    def test_comments_and_positions(self):
        tokens = tokenize("// intro\nx := 1;")
        assert tokens[0] == Token("identifier", "x", 2, 1)

    def test_lone_equals_is_rejected(self):
        with pytest.raises(ParseError):
            tokenize("x = 1;")

    def test_integer_literals_are_ascii_digits(self):
        # str.isdigit accepts '²' and '٣', but they are no integer literal
        for source, column in (("x := ²;", 6), ("x := 1²;", 7), ("x := ٣;", 6)):
            with pytest.raises(ParseError) as err:
                tokenize(source)
            assert err.value.message == f"unexpected character {source[column - 1]!r}"
            assert (err.value.line, err.value.column) == (1, column)

    def test_unicode_identifiers(self):
        assert tokenize("é := 1;")[0] == Token("identifier", "é", 1, 1)
        assert tokenize("x² := 1;")[0] == Token("identifier", "x²", 1, 1)
        with pytest.raises(ParseError) as err:
            tokenize("½ := 1;")
        assert err.value.message == "unexpected character '½'"

    def test_eof_after_trailing_comment(self):
        # the end-of-input token sits after the comment, not where it starts
        assert tokenize("x := 1; // done")[-1] == Token("eof", "", 1, 16)
        assert tokenize("x := 1;\n//")[-1] == Token("eof", "", 2, 3)


def _must_separate(left: str, right: str) -> bool:
    """Whether two token texts would read as one name or number, as a
    two-character symbol or as the start of a comment if they touched."""
    if (left[-1].isalnum() or left[-1] == "_") and (right[0].isalnum() or right[0] == "_"):
        return True
    return left[-1] + right[0] in (":=", "==", "!=", "<=", ">=", "&&", "||", "..", "//")


_GAPS = (" ", "  ", "\t", "\n", "\r\n", "\n\n", " // note := 1;\n", "//\n", "\t//x\r\n")
#: forms the random trees do not print: '..', '<=', '>=', '!=', '&&', 'inf'
_EXTRA = "w := any_of(0 .. 2); observe w <= 1 && w >= 0 || w != 3 && w < inf;"


def _scatter(rng, texts):
    """Join token texts with random blanks, newlines and comments, often
    with none at all; returns the source and each token's offset in it."""
    def gap(choices):
        text = rng.choice(choices)
        return " " + text if source.endswith("/") and text.startswith("/") else text

    source, offsets = rng.choice(("", " ", "\n", "// head\n")), []
    for i, text in enumerate(texts):
        if i and (_must_separate(texts[i - 1], text) or rng.random() < 0.6):
            source += gap(_GAPS)
        offsets.append(len(source))
        source += text
    source += gap(("", " ", "\n", "\r\n", "// tail", " //tail := 2;"))
    return source, offsets


def _line_and_column(source, offset):
    line_start = source.rfind("\n", 0, offset) + 1
    return source.count("\n", 0, offset) + 1, offset - line_start + 1


def test_token_positions_in_scattered_sources():
    rng = random.Random(4242)
    for round_ in range(300):
        tree = random_core_stmt(rng, 4) if round_ % 2 else random_program(rng)
        compact = _EXTRA + " " + pretty_print(tree)
        texts = [tok.text for tok in tokenize(compact)[:-1]]
        source, offsets = _scatter(rng, texts)
        tokens = tokenize(source)
        assert [tok.text for tok in tokens[:-1]] == texts
        lines = source.split("\n")
        for tok, offset in zip(tokens, offsets):
            assert (tok.line, tok.column) == _line_and_column(source, offset), source
            assert lines[tok.line - 1][tok.column - 1 :].startswith(tok.text)
        eof = tokens[-1]
        assert eof.kind == "eof"
        assert (eof.line, eof.column) == _line_and_column(source, len(source))
        assert parse_program(source) == parse_program(compact)


#: pieces of random sources: tokens, blanks, newlines and comments, and,
#: drawn less often, characters that start no token alone or at all
_LEX_PIECES = (
    "x", "é", "_", "if", "7", ":=", "==", "<", "!", "&&", "..", "/", "//", "(",
    "}", ";", "-", " ", "\t", "\r", "\n",
)  # fmt: skip
_LEX_ODD = ("٣", "²", "½", "=", ":", "&", "|", ".", "\x0c", "\u00a0")


def _starts_a_token(line: str, i: int) -> bool:
    """Whether a token can start at ``line[i]``, by the token rules alone."""
    ch = line[i]
    if ch in "-+*/%<>!(){}[];," or ch in "0123456789" or ch == "_" or ch.isalpha():
        return True
    return line[i : i + 2] in (":=", "==", "&&", "||", "..")


def _lengthens(token: str, ch: str) -> bool:
    """Whether ``ch`` right after ``token`` would belong to it: the lexer
    reads the longest token it can (and ``//`` is a comment)."""
    if token[0].isalpha() or token[0] == "_":
        return ch.isalnum() or ch == "_"
    if token[0] in "0123456789":
        return ch in "0123456789"
    return token + ch in (":=", "==", "!=", "<=", ">=", "&&", "||", "..", "//")


def test_lexer_reads_or_rejects_random_sources():
    # either every token's text sits at its position, and blanking them all
    # leaves blanks, newlines and comments, or the error names a character
    # outside a comment that starts no token, with none before it
    rng = random.Random(1312)
    rejected = 0
    for _ in range(3000):
        source = "".join(
            rng.choice(_LEX_ODD if rng.random() < 0.04 else _LEX_PIECES)
            for _ in range(rng.randrange(1, 30))
        )
        lines = source.split("\n")
        try:
            tokens = tokenize(source)
        except ParseError as err:
            rejected += 1
            line, column = lines[err.line - 1], err.column - 1
            assert "//" not in line[:column] and line[column] not in " \t\r"
            assert not _starts_a_token(line, column), (source, err)
            offset = sum(len(before) + 1 for before in lines[: err.line - 1]) + column
            tokenize(source[:offset])
            continue
        assert tokens[-1] == Token("eof", "", len(lines), len(lines[-1]) + 1)
        blanked = [list(line) for line in lines]
        for tok, after in zip(tokens[:-1], tokens[1:-1] + [None]):
            start = tok.column - 1
            end = start + len(tok.text)
            assert lines[tok.line - 1][start:end] == tok.text, (source, tok)
            assert _starts_a_token(lines[tok.line - 1], start), (source, tok)
            integer = tok.text.isascii() and tok.text.isdigit()
            assert (tok.kind == "integer") == integer, (source, tok)
            blanked[tok.line - 1][start:end] = " " * len(tok.text)
            if after and (after.line, after.column - 1) == (tok.line, end):
                assert not _lengthens(tok.text, after.text[0]), (source, tok)
        for line, row in zip(lines, blanked):
            code, comment, _ = "".join(row).partition("//")
            assert code.strip(" \t\r") == "", (source, row)
            assert not comment or line[len(code) : len(code) + 2] == "//"
    assert 0 < rejected < 3000


class TestParseProgram:
    def test_intro_program(self):
        source = (
            "x := 10; either {y:=1} or (1) { either {y:=2} or (1) {y:=3} }; "
            "x := x * y;"
        )
        program = parse_program(source)
        expected = Seq(
            Assign("x", (), IntLit(10)),
            Seq(
                RankedChoice(
                    Assign("y", (), IntLit(1)),
                    IntLit(1),
                    RankedChoice(
                        Assign("y", (), IntLit(2)), IntLit(1), Assign("y", (), IntLit(3))
                    ),
                ),
                Assign("x", (), BinOp("*", Var("x"), Var("y"))),
            ),
        )
        assert program == expected

    def test_while_loop(self):
        program = parse_program("while x < 3 do { x := x + 1; }")
        assert program == While(
            Cmp("<", Var("x"), IntLit(3)),
            Assign("x", (), BinOp("+", Var("x"), IntLit(1))),
        )

    def test_observe_l(self):
        program = parse_program("observeL(1, nd == ns[t]);")
        assert program == ObserveL(
            IntLit(1), Cmp("==", Var("nd"), Var("ns", (Var("t"),)))
        )

    def test_empty_program_is_skip(self):
        assert parse_program("") == Skip()
        assert parse_program("   // nothing\n") == Skip()

    def test_greater_than_swaps(self):
        assert parse_program("observe y > 1;") == Observe(
            Cmp("<", IntLit(1), Var("y"))
        )
        assert parse_program("observe y >= 1;") == Observe(
            Cmp("<=", IntLit(1), Var("y"))
        )
        assert parse_program("observe y != 1;") == Observe(
            Not(Cmp("==", Var("y"), IntLit(1)))
        )

    def test_any_of(self):
        assert parse_program("x := any_of(0 .. 7);") == UniformPick("x", (), 0, 7)

    def test_any_of_bounds_may_be_negative(self):
        for lower, upper in ((-1, 1), (-3, -2), (0, 0)):
            pick = UniformPick("x", (), lower, upper)
            assert parse_program(pretty_print(pick)) == pick
        assert parse_program("x := any_of(- 2 .. -0);") == UniformPick("x", (), -2, 0)
        with pytest.raises(ParseError) as err:
            parse_program("x := any_of(-y .. 1);")
        assert err.value.message == "expected an integer literal"
        assert err.value.column == 14

    def test_empty_any_of_range_is_an_error_at_the_any_of_token(self):
        with pytest.raises(ParseError) as err:
            parse_program("x := 0;\nif x == 1 then { y := any_of(3 .. 1); }")
        assert (err.value.line, err.value.column) == (2, 23)
        assert err.value.message == "empty range in any_of(3 .. 1)"

    def test_choice_assignment_sugar(self):
        assert parse_program("a1 := 0 or(1) 1;") == RankedChoice(
            Assign("a1", (), IntLit(0)), IntLit(1), Assign("a1", (), IntLit(1))
        )

    def test_else_if_chain(self):
        program = parse_program(
            "if x == 0 then { y := 1; } else if x == 1 then { y := 2; } "
            "else { y := 3; }"
        )
        assert program == IfThenElse(
            Cmp("==", Var("x"), IntLit(0)),
            Assign("y", (), IntLit(1)),
            IfThenElse(
                Cmp("==", Var("x"), IntLit(1)),
                Assign("y", (), IntLit(2)),
                Assign("y", (), IntLit(3)),
            ),
        )

    def test_if_without_else(self):
        assert parse_program("if x == 0 then { skip; }") == IfThenElse(
            Cmp("==", Var("x"), IntLit(0)), Skip(), Skip()
        )

    def test_boolean_precedence(self):
        program = parse_program("observe a == 0 && b == 1 || !(c < 2);")
        cond = program.cond
        assert cond == parse_program(
            "observe (a == 0 && b == 1) || !(c < 2);"
        ).cond

    def test_negation_takes_one_comparison(self):
        program = parse_program("observe !x < 1 && y == 0;")
        assert program.cond == And(
            Not(Cmp("<", Var("x"), IntLit(1))), Cmp("==", Var("y"), IntLit(0))
        )

    def test_wrong_operand_kind_fails_right_after_the_operand(self):
        cases = {
            "observe x;": ("expected a comparison operator", 10),
            "observe a && b < 1;": ("expected a comparison operator", 11),
            "observe a < 1 && (b);": ("expected a comparison operator", 21),
            "observe !(x) && y < 1;": ("expected a comparison operator", 14),
            "x := (a < 1);": ("expected a number, not a condition", 13),
            "observe (a < 1) + 1 < 2;": ("expected a number, not a condition", 17),
            "if a < b < c then { skip; }": ("expected a number, not a condition", 10),
        }
        for source, (message, column) in cases.items():
            with pytest.raises(ParseError) as err:
                parse_program(source)
            assert (err.value.message, err.value.line, err.value.column) == (
                message,
                1,
                column,
            ), source

    def test_numeric_precedence(self):
        program = parse_program("x := 1 + 2 * 3 xor 4;")
        assert program.value == BinOp(
            "xor", BinOp("+", IntLit(1), BinOp("*", IntLit(2), IntLit(3))), IntLit(4)
        )

    def test_rank_expression_and_inf(self):
        program = parse_program("x := rank(y == 1) + inf;")
        assert program.value == BinOp(
            "+", RankOf(Cmp("==", Var("y"), IntLit(1))), IntLit(INF)
        )

    def test_parenthesized_bool_vs_numeric(self):
        left = parse_program("observe (x + 1) < 2;")
        assert left == Observe(Cmp("<", BinOp("+", Var("x"), IntLit(1)), IntLit(2)))
        right = parse_program("observe (x < 1) && (y < 2);")
        assert right == Observe(
            And(Cmp("<", Var("x"), IntLit(1)), Cmp("<", Var("y"), IntLit(2)))
        )

    def test_indexed_assignment(self):
        program = parse_program("a[0][i + 1] := 5;")
        assert program == Assign(
            "a", (IntLit(0), BinOp("+", Var("i"), IntLit(1))), IntLit(5)
        )

    def test_trailing_semicolon_is_optional(self):
        assert parse_program("skip") == parse_program("skip;")
        assert parse_program("x := 1; y := 2") == parse_program("x := 1; y := 2;")

    def test_errors_carry_positions(self):
        with pytest.raises(ParseError) as err:
            parse_program("x := ;")
        assert err.value.line == 1 and err.value.column == 6
        with pytest.raises(ParseError) as err:
            parse_program("while x < 3 do { x := x + 1;")
        assert "expected '}'" in err.value.message
        with pytest.raises(ParseError) as err:
            parse_program("if x == 1 then { skip; } else { skip; } else { skip; }")
        assert err.value.line == 1

    @pytest.mark.skipif(
        not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
        reason="int() converts integers of any length",
    )
    def test_integer_literal_longer_than_int_converts_is_an_error(self):
        digits = "9" * sys.get_int_max_str_digits()
        assert parse_program(f"x := {digits};") == Assign("x", (), IntLit(int(digits)))
        for source, column in (
            (f"x := 1 + {digits}9;", 10),
            (f"x := any_of(0 .. {digits}9);", 18),
            (f"x := any_of(-{digits}9 .. 0);", 14),
        ):
            with pytest.raises(ParseError) as err:
                parse_program(source)
            assert err.value.message == "integer literal too long"
            assert (err.value.line, err.value.column) == (1, column)

    def test_keywords_are_reserved(self):
        with pytest.raises(ParseError):
            parse_program("observe := 1;")

    def test_deep_nesting_within_the_recursion_limit_parses(self):
        parens = parse_program("x := " + "(" * 200 + "1" + ")" * 200 + ";")
        assert parens == Assign("x", (), IntLit(1))
        # a level of parentheses costs one frame
        parens = parse_program("observe " + "(" * 500 + "x < 1" + ")" * 500 + ";")
        assert parens == Observe(Cmp("<", Var("x"), IntLit(1)))
        ifs = parse_program("if x == 0 then { " * 200 + "skip;" + " }" * 200)
        for _ in range(200):
            assert isinstance(ifs, IfThenElse)
            ifs = ifs.then_branch
        assert ifs == Skip()

    def test_nesting_too_deep_is_a_parse_error(self):
        for source in (
            "x := " + "(" * 1000 + "1" + ")" * 1000 + ";",
            "if x == 0 then { " * 1000 + "skip;" + " }" * 1000,
        ):
            with pytest.raises(ParseError) as err:
                parse_program(source)
            assert err.value.message == "program nested too deeply"
            # the error points at the token being read
            starts = {(tok.line, tok.column) for tok in tokenize(source)}
            assert (err.value.line, err.value.column) in starts

    def test_error_positions_stay_within_source(self):
        broken = [
            "x := ;",
            "if then { skip; }",
            "either { skip; } or { skip; }",
            "x := 1 +;",
            "observe x;",
            "while x < do { }",
            "x[1 := 2;",
        ]
        for source in broken:
            with pytest.raises(ParseError) as err:
                parse_program(source)
            lines = source.splitlines() or [""]
            assert 1 <= err.value.line <= len(lines)
            assert 1 <= err.value.column <= len(lines[err.value.line - 1]) + 1
