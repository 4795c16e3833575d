import random

import pytest

from rankpl.parser import parse_program
from rankpl.syntax import (
    And,
    Assign,
    BinOp,
    Cmp,
    CORE_STMTS,
    DesugarError,
    IfThenElse,
    IntLit,
    Not,
    Observe,
    ObserveJ,
    ObserveL,
    Or,
    RankedChoice,
    RankOf,
    Seq,
    Skip,
    UniformPick,
    Var,
    While,
    desugar,
    expand_observe_j,
    expand_observe_l,
    pretty_print,
)


def lit(n):
    return IntLit(n)


def core_only(s) -> bool:
    if not isinstance(s, CORE_STMTS):
        return False
    children = {
        Seq: lambda: (s.first, s.second),
        IfThenElse: lambda: (s.then_branch, s.else_branch),
        While: lambda: (s.body,),
        RankedChoice: lambda: (s.first, s.second),
    }.get(type(s), tuple)()
    return all(core_only(c) for c in children)


class TestDesugar:
    def test_uniform_pick_expands_right_nested(self):
        sugar = UniformPick("x", (), 0, 2)
        expected = RankedChoice(
            Assign("x", (), lit(0)),
            lit(0),
            RankedChoice(Assign("x", (), lit(1)), lit(0), Assign("x", (), lit(2))),
        )
        assert desugar(sugar) == expected

    def test_uniform_pick_single_value(self):
        assert desugar(UniformPick("x", (), 3, 3)) == Assign("x", (), lit(3))

    def test_uniform_pick_empty_range(self):
        # the node refuses an empty range when it is built
        with pytest.raises(DesugarError, match=r"empty range in any_of\(2 \.\. 1\)"):
            UniformPick("x", (), 2, 1)

    def test_and_lowers_to_or_and_not(self):
        a = Cmp("==", Var("x"), lit(1))
        b = Cmp("<", Var("y"), lit(2))
        lowered = desugar(Observe(And(a, b)))
        assert lowered == Observe(Not(Or(Not(a), Not(b))))

    def test_le_lowers_to_swapped_lt(self):
        lowered = desugar(Observe(Cmp("<=", Var("x"), lit(3))))
        assert lowered == Observe(Not(Cmp("<", lit(3), Var("x"))))

    def test_removes_all_sugar(self):
        program = Seq(
            UniformPick("x", (), 0, 3),
            Seq(
                ObserveL(lit(1), Cmp("<=", Var("x"), lit(2))),
                ObserveJ(lit(2), Cmp("==", Var("x"), lit(1))),
            ),
        )
        assert core_only(desugar(program))

    def test_idempotent(self):
        program = Seq(
            UniformPick("x", (), 0, 2),
            IfThenElse(
                And(Cmp("==", Var("x"), lit(1)), Cmp("<=", Var("x"), lit(2))),
                ObserveJ(lit(1), Cmp("<", Var("x"), lit(5))),
                Skip(),
            ),
        )
        once = desugar(program)
        assert desugar(once) == once


class TestExpansions:
    def test_observe_j_shape(self):
        cond = Cmp("==", Var("y"), lit(2))
        expanded = expand_observe_j(lit(2), cond)
        assert expanded == RankedChoice(Observe(cond), lit(2), Observe(Not(cond)))

    def test_observe_j_zero_strength(self):
        cond = Cmp("<", Var("y"), lit(1))
        expanded = expand_observe_j(lit(0), cond)
        assert expanded.rank == lit(0)
        assert isinstance(expanded.first, Observe)
        assert isinstance(expanded.second, Observe)

    def test_observe_l_shape(self):
        cond = Cmp("==", Var("y"), lit(2))
        strength = lit(2)
        expanded = expand_observe_l(strength, cond)
        assert isinstance(expanded, IfThenElse)
        assert expanded.cond == Cmp("<=", RankOf(cond), strength)
        taken = expanded.then_branch
        assert isinstance(taken, RankedChoice)
        assert taken.rank == BinOp(
            "+", BinOp("-", strength, RankOf(cond)), RankOf(Not(cond))
        )
        flipped = expanded.else_branch
        assert flipped.rank == BinOp("-", RankOf(cond), strength)

    def test_expansions_are_core_after_desugar(self):
        cond = Cmp("==", Var("y"), lit(2))
        assert core_only(desugar(expand_observe_j(Var("n"), cond)))
        assert core_only(desugar(expand_observe_l(Var("n"), cond)))


class TestPrettyPrint:
    def test_skip(self):
        assert pretty_print(Skip()) == "skip"

    def test_observe(self):
        assert pretty_print(Observe(Cmp("==", Var("x"), lit(1)))) == "observe x == 1"

    def test_ranked_choice(self):
        stmt = RankedChoice(Assign("x", (), lit(1)), lit(1), Assign("x", (), lit(2)))
        assert pretty_print(stmt) == "either { x := 1 } or (1) { x := 2 }"

    def test_round_trips_through_parser(self):
        stmt = Seq(
            Assign("x", (), BinOp("+", Var("x"), lit(1))),
            While(
                Cmp("<", Var("x"), lit(5)),
                Observe(Not(Cmp("==", Var("y", (Var("x"),)), lit(0)))),
            ),
        )
        assert parse_program(pretty_print(stmt)) == stmt


class TestLongPrograms:
    """``desugar`` and ``pretty_print`` walk sequences and ``any_of`` chains
    in loops, so their depth never meets the recursion limit.  Trees this
    deep are checked by walking them, because ``==`` on them recurses."""

    LINES = ["x := x + 1", "observe x <= 5000"] * 1500

    def test_desugar_of_a_3000_statement_program(self):
        node = desugar(parse_program(";\n".join(self.LINES) + ";"))
        kinds = []
        while isinstance(node, Seq):
            kinds.append(type(node.first))
            node = node.second
        kinds.append(type(node))
        assert kinds == [Assign, Observe] * 1500
        # x <= 5000 lowers to !(5000 < x)
        assert node == Observe(Not(Cmp("<", lit(5000), Var("x"))))

    def test_pretty_print_of_a_3000_statement_program(self):
        program = parse_program(";\n".join(self.LINES) + ";")
        assert pretty_print(program) == "; ".join(
            "x := (x + 1)" if line.startswith("x") else line for line in self.LINES
        )

    def test_pretty_print_of_a_left_nested_sequence(self):
        program = Skip()
        for n in range(3000):
            program = Seq(program, Assign("x", (), lit(n)))
        assert pretty_print(program) == "; ".join(
            ["skip"] + [f"x := {n}" for n in range(3000)]
        )

    def test_desugar_of_a_wide_any_of(self):
        node = desugar(parse_program("x := any_of(0 .. 2000);"))
        for n in range(2000):
            assert isinstance(node, RankedChoice)
            assert node.first == Assign("x", (), lit(n))
            assert node.rank == lit(0)
            node = node.second
        assert node == Assign("x", (), lit(2000))


# -- randomized round-trip ----------------------------------------------------


def random_num(rng, depth, names=("x", "y", "z")):
    pick = rng.random()
    if depth <= 0 or pick < 0.35:
        return IntLit(rng.randrange(0, 10))
    if pick < 0.6:
        name = rng.choice(names)
        if rng.random() < 0.25:
            return Var(name, (random_num(rng, depth - 1),))
        return Var(name)
    if pick < 0.7:
        return RankOf(random_bool(rng, depth - 1))
    op = rng.choice(["+", "-", "*", "/", "%", "xor", "band", "bor"])
    return BinOp(op, random_num(rng, depth - 1), random_num(rng, depth - 1))


def random_bool(rng, depth):
    pick = rng.random()
    if depth <= 0 or pick < 0.5:
        op = rng.choice(["==", "<"])
        return Cmp(op, random_num(rng, depth - 1), random_num(rng, depth - 1))
    if pick < 0.7:
        return Not(random_bool(rng, depth - 1))
    return Or(random_bool(rng, depth - 1), random_bool(rng, depth - 1))


def random_core_stmt(rng, depth, allow_seq=True):
    # the parser right-nests sequences, so only generate trees of that shape
    pick = rng.random()
    if depth <= 0 or pick < 0.3:
        if rng.random() < 0.2:
            return Skip()
        return Assign(rng.choice("xyz"), (), random_num(rng, 2))
    if pick < 0.45 and allow_seq:
        return Seq(
            random_core_stmt(rng, depth - 1, allow_seq=False),
            random_core_stmt(rng, depth - 1),
        )
    if pick < 0.6:
        return IfThenElse(
            random_bool(rng, 2),
            random_core_stmt(rng, depth - 1),
            random_core_stmt(rng, depth - 1),
        )
    if pick < 0.7:
        return While(random_bool(rng, 2), random_core_stmt(rng, depth - 1))
    if pick < 0.85:
        return RankedChoice(
            random_core_stmt(rng, depth - 1),
            random_num(rng, 1),
            random_core_stmt(rng, depth - 1),
        )
    return Observe(random_bool(rng, 2))


def test_random_core_trees_round_trip():
    rng = random.Random(20240811)
    for _ in range(300):
        stmt = random_core_stmt(rng, 4)
        assert parse_program(pretty_print(stmt)) == stmt
