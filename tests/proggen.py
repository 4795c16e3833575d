"""Random loop-free program generators for the oracle-equivalence suites."""

from rankpl.syntax import (
    And,
    Assign,
    BinOp,
    ChoiceAssign,
    Cmp,
    IfThen,
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
    UniformPick,
    Var,
)

# general-purpose variables take arbitrary values; the penalty pool only ever
# holds small non-negative literals so choice offsets stay well defined
VARS = ("a", "b", "c")
PENALTY_VARS = ("p", "q")


def _num(rng):
    pick = rng.random()
    if pick < 0.4:
        return IntLit(rng.randrange(-3, 7))
    if pick < 0.7:
        return Var(rng.choice(VARS))
    op = rng.choice(["+", "-", "*"])
    return BinOp(op, Var(rng.choice(VARS)), IntLit(rng.randrange(-2, 5)))


def _cond(rng):
    op = rng.choice(["==", "<"])
    base = Cmp(op, Var(rng.choice(VARS)), IntLit(rng.randrange(-1, 5)))
    pick = rng.random()
    if pick < 0.6:
        return base
    if pick < 0.8:
        return Not(base)
    return Or(base, Cmp("<", Var(rng.choice(VARS)), IntLit(rng.randrange(0, 4))))


def _offset(rng):
    pick = rng.random()
    if pick < 0.6:
        return IntLit(rng.randrange(0, 4))
    if pick < 0.9:
        return Var(rng.choice(PENALTY_VARS))
    return RankOf(_cond(rng))


def _statement(rng, depth):
    pick = rng.random()
    if depth <= 0 or pick < 0.3:
        if rng.random() < 0.25:
            return Assign(rng.choice(PENALTY_VARS), (), IntLit(rng.randrange(0, 4)))
        return Assign(rng.choice(VARS), (), _num(rng))
    if pick < 0.45:
        return Observe(_cond(rng))
    if pick < 0.75:
        return RankedChoice(
            _block(rng, depth - 1), _offset(rng), _block(rng, depth - 1)
        )
    return IfThenElse(_cond(rng), _block(rng, depth - 1), _block(rng, depth - 1))


def _block(rng, depth):
    statements = [_statement(rng, depth) for _ in range(rng.randrange(1, 4))]
    block = statements[-1]
    for stmt in reversed(statements[:-1]):
        block = Seq(stmt, block)
    return block


def random_program(rng, depth=4):
    """A loop-free program over five variables with choices and observes.

    Offsets are non-negative by construction, so runs never abort; an observe
    may still rule out every path.
    """
    prelude = Seq(
        Assign("a", (), IntLit(rng.randrange(0, 3))),
        Assign("p", (), IntLit(rng.randrange(0, 3))),
    )
    return Seq(prelude, _block(rng, depth))


# -- sugar ----------------------------------------------------------------------
# A second generator with its own draws, so the seeded suites above keep their
# programs.  It emits every sugar form the parser produces: if-then, x := a
# or(k) b, small any_of ranges, &&, <= and observeJ/observeL.


def _sugar_cond(rng):
    pick = rng.random()
    if pick < 0.3:
        return Cmp("<=", Var(rng.choice(VARS)), IntLit(rng.randrange(-1, 5)))
    if pick < 0.5:
        return And(_cond(rng), _sugar_cond(rng))
    return _cond(rng)


def _sugar_offset(rng):
    pick = rng.random()
    if pick < 0.5:
        return IntLit(rng.randrange(0, 4))
    if pick < 0.8:
        return Var(rng.choice(PENALTY_VARS))
    return RankOf(_sugar_cond(rng))


def _observe_graded(rng):
    """observeJ/observeL on ``z == 1`` right after ``z := any_of(0 .. 2)``,
    so that the condition and its negation both have finite rank.

    Right after the draw both sides have rank 0, where J- and L-conditioning
    agree.  A finite first strength keeps both sides finite, so a second
    observation may follow on ``z == 1`` or its negation, whose sides then
    differ in rank.
    """
    cond = Cmp("==", Var("z"), IntLit(1))
    first = _sugar_offset(rng)
    block = rng.choice([ObserveJ, ObserveL])(first, cond)
    if not isinstance(first, RankOf) and rng.random() < 0.5:
        second = rng.choice([cond, Not(cond)])
        block = Seq(block, rng.choice([ObserveJ, ObserveL])(_sugar_offset(rng), second))
    return Seq(UniformPick("z", (), 0, 2), block)


def _sugar_statement(rng, depth):
    pick = rng.random()
    if depth <= 0 or pick < 0.3:
        leaf = rng.random()
        if leaf < 0.2:
            return Assign(rng.choice(PENALTY_VARS), (), IntLit(rng.randrange(0, 4)))
        if leaf < 0.5:
            return ChoiceAssign(
                rng.choice(VARS), (), _num(rng), _sugar_offset(rng), _num(rng)
            )
        if leaf < 0.75:
            lower = rng.randrange(-1, 3)
            return UniformPick(rng.choice(VARS), (), lower, lower + rng.randrange(0, 3))
        return Assign(rng.choice(VARS), (), _num(rng))
    if pick < 0.4:
        return Observe(_sugar_cond(rng))
    if pick < 0.55:
        return _observe_graded(rng)
    if pick < 0.7:
        first = _sugar_block(rng, depth - 1)
        return RankedChoice(first, _sugar_offset(rng), _sugar_block(rng, depth - 1))
    if pick < 0.85:
        return IfThen(_sugar_cond(rng), _sugar_block(rng, depth - 1))
    return IfThenElse(
        _sugar_cond(rng), _sugar_block(rng, depth - 1), _sugar_block(rng, depth - 1)
    )


def _sugar_block(rng, depth):
    statements = [_sugar_statement(rng, depth) for _ in range(rng.randrange(1, 4))]
    block = statements[-1]
    for stmt in reversed(statements[:-1]):
        block = Seq(stmt, block)
    return block


def random_sugar_program(rng, depth=3):
    """Like ``random_program``, with sugar in every place the parser allows.

    Choice offsets and observation strengths are non-negative, and every
    observeJ/observeL has a condition whose two sides both have finite rank,
    so runs never abort.
    """
    prelude = Seq(
        Assign("a", (), IntLit(rng.randrange(0, 3))),
        Assign("p", (), IntLit(rng.randrange(0, 3))),
    )
    return Seq(prelude, _sugar_block(rng, depth))
