"""Random program generators for the oracle-equivalence suites: two
loop-free ones, one with counter-bounded loops and arrays, and the injection
of one runtime error into a generated program."""

from rankpl.ranking import INF
from rankpl.syntax import (
    And,
    Assign,
    BinOp,
    Cmp,
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
    sequence,
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
    return sequence([_statement(rng, depth) for _ in range(rng.randrange(1, 4))])


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
# programs.  It emits every form the parser produces beyond the core ones:
# small any_of ranges, &&, <= and observeJ/observeL, plus the core trees the
# parser builds for if-then and x := a or(k) b.


def random_condition(rng):
    """A condition over the general-purpose variables, with the sugar ``&&``
    and ``<=``; it reads no ``rank()``."""
    pick = rng.random()
    if pick < 0.3:
        return Cmp("<=", Var(rng.choice(VARS)), IntLit(rng.randrange(-1, 5)))
    if pick < 0.5:
        return And(_cond(rng), random_condition(rng))
    return _cond(rng)


def _sugar_offset(rng):
    pick = rng.random()
    if pick < 0.5:
        return IntLit(rng.randrange(0, 4))
    if pick < 0.8:
        return Var(rng.choice(PENALTY_VARS))
    return RankOf(random_condition(rng))


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
            # x := a or(k) b, which the parser builds as this ranked choice
            name, first, offset = rng.choice(VARS), _num(rng), _sugar_offset(rng)
            return RankedChoice(
                Assign(name, (), first), offset, Assign(name, (), _num(rng))
            )
        if leaf < 0.75:
            lower = rng.randrange(-1, 3)
            return UniformPick(rng.choice(VARS), (), lower, lower + rng.randrange(0, 3))
        return Assign(rng.choice(VARS), (), _num(rng))
    if pick < 0.4:
        return Observe(random_condition(rng))
    if pick < 0.55:
        return _observe_graded(rng)
    if pick < 0.7:
        first = _sugar_block(rng, depth - 1)
        return RankedChoice(first, _sugar_offset(rng), _sugar_block(rng, depth - 1))
    if pick < 0.85:
        # if b then { s }, which the parser builds with an else { skip }
        return IfThenElse(random_condition(rng), _sugar_block(rng, depth - 1), Skip())
    cond = random_condition(rng)
    return IfThenElse(cond, _sugar_block(rng, depth - 1), _sugar_block(rng, depth - 1))


def _sugar_block(rng, depth):
    return sequence([_sugar_statement(rng, depth) for _ in range(rng.randrange(1, 4))])


def random_sugar_program(rng, depth=3):
    """Like ``random_program``, with sugar (``any_of``, ``&&``, ``<=``,
    observeJ/observeL) in every place the parser allows, and the core trees
    the parser builds for ``if b then { s }`` and ``x := a or(k) b``.

    Choice offsets and observation strengths are non-negative, and every
    observeJ/observeL has a condition whose two sides both have finite rank,
    so runs never abort.
    """
    prelude = Seq(
        Assign("a", (), IntLit(rng.randrange(0, 3))),
        Assign("p", (), IntLit(rng.randrange(0, 3))),
    )
    return Seq(prelude, _sugar_block(rng, depth))


# -- loops and arrays -----------------------------------------------------------
# A third generator with its own draws.  Every loop is bounded by a dedicated
# counter that only the loop itself resets and increments: ``i`` at the outer
# level, ``j`` in a loop nested in it.  So each loop runs at most three times
# and the oracle's unrolling always ends.

ARRAY = "arr"
COUNTERS = ("i", "j")


def _index(rng, counters):
    if counters and rng.random() < 0.4:
        return Var(rng.choice(counters))
    return IntLit(rng.randrange(0, 3))


def _loop_num(rng, counters):
    pick = rng.random()
    if pick < 0.3:
        return Var(ARRAY, (_index(rng, counters),))
    if pick < 0.45 and counters:
        return BinOp("+", Var(rng.choice(counters)), IntLit(rng.randrange(0, 3)))
    return _num(rng)


def _loop_cond(rng, counters):
    if rng.random() < 0.35:
        op = rng.choice(["==", "<"])
        cell = Var(ARRAY, (_index(rng, counters),))
        return Cmp(op, cell, IntLit(rng.randrange(-1, 4)))
    return _cond(rng)


def _loop_offset(rng, counters):
    """A choice offset, sometimes with rank() nested in rank().

    A rank may be inf; it is only ever added to or compared with, which the
    oracle's infinity arithmetic defines.
    """
    pick = rng.random()
    if pick < 0.4:
        return IntLit(rng.randrange(0, 4))
    if pick < 0.6:
        return Var(rng.choice(PENALTY_VARS))
    if pick < 0.7:
        return RankOf(_loop_cond(rng, counters))
    if pick < 0.85:
        inner = BinOp("+", RankOf(_cond(rng)), IntLit(rng.randrange(0, 2)))
        return RankOf(Cmp("<", Var(rng.choice(VARS)), inner))
    nested = RankOf(Cmp("<", RankOf(_cond(rng)), IntLit(1)))
    return BinOp("+", RankOf(_cond(rng)), nested)


def _loop(rng, depth, counters):
    """``c := 0; while c < n [&& b] do { ...; c := c + 1; }`` with n <= 3."""
    counter = COUNTERS[len(counters)]
    inner = counters + (counter,)
    guard = Cmp("<", Var(counter), IntLit(rng.randrange(0, 4)))
    if rng.random() < 0.5:
        guard = And(guard, _loop_cond(rng, inner))
    step = Assign(counter, (), BinOp("+", Var(counter), IntLit(1)))
    body = Seq(_loop_block(rng, depth - 1, inner), step)
    return Seq(Assign(counter, (), IntLit(0)), While(guard, body))


def _loop_statement(rng, depth, counters):
    pick = rng.random()
    if depth <= 0 or pick < 0.3:
        leaf = rng.random()
        if leaf < 0.3:
            return Assign(ARRAY, (_index(rng, counters),), _loop_num(rng, counters))
        if leaf < 0.45:
            return Assign(rng.choice(PENALTY_VARS), (), IntLit(rng.randrange(0, 4)))
        if leaf < 0.6:
            lower = rng.randrange(-1, 3)
            cell = (ARRAY, (_index(rng, counters),))
            name, indices = rng.choice([cell, (rng.choice(VARS), ())])
            return UniformPick(name, indices, lower, lower + rng.randrange(0, 3))
        return Assign(rng.choice(VARS), (), _loop_num(rng, counters))
    if pick < 0.4:
        if counters and rng.random() < 0.4:
            return _observe_graded(rng)
        return Observe(_loop_cond(rng, counters))
    if pick < 0.7:
        first = _loop_block(rng, depth - 1, counters)
        offset = _loop_offset(rng, counters)
        return RankedChoice(first, offset, _loop_block(rng, depth - 1, counters))
    if pick < 0.85 or len(counters) == len(COUNTERS):
        cond = _loop_cond(rng, counters)
        then_branch = _loop_block(rng, depth - 1, counters)
        if rng.random() < 0.5:
            return IfThenElse(cond, then_branch, Skip())
        return IfThenElse(cond, then_branch, _loop_block(rng, depth - 1, counters))
    return _loop(rng, depth, counters)


def _loop_block(rng, depth, counters):
    count = rng.randrange(1, 4)
    return sequence([_loop_statement(rng, depth, counters) for _ in range(count)])


def random_loop_program(rng, depth=3):
    """A program with at least one counter-bounded loop, array reads and
    writes with indices in 0..3, and nested ``rank()`` in choice offsets.

    Loop bodies hold choices, observes, ``any_of`` draws, ifs and, one level
    deep, another loop, and observeJ/observeL right after a draw of their
    variable (see ``_observe_graded``).  A loop body ends with its counter's
    increment after a nested block, so the tree holds left-nested sequences
    the parser never builds.  Offsets are non-negative or inf and graded
    observations have both sides possible, so runs never abort; an observe
    may still rule out every path.
    """
    prelude = Seq(
        Assign("a", (), IntLit(rng.randrange(0, 3))),
        Assign("p", (), IntLit(rng.randrange(0, 3))),
    )
    body = Seq(_loop_block(rng, depth - 1, ()), _loop(rng, depth - 1, ()))
    return Seq(prelude, body)


# -- injected runtime errors ----------------------------------------------------


def _rebuild(s, visit):
    """A copy of ``s`` with ``visit`` applied to each statement that is not a
    ``Seq``, innermost first; blocks are rebuilt around what it returns."""
    if isinstance(s, Seq):
        return Seq(_rebuild(s.first, visit), _rebuild(s.second, visit))
    if isinstance(s, IfThenElse):
        s = IfThenElse(
            s.cond, _rebuild(s.then_branch, visit), _rebuild(s.else_branch, visit)
        )
    elif isinstance(s, While):
        s = While(s.cond, _rebuild(s.body, visit))
    elif isinstance(s, RankedChoice):
        s = RankedChoice(_rebuild(s.first, visit), s.rank, _rebuild(s.second, visit))
    return visit(s)


def with_runtime_error(rng, program):
    """``program`` with one statement put before a statement drawn at random:
    a choice with offset ``(0 - 1)``, ``x := inf`` or ``x := y - inf``.  It
    raises a runtime error in every state that reaches it, and nothing else
    in a generated program does."""
    sites = []
    _rebuild(program, lambda s: sites.append(s) or s)
    target = rng.randrange(len(sites))
    name, other = rng.choice(VARS), Var(rng.choice(VARS))
    error = rng.choice(
        [
            RankedChoice(Skip(), BinOp("-", IntLit(0), IntLit(1)), Skip()),
            Assign(name, (), IntLit(INF)),
            Assign(name, (), BinOp("-", other, IntLit(INF))),
        ]
    )
    seen = iter(range(len(sites)))
    return _rebuild(program, lambda s: Seq(error, s) if next(seen) == target else s)
