"""Random loop-free programs for the fuzz workload.

A frozen copy of the generator in tests/proggen.py, so that widening the
test fuzzer does not change the benchmark's inputs: the same seed gives the
same programs on every commit.
"""

from rankpl.syntax import (
    Assign,
    BinOp,
    Cmp,
    IfThenElse,
    IntLit,
    Not,
    Observe,
    Or,
    RankedChoice,
    RankOf,
    Seq,
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
