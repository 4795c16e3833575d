"""Compiled expressions against the interpreter.

An evaluation site compiles its expression once its slice holds
``_COMPILE_AT`` states (see ``rankpl.engine``).  Expressions here come from
the program generators, widened with the operands that raise: inf, ``/ 0``,
bit operands other than 0 and 1, inf indices and ``rank()``.  Both
evaluators must give the same values, truth tables and errors, on slices
just below and just above the threshold.
"""

import random

import pytest

import rankpl.engine
from proggen import (
    ARRAY,
    VARS,
    _cond,
    _loop_cond,
    _loop_num,
    _loop_offset,
    _num,
    random_loop_program,
    random_sugar_program,
)
from rankpl.engine import (
    _COMPILE_AT,
    EvalError,
    SearchOptions,
    _compile,
    _eval_num,
    _evaluator,
    _holds,
    _InsufficientBudget,
    _Partial,
    _state,
    denote,
    enumerate_outcomes,
)
from rankpl.parser import parse_program
from rankpl.ranking import INF, Ranking, Valuation, j_condition, l_condition
from rankpl.syntax import (
    And,
    Assign,
    BinOp,
    BoolExpr,
    Cmp,
    IntLit,
    Not,
    NumExpr,
    Observe,
    ObserveJ,
    ObserveL,
    Or,
    RankOf,
    Seq,
    UniformPick,
    Var,
    pretty_print,
)
from test_acceptance import random_instance

OPS = ("+", "-", "*", "/", "%", "xor", "band", "bor")
COUNTERS = ("i",)


def _number(rng, depth):
    pick = rng.random()
    if depth <= 0 or pick < 0.3:
        leaf = rng.choice([_num, _loop_num, _loop_offset])
        return leaf(rng) if leaf is _num else leaf(rng, COUNTERS)
    if pick < 0.38:
        return IntLit(INF)
    if pick < 0.48:
        index = IntLit(INF) if rng.random() < 0.3 else _number(rng, depth - 1)
        return Var(ARRAY, (index,))
    if pick < 0.55:
        return RankOf(_condition(rng, depth - 1))
    return BinOp(rng.choice(OPS), _number(rng, depth - 1), _number(rng, depth - 1))


def _condition(rng, depth):
    pick = rng.random()
    if depth <= 0 or pick < 0.3:
        return _cond(rng) if rng.random() < 0.5 else _loop_cond(rng, COUNTERS)
    if pick < 0.6:
        op = rng.choice(["==", "<", "<="])
        return Cmp(op, _number(rng, depth - 1), _number(rng, depth - 1))
    if pick < 0.7:
        return Not(_condition(rng, depth - 1))
    kind = rng.choice([And, Or])
    return kind(_condition(rng, depth - 1), _condition(rng, depth - 1))


def positioned(e):
    """``e`` as the parser builds it from its printed form, with positions."""
    if isinstance(e, BoolExpr):
        return parse_program(pretty_print(Observe(e))).cond
    return parse_program(pretty_print(Assign("x", (), e))).value


#: the slots of the states ``random_slice`` makes, one per scalar it binds
SLOTS = {name: slot for slot, name in enumerate(sorted([*VARS, "p", "q", "i"]))}


def random_slice(rng, size, bound=INF):
    """``size`` distinct states over the generators' variables, with small
    values (zeros divide by zero, most are no bits) and ranks 0-3, laid out
    by ``SLOTS``."""
    states = set()
    while len(states) < size:
        names = [*VARS, "p", "q", "i", (ARRAY, (0,)), (ARRAY, (1,)), (ARRAY, (2,))]
        states.add(Valuation({name: rng.randrange(-2, 4) for name in names}))
    return {_state(state, SLOTS): rng.randrange(0, 4) for state in states}, bound


def outcome(evaluate):
    """What one evaluation gives: its value, or its error in full."""
    try:
        return evaluate()
    except EvalError as err:
        return err.kind, err.pos, err.detail
    except _InsufficientBudget:
        return "insufficient"


def table(fn, e, entries, bound):
    """``fn`` evaluated on every state of a fresh partial ranking."""
    partial = _Partial(entries, bound, SLOTS)
    return [outcome(lambda: fn(sigma, partial, e)) for sigma in entries]


@pytest.mark.parametrize("size", [_COMPILE_AT - 1, _COMPILE_AT])
@pytest.mark.parametrize("kind", ["number", "condition"])
def test_compiled_expressions_evaluate_as_the_interpreter(kind, size):
    rng = random.Random(17001 if kind == "number" else 17002)
    make, interpreted = (_number, _eval_num) if kind == "number" else (_condition, _holds)
    errors = set()
    for _ in range(250):
        e = positioned(make(rng, 4))
        fn = _compile(e, SLOTS, {})
        assert fn is not None
        entries, bound = random_slice(rng, size, rng.choice([INF, INF, 2]))
        expected = table(interpreted, e, entries, bound)
        # rank() scans this slice compiled from _COMPILE_AT states on
        assert table(fn, e, entries, bound) == expected
        errors.update(o[0] for o in expected if isinstance(o, tuple))
        errors.update(o for o in expected if o == "insufficient")
    assert errors == {
        "division-by-zero",
        "undefined-infinity-arith",
        "non-boolean-bit-op",
        "insufficient",
    }


def test_a_site_compiles_from_the_threshold_on_once_per_run():
    cond = positioned(Cmp("<", Var("a"), IntLit(1)))
    compiled = {}
    narrow = _Partial(*random_slice(random.Random(1), _COMPILE_AT - 1), SLOTS)
    wide = _Partial(*random_slice(random.Random(2), _COMPILE_AT), SLOTS)
    assert _evaluator(cond, BoolExpr, narrow, compiled) is _holds
    assert _evaluator(cond.left, NumExpr, narrow, compiled) is _eval_num
    assert compiled == {}
    fn = _evaluator(cond, BoolExpr, wide, compiled)
    assert fn is not _holds and compiled == {id(cond): fn}
    assert _evaluator(cond, BoolExpr, wide, compiled) is fn
    # without a run's cache, as for rank() read by the interpreter
    assert _evaluator(cond, BoolExpr, wide, None) is _holds


def nested(depth):
    """A condition whose deepest node lies ``depth`` levels below its root:
    indices in indices, 4 parentheses a level in the generated source."""
    number = Var("a")
    for _ in range(depth - 1):
        number = Var(ARRAY, (number,))
    return Cmp("<", number, IntLit(2))


def test_trees_deeper_than_the_bound_stay_interpreted():
    # CPython's parser takes at most 200 nested parentheses: what it
    # compiles is compiled, however deep, and the rest stays interpreted
    rng = random.Random(3)
    entries, bound = random_slice(rng, _COMPILE_AT)
    terms = [f"{VARS[k % 3]} == {k}" for k in range(150)]
    chain = parse_program("observe " + " || ".join(terms) + ";").cond
    for deep in (nested(45), chain):
        fn = _compile(deep, SLOTS, {})
        assert fn is not None
        assert table(fn, deep, entries, bound) == table(_holds, deep, entries, bound)
    deeper = nested(100)
    assert _compile(deeper, SLOTS, {}) is None
    compiled = {}
    wide = _Partial(entries, bound, SLOTS)
    assert _evaluator(deeper, BoolExpr, wide, compiled) is _holds
    assert compiled == {id(deeper): _holds}


def test_a_condition_too_deep_to_interpret_is_an_error_on_a_wide_slice():
    program = parse_program(
        f"x := any_of(0 .. {_COMPILE_AT});\n"
        "observe " + " || ".join(["x == 0"] * 1200) + ";"
    )
    with pytest.raises(EvalError) as err:
        denote(program, Ranking({Valuation(): 0}))
    assert (err.value.kind, err.value.pos) == ("nested-too-deeply", (2, 1))


def run_or_error(program, opts):
    try:
        return [(o.rank, o.valuation) for o in enumerate_outcomes(program, opts)]
    except EvalError as err:
        return err.kind, err.pos, err.detail


@pytest.mark.parametrize("generate", [random_sugar_program, random_loop_program])
def test_wide_programs_run_as_interpreted(monkeypatch, generate):
    # the prelude widens every slice to the threshold and past it
    rng = random.Random(17003)
    wide = UniformPick("w", (), 0, _COMPILE_AT - 1)
    modes = [SearchOptions(max_rank=cap) for cap in (0, 1, 2)]
    modes += [SearchOptions(), SearchOptions(max_outcomes=1)]
    for _ in range(8):
        program = Seq(wide, generate(rng))
        compiled = [run_or_error(program, opts) for opts in modes]
        with monkeypatch.context() as patch:
            patch.setattr(rankpl.engine, "_COMPILE_AT", 10**9)
            assert [run_or_error(program, opts) for opts in modes] == compiled


@pytest.mark.parametrize(
    "node, condition", [(ObserveJ, j_condition), (ObserveL, l_condition)]
)
def test_graded_observation_nodes_match_the_calculus(node, condition):
    """The nodes ``rankpl run`` executes, not their lowering, on 1000 random
    priors each, half of them as wide as ``_COMPILE_AT``: exact and at
    ``max_rank`` 0-2."""
    rng = random.Random(18001 if node is ObserveJ else 18002)
    wide = range(3 * _COMPILE_AT), (_COMPILE_AT, _COMPILE_AT + 30)
    for i in range(1000):
        values, sizes = wide if i % 2 else (range(12), (2, 7))
        kappa, cond, sats = random_instance(rng, values, sizes=sizes)
        strength = rng.randrange(0, 8)
        expected = condition(kappa, sats, strength)
        program = node(IntLit(strength), cond)
        assert denote(program, kappa) == expected
        for cap in (0, 1, 2):
            bounded = denote(program, kappa, SearchOptions(max_rank=cap))
            assert bounded == Ranking({v: r for v, r in expected.items() if r <= cap})
