import random

import pytest

from oracle import oracle_run
from proggen import random_program
from rankpl.engine import (
    EvalError,
    SearchOptions,
    denote,
    initial_ranking,
    run_program,
)
from rankpl.parser import parse_program
from rankpl.ranking import (
    FAILURE,
    INF,
    Ranking,
    Valuation,
    j_condition,
    l_condition,
    marginalize,
    normalize,
)
from rankpl.syntax import (
    Assign,
    BinOp,
    Cmp,
    IfThenElse,
    IntLit,
    Not,
    Observe,
    RankedChoice,
    RankOf,
    Seq,
    Skip,
    Var,
    While,
    desugar,
    expand_observe_j,
    expand_observe_l,
)


def val(**bindings):
    return Valuation(bindings)


def run_source(source, opts=None):
    return run_program(parse_program(source), opts)


Y1 = val(y=1)
Y2 = val(y=2)
KY = Ranking({Y1: 0, Y2: 1})


def values(expr, kappa=KY):
    """What ``expr`` reads in each state of kappa, in canonical order.

    A variable cannot hold inf, so one ``if expr == inf`` marks the states
    where it reads inf and stores its value in ``r`` in the others.
    """
    probe = IfThenElse(
        Cmp("==", expr, IntLit(INF)),
        Assign("r_inf", (), IntLit(1)),
        Assign("r", (), expr),
    )
    return [
        INF if sigma.get("r_inf") else sigma.get("r")
        for sigma in denote(probe, kappa).support()
    ]


class TestEvalNum:
    def test_variables_and_addition(self):
        kappa = Ranking({val(x=3): 0})
        assert values(BinOp("+", Var("x"), IntLit(1)), kappa) == [4]

    def test_rank_expression(self):
        expr = RankOf(Cmp("==", Var("y"), IntLit(2)))
        assert values(expr) == [1, 1]

    def test_rank_of_impossible_is_inf(self):
        expr = RankOf(Cmp("==", Var("y"), IntLit(9)))
        assert values(expr) == [INF, INF]

    def test_division_by_zero(self):
        with pytest.raises(EvalError) as err:
            values(BinOp("/", IntLit(1), IntLit(0)))
        assert err.value.kind == "division-by-zero"

    def test_truncating_division(self):
        assert values(BinOp("/", IntLit(7), IntLit(2))) == [3, 3]
        minus7 = BinOp("-", IntLit(0), IntLit(7))
        assert values(BinOp("/", minus7, IntLit(2))) == [-3, -3]
        assert values(BinOp("%", minus7, IntLit(2))) == [-1, -1]

    def test_infinity_table(self):
        inf = IntLit(INF)
        assert values(BinOp("+", inf, IntLit(3))) == [INF, INF]
        assert values(BinOp("+", IntLit(3), inf)) == [INF, INF]
        assert values(BinOp("-", inf, IntLit(3))) == [INF, INF]
        for undefined in (BinOp("-", IntLit(3), inf), BinOp("-", inf, inf)):
            with pytest.raises(EvalError) as err:
                values(undefined)
            assert err.value.kind == "undefined-infinity-arith"
            assert err.value.detail == "subtracting inf"
        with pytest.raises(EvalError):
            values(BinOp("*", inf, IntLit(2)))

    def test_bit_ops_require_bits(self):
        assert values(BinOp("xor", IntLit(1), IntLit(1))) == [0, 0]
        assert values(BinOp("bor", IntLit(0), IntLit(1))) == [1, 1]
        assert values(BinOp("band", IntLit(1), IntLit(1))) == [1, 1]
        with pytest.raises(EvalError) as err:
            values(BinOp("xor", IntLit(2), IntLit(1)))
        assert err.value.kind == "non-boolean-bit-op"


class TestEvalBool:
    def test_comparison(self):
        assert denote(Observe(Cmp("<", IntLit(1), Var("y"))), KY) == Ranking({Y2: 0})

    def test_negation_complements_within_support(self):
        cond = Not(Cmp("<", IntLit(1), Var("y")))
        assert denote(Observe(cond), KY) == Ranking({Y1: 0})

    def test_rank_condition_is_state_independent(self):
        cond = Cmp("==", RankOf(Cmp("==", Var("y"), IntLit(2))), IntLit(1))
        assert denote(Observe(cond), KY) == KY


INTRO = (
    "x := 10; either {y:=1} or (1) { either {y:=2} or (1) {y:=3} }; x := x*y;"
)
INTRO_OBSERVE = (
    "x := 10; either {y:=1} or (1) { either {y:=2} or (1) {y:=3} }; "
    "observe y > 1; x := x*y;"
)


class TestDenote:
    def test_intro_marginal(self):
        result = marginalize(run_source(INTRO), {"x"})
        assert result == Ranking({val(x=10): 0, val(x=20): 1, val(x=30): 2})

    def test_intro_with_observation(self):
        result = marginalize(run_source(INTRO_OBSERVE), {"x"})
        assert result == Ranking({val(x=20): 0, val(x=30): 1})

    def test_impossible_observation_fails(self):
        assert run_source("observe 1 == 2;").is_failure

    def test_endless_loop_hits_iteration_limit(self):
        with pytest.raises(EvalError) as err:
            run_source(
                "while 0 < 1 do { skip; }", SearchOptions(max_while_iterations=50)
            )
        assert err.value.kind == "iteration-limit"

    def test_skip_program(self):
        assert run_source("skip;") == initial_ranking()

    def test_while_runs_to_completion(self):
        result = run_source("while x < 3 do { x := x + 1; }")
        assert result == Ranking({val(x=3): 0})

    def test_seq_with_skip_is_identity(self):
        stmt = desugar(parse_program(INTRO))
        k = initial_ranking()
        assert denote(Seq(stmt, Skip()), k) == denote(stmt, k)

    def test_observe_idempotent(self):
        choice = parse_program("y := 1 or(1) 2;")
        observe = Observe(Cmp("<", IntLit(1), Var("y")))
        once = run_program(Seq(choice, observe))
        twice = run_program(Seq(choice, Seq(observe, observe)))
        assert once == twice

    def test_failure_is_monotone(self):
        statements = [
            Skip(),
            Assign("x", (), IntLit(1)),
            parse_program(INTRO),
            Observe(Cmp("==", Var("x"), IntLit(0))),
            While(Cmp("<", Var("x"), IntLit(3)), Assign("x", (), IntLit(9))),
        ]
        for s in statements:
            assert denote(desugar(s), FAILURE) == FAILURE

    def test_negative_choice_rank(self):
        with pytest.raises(EvalError) as err:
            run_source("either { skip; } or (0 - 1) { skip; };")
        assert err.value.kind == "negative-choice-rank"

    def test_cannot_store_infinity(self):
        with pytest.raises(EvalError) as err:
            run_source("x := rank(1 == 2);")
        assert err.value.kind == "undefined-infinity-arith"

    def test_branch_failure_renormalizes_other_side(self):
        result = run_source(
            "y := 1 or(1) 2; either { observe y == 2; } or (5) { skip; };"
        )
        assert result == Ranking({val(y=2): 0, val(y=1): 5})

    def test_errors_carry_positions(self):
        with pytest.raises(EvalError) as err:
            run_source("x := 1;\ny := 1 / 0;")
        assert err.value.pos == (2, 8)


class TestObserveForms:
    def test_observe_j_needs_both_sides(self):
        with pytest.raises(EvalError) as err:
            run_source("observeJ(1, 1 == 2);")
        assert err.value.kind == "j-or-l-precondition"
        with pytest.raises(EvalError):
            run_source("observeJ(1, 1 == 1);")

    def test_observe_l_needs_both_sides(self):
        with pytest.raises(EvalError) as err:
            run_source("y := 1 or(1) 2; observeL(1, y < 5);")
        assert err.value.kind == "j-or-l-precondition"

    def test_observe_j_runs_when_defined(self):
        result = run_source("y := 1 or(1) 2; observeJ(2, y == 2);")
        assert result == Ranking({val(y=2): 0, val(y=1): 2})

    def test_observe_l_runs_when_defined(self):
        result = run_source("y := 1 or(1) 2; observeL(2, y == 2);")
        assert result == Ranking({val(y=2): 0, val(y=1): 1})


def encode_ranking(pairs):
    """A statement whose result is exactly the given ranking over ``v``.

    ``pairs`` maps values to ranks, minimum 0; encoded as a right-nested
    ranked choice chain with delta penalties.
    """
    ordered = sorted(pairs.items(), key=lambda it: (it[1], it[0]))
    ranks = [r for _, r in ordered]
    assert ranks[0] == 0
    stmt = Assign("v", (), IntLit(ordered[-1][0]))
    for i in range(len(ordered) - 2, -1, -1):
        value, rank = ordered[i]
        delta = ranks[i + 1] - rank
        stmt = RankedChoice(
            Assign("v", (), IntLit(value)), IntLit(delta), stmt
        )
    return stmt


def random_instance(rng, size_range=(2, 6)):
    """A random ranking over ``v`` plus a condition with both sides possible."""
    size = rng.randrange(*size_range)
    values = rng.sample(range(10), size)
    ranks = sorted(rng.randrange(0, 7) for _ in range(size))
    ranks[0] = 0
    pairs = dict(zip(values, ranks))
    prelude = encode_ranking(pairs)
    kappa = run_program(prelude)
    while True:
        cut = rng.randrange(0, 10)
        op = rng.choice(["<", "=="])
        cond = Cmp(op, Var("v"), IntLit(cut))
        sats = frozenset(
            s
            for s in kappa.support()
            if (s.get("v") < cut if op == "<" else s.get("v") == cut)
        )
        if sats and len(sats) < len(kappa):
            return prelude, kappa, cond, sats


class TestExpansionInstances:
    def test_observe_j_expansion_matches_library(self):
        rng = random.Random(11)
        for _ in range(100):
            prelude, kappa, cond, sats = random_instance(rng)
            strength = rng.randrange(0, 6)
            program = Seq(prelude, expand_observe_j(IntLit(strength), cond))
            assert run_program(program) == j_condition(kappa, sats, strength)

    def test_observe_l_expansion_matches_library(self):
        rng = random.Random(12)
        taken = flipped = 0
        for _ in range(100):
            prelude, kappa, cond, sats = random_instance(rng)
            strength = rng.randrange(0, 6)
            from rankpl.ranking import rank_of

            if rank_of(kappa, sats) <= strength:
                taken += 1
            else:
                flipped += 1
            program = Seq(prelude, expand_observe_l(IntLit(strength), cond))
            assert run_program(program) == l_condition(kappa, sats, strength)
        assert taken and flipped


class TestOracleEquivalence:
    def test_random_loop_free_programs(self):
        rng = random.Random(2718)
        failures = 0
        for _ in range(150):
            program = desugar(random_program(rng))
            expected = oracle_run(program)
            actual = run_program(program)
            if expected is None:
                failures += 1
                assert actual.is_failure
            else:
                assert actual == normalize(expected)
        assert failures  # the batch should include failing runs

    def test_every_result_is_normalized(self):
        rng = random.Random(31415)
        for _ in range(100):
            result = run_program(desugar(random_program(rng)))
            if not result.is_failure:
                assert min(r for _, r in result.items()) == 0
