import random

import pytest

import rankpl.engine
import rankpl.syntax
from conftest import collect, run_cli
from oracle import oracle_ranking
from proggen import (
    random_loop_program,
    random_program,
    random_sugar_program,
    with_runtime_error,
)
from rankpl.engine import (
    ERROR_KINDS,
    EvalError,
    Outcome,
    SearchOptions,
    _denote,
    _Partial,
    _Round,
    denote,
    enumerate_outcomes,
    run_program,
)
from rankpl.parser import parse_program
from rankpl.ranking import (
    FAILURE,
    INF,
    Ranking,
    Valuation,
    l_condition,
    min_merge,
    normalize,
    rank_of,
)
from rankpl.syntax import Assign, BinOp, IntLit, Seq, Stmt, Var, pretty_print

INTRO = (
    "x := 10; either {y:=1} or (1) { either {y:=2} or (1) {y:=3} }; x := x*y;"
)
INTRO_OBSERVE = (
    "x := 10; either {y:=1} or (1) { either {y:=2} or (1) {y:=3} }; "
    "observe y > 1; x := x*y;"
)


def outcomes(source, **options):
    return list(enumerate_outcomes(parse_program(source), SearchOptions(**options)))


class TestEnumerate:
    def test_first_outcome_only(self):
        got = outcomes(INTRO, max_outcomes=1)
        assert got == [Outcome(Valuation({"x": 10, "y": 1}), 0)]

    def test_budget_zero_round_never_materializes_alternatives(self):
        program = parse_program(INTRO)
        round0 = _Round(0, 10000)
        result = _denote(program, _Partial({Valuation(): 0}, INF), round0)
        assert list(result.entries.items()) == [(Valuation({"x": 10, "y": 1}), 0)]
        assert round0.min_pruned == 1

    def test_observed_intro_enumerates_in_rank_order(self):
        got = outcomes(INTRO_OBSERVE)
        assert [(o.valuation.get("x"), o.rank) for o in got] == [(20, 0), (30, 1)]

    def test_failure_marker(self):
        stream = enumerate_outcomes(parse_program("observe 1 == 2;"))
        assert list(stream) == []
        assert stream.failed

    def test_failure_behind_expensive_alternative(self):
        source = "either { x := 1; } or (1000000) { x := 2; }; observe x == 3;"
        stream = enumerate_outcomes(parse_program(source))
        assert list(stream) == []
        assert stream.failed

    def test_renormalization_after_branch_failure(self):
        source = "y := 1 or(1) 2; either { observe y == 2; } or (5) { skip; };"
        got = outcomes(source)
        assert [(o.valuation.get("y"), o.rank) for o in got] == [(2, 0), (1, 5)]

    def test_max_rank_slice(self):
        got = outcomes(INTRO, max_rank=1)
        assert [(o.valuation.get("x"), o.rank) for o in got] == [(10, 0), (20, 1)]

    def test_runtime_errors_propagate(self):
        with pytest.raises(EvalError) as err:
            outcomes("while 0 < 1 do { skip; }", max_while_iterations=25)
        assert err.value.kind == "iteration-limit"
        with pytest.raises(EvalError) as err:
            outcomes("observeJ(1, 1 == 2);")
        assert err.value.kind == "j-or-l-precondition"

    def test_deterministic_streams(self):
        first = outcomes(INTRO_OBSERVE)
        second = outcomes(INTRO_OBSERVE)
        assert first == second


class TestEnumerateCollect:
    def test_skip(self):
        assert collect(enumerate_outcomes(parse_program("skip;"))) == Ranking(
            {Valuation(): 0}
        )

    def test_matches_reference_on_corpus_style_program(self):
        program = parse_program(INTRO_OBSERVE)
        assert collect(enumerate_outcomes(program)) == oracle_ranking(program)

    def test_failure_collects_to_failure(self):
        assert collect(enumerate_outcomes(parse_program("observe 1 == 2;"))) == FAILURE


class TestCorpusEquivalence:
    def test_adder_full_enumeration_matches_reference(self, programs):
        program = parse_program((programs / "adder.rpl").read_text())
        assert run_program(program) == oracle_ranking(program)

    def test_localization_matches_reference(self, programs):
        from conftest import PROGRAMS
        from rankpl.cli import binding_prelude, parse_input_file
        from rankpl.syntax import Seq

        defines = {"k": 2, "mv": [1, 1], "ns": [1, 1], "ss": [2, 1]}
        defines.update(
            parse_input_file((PROGRAMS / "localization_map.input").read_text(), {})
        )
        program = Seq(
            binding_prelude(defines),
            parse_program((programs / "localization.rpl").read_text()),
        )
        assert run_program(program) == oracle_ranking(program)


#: the oracle's abort messages, with the engine's error kind for each
ORACLE_ABORTS = {
    "negative choice rank": "negative-choice-rank",
    "undefined inf arithmetic": "undefined-infinity-arith",
    "storing inf": "undefined-infinity-arith",
}


class TestOracleEquivalence:
    def test_collect_equals_reference_on_random_programs(self):
        rng = random.Random(97)
        for _ in range(200):
            program = random_program(rng)
            assert collect(enumerate_outcomes(program)) == oracle_ranking(program)

    def test_prefix_slices_match_reference(self):
        rng = random.Random(98)
        for _ in range(60):
            program = random_program(rng)
            reference = oracle_ranking(program)
            for cap in (0, 1, 2):
                expected = {
                    v: r for v, r in reference.items() if r <= cap
                }
                stream = enumerate_outcomes(program, SearchOptions(max_rank=cap))
                got = {o.valuation: o.rank for o in stream}
                assert got == expected
                assert stream.failed == reference.is_failure
            # an outcome limit keeps the deepening driver on; one it never
            # reaches runs that driver until its bound proves the whole result
            stream = enumerate_outcomes(program, SearchOptions(max_outcomes=10**9))
            assert {o.valuation: o.rank for o in stream} == reference.as_dict()
            assert stream.failed == reference.is_failure

    def test_sugar_programs_match_reference(self):
        # the interpreter runs if-then, x := a or(k) b, any_of, &&, <= and
        # observeJ/observeL as parsed; the oracle runs their full lowering
        rng = random.Random(6006)
        for _ in range(300):
            program = random_sugar_program(rng)
            reference = oracle_ranking(program)
            assert run_program(program) == reference
            assert collect(enumerate_outcomes(program)) == reference
            for cap in (0, 1, 2):
                stream = enumerate_outcomes(program, SearchOptions(max_rank=cap))
                got = {o.valuation: o.rank for o in stream}
                assert got == {v: r for v, r in reference.items() if r <= cap}
                assert stream.failed == reference.is_failure

    def test_loop_programs_match_reference(self):
        # counter-bounded loops whose bodies hold choices, observes, any_of
        # draws, observeJ/observeL after a draw, ifs and nested loops, array
        # reads and writes, and rank() nested in rank() in choice offsets,
        # inside loops and out
        rng = random.Random(7007)
        for _ in range(200):
            program = random_loop_program(rng)
            reference = oracle_ranking(program)
            assert run_program(program) == reference
            assert collect(enumerate_outcomes(program)) == reference
            for cap in (0, 1, 2):
                stream = enumerate_outcomes(program, SearchOptions(max_rank=cap))
                got = {o.valuation: o.rank for o in stream}
                assert got == {v: r for v, r in reference.items() if r <= cap}
                assert stream.failed == reference.is_failure
            got = list(enumerate_outcomes(program, SearchOptions(max_outcomes=2)))
            assert [o.rank for o in got] == sorted(o.rank for o in got)
            assert all(reference.rank(o.valuation) == o.rank for o in got)
            assert len(got) == min(2, len(reference))

    def test_printed_programs_parse_and_run_alike(self):
        # printed trees hold any_of with negative bounds, (0 - n) for
        # negative literals, and right-nested sequences where the loop
        # generator nests them to the left
        rng = random.Random(8008)
        signed = 0
        for generate in (random_sugar_program, random_loop_program):
            for _ in range(150):
                program = generate(rng)
                source = pretty_print(program)
                signed += "any_of(-" in source
                assert run_program(parse_program(source)) == run_program(program)
        assert signed > 0

    def test_injected_errors_abort_alike(self):
        # the injected statement raises in every state that reaches it, so
        # the oracle aborts exactly when the engine raises, and the kinds
        # agree (197 of these 300 programs raise)
        rng = random.Random(9119)
        raised = 0
        for generate in (random_sugar_program, random_loop_program):
            for _ in range(150):
                program = with_runtime_error(rng, generate(rng))
                try:
                    expected = oracle_ranking(program)
                except AssertionError as exc:
                    [expected] = [
                        kind
                        for text, kind in ORACLE_ABORTS.items()
                        if text in str(exc)
                    ]
                try:
                    got = run_program(program)
                except EvalError as exc:
                    got = exc.kind
                    raised += 1
                assert got == expected
        assert 0 < raised < 300

    def test_outcomes_ascend_and_never_repeat(self):
        # the stream is where the engine orders outcomes: by rank, then by
        # valuation, across deepening rounds too
        rng = random.Random(99)
        for _ in range(100):
            program = random_program(rng)
            for opts in (
                SearchOptions(),
                SearchOptions(max_rank=1),
                SearchOptions(max_outcomes=10**9),
            ):
                seen = set()
                last = None
                for outcome in enumerate_outcomes(program, opts):
                    key = (outcome.rank, outcome.valuation)
                    assert last is None or last < key
                    assert outcome.valuation not in seen
                    seen.add(outcome.valuation)
                    last = key


class TestParsedTreeRunsDirectly:
    SOURCE = (
        "x := any_of(0 .. 2); y := 1 or(x) 2; "
        "if x <= 1 && y == 1 then { observeL(1, x == 0); }; "
        "either { observeJ(2, x == 0); } or (1) { skip; };"
    )

    def test_no_entry_point_desugars(self, monkeypatch, tmp_path):
        program = parse_program(self.SOURCE)
        reference = oracle_ranking(program)

        def refuse(*args, **kwargs):
            raise AssertionError("desugar called on the run path")

        for module in (rankpl.syntax, rankpl.engine):
            monkeypatch.setattr(module, "desugar", refuse)
        assert run_program(program) == reference
        assert collect(enumerate_outcomes(program)) == reference
        assert run_program(program, SearchOptions(max_rank=1)) == Ranking(
            {v: r for v, r in reference.items() if r <= 1}
        )
        path = tmp_path / "sugar.rpl"
        path.write_text(self.SOURCE)
        assert run_cli(["check", str(path)])[0] == 0
        assert run_cli(["run", str(path)])[0] == 0

    def test_unknown_node_is_a_type_error(self):
        class Unknown(Stmt):
            pass

        with pytest.raises(TypeError, match="not a statement"):
            run_program(Unknown())


class TestLeftNestedSequences:
    def test_a_3000_deep_left_nested_sequence_runs(self):
        # a library caller may nest sequences to the left, which the parser
        # never does; the interpreter walks any nesting in a loop
        program = Assign("x", (), IntLit(0))
        for _ in range(3000):
            program = Seq(program, Assign("x", (), BinOp("+", Var("x"), IntLit(1))))
        expected = Ranking({Valuation({"x": 3000}): 0})
        assert run_program(program) == expected
        assert run_program(program, SearchOptions(max_rank=0)) == expected

    def test_the_oracle_runs_a_3000_statement_program(self):
        # the parser nests to the right and a library caller may nest to the
        # left; the oracle walks either in a loop
        parsed = parse_program("x := 0;\n" + "x := x + 1;\n" * 2999)
        assert oracle_ranking(parsed) == Ranking({Valuation({"x": 2999}): 0})
        left = Assign("x", (), IntLit(0))
        for _ in range(2999):
            left = Seq(left, Assign("x", (), BinOp("+", Var("x"), IntLit(1))))
        assert oracle_ranking(left) == Ranking({Valuation({"x": 2999}): 0})


class TestBudgets:
    def test_bounded_loop_deepens_in_few_rounds(self, monkeypatch):
        # the least pruned rank is one above each budget, so budgets that grew
        # by one would take 301 rounds to reach rank 300; doubling takes 10
        budgets = []
        make_round = rankpl.engine._Round

        def counting(budget, iteration_limit):
            budgets.append(budget)
            return make_round(budget, iteration_limit)

        monkeypatch.setattr(rankpl.engine, "_Round", counting)
        program = parse_program(
            "x := 0; while x < 1 do { either { x := 1; } or (1) { skip; }; };"
        )
        got = list(enumerate_outcomes(program, SearchOptions(max_rank=300)))
        assert got == [Outcome(Valuation({"x": 1}), 0)]
        assert len(budgets) <= 10
        assert budgets[:4] == [0, 1, 3, 7]


def run_counted(monkeypatch, interpreter, source):
    """Run ``source`` through one entry point and count the comparisons."""
    calls = [0]
    original = rankpl.engine._compare

    def counting(*args):
        calls[0] += 1
        return original(*args)

    monkeypatch.setattr(rankpl.engine, "_compare", counting)
    program = parse_program(source)
    if interpreter == "enumerate_outcomes":
        result = collect(enumerate_outcomes(program))
    else:
        result = run_program(program)
    return result, calls[0]


class TestRankOfOncePerRanking:
    """``rank(b)`` depends on the ranking, never on the state reading it, so
    the interpreter scans a ranking for it once, not once per state, through
    ``run_program`` and through ``enumerate_outcomes`` alike.

    In canonical order the first state satisfying ``x > 196`` comes after
    197 that do not, so a scan per state would evaluate the condition about
    n * n times over the n = 200 states of the prior.
    """

    N = 200
    PRIOR = Ranking({Valuation({"x": x}): 0 for x in range(N)})
    EVENT = staticmethod(lambda v: v.get("x") > 196)

    @pytest.mark.parametrize("interpreter", ["run_program", "enumerate_outcomes"])
    def test_choice_offset(self, monkeypatch, interpreter):
        result, calls = run_counted(
            monkeypatch,
            interpreter,
            "x := any_of(0 .. 199); "
            "either { skip; } or (rank(x > 196) + 1) { x := x + 1; };",
        )
        offset = rank_of(self.PRIOR, self.EVENT) + 1
        moved = {
            Valuation({"x": v.get("x") + 1}): r + offset
            for v, r in self.PRIOR.items()
        }
        assert result == normalize(min_merge(self.PRIOR.as_dict(), moved))
        assert calls < 5 * self.N

    @pytest.mark.parametrize("interpreter", ["run_program", "enumerate_outcomes"])
    def test_observe_l(self, monkeypatch, interpreter):
        # the expansion reads rank(b) in a guard and in a choice offset, and
        # its observations and precondition test the condition per state
        result, calls = run_counted(
            monkeypatch, interpreter, "x := any_of(0 .. 199); observeL(2, x > 196);"
        )
        assert result == l_condition(self.PRIOR, self.EVENT, 2)
        assert calls < 10 * self.N


class TestBoundedDenote:
    """A bounded ``denote`` enumerates from its prior, which may rank states
    above the first rounds' budgets, and still yields the least-ranked slice
    of the exact posterior."""

    GRADED = Ranking({Valuation({"x": x}): x % 4 for x in range(12)})
    SOURCES = (
        "either { y := 1; } or (x % 3) { y := 2; };",
        "if x > 3 then { observe y == 0; x := x + 1 or(2) x; } "
        "else { y := 1 or(1) 2; };",
        "observeL(1, x < 5);",
        "observeJ(2, x == 7);",
        "while 8 < x do { x := x - 3 or(1) x - 1; };",
        "observe x % 2 == 1; y := any_of(0 .. 1);",
        "either { skip; } or (rank(x == 9) + 1) { x := 0; };",
        "observe 11 < x;",
    )

    @pytest.mark.parametrize("source", SOURCES)
    def test_slices_of_the_exact_posterior(self, source):
        program = parse_program(source)
        for prior in (self.GRADED, TestRankOfOncePerRanking.PRIOR, FAILURE):
            exact = denote(program, prior)
            for cap in (0, 1, 2):
                got = denote(program, prior, SearchOptions(max_rank=cap))
                assert got == Ranking({v: r for v, r in exact.items() if r <= cap})
            first = denote(program, prior, SearchOptions(max_outcomes=1))
            if exact.is_failure:
                assert first == FAILURE
            else:
                least = min((r, v) for v, r in exact.items())[1]
                assert first == Ranking({least: 0})

class TestWhileStep:
    """A loop tests its guard once per state per iteration, and checks the
    iteration limit at the first state that satisfies it."""

    @pytest.mark.parametrize("interpreter", ["run_program", "enumerate_outcomes"])
    def test_guard_is_tested_once_per_state(self, monkeypatch, interpreter):
        # 200 states, three of which run the body five times: six guard scans
        # of 200 + 3 comparisons each (a state with x > 196 also reads y < 5)
        result, calls = run_counted(
            monkeypatch,
            interpreter,
            "x := any_of(0 .. 199); while x > 196 && y < 5 do { y := y + 1; };",
        )
        assert result == Ranking(
            {Valuation({"x": x, "y": 5 if x > 196 else 0}): 0 for x in range(200)}
        )
        assert calls <= 1218

    SOURCE = "x := 0; while x == 0 || 1 / (x - 1) == 0 do { x := 0 or(1) 1; };"

    def run_all(self, limit):
        program = parse_program(self.SOURCE)
        errors = []
        for run in (
            lambda: run_program(program, SearchOptions(max_while_iterations=limit)),
            lambda: list(
                enumerate_outcomes(program, SearchOptions(max_while_iterations=limit))
            ),
            lambda: list(
                enumerate_outcomes(
                    program, SearchOptions(max_rank=0, max_while_iterations=limit)
                )
            ),
        ):
            with pytest.raises(EvalError) as err:
                run()
            errors.append((err.value.kind, err.value.pos))
        return errors

    def test_iteration_limit_comes_before_later_guard_errors(self):
        # the second iteration's first state, x = 0, satisfies the guard; the
        # state x = 1 after it would divide by zero in the guard
        assert self.run_all(1) == [("iteration-limit", (1, 9))] * 3
        assert self.run_all(2) == [
            ("division-by-zero", (1, 27)),
            ("division-by-zero", (1, 27)),
            # at budget 0 the state x = 1 is pruned, and x = 0 loops on
            ("iteration-limit", (1, 9)),
        ]


#: one program per runtime error kind; each raises in its rank-0 state, at
#: line 2, while a rank-1 alternative keeps a --max-rank 0 run bounded
ERROR_PROGRAMS = {
    "division-by-zero": "x := 0 or(1) 1;\ny := 1 / x;",
    "undefined-infinity-arith": "x := 0 or(1) 1;\ny := x - inf;",
    "negative-choice-rank": "x := 0 or(1) 1;\neither { skip; } or (x - 1) { skip; };",
    "non-boolean-bit-op": "x := 0 or(1) 1;\ny := (x + 2) xor 1;",
    "iteration-limit": "x := 0 or(1) 1;\nwhile x == 0 do { skip; };",
    "j-or-l-precondition": "x := 0 or(1) 1;\nobserveJ(1, x == 5);",
    "nested-too-deeply": "x := 0 or(1) 1;\ny := " + " + ".join(["x"] * 1200) + ";",
}


def test_a_long_condition_is_nested_too_deeply():
    # a left-nested chain of 1200 '||' is deeper than the recursion limit
    program = parse_program("x := 1;\nobserve " + " || ".join(["x == 0"] * 1200) + ";")
    with pytest.raises(EvalError) as err:
        run_program(program)
    assert (err.value.kind, err.value.pos) == ("nested-too-deeply", (2, 1))


@pytest.mark.parametrize("kind", ERROR_KINDS)
def test_errors_agree_across_entry_points(kind, tmp_path):
    source = ERROR_PROGRAMS[kind]
    program = parse_program(source)
    limit = 50
    errors = []
    for run in (
        lambda: run_program(program, SearchOptions(max_while_iterations=limit)),
        lambda: list(
            enumerate_outcomes(program, SearchOptions(max_while_iterations=limit))
        ),
        lambda: list(
            enumerate_outcomes(
                program, SearchOptions(max_rank=0, max_while_iterations=limit)
            )
        ),
    ):
        with pytest.raises(EvalError) as err:
            run()
        errors.append(err.value)
    assert {(e.kind, e.pos) for e in errors} == {(kind, errors[0].pos)}
    assert errors[0].pos[0] == 2
    path = tmp_path / "error.rpl"
    path.write_text(source + "\n")
    code, out, err = run_cli(["run", str(path), "--iter-limit", str(limit)])
    assert (code, out) == (3, "")
    assert err == f"runtime error: {errors[0]}\n"
