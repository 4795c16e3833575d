import dataclasses
import random

import pytest

import rankpl.engine
import rankpl.syntax
import oracle
from conftest import collect, record_budgets, run_cli
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
    _InsufficientBudget,
    _Partial,
    _Round,
    _start,
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
    j_condition,
    l_condition,
    min_merge,
    normalize,
    rank_of,
)
from rankpl.syntax import (
    Assign,
    BinOp,
    Cmp,
    IfThenElse,
    IntLit,
    Observe,
    ObserveJ,
    ObserveL,
    RankedChoice,
    RankOf,
    Seq,
    Skip,
    Stmt,
    Var,
    While,
    pretty_print,
)

GENERATORS = (random_program, random_sugar_program, random_loop_program)

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

    def test_an_outcome_is_a_named_pair(self):
        outcome = Outcome(Valuation({"x": 1}), 2)
        assert repr(outcome) == "Outcome(valuation=Valuation(x=1), rank=2)"
        assert outcome == (Valuation({"x": 1}), 2)
        assert (outcome.valuation, outcome.rank) == outcome

    def test_budget_zero_round_never_materializes_alternatives(self):
        program = parse_program(INTRO)
        round0 = _Round(0, 10000)
        # states are laid out as (x, y, array elements)
        prior = _Partial({(0, 0, None): 0}, INF, {"x": 0, "y": 1})
        result = _denote(program, prior, round0)
        assert list(result.entries.items()) == [((10, 1, None), 0)]
        assert round0.min_pruned == 1

    def test_observed_intro_enumerates_in_rank_order(self):
        got = outcomes(INTRO_OBSERVE)
        assert [(o.valuation.get("x"), o.rank) for o in got] == [(20, 0), (30, 1)]

    def test_failure_marker(self):
        program = parse_program("observe 1 == 2;")
        assert list(enumerate_outcomes(program)) == []
        assert oracle_ranking(program).is_failure

    def test_failure_behind_expensive_alternative(self):
        source = "either { x := 1; } or (1000000) { x := 2; }; observe x == 3;"
        program = parse_program(source)
        assert list(enumerate_outcomes(program)) == []
        assert oracle_ranking(program).is_failure

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
    "division by zero": "division-by-zero",
    "non-boolean bit operation": "non-boolean-bit-op",
}


def _oracle_or_abort(program):
    """The oracle's ranking, or the engine's error kind for its abort."""
    try:
        return oracle_ranking(program)
    except AssertionError as exc:
        [kind] = [kind for text, kind in ORACLE_ABORTS.items() if text in str(exc)]
        return kind


def _engine_or_error(run, program):
    try:
        return run(program)
    except EvalError as exc:
        return exc.kind


#: the bounded runs each injected error is also checked under
BOUNDED = [SearchOptions(max_rank=cap) for cap in (0, 1, 2)] + [
    SearchOptions(max_outcomes=2)
]


def _bounded(program, opts):
    """The (rank, valuation) pairs a bounded run yields, in order, and whether
    it yielded none."""
    got = [(o.rank, o.valuation) for o in enumerate_outcomes(program, opts)]
    return got, got == []


def _reference_slice(reference, opts):
    """What a bounded run of a program whose exact result is ``reference``
    yields: outcomes in (rank, valuation) order, cut at the limit."""
    ordered = sorted((rank, sigma) for sigma, rank in reference.items())
    if opts.max_outcomes is not None:
        ordered = ordered[: opts.max_outcomes]
    return [(r, s) for r, s in ordered if r <= opts.max_rank], reference.is_failure


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
                assert (got == {}) == reference.is_failure
            # an outcome limit keeps the deepening driver on; one it never
            # reaches runs that driver until its bound proves the whole result
            stream = enumerate_outcomes(program, SearchOptions(max_outcomes=10**9))
            got = {o.valuation: o.rank for o in stream}
            assert got == reference.as_dict()
            assert (got == {}) == reference.is_failure

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
                assert (got == {}) == reference.is_failure

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
                assert (got == {}) == reference.is_failure
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
        # agree (197 of these 300 programs raise).  A bounded run raises only
        # what the oracle raises, and where the oracle does not abort it
        # yields the reference's slice; it may end cleanly where the oracle
        # aborts, when the error sits in an alternative above its limit (21
        # of the 788 bounded runs of aborting programs: 13 at max_rank 0, 2
        # at 1, none at 2 and 6 with max_outcomes 2)
        rng = random.Random(9119)
        raised = spared = 0
        for generate in (random_sugar_program, random_loop_program):
            for _ in range(150):
                program = with_runtime_error(rng, generate(rng))
                expected = _oracle_or_abort(program)
                got = _engine_or_error(run_program, program)
                raised += isinstance(got, str)
                assert got == expected
                for opts in BOUNDED:
                    bounded = _engine_or_error(lambda p: _bounded(p, opts), program)
                    if not isinstance(expected, str):
                        assert bounded == _reference_slice(expected, opts)
                    elif isinstance(bounded, str):
                        assert bounded == expected
                    else:
                        spared += 1
        assert 0 < raised < 300
        assert spared > 0

    def test_division_and_modulo_match_reference(self):
        # '/' and '%' truncate toward zero on every sign of either operand;
        # a zero divisor in any state, or an inf operand, aborts the oracle
        # exactly where the engine raises
        results = []
        for op in ("/", "%"):
            for divisors in ("-3 .. -1", "1 .. 3", "-3 .. 3", "0 .. 0"):
                for value in (f"n {op} d", f"d {op} n", f"n {op} inf", f"inf {op} d"):
                    program = parse_program(
                        f"n := any_of(-7 .. 7); d := any_of({divisors}); "
                        f"x := {value}; observe x < 2 || n == 3;"
                    )
                    expected = _oracle_or_abort(program)
                    assert _engine_or_error(run_program, program) == expected
                    collected = _engine_or_error(
                        lambda p: collect(enumerate_outcomes(p)), program
                    )
                    assert collected == expected
                    results.append(expected)
        kinds = {r if isinstance(r, str) else "ranking" for r in results}
        assert kinds == {"ranking", "division-by-zero", "undefined-infinity-arith"}

    def test_bit_operators_match_reference(self):
        # xor, band and bor take 0/1 operands; any other operand, inf
        # included, aborts the oracle exactly where the engine raises, with
        # or without an observation that leaves a only 0 and 1
        results = []
        for op in ("xor", "band", "bor"):
            for observed in ("", "observe a == 0 || a == 1; "):
                for value in (f"a {op} b", f"b {op} a", f"a {op} inf", f"inf {op} b"):
                    program = parse_program(
                        "a := any_of(-1 .. 2); b := any_of(0 .. 1); "
                        f"{observed}x := {value};"
                    )
                    expected = _oracle_or_abort(program)
                    assert _engine_or_error(run_program, program) == expected
                    collected = _engine_or_error(
                        lambda p: collect(enumerate_outcomes(p)), program
                    )
                    assert collected == expected
                    results.append(expected)
        kinds = {r if isinstance(r, str) else "ranking" for r in results}
        assert kinds == {"ranking", "non-boolean-bit-op"}

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
            raise AssertionError("a lowering called on the run path")

        for module in (rankpl.syntax, rankpl.engine):
            for name in ("desugar", "expand_observe_j", "expand_observe_l"):
                monkeypatch.setattr(module, name, refuse)
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

    #: hand-built trees that hold an expression of the wrong kind at a site
    ILL_TYPED = {
        "observe-number": Observe(IntLit(1)),
        "assign-condition": Assign("x", (), Cmp("<", IntLit(1), IntLit(2))),
        "offset-condition": RankedChoice(
            Skip(), Cmp("<", IntLit(1), IntLit(2)), Assign("x", (), IntLit(1))
        ),
        "if-number": IfThenElse(Var("x"), Skip(), Skip()),
        "while-number": While(Var("x"), Skip()),
        "observe-j-number": ObserveJ(IntLit(1), Var("x")),
        "observe-l-strength-condition": ObserveL(
            Cmp("<", IntLit(1), IntLit(2)), Cmp("<", Var("x"), IntLit(1))
        ),
        "rank-of-number": Assign("y", (), RankOf(Var("x"))),
    }

    @pytest.mark.parametrize("statement", ILL_TYPED.values(), ids=ILL_TYPED.keys())
    @pytest.mark.parametrize("width", [1, rankpl.engine._COMPILE_AT])
    def test_a_site_of_the_wrong_kind_is_a_type_error(self, statement, width):
        # each site checks the kind of its node, on a slice evaluated
        # interpreted and on one evaluated compiled
        prior = Ranking({Valuation({"x": x}): 0 for x in range(width)})
        for opts in (None, SearchOptions(max_rank=0)):
            with pytest.raises(TypeError, match="^not a (BoolExpr|NumExpr): "):
                denote(statement, prior, opts)


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


class TestSearchOptions:
    @pytest.mark.parametrize(
        "fields",
        [
            {"max_rank": True},
            {"max_rank": 1.0},
            {"max_rank": -1},
            {"max_outcomes": True},
            {"max_outcomes": 1.5},
            {"max_outcomes": 0},
            {"max_while_iterations": True},
            {"max_while_iterations": 2.5},
            {"max_while_iterations": 0},
        ],
    )
    def test_each_limit_is_an_int_not_a_bool(self, fields):
        with pytest.raises(ValueError):
            SearchOptions(**fields)
        SearchOptions(max_rank=0, max_outcomes=1, max_while_iterations=1)

    def test_limits_cannot_change_after_their_checks(self):
        o = SearchOptions(max_outcomes=1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            o.max_outcomes = 1.5
        program = parse_program("x := any_of(0 .. 4);")
        assert list(enumerate_outcomes(program, o)) == [Outcome(Valuation(), 0)]


class TestBudgets:
    def test_bounded_loop_deepens_in_few_rounds(self, monkeypatch):
        # the least pruned rank is one above each budget, so budgets that grew
        # by one would take 301 rounds to reach rank 300; doubling takes 10
        budgets = record_budgets(monkeypatch)
        program = parse_program(
            "x := 0; while x < 1 do { either { x := 1; } or (1) { skip; }; };"
        )
        got = list(enumerate_outcomes(program, SearchOptions(max_rank=300)))
        assert got == [Outcome(Valuation({"x": 1}), 0)]
        assert len(budgets) <= 10
        assert budgets[:4] == [0, 1, 3, 7]

    @pytest.mark.parametrize(
        "k, moves, north, south, rounds, out",
        [
            (2, "E,E", "1,1", "2,1", [0, 1], "rank 0: x=6, y=4\n"),
            (
                8,
                "E,E,S,E,S,S,W,N",
                "1,0,1,1,2,3,3,2",
                "3,3,2,2,1,0,0,1",
                [0, 1, 3, 7],
                "rank 0: x=2, y=4\n",
            ),
        ],
        ids=["k2", "k8"],
    )
    def test_localization_deepens_in_pinned_rounds(
        self, monkeypatch, programs, k, moves, north, south, rounds, out
    ):
        # observeL deepens where its condition or its negation has no visible
        # state; the rounds depend on the walk, and these are pinned
        budgets = record_budgets(monkeypatch)
        code, got, err = run_cli(
            [
                "run",
                str(programs / "localization.rpl"),
                "--input",
                str(programs / "localization_map.input"),
                "--enum",
                "N=0,E=1,S=2,W=3",
                "--define",
                f"k={k}",
                "--define",
                f"mv=[{moves}]",
                "--define",
                f"ns=[{north}]",
                "--define",
                f"ss=[{south}]",
                "--project",
                "x,y",
                "--max-rank",
                "0",
            ]
        )
        assert (code, got, err) == (0, out, "")
        assert budgets == rounds

    @pytest.mark.parametrize(
        "source",
        [
            INTRO_OBSERVE,
            "x := 0; while x < 3 do { x := x + 1 or(1) x + 2; }; observe x == 4;",
            "x := any_of(0 .. 3); observeL(2, x < 1); y := 1 or(x) 2;",
        ],
    )
    def test_every_run_goes_through_one_round_loop(self, monkeypatch, source):
        # an unbounded run is one exact round; a bounded run_program deepens
        # through the same rounds as the enumeration it collects
        budgets = record_budgets(monkeypatch)
        program = parse_program(source)
        run_program(program)
        denote(program, TestBoundedDenote.GRADED)
        assert budgets == [INF, INF]
        for opts in (
            SearchOptions(max_rank=0),
            SearchOptions(max_rank=2),
            SearchOptions(max_outcomes=1),
        ):
            budgets.clear()
            run_program(program, opts)
            ran = list(budgets)
            budgets.clear()
            list(enumerate_outcomes(program, opts))
            assert budgets == ran and ran[0] == 0


    def test_any_budget_sequence_is_sound(self):
        # a round that finishes at any budget is exact at or below its
        # bound, so a deepening policy may choose its budgets freely
        finite = deepened = 0
        for seed, generate in enumerate(GENERATORS, 2101):
            rng = random.Random(seed)
            for _ in range(200):
                program = generate(rng)
                start = _start(program, {Valuation(): 0})
                fresh = lambda: _Partial(start.entries, INF, start.slots)
                try:
                    exact = _denote(program, fresh(), _Round(INF, 10000)).entries
                except EvalError:
                    continue
                compiled = {}  # one cache for a program's rounds, as in a run
                for budget in (0, 1, 2, 3, 4, 5, 6, 8, 11, 17):
                    ctx = _Round(budget, 10000)
                    ctx.compiled = compiled
                    try:
                        result = _denote(program, fresh(), ctx)
                    except _InsufficientBudget:
                        deepened += 1
                        continue
                    finite += result.bound is not INF
                    expected = {s: r for s, r in exact.items() if r <= result.bound}
                    assert result.entries == expected, (budget, pretty_print(program))
        assert finite > 0 and deepened > 0


#: the 200 states of the counting tests' slices are too few to compile on
#: the first path and enough on the second
COMPILE_AT = {"interpreted": 201, "compiled": 200}


def run_counted(monkeypatch, interpreter, source):
    """Run ``source`` through one entry point on both paths and count the
    evaluations on each: the ``Cmp`` nodes that ``_holds`` tests, and the
    calls of compiled expressions, each of which stands for at least one
    comparison or rank.  observeL's guard compares numbers directly and is
    not counted.  Yields the result and the count of each path in turn."""
    for path, compile_at in COMPILE_AT.items():
        calls = {"interpreted": 0, "compiled": 0}
        holds, compile_ = rankpl.engine._holds, rankpl.engine._compile

        def counting_holds(sigma, partial, b):
            calls["interpreted"] += type(b) is rankpl.syntax.Cmp
            return holds(sigma, partial, b)

        def counting_compile(e, slots, compiled):
            fn = compile_(e, slots, compiled)

            def counted(sigma, partial, e):
                calls["compiled"] += 1
                return fn(sigma, partial, e)

            return counted

        with monkeypatch.context() as patch:
            patch.setattr(rankpl.engine, "_holds", counting_holds)
            patch.setattr(rankpl.engine, "_compile", counting_compile)
            patch.setattr(rankpl.engine, "_COMPILE_AT", compile_at)
            program = parse_program(source)
            if interpreter == "enumerate_outcomes":
                result = collect(enumerate_outcomes(program))
            else:
                result = run_program(program)
        # each path really ran: nothing compiles on the first
        assert (calls["compiled"] > 0) == (path == "compiled")
        yield result, calls["interpreted"] + calls["compiled"]


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
        offset = rank_of(self.PRIOR, self.EVENT) + 1
        moved = {
            Valuation({"x": v.get("x") + 1}): r + offset
            for v, r in self.PRIOR.items()
        }
        for result, calls in run_counted(
            monkeypatch,
            interpreter,
            "x := any_of(0 .. 199); "
            "either { skip; } or (rank(x > 196) + 1) { x := x + 1; };",
        ):
            assert result == normalize(min_merge(self.PRIOR.as_dict(), moved))
            assert calls < 5 * self.N

    @pytest.mark.parametrize("interpreter", ["run_program", "enumerate_outcomes"])
    def test_observe_l(self, monkeypatch, interpreter):
        # one pass tests the condition per state and serves the precondition,
        # every split of b from !b and every rank(b); the guard rank(b) <= 2
        # compares once per state too, outside ``_holds``
        for result, calls in run_counted(
            monkeypatch, interpreter, "x := any_of(0 .. 199); observeL(2, x > 196);"
        ):
            assert result == l_condition(self.PRIOR, self.EVENT, 2)
            assert calls < 3 * self.N

    @pytest.mark.parametrize("interpreter", ["run_program", "enumerate_outcomes"])
    def test_observe_j(self, monkeypatch, interpreter):
        for result, calls in run_counted(
            monkeypatch, interpreter, "x := any_of(0 .. 199); observeJ(2, x > 196);"
        ):
            assert result == j_condition(self.PRIOR, self.EVENT, 2)
            assert calls < 3 * self.N


#: prior ranges below and above ``_COMPILE_AT`` states (12 and 140 of them),
#: so that a slice-constant expression runs per state on the first and once
#: per step on the second
WIDTHS = (5, rankpl.engine._COMPILE_AT + 5)
PRIOR = "x := any_of(0 .. {width}); y := 0 or(1) 1;\n"
#: graded observations run after ``PRIOR``: slice-constant strengths, and
#: strengths that read y, which stay per state on either width
STRENGTHS = {
    "literal-strength-j": "observeJ(2, x % 3 == 0);",
    # rank(b) = 1 <= 2 takes observeL's guard, 1 > 0 its other side
    "literal-strength-l": "observeL(2, x % 3 == 0 && y == 1);",
    "literal-strength-flipped-l": "observeL(0, x % 3 == 0 && y == 1);",
    "rank-strength-j": "observeJ(rank(y == 1) + 1, x % 2 == 0);",
    "rank-strength-l": "observeL(rank(y == 1), x % 2 == 0 && y == 0);",
    "negative-strength-j": "observeJ(0 - 1, x == 0);",
    "y-strength-j": "observeJ(y + 1, x % 3 == 0);",
    # the y = 0 states take the guard's other side
    "y-strength-l": "observeL(2 * y, x % 3 == 0 && y == 1);",
}


class TestGradedObservations:
    """observeJ/observeL run natively as the steps of their lowering.  The
    oracle runs that lowering (through ``desugar``), so it is the reference:
    these programs read the condition and the strength where the lowering's
    steps differ from one another, which ``_observe_graded`` in the
    generators never does."""

    SOURCES = {
        # p is 1 on the rank-0 states and 3 on the rank-1 ones
        "strength-per-state-j": "x := any_of(0 .. 3); "
        "either { p := 1; } or (1) { p := 3; }; observeJ(p, x < 2);",
        "strength-per-state-l": "x := any_of(0 .. 3); "
        "either { p := 1; } or (1) { p := 3; }; observeL(p, x < 2);",
        # read against the prior, and by observeL's offsets against a slice
        "rank-in-strength-j": "x := any_of(0 .. 3); "
        "either { skip; } or (1) { x := x + 4; }; "
        "observeJ(rank(x > 5) + 1, x == 1 || x == 6);",
        # the guard reads rank(q == 0) = 0 in the prior, the offsets read
        # inf in the taken slice, where q = 1
        "rank-in-strength-l": "x := any_of(0 .. 3); "
        "either { p := 0; } or (1) { p := 3; q := 1; }; "
        "observeL(p + rank(q == 0), x == 0 && p == 3);",
        # rank(y == 1) is 1 in the prior and 0 in the slice of the y = 1
        # states, where the whole condition holds
        "rank-in-condition-j": "x := any_of(0 .. 2); y := 0 or(1) 1; "
        "observeJ(y + 1, x == 0 || y == 1 && rank(y == 1) == 0);",
        "rank-in-condition-l": "x := any_of(0 .. 2); y := 0 or(1) 1; "
        "either { p := 0; } or (1) { p := 2; }; "
        "observeL(p, x == 0 && p == 2 || y == 1 && rank(y == 1) == 0);",
        # rank(b) = 1 > p on the p = 0 states: the flipped slice holds no b
        "guard-split-l": "x := any_of(0 .. 3); "
        "either { p := 0; } or (1) { p := 2; }; observeL(p, x < 2 && p == 2);",
        # the taken slice holds no b-state, so n - rank(b) subtracts inf
        "guard-split-no-b-l": "either { x := any_of(1 .. 2); } or (1) { x := 0; }; "
        "observeL(x, x == 0);",
        "strength-error-j": "x := any_of(0 .. 2); observeJ(2 / x, x == 0);",
        # rank(b) = 2: the x < 2 states take the flipped slice
        "strength-per-state-flipped-l": "x := any_of(0 .. 2); y := 0 or(2) 1; "
        "observeL(x, y == 1);",
        **{
            f"{name}-{width}": PRIOR.format(width=width) + body
            for name, body in STRENGTHS.items()
            for width in WIDTHS
        },
    }

    @staticmethod
    def outcome(run):
        """The ranking a run returns, or the kind and position of its error."""
        try:
            return run()
        except EvalError as err:
            return err.kind, err.pos

    @pytest.mark.parametrize("source", SOURCES.values(), ids=SOURCES.keys())
    def test_runs_as_the_lowering(self, monkeypatch, source):
        program = parse_program(source)
        lowered = rankpl.syntax.desugar(program)
        exact = self.outcome(lambda: run_program(lowered))
        if not isinstance(exact, tuple):
            exact = oracle_ranking(program)
        assert self.outcome(lambda: run_program(program)) == exact
        budgets = []
        start_round = rankpl.engine._Round.__init__

        def recording(round_, budget, iteration_limit):
            budgets.append(budget)
            start_round(round_, budget, iteration_limit)

        monkeypatch.setattr(rankpl.engine._Round, "__init__", recording)
        limits = [SearchOptions(max_rank=cap) for cap in (0, 1, 2)]
        for opts in limits + [SearchOptions(max_outcomes=1)]:

            def bounded(program, opts=opts):
                """The run's outcomes, or its error, and its rounds' budgets."""
                budgets.clear()
                stream = enumerate_outcomes(program, opts)
                result = self.outcome(lambda: {o.valuation: o.rank for o in stream})
                return result, list(budgets)

            expected, rounds = bounded(lowered)
            if not isinstance(expected, tuple) and opts.max_outcomes is None:
                expected = {v: r for v, r in exact.items() if r <= opts.max_rank}
            # the native steps deepen in the lowering's rounds
            assert bounded(program) == (expected, rounds)


class TestSliceConstants:
    """Expressions that read no variable outside a ``rank()``: a step on a
    slice of ``_COMPILE_AT`` states or more evaluates them once, on its
    first state, and a narrower step once per state.  At both widths a run
    matches the oracle, exact and at max_rank 0-2, in the pinned rounds, or
    fails with the same error at the same position."""

    #: each body, run after ``PRIOR``, and the budgets of its rounds at
    #: max_rank 0, 1 and 2
    SOURCES = {
        "literal-offset": (
            "either { skip; } or (2) { x := x + 100; };",
            [0], [0, 1], [0, 1, 3],
        ),
        "rank-offset": (
            "either { skip; } or (rank(x == 1) + 1) { x := x + 100; };",
            [0], [0, 1], [0, 1, 3],
        ),
        # the y = 1 states hide above budget 0, so that round deepens
        "hidden-rank-offset": (
            "either { skip; } or (rank(y == 1) + 1) { x := x + 100; };",
            [0, 1], [0, 1], [0, 1, 3],
        ),
        "true-if": (
            "if 1 < 2 then { x := x + 100 or(2) x; } else { x := 0; };",
            [0], [0, 1], [0, 1, 3],
        ),
        "false-if": (
            "if 2 < 1 then { x := x + 100; } else { x := 0 or(2) x; };",
            [0], [0, 1], [0, 1, 3],
        ),
        # one value per step: true on the prior, false after one iteration
        "rank-while": (
            "while rank(x == 0) < 1 do { x := x + 1 or(2) x + 2; };",
            [0, 1, 3], [0, 1, 3], [0, 1, 3],
        ),
    }  # fmt: skip

    #: each body, run after ``PRIOR``, its error, the column on line 2 of the
    #: statement that raises it, the least max_rank whose run reaches it, and
    #: the budgets of the rounds at max_rank 0, 1 and 2
    ERRORS = {
        "negative-offset": (
            "either { skip; } or (0 - 1) { skip; };",
            "negative-choice-rank", 1, 0, [0], [0], [0],
        ),
        "negative-strength": (
            "observeJ(0 - 1, x == 0);",
            "negative-choice-rank", 1, 0, [0], [0], [0],
        ),
        "endless-loop": (
            "while 1 < 2 do { skip; };",
            "iteration-limit", 1, 0, [0], [0], [0],
        ),
        "late-negative-offset": (
            "either { skip; } or (2) { either { skip; } or (0 - 1) { skip; }; };",
            "negative-choice-rank", 27, 2, [0], [0, 1], [0, 1, 3],
        ),
        "late-endless-loop": (
            "either { skip; } or (1) { while 1 < 2 do { skip; }; };",
            "iteration-limit", 27, 1, [0], [0, 1], [0, 1],
        ),
    }  # fmt: skip

    @pytest.mark.parametrize("width", WIDTHS)
    @pytest.mark.parametrize("name", SOURCES)
    def test_runs_as_the_oracle(self, monkeypatch, name, width):
        body, *rounds = self.SOURCES[name]
        program = parse_program(PRIOR.format(width=width) + body)
        exact = oracle_ranking(program)
        assert run_program(program) == exact
        budgets = record_budgets(monkeypatch)
        for cap, pinned in enumerate(rounds):
            budgets.clear()
            got = collect(enumerate_outcomes(program, SearchOptions(max_rank=cap)))
            assert got == Ranking({v: r for v, r in exact.items() if r <= cap})
            assert budgets == pinned

    @pytest.mark.parametrize("width", WIDTHS)
    @pytest.mark.parametrize("name", ERRORS)
    def test_fails_where_each_state_would(self, monkeypatch, name, width):
        body, kind, column, reached, *rounds = self.ERRORS[name]
        program = parse_program(PRIOR.format(width=width) + body)
        error = (kind, (2, column))
        if kind != "iteration-limit":  # the oracle knows no iteration limit
            assert _oracle_or_abort(program) == kind

        def run(**limits):
            opts = SearchOptions(max_while_iterations=50, **limits)
            try:
                list(enumerate_outcomes(program, opts))
            except EvalError as err:
                return err.kind, err.pos

        assert run() == error
        budgets = record_budgets(monkeypatch)
        for cap, pinned in enumerate(rounds):
            budgets.clear()
            assert run(max_rank=cap) == (error if cap >= reached else None)
            assert budgets == pinned


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


def oracle_from(program, kappa):
    """The oracle's result of ``program`` run from the prior ``kappa``."""
    weights = oracle.walk(rankpl.syntax.desugar(program), kappa.as_dict())
    return FAILURE if weights is None else normalize(weights)


class TestStateLayout:
    """A run lays its states out as one slot per scalar it can bind and one
    for the array elements; the edges of that layout, against the oracle,
    exact and at ``max_rank`` 0-2."""

    WIDE = rankpl.engine._COMPILE_AT + 5
    SOURCES = {
        "scalar and array": "a := 1; a[0] := 2; b := a + a[0]; "
        "either { a := 0; } or (1) { a[0] := a + 5; a := a[0]; };",
        "unbinding": "x := 1 or(1) 2; arr[3] := x; a[x] := 1; "
        "either { x := 0; arr[3] := 0; } or (1) { a[1] := 0; }; y := arr[3] + a[1];",
        "unbinding all": "either { skip; } or (1) "
        "{ arr[2] := 5; b := 1; arr[2] := 0; b := 0; };",
        "indices": "i := any_of(-2 .. 2); arr[i * 2 - 1] := i + 7; "
        "arr[0 - i][i] := arr[0 - 1] or(1) 0 - 3; "
        "observe arr[0 - 3] < 6 || arr[2][0 - 2] < 0;",
        "unassigned, interpreted": "x := any_of(0 .. 9); "
        "observe x + never < 5 && arr[never] == 0; y := x + also * 2 or(x) m[x];",
        "unassigned, compiled": f"x := any_of(0 .. {WIDE}); "
        "observe x + never < 50 && arr[never] == 0; y := x + also * 2 or(x) m[x];",
    }

    @staticmethod
    def check(run, expected):
        assert run() == expected
        for cap in (0, 1, 2):
            sliced = Ranking({v: r for v, r in expected.items() if r <= cap})
            assert run(SearchOptions(max_rank=cap)) == sliced

    @pytest.mark.parametrize("source", SOURCES.values(), ids=SOURCES.keys())
    def test_runs_as_the_oracle(self, source):
        program = parse_program(source)
        self.check(lambda *opts: run_program(program, *opts), oracle_ranking(program))

    def test_a_prior_binds_what_the_program_never_assigns(self):
        prior = Ranking(
            {
                Valuation({"p": p, "q": 3 - p, ("m", (p, 2)): 3, ("m", (0,)): p}): p
                for p in range(4)
            }
        )
        for source in (
            "x := p + m[1][2] + m[0] or(q) q; observe x < 5; m[x] := 1;",
            "observe p != 2; z := m[2][2] - q;",
            "skip;",
        ):
            program = parse_program(source)
            expected = oracle_from(program, prior)
            self.check(lambda *opts: denote(program, prior, *opts), expected)

    def test_outcomes_of_a_rank_come_in_valuation_order(self):
        def order(source, **options):
            got = outcomes(source, **options)
            return [(dict(o.valuation.items), o.rank) for o in got]

        for options in ({}, {"max_rank": 0}):
            assert order("x := any_of(-1 .. 1);", **options) == [
                ({}, 0),
                ({("x", ()): -1}, 0),
                ({("x", ()): 1}, 0),
            ]
            both = "either { x := 3; y := 4; } or (0) { y := 2; };"
            assert order(both, **options) == [
                ({("x", ()): 3, ("y", ()): 4}, 0),
                ({("y", ()): 2}, 0),
            ]


#: a prior of ``_COMPILE_AT`` states, so that a step after it evaluates
#: compiled
WIDE_PRIOR = f"w := any_of(1 .. {rankpl.engine._COMPILE_AT});\n"


def _errors(source, limit=10000):
    """The error kind and position of an exact run of ``source``, of its
    enumeration and of its enumeration at max_rank 0."""
    program = parse_program(source)
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


class TestWhileStep:
    """A loop tests its guard once per state per iteration, and checks the
    iteration limit at the first state that satisfies it."""

    @pytest.mark.parametrize("interpreter", ["run_program", "enumerate_outcomes"])
    def test_guard_is_tested_once_per_state(self, monkeypatch, interpreter):
        # 200 states, three of which run the body five times: six guard scans
        # of 200 + 3 comparisons each (a state with x > 196 also reads y < 5)
        for result, calls in run_counted(
            monkeypatch,
            interpreter,
            "x := any_of(0 .. 199); while x > 196 && y < 5 do { y := y + 1; };",
        ):
            assert result == Ranking(
                {Valuation({"x": x, "y": 5 if x > 196 else 0}): 0 for x in range(200)}
            )
            assert calls <= 1218

    SOURCE = "x := 0; while x == 0 || 1 / (x - 1) == 0 do { x := 0 or(1) 1; };"

    def test_iteration_limit_comes_before_later_guard_errors(self):
        # the second iteration's first state, x = 0, satisfies the guard; the
        # state x = 1 after it would divide by zero in the guard.  Behind the
        # wide prior the guard runs compiled, on 64 states and then 128
        for prior in ("", WIDE_PRIOR):
            line = 1 + prior.count("\n")
            source = prior + self.SOURCE
            assert _errors(source, 1) == [("iteration-limit", (line, 9))] * 3
            assert _errors(source, 2) == [
                ("division-by-zero", (line, 27)),
                ("division-by-zero", (line, 27)),
                # at budget 0 the state x = 1 is pruned, and x = 0 loops on
                ("iteration-limit", (line, 9)),
            ]


def test_negative_penalty_comes_before_later_offset_errors():
    # the first state, x = 0, takes the penalty 1 / 1 - 2 = -1; the state
    # x = 1 after it would divide by zero in the offset.  Behind the wide
    # prior the offset runs compiled, on 128 states
    source = "x := 0 or(1) 1; either { skip; } or (1 / (1 - x) - 2) { skip; };"
    for prior in ("", WIDE_PRIOR):
        line = 1 + prior.count("\n")
        assert _errors(prior + source) == [("negative-choice-rank", (line, 17))] * 3


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


def test_rank_overflow_needs_a_lifted_state():
    # x = 1 sits at rank BIG and takes the penalty BIG: its slice is lifted
    # past the rank limit, an error only when a state comes out of it
    big = 9223372036854775000
    prefix = f"x := 0 or({big}) 1; either {{ skip; }} or (x * {big}) "
    kept = parse_program(prefix + "{ x := 3; };")
    with pytest.raises(EvalError) as err:
        run_program(kept)
    assert err.value.kind == "undefined-infinity-arith"
    assert err.value.detail == "rank overflow"
    emptied = parse_program(prefix + "{ observe x == 5; };")
    assert run_program(emptied) == Ranking({Valuation(): 0, Valuation({"x": 1}): big})


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
