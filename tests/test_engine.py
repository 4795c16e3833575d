import random

import pytest

import rankpl.engine
import rankpl.evaluator
from proggen import random_program
from rankpl.engine import (
    Outcome,
    SearchOptions,
    _denote,
    _Partial,
    _Round,
    enumerate_collect,
    enumerate_outcomes,
)
from rankpl.evaluator import EvalError, run_program
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
from rankpl.syntax import desugar

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
        program = desugar(parse_program(INTRO), keep_observe_forms=True)
        round0 = _Round(0, 10000)
        result = _denote(program, _Partial({Valuation(): 0}, INF), round0)
        assert list(result.entries.items()) == [(Valuation({"x": 10, "y": 1}), 0)]
        assert round0.pruned and round0.min_pruned == 1

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
        assert enumerate_collect(parse_program("skip;")) == Ranking({Valuation(): 0})

    def test_matches_reference_on_corpus_style_program(self):
        program = parse_program(INTRO_OBSERVE)
        assert enumerate_collect(program) == run_program(program)

    def test_failure_collects_to_failure(self):
        assert enumerate_collect(parse_program("observe 1 == 2;")) == FAILURE


class TestCorpusEquivalence:
    def test_adder_full_enumeration_matches_reference(self, programs):
        program = parse_program((programs / "adder.rpl").read_text())
        assert enumerate_collect(program) == run_program(program)

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
        assert enumerate_collect(program) == run_program(program)


class TestOracleEquivalence:
    def test_collect_equals_reference_on_random_programs(self):
        rng = random.Random(97)
        for _ in range(200):
            program = random_program(rng)
            assert enumerate_collect(program) == run_program(program)

    def test_prefix_slices_match_reference(self):
        rng = random.Random(98)
        for _ in range(60):
            program = random_program(rng)
            reference = run_program(program)
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

    def test_outcomes_ascend_and_never_repeat(self):
        rng = random.Random(99)
        for _ in range(100):
            program = random_program(rng)
            for opts in (SearchOptions(), SearchOptions(max_outcomes=10**9)):
                seen = set()
                last = -1
                for outcome in enumerate_outcomes(program, opts):
                    assert outcome.rank >= last
                    assert outcome.valuation not in seen
                    seen.add(outcome.valuation)
                    last = outcome.rank


class TestRankOfOncePerRanking:
    """``rank(b)`` depends on the ranking, never on the state reading it, so
    both interpreters scan a ranking for it once, not once per state.

    In canonical order the first state satisfying ``x > 196`` comes after
    197 that do not, so a scan per state would evaluate the condition about
    n * n times over the n = 200 states of the prior.
    """

    N = 200
    PRIOR = Ranking({Valuation({"x": x}): 0 for x in range(N)})
    EVENT = staticmethod(lambda v: v.get("x") > 196)

    def run_counted(self, monkeypatch, interpreter, source):
        """Run ``source`` and count the comparisons either interpreter makes."""
        calls = [0]
        for module in (rankpl.evaluator, rankpl.engine):
            original = module._compare

            def counting(*args, original=original):
                calls[0] += 1
                return original(*args)

            monkeypatch.setattr(module, "_compare", counting)
        program = parse_program(source)
        if interpreter == "engine":
            stream = enumerate_outcomes(program)
            result = Ranking({o.valuation: o.rank for o in stream})
        else:
            result = run_program(program)
        return result, calls[0]

    @pytest.mark.parametrize("interpreter", ["evaluator", "engine"])
    def test_choice_offset(self, monkeypatch, interpreter):
        result, calls = self.run_counted(
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

    @pytest.mark.parametrize("interpreter", ["evaluator", "engine"])
    def test_observe_l(self, monkeypatch, interpreter):
        # the expansion reads rank(b) in a guard and in a choice offset, and
        # its observations and precondition test the condition per state
        result, calls = self.run_counted(
            monkeypatch, interpreter, "x := any_of(0 .. 199); observeL(2, x > 196);"
        )
        assert result == l_condition(self.PRIOR, self.EVENT, 2)
        assert calls < 10 * self.N
