"""Acceptance criteria, one test per criterion.

Every check is exact (integer arithmetic, zero tolerance).  Each test prints
a single PASS line once its assertions hold; run with ``pytest -s
tests/test_acceptance.py`` to see them.
"""

import random

from conftest import LOCALIZATION_ARGS, PROGRAMS, collect, run_cli
from oracle import oracle_ranking
from proggen import random_program
from rankpl.cli import binding_prelude, parse_input_file
from rankpl.engine import SearchOptions, denote, enumerate_outcomes, run_program
from rankpl.parser import parse_program
from rankpl.ranking import (
    Ranking,
    Valuation,
    j_condition,
    l_condition,
    marginalize,
    rank_of,
)
from rankpl.syntax import Cmp, IntLit, Seq, Var, expand_observe_j, expand_observe_l


def load(name):
    return parse_program((PROGRAMS / name).read_text())


def run_with_defines(name, defines):
    return run_program(Seq(binding_prelude(defines), load(name)))


def val(**bindings):
    return Valuation(bindings)


def report(criterion, text):
    print(f"\n[AC-{criterion:02d}] PASS  {text}")


INTRO = (
    "x := 10; either {y:=1} or (1) { either {y:=2} or (1) {y:=3} }; x := x*y;"
)
INTRO_OBSERVE = (
    "x := 10; either {y:=1} or (1) { either {y:=2} or (1) {y:=3} }; "
    "observe y > 1; x := x*y;"
)


def test_ac01_intro_example():
    plain = marginalize(run_program(parse_program(INTRO)), {"x"})
    assert plain == Ranking({val(x=10): 0, val(x=20): 1, val(x=30): 2})
    observed = marginalize(run_program(parse_program(INTRO_OBSERVE)), {"x"})
    assert observed == Ranking({val(x=20): 0, val(x=30): 1})
    report(1, "intro example: x-marginal {10:0, 20:1, 30:2}; with observe {20:0, 30:1}")


FAULT_VARS = ("fx1", "fx2", "fa1", "fa2", "fo1")


def test_ac02_adder_diagnosis():
    result = marginalize(run_program(load("adder.rpl")), set(FAULT_VARS))
    rank0 = [v for v, r in result.items() if r == 0]
    assert rank0 == [val(fx1=1)]  # only the first XOR gate failed
    for valuation, rank in result.items():
        if rank == 0:
            continue
        failing = [name for name in FAULT_VARS if valuation.get(name) == 1]
        assert len(failing) >= 2 or failing != ["fx1"]
    report(2, "adder: unique rank-0 diagnosis is a lone fx1 failure")


LOCALIZATION_DEFINES = {
    "mv": [1, 1, 1, 1],  # E,E,E,E
    "ns": [1, 1, 1, 1],
    "ss": [2, 1, 2, 3],
}
EXPECTED_CELLS = {
    1: {(1, 5), (2, 5), (3, 5), (5, 4)},
    2: {(6, 4)},
    3: {(3, 5), (7, 4)},
    4: {(4, 5)},
}


def localization_defines(k):
    defines = dict(LOCALIZATION_DEFINES)
    defines["k"] = k
    defines.update(
        parse_input_file((PROGRAMS / "localization_map.input").read_text(), {})
    )
    return defines


def test_ac03_robot_localization():
    for k, expected in EXPECTED_CELLS.items():
        result = run_with_defines("localization.rpl", localization_defines(k))
        marginal = marginalize(result, {"x", "y"})
        cells = {
            (v.get("x"), v.get("y")) for v, r in marginal.items() if r == 0
        }
        assert cells == expected, f"k={k}"
    report(3, "localization: rank-0 cells match for k=1..4")


def test_ac04_regular_conditioning_fails():
    for k in (1, 2):
        ok = run_with_defines("localization_strict.rpl", localization_defines(k))
        assert not ok.is_failure, f"k={k} should still have candidates"
    failed = run_with_defines("localization_strict.rpl", localization_defines(3))
    assert failed.is_failure
    report(4, "strict conditioning: alive through k=2, failure at the third iteration")


def random_instance(rng, values=range(12), max_rank=8, sizes=(2, 7)):
    """A ranking over ``v`` plus a condition with both sides possible; the
    ranking holds from ``sizes[0]`` up to, not including, ``sizes[1]`` of
    the ``values``."""
    while True:
        size = rng.randrange(*sizes)
        chosen = rng.sample(list(values), size)
        ranks = sorted(rng.randrange(0, max_rank) for _ in range(size))
        ranks[0] = 0
        kappa = Ranking({val(v=n): r for n, r in zip(chosen, ranks)})
        cut = rng.randrange(0, len(values))
        op = rng.choice(["<", "=="])
        cond = Cmp(op, Var("v"), IntLit(cut))
        sats = frozenset(
            s
            for s in kappa.support()
            if (s.get("v") < cut if op == "<" else s.get("v") == cut)
        )
        if sats and len(sats) < len(kappa):
            return kappa, cond, sats


def test_ac05_observe_j_matches_library():
    rng = random.Random(50001)
    for _ in range(1000):
        kappa, cond, sats = random_instance(rng)
        strength = rng.randrange(0, 8)
        expansion = expand_observe_j(IntLit(strength), cond)
        assert denote(expansion, kappa) == j_condition(kappa, sats, strength)
    report(5, "observe-with-firmness expansion == J-conditioning on 1000 instances")


def test_ac06_observe_l_matches_library():
    rng = random.Random(60001)
    taken = flipped = 0
    for _ in range(1000):
        kappa, cond, sats = random_instance(rng)
        strength = rng.randrange(0, 8)
        if rank_of(kappa, sats) <= strength:
            taken += 1
        else:
            flipped += 1
        expansion = expand_observe_l(IntLit(strength), cond)
        assert denote(expansion, kappa) == l_condition(kappa, sats, strength)
    assert taken > 0 and flipped > 0
    report(
        6,
        f"observe-with-impact expansion == L-conditioning on 1000 instances "
        f"({taken} direct, {flipped} flipped)",
    )


def test_ac07_l_conditioning_laws():
    rng = random.Random(70001)
    for _ in range(1000):
        kappa, _, sats = random_instance(rng)
        strength = rng.randrange(0, 8)
        complement = frozenset(s for s in kappa.support() if s not in sats)
        assert l_condition(l_condition(kappa, sats, strength), complement, strength) == kappa
    checked = 0
    while checked < 1000:
        kappa, _, sats_a = random_instance(rng)
        support = list(kappa.support())
        sats_b = frozenset(s for s in support if s.get("v") % 2 == 0)
        if not sats_b or len(sats_b) == len(support):
            continue
        strength = rng.randrange(0, 8)
        ab = l_condition(l_condition(kappa, sats_a, strength), sats_b, strength)
        ba = l_condition(l_condition(kappa, sats_b, strength), sats_a, strength)
        assert ab == ba
        checked += 1
    report(7, "L-conditioning reversibility and commutativity on 1000 instances each")


def test_ac08_engine_matches_oracle():
    rng = random.Random(80001)
    failures = 0
    for index in range(500):
        program = random_program(rng)
        reference = oracle_ranking(program)
        assert collect(enumerate_outcomes(program)) == reference, f"program {index}"
        assert run_program(program) == reference, f"program {index}"
        if reference.is_failure:
            failures += 1
        for cap in (0, 1, 2):
            expected = {v: r for v, r in reference.items() if r <= cap}
            stream = enumerate_outcomes(program, SearchOptions(max_rank=cap))
            got = {o.valuation: o.rank for o in stream}
            assert got == expected
            assert (got == {}) == reference.is_failure
    report(
        8,
        f"engine and run_program == oracle on 500 random programs "
        f"({failures} failing runs), "
        "with exact rank-prefixes for r in 0..2",
    )


def test_ac09_normalization_invariant():
    rng = random.Random(90001)
    produced = []
    produced.append(run_program(parse_program(INTRO)))
    produced.append(run_program(parse_program(INTRO_OBSERVE)))
    produced.append(run_program(load("adder.rpl")))
    produced.append(
        run_with_defines("localization.rpl", localization_defines(2))
    )
    for _ in range(200):
        produced.append(run_program(random_program(rng)))
    for _ in range(200):
        kappa, cond, sats = random_instance(rng)
        strength = rng.randrange(0, 8)
        produced.append(j_condition(kappa, sats, strength))
        produced.append(l_condition(kappa, sats, strength))
        produced.append(denote(expand_observe_l(IntLit(strength), cond), kappa))
    checked = 0
    for ranking in produced:
        if not ranking.is_failure:
            assert min(r for _, r in ranking.items()) == 0
            checked += 1
    assert checked
    report(9, f"normalization: minimum rank 0 on all {checked} non-failure rankings")


CORPUS_INVOCATIONS = [
    ["run", str(PROGRAMS / "intro.rpl"), "--project", "x"],
    ["run", str(PROGRAMS / "intro_observe.rpl"), "--project", "x"],
    [
        "run",
        str(PROGRAMS / "adder.rpl"),
        "--project",
        "fx1,fx2,fa1,fa2,fo1",
        "--max-rank",
        "0",
    ],
    [
        "run",
        str(PROGRAMS / "localization.rpl"),
        *LOCALIZATION_ARGS,
        "--define",
        "k=4",
        "--project",
        "x,y",
        "--max-rank",
        "0",
    ],
    [
        "run",
        str(PROGRAMS / "localization_strict.rpl"),
        *LOCALIZATION_ARGS,
        "--define",
        "k=3",
        "--project",
        "x,y",
    ],
]


def test_ac10_cli_determinism():
    for argv in CORPUS_INVOCATIONS:
        results = [run_cli(argv) for _ in range(3)]
        assert results[0] == results[1] == results[2], argv
        code, out, _ = results[0]
        assert out.encode() == results[1][1].encode() == results[2][1].encode()
    report(10, "byte-identical CLI output across 3 runs of each corpus invocation")
