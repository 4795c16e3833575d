"""The laws of J- and L-conditioning, checked on whole generated programs.

``tests/oracle.py`` runs observeJ and observeL through ``syntax.desugar``,
and the engine runs them as the steps of that same lowering, so a mistake in
the lowering would pass every engine-against-oracle test.  Ranking theory
fixes what the two observations must do, whatever the lowering: RankPL
(arXiv 2017) defines them as the J- and L-conditioning of Goldszmidt and
Pearl, on Spohn's ranking functions.  The laws below follow from those
definitions alone.

Each program P comes from one of ``tests/proggen.py``'s generators, and the
conditions b and c, drawn after it, are the first of a few generated ones
that both hold and fail somewhere in P's result, so that the observations
are defined.  Every program is run exactly and at max_rank 0-2, and each
bounded run must give the prefix of the exact result.
"""

import functools
import random
from typing import NamedTuple

import pytest

from conftest import collect
from oracle import o_holds
from proggen import (
    random_condition,
    random_loop_program,
    random_program,
    random_sugar_program,
)
from rankpl.engine import EvalError, SearchOptions, enumerate_outcomes, run_program
from rankpl.ranking import INF, Ranking
from rankpl.syntax import IntLit, Not, ObserveJ, ObserveL, RankedChoice, sequence

GENERATORS = {
    "core": random_program,
    "sugar": random_sugar_program,
    "loops": random_loop_program,
}
SEED = 4
#: programs per generator, and the least number of them each law must hold on
PROGRAMS = 60
LEAST = 12
#: conditions drawn per program, of which the first two that are defined serve
DRAWS = 6


def _denotes(program):
    """The exact ranking ``program`` denotes, None when its run raises,
    after checking that each run at max_rank 0-2 yields its prefix."""
    try:
        exact = run_program(program)
    except EvalError:
        return None
    for cap in (0, 1, 2):
        bounded = collect(enumerate_outcomes(program, SearchOptions(max_rank=cap)))
        assert bounded == Ranking({v: r for v, r in exact.items() if r <= cap})
    return exact


def _rank(kappa, b):
    """rank(b) in ``kappa``, for a condition that reads no ``rank()``."""
    holding = (r for v, r in kappa.items() if o_holds(v, None, b, None))
    return min(holding, default=INF)


class Case(NamedTuple):
    program: object
    #: what ``program`` denotes
    prior: Ranking
    #: conditions whose ranks and whose negations' ranks are finite in
    #: ``prior``, or None where no drawn condition is
    b: object
    c: object
    n: int
    m: int


@functools.cache
def _cases(name):
    """The cases of the generator ``name``'s programs that run without
    error; the draws per program are fixed, so each program and its
    conditions stay the same whatever came before."""
    rng = random.Random(SEED)
    cases = []
    for _ in range(PROGRAMS):
        program = GENERATORS[name](rng)
        conditions = [random_condition(rng) for _ in range(DRAWS)]
        n, m = rng.randrange(4), rng.randrange(4)
        prior = _denotes(program)
        if prior is None:
            continue
        defined = [
            b
            for b in conditions
            if _rank(prior, b) is not INF and _rank(prior, Not(b)) is not INF
        ]
        defined += [Not(b) for b in defined]  # !b is defined where b is
        b, c = (defined + [None, None])[:2]
        cases.append(Case(program, prior, b, c, n, m))
    return cases


def _after(case, *observations):
    """What ``case.program`` followed by ``observations`` denotes; these
    are defined, so the run ends without error."""
    kappa = _denotes(sequence([case.program, *observations]))
    assert kappa is not None
    return kappa


def _defined(name):
    cases = [case for case in _cases(name) if case.b is not None]
    assert len(cases) >= LEAST
    return cases


def _obs(kind, strength, cond):
    return kind(IntLit(strength), cond)


@pytest.mark.parametrize("name", GENERATORS)
def test_l_conditioning_is_reversible(name):
    # observeL(n, b); observeL(n, !b) undoes itself
    for case in _defined(name):
        b, n = case.b, case.n
        back = _after(case, _obs(ObserveL, n, b), _obs(ObserveL, n, Not(b)))
        assert back == case.prior


@pytest.mark.parametrize("name", GENERATORS)
def test_l_conditioning_commutes(name):
    for case in _defined(name):
        first = _obs(ObserveL, case.n, case.b)
        second = _obs(ObserveL, case.m, case.c)
        assert _after(case, first, second) == _after(case, second, first)


@pytest.mark.parametrize("name", GENERATORS)
def test_l_strengths_add_up(name):
    for case in _defined(name):
        b, n, m = case.b, case.n, case.m
        twice = _after(case, _obs(ObserveL, n, b), _obs(ObserveL, m, b))
        assert twice == _after(case, _obs(ObserveL, n + m, b))


@pytest.mark.parametrize("name", GENERATORS)
def test_j_conditioning_is_idempotent(name):
    for case in _defined(name):
        once = _obs(ObserveJ, case.n, case.b)
        assert _after(case, once, once) == _after(case, once)


@pytest.mark.parametrize("name", GENERATORS)
def test_j_conditioning_sets_both_ranks(name):
    # afterwards b is believed with firmness n: rank(b) 0, rank(!b) n
    for case in _defined(name):
        b, n = case.b, case.n
        kappa = _after(case, _obs(ObserveJ, n, b))
        assert (_rank(kappa, b), _rank(kappa, Not(b))) == (0, n)


@pytest.mark.parametrize("name", GENERATORS)
def test_l_conditioning_widens_the_gap_by_its_strength(name):
    def gap(kappa, b):
        return _rank(kappa, Not(b)) - _rank(kappa, b)

    for case in _defined(name):
        b, n = case.b, case.n
        kappa = _after(case, _obs(ObserveL, n, b))
        assert gap(kappa, b) - gap(case.prior, b) == n


@pytest.mark.parametrize("name", GENERATORS)
def test_a_choice_between_equals_is_either(name):
    # either { P } or (n) { P } denotes what P does
    cases = _cases(name)
    assert len(cases) >= LEAST
    for case in cases:
        choice = RankedChoice(case.program, IntLit(case.n), case.program)
        assert _denotes(choice) == case.prior
