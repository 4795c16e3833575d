import random

import pytest
from hypothesis import given, strategies as st

from rankpl.ranking import (
    FAILURE,
    INF,
    RANK_LIMIT,
    ConditioningError,
    RankArithmeticError,
    Ranking,
    Valuation,
    as_rank,
    condition,
    firmness,
    j_condition,
    l_condition,
    marginalize,
    min_merge,
    normalize,
    rank_of,
)


def val(**bindings):
    return Valuation(bindings)


SA = val(v=1)
SB = val(v=2)
SC = val(v=3)


def ranking(*pairs):
    return Ranking(dict(pairs))


class TestRankArithmetic:
    def test_min_is_total(self):
        assert min(3, INF) == 3
        assert min(INF, 3) == 3
        assert min(INF, INF) is INF

    def test_comparisons(self):
        assert 5 < INF
        assert not (INF < 5)
        assert INF <= INF
        assert INF > 10**30
        assert not (INF < INF)

    def test_addition_absorbs(self):
        assert INF + 7 is INF
        assert 7 + INF is INF
        assert INF + INF is INF

    def test_subtraction_table(self):
        assert INF - 5 is INF
        with pytest.raises(RankArithmeticError):
            5 - INF
        with pytest.raises(RankArithmeticError):
            INF - INF

    def test_as_rank_bounds(self):
        assert as_rank(0) == 0
        assert as_rank(INF) is INF
        with pytest.raises(RankArithmeticError):
            as_rank(-1)
        with pytest.raises(RankArithmeticError):
            as_rank(RANK_LIMIT)


class TestValuation:
    def test_unbound_reads_zero(self):
        assert Valuation().get("x") == 0
        assert Valuation().get("a", (1, 2)) == 0

    def test_zero_bindings_are_identity(self):
        assert val(x=0) == Valuation()
        assert val(x=1).assign("x", (), 0) == Valuation()
        assert hash(val(x=0)) == hash(Valuation())

    def test_assign_is_persistent(self):
        base = val(x=1)
        updated = base.assign("y", (), 2)
        assert base.get("y") == 0
        assert updated.get("y") == 2
        assert updated.get("x") == 1

    def test_indexed_bindings(self):
        v = Valuation().assign("a", (0,), 7).assign("a", (1,), 8)
        assert v.get("a", (0,)) == 7
        assert v.get("a", (1,)) == 8
        assert v.get("a") == 0

    def test_ordering_is_lexicographic_on_sorted_bindings(self):
        assert val(x=1) < val(x=2)
        assert val(a=1) < val(b=1)
        assert Valuation() < val(x=1)

    def test_restrict(self):
        v = val(x=1, y=2)
        assert v.restrict({"x"}) == val(x=1)

    def test_comparisons_follow_the_order_of_items(self):
        # few keys and values, so equal and prefix-related pairs are common
        rng = random.Random(71)
        keys = [("a", ()), ("b", ()), ("a", (0,)), ("a", (1,))]
        states = []
        for _ in range(40):
            chosen = rng.sample(keys, rng.randrange(5))
            states.append(Valuation({key: rng.randrange(-1, 2) for key in chosen}))
        for v in states:
            for w in states:
                x, y = v.items, w.items
                assert (v < w, v <= w, v > w, v >= w) == (x < y, x <= y, x > y, x >= y)


class TestRankOf:
    def test_whole_support_is_zero(self):
        k = ranking((SA, 0), (SB, 1))
        assert rank_of(k, lambda s: True) == 0

    def test_empty_event_is_infinite(self):
        k = ranking((SA, 0), (SB, 1))
        assert rank_of(k, lambda s: False) is INF
        assert rank_of(FAILURE, lambda s: True) is INF

    def test_min_over_members(self):
        k = ranking((SA, 0), (SB, 1), (SC, 3))
        assert rank_of(k, {SB, SC}) == 1

    def test_disjoint_union_is_min_of_parts(self):
        k = ranking((SA, 0), (SB, 1), (SC, 3))
        assert rank_of(k, {SA, SC}) == min(rank_of(k, {SA}), rank_of(k, {SC}))


class TestNormalize:
    def test_already_normalized(self):
        assert normalize({SA: 0, SB: 2}) == ranking((SA, 0), (SB, 2))

    def test_subtracts_minimum(self):
        assert normalize({SA: 3, SB: 5}) == ranking((SA, 0), (SB, 2))

    def test_all_infinite_is_failure(self):
        assert normalize({}) is not None
        assert normalize({}).is_failure
        assert normalize({SA: INF}) == FAILURE

    def test_constructor_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            Ranking({SA: 1})


class TestCondition:
    def test_shifts_and_drops(self):
        k = ranking((SA, 0), (SB, 1), (SC, 2))
        assert condition(k, {SB, SC}) == ranking((SB, 0), (SC, 1))

    def test_conditioning_on_everything_is_identity(self):
        k = ranking((SA, 0),)
        assert condition(k, lambda s: True) == k

    def test_impossible_event_fails(self):
        assert condition(ranking((SA, 0)), set()).is_failure

    def test_idempotent(self):
        k = ranking((SA, 0), (SB, 1), (SC, 2))
        event = {SB, SC}
        once = condition(k, event)
        assert condition(once, event) == once


A1 = val(v=1, side=1)
A2 = val(v=2, side=1)
B1 = val(v=3)
IN_A = {A1, A2}


class TestJCondition:
    def test_pointwise(self):
        k = ranking((A1, 1), (A2, 3), (B1, 0))
        assert j_condition(k, IN_A, 2) == ranking((A1, 0), (A2, 2), (B1, 2))

    def test_fixed_point(self):
        k = ranking((A1, 0), (A2, 2), (B1, 1))
        assert j_condition(k, IN_A, firmness(k, IN_A)) == k

    def test_zero_over_zero(self):
        k = ranking((A1, 0), (B1, 0))
        assert j_condition(k, {A1}, 1) == ranking((A1, 0), (B1, 1))

    def test_resulting_firmness_is_strength(self):
        k = ranking((A1, 1), (A2, 3), (B1, 0))
        for strength in (0, 1, 2, 5):
            assert firmness(j_condition(k, IN_A, strength), IN_A) == strength

    def test_undefined_when_one_side_impossible(self):
        k = ranking((A1, 0), (A2, 1))
        with pytest.raises(ConditioningError):
            j_condition(k, IN_A, 1)
        with pytest.raises(ConditioningError):
            j_condition(k, set(), 1)
        with pytest.raises(ConditioningError):
            j_condition(k, {A1}, INF)


class TestLCondition:
    def test_pointwise(self):
        k = ranking((A1, 1), (A2, 3), (B1, 0))
        assert l_condition(k, IN_A, 2) == ranking((A1, 0), (A2, 2), (B1, 1))

    def test_zero_strength_is_identity(self):
        k = ranking((A1, 0), (B1, 0))
        assert l_condition(k, {A1}, 0) == k

    def test_reversible(self):
        k = ranking((A1, 1), (A2, 3), (B1, 0))
        undone = l_condition(l_condition(k, IN_A, 2), lambda s: s not in IN_A, 2)
        assert undone == k

    def test_undefined_when_one_side_impossible(self):
        k = ranking((A1, 0), (A2, 1))
        with pytest.raises(ConditioningError):
            l_condition(k, IN_A, 1)


@pytest.mark.parametrize("revise", [j_condition, l_condition])
def test_two_sided_conditioning_reads_the_event_three_times(revise):
    # ranks fall along valuation order, so the scans for the event's rank and
    # for its firmness each read every valuation; the revision reads each
    # once more, and neither scan runs again after the precondition check
    k = ranking(*((val(v=v), 9 - v) for v in range(10)))
    reads = []

    def even(valuation):
        reads.append(valuation)
        return valuation.get("v") % 2 == 0

    expected = revise(k, {val(v=v) for v in range(0, 10, 2)}, 2)
    assert revise(k, even, 2) == expected
    assert len(reads) == 3 * len(k)


class TestFirmness:
    def test_rank_of_complement(self):
        k = ranking((A1, 0), (B1, 2))
        assert firmness(k, {A1}) == 2

    def test_everything_is_believed_infinitely(self):
        k = ranking((A1, 0), (B1, 2))
        assert firmness(k, lambda s: True) is INF

    def test_not_believed(self):
        k = ranking((A1, 0), (B1, 0))
        assert firmness(k, {A1}) == 0

    def test_deductive_closure(self):
        # if two events are believed more firmly than x, so is their meet
        k = ranking((val(v=1), 0), (val(v=2), 3), (val(v=3), 4))
        a = lambda s: s.get("v") != 2
        b = lambda s: s.get("v") != 3
        x = 2
        assert firmness(k, a) > x
        assert firmness(k, b) > x
        assert firmness(k, lambda s: a(s) and b(s)) > x


class TestMinMerge:
    def test_identity_with_empty(self):
        assert min_merge({SA: 0}, {}) == {SA: 0}

    def test_pointwise_min(self):
        assert min_merge({SA: 1}, {SA: 3}) == {SA: 1}

    def test_disjoint_union(self):
        assert min_merge({SA: 2}, {SB: 0}) == {SA: 2, SB: 0}


class TestMarginalize:
    def test_collapses_to_min(self):
        k = ranking((val(x=1, y=1), 0), (val(x=1, y=2), 1))
        assert marginalize(k, {"x"}) == ranking((val(x=1), 0))

    def test_projection_onto_full_set_is_identity(self):
        k = ranking((val(x=1), 0), (val(x=2), 2))
        assert marginalize(k, {"x"}) == k

    def test_keeps_distinct_states_ranked(self):
        k = ranking(
            (val(x=10, y=1), 0), (val(x=20, y=2), 1), (val(x=30, y=3), 2)
        )
        expected = ranking((val(x=10), 0), (val(x=20), 1), (val(x=30), 2))
        assert marginalize(k, {"x"}) == expected


# -- randomized laws ---------------------------------------------------------

values = st.integers(min_value=0, max_value=3)
ranks = st.integers(min_value=0, max_value=8)


@st.composite
def rankings(draw, min_size=1):
    support = draw(
        st.dictionaries(values, ranks, min_size=min_size, max_size=8)
    )
    raw = {val(v=n): r for n, r in support.items()}
    result = normalize(raw)
    return result


@st.composite
def two_sided(draw):
    """A ranking plus an event with both it and its complement possible."""
    k = draw(rankings(min_size=2))
    support = list(k.support())
    size = draw(st.integers(min_value=1, max_value=len(support) - 1))
    members = frozenset(draw(st.permutations(support))[:size])
    return k, members


binding_ops = st.lists(
    st.tuples(
        st.sampled_from(["a", "b", "x"]),
        st.sampled_from([(), (0,), (1,), (0, 1)]),
        st.integers(min_value=-2, max_value=2),
    ),
    max_size=30,
)


@given(binding_ops)
def test_assign_matches_a_valuation_built_from_scratch(ops):
    # small key and value pools make inserts, overwrites, deletes by zero and
    # no-op assignments all common
    state, model = Valuation(), {}
    results, expected = [state], [Valuation()]
    for name, indices, value in ops:
        state = state.assign(name, indices, value)
        if value:
            model[(name, indices)] = value
        else:
            model.pop((name, indices), None)
        assert state.items == tuple(sorted(model.items()))
        results.append(state)
        expected.append(Valuation(model))
    for got, want in zip(results, expected):
        assert got == want
        assert hash(got) == hash(want)
        assert got.items == want.items
        for other_got, other_want in zip(results, expected):
            assert (got < other_got) == (want < other_want)


@given(rankings())
def test_normalize_always_yields_min_zero(k):
    if not k.is_failure:
        assert min(r for _, r in k.items()) == 0


@given(two_sided())
def test_condition_idempotent(pair):
    k, event = pair
    once = condition(k, event)
    assert condition(once, event) == once


@given(two_sided(), st.integers(min_value=0, max_value=6))
def test_j_condition_sets_firmness(pair, strength):
    k, event = pair
    assert firmness(j_condition(k, event, strength), event) == strength


@given(two_sided(), st.integers(min_value=0, max_value=6))
def test_l_condition_reversible(pair, strength):
    k, event = pair
    complement = frozenset(s for s in k.support() if s not in event)
    assert l_condition(l_condition(k, event, strength), complement, strength) == k


@given(two_sided(), st.integers(min_value=0, max_value=6))
def test_l_condition_commutative(pair, strength):
    k, event_a = pair
    support = list(k.support())
    event_b = frozenset(s for s in support if s.get("v") % 2 == 0)
    if not event_b or len(event_b) == len(support):
        return
    ab = l_condition(l_condition(k, event_a, strength), event_b, strength)
    ba = l_condition(l_condition(k, event_b, strength), event_a, strength)
    assert ab == ba
