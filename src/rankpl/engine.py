"""Most-plausible-first outcome enumeration.

A bounded run (finite ``max_rank`` or ``max_outcomes``) runs the program
repeatedly under a growing rank budget, pruning every choice alternative
whose accumulated rank exceeds the budget, and emits outcomes in ascending
rank order as soon as they are provably final.  An unbounded run wants every
outcome, so it runs once at infinite budget, which prunes nothing, and emits
the sorted result only when the whole program has run: a runtime error
anywhere in it ends the stream before the first outcome.

Each budget round computes a truncated ranking together with an exactness
bound: the entries at or below the bound are exactly the reference result's
entries at or below it.  Pruning at a merge caps the bound at the budget;
conditioning shifts it down by the same normalization offset it applies to
the surviving entries (the minimum surviving accumulated rank at that merge);
an untouched run keeps the bound infinite, which proves the whole result.
Rounds whose visible states cannot decide an observation or rank expression
are abandoned and retried with a larger budget.
"""

from __future__ import annotations

from dataclasses import dataclass

from .evaluator import EvalError, _apply_binop, _compare
from .ranking import FAILURE, INF, RANK_LIMIT, Ranking, Valuation
from .syntax import (
    And,
    Assign,
    BinOp,
    BoolExpr,
    Cmp,
    IfThenElse,
    IntLit,
    Not,
    NumExpr,
    Observe,
    ObserveJ,
    ObserveL,
    Or,
    RankedChoice,
    RankOf,
    Seq,
    Skip,
    Stmt,
    Var,
    While,
    desugar,
    expand_observe_j,
    expand_observe_l,
)


class BudgetExhaustedError(Exception):
    """Enumeration ended at the rank cap without producing any outcome."""


class _InsufficientBudget(Exception):
    """This round's visible states cannot settle the semantics; deepen."""


@dataclass
class SearchOptions:
    max_rank: "int | object" = INF
    max_outcomes: int | None = None
    max_while_iterations: int = 10000

    def __post_init__(self):
        if self.max_rank is not INF and (
            not isinstance(self.max_rank, int) or self.max_rank < 0
        ):
            raise ValueError("max_rank must be a rank")
        if self.max_outcomes is not None and self.max_outcomes <= 0:
            raise ValueError("max_outcomes must be positive")
        if self.max_while_iterations <= 0:
            raise ValueError("max_while_iterations must be positive")


@dataclass(frozen=True)
class Outcome:
    valuation: Valuation
    rank: int


class OutcomeStream:
    """Single-consumer stream of outcomes in nondecreasing rank order.

    After exhaustion, ``failed`` tells whether the program's result was the
    failure ranking (an empty stream without failure only happens under a
    finite ``max_rank``).
    """

    def __init__(self, generator, state):
        self._generator = generator
        self._state = state

    def __iter__(self):
        return self

    def __next__(self) -> Outcome:
        return next(self._generator)

    @property
    def failed(self) -> bool:
        return self._state["failed"]


class _Partial:
    """A budget-truncated ranking: exact entries plus an exactness bound.

    The true (raw, unnormalized) ranking this stands for agrees with
    ``entries`` on everything at rank <= ``bound`` and has nothing else
    there; whatever got pruned lives strictly above the bound.
    """

    __slots__ = ("entries", "bound", "ranks")

    def __init__(self, entries: dict, bound):
        self.entries = entries
        self.bound = bound
        # rank(b) values read against this ranking, keyed on the RankOf node
        self.ranks = {}

    @property
    def proven_failure(self) -> bool:
        return not self.entries and self.bound is INF


class _Round:
    __slots__ = ("budget", "iteration_limit", "pruned", "min_pruned")

    def __init__(self, budget: int, iteration_limit: int):
        self.budget = budget
        self.iteration_limit = iteration_limit
        self.pruned = False
        self.min_pruned = None

    def note_pruned(self, rank: int):
        self.pruned = True
        if self.min_pruned is None or rank < self.min_pruned:
            self.min_pruned = rank

    def next_budget(self) -> int:
        # anything dropped this round sat strictly above the budget, so the
        # next round that can reveal new states starts at the least dropped
        # rank; budgets in between would replay this round verbatim
        if self.min_pruned is not None:
            return max(self.budget + 1, self.min_pruned)
        return self.budget + 1


# -- expressions over partial rankings ---------------------------------------


def _eval_num(sigma: Valuation, partial: _Partial, e: NumExpr):
    if isinstance(e, IntLit):
        return e.value
    if isinstance(e, Var):
        indices = []
        for ix in e.indices:
            value = _eval_num(sigma, partial, ix)
            if value is INF:
                raise EvalError("undefined-infinity-arith", e.pos, "inf as array index")
            indices.append(value)
        return sigma.get(e.name, tuple(indices))
    if isinstance(e, RankOf):
        # the value depends on the ranking alone, so scan it once per node
        value = partial.ranks.get(e)
        if value is None:
            value = partial.ranks[e] = _rank_of(partial, e.cond)
        return value
    if isinstance(e, BinOp):
        left = _eval_num(sigma, partial, e.left)
        right = _eval_num(sigma, partial, e.right)
        return _apply_binop(e.op, left, right, e.pos)
    raise TypeError(f"not a numeric expression: {e!r}")


def _rank_of(partial: _Partial, cond: BoolExpr):
    least = None
    for state, rank in partial.entries.items():
        if (least is None or rank < least) and _holds(state, partial, cond):
            least = rank
    if least is not None:
        return least
    if partial.bound is INF:
        return INF
    raise _InsufficientBudget  # the true rank hides above the bound


def _holds(sigma: Valuation, partial: _Partial, b: BoolExpr) -> bool:
    if isinstance(b, Not):
        return not _holds(sigma, partial, b.operand)
    if isinstance(b, Or):
        return _holds(sigma, partial, b.left) or _holds(sigma, partial, b.right)
    if isinstance(b, And):
        return _holds(sigma, partial, b.left) and _holds(sigma, partial, b.right)
    if isinstance(b, Cmp):
        return _compare(
            b.op, _eval_num(sigma, partial, b.left), _eval_num(sigma, partial, b.right)
        )
    raise TypeError(f"not a boolean expression: {b!r}")


# -- budget-limited denotation -------------------------------------------------


def _merge(contributions, prior_bound, ctx: _Round) -> _Partial:
    """Combine branch contributions: pointwise minimum, then enforce the
    budget, then renormalize both the entries and the bound."""
    merged: dict[Valuation, int] = {}
    bound = prior_bound
    for entries, contrib_bound in contributions:
        if contrib_bound < bound:
            bound = contrib_bound
        for state, rank in entries.items():
            current = merged.get(state)
            if current is None or rank < current:
                merged[state] = rank
    over_budget = [s for s, r in merged.items() if r > ctx.budget]
    if over_budget:
        for state in over_budget:
            ctx.note_pruned(merged.pop(state))
        if ctx.budget < bound:
            bound = ctx.budget
    if bound is not INF:
        # entries above the bound may yet be undercut by pruned alternatives
        for state in [s for s, r in merged.items() if r > bound]:
            del merged[state]
    if not merged:
        if bound is INF:
            return _Partial({}, INF)
        raise _InsufficientBudget
    low = min(merged.values())
    return _Partial(
        dict(sorted((s, r - low) for s, r in merged.items())), bound - low
    )


def _checked(rank: int, pos) -> int:
    if rank >= RANK_LIMIT:
        raise EvalError("undefined-infinity-arith", pos, "rank overflow")
    return rank


def _denote(s: Stmt, p: _Partial, ctx: _Round) -> _Partial:
    if p.proven_failure:
        # failure in, failure out: expressions are never evaluated
        return p

    if isinstance(s, Skip):
        return p

    if isinstance(s, Seq):
        return _denote(s.second, _denote(s.first, p, ctx), ctx)

    if isinstance(s, Assign):
        entries: dict[Valuation, int] = {}
        for sigma, rank in p.entries.items():
            indices = []
            for ix in s.indices:
                value = _eval_num(sigma, p, ix)
                if value is INF:
                    raise EvalError(
                        "undefined-infinity-arith", s.pos, "inf as array index"
                    )
                indices.append(value)
            value = _eval_num(sigma, p, s.value)
            if value is INF:
                raise EvalError(
                    "undefined-infinity-arith", s.pos, "cannot store inf in a variable"
                )
            image = sigma.assign(s.name, tuple(indices), value)
            current = entries.get(image)
            if current is None or rank < current:
                entries[image] = rank
        return _Partial(dict(sorted(entries.items())), p.bound)

    if isinstance(s, Observe):
        kept = {
            sigma: rank
            for sigma, rank in p.entries.items()
            if _holds(sigma, p, s.cond)
        }
        if not kept:
            if p.bound is INF:
                return _Partial({}, INF)
            raise _InsufficientBudget  # satisfying states may hide above the bound
        shift = min(kept.values())
        return _Partial(
            {sigma: rank - shift for sigma, rank in kept.items()}, p.bound - shift
        )

    if isinstance(s, IfThenElse):
        sats = {
            sigma for sigma in p.entries if _holds(sigma, p, s.cond)
        }
        contributions = []
        for wanted, branch in ((True, s.then_branch), (False, s.else_branch)):
            side = {
                sigma: rank
                for sigma, rank in p.entries.items()
                if (sigma in sats) == wanted
            }
            if not side:
                if p.bound is not INF:
                    # the whole side may hide above the bound
                    contributions.append(({}, p.bound))
                continue
            shift = min(side.values())
            sub = _Partial(
                {sigma: rank - shift for sigma, rank in side.items()},
                p.bound - shift,
            )
            result = _denote(branch, sub, ctx)
            contributions.append(
                (
                    {sig: _checked(r + shift, s.pos) for sig, r in result.entries.items()},
                    result.bound + shift,
                )
            )
        return _merge(contributions, p.bound, ctx)

    if isinstance(s, RankedChoice):
        left = _denote(s.first, p, ctx)
        contributions = [(left.entries, left.bound)]
        groups: dict[int, dict[Valuation, int]] = {}
        for sigma, rank in p.entries.items():
            offset = _eval_num(sigma, p, s.rank)
            if offset is INF:
                continue
            if offset < 0:
                raise EvalError("negative-choice-rank", s.pos, f"rank {offset}")
            if offset >= RANK_LIMIT:
                raise EvalError(
                    "undefined-infinity-arith", s.pos, f"rank {offset} out of range"
                )
            groups.setdefault(offset, {})[sigma] = rank
        for offset, part in sorted(groups.items()):
            shift = min(part.values())
            if shift + offset > ctx.budget:
                # the whole alternative starts above the budget: prune it
                # unrun, but remember that nothing below the budget is missing
                ctx.note_pruned(shift + offset)
                contributions.append(({}, ctx.budget))
                continue
            sub = _Partial(
                {sigma: rank - shift for sigma, rank in part.items()},
                p.bound - shift,
            )
            result = _denote(s.second, sub, ctx)
            contributions.append(
                (
                    {
                        sig: _checked(r + shift + offset, s.pos)
                        for sig, r in result.entries.items()
                    },
                    result.bound + shift + offset,
                )
            )
        return _merge(contributions, p.bound, ctx)

    if isinstance(s, While):
        step = IfThenElse(s.cond, s.body, Skip(pos=s.pos), pos=s.pos)
        current = p
        iterations = 0
        while True:
            live = any(
                _holds(sigma, current, s.cond) for sigma in current.entries
            )
            if not live:
                # nothing visible satisfies the guard; hidden states churn
                # strictly above the bound and never disturb what is below it
                return current
            iterations += 1
            if iterations > ctx.iteration_limit:
                raise EvalError("iteration-limit", s.pos)
            current = _denote(step, current, ctx)

    if isinstance(s, (ObserveJ, ObserveL)):
        holders = 0
        for sigma in p.entries:
            if _holds(sigma, p, s.cond):
                holders += 1
        if holders == 0 or holders == len(p.entries):
            if p.bound is INF:
                raise EvalError(
                    "j-or-l-precondition",
                    s.pos,
                    "condition and its negation must both have finite rank",
                )
            raise _InsufficientBudget
        if isinstance(s, ObserveJ):
            expansion = expand_observe_j(s.strength, s.cond, pos=s.pos)
        else:
            expansion = expand_observe_l(s.strength, s.cond, pos=s.pos)
        return _denote(expansion, p, ctx)

    lowered = desugar(s, keep_observe_forms=True)
    if type(lowered) is type(s):
        raise TypeError(f"not a statement: {s!r}")
    return _denote(lowered, p, ctx)


# -- deepening driver ----------------------------------------------------------


def _stream(s: Stmt, opts: SearchOptions, state: dict):
    program = desugar(s, keep_observe_forms=True)
    emitted: set[Valuation] = set()
    count = 0
    # with every outcome wanted, deepening would only replay the program;
    # one round at infinite budget prunes nothing and is the exact result
    unbounded = opts.max_rank is INF and opts.max_outcomes is None
    budget = INF if unbounded else 0
    while True:
        ctx = _Round(budget, opts.max_while_iterations)
        try:
            result = _denote(program, _Partial({Valuation(): 0}, INF), ctx)
        except _InsufficientBudget:
            budget = ctx.next_budget()
            continue
        trusted = min(result.bound, opts.max_rank)
        # entries at or below an earlier round's bound were emitted then and
        # are identical now, so fresh outcomes always rank above them
        fresh = sorted(
            (rank, sigma)
            for sigma, rank in result.entries.items()
            if rank <= trusted and sigma not in emitted
        )
        for rank, sigma in fresh:
            emitted.add(sigma)
            yield Outcome(sigma, rank)
            count += 1
            if opts.max_outcomes is not None and count >= opts.max_outcomes:
                return
        done = result.bound is INF or trusted >= opts.max_rank
        if done:
            if count == 0:
                # a complete empty slice means no rank-0 state exists at all,
                # which only the failure ranking allows
                if result.proven_failure or not result.entries:
                    state["failed"] = True
                    return
                raise BudgetExhaustedError(
                    f"no outcome within max rank {opts.max_rank}"
                )
            return
        budget = ctx.next_budget()


def enumerate_outcomes(s: Stmt, opts: SearchOptions | None = None) -> OutcomeStream:
    """Enumerate program outcomes most-plausible-first.

    Yields every outcome of rank at most ``opts.max_rank`` exactly once, in
    nondecreasing rank order, matching the reference evaluator's result
    whenever that run terminates without error.  Raises the evaluator's
    runtime errors, or :class:`BudgetExhaustedError` if a finite ``max_rank``
    cuts enumeration off before anything could be proven.

    With a finite ``max_rank`` or a ``max_outcomes`` the program runs
    repeatedly under a growing rank budget and outcomes stream out as soon
    as they are proven, so a runtime error in a costlier alternative can
    follow some outcomes.  Without either limit the program runs once,
    exactly, and nothing is yielded before that run completes.
    """
    opts = opts or SearchOptions()
    state = {"failed": False}
    return OutcomeStream(_stream(s, opts, state), state)


def enumerate_collect(s: Stmt, opts: SearchOptions | None = None) -> Ranking:
    """Materialize the stream into a ranking; with unlimited options this
    equals the reference evaluator's result exactly."""
    stream = enumerate_outcomes(s, opts)
    entries = {outcome.valuation: outcome.rank for outcome in stream}
    if stream.failed:
        return FAILURE
    if not entries:
        return FAILURE
    return Ranking(entries)
