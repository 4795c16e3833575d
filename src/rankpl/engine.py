"""The statement interpreter: denotation of rankings, exact or budgeted.

Every statement maps a prior ranking over program states to a posterior one.
Ranked choice merges a normal branch with a penalized one, observation
conditions the ranking, and a conditional runs each branch on the matching
slice before recombining at the prior ranks.  All arithmetic is exact; the
failure ranking is a legal result, while errors (division by zero, undefined
infinity arithmetic, runaway loops) abort the run.

``_denote`` runs one statement of the parsed tree against a
budget-truncated ranking.  The parser has already built ``if … then`` and
``x := e1 or(e) e2`` as core statements; the sugar left, ``any_of`` and
``observeJ``/``observeL``, runs as it is, and only the observations build
nodes at run time, their lowering.  A conditional and a loop iteration are
one branching step: the guard is tested once per state, and each slice runs
renormalized and is lifted back into one merge, as each group of a ranked
choice's penalized alternative is.  At an infinite budget nothing is pruned
and the result is exact; ``run_program`` and ``denote`` without a limit are
that exact run.

A bounded run (finite ``max_rank`` or ``max_outcomes``) runs the program
repeatedly under a rank budget that at least doubles per round, pruning
every choice alternative whose accumulated rank exceeds the budget, and
emits outcomes in ascending rank order as soon as they are provably final.
An unbounded run wants every outcome, so it runs once at infinite budget,
which prunes nothing, and emits the sorted result only when the whole
program has run: a runtime error anywhere in it ends the stream before the
first outcome.

Each budget round computes a truncated ranking together with an exactness
bound: the entries at or below the bound are exactly the full result's
entries at or below it.  Pruning at a merge caps the bound at the budget;
conditioning shifts it down by the same normalization offset it applies to
the surviving entries (the minimum surviving accumulated rank at that merge);
an untouched run keeps the bound infinite, which proves the whole result.
Rounds whose visible states cannot decide an observation or rank expression
are abandoned and retried with a larger budget.

A ranking is an unordered map, and so are a round's entries.  Outcomes are
ordered only where they leave the interpreter: ``_stream`` sorts them by
``(rank, valuation)``, ``Ranking`` by valuation, and the CLI each rank's
projected lines.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ranking import FAILURE, INF, RANK_LIMIT, RankArithmeticError, Ranking, Valuation
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
    UniformPick,
    Var,
    While,
    desugar,  # noqa: F401  not called here; perfbench/layertrace.py wraps it
    expand_observe_j,
    expand_observe_l,
    statements,
)

ERROR_KINDS = (
    "division-by-zero",
    "undefined-infinity-arith",
    "negative-choice-rank",
    "non-boolean-bit-op",
    "iteration-limit",
    "j-or-l-precondition",
    "nested-too-deeply",
)


class EvalError(Exception):
    """A runtime error; unlike the failure ranking it aborts the run."""

    def __init__(self, kind: str, pos=None, detail: str = ""):
        assert kind in ERROR_KINDS
        self.kind = kind
        self.pos = pos
        self.detail = detail
        where = f" at line {pos[0]}, column {pos[1]}" if pos else ""
        extra = f" ({detail})" if detail else ""
        super().__init__(f"{kind}{where}{extra}")


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

    def __init__(self, program: Stmt, prior: dict, opts: SearchOptions):
        self.failed = False
        self._outcomes = _stream(self, program, prior, opts)

    def __iter__(self):
        return self

    def __next__(self) -> Outcome:
        return next(self._outcomes)


class _Partial:
    """A budget-truncated ranking: exact entries plus an exactness bound.

    The true (raw, unnormalized) ranking this stands for agrees with
    ``entries`` on everything at rank <= ``bound`` and has nothing else
    there; whatever got pruned lives strictly above the bound.  ``entries``
    is unordered (see the module docstring for where outcomes are ordered).
    """

    __slots__ = ("entries", "bound", "ranks")

    def __init__(self, entries: dict, bound):
        self.entries = entries
        self.bound = bound
        # rank(b) values read against this ranking, keyed on the RankOf node
        self.ranks = {}


class _Round:
    __slots__ = ("budget", "iteration_limit", "min_pruned")

    def __init__(self, budget: int, iteration_limit: int):
        self.budget = budget
        self.iteration_limit = iteration_limit
        self.min_pruned = None

    def note_pruned(self, rank: int):
        if self.min_pruned is None or rank < self.min_pruned:
            self.min_pruned = rank

    def next_budget(self) -> int:
        # every round replays the program, so the budget doubles to keep the
        # rounds few; anything dropped this round sat strictly above the
        # budget, so a budget below the least dropped rank would replay this
        # round verbatim
        grown = 2 * self.budget + 1
        if self.min_pruned is not None:
            return max(grown, self.min_pruned)
        return grown


# -- expressions over partial rankings ---------------------------------------


def _trunc_div(a: int, b: int, pos) -> int:
    if b == 0:
        raise EvalError("division-by-zero", pos)
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


def _trunc_mod(a: int, b: int, pos) -> int:
    return a - _trunc_div(a, b, pos) * b


def _bit_op(op: str, a, b, pos) -> int:
    if a not in (0, 1) or b not in (0, 1):
        raise EvalError("non-boolean-bit-op", pos, f"{op} needs 0/1 operands")
    if op == "xor":
        return a ^ b
    if op == "band":
        return a & b
    return a | b


def _apply_binop(op: str, a, b, pos):
    """Value arithmetic: integers plus an absorbing infinity where defined.
    ``+`` and ``-`` are the rank arithmetic of ``INF``'s own operators."""
    if op == "+":
        return a + b
    if op == "-":
        try:
            return a - b
        except RankArithmeticError:
            raise EvalError(
                "undefined-infinity-arith", pos, "subtracting inf"
            ) from None
    if op in ("xor", "band", "bor"):
        return _bit_op(op, a, b, pos)
    if a is INF or b is INF:
        raise EvalError("undefined-infinity-arith", pos, f"inf in '{op}'")
    if op == "*":
        return a * b
    if op == "/":
        return _trunc_div(a, b, pos)
    if op == "%":
        return _trunc_mod(a, b, pos)
    raise AssertionError(f"unknown operator {op!r}")


def _compare(op: str, a, b) -> bool:
    # comparisons are total: INF orders itself against integers
    if op == "==":
        return a == b
    if op == "<":
        return a < b
    if op == "<=":
        return a <= b
    raise AssertionError(f"unknown comparison {op!r}")


def _indices(sigma: Valuation, partial: _Partial, exprs: tuple, pos) -> tuple:
    indices = []
    for ix in exprs:
        value = _eval_num(sigma, partial, ix)
        if value is INF:
            raise EvalError("undefined-infinity-arith", pos, "inf as array index")
        indices.append(value)
    return tuple(indices)


def _eval_num(sigma: Valuation, partial: _Partial, e: NumExpr):
    if isinstance(e, IntLit):
        return e.value
    if isinstance(e, Var):
        return sigma.get(e.name, _indices(sigma, partial, e.indices, e.pos))
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


def _normalized(entries: dict, bound) -> _Partial:
    """Shift ``entries`` and ``bound`` down to rank 0.  With no entry, an
    infinite bound proves failure; states may hide above a finite one."""
    if not entries:
        if bound is INF:
            return _Partial({}, INF)
        raise _InsufficientBudget
    low = min(entries.values())
    return _Partial({sigma: rank - low for sigma, rank in entries.items()}, bound - low)


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
    return _normalized(merged, bound)


def _checked(rank: int, pos) -> int:
    if rank >= RANK_LIMIT:
        raise EvalError("undefined-infinity-arith", pos, "rank overflow")
    return rank


def _run_slice(
    stmt: Stmt, part: dict, offset: int, p: _Partial, pos, ctx: _Round
) -> tuple:
    """One contribution to a merge: run ``stmt`` on ``part``, a non-empty
    slice of ``p``'s entries renormalized to start at rank 0, and lift the
    result back to the slice's least rank plus ``offset``.  A slice starts
    above the budget when it is a choice's penalized alternative, or when
    the prior of a bounded ``denote`` ranks states above the budget."""
    shift = min(part.values())
    lift = shift + offset
    if lift > ctx.budget:
        # the whole slice starts above the budget: prune it unrun, but
        # remember that nothing below the budget is missing
        ctx.note_pruned(lift)
        return {}, ctx.budget
    sub = _Partial(
        {sigma: rank - shift for sigma, rank in part.items()}, p.bound - shift
    )
    result = _denote(stmt, sub, ctx)
    return (
        {sigma: _checked(rank + lift, pos) for sigma, rank in result.entries.items()},
        result.bound + lift,
    )


def _branch(
    s, then_branch: Stmt, else_branch, p: _Partial, ctx: _Round, iteration: int = 0
):
    """One conditional step of ``s``, an ``if`` or a loop: test the guard
    once per state, run each branch on its slice and merge.

    A loop passes no ``else_branch`` and the number of the iteration this
    step would run: the states that fail its guard pass through unchanged,
    the iteration limit is checked at the first state that satisfies it,
    and the step returns None when no state does.
    """
    sats: dict[Valuation, int] = {}
    fails: dict[Valuation, int] = {}
    for sigma, rank in p.entries.items():
        if not _holds(sigma, p, s.cond):
            fails[sigma] = rank
        else:
            if iteration > ctx.iteration_limit and not sats:
                raise EvalError("iteration-limit", s.pos)
            sats[sigma] = rank
    contributions = []
    if sats:
        contributions.append(_run_slice(then_branch, sats, 0, p, s.pos, ctx))
    elif else_branch is None:
        return None
    if fails:
        if else_branch is None:
            contributions.append((fails, p.bound))
        else:
            contributions.append(_run_slice(else_branch, fails, 0, p, s.pos, ctx))
    return _merge(contributions, p.bound, ctx)


def _denote(s: Stmt, p: _Partial, ctx: _Round) -> _Partial:
    if isinstance(s, Seq):
        # any nesting of sequences runs in a loop, so a long program needs
        # no deep recursion
        for stmt in statements(s):
            p = _denote(stmt, p, ctx)
        return p

    if not p.entries and p.bound is INF:
        # failure in, failure out: expressions are never evaluated
        return p

    try:
        if isinstance(s, Skip):
            return p

        if isinstance(s, (Assign, UniformPick)):
            # any_of assigns every value of its range at the state's own rank
            entries: dict[Valuation, int] = {}
            for sigma, rank in p.entries.items():
                indices = _indices(sigma, p, s.indices, s.pos)
                if isinstance(s, UniformPick):
                    values = range(s.lower, s.upper + 1)
                else:
                    values = (_eval_num(sigma, p, s.value),)
                    if values[0] is INF:
                        raise EvalError(
                            "undefined-infinity-arith",
                            s.pos,
                            "cannot store inf in a variable",
                        )
                for value in values:
                    image = sigma.assign(s.name, indices, value)
                    current = entries.get(image)
                    if current is None or rank < current:
                        entries[image] = rank
            return _Partial(entries, p.bound)

        if isinstance(s, Observe):
            kept = {
                sigma: rank
                for sigma, rank in p.entries.items()
                if _holds(sigma, p, s.cond)
            }
            return _normalized(kept, p.bound)

        if isinstance(s, IfThenElse):
            return _branch(s, s.then_branch, s.else_branch, p, ctx)

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
                contributions.append(_run_slice(s.second, part, offset, p, s.pos, ctx))
            return _merge(contributions, p.bound, ctx)

        if isinstance(s, While):
            iteration = 0
            while True:
                iteration += 1
                stepped = _branch(s, s.body, None, p, ctx, iteration)
                if stepped is None:
                    # nothing visible satisfies the guard; hidden states churn
                    # strictly above the bound and never disturb what is below it
                    return p
                p = stepped

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

    except RecursionError:
        # an expression or a nesting of blocks deeper than Python's recursion
        # limit; the innermost statement that was running names the place
        raise EvalError("nested-too-deeply", s.pos) from None

    raise TypeError(f"not a statement: {s!r}")


# -- runs --------------------------------------------------------------------


def _stream(stream: OutcomeStream, program: Stmt, prior: dict, opts: SearchOptions):
    emitted: set[Valuation] = set()
    count = 0
    # with every outcome wanted, deepening would only replay the program;
    # one round at infinite budget prunes nothing and is the exact result
    unbounded = opts.max_rank is INF and opts.max_outcomes is None
    budget = INF if unbounded else 0
    while True:
        ctx = _Round(budget, opts.max_while_iterations)
        try:
            result = _denote(program, _Partial(prior, INF), ctx)
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
        if result.bound is INF or trusted >= opts.max_rank:
            if count == 0 and result.entries:
                raise BudgetExhaustedError(
                    f"no outcome within max rank {opts.max_rank}"
                )
            # a complete empty slice means no rank-0 state exists at all,
            # which only the failure ranking allows
            stream.failed = count == 0
            return
        budget = ctx.next_budget()


def enumerate_outcomes(s: Stmt, opts: SearchOptions | None = None) -> OutcomeStream:
    """Enumerate program outcomes most-plausible-first.

    Yields every outcome of rank at most ``opts.max_rank`` exactly once, in
    nondecreasing rank order, matching ``run_program``'s result whenever
    that run terminates without error.  Raises :class:`EvalError` on a
    runtime error, or :class:`BudgetExhaustedError` if a finite ``max_rank``
    cuts enumeration off before anything could be proven.

    With a finite ``max_rank`` or a ``max_outcomes`` the program runs
    repeatedly under a doubling rank budget and outcomes stream out as soon
    as they are proven, so a runtime error in a costlier alternative can
    follow some outcomes.  Without either limit the program runs once,
    exactly, and nothing is yielded before that run completes.
    """
    return OutcomeStream(s, {Valuation(): 0}, opts or SearchOptions())


def initial_ranking() -> Ranking:
    """The starting point of every program: all variables 0, surprise 0."""
    return Ranking({Valuation(): 0})


def denote(s: Stmt, kappa: Ranking, opts: SearchOptions | None = None) -> Ranking:
    """Run one statement, sugar included, against a prior ranking.

    Without a ``max_rank`` or ``max_outcomes`` it runs once at infinite
    budget, where nothing is pruned, into the exact posterior; with either
    limit it collects what enumeration from ``kappa`` yields.  The failure
    ranking is a legal result; runtime errors raise :class:`EvalError`."""
    opts = opts or SearchOptions()
    prior = dict(kappa.items())
    if opts.max_rank is INF and opts.max_outcomes is None:
        entries = _denote(
            s, _Partial(prior, INF), _Round(INF, opts.max_while_iterations)
        ).entries
    else:
        entries = {o.valuation: o.rank for o in OutcomeStream(s, prior, opts)}
    # a failed stream yields nothing, and an empty one that ends has failed
    return Ranking(entries) if entries else FAILURE


def run_program(s: Stmt, opts: SearchOptions | None = None) -> Ranking:
    """Run a whole program, as parsed, from the initial ranking."""
    return denote(s, initial_ranking(), opts)
