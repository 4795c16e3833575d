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
``observeJ``/``observeL``, runs as it is, and nothing builds a syntax node at
run time.  A conditional, a loop iteration, a ranked choice and a graded
observation partition their slice in one step, ``_split``: it groups the
states by a key computed once per state, a guard's truth, a choice's penalty
or an observation's condition, and each group runs renormalized and is
lifted back at its rank into one merge (``_run_slice``, ``_merge``).  A loop
splits on its guard once per iteration, and the states that fail it leave
the loop; a choice runs its penalized alternative on each group of finite
penalty, in ascending order.  The steps take the branch body as a callable,
so ``observeJ`` and ``observeL`` run as the steps of their lowering (see
``syntax.desugar``) without building it: each ranked choice of a lowering is
one revision step, and observeL's ``if rank(b) <= n`` is one branching step
between two of them, all inside ``_observe_graded``, which splits its prior
on the condition once.  At an infinite budget nothing is pruned and the
result is exact.

Each evaluation site (an observation, a guard, a choice offset, an assigned
value, a graded observation's condition, a ``rank(b)`` scan) evaluates its
expression on every state of its slice.  Once the slice holds
``_COMPILE_AT`` states, the expression is compiled to a Python function,
once per run, and evaluated through it; a narrower site calls
``_eval_num``/``_holds`` directly, so small runs never pay for a compile.
Trees too deep for CPython to compile stay interpreted.  On a slice of
``_COMPILE_AT`` states or more, a slice-constant expression, one that reads
no variable outside a ``rank()`` (see ``_reads``), is evaluated once per
step, on the slice's first state, where the per-state loop would evaluate
it first: a choice offset, a graded observation's strength and observeL's
guard, and an ``if`` or ``while`` guard.  ``_split`` alone holds this: the
whole slice forms the one group of that value, and the error and the round
that deepens stay those of the per-state loop.  No option sets any of this.
A site names the kind of expression it wants, condition or number, and a
hand-built tree that holds the other kind there raises ``TypeError``.

Inside a run a state is a plain tuple, laid out once per run by ``_layout``:
one slot per scalar the run can bind (those its prior binds and those the
program assigns without indices), in sorted order of their names, then a
last slot that holds the state's array elements as a ``Valuation``, or None
when it has none.  Dicts of states hash and compare in C; a scalar
assignment is a tuple slice that shares the elements by reference; a name
without a slot reads 0.  States become ``Valuation``s only where they leave
the interpreter: as the ``Outcome``s of ``enumerate_outcomes`` and the
``Ranking`` of ``denote``.

Every run, through ``enumerate_outcomes``, ``denote`` or ``run_program``, is
one loop of rounds, ``_proven``, which alone applies ``SearchOptions``; each
finished round hands over the outcomes it newly proves.  A bounded run
(finite ``max_rank`` or ``max_outcomes``) runs the program repeatedly under
a rank budget that at least doubles per round, pruning every choice
alternative whose accumulated rank exceeds the budget, so outcomes come out
in ascending rank order as soon as they are provably final.  An unbounded
run wants every outcome, so it runs once at infinite budget, which prunes
nothing, and hands over the whole result only when the whole program has
run: a runtime error anywhere in it ends the run before the first outcome.

Each budget round computes a truncated ranking together with an exactness
bound: the entries at or below the bound are exactly the full result's
entries at or below it.  Pruning at a merge caps the bound at the budget;
conditioning shifts it down by the same normalization offset it applies to
the surviving entries (the minimum surviving accumulated rank at that merge);
an untouched run keeps the bound infinite, which proves the whole result.
Rounds whose visible states cannot decide an observation or rank expression
are abandoned and retried with a larger budget.

A ranking is an unordered map, and so are a round's entries.  Outcomes are
ordered only where they leave the interpreter: ``enumerate_outcomes`` sorts
each round's by ``(rank, valuation)``, ``Ranking`` by valuation, and the
CLI each rank's projected lines.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

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
    # not called here; perfbench/layertrace.py wraps these three
    desugar,  # noqa: F401
    expand_observe_j,  # noqa: F401
    expand_observe_l,  # noqa: F401
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


class _InsufficientBudget(Exception):
    """This round's visible states cannot settle the semantics; deepen."""


@dataclass(frozen=True)
class SearchOptions:
    max_rank: "int | object" = INF
    max_outcomes: int | None = None
    max_while_iterations: int = 10000

    def __post_init__(self):
        if self.max_rank is not INF and not _at_least(self.max_rank, 0):
            raise ValueError("max_rank must be a rank")
        if self.max_outcomes is not None and not _at_least(self.max_outcomes, 1):
            raise ValueError("max_outcomes must be a positive int")
        if not _at_least(self.max_while_iterations, 1):
            raise ValueError("max_while_iterations must be a positive int")


def _at_least(value, least: int) -> bool:
    """Whether ``value`` is an int, not a bool, of at least ``least``."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= least


class Outcome(NamedTuple):
    valuation: Valuation
    rank: int


# -- states ----------------------------------------------------------------------

#: the array elements of a state that has none
_NO_ELEMENTS = Valuation()


def _layout(program: Stmt, prior: dict) -> dict:
    """The slot of each scalar a run can bind, by name, in sorted order: the
    names ``prior`` binds without indices and those ``program`` assigns
    without indices."""
    names = {key[0] for sigma in prior for key, _ in sigma.items if not key[1]}
    pending = [program]
    while pending:
        s = pending.pop()
        t = type(s)  # nodes are final
        if t is Seq or t is RankedChoice:
            pending += (s.first, s.second)
        elif t is Assign or t is UniformPick:
            if not s.indices:
                names.add(s.name)
        elif t is IfThenElse:
            pending += (s.then_branch, s.else_branch)
        elif t is While:
            pending.append(s.body)
    return {name: slot for slot, name in enumerate(sorted(names))}


def _state(valuation: Valuation, slots: dict) -> tuple:
    """``valuation`` as a state laid out by ``slots``."""
    state = [0] * len(slots)
    elements = []
    for key, value in valuation.items:
        if key[1]:
            elements.append((key, value))
        else:
            state[slots[key[0]]] = value
    state.append(Valuation._from_sorted(tuple(elements)) if elements else None)
    return tuple(state)


def _items(state: tuple, keys: list) -> tuple:
    """The bindings of ``state`` as ``Valuation.items``, ``keys`` the
    ``(name, ())`` key of each of its scalar slots."""
    items = [(key, value) for key, value in zip(keys, state) if value]
    if state[-1] is not None:
        items += state[-1].items
        items.sort()
    return tuple(items)


class _Partial:
    """A budget-truncated ranking: exact entries plus an exactness bound.

    The true (raw, unnormalized) ranking this stands for agrees with
    ``entries`` on everything at rank <= ``bound`` and has nothing else
    there; whatever got pruned lives strictly above the bound.  ``entries``
    is unordered (see the module docstring for where outcomes are ordered),
    and its states are laid out by ``slots``, the run's.
    """

    __slots__ = ("entries", "bound", "slots", "ranks")

    def __init__(self, entries: dict, bound, slots: dict):
        self.entries = entries
        self.bound = bound
        self.slots = slots
        # rank(b) values read against this ranking, keyed on id() of the
        # RankOf node; the program tree keeps every node read alive
        self.ranks = {}


class _Round:
    __slots__ = ("budget", "iteration_limit", "min_pruned", "compiled", "reads")

    def __init__(self, budget: int, iteration_limit: int):
        self.budget = budget
        self.iteration_limit = iteration_limit
        self.min_pruned = INF
        # see ``_evaluator`` and ``_reads``; both shared by a run's rounds
        self.compiled = {}
        self.reads = {}

    def note_pruned(self, rank: int):
        if rank < self.min_pruned:
            self.min_pruned = rank

    def next_budget(self) -> int:
        # a round deepens only below a finite bound, and only a prune makes a
        # bound finite.  Every round replays the program, so the budget
        # doubles to keep the rounds few; anything dropped this round sat
        # strictly above the budget, so a budget below the least dropped rank
        # would replay this round verbatim
        return max(2 * self.budget + 1, self.min_pruned)


# -- expressions over partial rankings ---------------------------------------


def _minus(a, b, pos):
    try:
        return a - b
    except RankArithmeticError:
        raise EvalError("undefined-infinity-arith", pos, "subtracting inf") from None


def _times(a, b, pos):
    if a is INF or b is INF:
        raise EvalError("undefined-infinity-arith", pos, "inf in '*'")
    return a * b


def _trunc_mod(a, b, pos, op: str = "%") -> int:
    if a is INF or b is INF:
        raise EvalError("undefined-infinity-arith", pos, f"inf in '{op}'")
    if b == 0:
        raise EvalError("division-by-zero", pos)
    r = abs(a) % abs(b)
    return -r if a < 0 else r


def _trunc_div(a, b, pos) -> int:
    return (a - _trunc_mod(a, b, pos, "/")) // b  # b divides a - r exactly


def _bit_op(op: str, a, b, pos) -> int:
    if a not in (0, 1) or b not in (0, 1):
        raise EvalError("non-boolean-bit-op", pos, f"{op} needs 0/1 operands")
    if op == "xor":
        return a ^ b
    if op == "band":
        return a & b
    return a | b


#: each operator but ``+`` as a function of ``(a, b, pos)``; ``+`` and ``-``
#: are the rank arithmetic of ``INF``'s own operators
_BINOPS = {
    "-": _minus,
    "*": _times,
    "/": _trunc_div,
    "%": _trunc_mod,
    **{op: functools.partial(_bit_op, op) for op in ("xor", "band", "bor")},
}


def _index(value, pos) -> int:
    if value is INF:
        raise EvalError("undefined-infinity-arith", pos, "inf as array index")
    return value


def _indices(sigma: tuple, partial: _Partial, exprs: tuple, pos) -> tuple:
    indices = []
    for ix in exprs:
        indices.append(_index(_eval_num(sigma, partial, ix), pos))
    return tuple(indices)


def _eval_num(sigma: tuple, partial: _Partial, e: NumExpr):
    # dispatch on the exact type, most frequent first; nodes are final
    t = type(e)
    if t is BinOp:
        left = _eval_num(sigma, partial, e.left)
        right = _eval_num(sigma, partial, e.right)
        if e.op == "+":
            return left + right
        return _BINOPS[e.op](left, right, e.pos)
    if t is Var:
        if not e.indices:
            slot = partial.slots.get(e.name)
            return 0 if slot is None else sigma[slot]
        indices = _indices(sigma, partial, e.indices, e.pos)
        return 0 if sigma[-1] is None else sigma[-1].get(e.name, indices)
    if t is IntLit:
        return e.value
    if t is RankOf:
        return _rank(partial, e)
    raise TypeError(f"not a numeric expression: {e!r}")


def _rank(partial: _Partial, e: RankOf, compiled: dict | None = None):
    # the value depends on the ranking alone, so scan it once per node;
    # nodes are keyed by identity, as hashing one hashes its whole tree
    least = partial.ranks.get(id(e))
    if least is not None:
        return least
    holds = _evaluator(e.cond, BoolExpr, partial, compiled)
    for state, rank in partial.entries.items():
        if (least is None or rank < least) and holds(state, partial, e.cond):
            least = rank
    if least is None:
        if partial.bound is not INF:
            raise _InsufficientBudget  # the true rank hides above the bound
        least = INF
    partial.ranks[id(e)] = least
    return least


def _holds(sigma: tuple, partial: _Partial, b: BoolExpr) -> bool:
    t = type(b)
    if t is Cmp:
        left = _eval_num(sigma, partial, b.left)
        right = _eval_num(sigma, partial, b.right)
        if b.op == "==":
            return left == right
        if b.op == "<":
            return left < right
        # comparisons are total: INF orders itself against integers
        return left <= right
    if t is Not:
        return not _holds(sigma, partial, b.operand)
    if t is And:
        return _holds(sigma, partial, b.left) and _holds(sigma, partial, b.right)
    if t is Or:
        return _holds(sigma, partial, b.left) or _holds(sigma, partial, b.right)
    raise TypeError(f"not a boolean expression: {b!r}")


def _reads(e, ctx: _Round) -> tuple:
    """Whether expression ``e`` reads a variable outside every ``rank()``,
    and whether it reads a ``rank()``, walked once per node per run.  One
    that reads no such variable is slice-constant: its value is the same on
    every state of a slice.  A node the walk does not know reads both, so
    it is evaluated per state, where the interpreter rejects it."""
    reads = ctx.reads.get(id(e))
    if reads is None:
        state = rank = False
        pending = [e]
        while pending:
            node = pending.pop()
            t = type(node)  # nodes are final
            if t is BinOp or t is Cmp or t is And or t is Or:
                pending += (node.left, node.right)
            elif t is Var:
                state = True
                pending += node.indices
            elif t is RankOf:
                rank = True
            elif t is Not:
                pending.append(node.operand)
            elif t is not IntLit:
                state = rank = True
        reads = ctx.reads[id(e)] = (state, rank)
    return reads


def _constant(e, p: _Partial, ctx: _Round) -> bool:
    """Whether a step on ``p`` evaluates ``e`` once, not once per state: when
    ``e`` is slice-constant and ``p`` holds at least ``_COMPILE_AT`` states.
    On a narrower slice the walk that tells costs more than it saves."""
    return len(p.entries) >= _COMPILE_AT and not _reads(e, ctx)[0]


# -- compiled expressions ------------------------------------------------------

#: a site whose slice holds at least this many states evaluates compiled; a
#: compile costs about as much as 30 interpreted evaluations
_COMPILE_AT = 64


def _evaluator(e, kind: type, partial: _Partial, compiled: dict | None):
    """What evaluates ``e``, at a site that wants a ``kind`` (``BoolExpr`` or
    ``NumExpr``), on the states of ``partial``: the interpreter, ``_holds``
    for a condition and ``_eval_num`` for a number, on fewer than
    ``_COMPILE_AT`` states or without a run's cache ``compiled``, else ``e``
    compiled, once per run.  Raises ``TypeError`` when ``e`` is no ``kind``:
    its node alone cannot tell what the site wants."""
    if not isinstance(e, kind):
        raise TypeError(f"not a {kind.__name__}: {e!r}")
    interpreted = _holds if kind is BoolExpr else _eval_num
    if compiled is None or len(partial.entries) < _COMPILE_AT:
        return interpreted
    fn = compiled.get(id(e))
    if fn is None:
        fn = compiled[id(e)] = _compile(e, partial.slots, compiled) or interpreted
    return fn


def _compile(e, slots: dict, compiled: dict):
    """``e`` as a Python function of ``(sigma, partial, e)`` on states laid
    out by ``slots``, or None, to stay interpreted, for a tree too deep for
    CPython to compile.  The source holds only operators, slot indices and
    the names of constants: values, names, positions and nodes are looked up
    in its namespace.  ``+`` and the comparisons apply as in ``_eval_num`` and
    ``_holds``; every other operator calls their helpers."""
    space = {"_index": _index, "_rank": _rank, "compiled": compiled}
    space["_none"] = _NO_ELEMENTS
    elements = []  # a read of an array element sets up ``get``

    def const(value):
        name = f"c{len(space)}"
        space[name] = value
        return name

    def code(e, kind):
        if not isinstance(e, kind):
            raise TypeError  # a node the interpreter rejects
        t = type(e)
        if t is BinOp or t is Cmp:
            left, right = code(e.left, NumExpr), code(e.right, NumExpr)
            if t is Cmp:
                op = "==" if e.op == "==" else "<" if e.op == "<" else "<="
                return f"({left} {op} {right})"
            if e.op == "+":
                return f"({left} + {right})"
            return f"{const(_BINOPS[e.op])}({left}, {right}, {const(e.pos)})"
        if t is Var:
            if not e.indices:
                slot = slots.get(e.name)
                return "0" if slot is None else f"sigma[{slot}]"
            elements.append(e)
            at = const(e.pos)
            ix = [f"_index({code(i, NumExpr)}, {at}), " for i in e.indices]
            return f"get(({const(e.name)}, ({''.join(ix)})), 0)"
        if t is IntLit:
            return const(e.value)
        if t is RankOf:
            return f"_rank(partial, {const(e)}, compiled)"
        if t is Not:
            return f"(not {code(e.operand, BoolExpr)})"
        if t is And or t is Or:
            left, right = code(e.left, BoolExpr), code(e.right, BoolExpr)
            return f"({left} {'and' if t is And else 'or'} {right})"
        raise TypeError

    try:
        body = code(e, BoolExpr if isinstance(e, BoolExpr) else NumExpr)
        head = " get = (sigma[-1] or _none)._map.get\n" if elements else ""
        exec(f"def f(sigma, partial, e):\n{head} return {body}", space)
    except (TypeError, KeyError, RecursionError, SyntaxError):
        # an ill-typed node or operator, or too deep to recurse or to parse
        return None
    return space["f"]


# -- budget-limited denotation -------------------------------------------------


def _normalized(entries: dict, bound, slots: dict) -> _Partial:
    """Shift ``entries`` and ``bound`` down to rank 0.  With no entry, an
    infinite bound proves failure; states may hide above a finite one."""
    if not entries:
        if bound is INF:
            return _Partial({}, INF, slots)
        raise _InsufficientBudget
    low = min(entries.values())
    if low == 0:
        return _Partial(entries, bound, slots)
    shifted = {sigma: rank - low for sigma, rank in entries.items()}
    return _Partial(shifted, bound - low, slots)


def _merge(contributions, p: _Partial, ctx: _Round) -> _Partial:
    """Combine branch contributions to a step on ``p``: pointwise minimum,
    then drop what lies above the bound or the budget, then renormalize both
    the entries and the bound."""
    merged: dict[tuple, int] = {}
    bound = p.bound
    for entries, contrib_bound in contributions:
        if contrib_bound < bound:
            bound = contrib_bound
        if not merged:
            merged.update(entries)
            continue
        for state, rank in entries.items():
            current = merged.get(state)
            if current is None or rank < current:
                merged[state] = rank
    cap = ctx.budget if bound is INF else min(bound, ctx.budget)
    if cap is not INF:
        # entries above the bound may yet be undercut by pruned alternatives;
        # pruning one above the budget caps the bound at the budget
        for state in [s for s, r in merged.items() if r > cap]:
            rank = merged.pop(state)
            if rank > ctx.budget:
                ctx.note_pruned(rank)
                bound = cap
    return _normalized(merged, bound, p.slots)


def _run_slice(run, part: dict, offset: int, p: _Partial, pos, ctx: _Round) -> tuple:
    """One contribution to a merge: ``run`` a branch body (``run(sub, ctx)``
    returns its posterior) on ``part``, a non-empty slice of ``p``'s entries
    renormalized to start at rank 0, and lift the result back to the
    slice's least rank plus ``offset``.  A slice starts above the budget
    when it is a choice's penalized alternative, or when the prior of a
    bounded ``denote`` ranks states above the budget."""
    shift = min(part.values())
    lift = shift + offset
    if lift > ctx.budget:
        # the whole slice starts above the budget: prune it unrun, but
        # remember that nothing below the budget is missing
        ctx.note_pruned(lift)
        return {}, ctx.budget
    if shift:
        part = {sigma: rank - shift for sigma, rank in part.items()}
    result = run(_Partial(part, p.bound - shift, p.slots), ctx)
    entries = result.entries
    if lift:
        if entries and max(entries.values()) + lift >= RANK_LIMIT:
            raise EvalError("undefined-infinity-arith", pos, "rank overflow")
        entries = {sigma: rank + lift for sigma, rank in entries.items()}
    return entries, result.bound + lift


def _split(p: _Partial, key, constant: bool) -> dict:
    """The entries of ``p`` grouped by ``key(sigma)``, each group a dict of
    states to ranks, keyed in the order their first states arrive.  A
    ``constant`` key, one that reads no state, is computed on the first state
    alone, and all of ``p`` forms its group."""
    entries = p.entries
    if constant:
        return {key(next(iter(entries))): entries}
    groups: dict = {}
    for sigma, rank in entries.items():
        k = key(sigma)
        try:
            groups[k][sigma] = rank
        except KeyError:
            groups[k] = {sigma: rank}
    return groups


def _branch(test, then_run, else_run, p: _Partial, pos, ctx: _Round, constant: bool):
    """One conditional step: split ``p`` on ``test``, run ``then_run`` on the
    side that passes and ``else_run`` on the side that fails, and merge."""
    sides = _split(p, test, constant)
    contributions = []
    for side, run in (True, then_run), (False, else_run):
        if side in sides:
            contributions.append(_run_slice(run, sides[side], 0, p, pos, ctx))
    return _merge(contributions, p, ctx)


def _choice(
    left: _Partial, offset, run, p: _Partial, pos, ctx: _Round, constant: bool
) -> _Partial:
    """A ranked choice on ``p``: merge ``left``, the first alternative's
    posterior, with ``run`` on each group of ``p``'s states that share a
    penalty ``offset(sigma)``, in ascending order of the penalty; the group
    whose penalty is infinite takes no second alternative.  The penalty is
    checked as each state meets it, so the first state with a negative or
    overflowing one raises."""

    def penalty(sigma):
        k = offset(sigma)
        if k is INF:
            return k
        if k < 0:
            raise EvalError("negative-choice-rank", pos, f"rank {k}")
        if k >= RANK_LIMIT:
            raise EvalError("undefined-infinity-arith", pos, f"rank {k} out of range")
        return k

    groups = _split(p, penalty, constant)
    groups.pop(INF, None)
    contributions = [(left.entries, left.bound)]
    for k in sorted(groups):
        contributions.append(_run_slice(run, groups[k], k, p, pos, ctx))
    return _merge(contributions, p, ctx)


# -- graded observations -------------------------------------------------------


def _observe_graded(s, p: _Partial, ctx: _Round) -> _Partial:
    """observeJ(n, b) or observeL(n, b) on ``p``, as the steps of its
    lowering (``syntax.expand_observe_j``/``expand_observe_l``) in their
    order, so the slices, rounds, errors and their positions are the
    lowering's.  ``p`` is split once on the condition, and that split serves
    the precondition (b and !b both have finite rank), rank(b), and every
    revision step whose slice is ``p`` itself.  A later slice is split on
    membership in b's side of ``p``, or tested afresh when the condition
    reads rank(), as it then reads the ranking it is tested against."""
    if not isinstance(s.strength, NumExpr):
        raise TypeError(f"not a NumExpr: {s.strength!r}")
    holds = _evaluator(s.cond, BoolExpr, p, ctx.compiled)
    sides = _split(p, lambda sigma: holds(sigma, p, s.cond), False)
    if len(sides) < 2:
        if p.bound is INF:
            raise EvalError(
                "j-or-l-precondition",
                s.pos,
                "condition and its negation must both have finite rank",
            )
        raise _InsufficientBudget
    true_side = sides[True]
    reads_rank = _reads(s.cond, ctx)[1]
    constant = _constant(s.strength, p, ctx)

    def split(q):
        """The entries of ``q``, ``p`` or a slice, keyed on whether the
        condition holds."""
        if q is p:
            return sides
        if not reads_rank:
            return _split(q, true_side.__contains__, False)
        test = _evaluator(s.cond, BoolExpr, q, ctx.compiled)
        return _split(q, lambda sigma: test(sigma, q, s.cond), False)

    def revise(holds, q, ctx):
        """``either { observe c } or (k) { observe !c }`` on ``q``, where c is
        the condition (``holds``) or its negation; k reads n against ``q``."""
        q_sides = split(q)
        kept, rest = q_sides.get(holds, {}), q_sides.get(not holds, {})
        left = _normalized(kept, q.bound, q.slots)
        # rank(c) and rank(!c) in q: None where no state of the event is
        # visible and one may hide above q's finite bound
        unseen = INF if q.bound is INF else None
        rank_c = min(kept.values(), default=unseen)
        rank_not_c = min(rest.values(), default=unseen)
        if isinstance(s, ObserveJ):  # k = n
            offset = lambda sigma: _eval_num(sigma, q, s.strength)
        elif holds:  # where rank(b) <= n: k = n - rank(b) + rank(!b)
            def offset(sigma):
                diff = _minus(_eval_num(sigma, q, s.strength), rank_c, s.pos)
                if rank_not_c is None:
                    raise _InsufficientBudget
                return diff + rank_not_c
        else:  # where n < rank(b), with c = !b: k = rank(b) - n
            def offset(sigma):
                if rank_not_c is None:
                    raise _InsufficientBudget
                return _minus(rank_not_c, _eval_num(sigma, q, s.strength), s.pos)

        def observe_not_c(part, ctx):
            kept = split(part).get(not holds, {})
            return _normalized(kept, part.bound, part.slots)
        return _choice(left, offset, observe_not_c, q, s.pos, ctx, constant)

    if isinstance(s, ObserveJ):
        return revise(True, p, ctx)
    # if rank(b) <= n then { revise(b) } else { revise(!b) }
    rank_b = min(true_side.values())
    return _branch(
        lambda sigma: rank_b <= _eval_num(sigma, p, s.strength),
        functools.partial(revise, True),
        functools.partial(revise, False),
        p,
        s.pos,
        ctx,
        constant,
    )


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
            # any_of assigns every value of its range at the state's own
            # rank; a scalar fills its slot, an element goes to the last one
            entries: dict[tuple, int] = {}
            if isinstance(s, Assign):
                evaluate = _evaluator(s.value, NumExpr, p, ctx.compiled)
            slot = None if s.indices else p.slots[s.name]
            for sigma, rank in p.entries.items():
                if slot is None:
                    indices = _indices(sigma, p, s.indices, s.pos)
                    elements = sigma[-1] or _NO_ELEMENTS
                if isinstance(s, UniformPick):
                    values = range(s.lower, s.upper + 1)
                else:
                    values = (evaluate(sigma, p, s.value),)
                    if values[0] is INF:
                        raise EvalError(
                            "undefined-infinity-arith",
                            s.pos,
                            "cannot store inf in a variable",
                        )
                for value in values:
                    if slot is None:
                        image = elements.assign(s.name, indices, value)
                        image = sigma[:-1] + (image if image.items else None,)
                    else:
                        image = sigma[:slot] + (value,) + sigma[slot + 1 :]
                    current = entries.get(image)
                    if current is None or rank < current:
                        entries[image] = rank
            return _Partial(entries, p.bound, p.slots)

        if isinstance(s, Observe):
            holds = _evaluator(s.cond, BoolExpr, p, ctx.compiled)
            kept = {
                sigma: rank
                for sigma, rank in p.entries.items()
                if holds(sigma, p, s.cond)
            }
            return _normalized(kept, p.bound, p.slots)

        if isinstance(s, IfThenElse):
            holds = _evaluator(s.cond, BoolExpr, p, ctx.compiled)
            return _branch(
                lambda sigma: holds(sigma, p, s.cond),
                functools.partial(_denote, s.then_branch),
                functools.partial(_denote, s.else_branch),
                p,
                s.pos,
                ctx,
                constant=_constant(s.cond, p, ctx),
            )

        if isinstance(s, RankedChoice):
            evaluate = _evaluator(s.rank, NumExpr, p, ctx.compiled)
            return _choice(
                _denote(s.first, p, ctx),
                lambda sigma: evaluate(sigma, p, s.rank),
                functools.partial(_denote, s.second),
                p,
                s.pos,
                ctx,
                _constant(s.rank, p, ctx),
            )

        if isinstance(s, While):
            body = functools.partial(_denote, s.body)
            iteration = 0
            while True:
                iteration += 1
                holds = _evaluator(s.cond, BoolExpr, p, ctx.compiled)
                if iteration > ctx.iteration_limit:
                    def guard(sigma):
                        if holds(sigma, p, s.cond):
                            raise EvalError("iteration-limit", s.pos)
                        return False
                else:
                    guard = lambda sigma: holds(sigma, p, s.cond)
                sides = _split(p, guard, _constant(s.cond, p, ctx))
                if True not in sides:
                    # nothing visible satisfies the guard; hidden states churn
                    # strictly above the bound and never disturb what is below it
                    return p
                contributions = [_run_slice(body, sides[True], 0, p, s.pos, ctx)]
                if False in sides:
                    # the states that fail the guard leave the loop as they are
                    contributions.append((sides[False], p.bound))
                p = _merge(contributions, p, ctx)

        if isinstance(s, (ObserveJ, ObserveL)):
            return _observe_graded(s, p, ctx)

    except RecursionError:
        # an expression or a nesting of blocks deeper than Python's recursion
        # limit; the innermost statement that was running names the place
        raise EvalError("nested-too-deeply", s.pos) from None

    raise TypeError(f"not a statement: {s!r}")


# -- runs --------------------------------------------------------------------


def _start(program: Stmt, prior: dict):
    """The ranking each round of a run of ``program`` from ``prior``, a map
    of valuations to ranks, starts from."""
    slots = _layout(program, prior)
    states = {_state(sigma, slots): rank for sigma, rank in prior.items()}
    return _Partial(states, INF, slots)


def _proven(program: Stmt, prior: dict, opts: SearchOptions | None):
    """The rounds of a run of ``program`` from ``prior``, a map of valuations
    to ranks, under ``opts``, which nothing else applies: for each finished
    round, the ``(rank, items)`` pairs it newly proves, ``items`` as
    ``Valuation.items``, unordered unless sorted to cut them to the
    ``max_outcomes`` still wanted; no round runs once they are out."""
    opts = opts or SearchOptions()
    start = _start(program, prior)
    compiled, reads = {}, {}
    keys = [(name, ()) for name in start.slots]
    yielded = -1  # the outcomes ranked at or below this have been yielded
    wanted = opts.max_outcomes or INF  # how many more outcomes
    # with every outcome wanted, deepening would only replay the program;
    # one round at infinite budget prunes nothing and is the exact result
    unbounded = opts.max_rank is INF and wanted is INF
    budget = INF if unbounded else 0
    while True:
        ctx = _Round(budget, opts.max_while_iterations)
        ctx.compiled, ctx.reads = compiled, reads
        try:
            # no step changes the ranking it reads: every round reuses start
            result = _denote(program, start, ctx)
        except _InsufficientBudget:
            budget = ctx.next_budget()
            continue
        # a run yields nothing exactly when its result is the failure
        # ranking: entries never exceed their bound and every step keeps a
        # non-empty result's least rank at 0, so the first finished round
        # with an entry yields a rank-0 one; an empty one's bound is infinite
        trusted = min(result.bound, opts.max_rank)
        # entries at or below an earlier round's bound were yielded then and
        # are identical now, so fresh outcomes always rank above them; ranks
        # stay below RANK_LIMIT, and ints compare faster than INF
        top = RANK_LIMIT if trusted is INF else trusted
        fresh = [
            (rank, _items(state, keys))
            for state, rank in result.entries.items()
            if yielded < rank <= top
        ]
        if len(fresh) > wanted:
            fresh = sorted(fresh)[:wanted]
        wanted -= len(fresh)
        yield fresh
        if wanted == 0 or result.bound is INF or trusted >= opts.max_rank:
            return
        yielded = max(yielded, trusted)
        budget = ctx.next_budget()


def enumerate_outcomes(s: Stmt, opts: SearchOptions | None = None):
    """A generator of the program's outcomes, most-plausible-first.

    Yields every outcome of rank at most ``opts.max_rank`` exactly once, in
    nondecreasing rank order, and at most ``opts.max_outcomes`` of them, as
    ``_proven`` applies both limits; it matches ``run_program``'s result
    whenever that run ends without error.  It yields nothing exactly when
    the result is the failure ranking, whose support is empty: every other
    ranking holds a state at rank 0.  Raises :class:`EvalError` on a
    runtime error.

    With a finite ``max_rank`` or a ``max_outcomes`` the program runs
    repeatedly under a doubling rank budget and outcomes stream out as soon
    as they are proven, so a runtime error in a costlier alternative can
    follow some outcomes.  Without either limit the program runs once,
    exactly, and nothing is yielded before that run completes.
    """
    for fresh in _proven(s, {Valuation(): 0}, opts):
        for rank, items in sorted(fresh):
            yield Outcome(Valuation._from_sorted(items), rank)


def initial_ranking() -> Ranking:
    """The starting point of every program: all variables 0, surprise 0."""
    return _INITIAL


#: built once, as a ``Ranking`` is immutable; a run need not pay for it
_INITIAL = Ranking({Valuation(): 0})


def denote(s: Stmt, kappa: Ranking, opts: SearchOptions | None = None) -> Ranking:
    """Run one statement, sugar included, against a prior ranking.

    Without a ``max_rank`` or ``max_outcomes`` it runs once at infinite
    budget, where nothing is pruned, into the exact posterior; with either
    limit, which ``_proven`` applies, it holds what enumeration from
    ``kappa`` yields.  The failure ranking is a legal result; runtime errors
    raise :class:`EvalError`."""
    entries = {
        Valuation._from_sorted(items): rank
        for fresh in _proven(s, dict(kappa.items()), opts)
        for rank, items in fresh
    }
    return Ranking(entries) if entries else FAILURE


def run_program(s: Stmt, opts: SearchOptions | None = None) -> Ranking:
    """Run a whole program, as parsed, from the initial ranking."""
    return denote(s, initial_ranking(), opts)
