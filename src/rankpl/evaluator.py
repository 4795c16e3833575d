"""Reference semantics: statements as transformations of rankings.

Every statement maps a prior ranking over program states to a posterior one.
Ranked choice merges a normal branch with a penalized one, observation
conditions the ranking, and a conditional runs each branch on the matching
slice before recombining at the prior ranks.  All arithmetic is exact; the
failure ranking is a legal result, while errors (division by zero, undefined
infinity arithmetic, runaway loops) abort the run.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ranking import (
    FAILURE,
    INF,
    RANK_LIMIT,
    Ranking,
    Valuation,
    normalize,
)
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

ERROR_KINDS = (
    "division-by-zero",
    "undefined-infinity-arith",
    "negative-choice-rank",
    "non-boolean-bit-op",
    "iteration-limit",
    "j-or-l-precondition",
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


@dataclass
class EvalConfig:
    max_while_iterations: int = 10000

    def __post_init__(self):
        if self.max_while_iterations <= 0:
            raise ValueError("max_while_iterations must be positive")


def initial_ranking() -> Ranking:
    """The starting point of every program: all variables 0, surprise 0."""
    return Ranking({Valuation(): 0})


# -- expressions --------------------------------------------------------------


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
    """Value arithmetic: integers plus an absorbing infinity where defined."""
    if op == "+":
        if a is INF or b is INF:
            return INF
        return a + b
    if op == "-":
        if b is INF:
            raise EvalError("undefined-infinity-arith", pos, "subtracting inf")
        if a is INF:
            return INF
        return a - b
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


def eval_num(sigma: Valuation, kappa: Ranking, e: NumExpr):
    """Evaluate a numeric expression to an integer or INF."""
    if isinstance(e, IntLit):
        return e.value
    if isinstance(e, Var):
        return sigma.get(e.name, _eval_indices(sigma, kappa, e.indices, e.pos))
    if isinstance(e, RankOf):
        # the value depends on kappa alone, so scan kappa once per node
        return kappa.derived(e, lambda: rank_of_cond(kappa, e.cond))
    if isinstance(e, BinOp):
        left = eval_num(sigma, kappa, e.left)
        right = eval_num(sigma, kappa, e.right)
        return _apply_binop(e.op, left, right, e.pos)
    raise TypeError(f"not a numeric expression: {e!r}")


def _eval_indices(sigma, kappa, indices, pos) -> tuple:
    out = []
    for ix in indices:
        value = eval_num(sigma, kappa, ix)
        if value is INF:
            raise EvalError("undefined-infinity-arith", pos, "inf as array index")
        out.append(value)
    return tuple(out)


def _compare(op: str, a, b) -> bool:
    # comparisons are total, including on INF
    if op == "==":
        return a is b if (a is INF or b is INF) else a == b
    if op == "<":
        return a < b if b is not INF else a is not INF
    if op == "<=":
        return not _compare("<", b, a)
    raise AssertionError(f"unknown comparison {op!r}")


def _holds(sigma: Valuation, kappa: Ranking, b: BoolExpr) -> bool:
    if isinstance(b, Not):
        return not _holds(sigma, kappa, b.operand)
    if isinstance(b, Or):
        return _holds(sigma, kappa, b.left) or _holds(sigma, kappa, b.right)
    if isinstance(b, And):
        return _holds(sigma, kappa, b.left) and _holds(sigma, kappa, b.right)
    if isinstance(b, Cmp):
        return _compare(
            b.op, eval_num(sigma, kappa, b.left), eval_num(sigma, kappa, b.right)
        )
    raise TypeError(f"not a boolean expression: {b!r}")


def eval_bool(kappa: Ranking, b: BoolExpr) -> frozenset:
    """The event denoted by a boolean expression: the satisfying slice of the
    support.  Negations complement relative to the support."""
    return frozenset(s for s in kappa.support() if _holds(s, kappa, b))


def rank_of_cond(kappa: Ranking, b: BoolExpr):
    least = INF
    for sigma, rank in kappa.items():
        if rank < least and _holds(sigma, kappa, b):
            least = rank
    return least


# -- statements ---------------------------------------------------------------


def _as_choice_rank(value, pos):
    if value < 0:
        raise EvalError("negative-choice-rank", pos, f"rank {value}")
    if value >= RANK_LIMIT:
        raise EvalError("undefined-infinity-arith", pos, f"rank {value} out of range")
    return value


def _checked_entry(rank: int, pos) -> int:
    if rank >= RANK_LIMIT:
        raise EvalError("undefined-infinity-arith", pos, "rank overflow")
    return rank


def denote(s: Stmt, kappa: Ranking, cfg: EvalConfig | None = None) -> Ranking:
    """Run one (desugared) statement against a prior ranking."""
    cfg = cfg or EvalConfig()
    if kappa.is_failure:
        # failure in, failure out: expressions are never evaluated
        return FAILURE

    if isinstance(s, Skip):
        return kappa

    if isinstance(s, Seq):
        return denote(s.second, denote(s.first, kappa, cfg), cfg)

    if isinstance(s, Assign):
        entries: dict[Valuation, int] = {}
        for sigma, rank in kappa.items():
            indices = _eval_indices(sigma, kappa, s.indices, s.pos)
            value = eval_num(sigma, kappa, s.value)
            if value is INF:
                raise EvalError(
                    "undefined-infinity-arith", s.pos, "cannot store inf in a variable"
                )
            image = sigma.assign(s.name, indices, value)
            current = entries.get(image)
            if current is None or rank < current:
                entries[image] = rank
        return Ranking(entries)

    if isinstance(s, IfThenElse):
        sats = eval_bool(kappa, s.cond)
        merged: dict[Valuation, int] = {}
        for wanted, branch in ((True, s.then_branch), (False, s.else_branch)):
            side = {v: r for v, r in kappa.items() if (v in sats) == wanted}
            if not side:
                continue
            shift = min(side.values())
            result = denote(branch, Ranking({v: r - shift for v, r in side.items()}), cfg)
            for sigma, rank in result.items():
                candidate = _checked_entry(rank + shift, s.pos)
                current = merged.get(sigma)
                if current is None or candidate < current:
                    merged[sigma] = candidate
        return normalize(merged)

    if isinstance(s, RankedChoice):
        left = denote(s.first, kappa, cfg)
        merged = {} if left.is_failure else left.as_dict()
        groups: dict[int, dict[Valuation, int]] = {}
        for sigma, rank in kappa.items():
            offset = eval_num(sigma, kappa, s.rank)
            if offset is INF:
                continue
            groups.setdefault(_as_choice_rank(offset, s.pos), {})[sigma] = rank
        for offset, part in sorted(groups.items()):
            shift = min(part.values())
            result = denote(
                s.second, Ranking({v: r - shift for v, r in part.items()}), cfg
            )
            for sigma, rank in result.items():
                candidate = _checked_entry(rank + shift + offset, s.pos)
                current = merged.get(sigma)
                if current is None or candidate < current:
                    merged[sigma] = candidate
        return normalize(merged)

    if isinstance(s, Observe):
        event = eval_bool(kappa, s.cond)
        kept = {v: r for v, r in kappa.items() if v in event}
        if not kept:
            return FAILURE
        shift = min(kept.values())
        return Ranking({v: r - shift for v, r in kept.items()})

    if isinstance(s, While):
        step = IfThenElse(s.cond, s.body, Skip(pos=s.pos), pos=s.pos)
        current = kappa
        iterations = 0
        while not current.is_failure and eval_bool(current, s.cond):
            iterations += 1
            if iterations > cfg.max_while_iterations:
                raise EvalError("iteration-limit", s.pos)
            current = denote(step, current, cfg)
        return current

    if isinstance(s, (ObserveJ, ObserveL)):
        _check_observe_form(s, kappa)
        if isinstance(s, ObserveJ):
            return denote(expand_observe_j(s.strength, s.cond, pos=s.pos), kappa, cfg)
        return denote(expand_observe_l(s.strength, s.cond, pos=s.pos), kappa, cfg)

    # leftover sugar: lower it on the fly
    lowered = desugar(s, keep_observe_forms=True)
    if type(lowered) is type(s):
        raise TypeError(f"not a statement: {s!r}")
    return denote(lowered, kappa, cfg)


def _check_observe_form(s, kappa: Ranking):
    """observeJ/observeL need both the condition and its negation possible."""
    sats = eval_bool(kappa, s.cond)
    if not sats or len(sats) == len(kappa):
        raise EvalError(
            "j-or-l-precondition",
            s.pos,
            "condition and its negation must both have finite rank",
        )


def run_program(s: Stmt, cfg: EvalConfig | None = None) -> Ranking:
    """Desugar and run a whole program from the initial ranking.

    observeJ/observeL keep their statement form so their definedness is
    checked against the ranking they run on.
    """
    return denote(desugar(s, keep_observe_forms=True), initial_ranking(), cfg)
