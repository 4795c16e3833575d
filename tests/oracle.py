"""Brute-force path semantics for core programs.

Independent of the library interpreter: works on plain weight dictionaries,
walking every choice alternative recursively.  Choice penalties add to a
path's weight, observation filters and re-levels the surviving weights, and
branch merges re-level at the end of their scope.  A loop unrolls into one
conditional step at a time until no state satisfies its guard.  Failure is
None.
"""

from rankpl.ranking import FAILURE, INF, Valuation, normalize
from rankpl.syntax import (
    And,
    Assign,
    BinOp,
    Cmp,
    IfThenElse,
    IntLit,
    Not,
    Observe,
    Or,
    RankedChoice,
    RankOf,
    Seq,
    Skip,
    Var,
    While,
    desugar,
)

MAX_UNROLL = 10000


def o_num(sigma, states, e):
    if isinstance(e, IntLit):
        return e.value
    if isinstance(e, Var):
        idx = tuple(o_num(sigma, states, i) for i in e.indices)
        return sigma.get(e.name, idx)
    if isinstance(e, RankOf):
        weights = [w for s, w in states.items() if o_holds(s, states, e.cond)]
        return min(weights) if weights else INF
    if isinstance(e, BinOp):
        a = o_num(sigma, states, e.left)
        b = o_num(sigma, states, e.right)
        if e.op == "+":
            return INF if (a is INF or b is INF) else a + b
        if e.op == "-":
            if a is INF and b is not INF:
                return INF
            assert a is not INF and b is not INF, "oracle: undefined inf arithmetic"
            return a - b
        assert a is not INF and b is not INF, "oracle: undefined inf arithmetic"
        if e.op == "*":
            return a * b
        if e.op == "xor":
            return a ^ b
        if e.op == "band":
            return a & b
        if e.op == "bor":
            return a | b
        raise AssertionError(f"oracle: unsupported operator {e.op}")
    raise AssertionError(f"oracle: unsupported expression {e!r}")


def o_holds(sigma, states, b):
    if isinstance(b, Not):
        return not o_holds(sigma, states, b.operand)
    if isinstance(b, Or):
        return o_holds(sigma, states, b.left) or o_holds(sigma, states, b.right)
    if isinstance(b, And):
        return o_holds(sigma, states, b.left) and o_holds(sigma, states, b.right)
    if isinstance(b, Cmp):
        a = o_num(sigma, states, b.left)
        c = o_num(sigma, states, b.right)
        if b.op == "==":
            return a is c if (a is INF or c is INF) else a == c
        if b.op == "<":
            return (a is not INF) if c is INF else (a is not INF and a < c)
        if b.op == "<=":
            return not o_holds(sigma, states, Cmp("<", b.right, b.left))
    raise AssertionError(f"oracle: unsupported condition {b!r}")


def _relevel(states):
    low = min(states.values())
    return {s: w - low for s, w in states.items()}


def walk(stmt, states):
    if states is None:
        return None
    if isinstance(stmt, Skip):
        return states
    if isinstance(stmt, Seq):
        return walk(stmt.second, walk(stmt.first, states))
    if isinstance(stmt, Assign):
        out = {}
        for sigma, weight in states.items():
            idx = tuple(o_num(sigma, states, i) for i in stmt.indices)
            value = o_num(sigma, states, stmt.value)
            assert value is not INF, "oracle: storing inf"
            image = sigma.assign(stmt.name, idx, value)
            if image not in out or weight < out[image]:
                out[image] = weight
        return out
    if isinstance(stmt, Observe):
        kept = {s: w for s, w in states.items() if o_holds(s, states, stmt.cond)}
        return _relevel(kept) if kept else None
    if isinstance(stmt, IfThenElse):
        yes = {s: w for s, w in states.items() if o_holds(s, states, stmt.cond)}
        no = {s: w for s, w in states.items() if s not in yes}
        merged = {}
        for side, branch in ((yes, stmt.then_branch), (no, stmt.else_branch)):
            if not side:
                continue
            base = min(side.values())
            result = walk(branch, _relevel(side))
            if result is None:
                continue
            for sigma, weight in result.items():
                total = weight + base
                if sigma not in merged or total < merged[sigma]:
                    merged[sigma] = total
        return _relevel(merged) if merged else None
    if isinstance(stmt, RankedChoice):
        merged = walk(stmt.first, states)
        merged = dict(merged) if merged is not None else {}
        groups = {}
        for sigma, weight in states.items():
            penalty = o_num(sigma, states, stmt.rank)
            if penalty is INF:
                continue
            assert penalty >= 0, "oracle: negative choice rank"
            groups.setdefault(penalty, {})[sigma] = weight
        for penalty, part in groups.items():
            base = min(part.values())
            result = walk(stmt.second, _relevel(part))
            if result is None:
                continue
            for sigma, weight in result.items():
                total = weight + base + penalty
                if sigma not in merged or total < merged[sigma]:
                    merged[sigma] = total
        return _relevel(merged) if merged else None
    if isinstance(stmt, While):
        step = IfThenElse(stmt.cond, stmt.body, Skip())
        steps = 0
        while states is not None and any(o_holds(s, states, stmt.cond) for s in states):
            steps += 1
            assert steps <= MAX_UNROLL, f"oracle: loop ran past {MAX_UNROLL} steps"
            states = walk(step, states)
        return states
    raise AssertionError(f"oracle: unsupported statement {stmt!r}")


def oracle_run(stmt):
    """Weights of every reachable final state, or None when all paths die."""
    return walk(stmt, {Valuation(): 0})


def oracle_ranking(stmt):
    """The oracle's result for a program with sugar, as a normalized ranking:
    the failure ranking when all paths die."""
    weights = oracle_run(desugar(stmt))
    return FAILURE if weights is None else normalize(weights)
