"""Abstract syntax for RankPL programs, desugaring and pretty-printing.

Statements come in seven core forms (skip, sequence, assignment, conditional,
loop, ranked choice, observation) plus the sugar nodes ``any_of`` and
``observeJ``/``observeL``.  The parser builds ``if b then { s }`` and
``x := e1 or(e) e2`` as the core statements they abbreviate.  The interpreter
runs the sugar as it comes; :func:`desugar` is the reference lowering onto
the core forms.  Nodes are slotted dataclasses, cheap to build, that the
library never mutates once built; source positions ride along for error
reporting but take part in neither equality nor hashing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from .ranking import INF, _Infinity

Pos = "tuple[int, int]"


class DesugarError(ValueError):
    """A sugar node that has no meaning, such as an empty ``any_of`` range."""


# -- expressions --------------------------------------------------------------


class NumExpr:
    __slots__ = ()


class BoolExpr:
    __slots__ = ()


@dataclass(slots=True, unsafe_hash=True)
class IntLit(NumExpr):
    value: "int | _Infinity"
    pos: Pos = field(default=None, compare=False)


@dataclass(slots=True, unsafe_hash=True)
class Var(NumExpr):
    name: str
    indices: tuple = ()
    pos: Pos = field(default=None, compare=False)


@dataclass(slots=True, unsafe_hash=True)
class RankOf(NumExpr):
    cond: BoolExpr
    pos: Pos = field(default=None, compare=False)


@dataclass(slots=True, unsafe_hash=True)
class BinOp(NumExpr):
    op: str
    left: NumExpr
    right: NumExpr
    pos: Pos = field(default=None, compare=False)


@dataclass(slots=True, unsafe_hash=True)
class Not(BoolExpr):
    operand: BoolExpr
    pos: Pos = field(default=None, compare=False)


@dataclass(slots=True, unsafe_hash=True)
class Or(BoolExpr):
    left: BoolExpr
    right: BoolExpr
    pos: Pos = field(default=None, compare=False)


@dataclass(slots=True, unsafe_hash=True)
class And(BoolExpr):
    left: BoolExpr
    right: BoolExpr
    pos: Pos = field(default=None, compare=False)


@dataclass(slots=True, unsafe_hash=True)
class Cmp(BoolExpr):
    op: str
    left: NumExpr
    right: NumExpr
    pos: Pos = field(default=None, compare=False)


# -- statements ---------------------------------------------------------------


class Stmt:
    __slots__ = ()


@dataclass(slots=True, unsafe_hash=True)
class Skip(Stmt):
    pos: Pos = field(default=None, compare=False)


@dataclass(slots=True, unsafe_hash=True)
class Seq(Stmt):
    first: Stmt
    second: Stmt
    pos: Pos = field(default=None, compare=False)


@dataclass(slots=True, unsafe_hash=True)
class Assign(Stmt):
    name: str
    indices: tuple
    value: NumExpr
    pos: Pos = field(default=None, compare=False)


@dataclass(slots=True, unsafe_hash=True)
class IfThenElse(Stmt):
    cond: BoolExpr
    then_branch: Stmt
    else_branch: Stmt
    pos: Pos = field(default=None, compare=False)


@dataclass(slots=True, unsafe_hash=True)
class While(Stmt):
    cond: BoolExpr
    body: Stmt
    pos: Pos = field(default=None, compare=False)


@dataclass(slots=True, unsafe_hash=True)
class RankedChoice(Stmt):
    first: Stmt
    rank: NumExpr
    second: Stmt
    pos: Pos = field(default=None, compare=False)


@dataclass(slots=True, unsafe_hash=True)
class Observe(Stmt):
    cond: BoolExpr
    pos: Pos = field(default=None, compare=False)


# sugar


@dataclass(slots=True, unsafe_hash=True)
class UniformPick(Stmt):
    """``x := any_of(lo .. hi)``: a rank-0 draw from an integer interval."""

    name: str
    indices: tuple
    lower: int
    upper: int
    pos: Pos = field(default=None, compare=False)

    def __post_init__(self):
        if self.lower > self.upper:
            raise DesugarError(f"empty range in any_of({self.lower} .. {self.upper})")


@dataclass(slots=True, unsafe_hash=True)
class ObserveJ(Stmt):
    """Observe with firmness: afterwards the condition is believed exactly
    that firmly instead of irrevocably."""

    strength: NumExpr
    cond: BoolExpr
    pos: Pos = field(default=None, compare=False)


@dataclass(slots=True, unsafe_hash=True)
class ObserveL(Stmt):
    """Observe with impact: the condition improves by the given number of
    ranks relative to its negation, reversibly."""

    strength: NumExpr
    cond: BoolExpr
    pos: Pos = field(default=None, compare=False)


def statements(s: Stmt):
    """Yield the statements that any nesting of ``Seq`` in ``s`` runs, in
    order, without recursion; a statement that is no ``Seq`` yields itself."""
    pending = [s]
    while pending:
        s = pending.pop()
        if isinstance(s, Seq):
            pending.append(s.second)
            pending.append(s.first)
        else:
            yield s


def sequence(stmts) -> Stmt:
    """The right-nested ``Seq`` that runs the non-empty list ``stmts`` in
    order, each node at its first statement's position: the reverse of
    :func:`statements`, and the shape the parser builds."""
    result = stmts[-1]
    for stmt in reversed(stmts[:-1]):
        result = Seq(stmt, result, pos=stmt.pos)
    return result


# -- expansions ---------------------------------------------------------------


def expand_observe_j(strength: NumExpr, cond: BoolExpr, pos: Pos = None) -> Stmt:
    """Lower an observe-with-firmness into core constructs: a ranked choice
    between observing the condition and observing its negation."""
    return RankedChoice(
        Observe(cond, pos=pos),
        strength,
        Observe(Not(cond, pos=pos), pos=pos),
        pos=pos,
    )


def expand_observe_l(strength: NumExpr, cond: BoolExpr, pos: Pos = None) -> Stmt:
    """Lower an observe-with-impact into core constructs plus rank
    expressions.

    When the condition is no more surprising than the requested impact, the
    evidence is taken at face value and its negation kept around at a rank
    that preserves relative standing; otherwise the roles flip.
    """
    rank_b = RankOf(cond, pos=pos)
    rank_not_b = RankOf(Not(cond, pos=pos), pos=pos)
    taken = RankedChoice(
        Observe(cond, pos=pos),
        BinOp("+", BinOp("-", strength, rank_b, pos=pos), rank_not_b, pos=pos),
        Observe(Not(cond, pos=pos), pos=pos),
        pos=pos,
    )
    flipped = RankedChoice(
        Observe(Not(cond, pos=pos), pos=pos),
        BinOp("-", rank_b, strength, pos=pos),
        Observe(cond, pos=pos),
        pos=pos,
    )
    return IfThenElse(Cmp("<=", rank_b, strength, pos=pos), taken, flipped, pos=pos)


# -- desugaring ---------------------------------------------------------------


def desugar_num(e: NumExpr) -> NumExpr:
    if isinstance(e, IntLit):
        return e
    if isinstance(e, Var):
        if not e.indices:
            return e
        return Var(e.name, tuple(desugar_num(i) for i in e.indices), pos=e.pos)
    if isinstance(e, RankOf):
        return RankOf(desugar_bool(e.cond), pos=e.pos)
    if isinstance(e, BinOp):
        return BinOp(e.op, desugar_num(e.left), desugar_num(e.right), pos=e.pos)
    raise TypeError(f"not a numeric expression: {e!r}")


def desugar_bool(b: BoolExpr) -> BoolExpr:
    if isinstance(b, Not):
        return Not(desugar_bool(b.operand), pos=b.pos)
    if isinstance(b, Or):
        return Or(desugar_bool(b.left), desugar_bool(b.right), pos=b.pos)
    if isinstance(b, And):
        # conjunction is defined through disjunction and negation
        return Not(
            Or(
                Not(desugar_bool(b.left), pos=b.pos),
                Not(desugar_bool(b.right), pos=b.pos),
                pos=b.pos,
            ),
            pos=b.pos,
        )
    if isinstance(b, Cmp):
        left, right = desugar_num(b.left), desugar_num(b.right)
        if b.op == "<=":
            return Not(Cmp("<", right, left, pos=b.pos), pos=b.pos)
        return Cmp(b.op, left, right, pos=b.pos)
    raise TypeError(f"not a boolean expression: {b!r}")


def desugar(s: Stmt) -> Stmt:
    """Lower a statement onto the core constructors.

    This is the reference lowering: the interpreter runs sugar directly, and
    the lowered tree has the same meaning except that observeJ/observeL lose
    their check that the condition and its negation both have finite rank.
    Sequences come out in the parser's right-nested shape (composition is
    associative, so this is meaning-preserving), however they were nested.
    """
    if isinstance(s, Seq):
        return sequence([desugar(stmt) for stmt in statements(s)])
    if isinstance(s, Skip):
        return s
    if isinstance(s, Assign):
        return Assign(
            s.name,
            tuple(desugar_num(i) for i in s.indices),
            desugar_num(s.value),
            pos=s.pos,
        )
    if isinstance(s, IfThenElse):
        return IfThenElse(
            desugar_bool(s.cond),
            desugar(s.then_branch),
            desugar(s.else_branch),
            pos=s.pos,
        )
    if isinstance(s, While):
        return While(
            desugar_bool(s.cond),
            desugar(s.body),
            pos=s.pos,
        )
    if isinstance(s, RankedChoice):
        return RankedChoice(
            desugar(s.first),
            desugar_num(s.rank),
            desugar(s.second),
            pos=s.pos,
        )
    if isinstance(s, Observe):
        return Observe(desugar_bool(s.cond), pos=s.pos)
    if isinstance(s, UniformPick):
        # a right-nested chain of rank-0 choices, built from core nodes
        indices = tuple(desugar_num(i) for i in s.indices)
        picks = Assign(s.name, indices, IntLit(s.upper, pos=s.pos), pos=s.pos)
        for n in range(s.upper - 1, s.lower - 1, -1):
            picks = RankedChoice(
                Assign(s.name, indices, IntLit(n, pos=s.pos), pos=s.pos),
                IntLit(0, pos=s.pos),
                picks,
                pos=s.pos,
            )
        return picks
    if isinstance(s, ObserveJ):
        return desugar(expand_observe_j(s.strength, s.cond, pos=s.pos))
    if isinstance(s, ObserveL):
        return desugar(expand_observe_l(s.strength, s.cond, pos=s.pos))
    raise TypeError(f"not a statement: {s!r}")


# -- pretty-printing ----------------------------------------------------------


def _pp_num(e: NumExpr) -> str:
    if isinstance(e, IntLit):
        if e.value is INF:
            return "inf"
        if e.value < 0:
            # integer tokens are non-negative; negative literals only enter
            # trees programmatically and print as a subtraction
            return f"(0 - {-e.value})"
        return str(e.value)
    if isinstance(e, Var):
        return e.name + "".join(f"[{_pp_num(i)}]" for i in e.indices)
    if isinstance(e, RankOf):
        return f"rank({_pp_bool(e.cond)})"
    if isinstance(e, BinOp):
        return f"({_pp_num(e.left)} {e.op} {_pp_num(e.right)})"
    raise TypeError(f"not a numeric expression: {e!r}")


def _pp_bool(b: BoolExpr) -> str:
    if isinstance(b, Not):
        return f"!({_pp_bool(b.operand)})"
    if isinstance(b, Or):
        return f"({_pp_bool(b.left)} || {_pp_bool(b.right)})"
    if isinstance(b, And):
        return f"({_pp_bool(b.left)} && {_pp_bool(b.right)})"
    if isinstance(b, Cmp):
        return f"{_pp_num(b.left)} {b.op} {_pp_num(b.right)}"
    raise TypeError(f"not a boolean expression: {b!r}")


def _lvalue(name: str, indices: tuple) -> str:
    return name + "".join(f"[{_pp_num(i)}]" for i in indices)


def pretty_print(s: Stmt) -> str:
    """Emit concrete syntax; parsing it back reproduces the tree, up to the
    nesting of sequences, which the parser builds right-nested.

    Only the sugar nodes ``any_of`` and ``observeJ``/``observeL`` print as
    sugar; ``if … then`` and ``x := e1 or(e) e2`` are core trees by then and
    print in their core form.  Negative integer literals, which the concrete
    syntax cannot express, print as ``(0 - n)``, which parses to the
    equivalent subtraction.
    """
    return "; ".join(_pp_stmt(stmt) for stmt in statements(s))


def _pp_stmt(s: Stmt) -> str:
    if isinstance(s, Skip):
        return "skip"
    if isinstance(s, Assign):
        return f"{_lvalue(s.name, s.indices)} := {_pp_num(s.value)}"
    if isinstance(s, IfThenElse):
        return (
            f"if {_pp_bool(s.cond)} then {{ {pretty_print(s.then_branch)} }}"
            f" else {{ {pretty_print(s.else_branch)} }}"
        )
    if isinstance(s, While):
        return f"while {_pp_bool(s.cond)} do {{ {pretty_print(s.body)} }}"
    if isinstance(s, RankedChoice):
        return (
            f"either {{ {pretty_print(s.first)} }}"
            f" or ({_pp_num(s.rank)}) {{ {pretty_print(s.second)} }}"
        )
    if isinstance(s, Observe):
        return f"observe {_pp_bool(s.cond)}"
    if isinstance(s, UniformPick):
        return f"{_lvalue(s.name, s.indices)} := any_of({s.lower} .. {s.upper})"
    if isinstance(s, ObserveJ):
        return f"observeJ({_pp_num(s.strength)}, {_pp_bool(s.cond)})"
    if isinstance(s, ObserveL):
        return f"observeL({_pp_num(s.strength)}, {_pp_bool(s.cond)})"
    raise TypeError(f"not a statement: {s!r}")
