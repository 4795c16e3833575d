"""RankPL: a qualitative probabilistic programming language.

Programs denote ranking functions (degrees of surprise) over program states
instead of probability distributions.  The language offers ranked choice,
observation (conditioning) and generalized revision through observeJ /
observeL statements; the library exposes the ranking calculus directly.

Typical use::

    from rankpl import parse_program, run_program, marginalize

    program = parse_program("x := 1 or(1) 2; observe x > 1;")
    print(run_program(program))
"""

from .ranking import (
    FAILURE,
    INF,
    RANK_LIMIT,
    ConditioningError,
    Event,
    Rank,
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
from .syntax import (
    And,
    Assign,
    BinOp,
    BoolExpr,
    Cmp,
    DesugarError,
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
    pretty_print,
)
from .parser import ParseError, parse_program
from .engine import (
    EvalError,
    Outcome,
    SearchOptions,
    denote,
    enumerate_outcomes,
    initial_ranking,
    run_program,
)

__version__ = "0.1.0"

__all__ = [
    # ranking calculus
    "FAILURE",
    "INF",
    "RANK_LIMIT",
    "ConditioningError",
    "Event",
    "Rank",
    "RankArithmeticError",
    "Ranking",
    "Valuation",
    "as_rank",
    "condition",
    "firmness",
    "j_condition",
    "l_condition",
    "marginalize",
    "min_merge",
    "normalize",
    "rank_of",
    # syntax trees
    "And",
    "Assign",
    "BinOp",
    "BoolExpr",
    "Cmp",
    "DesugarError",
    "IfThenElse",
    "IntLit",
    "Not",
    "NumExpr",
    "Observe",
    "ObserveJ",
    "ObserveL",
    "Or",
    "RankedChoice",
    "RankOf",
    "Seq",
    "Skip",
    "Stmt",
    "UniformPick",
    "Var",
    "While",
    "pretty_print",
    # parsing
    "ParseError",
    "parse_program",
    # running programs
    "EvalError",
    "Outcome",
    "SearchOptions",
    "denote",
    "enumerate_outcomes",
    "initial_ranking",
    "run_program",
    "__version__",
]
