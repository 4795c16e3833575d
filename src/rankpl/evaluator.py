"""Exact runs of the statement interpreter.

``denote`` maps a prior ranking to a statement's posterior ranking, and
``run_program`` runs a whole program from the initial ranking.  Both run the
interpreter of :mod:`rankpl.engine` once at infinite budget, where it prunes
nothing, so the result is the exact semantics.  The failure ranking is a
legal result; runtime errors raise :class:`EvalError`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .engine import EvalError, _denote, _Partial, _Round
from .ranking import FAILURE, INF, Ranking, Valuation

# perfbench/layertrace.py wraps desugar and the observeJ/observeL expansions
# on this module and on rankpl.engine, so both keep these names; none is
# called here
from .syntax import Stmt, desugar, expand_observe_j, expand_observe_l  # noqa: F401

__all__ = ["EvalConfig", "EvalError", "denote", "initial_ranking", "run_program"]


@dataclass
class EvalConfig:
    max_while_iterations: int = 10000

    def __post_init__(self):
        if self.max_while_iterations <= 0:
            raise ValueError("max_while_iterations must be positive")


def initial_ranking() -> Ranking:
    """The starting point of every program: all variables 0, surprise 0."""
    return Ranking({Valuation(): 0})


def denote(s: Stmt, kappa: Ranking, cfg: EvalConfig | None = None) -> Ranking:
    """Run one statement, sugar included, against a prior ranking, exactly."""
    cfg = cfg or EvalConfig()
    result = _denote(
        s, _Partial(dict(kappa.items()), INF), _Round(INF, cfg.max_while_iterations)
    )
    return Ranking(result.entries) if result.entries else FAILURE


def run_program(s: Stmt, cfg: EvalConfig | None = None) -> Ranking:
    """Run a whole program, as parsed, from the initial ranking."""
    return denote(s, initial_ranking(), cfg)
