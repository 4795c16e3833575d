import io
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
PROGRAMS = REPO / "programs"


@pytest.fixture
def programs() -> Path:
    return PROGRAMS


def run_cli(argv):
    """Invoke the CLI in-process; returns (exit_code, stdout, stderr)."""
    from rankpl.cli import main

    out, err = io.StringIO(), io.StringIO()
    code = main(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def collect(stream):
    """The ranking an outcome stream yields; an empty one is the failure
    ranking."""
    from rankpl.ranking import Ranking

    return Ranking({o.valuation: o.rank for o in stream})


def record_budgets(monkeypatch) -> list:
    """The budgets of the deepening rounds that run from now on, in order."""
    import rankpl.engine

    budgets = []
    make_round = rankpl.engine._Round

    def counting(budget, iteration_limit):
        budgets.append(budget)
        return make_round(budget, iteration_limit)

    monkeypatch.setattr(rankpl.engine, "_Round", counting)
    return budgets


LOCALIZATION_ARGS = [
    "--input",
    str(PROGRAMS / "localization_map.input"),
    "--enum",
    "N=0,E=1,S=2,W=3",
    "--define",
    "mv=[E,E,E,E]",
    "--define",
    "ns=[1,1,1,1]",
    "--define",
    "ss=[2,1,2,3]",
]
