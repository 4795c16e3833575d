"""Seeded inputs for the three workloads, with independent expected outputs.

A workload is a batch of ``rankpl run`` requests (argv plus the exit code
and stdout lines they must produce) and a list of exact-path cases for
``rankpl.run_program``.  The same seed always gives the same batch.

Expected outputs never come from the engine or the evaluator:

* ``localization`` and ``observe_wide`` are recomputed on the explicit state
  set with the ranking calculus (``l_condition``, ``j_condition``,
  ``condition``, ``rank_of``, ``normalize``);
* ``fuzz`` programs go through the brute-force path oracle in
  ``tests/oracle.py``.
"""

from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass, field
from pathlib import Path

from rankpl.ranking import (
    Ranking,
    Valuation,
    condition,
    firmness,
    j_condition,
    l_condition,
    min_merge,
    normalize,
    rank_of,
)
from rankpl.syntax import Assign, pretty_print

FAILED_MESSAGE = "failed (observation ruled out all possibilities)"


@dataclass
class Batch:
    """One workload's inputs.  ``requests`` are timed CLI calls, ``exact``
    are timed ``run_program`` calls, ``probes`` run once, untimed."""

    requests: list = field(default_factory=list)
    exact: list = field(default_factory=list)
    probes: list = field(default_factory=list)


def request(argv, mode, lines, code=0):
    return {"argv": argv, "mode": mode, "code": code, "lines": lines}


# -- expected output ------------------------------------------------------------


def _label(key) -> str:
    name, indices = key
    return name + "".join(f"[{i}]" for i in indices)


def format_lines(entries, project=None, max_rank=None) -> list[str]:
    """The text lines ``rankpl run`` prints for a ranking.

    ``entries`` are (valuation, rank) pairs, or None for the failure
    ranking.  With a projection, states collapse onto the projected names at
    their least rank and every projected name is shown (0 when unbound).
    """
    if entries is None:
        return [FAILED_MESSAGE]
    if project is not None:
        wanted = set(project)
        projected = {}
        for valuation, rank in entries:
            small = tuple(item for item in valuation.items if item[0][0] in wanted)
            if small not in projected or rank < projected[small]:
                projected[small] = rank
        entries = projected.items()
    else:
        entries = ((valuation.items, rank) for valuation, rank in entries)
    lines = []
    for items, rank in sorted(entries, key=lambda entry: (entry[1], entry[0])):
        if max_rank is not None and rank > max_rank:
            break
        if project is None:
            pairs = [(_label(key), value) for key, value in items]
        else:
            pairs = []
            for name in sorted(project):
                bound = [(_label(key), v) for key, v in items if key[0] == name]
                pairs.extend(bound or [(name, 0)])
        shown = ", ".join(f"{label}={value}" for label, value in pairs)
        lines.append(f"rank {rank}: {shown or '(all variables 0)'}")
    return lines


def _full_and_top(argv, entries, project):
    """A full-enumeration request and its ``--max-rank 0`` twin."""
    code = 1 if entries is None else 0
    full = request(argv, "full", format_lines(entries, project), code)
    top = request(
        argv + ["--max-rank", "0"], "top", format_lines(entries, project, 0), code
    )
    return [full, top]


# -- localization ---------------------------------------------------------------

MOVES = {"N": (0, 1), "E": (1, 0), "S": (0, -1), "W": (-1, 0)}
MOVE_CODES = {"N": 0, "E": 1, "S": 2, "W": 3}
ENUM = ",".join(f"{move}={code}" for move, code in MOVE_CODES.items())
#: trajectories per k.  Two at k=4 put more than one request at the median
#: of the full-mode requests, which first_outcome_s.p50 reports.
TRAJECTORIES = {2: 1, 4: 2, 8: 1}


def read_map(path: Path) -> dict:
    """``programs/localization_map.input`` as {(x, y): cell}: 11 columns x of
    8 cells y each."""
    body = "\n".join(line.split("//", 1)[0] for line in path.read_text().splitlines())
    numbers = [int(n) for n in re.findall(r"-?\d+", body)]
    if len(numbers) != 88:
        raise ValueError(f"{path}: expected 88 map cells, found {len(numbers)}")
    return {(i // 8, i % 8): cell for i, cell in enumerate(numbers)}


def north_distance(cells, x, y) -> int:
    """The program's north scan: cells off the map read 0 and the scan stops
    below row 8."""
    d = 0
    while y + d + 1 <= 7 and cells.get((x, y + d + 1), 0) == 0:
        d += 1
    return d


def south_distance(cells, x, y) -> int:
    d = 0
    while 0 <= y - d - 1 and cells.get((x, y - d - 1), 0) == 0:
        d += 1
    return d


def _positions_after(moves):
    """Offset of every start cell after each prefix of ``moves``."""
    dx = dy = 0
    offsets = []
    for move in moves:
        dx += MOVES[move][0]
        dy += MOVES[move][1]
        offsets.append((dx, dy))
    return offsets


def _walk(rng, cells, k):
    """A seeded walk of ``k`` moves through free cells, with the true sensor
    readings after each move, ``k // 2`` of them replaced by a wrong value
    that some other hypothesis would read.  None when some reading would
    hold for all 88 hypotheses (observeL is undefined there)."""
    free = sorted(cell for cell, wall in cells.items() if wall == 0)
    x, y = rng.choice(free)
    moves = []
    for _ in range(k):
        options = [m for m, (dx, dy) in MOVES.items() if cells.get((x + dx, y + dy), 1) == 0]
        moves.append(rng.choice(options))
        x, y = x + MOVES[moves[-1]][0], y + MOVES[moves[-1]][1]
    offsets = _positions_after(moves)
    start_x, start_y = x - offsets[-1][0], y - offsets[-1][1]
    # readings[2t] is the north sensor after move t, readings[2t + 1] the south
    readings, possible = [], []
    for dx, dy in offsets:
        for scan in (north_distance, south_distance):
            readings.append(scan(cells, start_x + dx, start_y + dy))
            possible.append(sorted({scan(cells, cx + dx, cy + dy) for cx, cy in cells}))
    if any(len(values) < 2 for values in possible):
        return None
    for slot in rng.sample(range(2 * k), k // 2):
        readings[slot] = rng.choice([v for v in possible[slot] if v != readings[slot]])
    return moves, readings[0::2], readings[1::2]


def _posterior(cells, moves, ns, ss):
    """The reference ranking over the 88 hypotheses' positions, and per
    observation what a search needs to know about it: the ranks before it,
    the ranks of its event and of the complement, and the highest rank
    after it."""
    kappa = Ranking({Valuation({"x": x, "y": y}): 0 for x, y in cells})
    steps = []
    for move, north, south in zip(moves, ns, ss):
        dx, dy = MOVES[move]
        kappa = Ranking(
            {
                Valuation({"x": v.get("x") + dx, "y": v.get("y") + dy}): rank
                for v, rank in kappa.items()
            }
        )
        for scan, reading in ((north_distance, north), (south_distance, south)):

            def event(v, scan=scan, reading=reading):
                return scan(cells, v.get("x"), v.get("y")) == reading

            ranks = [rank for _, rank in kappa.items()]
            in_rank, out_rank = rank_of(kappa, event), firmness(kappa, event)
            kappa = l_condition(kappa, event, 1)
            steps.append((ranks, in_rank, out_rank, max(r for _, r in kappa.items())))
    return kappa, steps


def search_effort(steps, until) -> int:
    """Hypotheses a most-plausible-first search visits at the observations
    until its outcomes are proven up to rank ``until``.

    This follows the engine's deepening at the time the benchmark was
    written: budgets 0, 1, 2, ... until a round settles, where a round stops
    at the first observation whose event or complement lies beyond what it
    can see.  Each observeL(1, b) lowers the exactness bound by min(rank(b),
    1), and pruning caps it at the budget.  A round proves every outcome up
    to its final bound.  It only selects inputs, so later engines see the
    same inputs.
    """
    budget, work = 0, 0
    while True:
        bound, settled = math.inf, True
        for ranks, in_rank, out_rank, top_rank in steps:
            limit = min(budget, bound)
            work += sum(rank <= limit for rank in ranks)
            if in_rank > limit or out_rank > limit:
                settled = False
                break
            bound -= min(in_rank, 1)
            alternative = 1 - in_rank + out_rank if in_rank <= 1 else in_rank - 1
            if alternative > budget or top_rank > budget:
                bound = min(bound, budget)
        if settled and bound >= until:
            return work
        budget += 1


def efforts(kappa, steps) -> tuple:
    """Search effort of a ``--max-rank 0`` run, of a full run up to its first
    printed line (the rank-0 lines wait for the next rank), and of a whole
    full run."""
    positive = [rank for _, rank in kappa.items() if rank > 0]
    first = min(positive) if positive else math.inf
    return tuple(search_effort(steps, until) for until in (0, first, math.inf))


#: Typical search efforts (see ``efforts``) for each k: of 300 random walks,
#: the most lie within EFFORT_BAND of these.  Effort decides the engine's
#: work, and across walks it spreads by a factor of 3 or more, so each walk
#: is redrawn until all three efforts lie within EFFORT_BAND of these: the
#: seed then changes the inputs, not the amount of work.
EFFORT_TARGETS = {2: (655, 655, 1007), 4: (1245, 1245, 3318), 8: (5994, 5994, 11476)}
EFFORT_BAND = 0.05


def _trajectory(rng, cells, k):
    """A walk whose effort is on target; returns it with its posterior."""
    while True:
        walk = _walk(rng, cells, k)
        if walk is None:
            continue
        kappa, steps = _posterior(cells, *walk)
        if all(
            abs(effort / target - 1) <= EFFORT_BAND
            for effort, target in zip(efforts(kappa, steps), EFFORT_TARGETS[k])
        ):
            return walk, kappa


def _array(values) -> str:
    return "[" + ",".join(str(v) for v in values) + "]"


def localization(
    seed: int, root: Path, workdir: Path, trajectories=TRAJECTORIES
) -> Batch:
    """Seeded trajectories, ``trajectories[k]`` for each k, each run with
    ``--max-rank 0`` and in full, both projected on x,y."""
    rng = random.Random(seed)
    program = root / "programs" / "localization.rpl"
    map_file = root / "programs" / "localization_map.input"
    cells = read_map(map_file)
    grid = [[cells[(x, y)] for y in range(8)] for x in range(11)]
    batch = Batch()
    for k, count in trajectories.items():
        for _ in range(count):
            (moves, ns, ss), kappa = _trajectory(rng, cells, k)
            argv = [
                "run", str(program), "--input", str(map_file), "--enum", ENUM,
                "--define", f"k={k}", "--define", "mv=[" + ",".join(moves) + "]",
                "--define", f"ns={_array(ns)}", "--define", f"ss={_array(ss)}",
                "--project", "x,y",
            ]  # fmt: skip
            entries = list(kappa.items())
            batch.requests += _full_and_top(argv, entries, ["x", "y"])
            defines = {
                "map": grid,
                "k": k,
                "mv": [MOVE_CODES[m] for m in moves],
                "ns": ns,
                "ss": ss,
            }
            batch.exact.append(
                {
                    "program": str(program),
                    "defines": defines,
                    "project": ["x", "y"],
                    "lines": format_lines(entries, ["x", "y"]),
                }
            )
    return batch


# -- observe_wide ---------------------------------------------------------------

#: grid sizes (W, H) for x in 0..W, y in 0..H: 900, 1225 and 1600 states
OBSERVE_WIDE_SIZES = ((29, 29), (34, 34), (39, 39))


def _observe_wide_program(rng, width, height):
    """One program's text and its reference ranking.

    The seed picks the residues of three periodic events and the cell the
    last observe rules out.  A periodic event splits every row and column
    alike whatever its residue, so the seed changes the answer but hardly
    the amount of work.  (Threshold events such as ``x + y < c`` made one
    program's run time swing by a factor of 5 across seeds.)
    """
    r1, r2, r3 = rng.randrange(3), rng.randrange(4), rng.randrange(2)
    x0, y0 = rng.randint(0, width), rng.randint(0, height)
    source = (
        f"x := any_of(0 .. {width});\n"
        f"y := any_of(0 .. {height});\n"
        f"observeL(2, (x + y) % 3 != {r1});\n"
        f"observeJ(1, x % 4 != {r2});\n"
        f"either {{ skip; }} or (rank(y % 2 == {r3}) + 1) {{ y := h - y; }};\n"
        f"observe x != {x0} || y != {y0};\n"
    )
    kappa = Ranking(
        {
            Valuation({"x": x, "y": y}): 0
            for x in range(width + 1)
            for y in range(height + 1)
        }
    )
    kappa = l_condition(kappa, lambda v: (v.get("x") + v.get("y")) % 3 != r1, 2)
    kappa = j_condition(kappa, lambda v: v.get("x") % 4 != r2, 1)
    offset = rank_of(kappa, lambda v: v.get("y") % 2 == r3) + 1
    mirrored = {
        Valuation({"x": v.get("x"), "y": height - v.get("y")}): rank + offset
        for v, rank in kappa.items()
    }
    kappa = normalize(min_merge(kappa.as_dict(), mirrored))
    kappa = condition(kappa, lambda v: v.get("x") != x0 or v.get("y") != y0)
    return source, kappa


def observe_wide(
    seed: int, root: Path, workdir: Path, sizes=OBSERVE_WIDE_SIZES
) -> Batch:
    """One seeded program per grid size, each run with ``--max-rank 0`` and
    in full, both projected on x,y."""
    rng = random.Random(seed)
    batch = Batch()
    for i, (width, height) in enumerate(sizes):
        source, kappa = _observe_wide_program(rng, width, height)
        path = workdir / f"observe_wide_{i}.rpl"
        path.write_text(source)
        entries = list(kappa.items())
        batch.requests += _full_and_top(
            ["run", str(path), "--define", f"h={height}", "--project", "x,y"],
            entries,
            ["x", "y"],
        )
        batch.exact.append(
            {
                "program": str(path),
                "defines": {"h": height},
                "project": ["x", "y"],
                "lines": format_lines(entries, ["x", "y"]),
            }
        )
    return batch


# -- fuzz -----------------------------------------------------------------------

#: Nesting depth of the generated programs.  At the generator's default
#: depth of 4 a handful of programs carry up to half of a batch's time, so
#: the batch total swings with the seed; at 3 the five slowest carry under
#: a tenth.
FUZZ_DEPTH = 3
#: The batch is a stratified sample of the generator's programs, 400 in all.
#: A program's size is its source length plus 20 for each state assignment
#: its path semantics makes (counted on the oracle's walk): parsing costs
#: about as much per character as the engine per twentieth of an
#: assignment.  Each stratum (size from ``lo`` up to, not including, ``hi``)
#: takes ``count`` programs, its share of 20000 generated ones.  The 2% of
#: size 6000 or more are left out: they are engine-bound (the other two
#: workloads cover that) and a few of them would swing a batch's time.
FUZZ_STRATA = (
    (0, 67, 21), (67, 73, 31), (73, 95, 25), (95, 130, 25), (130, 280, 18),
    (280, 410, 20), (410, 510, 21), (510, 600, 19), (600, 700, 22),
    (700, 800, 20), (800, 900, 20), (900, 1000, 16), (1000, 1200, 28),
    (1200, 1300, 12), (1300, 1500, 20), (1500, 1800, 21), (1800, 2200, 19),
    (2200, 3100, 22), (3100, 6000, 20),
)  # fmt: skip


def _probes(workdir: Path) -> list:
    """Four inputs that are legal at any size; deep recursion stops them
    in-process today (RecursionError)."""
    wide = workdir / "probe_wide.rpl"
    wide.write_text("x := any_of(0 .. 2000);\n")
    long = workdir / "probe_long.rpl"
    long.write_text("x := 0;\n" + "x := x + 1;\n" * 2999)
    nested = workdir / "probe_nested.rpl"
    nested.write_text("x := " + "(" * 500 + "1" + ")" * 500 + ";\n")
    indexed = workdir / "probe_define.rpl"
    indexed.write_text("x := a[1999];\n")
    return [
        request(
            ["run", str(wide), "--project", "x"], "probe",
            [f"rank 0: x={i}" for i in range(2001)],
        ),
        request(["run", str(long), "--project", "x"], "probe", ["rank 0: x=2999"]),
        request(["run", str(nested), "--project", "x"], "probe", ["rank 0: x=1"]),
        request(
            ["run", str(indexed), "--define", f"a={_array(range(2000))}",
             "--project", "x"],
            "probe", ["rank 0: x=1999"],
        ),
    ]  # fmt: skip


def _oracle_run_counted(tree):
    """The oracle's final weights, and the state assignments its walk made."""
    import oracle

    walk, assigned = oracle.walk, 0

    def counting(stmt, states):
        nonlocal assigned
        if states is not None and isinstance(stmt, Assign):
            assigned += len(states)
        return walk(stmt, states)

    oracle.walk = counting
    try:
        return oracle.oracle_run(tree), assigned
    finally:
        oracle.walk = walk


def fuzz(seed: int, root: Path, workdir: Path, strata=FUZZ_STRATA) -> Batch:
    """Generated loop-free programs, ``count`` per size stratum, each run in
    full and with ``--max-rank 0``, plus the depth probes."""
    from fuzzgen import random_program

    rng = random.Random(seed)
    batch = Batch()
    left = [count for _, _, count in strata]
    while any(left):
        tree = random_program(rng, FUZZ_DEPTH)
        weights, assigned = _oracle_run_counted(tree)
        source = pretty_print(tree.second) + "\n"
        size = len(source) + 20 * assigned
        stratum = next(
            (i for i, (lo, hi, _) in enumerate(strata) if lo <= size < hi), None
        )
        if stratum is None or not left[stratum]:
            continue
        left[stratum] -= 1
        # the generator's prelude assigns two literals; they reach the
        # program as --define values, so every request also parses inputs
        defines = {
            assign.name: assign.value.value for assign in (tree.first.first, tree.first.second)
        }
        path = workdir / f"fuzz_{len(batch.exact)}.rpl"
        path.write_text(source)
        entries = None if weights is None else list(normalize(weights).items())
        argv = ["run", str(path)]
        for name, value in defines.items():
            argv += ["--define", f"{name}={value}"]
        batch.requests += _full_and_top(argv, entries, None)
        batch.exact.append(
            {
                "program": str(path),
                "defines": defines,
                "project": None,
                "lines": format_lines(entries),
            }
        )
    batch.probes = _probes(workdir)
    return batch


BUILDERS = {"localization": localization, "observe_wide": observe_wide, "fuzz": fuzz}

#: reduced sizes for the self-check: every workload in a few seconds
TINY = {
    "localization": {"trajectories": {2: 1}},
    "observe_wide": {"sizes": ((9, 9), (12, 9))},
    "fuzz": {"strata": ((0, 6000, 20),)},
}


def build(name: str, seed: int, root: Path, workdir: Path, tiny: bool = False) -> Batch:
    return BUILDERS[name](seed, root, workdir, **(TINY[name] if tiny else {}))
