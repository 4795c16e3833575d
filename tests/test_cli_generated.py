"""Generated programs run end to end through ``rankpl run``, in process.

Each of 150 programs from ``proggen``'s three generators, one in seven with
an injected runtime error, is printed to a file and run under one drawn
option set: a define of a name the program reads (of one it writes, for the
few that read none), and sometimes
``--project`` (at times with a repeated or blank entry), ``--top``,
``--max-rank`` and ``--format records``.  About half the defines go through
an ``--input`` file, with a ``//`` comment and, for a loop program, an
``arr`` array split over lines; the rest are ``--define``s.  Some values are
spelled as tokens that ``--enum`` maps.  The expected stdout and exit code
come from the oracle's ranking of the program after the defines, formatted
here.  One program in five is also run with an option naming something no
program or value can name, which must end the run with an input error.

Two more checks need no oracle: faulty programs under ``--max-rank`` run
with ``--top`` against the same run without it, and fuzzed option values
and input files end in a result or an input error, never an internal one.
"""

import dataclasses
import json
import random

from conftest import record_budgets, run_cli
from oracle import oracle_ranking
from proggen import (
    ARRAY,
    random_loop_program,
    random_program,
    random_sugar_program,
    with_runtime_error,
)
from rankpl.syntax import Assign, IntLit, Seq, UniformPick, Var, pretty_print

GENERATORS = (random_program, random_sugar_program, random_loop_program)
FAILED = {
    "text": "failed (observation ruled out all possibilities)",
    "records": '{"failed": true}',
}
#: the tokens some values are spelled as, mapped in two ``--enum`` options
ENUMS = {"LO": -2, "NEG": -1, "ZERO": 0, "ONE": 1, "TWO": 2, "TOP": 3}
ENUM_ARGS = ["--enum", "LO=-2,NEG=-1,ZERO=0", "--enum", "ONE=1, TWO=2,TOP=3"]
BAD_NAMES = (
    ["--define", "x[0]=1"],
    ["--define", "1x=1"],
    ["--enum", "é=1"],
    ["--enum", "5=1"],
    ["--project", "a[0]"],
)


def names(program):
    """The scalar names ``program`` reads, and every name it reads or
    writes, each sorted."""
    read, every = set(), set()
    pending = [program]
    while pending:
        node = pending.pop()
        if isinstance(node, tuple):
            pending.extend(node)
        elif dataclasses.is_dataclass(node):
            if isinstance(node, (Var, Assign, UniformPick)):
                every.add(node.name)
                if isinstance(node, Var) and not node.indices:
                    read.add(node.name)
            pending.extend(getattr(node, f.name) for f in dataclasses.fields(node))
    return sorted(read), sorted(every)


def label(key):
    name, indices = key
    return name + "".join(f"[{i}]" for i in indices)


def line(rank, items, projection, fmt):
    """One outcome's stdout line: every binding of ``items``, or each
    projected name's bindings (``name=0`` when it has none) by name."""
    if projection is None:
        pairs = [(label(key), value) for key, value in items]
    else:
        pairs = []
        for name in sorted(projection):
            bound = [(label(key), value) for key, value in items if key[0] == name]
            pairs += bound or [(name, 0)]
    if fmt == "records":
        return json.dumps({"rank": rank, "bindings": dict(pairs)}, sort_keys=True)
    shown = ", ".join(f"{name}={value}" for name, value in pairs)
    return f"rank {rank}: {shown or '(all variables 0)'}"


def expected(ranking, projection, top, max_rank, fmt):
    """``(exit code, stdout)`` of a run whose exact result is ``ranking``:
    each projected state at its least rank, by rank and then by bindings."""
    if ranking.is_failure:
        return 1, FAILED[fmt] + "\n"
    least = {}
    for sigma, rank in ranking.items():
        items = sigma.items
        if projection is not None:
            items = tuple(item for item in items if item[0][0] in projection)
        if max_rank is not None and rank > max_rank:
            continue
        if items not in least or rank < least[items]:
            least[items] = rank
    ordered = sorted((rank, items) for items, rank in least.items())[:top]
    return 0, "".join(line(*o, projection, fmt) + "\n" for o in ordered)


def spelled(rng, value):
    """``value`` as a define writes it: sometimes as its ``ENUMS`` token."""
    tokens = [token for token, number in ENUMS.items() if number == value]
    return tokens[0] if tokens and rng.random() < 0.4 else str(value)


def oracle_or_abort(program):
    """The oracle's ranking, or None where it aborts on a runtime error."""
    try:
        return oracle_ranking(program)
    except AssertionError as exc:
        assert str(exc).startswith("oracle: ")
        return None


def test_generated_programs_run_as_the_oracle_says(tmp_path):
    rng = random.Random(1919)
    # how defines are passed and spelled is drawn apart, so ``rng`` draws
    # the same programs and options as it would without them
    spelling = random.Random(2323)
    seen = {"code": set(), "bad": set(), "records": 0, "projected": 0, "odd": 0}
    seen.update(inputs=0, arrays=0, tokens=0)
    for index in range(150):
        program = GENERATORS[index % 3](rng)
        faulty = index % 7 == 0
        if faulty:
            program = with_runtime_error(rng, program)
        path = tmp_path / f"p{index}.rpl"
        path.write_text(pretty_print(program) + "\n")
        read, every = names(program)
        name, value = rng.choice(read or every), rng.randrange(-2, 4)
        texts = [spelled(spelling, value)]
        prelude = Assign(name, (), IntLit(value))
        entries = ""
        if spelling.random() < 0.5:
            entries = f"// drawn for case {index}\n{name} = {texts[0]}  // a scalar\n"
            if GENERATORS[index % 3] is random_loop_program and name != ARRAY:
                cells = [spelling.randrange(-2, 4) for _ in range(3)]
                texts += [spelled(spelling, cell) for cell in cells]
                entries += f"{ARRAY} = [\n    " + ",\n    ".join(texts[1:]) + ",\n]\n"
                for i, cell in enumerate(cells):
                    prelude = Seq(prelude, Assign(ARRAY, (IntLit(i),), IntLit(cell)))
                seen["arrays"] += 1
            defines = tmp_path / f"p{index}.input"
            defines.write_text(entries)
            argv = ["run", str(path), "--input", str(defines)]
            seen["inputs"] += 1
        else:
            argv = ["run", str(path), "--define", f"{name}={texts[0]}"]
        if any(text in ENUMS for text in texts):
            argv += ENUM_ARGS
            seen["tokens"] += 1
        projection = None
        if rng.random() < 0.5:
            entries = rng.sample(every, rng.randrange(1, len(every) + 1))
            projection = set(entries)
            if rng.random() < 0.4:
                odd = rng.choice([" ", rng.choice(entries)])  # blank or repeated
                entries.insert(rng.randrange(len(entries) + 1), odd)
                seen["odd"] += 1
            argv += ["--project", ",".join(entries)]
            seen["projected"] += 1
        top = rng.choice([None, 0, 1, 2, 3])
        if top is not None:
            argv += ["--top", str(top)]
        # a bounded run may spare an error above its limit, which the
        # oracle cannot tell, so a faulty program runs to the end
        max_rank = None if faulty else rng.choice([None, 0, 1, 2])
        if max_rank is not None:
            argv += ["--max-rank", str(max_rank)]
        fmt = rng.choice(["text", "records"])
        if fmt == "records":
            argv += ["--format", "records"]
            seen["records"] += 1
        where = f"case {index}: {' '.join(argv[2:])}\n{entries}"
        where += pretty_print(program)

        code, out, err = run_cli(argv)
        assert code != 5, where
        seen["code"].add(code)
        reference = oracle_or_abort(Seq(prelude, program))
        if reference is None:
            assert code == 3, where
            assert err.count("\n") == 1 and err.startswith("runtime error: "), where
        else:
            assert (code, out, err) == (
                *expected(reference, projection, top, max_rank, fmt),
                "",
            ), where

        if index % 5 == 0:
            bad = rng.choice(BAD_NAMES)
            seen["bad"].add(bad[1])
            code, out, err = run_cli(argv + bad)
            assert code == 4 and out == "", where
            assert err.count("\n") == 1 and err.startswith("input error: "), where

    # every kind of case was drawn: results, failures, runtime and input errors
    assert seen["code"] == {0, 1, 3}
    assert seen["bad"] == {bad[1] for bad in BAD_NAMES}
    assert min(seen["records"], seen["projected"], seen["odd"]) > 0
    assert min(seen["inputs"], seen["arrays"], seen["tokens"]) > 0


def test_top_cuts_the_run_without_it_under_max_rank(tmp_path, monkeypatch):
    # no oracle: a faulty program's bounded run may spare its error above the
    # limit, so each --top run is checked against the same run without --top
    rng = random.Random(4141)
    budgets = record_budgets(monkeypatch)
    seen = {"errors": 0, "cut_errors": 0, "fewer_rounds": 0, "failed": 0}
    for index in range(300):
        program = with_runtime_error(rng, GENERATORS[index % 3](rng))
        path = tmp_path / f"p{index}.rpl"
        path.write_text(pretty_print(program) + "\n")
        every = names(program)[1]
        for projected in (False, True):
            argv = ["run", str(path), "--max-rank", str(rng.choice([0, 1, 2, 3, 5]))]
            if projected:
                argv += ["--project", ",".join(rng.sample(every, rng.randrange(1, 3)))]
            if rng.random() < 0.3:
                argv += ["--format", "records"]
            where = f"case {index}: {' '.join(argv[2:])}\n{pretty_print(program)}"
            budgets.clear()
            whole = run_cli(argv)
            rounds = list(budgets)
            code, out, _ = whole
            assert code in (0, 1, 3), where
            lines = out.splitlines(keepends=True) if code != 1 else []
            seen["errors"] += code == 3
            seen["failed"] += code == 1
            for top in (0, 1, 2, 3):
                budgets.clear()
                got = run_cli(argv + ["--top", str(top)])
                if top == 0 and lines:
                    assert got == (0, "", ""), where
                elif 0 < top <= len(lines):
                    assert got == (0, "".join(lines[:top]), ""), where
                    seen["cut_errors"] += code == 3
                else:
                    assert got == whole, where
                assert budgets == rounds[: len(budgets)], where
                seen["fewer_rounds"] += len(budgets) < len(rounds)
    assert min(seen.values()) > 0, seen


#: what the fuzzed option values and input files are drawn from
ALPHABET = list("[],-+0123456789aAxz_é漢= ") + ["//", "\n", "\0", "\ufeff"]


def fuzzed(rng, longest):
    return "".join(rng.choice(ALPHABET) for _ in range(rng.randrange(longest + 1)))


def test_fuzzed_inputs_are_results_or_input_errors(tmp_path):
    program = tmp_path / "reads.rpl"
    program.write_text(
        "either { x := a; } or (1) { x := a[1] + b; }; observe x != 2; y := 6 / (x - 5);\n"
    )
    rng = random.Random(5353)
    seen = set()
    for index in range(4000):
        argv = ["run", str(program)]
        if rng.random() < 0.7:
            name = rng.choice(["a", "b", "é"]) if rng.random() < 0.8 else fuzzed(rng, 3)
            argv.append(f"--define={name}={fuzzed(rng, 8)}")
        if rng.random() < 0.3:
            argv.append(f"--enum={fuzzed(rng, 8)}")
        if rng.random() < 0.3:
            argv.append(f"--project={fuzzed(rng, 4)}")
        if rng.random() < 0.3:
            path = tmp_path / f"in{index}.input"
            path.write_text(fuzzed(rng, 16), encoding="utf-8")
            argv.append(f"--input={path}")
        code, out, err = run_cli(argv)
        seen.add(code)
        assert code in (0, 1, 3, 4), argv
        if code == 4:
            assert out == "" and err.count("\n") == 1 and err.endswith("\n"), argv
    assert {0, 3, 4} <= seen, seen
