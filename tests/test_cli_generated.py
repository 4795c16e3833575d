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
"""

import dataclasses
import json
import random

from conftest import run_cli
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
