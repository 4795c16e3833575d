"""Serve one workload's requests in a fresh interpreter and time them.

Usage: ``python3 worker.py PLAN.json`` with ``src`` on ``PYTHONPATH``; run.py
writes the plan and starts this process.  Requests go through
``rankpl.cli.main`` in-process, one at a time (a closed loop with one
client), in passes over the whole batch for as long as another pass fits
in the plan's time (at least one pass, two when tracing).  Each
pass also times ``rankpl.run_program`` on every exact-path case.  When the
plan asks for tracing, passes alternate untraced and traced, so the one run
gives both the tracing overhead and the per-layer split.

Prints one JSON document: per-pass timings, every distinct output each
request produced, the peak resident memory after the timed passes, and the
probe results (run once, after the peak is read, untimed).
"""

from __future__ import annotations

import io
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

from rankpl import run_program
from rankpl.cli import binding_prelude, main
from rankpl.parser import parse_program
from rankpl.syntax import Seq

from layertrace import Tracer
from workloads import format_lines


class _Capture(io.StringIO):
    """A request's stdout; remembers when it was first written to."""

    first_write = None

    def write(self, text):
        if self.first_write is None:
            self.first_write = perf_counter()
        return super().write(text)


def _call(argv, tracer):
    out, err = _Capture(), io.StringIO()
    start = perf_counter()
    try:
        if tracer is None:
            code = main(argv, out=out, err=err)
        else:
            code = tracer.call("cli.main", main, argv, out=out, err=err)
    except Exception as exc:  # a crash is a wrong answer, not the end of the run
        code = f"raised {type(exc).__name__}"
    elapsed = perf_counter() - start
    first = None if out.first_write is None else out.first_write - start
    return code, out.getvalue(), elapsed, first


def _note(seen: dict, key):
    seen[key] = seen.get(key, 0) + 1


def run_pass(plan, statements, seen, exact_seen, tracer=None) -> dict:
    figures = {"latency": [], "mode": [], "first": [], "exact": []}
    output_lines = outcome_lines = 0
    for index, req in enumerate(plan["requests"]):
        code, text, elapsed, first = _call(req["argv"], tracer)
        figures["latency"].append(elapsed)
        figures["mode"].append(req["mode"])
        if req["mode"] == "full":
            figures["first"].append(first)
        _note(seen[index], (code, text))
        if tracer is not None:
            tracer.finish_request()
            lines = text.splitlines()
            output_lines += len(lines)
            outcome_lines += sum(line.startswith("rank ") for line in lines)
    for index, (case, statement) in enumerate(zip(plan["exact"], statements)):
        start = perf_counter()
        try:
            if tracer is None:
                result = run_program(statement)
            else:
                result = tracer.call("evaluator.run_program", run_program, statement)
        except Exception as exc:
            result = exc
        figures["exact"].append(perf_counter() - start)
        if isinstance(result, Exception):
            _note(exact_seen[index], f"raised {type(result).__name__}")
        else:
            entries = None if result.is_failure else result.items()
            _note(exact_seen[index], "\n".join(format_lines(entries, case["project"])))
        if tracer is not None:
            tracer.finish_request()
    if tracer is not None:
        figures["layers"] = tracer.layers(output_lines, outcome_lines)
    return figures


def main_worker(plan_path: str) -> dict:
    plan = json.loads(Path(plan_path).read_text())
    statements = [
        Seq(binding_prelude(case["defines"]), parse_program(Path(case["program"]).read_text()))
        for case in plan["exact"]
    ]
    seen = [{} for _ in plan["requests"]]
    exact_seen = [{} for _ in plan["exact"]]

    _call(plan["requests"][0]["argv"], None)  # warm-up, untimed
    run_program(statements[0])

    passes = []
    traced_spans = None
    deadline = perf_counter() + plan["seconds"]
    while True:
        tracer = None
        if plan["trace"] and len(passes) % 2 == 1:
            tracer = Tracer()
            tracer.install()
        try:
            figures = run_pass(plan, statements, seen, exact_seen, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        figures["traced"] = tracer is not None
        passes.append(figures)
        if tracer is not None and traced_spans is None:
            traced_spans = tracer.spans
        # stop before a pass that would end past the deadline
        last = sum(figures["latency"]) + sum(figures["exact"])
        if perf_counter() + last > deadline and len(passes) >= (2 if plan["trace"] else 1):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    probes = []
    for req in plan["probes"]:
        code, text, _, _ = _call(req["argv"], None)
        probes.append([code, text])

    if traced_spans is not None:
        origin = traced_spans[0][1]
        Path(plan["trace_file"]).write_text(
            json.dumps(
                {
                    "fields": ["name", "start_s", "end_s", "parent", "request"],
                    "spans": [
                        [name, round(start - origin, 7), round(end - origin, 7), parent, req]
                        for name, start, end, parent, req in traced_spans
                    ],
                }
            )
        )
    return {
        "passes": passes,
        "outputs": [[[code, text, n] for (code, text), n in s.items()] for s in seen],
        "exact_outputs": [[[text, n] for text, n in s.items()] for s in exact_seen],
        "peak_rss_mb": peak_rss_mb,
        "probes": probes,
    }


if __name__ == "__main__":
    json.dump(main_worker(sys.argv[1]), sys.stdout)
