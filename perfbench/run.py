"""RankPL benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload fuzz --seed 1 --seconds 60 --trace 0

Run from the repository root (the script finds ``src``, ``programs`` and
``tests`` next to its own directory).  The workload's inputs are made from
the seed; the expected outputs are computed independently of the engine and
the evaluator (see workloads.py).  A fresh interpreter (worker.py) then
serves the requests through ``rankpl.cli.main`` in-process, one at a time,
in passes over the whole batch while another pass fits in ``--seconds``,
and the outputs of every pass are checked against the expected ones.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones, computed from each request's best time over the passes;
with ``--trace 1`` they are the per-layer figures of the traced passes, and
the spans of the first traced pass go to
``perfbench/out/trace-<workload>-seed<seed>.json``.  The lines before it
say the same for a reader, with sample counts and bases.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: end-to-end metrics and their units
END_TO_END = {
    "full_s": "s",
    "top_s": "s",
    "first_outcome_s.p50": "s",
    "latency_s.p50": "s",
    "latency_s.p90": "s",
    "exact_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: per-layer metrics and their units (traced run)
PER_LAYER = {
    "engine.stream_s": "s",
    "engine.self_s": "s",
    "engine.outcomes": "count",
    "engine.kept_ratio": "ratio",
    "syntax.expand_calls": "count",
    "syntax.desugar_s": "s",
    "syntax.desugar_nodes": "count",
    "ranking.assign_calls": "count",
    "parser.parse_s": "s",
    "parser.tokenize_s": "s",
    "parser.tokens_per_s": "1/s",
    "parser.chars_per_s": "1/s",
    "cli.self_s": "s",
    "cli.inputs_s": "s",
    "cli.prelude_s": "s",
    "cli.output_lines": "count",
    "evaluator.self_s": "s",
    "trace.total_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_ratio": "ratio",
    "failed_share": "ratio",
    "requests.attempted": "count",
    "probes.failed": "count",
}

SETUP_CODE = (
    "import time\n"
    "start = time.perf_counter()\n"
    "import rankpl.cli\n"
    "rankpl.cli.build_arg_parser()\n"
    "print(time.perf_counter() - start)\n"
)

#: beyond --seconds, the worker may take this long for its last pass,
#: warm-up and probes before it is stopped
WORKER_GRACE_S = 100


def _import_workloads():
    """workloads.py needs the library and the test oracle on the path."""
    for path in (str(ROOT / "src"), str(ROOT / "tests")):
        if path not in sys.path:
            sys.path.insert(0, path)
    import workloads

    return workloads


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["PYTHONHASHSEED"] = "0"
    return env


def measure_setup(samples: int) -> float:
    """Median time for a fresh interpreter to import rankpl.cli and build the
    argument parser.  One extra start first compiles the bytecode cache."""
    times = []
    for i in range(samples + 1):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE],
            env=_env(),
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        if i:
            times.append(float(done.stdout))
    return statistics.median(times)


def run_worker(plan_path: Path, seconds: float) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(plan_path)],
        env=_env(),
        capture_output=True,
        text=True,
        timeout=seconds + WORKER_GRACE_S,
    )
    if done.returncode != 0:
        raise RuntimeError(f"worker exited with {done.returncode}:\n{done.stderr[-2000:]}")
    return json.loads(done.stdout)


def check(batch, result) -> dict:
    """Compare every output the worker saw with the expected one."""
    attempted = failed = 0
    wrong = []
    for req, outputs in zip(batch.requests, result["outputs"]):
        for code, text, count in outputs:
            attempted += count
            if code != req["code"] or text.splitlines() != req["lines"]:
                failed += count
                wrong.append(" ".join(req["argv"][1:]))
    for case, outputs in zip(batch.exact, result["exact_outputs"]):
        for text, count in outputs:
            attempted += count
            if text != "\n".join(case["lines"]):
                failed += count
                wrong.append(f"run_program {case['program']}")
    probe_failures = [
        f"{Path(req['argv'][1]).stem}: {code if isinstance(code, str) else f'exit {code}'}"
        for req, (code, text) in zip(batch.probes, result["probes"])
        if code != 0 or text.splitlines() != req["lines"]
    ]
    return {
        "attempted": attempted,
        "failed": failed,
        "wrong": wrong,
        "probes": len(batch.probes),
        "probes_failed": len(probe_failures),
        "probe_failures": probe_failures,
    }


def _best(passes, key):
    """Each request's best time over the passes.  On a shared machine most
    runs of a request are slowed by other tenants by varying amounts; the
    fastest is the one that varies least from run to run."""
    best = []
    for times in zip(*(p[key] for p in passes)):
        seen = [t for t in times if t is not None]
        if seen:
            best.append(min(seen))
    return best


def end_to_end(passes, result, setup_s) -> dict:
    latencies = _best(passes, "latency")
    modes = passes[0]["mode"]
    return {
        "full_s": sum(t for t, m in zip(latencies, modes) if m == "full"),
        "top_s": sum(t for t, m in zip(latencies, modes) if m == "top"),
        "first_outcome_s.p50": statistics.median(_best(passes, "first")),
        "latency_s.p50": statistics.median(latencies),
        "latency_s.p90": statistics.quantiles(latencies, n=10, method="inclusive")[-1],
        "exact_s": sum(_best(passes, "exact")),
        "setup_s": setup_s,
        "peak_rss_mb": result["peak_rss_mb"],
    }


def per_layer(untraced, traced, checked) -> dict:
    metrics = {
        name: statistics.median(p["layers"][name] for p in traced)
        for name in traced[0]["layers"]
    }

    def total(p):
        return sum(p["latency"]) + sum(p["exact"])

    plain = statistics.median(total(p) for p in untraced)
    metrics["trace.total_s"] = statistics.median(total(p) for p in traced)
    metrics["trace.overhead_s"] = metrics["trace.total_s"] - plain
    metrics["trace.overhead_ratio"] = metrics["trace.overhead_s"] / plain
    attempted = checked["attempted"] + checked["probes"]
    metrics["failed_share"] = (checked["failed"] + checked["probes_failed"]) / attempted
    metrics["requests.attempted"] = attempted
    metrics["probes.failed"] = checked["probes_failed"]
    return metrics


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, tiny: bool = False
) -> dict:
    """One run: build the inputs, serve them in a worker, check, summarize.
    Returns the result object, with the reader's summary under ``notes``."""
    workloads = _import_workloads()
    OUT.mkdir(exist_ok=True)
    setup_s = None if trace else measure_setup(3 if tiny else 15)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        batch = workloads.build(name, seed, ROOT, Path(workdir), tiny=tiny)
        plan = {
            "requests": [{"argv": r["argv"], "mode": r["mode"]} for r in batch.requests],
            "exact": [
                {k: case[k] for k in ("program", "defines", "project")}
                for case in batch.exact
            ],
            "probes": [{"argv": r["argv"]} for r in batch.probes],
            "seconds": seconds,
            "trace": trace,
            "trace_file": str(OUT / f"trace-{name}-seed{seed}.json"),
        }
        plan_path = Path(workdir) / "plan.json"
        plan_path.write_text(json.dumps(plan))
        result = run_worker(plan_path, seconds)
    checked = check(batch, result)
    untraced = [p for p in result["passes"] if not p["traced"]]
    traced = [p for p in result["passes"] if p["traced"]]
    if trace:
        values, units = per_layer(untraced, traced, checked), PER_LAYER
    else:
        values, units = end_to_end(untraced, result, setup_s), END_TO_END

    requests = len(batch.requests)
    notes = [
        f"workload {name}, seed {seed}: {requests} requests and {len(batch.exact)} "
        f"exact-path cases per pass; {len(untraced)} untraced and {len(traced)} "
        f"traced passes",
        f"latency samples: {requests} requests ({len(untraced[0]['first'])} "
        f"full-mode), each at its best of {len(untraced)} passes",
        f"failed_share: {checked['failed'] + checked['probes_failed']}/"
        f"{checked['attempted'] + checked['probes']} "
        f"(depth probes failed: {checked['probes_failed']}/{checked['probes']})",
    ]
    notes += [f"depth probe failed: {p}" for p in checked["probe_failures"]]
    notes += [f"wrong output: {w}" for w in sorted(set(checked["wrong"]))[:10]]
    notes += [f"{key} = {value:.6g} {units[key]}" for key, value in values.items()]
    return {
        "correct": checked["failed"] == 0,
        "attempted": checked["attempted"],
        "failed": checked["failed"],
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in values.items()},
        "notes": notes,
    }


def main(argv=None) -> int:
    if not (ROOT / "src" / "rankpl").is_dir():
        print(f"error: no rankpl sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=sorted(_import_workloads().BUILDERS)
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in result.pop("notes"):
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
