"""Self-check of the benchmark at tiny sizes, in a few seconds.

    python3 perfbench/selfcheck.py

Runs every workload with a reduced batch, once untraced and twice traced,
and fails (exit 1) unless every output matches its reference, every metric
is reported with its unit, and the traced counts repeat exactly.
"""

from __future__ import annotations

import sys

from run import END_TO_END, PER_LAYER, _import_workloads, run_workload


def check_workload(name: str) -> list[str]:
    problems = []
    plain = run_workload(name, seed=1, seconds=0, trace=False, tiny=True)
    traced = [run_workload(name, seed=1, seconds=0, trace=True, tiny=True) for _ in range(2)]
    for result, expected in ((plain, END_TO_END), (traced[0], PER_LAYER)):
        if not result["correct"]:
            problems.append("wrong output: " + "; ".join(result["notes"]))
        units = {key: metric["unit"] for key, metric in result["metrics"].items()}
        if units != expected:
            problems.append(f"metrics differ from the declared set: {sorted(units)}")
    if any(metric["value"] <= 0 for metric in plain["metrics"].values()):
        problems.append("an end-to-end metric is not positive")
    for key, unit in PER_LAYER.items():
        first, second = (t["metrics"][key]["value"] for t in traced)
        if unit == "count" and first != second:
            problems.append(f"{key} differs between two traced runs: {first} != {second}")
    return problems


def main() -> int:
    failed = False
    for name in sorted(_import_workloads().BUILDERS):
        problems = check_workload(name)
        print(f"{name}: {'ok' if not problems else 'FAILED'}")
        for problem in problems:
            print(f"  {problem}")
        failed = failed or bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
