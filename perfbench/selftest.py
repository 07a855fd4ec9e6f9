"""Fast self-test of the benchmark runner at the tiny size.

    python3 perfbench/selftest.py

For every workload it runs the runner once untraced and twice traced, at
``--size tiny`` and a one-second budget, and checks that:

- every run is correct and prints one JSON result line last;
- the untraced line carries every end-to-end metric with its unit, and the
  traced line every reported per-layer metric with its unit;
- the trace file carries every per-layer metric with its unit, and the
  count metrics repeat exactly across the two traced invocations;
- BENCHMARK.json names the metrics and units the runner emits.

It also runs the runner in a directory holding only BENCHMARK.json and the
benchmark's files, where it must fail without printing a result.
Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

from run import BENCH, END_TO_END, OUT, ROOT
from tracer import COUNT_METRICS, LAYER_METRICS, REPORTED
from workloads import WORKLOADS

SEED = 3


def invoke(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def result_of(proc: subprocess.CompletedProcess, expected: dict, problems: list, what: str) -> None:
    if proc.returncode != 0:
        problems.append(f"{what}: exit {proc.returncode}: {proc.stderr[-2000:]}")
        return
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"{what}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{what}: not correct: {proc.stderr[-2000:]}")
    got = {name: entry["unit"] for name, entry in result["metrics"].items()}
    if got != expected:
        problems.append(f"{what}: metrics/units differ from the expected set: {sorted(set(got) ^ set(expected))}")


def check_benchmark_json(problems: list) -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if end_to_end != END_TO_END:
        problems.append(f"BENCHMARK.json end_to_end {end_to_end} != runner {END_TO_END}")
    if per_layer != {name: LAYER_METRICS[name] for name in REPORTED}:
        problems.append("BENCHMARK.json per_layer differs from the runner's reported per-layer metrics")
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        problems.append(f"BENCHMARK.json workloads differ from {WORKLOADS}")


def check_bare_directory(problems: list) -> None:
    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns(".out", "__pycache__"))
    try:
        proc = invoke(WORKLOADS[0], 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append("without src/ the runner must exit non-zero and print no result")


def main() -> int:
    problems: list[str] = []
    check_benchmark_json(problems)
    reported = {name: LAYER_METRICS[name] for name in REPORTED}
    for workload in WORKLOADS:
        result_of(invoke(workload, 0), END_TO_END, problems, f"{workload} untraced")
        counts = []
        for attempt in (1, 2):
            result_of(invoke(workload, 1), reported, problems, f"{workload} traced #{attempt}")
            summary = json.loads((OUT / f"trace-{workload}-tiny-seed{SEED}.json").read_text())
            units = {name: entry["unit"] for name, entry in summary["metrics"].items()}
            if units != LAYER_METRICS:
                problems.append(f"{workload}: trace file metrics/units differ from LAYER_METRICS")
            counts.append({name: summary["metrics"][name]["value"] for name in COUNT_METRICS})
        if counts[0] != counts[1]:
            changed = [n for n in COUNT_METRICS if counts[0][n] != counts[1][n]]
            problems.append(f"{workload}: count metrics differ between invocations: {changed}")
    check_bare_directory(problems)
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest passed" if not problems else f"selftest failed ({len(problems)} problem(s))")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
