"""Run one entrolim benchmark workload and print its metrics.

    python3 perfbench/run.py --workload sweep_certify --seed 0 --seconds 32 --trace 0

Run from a checkout of the repository: the package is imported from its
``src/`` directory, never from an installed copy, and the run fails without
printing a result when ``src/`` is absent.

A run measures set-up (fresh-process import, config parse and model
construction, repeated and reported as the median), then one untimed
warm-up pass, then closed-loop passes of the workload's batch for
``--seconds`` seconds, each followed by one run of a fixed calibration
kernel.  Each pass time is divided by the kernel time that follows it and
the metrics are medians of these ``cal`` figures, because the speed of a
shared host drifts by more than the timing bounds from one pass and one
minute to the next; the raw seconds are printed in the summary.  Every
pass is checked against the committed reference outputs.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics`` (the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``).

With ``--trace 1`` the passes alternate between untraced and traced; the
traced passes give the per-layer metrics and their ratio the tracing
overhead.  All per-layer metrics, per-call timings and spans are written to
``perfbench/.out/``.

``--write-reference`` regenerates ``reference/`` for one workload and size
from the current code (all input variants); do that only when an output
change is intended and stated.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
from scipy.spatial import cKDTree

import tracer as tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / ".out"
REFERENCE = BENCH / "reference"

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ops_ok_ratio": "ratio",
    "wall_cal": "cal",
    "cells_per_cal_t1": "rows/cal",
    "cells_per_cal_t2": "rows/cal",
}

SETUP_REPEATS = {"bench": 3, "tiny": 2}

# Fresh-process set-up: import the package, parse every config and build
# every model the workload uses.  argv: src directory, inputs as JSON.
SETUP_CODE = """
import json, sys
sys.path.insert(0, sys.argv[1])
import entrolim
from entrolim.cli import config_from_dict
inputs = json.loads(sys.argv[2])
for raw in inputs.get("sweeps", []) + [inputs[k] for k in ("cli", "anticipatory") if k in inputs]:
    config_from_dict(raw)
specs = inputs.get("route_models", []) + ([inputs["schedule_model"]] if "schedule_model" in inputs else [])
for spec in specs:
    entrolim.model_from_config({k: v for k, v in spec.items() if k != "name"})
"""


def import_entrolim():
    init = SRC / "entrolim" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: {init} not found; run the benchmark from a repository checkout")
    sys.path.insert(0, str(SRC))
    import entrolim
    import entrolim.cli  # noqa: F401 - the CLI module is part of what is measured

    if Path(entrolim.__file__).resolve() != init.resolve():
        raise SystemExit(f"error: imported entrolim from {entrolim.__file__}, not {init}")
    return entrolim


def machine_info(el) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "entrolim": el.__version__,
        "thread_pools": "sweep threads (1 or 2 per pass) plus cKDTree.query(workers=-1) "
        "inside every kNN call, one worker per core",
    }


def measure_setup(inputs: dict, repeats: int) -> list[float]:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), json.dumps(inputs)],
            cwd=ROOT,
            check=True,
            stdout=subprocess.DEVNULL,
        )
        times.append(time.perf_counter() - start)
    return times


CAL_STEPS = 120_000
CAL_SHARE = 0.15  # kernel time after a pass, as a share of the pass's time
CAL_NOISE = np.random.default_rng(0).standard_normal(CAL_STEPS)
CAL_POINTS = np.random.default_rng(1).standard_normal((30_000, 2))


def _calibration_kernel(share: int) -> None:
    d = CAL_NOISE[: CAL_STEPS // share]
    points = CAL_POINTS[: len(CAL_POINTS) // share]
    x = np.zeros_like(d)
    e = np.zeros_like(d)
    for k in range(1, d.shape[0]):
        x[k] = 0.9 * x[k - 1] + d[k]
        z = -0.5 * e[k - 1] + 0.1 * e[k - 2] if k > 1 else 0.0
        e[k] = x[k] + z
    magnitudes = np.sort(np.abs(e))
    float(np.mean(magnitudes**1.5))
    cKDTree(points).query(points, k=4, workers=1)


def calibrate(threads: int, budget: float) -> float:
    """Wall seconds of one run of the calibration kernel, its work split
    evenly over ``threads`` threads that run at the same time: the mean over
    as many runs as fill ``budget`` seconds, and at least one.

    The kernel is fixed and uses no entrolim code: a scalar closed loop
    stepped in Python over numpy arrays, as the simulator steps its
    controllers; the sort and powers of an Lp-norm estimate; and a
    two-dimensional kd-tree built and queried for 4 neighbours, as the kNN
    estimators do.  Two threads contend for the interpreter lock as a
    ``threads=2`` sweep does.  Run right after a pass, the kernel sees the
    host's speed of that moment, so pass time over kernel time stays put
    while the host's speed drifts.
    """
    start = time.perf_counter()
    runs = 0
    while runs == 0 or time.perf_counter() - start < budget:
        if threads == 1:
            _calibration_kernel(1)
        else:
            runners = [threading.Thread(target=_calibration_kernel, args=(threads,)) for _ in range(threads)]
            for runner in runners:
                runner.start()
            for runner in runners:
                runner.join()
        runs += 1
    return (time.perf_counter() - start) / runs


def reference_path(workload: str, size: str, variant: int) -> Path:
    return REFERENCE / f"{workload}-{size}-v{variant}.json"


class Tally:
    """Operations attempted and failed over every checked pass."""

    def __init__(self, wl, reference):
        self.wl, self.reference = wl, reference
        self.attempted = self.failed = 0
        self.problems: list[str] = []

    def check(self, raw) -> int:
        records = self.wl.collect(raw)
        bad = workloads.check(self.wl.name, records, self.reference)
        self.attempted += len(records)
        self.failed += len(bad)
        self.problems += bad
        return workloads.rows_scored(records)


def describe(name: str, values: list[float], unit: str) -> str:
    if len(values) < 2:
        return f"{name}: {values[0]:.6g} {unit} (n=1)"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (
        f"{name}: {statistics.median(values):.6g} {unit} "
        f"(median of {len(values)}; q1 {q1:.6g}, q3 {q3:.6g}, max {max(values):.6g})"
    )


def run_untraced(wl, tally, seconds: float, setup: list[float]) -> dict:
    """Each pass is followed by the calibration kernel at the pass's thread
    count and measured in units of that kernel run (``cal``)."""
    wall = {1: [], 2: []}
    in_cal = {1: [], 2: []}
    rows_per_cal = {1: [], 2: []}
    cal = {1: [], 2: []}
    tally.check(wl.run_pass(1, "t1")[1])  # warm-up
    start = time.perf_counter()
    batch = 0
    while batch == 0 or (time.perf_counter() - start) * (batch + 1) / batch <= seconds:
        for threads in ((1, 2) if batch % 2 == 0 else (2, 1)):
            seconds_taken, raw = wl.run_pass(threads, f"t{threads}")
            cal[threads].append(calibrate(threads, CAL_SHARE * seconds_taken))
            rows = tally.check(raw)
            wall[threads].append(seconds_taken)
            in_cal[threads].append(seconds_taken / cal[threads][-1])
            rows_per_cal[threads].append(rows / in_cal[threads][-1])
        batch += 1
    for name, values, unit in (
        ("setup_s", setup, "s"),
        ("t1 pass", wall[1], "s"),
        ("t2 pass", wall[2], "s"),
        ("t1 calibration kernel", cal[1], "s"),
        ("t2 calibration kernel", cal[2], "s"),
        ("t1 pass in cal", in_cal[1], "cal"),
        ("t2 pass in cal", in_cal[2], "cal"),
    ):
        print(describe(name, values, unit))
    metrics = {
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops_ok_ratio": (tally.attempted - tally.failed) / tally.attempted,
        "wall_cal": statistics.median(in_cal[1]),
        "cells_per_cal_t1": statistics.median(rows_per_cal[1]),
        "cells_per_cal_t2": statistics.median(rows_per_cal[2]),
    }
    return {name: (metrics[name], unit) for name, unit in END_TO_END.items()}


def run_traced(el, wl, tally, seconds: float, tag: str) -> dict:
    tracer = tracing.Tracer()
    plain, traced, per_pass, spans = [], [], [], []
    tally.check(wl.run_pass(1, "t1")[1])  # warm-up
    start = time.perf_counter()
    while not traced or (time.perf_counter() - start) * (len(traced) + 1) / len(traced) <= seconds:
        seconds_taken, raw = wl.run_pass(1, "t1")
        tally.check(raw)
        plain.append(seconds_taken)
        tracer.install(el)
        try:
            seconds_taken, raw = wl.run_pass(1, "t1")
        finally:
            tracer.uninstall()
        tally.check(raw)
        traced.append(seconds_taken)
        pass_spans, counters = tracer.take()
        per_pass.append(tracing.layer_metrics(pass_spans, counters))
        spans.append(pass_spans)

    metrics = {}
    for name in tracing.LAYER_METRICS:
        if name == "trace.overhead_ratio":
            continue
        values = [m[name] for m in per_pass]
        if name in tracing.COUNT_METRICS:
            if len(set(values)) != 1:
                tally.failed += 1
                tally.problems.append(f"count {name} differs between traced passes: {values}")
            metrics[name] = values[0]
        else:
            metrics[name] = statistics.median(values)
    metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain)
    print(describe("untraced pass", plain, "s"))
    print(describe("traced pass", traced, "s"))

    OUT.mkdir(parents=True, exist_ok=True)
    with open(OUT / f"spans-{tag}.jsonl", "w") as handle:
        for index, pass_spans in enumerate(spans):
            for span in pass_spans:
                handle.write(json.dumps({"pass": index, **span.to_json()}) + "\n")
    summary = {
        "workload": wl.name,
        "machine": machine_info(el),
        "passes": {"untraced_s": plain, "traced_s": traced},
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in tracing.LAYER_METRICS.items()},
        "calls": tracing.call_stats(spans[0]),
    }
    (OUT / f"trace-{tag}.json").write_text(json.dumps(summary, indent=2) + "\n")
    return {name: (metrics[name], tracing.LAYER_METRICS[name]) for name in tracing.REPORTED}


def write_reference(el, workload: str, size: str) -> None:
    for variant in range(workloads.VARIANTS):
        wl = workloads.Workload(el, workload, size, variant, OUT / "work" / workload)
        records = wl.collect(wl.run_pass(1, "t1")[1])
        problems = workloads.check(workload, records, records) + [
            key for key, rec in records.items() if rec.get("error", workloads.EXPECTED_ERROR) != workloads.EXPECTED_ERROR
        ]
        if problems:
            raise SystemExit(f"error: variant {variant} fails its own checks: {problems}")
        REFERENCE.mkdir(parents=True, exist_ok=True)
        lines = [f"{json.dumps(key)}: {json.dumps(rec, separators=(',', ':'))}" for key, rec in records.items()]
        reference_path(workload, size, variant).write_text("{\n" + ",\n".join(lines) + "\n}\n")
        print(f"wrote {reference_path(workload, size, variant)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=sorted(workloads.SIZES), default="bench")
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)

    el = import_entrolim()
    if args.write_reference:
        write_reference(el, args.workload, args.size)
        return 0

    reference_file = reference_path(args.workload, args.size, workloads.variant_of(args.seed))
    reference = json.loads(reference_file.read_text())
    inputs = workloads.raw_inputs(args.workload, args.size, args.seed)
    setup = [] if args.trace else measure_setup(inputs, SETUP_REPEATS[args.size])
    wl = workloads.Workload(el, args.workload, args.size, args.seed, OUT / "work" / args.workload)
    tally = Tally(wl, reference)
    if args.trace:
        tag = f"{args.workload}-{args.size}-seed{args.seed}"
        metrics = run_traced(el, wl, tally, args.seconds, tag)
    else:
        metrics = run_untraced(wl, tally, args.seconds, setup)
    for problem in tally.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
