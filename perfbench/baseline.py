"""Measure the ROADMAP baseline figures and record them beside the benchmark.

    python3 perfbench/baseline.py

Runs the sizes the ROADMAP quotes (not the benchmark's smaller ones): the
README sweep config extended to 4 models x 3 controllers x 2 trials at
20k steps; entropy_schedule for ARMA(2,1) at K = 256, 512 and 1024;
save_trace of 20k rows; and the closed-loop drive per controller on AR(1)
at 20k steps (run_loop time minus sample_path time).  Each figure is the
median of a few repeats; the result goes to ``baseline-seed.json`` with
each ROADMAP figure, the ratio to it and whether it reproduced within the
tolerance below.
"""

from __future__ import annotations

import json
import platform
import statistics
import sys
import time

from run import BENCH, OUT, import_entrolim, machine_info
from workloads import AR1, ARMA21, PREDICTOR, RANDOM, UNIF, VEC, ZERO

# On a shared 2-core VM the same figure moves by up to about a fifth from one
# minute to the next, so a figure reproduces when it lies within 25% of the
# ROADMAP's.
TOLERANCE = 0.25

ROADMAP = {
    "sweep_t1_s": 6.2,
    "sweep_t2_s": 4.1,
    "sweep_no_tightness_s": 2.3,
    "entropy_schedule_k256_s": 0.27,
    "entropy_schedule_k512_s": 1.2,
    "entropy_schedule_k1024_s": 5.0,
    "save_trace_20k_ms": 139.0,
    "drive_zero_us_per_step": 1.0,
    "drive_predictor_us_per_step": 4.5,
    "drive_random_us_per_step": 9.5,
}


def median_time(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def main() -> int:
    el = import_entrolim()
    from entrolim.cli import config_from_dict

    config = config_from_dict(
        {
            "models": [AR1, UNIF, VEC, ARMA21],
            "controllers": [ZERO, PREDICTOR, RANDOM],
            "p_values": [1, 2, "inf"],
            "horizon": 20_000,
            "trials": 2,
            "seed": 0,
        }
    )
    figures = {
        "sweep_t1_s": median_time(lambda: el.sweep(config, threads=1), 3),
        "sweep_t2_s": median_time(lambda: el.sweep(config, threads=2), 3),
        "sweep_no_tightness_s": median_time(lambda: el.sweep(config, tightness=False), 3),
    }
    # Largest K first: the per-order caches then hold nothing a smaller K reuses.
    arma21 = el.model_from_config({k: v for k, v in ARMA21.items() if k != "name"})
    for k in (1024, 512, 256):
        figures[f"entropy_schedule_k{k}_s"] = median_time(lambda: el.entropy_schedule(arma21, k), 1)

    ar1 = el.GaussARMA(ar=(0.9,))
    OUT.mkdir(parents=True, exist_ok=True)
    trace = el.run_loop(ar1, el.zero_controller(), 20_000, 0)
    figures["save_trace_20k_ms"] = 1e3 * median_time(
        lambda: el.save_trace(trace, OUT / "baseline-trace.csv"), 5
    )
    sample = median_time(lambda: ar1.sample_path(20_000, 0), 5)
    controllers = {
        "zero": el.zero_controller(),
        "predictor": el.predictor_controller(ar1),
        "random": el.random_causal_controller(0, memory=3, gain_cap=2.0),
    }
    for name, controller in controllers.items():
        loop = median_time(lambda: el.run_loop(ar1, controller, 20_000, 0), 5)
        figures[f"drive_{name}_us_per_step"] = 1e6 * (loop - sample) / 20_000

    record = {
        "machine": {**machine_info(el), "cpu_model": cpu_model()},
        "tolerance": TOLERANCE,
        "figures": {
            name: {
                "measured": value,
                "roadmap": ROADMAP[name],
                "ratio": value / ROADMAP[name],
                "reproduced": abs(value / ROADMAP[name] - 1.0) <= TOLERANCE,
            }
            for name, value in figures.items()
        },
    }
    path = BENCH / "baseline-seed.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    for name, entry in record["figures"].items():
        print(
            f"{name:28s} {entry['measured']:10.4g}  roadmap {entry['roadmap']:<6g} "
            f"ratio {entry['ratio']:.2f} {'ok' if entry['reproduced'] else 'NOT REPRODUCED'}"
        )
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
