"""The benchmark's three workloads, their passes and their output checks.

A workload is a fixed batch of calls into entrolim's public API.  A *pass*
runs the batch once as a closed loop: one caller (``threads=1``), or for the
``t2`` figures a sweep at ``threads=2`` or two callers sharing the
operation list.  ``collect`` turns what a pass left behind into one output
record per operation, and ``check`` compares those records with the
reference outputs committed under ``reference/``.

Inputs come from the seed: ``--seed n`` selects input variant ``n % 4``,
which sets every master seed and the random ARMA models.  The references
hold the outputs of all four variants at the two sizes.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import shutil
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

VARIANTS = 4
WORKLOADS = ("sweep_certify", "sweep_drive", "floors_verify")

SIZES = {
    "bench": {
        "certify_horizon": 12_000,
        "drive_horizon": 3_000,
        "learned_train_steps": 8_000,
        "floors_horizon": 2_000,
        "schedule_k": 320,
        "route_models": 8,
        "stepk_trials": 100,
    },
    "tiny": {
        "certify_horizon": 2_500,
        "drive_horizon": 2_500,
        "learned_train_steps": 2_000,
        "floors_horizon": 2_500,
        "schedule_k": 64,
        "route_models": 5,
        "stepk_trials": 50,
    },
}

# Output check: verdicts, labels and seeds must match exactly; numeric
# columns within this relative tolerance (absolute near zero).
RTOL = 1e-9
ATOL = 1e-12
ROUTE_AGREEMENT = 1e-8  # the CLI's own rule for the three bound routes
# report.csv / verify.csv columns as the check reads them (runtime_ms is ignored).
COLUMNS = (
    "cell_id", "model", "controller", "p", "k_or_asymptotic", "h_bits", "bound",
    "empirical", "std_error", "gap_ratio", "violation", "whiteness_pass", "ggfit_pass",
    "mi_lag1_bits", "seed",
)
NUMERIC_COLUMNS = {"h_bits", "bound", "empirical", "std_error", "gap_ratio", "mi_lag1_bits"}
EXPECTED_ERROR = "ValueError: random controllers support scalar models only"
EXPECTED_ERROR_CELLS = {"sweep_certify": 2}
STEP_KS = (0, 1, 4, 16, 64)
P_VALUES = [1, 2, "inf"]

AR1 = {"kind": "gauss_arma", "ar": [0.9], "name": "ar1"}
ARMA21 = {"kind": "gauss_arma", "ar": [0.5, -0.3], "ma": [0.4], "name": "arma21"}
UNIF = {"kind": "iid", "innovation": {"family": "gg", "p": "inf", "mu": 1.0}, "name": "unif"}
LAPAR = {
    "kind": "gengauss_ar",
    "ar": [0.7],
    "innovation": {"family": "gg", "p": 1, "mu": 1.0},
    "name": "lapar",
}
VEC = {
    "kind": "vector_gauss_ar",
    "transition": [[0.5, 0.1], [0.0, 0.3]],
    "innovation_covariance": [[1.0, 0.2], [0.2, 0.5]],
    "name": "vec",
}
VEC4 = {
    "kind": "vector_gauss_ar",
    "transition": [
        [0.5, 0.1, 0.0, 0.0],
        [0.0, 0.4, 0.1, 0.0],
        [0.0, 0.0, 0.3, 0.1],
        [0.1, 0.0, 0.0, 0.2],
    ],
    "innovation_covariance": [
        [1.0, 0.2, 0.0, 0.0],
        [0.2, 0.8, 0.1, 0.0],
        [0.0, 0.1, 0.6, 0.0],
        [0.0, 0.0, 0.0, 0.5],
    ],
    "name": "vec4",
}
ZERO = {"kind": "zero"}
PREDICTOR = {"kind": "predictor"}
RANDOM = {"kind": "random", "memory": 3, "gain_cap": 2.0}


def variant_of(seed: int) -> int:
    return seed % VARIANTS


def _random_arma_specs(count: int, variant: int) -> list[dict]:
    """Stable, invertible ARMA models drawn by placing roots inside the unit disc."""
    rng = np.random.default_rng([variant, 5])

    def poly(order):
        roots = []
        while len(roots) < order:
            if order - len(roots) >= 2 and rng.random() < 0.6:
                root = rng.uniform(0.1, 0.88) * np.exp(1j * rng.uniform(0.0, math.pi))
                roots.extend([root, root.conjugate()])
            else:
                roots.append(complex(rng.uniform(-0.88, 0.88)))
        return np.real(np.poly(roots)) if roots else np.array([1.0])

    specs = []
    for _ in range(count):
        ar = poly(int(rng.integers(1, 4)))
        ma = poly(int(rng.integers(0, 3)))
        specs.append(
            {
                "kind": "gauss_arma",
                "ar": [float(v) for v in -ar[1:]],
                "ma": [float(v) for v in ma[1:]],
                "innovation": {"family": "gaussian", "variance": float(rng.uniform(0.5, 2.0))},
            }
        )
    return specs


def raw_inputs(workload: str, size: str, seed: int) -> dict:
    """Every input of one workload as JSON-ready config dictionaries."""
    s = SIZES[size]
    v = variant_of(seed)
    if workload == "sweep_certify":
        return {
            "sweeps": [
                {
                    "models": [AR1, UNIF, VEC, ARMA21],
                    "controllers": [ZERO, PREDICTOR, RANDOM],
                    "p_values": P_VALUES,
                    "horizon": s["certify_horizon"],
                    "trials": 2,
                    "seed": v,
                }
            ]
        }
    if workload == "sweep_drive":
        learned = {"kind": "learned", "train_steps": s["learned_train_steps"]}
        return {
            "sweeps": [
                {
                    "models": [AR1, ARMA21, UNIF, LAPAR],
                    "controllers": [ZERO, PREDICTOR, learned, RANDOM],
                    "p_values": [1, 2, 4, "inf"],
                    "horizon": s["drive_horizon"],
                    "trials": 2,
                    "seed": v,
                },
                {
                    "models": [VEC, VEC4],
                    "controllers": [ZERO, PREDICTOR],
                    "p_values": [2],
                    "horizon": s["drive_horizon"],
                    "trials": 2,
                    "seed": v,
                },
            ]
        }
    if workload == "floors_verify":
        return {
            "cli": {
                "models": [AR1, ARMA21, UNIF, VEC],
                "controllers": [ZERO, PREDICTOR],
                "p_values": P_VALUES,
                "horizon": s["floors_horizon"],
                "trials": 2,
                "seed": v,
            },
            "anticipatory": {
                "models": [AR1],
                "controllers": [{"kind": "anticipatory"}],
                "seed": v,
            },
            "schedule_model": ARMA21,
            "schedule_k": s["schedule_k"],
            "route_models": _random_arma_specs(s["route_models"], v),
            "stepk_trials": s["stepk_trials"],
            "seed": v,
        }
    raise ValueError(f"unknown workload {workload!r}")


def _model_spec(spec: dict) -> dict:
    return {k: val for k, val in spec.items() if k != "name"}


# ---------------------------------------------------------------------------
# passes


class Workload:
    """One workload, built once per process from its inputs."""

    def __init__(self, el, name: str, size: str, seed: int, work_dir: Path):
        import entrolim.cli

        self.el = el
        self.cli = entrolim.cli
        self.name = name
        self.inputs = raw_inputs(name, size, seed)
        self.work_dir = work_dir
        work_dir.mkdir(parents=True, exist_ok=True)
        if "sweeps" in self.inputs:
            self.configs = [self.cli.config_from_dict(raw) for raw in self.inputs["sweeps"]]
        else:
            inputs = self.inputs
            self.cli_config = work_dir / "floors.json"
            self.cli_config.write_text(json.dumps(inputs["cli"]))
            self.anticipatory_config = work_dir / "anticipatory.json"
            self.anticipatory_config.write_text(json.dumps(inputs["anticipatory"]))
            self.schedule_model = el.model_from_config(_model_spec(inputs["schedule_model"]))
            self.route_models = [el.model_from_config(m) for m in inputs["route_models"]]
            self.stepk_controller = el.predictor_controller(self.schedule_model)
            self._saved = {}
            self._saved_lock = threading.Lock()
            self._capture_saved_traces()

    # The simulate check compares each trace read back from disk with the
    # trace the CLI handed to save_trace, so the CLI's binding is wrapped to
    # keep a reference to it.  The simulator's binding is looked up per call,
    # so a traced pass still records the save_trace span.
    def _capture_saved_traces(self):
        simulator = sys.modules["entrolim.simulator"]
        saved, lock = self._saved, self._saved_lock

        def keep_and_save(trace, path):
            with lock:
                saved[str(path)] = trace
            return simulator.save_trace(trace, path)

        self.cli.save_trace = keep_and_save

    def run_pass(self, threads: int, tag: str) -> tuple[float, list]:
        """Run the batch once; return (wall seconds, raw outcomes)."""
        out = self.work_dir / tag
        shutil.rmtree(out, ignore_errors=True)
        if self.name == "floors_verify":
            ops = self._floors_ops(out)
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                start = time.perf_counter()
                if threads == 1:
                    raw = [_guard(op) for _, op in ops]
                else:
                    with ThreadPoolExecutor(max_workers=threads) as pool:
                        raw = list(pool.map(_guard, [op for _, op in ops]))
                wall = time.perf_counter() - start
            return wall, list(zip([key for key, _ in ops], raw))
        tightness = self.name == "sweep_certify"
        start = time.perf_counter()
        results = [
            self.el.sweep(cfg, threads=threads, out_dir=out / f"grid{g}", tightness=tightness)
            for g, cfg in enumerate(self.configs)
        ]
        wall = time.perf_counter() - start
        return wall, [(f"grid{g}", (out / f"grid{g}", r.errors)) for g, r in enumerate(results)]

    def _floors_ops(self, out: Path) -> list:
        el, cli = self.el, self.cli
        ops = [
            ("cli audit", lambda: cli.main(["audit", "--config", str(self.cli_config)])),
            (
                "cli audit anticipatory",
                lambda: cli.main(["audit", "--config", str(self.anticipatory_config)]),
            ),
            (
                "cli verify",
                lambda: (
                    cli.main(["verify", "--config", str(self.cli_config), "--out", str(out / "verify")]),
                    out / "verify" / "verify.csv",
                ),
            ),
            ("cli simulate", lambda: self._simulate(cli, out / "simulate")),
            (
                "entropy_schedule",
                lambda: el.entropy_schedule(self.schedule_model, self.inputs["schedule_k"]),
            ),
        ]
        for i, model in enumerate(self.route_models):
            for p in (1.0, 2.0, math.inf):
                ops.append((f"routes m{i:02d} p{_p_label(p)}", _routes_op(el, model, p)))
        for k in STEP_KS:
            ops.append((f"step-k k{k}", _stepk_op(el, self.schedule_model, self.stepk_controller, k, self.inputs)))
        return ops

    def _simulate(self, cli, out: Path):
        code = cli.main(["simulate", "--config", str(self.cli_config), "--out", str(out)])
        loaded = {str(path): self.el.load_trace(path) for path in sorted(out.glob("*.csv"))}
        return code, loaded

    # -- output records ----------------------------------------------------

    def collect(self, raw: list) -> dict:
        """One JSON-ready output record per operation of the pass."""
        records = {}
        if self.name != "floors_verify":
            for grid, (out, errors) in raw:
                rows = _read_rows(out / "report.csv")
                for row in rows:
                    cell = row[0].split("p")[0].removesuffix("det")
                    records.setdefault(f"{grid} {cell}", {"rows": []})["rows"].append(row)
                for cell, message in errors:
                    records[f"{grid} {cell}"] = {"error": message}
            return dict(sorted(records.items()))
        for key, outcome in raw:
            if isinstance(outcome, _Failure):
                records[key] = {"error": outcome.message}
            elif key == "cli verify":
                code, path = outcome
                records[key] = {"exit": code, "rows": _read_rows(path) if path.exists() else []}
            elif key == "cli simulate":
                code, loaded = outcome
                records[key] = {"exit": code, "traces": self._trace_records(loaded)}
            elif key == "entropy_schedule":
                records[key] = {
                    "h_bits": [float(v) for v in outcome.h_bits],
                    "entropy_rate_bits": float(outcome.entropy_rate_bits),
                }
            elif key.startswith("cli"):
                records[key] = {"exit": outcome}
            else:
                records[key] = outcome
        return records

    def _trace_records(self, loaded: dict) -> dict:
        with self._saved_lock:
            saved = {path: self._saved.pop(path) for path in loaded if path in self._saved}
        out = {}
        for path, back in loaded.items():
            original = saved.get(path)
            exact = original is not None and all(
                np.array_equal(getattr(original, f), getattr(back, f)) for f in ("d", "z", "e")
            ) and (original.seed, original.model_descriptor, original.controller_descriptor) == (
                back.seed, back.model_descriptor, back.controller_descriptor
            )
            out[Path(path).name] = {
                "roundtrip_exact": bool(exact),
                "length": int(back.length),
                "seed": int(back.seed),
                "e_mean_square": float(np.mean(np.square(back.e))),
            }
        return out


class _Failure:
    def __init__(self, exc: BaseException):
        self.message = f"{type(exc).__name__}: {exc}"


def _guard(op):
    try:
        return op()
    except Exception as exc:  # noqa: BLE001 - an operation's error is its outcome
        return _Failure(exc)


def _p_label(p: float) -> str:
    return "inf" if math.isinf(p) else f"{p:g}"


def _routes_op(el, model, p):
    def op():
        direct = el.lp_bound_asymptotic(model, p).value
        spectral = el.spectral_lp_bound(model, p).value
        gw = el.gw_lp_bound(model, p).value
        return {"direct": direct, "spectral": spectral, "gw": gw}

    return op


def _stepk_op(el, model, controller, k, inputs):
    def op():
        rep = el.verify_bound(
            model, controller, 2.0, horizon=k + 1, seed=inputs["seed"],
            trials=inputs["stepk_trials"], k=k,
        )
        return {
            "bound": rep.bound.value,
            "h_bits": rep.bound.h_bits,
            "empirical": rep.empirical,
            "std_error": rep.std_error,
            "violation": rep.violation,
        }

    return op


def _read_rows(path: Path) -> list[list[str]]:
    """The rows of a report.csv / verify.csv as lists in ``COLUMNS`` order."""
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    header = rows[0]
    if header[:-1] != list(COLUMNS) or header[-1] != "runtime_ms":
        raise ValueError(f"{path}: unexpected columns {header}")
    return [row[:-1] for row in rows[1:]]


# ---------------------------------------------------------------------------
# checks


def _close(a, b) -> bool:
    if isinstance(a, str) or isinstance(b, str):
        try:
            a, b = float(a or "nan"), float(b or "nan")
        except ValueError:
            return a == b
    if isinstance(a, bool) or isinstance(b, bool):
        return a is b
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return math.isclose(a, b, rel_tol=RTOL, abs_tol=ATOL)


def _rows_match(rows, ref_rows) -> bool:
    if len(rows) != len(ref_rows):
        return False
    return all(
        len(row) == len(ref)
        and all(
            _close(a, b) if column in NUMERIC_COLUMNS else a == b
            for column, a, b in zip(COLUMNS, row, ref)
        )
        for row, ref in zip(rows, ref_rows)
    )


def _record_matches(key: str, record: dict, ref) -> bool:
    if ref is None:
        return False
    if "error" in record or "error" in ref:
        return record.get("error") == ref.get("error")
    if key.startswith("routes"):
        agree = all(
            abs(record[route] - record["direct"]) <= ROUTE_AGREEMENT for route in ("spectral", "gw")
        )
        return agree and _close(record["direct"], ref["direct"])
    if key.startswith("step-k"):
        return record["violation"] is ref["violation"] and all(
            _close(record[f], ref[f]) for f in ("bound", "h_bits", "empirical", "std_error")
        )
    if key == "entropy_schedule":
        return len(record["h_bits"]) == len(ref["h_bits"]) and all(
            _close(a, b) for a, b in zip(record["h_bits"] + [record["entropy_rate_bits"]],
                                         ref["h_bits"] + [ref["entropy_rate_bits"]])
        )
    if record.get("exit") != ref.get("exit"):
        return False
    if "traces" in record:
        traces, ref_traces = record["traces"], ref["traces"]
        return set(traces) == set(ref_traces) and all(
            t["roundtrip_exact"]
            and (t["length"], t["seed"]) == (r["length"], r["seed"])
            and _close(t["e_mean_square"], r["e_mean_square"])
            for t, r in ((traces[n], ref_traces[n]) for n in traces)
        )
    if "rows" in record:
        return _rows_match(record["rows"], ref["rows"])
    return True


def check(workload: str, records: dict, reference: dict) -> list[str]:
    """Keys of the operations whose output does not match the reference.

    A key the reference lacks, or one the pass did not produce, fails too.
    sweep_certify must also show exactly its expected error cells.
    """
    failed = [key for key, rec in records.items() if not _record_matches(key, rec, reference.get(key))]
    failed += [f"missing: {key}" for key in reference if key not in records]
    expected = EXPECTED_ERROR_CELLS.get(workload, 0)
    errors = [rec.get("error") for rec in records.values() if "error" in rec]
    if workload.startswith("sweep") and (
        len(errors) != expected or any(e != EXPECTED_ERROR for e in errors)
    ):
        failed.append(f"expected {expected} error cell(s) ({EXPECTED_ERROR}), got {errors}")
    return failed


def rows_scored(records: dict) -> int:
    """Verdict rows the pass produced: report/verify rows, route checks, step-k rows."""
    total = 0
    for key, rec in records.items():
        if "rows" in rec:
            total += len(rec["rows"])
        elif key.startswith(("routes", "step-k")) and "error" not in rec:
            total += 1
    return total
