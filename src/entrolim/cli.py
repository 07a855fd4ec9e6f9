"""Command-line front end.

Subcommands:
    bound      analytic error floors per model and norm, with cross-route checks
    simulate   generate closed-loop traces and write them to CSV
    verify     audit controllers for causality, then confront floors with data
    sweep      Monte Carlo grid over models x controllers x norms
    audit      causality audits only (open loop and closed loop)

All subcommands read one JSON config through ``config.load_config`` (see
the package README for the schema) and share --seed (master seed override)
and --out (output directory) where applicable.  ``sweep`` scores its cells
in --threads worker processes (default: the ENTROLIM_THREADS environment
variable, else 1); the workers are forked on Linux for a plan above
``verify.run_cells``' fork crossover, and otherwise the cells run serially.

``verify.run_plan`` decides which controller runs on which seed: ``simulate``
and ``sweep`` run it with the config's trials, ``verify`` with one.  Each
resolves a controller once per distinct ``PlanCell.controller_key``.  ``audit``
audits every distinct controller of both plans, and prints an error line for
one its model refuses; ``sweep`` does not audit.
``sweep`` and ``verify`` score the plan's cells through ``verify.run_cells``;
``verify`` hands it the controllers its audit resolved, pools ``trials``
traces per cell and stops at the first cell that raises.

Exit codes:
    0   success
    2   configuration problem (bad JSON, unknown kinds or keys, invalid values);
        ``audit`` exits 2 when a model refused a controller and every
        controller it could resolve passed
    3   filesystem problem (unreadable config, unwritable output)
    4   a bound was violated, or analytic routes disagreed
    5   a controller failed a causality audit
    6   a numerical fault (a loop error went NaN or infinite); ``sweep``
        exits 6 only when every failed cell had such a fault, else 2
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import re
import sys
from dataclasses import replace
from pathlib import Path
from typing import Optional

from . import bounds as _bounds
from .config import ConfigError, ExperimentConfig, _ranged, config_from_dict, load_config
from .processes import NotAnalyticError
from .simulator import (
    causality_audit,
    closed_loop_causality_check,
    run_loop,
    save_trace,
)
from .spectral import SpectralIntegralError
from .verify import (
    CellRow,
    NonFiniteLoopError,
    _format_value,
    resolve_controller,
    run_cells,
    run_plan,
    sweep,
    write_rows_csv,
)

__all__ = [
    "main",
    "ExperimentConfig",
    "ConfigError",
    "load_config",
    "config_from_dict",
    "EXIT_OK",
    "EXIT_CONFIG",
    "EXIT_IO",
    "EXIT_VIOLATION",
    "EXIT_CAUSALITY",
    "EXIT_NUMERIC",
]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_VIOLATION = 4
EXIT_CAUSALITY = 5
EXIT_NUMERIC = 6

#: relative, so that bound's route verdict does not depend on the disturbance's units
_ROUTE_AGREEMENT = 1e-8
_AUDIT_SALT = 0x5EED


def _resolve_threads(value) -> int:
    if value is None:
        value = os.environ.get("ENTROLIM_THREADS", "1")
    try:
        threads = int(value)
    except (TypeError, ValueError):
        raise ConfigError(f"threads: expected an integer, got {value!r}")
    return _ranged(threads, "threads", 1)


def _p_label(p: float) -> str:
    return "inf" if math.isinf(p) else f"{p:g}"


def _slug(text: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.+-]+", "_", text)


# ---------------------------------------------------------------------------
# subcommands


#: bound's table: column, alignment and width, number format
_BOUND_TABLE = (
    ("model", "<16", ""), ("p", ">5", ""), ("h_bits", ">12", ".8g"), ("C_p", ">12", ".10g"),
    ("direct", ">14", ".10g"), ("spectral", ">14", ".10g"), ("gw", ">14", ".10g"),
    ("agree", ">6", ""),
)


def _route_value(route, model, p: float) -> Optional[float]:
    """``route(model, p).value``; None where the route has no analytic answer."""
    try:
        return route(model, p).value
    except (NotAnalyticError, SpectralIntegralError):
        return None


def _table_cell(value, align: str, number: str) -> str:
    """One cell of bound's table: a missing route prints "-", a verdict yes/NO."""
    if value is None or isinstance(value, bool):
        value, number = ("-" if value is None else "yes" if value else "NO"), ""
    return f"{value:{align}{number}}"


def cmd_bound(config: ExperimentConfig, out_dir: Optional[str]) -> int:
    """Print analytic floors per (model, p); check the spectral and GW routes."""
    print(" ".join(f"{column:{align}}" for column, align, _ in _BOUND_TABLE))
    rows = []
    for name, model in zip(config.model_names, config.models):
        if model.dim != 1:
            print(
                f"note: {name} is a vector model; "
                "use verify/sweep for its determinant floor",
                file=sys.stderr,
            )
            continue
        for p in config.p_values:
            direct = _bounds.lp_bound_asymptotic(model, p)
            routes = [
                _route_value(route, model, p)
                for route in (_bounds.spectral_lp_bound, _bounds.gw_lp_bound)
            ]
            tolerance = _ROUTE_AGREEMENT * abs(direct.value)
            agree = all(abs(v - direct.value) <= tolerance for v in routes if v is not None)
            row = [name, _p_label(p), direct.h_bits, direct.constant, direct.value, *routes, agree]
            rows.append(row)
            print(" ".join(_table_cell(v, a, n) for v, (_, a, n) in zip(row, _BOUND_TABLE)))
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        path = out / "bounds.csv"
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow([column for column, _, _ in _BOUND_TABLE])
            writer.writerows([_format_value(v) for v in row] for row in rows)
        print(f"wrote {path}")
    if not all(row[-1] for row in rows):
        print("error: analytic routes disagree beyond a relative 1e-8", file=sys.stderr)
        return EXIT_VIOLATION
    return EXIT_OK


def cmd_simulate(config: ExperimentConfig, out_dir: str) -> int:
    cells, controllers = {}, {}  # controllers by cell.controller_key
    for cell in run_plan(config, config.trials):
        name = f"{_slug(cell.model_name)}__{_slug(cell.label)}__t{cell.trial}.csv"
        entry = next(i for i, spec in enumerate(config.controllers) if spec is cell.spec)
        where = f"model {cell.model_name!r} / controllers[{entry}] t{cell.trial}"
        if name in cells:
            raise ConfigError(f"simulate: {cells[name][1]} and {where} would both write {name}")
        key = cell.controller_key
        if key not in controllers:
            controllers[key] = resolve_controller(cell.spec, cell.model, cell.controller_seed)
        cells[name] = cell, where, controllers[key]
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, (cell, _, controller) in cells.items():
        trace = run_loop(cell.model, controller, config.horizon, cell.trace_seed)
        save_trace(trace, out / name)
    print(f"wrote {len(cells)} trace(s) to {out}")
    return EXIT_OK


def _audited(config: ExperimentConfig, plans):
    """Resolve and audit each distinct controller of the plans with ``plans`` trials.

    Probes come from the same cell of the salted plan.  A controller is one
    ``cell.controller_key``: (model, spec entry, ``cell.used_seed``).  Yields
    (trials, cell, audited, error): audited is (controller, open report,
    closed report), or None with the ValueError of a controller its model
    refuses.
    """
    seen = set()
    for trials in plans:
        salted = run_plan(config, trials, config.master_seed ^ _AUDIT_SALT)
        for cell, audit_cell in zip(run_plan(config, trials), salted):
            key = cell.controller_key
            if key in seen:
                continue
            seen.add(key)
            try:
                controller = resolve_controller(cell.spec, cell.model, cell.controller_seed)
            except ValueError as exc:
                yield trials, cell, None, exc
                continue
            probe = audit_cell.controller_seed
            open_rep = causality_audit(controller, seed=probe)
            closed_rep = closed_loop_causality_check(cell.model, controller, seed=probe)
            yield trials, cell, (controller, open_rep, closed_rep), None


def cmd_audit(config: ExperimentConfig) -> int:
    # the one-trial plan is what verify scores, the config's plan what
    # simulate and sweep run; a line for the latter names its trial.  A
    # controller its model refuses prints an error line, and the rest are
    # still audited
    failed = refused = False
    plans = sorted({1, config.trials})
    for trials, cell, audited, error in _audited(config, plans):
        trial = f" t{cell.trial}" if trials > 1 else ""
        name = f"{cell.model_name} / {cell.label}{trial}"
        if error is not None:
            refused = True
            print(f"{'error':6s} {name}: {error}")
            continue
        _, open_rep, closed_rep = audited
        ok = open_rep.passed and closed_rep.passed
        failed = failed or not ok
        detail = ""
        if not open_rep.passed:
            detail += f" open-loop violations at {list(open_rep.violations[:3])}"
        if not closed_rep.passed:
            detail += f" closed-loop violations at {list(closed_rep.violations[:3])}"
        print(
            f"{'ok' if ok else 'FAILED':6s} {name}: "
            f"open {open_rep.trials} trials, closed {closed_rep.trials} trials"
            f"{detail}"
        )
    return EXIT_CAUSALITY if failed else EXIT_CONFIG if refused else EXIT_OK


def cmd_verify(config: ExperimentConfig, out_dir: Optional[str]) -> int:
    # controllers must prove causality before any bound is scored; each is
    # resolved once, so the object audited is the one scored
    pairs = []
    audit_failed = False
    for _, cell, audited, error in _audited(config, [1]):
        if error is not None:
            raise error
        controller, open_rep, closed_rep = audited
        pairs.append((cell, controller))
        if not (open_rep.passed and closed_rep.passed):
            audit_failed = True
            print(f"causality FAILED: {cell.model_name} / {cell.label}", file=sys.stderr)
    if audit_failed:
        return EXIT_CAUSALITY

    cells, controllers = zip(*pairs)
    rows: list[CellRow] = []
    outcomes = run_cells(cells, config, pooled=config.trials, controllers=controllers)
    for cell, scored, error in outcomes:
        if error is not None:
            raise error
        for p, rep in scored:
            rows.append(CellRow(f"v{len(rows):05d}", cell.model_name, cell.label, p, rep))
            norm = f"p={_p_label(p):<4}" if cell.model.dim == 1 else "det-floor"
            print(
                f"{'VIOLATION' if rep.violation else 'ok':9s} "
                f"{cell.model_name} / {cell.label} {norm} "
                f"bound={rep.bound.value:.6g} "
                f"empirical={rep.empirical:.6g} "
                f"gap={rep.gap_ratio:.4f}"
            )
    violations = sum(row.report.violation for row in rows)
    print(f"{violations} violation(s) across {len(rows)} cell(s)")
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        write_rows_csv(rows, out / "verify.csv")
        print(f"wrote {out / 'verify.csv'}")
    return EXIT_VIOLATION if violations else EXIT_OK


def cmd_sweep(config: ExperimentConfig, out_dir: str, threads: int) -> int:
    result = sweep(config, threads=threads, out_dir=out_dir)
    print(json.dumps(result.summary, indent=2, sort_keys=True))
    if result.summary["violations"]:
        return EXIT_VIOLATION
    if result.errors:
        if all(msg.startswith("NonFiniteLoopError:") for _, msg in result.errors):
            return EXIT_NUMERIC
        return EXIT_CONFIG
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entrolim",
        description="entropy floors on feedback error: bounds, simulation, "
        "verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, out_required=False, out=True, threads=False):
        sp.add_argument("--config", required=True, help="path to a JSON config")
        sp.add_argument(
            "--seed", type=int, default=None, help="override the config master seed"
        )
        if out:
            sp.add_argument(
                "--out",
                required=out_required,
                default=None,
                help="output directory",
            )
        if threads:
            sp.add_argument(
                "--threads",
                type=int,
                default=None,
                help="worker processes, forked on Linux for a large plan; "
                "serial otherwise (default: ENTROLIM_THREADS or 1)",
            )

    common(sub.add_parser("bound", help="print analytic floors per model and p"))
    common(
        sub.add_parser("simulate", help="write closed-loop traces to CSV"),
        out_required=True,
    )
    common(sub.add_parser("verify", help="audit causality, then score bounds"))
    common(
        sub.add_parser("sweep", help="Monte Carlo grid with CSV/JSON output"),
        out_required=True,
        threads=True,
    )
    common(sub.add_parser("audit", help="causality audits only"), out=False)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_CONFIG

    try:
        config = load_config(args.config)
        if args.seed is not None:
            config = replace(config, master_seed=_ranged(args.seed, "--seed", 0))

        if args.command == "bound":
            return cmd_bound(config, args.out)
        if args.command == "simulate":
            return cmd_simulate(config, args.out)
        if args.command == "verify":
            return cmd_verify(config, args.out)
        if args.command == "sweep":
            threads = _resolve_threads(args.threads)
            return cmd_sweep(config, args.out, threads)
        if args.command == "audit":
            return cmd_audit(config)
        raise AssertionError(f"unhandled command {args.command!r}")
    except NonFiniteLoopError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:  # ConfigError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
