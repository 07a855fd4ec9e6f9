"""Monte Carlo confrontation of the analytic bounds with simulated loops.

A verification cell pairs one disturbance model and one controller.
``_score_cell`` simulates the cell's traces on its one trace-seed rule
(k + 1 steps when k is fixed), and one loop builds every row of the cell:
per requested p for a scalar model, the L_p error norm against 2^h / C_p;
for a vector model one row, the determinant of the pooled second-moment
matrix against 2^(2h) / (2 pi e)^m, with the product of per-channel second
moments (Hadamard) held to the same floor.  ``_floor`` is the one source of
floors and ``_violates`` the one rule: a row violates only when
``empirical < bound - 3 * std_error`` (``_SIGMA_GUARD``), a vector row also
when its product does; anything closer is sampling noise by contract.  A
loop error that is not finite at some step is an error, never a verdict:
``_score_cell`` raises NonFiniteLoopError (a ValueError) naming the step.

The gap_ratio (empirical / bound) doubles as a tightness certificate:
ratios near 1 must come with white, GG-shaped errors or something is
wrong, and that is checked, not assumed.  Its gates are constants of
``estimators``: Ljung-Box over ``_LJUNG_BOX_LAGS`` lags at
``_LJUNG_BOX_ALPHA`` on at least ``_WHITENESS_MIN_SAMPLES`` samples (a
shorter window leaves the certificate out, not the row), the lag-1 kNN MI
on ``_KNN_MIN_SAMPLES`` to ``_MI_MAX_SAMPLES`` pairs, and KS at
``_KS_COEFF`` / sqrt(n).  The e-vs-d MI identity is a library diagnostic of
``tightness_report`` only.  Asymptotic cells measure within-trace
statistics after a burn-in of max(10 x model memory, 1000) steps; per-step
cells (k fixed) measure across independent trials at exactly index k.

``verify_bound`` and ``verify_mimo_bound`` score one cell directly.
``run_plan`` alone decides which controller of a ``config.ExperimentConfig``
runs on which seed, and ``PlanCell.controller()`` alone resolves it.
``run_cells`` scores a plan's cells in plan order, each failure isolated, in
worker processes (forked, on Linux only) once a plan's work reaches
``_FORK_MIN_STEPS``.  A cell's seed-independent parts are computed once:
its asymptotic floor per (model, p) in ``_asymptotic_floor``, and its
burn-in from the model's cached effective memory.
``sweep`` runs the plan with the config's trials, one trace per cell, and
writes deterministic CSV/JSON (reruns differ only in runtime_ms);
``entrolim verify`` runs the one-trial plan and pools ``trials`` traces per
cell.
"""

from __future__ import annotations

import csv
import json
import math
import multiprocessing
import os
import pickle
import sys
import time
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Optional

import numpy as np

from . import bounds as _bounds
from . import estimators as _estimators
from .config import ExperimentConfig, _controller_settings
from .processes import DisturbanceModel, NotAnalyticError, VectorGaussAR
from .simulator import (
    ControllerPolicy,
    SimulationTrace,
    anticipatory_double,
    learned_controller,
    predictor_controller,
    random_causal_controller,
    run_loop,
    run_loops,
    zero_controller,
)

__all__ = [
    "NonFiniteLoopError",
    "TightnessReport",
    "VerificationReport",
    "ProductBoundCheck",
    "SweepResult",
    "CellRow",
    "verify_bound",
    "verify_mimo_bound",
    "tightness_report",
    "sweep",
    "run_plan",
    "run_cells",
    "resolve_controller",
    "spawn_seeds",
    "default_burn_in",
    "write_rows_csv",
    "CSV_COLUMNS",
]

_SIGMA_GUARD = 3.0

CSV_COLUMNS = [
    "cell_id",
    "model",
    "controller",
    "p",
    "k_or_asymptotic",
    "h_bits",
    "bound",
    "empirical",
    "std_error",
    "gap_ratio",
    "violation",
    "whiteness_pass",
    "ggfit_pass",
    "mi_lag1_bits",
    "seed",
    "runtime_ms",
]


class NonFiniteLoopError(ValueError):
    """A simulated loop error went NaN or infinite: a numerical fault, not a verdict."""


def spawn_seeds(master_seed: int, count: int) -> list[int]:
    """Independent child seeds split deterministically off a master seed."""
    root = np.random.SeedSequence(master_seed)
    return [int(child.generate_state(1)[0]) for child in root.spawn(count)]


def default_burn_in(model: DisturbanceModel) -> int:
    return max(10 * model.effective_memory(), 1000)


@dataclass(frozen=True)
class TightnessReport:
    """Diagnostics that must accompany any equality claim.

    The lag-1 mutual informations are the estimator-level proxies for the
    matched pair I(e_k; past e) and I(e_k; past d), which agree on every
    honest trace.  The pass flags and the e-vs-e MI are read off the nested
    whiteness and GG-fit reports.  Only ``tightness_report`` computes the
    e-vs-d identity fields, and only when the e-vs-e MI ran; None means not
    computed.
    """

    whiteness: _estimators.WhitenessReport
    gg_fit: _estimators.GGFitReport
    mi_dist_lag1_bits: Optional[float] = None
    mi_dist_lag1_se: Optional[float] = None
    mi_identity_consistent: Optional[bool] = None

    @property
    def whiteness_pass(self) -> bool:
        return self.whiteness.passed()

    @property
    def gg_fit_pass(self) -> bool:
        return self.gg_fit.passed

    @property
    def mi_err_lag1_bits(self) -> float:
        return self.whiteness.mi_lag1_bits


@dataclass(frozen=True)
class ProductBoundCheck:
    """Hadamard product-of-variances comparison for vector cells."""

    bound: float
    empirical: float
    violation: bool

    @property
    def gap_ratio(self) -> float:
        return self.empirical / self.bound


@dataclass(frozen=True)
class VerificationReport:
    """One cell's outcome: analytic floor vs empirical norm plus diagnostics.

    ``gap_ratio`` (empirical / bound) is derived, never stored.
    """

    bound: _bounds.BoundReport
    empirical: float
    std_error: float
    violation: bool
    tightness: Optional[TightnessReport]
    seeds: tuple[int, ...]
    runtime_ms: int
    h_source: str = "analytic"
    product: Optional[ProductBoundCheck] = None

    @property
    def gap_ratio(self) -> float:
        return self.empirical / self.bound.value


def _mi_identity(
    e: np.ndarray, d: np.ndarray, white: _estimators.WhitenessReport, seed
) -> dict:
    """The e-vs-d lag-1 MI and whether it matches e-vs-e within 3 combined SE.

    Empty (the fields stay None) when the whiteness report carries no MI:
    a check that did not run never reads as passed.
    """
    if math.isnan(white.mi_lag1_bits):
        return {}
    cap = min(e.size - 1, _estimators._MI_MAX_SAMPLES)
    mi_dist, mi_dist_se, _ = _estimators.mutual_information_estimate(
        e[1 : cap + 1], d[:cap], seed=seed
    )
    guard = _SIGMA_GUARD * math.hypot(white.mi_lag1_se, mi_dist_se)
    return {
        "mi_dist_lag1_bits": mi_dist,
        "mi_dist_lag1_se": mi_dist_se,
        "mi_identity_consistent": abs(white.mi_lag1_bits - mi_dist) <= guard,
    }


def tightness_report(
    trace: SimulationTrace, p: float, *, burn_in: int = 0, seed=0
) -> TightnessReport:
    """Whiteness, GG(p) shape, and past-independence checks for one trace.

    The scoring path's certificate, under the same gate constants (see the
    module docstring), plus the e-vs-d MI identity check; both lag-1 MIs
    use at most ``estimators._MI_MAX_SAMPLES`` pairs.
    """
    e = np.asarray(trace.e, dtype=float).reshape(-1)[burn_in:]
    d = np.asarray(trace.d, dtype=float).reshape(-1)[burn_in:]
    white = _estimators.whiteness_stats(e, seed=seed)
    fit = _estimators.density_fit_gg(e, p)
    return TightnessReport(white, fit, **_mi_identity(e, d, white, seed))


def _violates(empirical: float, bound: float, std_error: float) -> bool:
    """The 3-SE rule: a violation only when ``empirical < bound - 3 * std_error``."""
    return bool(empirical < bound - _SIGMA_GUARD * std_error)


def _floor(
    model: DisturbanceModel, p: float, k: Optional[int], horizon: int, seed: int
) -> tuple[_bounds.BoundReport, str]:
    """A row's floor and its entropy source, "analytic" or "estimated".

    The determinant floor of a vector model, else the L_p floor at p; from
    the entropy rate when k is None, else from step k's conditional entropy,
    which is estimated on a path drawn on ``seed`` where a scalar model has
    no analytic one (up to memory 3).
    """
    if k is None:
        return _asymptotic_floor(model, p), "analytic"
    if model.dim > 1:
        return _bounds.mimo_det_bound_at_step(model, k), "analytic"
    try:
        return _bounds.lp_bound_at_step(model, p, k), "analytic"
    except NotAnalyticError:
        if k > 3:
            raise NotAnalyticError(
                f"no analytic conditional entropy at step {k} and the estimator "
                "fallback only reaches memory 3"
            )
    path = np.asarray(model.sample_path(max(horizon, 20_000), seed), dtype=float)
    series = path.reshape(-1)
    if k == 0:
        est = _estimators.entropy_estimate_1d(series)
    else:
        est = _estimators.conditional_entropy_estimate(series, memory=k, seed=seed)
    return _bounds.BoundReport("at_step", float(p), int(k), est.value_bits), "estimated"


@lru_cache(maxsize=256)
def _asymptotic_floor(model: DisturbanceModel, p: float) -> _bounds.BoundReport:
    """``_floor`` at k None, computed once per (model, p): the determinant
    floor of a vector model, else the L_p floor from the entropy rate."""
    if model.dim > 1:
        return _bounds.mimo_det_bound_asymptotic(model)
    return _bounds.lp_bound_asymptotic(model, p)


def _score_cell(
    model: DisturbanceModel,
    controller: ControllerPolicy,
    p_values,
    *,
    horizon: int,
    seed: int,
    trials: Optional[int] = None,
    k: Optional[int] = None,
    burn_in: Optional[int] = None,
    tightness: bool = True,
) -> list[tuple[float, VerificationReport]]:
    """Simulate and score one cell; every verdict comes from here.

    The one trace-seed rule: with ``trials`` None a scalar model runs one
    trace on ``seed``, which also drives the diagnostics and the step-k
    entropy estimate.  Otherwise, and always for a vector model, the cell
    pools the traces of the first n = ``trials`` (1 if None) seeds of
    ``spawn_seeds(seed, n + 1)``; the last one drives the diagnostics.
    Traces have ``horizon`` steps, or k + 1 when k is fixed.

    One loop builds the (p, report) rows: one per p for a scalar model, and
    for a vector model one determinant row filed under p = 2, as its floor
    does not depend on p.  Asymptotic scalar rows carry the tightness
    certificate when ``tightness`` is on and the post-burn-in window holds
    ``estimators._WHITENESS_MIN_SAMPLES`` samples.  The first runtime counts
    from the start of the simulation, each later one from the row before it.
    """
    if trials is not None and trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    start = time.perf_counter()
    vector = model.dim > 1
    if trials is None and not vector:
        run_seeds, aux_seed = [seed], seed
    else:
        *run_seeds, aux_seed = spawn_seeds(seed, (trials or 1) + 1)
    length = horizon if k is None else k + 1
    traces = run_loops(model, controller, length, run_seeds)
    if k is None:
        if burn_in is None:
            burn_in = default_burn_in(model)
        if horizon <= burn_in:
            raise ValueError(
                f"horizon {horizon} does not clear the burn-in window {burn_in}"
            )
        samples = np.concatenate([t.e[burn_in:] for t in traces], axis=0)
    else:
        samples = np.stack([t.e[k] for t in traces], axis=0)
    for trace in traces:
        finite = np.isfinite(trace.e.reshape(trace.length, -1)).all(axis=1)
        if not finite.all():
            raise NonFiniteLoopError(
                f"non-finite loop error at step {int(np.argmin(finite))} "
                f"of the trace with seed {trace.seed}"
            )

    white = None
    if k is None and tightness and not vector:
        e_first = traces[0].e[burn_in:]
        if e_first.size >= _estimators._WHITENESS_MIN_SAMPLES:
            white = _estimators.whiteness_stats(e_first, seed=aux_seed)
    scored = []
    for p in (2.0,) if vector else p_values:
        bound, h_source = _floor(model, p, k, horizon, aux_seed)
        product = None
        if vector:
            det = _estimators.covariance_det_estimate(samples)
            empirical, std_error = det.value, det.std_error
            power = float(np.prod(np.mean(samples**2, axis=0)))
            # Hadamard: product >= det >= bound, so the determinant's standard
            # error is a conservative guard for the product as well.
            product = ProductBoundCheck(bound.value, power, _violates(power, bound.value, std_error))
        else:
            empirical, std_error = _estimators.lp_norm_estimate(samples, p)
        tight = None
        if white is not None:
            tight = TightnessReport(white, _estimators.density_fit_gg(e_first, p))
        now = time.perf_counter()
        report = VerificationReport(
            bound=bound,
            empirical=empirical,
            std_error=std_error,
            violation=_violates(empirical, bound.value, std_error)
            or (product is not None and product.violation),
            tightness=tight,
            seeds=tuple(t.seed for t in traces),
            runtime_ms=int(1000 * (now - start)),
            h_source=h_source,
            product=product,
        )
        scored.append((p, report))
        start = now
    return scored


def verify_bound(
    model: DisturbanceModel,
    controller: ControllerPolicy,
    p: float,
    *,
    horizon: int,
    seed: int,
    trials: int = 1,
    k: Optional[int] = None,
    burn_in: Optional[int] = None,
    tightness: bool = True,
) -> VerificationReport:
    """Check one scalar cell.

    k = None (asymptotic): pools post-burn-in samples from ``trials``
    independent traces of ``horizon`` steps against the entropy-rate floor.
    k fixed: collects e_k across ``trials`` traces of k+1 steps against the
    step-k floor (the tightness block is skipped there; across-trial
    samples carry no serial structure to test).
    """
    if model.dim != 1:
        raise ValueError("verify_bound is scalar; use verify_mimo_bound")
    ((_, report),) = _score_cell(
        model, controller, (p,), horizon=horizon, seed=seed, trials=trials,
        k=k, burn_in=burn_in, tightness=tightness,
    )
    return report


def verify_mimo_bound(
    model: VectorGaussAR,
    controller: ControllerPolicy,
    *,
    horizon: int,
    seed: int,
    trials: int = 1,
    k: Optional[int] = None,
    burn_in: Optional[int] = None,
) -> VerificationReport:
    """Determinant and per-channel-product floors for a vector cell.

    The determinant of the pooled second-moment matrix is compared against
    the 2^(2h) / (2 pi e)^m floor; the product of per-channel second
    moments is compared against the same value (Hadamard), reported in the
    ``product`` block.  The cell violates when either comparison does.
    """
    if model.dim < 2:
        raise ValueError("vector model required; verify_bound handles scalar cells")
    ((_, report),) = _score_cell(
        model, controller, (), horizon=horizon, seed=seed, trials=trials, k=k, burn_in=burn_in
    )
    return report


# ---------------------------------------------------------------------------
# the run plan and controller resolution (shared by sweep and the CLI)


@dataclass(frozen=True)
class PlanCell:
    """One (model, controller, trial) run of a config; the cells of one
    ``run_plan`` call share one controller memo, which ``controller()`` fills."""

    model_name: str
    model: DisturbanceModel
    spec: dict
    trial: int
    trace_seed: int
    controller_seed: int
    _controllers: dict = field(default_factory=dict, compare=False, repr=False)

    @property
    def label(self) -> str:
        return self.spec.get("name", self.spec["kind"])

    @property
    def used_seed(self) -> Optional[int]:
        """The seed its controller is built from; None for the kinds that ignore it."""
        return _controller_settings(self.spec, self.controller_seed).get("seed")

    @property
    def controller_key(self) -> tuple:
        """(model name, spec entry, ``used_seed``): the cells of a plan that share
        it resolve one controller, so a seed-free one is built once per model."""
        return (self.model_name, id(self.spec), self.used_seed)

    def controller(self) -> ControllerPolicy:
        """The plan's controller for ``controller_key``, resolved at the first cell
        that asks (a forked worker fills its own copy of the memo).  A spec its
        model refuses is not memoized: it raises ValueError on every call."""
        key = self.controller_key
        if key not in self._controllers:
            self._controllers[key] = resolve_controller(self.spec, self.model, self.controller_seed)
        return self._controllers[key]


def run_plan(
    config: ExperimentConfig, trials: int, master_seed: Optional[int] = None
) -> list[PlanCell]:
    """The cells of ``config`` in model -> controller -> trial order.

    Cell i of n runs on trace seed ``spawn_seeds(master, 2 n)[2 i]`` and
    resolves its controller on ``[2 i + 1]``; ``master`` defaults to the
    config's master seed.  The cells share one controller memo, so each call
    resolves its own controllers.
    """
    master = config.master_seed if master_seed is None else master_seed
    n_cells = len(config.models) * len(config.controllers) * trials
    seeds = iter(spawn_seeds(master, 2 * n_cells))
    controllers = {}
    return [
        PlanCell(name, model, spec, trial, next(seeds), next(seeds), controllers)
        for name, model in zip(config.model_names, config.models)
        for spec in config.controllers
        for trial in range(trials)
    ]


def resolve_controller(
    spec: dict, model: DisturbanceModel, seed: int
) -> ControllerPolicy:
    """Instantiate a controller described by a config dictionary.

    The kinds and their numbers are those of ``_controller_settings``;
    anticipatory is a negative-control fixture that fails the causality
    audit on purpose.  A spec it refuses raises ValueError.
    """
    settings = _controller_settings(spec, seed)
    kind = spec["kind"]
    if kind == "zero":
        return zero_controller(model.dim)
    if kind == "predictor":
        return predictor_controller(model)
    if kind == "anticipatory":
        return anticipatory_double(model.dim)
    if isinstance(model, VectorGaussAR):  # a 1 x 1 one too: its paths are (n, 1)
        raise ValueError(f"{kind} controllers support scalar models only")
    if kind == "random":
        return random_causal_controller(**settings)
    train_seed, _ = spawn_seeds(settings["seed"], 2)
    trace = run_loop(model, zero_controller(model.dim), settings["train_steps"], train_seed)
    return learned_controller([trace], settings["memory"])


# ---------------------------------------------------------------------------
# sweeps


#: Whether ``run_cells`` may fork worker processes: on Linux only.
_FORK = sys.platform.startswith("linux")
#: ``run_cells`` forks only for a plan of at least ``_FORK_MIN_STEPS`` steps of work:
#: cells x horizon x pooled traces.  With the certificates on, each step counts
#: ``_KNN_WEIGHT`` times when some scalar cell's post-burn-in window reaches the kNN MI
#: (more than ``_KNN_MIN_SAMPLES`` samples; that makes a step about 4.5x dearer) and
#: ``_CERTIFICATE_WEIGHT`` times otherwise (the other certificates, about 1.5x).  The
#: weight is the plan's, not each cell's: weighted per cell, CI's grid.json at 12k (4 of
#: its 8 cells vector) would count 336k, below the crossover, where its pool is
#: faster.  Below the crossover a pool costs more than it saves: its first cell comes
#: back 15-25 ms after the call, and two busy workers run a cell about 1.4x slower on
#: two cores.  Median ``run_cells`` walls in ms, serial / 2 workers, weighted steps in
#: thousands, on a 2-core Xeon VM: ``sweep_drive``'s grid 1 (24) 19/35 and grid 0 (96)
#: 51/63, grid 0 at 4, 8, 12 and 16 trials (192-768) 98/109, 183/195, 290/278, 376/353;
#: with the certificates, the README example at horizon 5k and 10k (60, 120) 29/48,
#: 43/56, and at 15k and 20k (540, 720) 221/184, 273/219, CI's grid.json at 8k (128)
#: 33/45 and at 12k (576) 122/107, ``sweep_certify``'s grid at one trial and 6k, 8k
#: (144, 192) 58/68, 62/68 and 12k (864) 269/220, and at its two trials (1,728)
#: 444/377.  Each of these plans runs on its faster side.
_KNN_WEIGHT = 6
_CERTIFICATE_WEIGHT = 2
_FORK_MIN_STEPS = 500_000


_worker_score = None  # a forked worker's cell scorer, set by _start_worker


def _start_worker(score) -> None:
    """The pool initializer; it runs in each forked worker, never in the parent."""
    global _worker_score
    _worker_score = score
    _estimators._KDTREE_WORKERS = 1


def _score_in_worker(index: int):
    """Score cell ``index`` in a worker; an error that cannot cross the pipe
    comes back as a RuntimeError naming its type and message."""
    scored, error = _worker_score(index)
    if error is not None:
        try:
            pickle.loads(pickle.dumps(error))
        except Exception:  # noqa: BLE001 - any pickling failure
            error = RuntimeError(f"{type(error).__name__}: {error}")
    return scored, error


def _weighted_steps(cells, config: ExperimentConfig, pooled, tightness: bool) -> int:
    """A plan's work against ``_FORK_MIN_STEPS``, weighted as the constants say."""
    steps = len(cells) * config.horizon * (pooled or 1)
    if not tightness:
        return steps
    knn = any(
        cell.model.dim == 1
        and config.horizon - default_burn_in(cell.model) > _estimators._KNN_MIN_SAMPLES
        for cell in cells
    )
    return steps * (_KNN_WEIGHT if knn else _CERTIFICATE_WEIGHT)


def run_cells(cells, config: ExperimentConfig, *, pooled=None, tightness=True, threads=1):
    """Score the cells of a run plan; yield (cell, scored, error) in plan order.

    Each cell runs ``_score_cell`` on its trace seed with ``trials=pooled``
    and ``cell.controller()``.  An exception comes back as ``error``, with
    ``scored`` empty, and never stops the other cells.  ``threads`` > 1 scores the cells in up to that
    many worker processes, at most one per CPU, forked on Linux, which
    inherit the plan and the warm caches and get only cell indices.  A plan
    below the fork crossover (``_FORK_MIN_STEPS``), or any plan on another
    platform, runs serially in the calling process at any ``threads``, with
    the same outcomes.  Before it forks, the calling process imports the
    scipy subpackages a cell may reach (``linalg``, ``special``,
    ``spatial``), which the package otherwise loads at first use, so the
    workers inherit them.  A worker that dies makes ``BrokenProcessPool`` the
    error of its cell and of every cell that had not come back.  A fork
    copies only the calling thread: call it from a program's only thread
    that runs entrolim.
    """

    def score(index: int):
        cell = cells[index]
        try:
            return _score_cell(
                cell.model, cell.controller(), config.p_values, horizon=config.horizon,
                seed=cell.trace_seed, trials=pooled, tightness=tightness,
            ), None
        except Exception as exc:  # noqa: BLE001 - cell isolation is the point
            return [], exc

    if (
        threads > 1
        and len(cells) > 1
        and _FORK
        and _weighted_steps(cells, config, pooled, tightness) >= _FORK_MIN_STEPS
    ):
        # imported once here, inherited by every worker
        from scipy import linalg, spatial, special  # noqa: F401

        with ProcessPoolExecutor(
            min(threads, len(cells), len(os.sched_getaffinity(0))),
            mp_context=multiprocessing.get_context("fork"),
            initializer=_start_worker,
            initargs=(score,),
        ) as pool:
            futures = [pool.submit(_score_in_worker, index) for index in range(len(cells))]
            for cell, future in zip(cells, futures):
                try:
                    outcome = future.result()
                except BrokenExecutor as exc:  # BrokenProcessPool: a worker died
                    outcome = [], exc
                yield cell, *outcome
    else:
        for index, cell in enumerate(cells):
            yield cell, *score(index)


@dataclass(frozen=True)
class CellRow:
    """One CSV row of a sweep (one model x controller x seed x p)."""

    cell_id: str
    model: str
    controller: str
    p: float
    report: VerificationReport


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[CellRow, ...]
    errors: tuple[tuple[str, str], ...]
    summary: dict
    csv_path: Optional[Path]
    summary_path: Optional[Path]


def _format_value(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if math.isnan(value):
            return ""
        if math.isinf(value):
            return "inf"
        return f"{value:.12g}"
    return str(value)


def write_rows_csv(rows, path) -> None:
    """Write verification rows in the fixed sweep schema."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(CSV_COLUMNS)
        for row in rows:
            record = _row_record(row)
            writer.writerow([_format_value(record[col]) for col in CSV_COLUMNS])


def _row_record(row: CellRow) -> dict:
    rep = row.report
    tight = rep.tightness
    return {
        "cell_id": row.cell_id,
        "model": row.model,
        "controller": row.controller,
        "p": row.p,
        "k_or_asymptotic": "asymptotic" if rep.bound.k is None else rep.bound.k,
        "h_bits": rep.bound.h_bits,
        "bound": rep.bound.value,
        "empirical": rep.empirical,
        "std_error": rep.std_error,
        "gap_ratio": rep.gap_ratio,
        "violation": rep.violation,
        "whiteness_pass": None if tight is None else tight.whiteness_pass,
        "ggfit_pass": None if tight is None else tight.gg_fit_pass,
        "mi_lag1_bits": None if tight is None else tight.mi_err_lag1_bits,
        "seed": rep.seeds[0] if rep.seeds else "",
        "runtime_ms": rep.runtime_ms,
    }


def sweep(
    config: ExperimentConfig,
    *,
    threads: int = 1,
    out_dir=None,
    tightness: bool = True,
) -> SweepResult:
    """Cartesian sweep over {model x controller x seed x p}.

    Each cell of ``run_plan(config, config.trials)`` simulates one trace and
    is scored at every requested p.  Cells that raise are recorded in the
    summary and skipped, the sweep continues.  Output rows are written in
    plan order, so reruns with the same config and master seed are
    reproducible, at any ``threads``: ``run_cells`` forks that many workers
    only for a plan above its crossover and otherwise scores the cells
    serially.  No causality audit runs here; ``entrolim audit`` covers
    every controller a sweep resolves.
    """
    start = time.perf_counter()
    rows: list[CellRow] = []
    errors: list[tuple[str, str]] = []
    outcomes = run_cells(
        run_plan(config, config.trials), config, tightness=tightness, threads=threads
    )
    for index, (cell, scored, error) in enumerate(outcomes):
        cell_id = f"c{index:05d}"
        if error is not None:
            errors.append((cell_id, f"{type(error).__name__}: {error}"))
        for pi, (p, report) in enumerate(scored):
            tag = "det" if cell.model.dim > 1 else f"p{pi}"
            rows.append(CellRow(cell_id + tag, cell.model_name, cell.label, p, report))

    wall_ms = int(1000 * (time.perf_counter() - start))
    violations = sum(1 for row in rows if row.report.violation)
    worst = min((row.report.gap_ratio for row in rows), default=None)
    summary = {
        "cells": len(rows),
        "violations": violations,
        "worst_gap_ratio": worst,
        "wall_time_ms": wall_ms,
        "errors": [{"cell_id": cid, "message": msg} for cid, msg in errors],
    }

    csv_path = summary_path = None
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        csv_path = out_dir / "report.csv"
        write_rows_csv(rows, csv_path)
        summary_path = out_dir / "summary.json"
        with open(summary_path, "w") as handle:
            json.dump(summary, handle, indent=2, sort_keys=True)
            handle.write("\n")

    return SweepResult(
        rows=tuple(rows),
        errors=tuple(errors),
        summary=summary,
        csv_path=csv_path,
        summary_path=summary_path,
    )
