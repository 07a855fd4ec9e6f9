"""Verification harness: seed splitting, single-cell checks, tightness
certificates, controller resolution, and sweep output determinism.
"""

import csv
import dataclasses
import importlib.util
import json
import math
import os
import re
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import entrolim as el
from entrolim import cli, estimators
from entrolim import verify as verify_module
from entrolim.cli import ExperimentConfig

AR1 = el.GaussARMA(ar=(0.9,))

VEC = el.VectorGaussAR(
    transition=((0.5, 0.1), (0.0, 0.3)),
    innovation_covariance=((1.0, 0.2), (0.2, 0.5)),
)


def _config(models, names, controllers, p_values, horizon=4_000, trials=1, seed=7):
    return ExperimentConfig(
        models=tuple(models),
        model_names=tuple(names),
        controllers=tuple(controllers),
        p_values=tuple(p_values),
        horizon=horizon,
        trials=trials,
        master_seed=seed,
    )


def test_spawn_seeds_deterministic_and_distinct():
    a = el.spawn_seeds(123, 8)
    assert a == el.spawn_seeds(123, 8)
    assert len(a) == 8
    assert len(set(a)) == 8
    assert all(0 <= s < 2**32 for s in a)
    assert el.spawn_seeds(124, 8) != a


def test_default_burn_in():
    assert el.default_burn_in(el.IID(el.GeneralizedGaussian.gaussian(1.0))) == 1000
    assert el.default_burn_in(AR1) == 1000  # floor dominates short memories
    assert el.default_burn_in(el.GaussARMA(ar=(0.999,))) == 10_000


# ---------------------------------------------------------------------------
# single cells


def test_verify_asymptotic_predictor_cell():
    report = el.verify_bound(
        AR1, el.predictor_controller(AR1), 2.0, horizon=20_000, seed=3, trials=2
    )
    assert not report.violation
    assert report.h_source == "analytic"
    assert report.gap_ratio == pytest.approx(1.0, abs=0.05)
    assert report.bound.value == pytest.approx(1.0, rel=1e-12)
    assert len(report.seeds) == 2
    assert report.tightness is not None
    assert report.tightness.whiteness_pass
    assert report.tightness.gg_fit_pass
    assert report.tightness.mi_identity_consistent is None
    assert report.runtime_ms >= 0
    # the identity check runs on the first pooled trace, with the certificate's seed
    first, _, aux = el.spawn_seeds(3, 3)
    trace = el.run_loop(AR1, el.predictor_controller(AR1), 20_000, first)
    cert = el.tightness_report(trace, 2.0, burn_in=el.default_burn_in(AR1), seed=aux)
    assert cert.mi_identity_consistent


def test_verify_asymptotic_zero_cell_has_slack():
    report = el.verify_bound(
        AR1, el.zero_controller(), 2.0, horizon=20_000, seed=4, tightness=True
    )
    assert not report.violation
    assert report.gap_ratio == pytest.approx(math.sqrt(1 / 0.19), rel=0.03)
    assert report.tightness is not None
    assert not report.tightness.whiteness_pass


def test_verify_rejects_vector_model():
    with pytest.raises(ValueError, match="scalar"):
        el.verify_bound(VEC, el.zero_controller(dim=2), 2.0, horizon=5_000, seed=0)


@pytest.mark.parametrize("trials", [0, -1])
def test_verify_rejects_trials_below_one(trials):
    # 0 used to score one trace and -1 to fail on an unrelated unpacking error
    with pytest.raises(ValueError, match=rf"trials must be >= 1, got {trials}"):
        el.verify_bound(AR1, el.zero_controller(), 2.0, horizon=5_000, seed=0, trials=trials)
    with pytest.raises(ValueError, match=rf"trials must be >= 1, got {trials}"):
        el.verify_mimo_bound(VEC, el.zero_controller(dim=2), horizon=5_000, seed=0, trials=trials)


def test_verify_rejects_horizon_inside_burn_in():
    with pytest.raises(ValueError, match="burn-in"):
        el.verify_bound(AR1, el.zero_controller(), 2.0, horizon=500, seed=0)


def test_verify_at_step_across_trials():
    report = el.verify_bound(
        AR1, el.zero_controller(), 2.0, horizon=10, seed=5, trials=400, k=0
    )
    # e_0 = d_0 and the k = 0 floor is the stationary deviation: tight
    assert report.bound.k == 0
    assert report.gap_ratio == pytest.approx(1.0, abs=0.12)
    assert not report.violation
    assert report.tightness is None  # across-trial samples, no serial axis
    one_step = el.verify_bound(
        AR1, el.predictor_controller(AR1), 2.0, horizon=10, seed=6, trials=400, k=1
    )
    assert one_step.bound.value == pytest.approx(1.0, rel=1e-12)
    assert one_step.gap_ratio == pytest.approx(1.0, abs=0.12)


def test_verify_estimated_entropy_fallback():
    # the marginal of an AR-filtered uniform has no closed form; at k = 0
    # the harness estimates h from an auxiliary path instead of refusing
    model = el.GenGaussAR(ar=(0.9,), innovation=el.GeneralizedGaussian.uniform(1.0))
    report = el.verify_bound(
        model,
        el.zero_controller(),
        2.0,
        horizon=20_000,
        seed=8,
        trials=300,
        k=0,
    )
    assert report.h_source == "estimated"
    assert not report.violation
    assert report.gap_ratio == pytest.approx(1.0, abs=0.12)
    # at or past the AR order the innovation entropy is exact again
    analytic = el.verify_bound(
        model, el.zero_controller(), 2.0, horizon=10, seed=8, trials=50, k=1
    )
    assert analytic.h_source == "analytic"


def test_verify_mimo_det_and_product():
    report = el.verify_mimo_bound(
        VEC, el.predictor_controller(VEC), horizon=20_000, seed=9
    )
    assert report.bound.value == pytest.approx(0.46, rel=1e-10)
    assert report.gap_ratio == pytest.approx(1.0, abs=0.05)
    assert not report.violation
    assert report.product is not None
    assert report.product.bound == report.bound.value
    assert report.product.empirical >= report.empirical * (1 - 1e-12)
    assert not report.product.violation

    slack = el.verify_mimo_bound(VEC, el.zero_controller(dim=2), horizon=20_000, seed=10)
    det_stationary = float(np.linalg.det(VEC.stationary_covariance()))
    assert slack.empirical == pytest.approx(det_stationary, rel=0.1)
    assert slack.gap_ratio > 1.5


def test_verify_mimo_at_step():
    report = el.verify_mimo_bound(
        VEC, el.zero_controller(dim=2), horizon=10, seed=11, trials=400, k=0
    )
    det_stationary = float(np.linalg.det(VEC.stationary_covariance()))
    assert report.bound.value == pytest.approx(det_stationary, rel=1e-10)
    assert report.gap_ratio == pytest.approx(1.0, abs=0.2)
    assert not report.violation


def test_verify_mimo_rejects_scalar():
    with pytest.raises(ValueError, match="vector"):
        el.verify_mimo_bound(AR1, el.zero_controller(), horizon=5_000, seed=0)


def _nan_policy(dim=1):
    if dim == 1:
        return el.ControllerPolicy(step=lambda e, z: math.nan, descriptor="nan")
    return el.ControllerPolicy(
        step=lambda e, z: np.full(dim, math.nan),
        initial_output=np.zeros(dim),
        descriptor="nan",
        dim=dim,
    )


def test_verify_rejects_non_finite_loop_error():
    with pytest.raises(ValueError, match="non-finite loop error at step 1"):
        el.verify_bound(AR1, _nan_policy(), 2.0, horizon=3_000, seed=0)


def test_verify_mimo_rejects_non_finite_loop_error():
    with pytest.raises(ValueError, match="non-finite loop error at step 1"):
        el.verify_mimo_bound(VEC, _nan_policy(dim=2), horizon=3_000, seed=0)


# ---------------------------------------------------------------------------
# tightness certificates


def test_tightness_white_trace():
    trace = el.run_loop(AR1, el.predictor_controller(AR1), 20_000, seed=12)
    cert = el.tightness_report(trace, 2.0, burn_in=1_000)
    assert cert.whiteness_pass
    assert cert.gg_fit_pass
    assert math.isfinite(cert.mi_err_lag1_bits)
    assert math.isfinite(cert.mi_dist_lag1_bits)
    assert cert.mi_identity_consistent


def test_tightness_identity_is_none_when_not_run():
    short = el.run_loop(AR1, el.predictor_controller(AR1), 3_000, seed=14)
    cert = el.tightness_report(short, 2.0, burn_in=1_000)
    assert math.isnan(cert.mi_err_lag1_bits)
    assert cert.mi_dist_lag1_bits is None
    assert cert.mi_dist_lag1_se is None
    assert cert.mi_identity_consistent is None
    long = el.run_loop(AR1, el.predictor_controller(AR1), 21_000, seed=15)
    assert el.tightness_report(long, 2.0, burn_in=1_000).mi_identity_consistent is True


def _certified_config():
    # 11k post-burn-in samples: past the 10k the lag-1 kNN MI needs
    p_values = [1.0, 2.0, math.inf]
    return _config([AR1], ["ar1"], [{"kind": "predictor"}], p_values, horizon=12_000)


def test_sweep_certificate_is_tightness_report_without_the_identity():
    config = _certified_config()
    result = el.sweep(config)
    assert not result.errors
    (cell,) = verify_module.run_plan(config, 1)
    trace = el.run_loop(AR1, el.predictor_controller(AR1), 12_000, cell.trace_seed)
    for row in result.rows:
        got = row.report.tightness
        want = el.tightness_report(
            trace, row.p, burn_in=el.default_burn_in(AR1), seed=cell.trace_seed
        )
        for report_name in ("whiteness", "gg_fit"):
            got_part, want_part = getattr(got, report_name), getattr(want, report_name)
            for field in dataclasses.fields(got_part):
                got_value = getattr(got_part, field.name)
                assert np.array_equal(got_value, getattr(want_part, field.name)), field
        assert got.mi_err_lag1_bits == want.mi_err_lag1_bits
        assert got.whiteness_pass == want.whiteness_pass
        assert got.gg_fit_pass == want.gg_fit_pass
        assert math.isfinite(got.mi_err_lag1_bits)
        assert want.mi_identity_consistent is not None
        assert got.mi_dist_lag1_bits is None
        assert got.mi_dist_lag1_se is None
        assert got.mi_identity_consistent is None


def test_sweep_rows_derive_ratios_and_flags():
    # the ratio and the certificate flags are read off what the row measured
    p_values = [1.0, 2.0, math.inf]
    config = _config(
        [AR1, VEC], ["ar1", "vec"], [{"kind": "predictor"}], p_values, horizon=12_000
    )
    result = el.sweep(config)
    assert not result.errors
    assert len(result.rows) == 4
    for row in result.rows:
        rep = row.report
        assert rep.gap_ratio == rep.empirical / rep.bound.value
        if rep.product is not None:
            assert rep.product.gap_ratio == rep.product.empirical / rep.product.bound
            continue
        tight = rep.tightness
        assert tight.whiteness_pass == tight.whiteness.passed()
        assert tight.gg_fit_pass == tight.gg_fit.passed
        assert tight.mi_err_lag1_bits == tight.whiteness.mi_lag1_bits


def test_certified_cell_builds_one_two_dimensional_knn(monkeypatch):
    dims = []
    knn_radii = estimators._knn_radii

    def recording(points, k):
        dims.append(points.shape[1])
        return knn_radii(points, k)

    monkeypatch.setattr(estimators, "_knn_radii", recording)
    result = el.sweep(_certified_config())
    assert len(result.rows) == 3
    # the lag-1 MI of e with itself: two 1-D marginals and one 2-D joint
    assert sorted(dims) == [1, 1, 2]


def test_whiteness_alpha_is_one_constant(monkeypatch, tmp_path):
    # the sweep's whiteness_pass column and tightness_report read one alpha
    trace = el.run_loop(AR1, el.predictor_controller(AR1), 12_000, seed=16)
    burn_in = el.default_burn_in(AR1)
    assert el.tightness_report(trace, 2.0, burn_in=burn_in).whiteness_pass
    monkeypatch.setattr(estimators, "_LJUNG_BOX_ALPHA", 1.0)
    assert not el.tightness_report(trace, 2.0, burn_in=burn_in).whiteness_pass
    el.sweep(_certified_config(), out_dir=tmp_path)
    with open(tmp_path / "report.csv", newline="") as handle:
        column = [row["whiteness_pass"] for row in csv.DictReader(handle)]
    assert column == ["false"] * 3


def test_mi_cap_is_one_constant(monkeypatch):
    # the e-vs-e (whiteness) and e-vs-d (identity) lag-1 MIs take one cap
    trace = el.run_loop(AR1, el.predictor_controller(AR1), 12_000, seed=16)
    sizes = []
    real_mi = estimators.mutual_information_estimate

    def recording(x, y, **kwargs):
        sizes.append((len(x), len(y)))
        return real_mi(x, y, **kwargs)

    monkeypatch.setattr(estimators, "_MI_MAX_SAMPLES", 10_500)
    monkeypatch.setattr(estimators, "mutual_information_estimate", recording)
    cert = el.tightness_report(trace, 2.0, burn_in=el.default_burn_in(AR1))
    assert sizes == [(10_500, 10_500)] * 2
    assert cert.mi_identity_consistent is not None


def test_tightness_colored_trace_fails_whiteness():
    trace = el.run_loop(AR1, el.zero_controller(), 20_000, seed=13)
    cert = el.tightness_report(trace, 2.0, burn_in=1_000)
    assert not cert.whiteness_pass
    assert cert.whiteness.autocorrelations[0] == pytest.approx(0.9, abs=0.02)
    assert cert.mi_err_lag1_bits > 0.5


# ---------------------------------------------------------------------------
# controller resolution


def test_resolve_controller_kinds():
    assert el.resolve_controller({"kind": "zero"}, AR1, 0).descriptor == "zero"
    pred = el.resolve_controller({"kind": "predictor"}, AR1, 0)
    assert pred.descriptor.startswith("predictor[")
    rand = el.resolve_controller({"kind": "random", "memory": 2, "gain_cap": 1.0}, AR1, 5)
    probe = np.linspace(-3, 3, 40)
    again = el.resolve_controller({"kind": "random", "memory": 2, "gain_cap": 1.0}, AR1, 5)
    assert np.array_equal(rand.run(probe, False)[0], again.run(probe, False)[0])
    assert np.max(np.abs(rand.run(100 * probe, False)[0])) <= 1.0
    anticip = el.resolve_controller({"kind": "anticipatory"}, AR1, 0)
    assert not el.causality_audit(anticip, trials=5).passed


def test_resolve_learned_controller_trains():
    ctrl = el.resolve_controller({"kind": "learned", "train_steps": 20_000}, AR1, 31)
    trace = el.run_loop(AR1, ctrl, 20_000, seed=32)
    assert np.var(trace.e[100:]) == pytest.approx(1.0, rel=0.05)


def test_resolve_controller_errors():
    with pytest.raises(ValueError, match="kind"):
        el.resolve_controller({"kind": "pid"}, AR1, 0)
    with pytest.raises(ValueError, match="object"):
        el.resolve_controller("zero", AR1, 0)
    with pytest.raises(ValueError, match="scalar"):
        el.resolve_controller({"kind": "random"}, VEC, 0)
    with pytest.raises(ValueError, match="scalar"):
        el.resolve_controller({"kind": "learned"}, VEC, 0)


# ---------------------------------------------------------------------------
# sweeps


def _strip_runtime(csv_path):
    with open(csv_path, newline="") as handle:
        rows = list(csv.reader(handle))
    drop = rows[0].index("runtime_ms")
    return [row[:drop] + row[drop + 1 :] for row in rows]


def test_sweep_grid_and_reproducibility(tmp_path):
    config = _config(
        models=[AR1, el.IID(el.GeneralizedGaussian.uniform(1.0))],
        names=["ar1", "unif"],
        controllers=[{"kind": "zero"}, {"kind": "predictor"}],
        p_values=[1.0, 2.0, math.inf],
    )
    result = el.sweep(config, out_dir=tmp_path / "a")
    assert result.summary["cells"] == 12  # 2 models x 2 controllers x 3 p
    assert result.summary["violations"] == 0
    assert result.summary["errors"] == []
    assert result.summary["worst_gap_ratio"] >= 1.0 - 0.05
    assert result.csv_path.name == "report.csv"
    assert result.summary_path.name == "summary.json"

    with open(result.csv_path, newline="") as handle:
        header = next(csv.reader(handle))
    assert header == el.CSV_COLUMNS

    again = el.sweep(config, out_dir=tmp_path / "b")
    assert _strip_runtime(result.csv_path) == _strip_runtime(again.csv_path)

    summary = json.loads(result.summary_path.read_text())
    assert set(summary) == {
        "cells", "violations", "worst_gap_ratio", "wall_time_ms", "errors",
    }


def _summary_without_wall_time(result):
    summary = json.loads(result.summary_path.read_text())
    del summary["wall_time_ms"]
    return summary


def test_sweep_threaded_matches_serial(tmp_path):
    # the kNN MI needs 10 000 post-burn-in samples, hence horizon 12 000
    config = _config(
        models=[AR1, VEC],
        names=["ar1", "vec"],
        controllers=[
            {"kind": "zero"}, {"kind": "random"}, {"kind": "predictor"},
            {"kind": "learned", "train_steps": 8_000},
        ],
        p_values=[1.0, 2.0],
        horizon=12_000,
        trials=2,
    )
    serial = el.sweep(config, out_dir=tmp_path / "s")
    threaded = el.sweep(config, threads=2, out_dir=tmp_path / "t")
    assert len(serial.errors) == 4  # vec x random and vec x learned, per trial
    assert all(
        row.report.tightness is not None and not math.isnan(row.report.tightness.mi_err_lag1_bits)
        for row in serial.rows if row.model == "ar1"
    )
    assert _strip_runtime(serial.csv_path) == _strip_runtime(threaded.csv_path)
    assert _summary_without_wall_time(serial) == _summary_without_wall_time(threaded)


def test_sweep_runs_serially_where_it_cannot_fork(tmp_path, monkeypatch):
    config = _config(
        [AR1, VEC], ["ar1", "vec"], [{"kind": "zero"}, {"kind": "random"}], [2.0],
        horizon=3_000,
    )
    serial = el.sweep(config, out_dir=tmp_path / "s")

    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was started without fork")

    monkeypatch.setattr(verify_module, "_FORK", False)
    monkeypatch.setattr(verify_module, "_FORK_MIN_STEPS", 0)  # only the platform keeps it serial
    monkeypatch.setattr(verify_module, "ProcessPoolExecutor", no_pool)
    unforked = el.sweep(config, threads=2, out_dir=tmp_path / "u")
    assert len(unforked.errors) == 1  # vec x random
    assert _strip_runtime(serial.csv_path) == _strip_runtime(unforked.csv_path)
    assert _summary_without_wall_time(serial) == _summary_without_wall_time(unforked)


def test_sweep_below_the_fork_crossover_runs_serially_at_any_thread_count(tmp_path, monkeypatch):
    # 4 cells x 3 000 steps x 2 with the certificates on but no window long
    # enough for the kNN MI: 24 000 weighted steps
    config = _config(
        [AR1, VEC], ["ar1", "vec"], [{"kind": "zero"}, {"kind": "random"}], [2.0],
        horizon=3_000,
    )
    serial = el.sweep(config, out_dir=tmp_path / "s")

    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was started below the fork crossover")

    monkeypatch.setattr(verify_module, "_FORK", True)
    monkeypatch.setattr(verify_module, "ProcessPoolExecutor", no_pool)
    small = el.sweep(config, threads=2, out_dir=tmp_path / "t")
    assert len(small.errors) == 1  # vec x random
    assert _strip_runtime(serial.csv_path) == _strip_runtime(small.csv_path)
    assert _summary_without_wall_time(serial) == _summary_without_wall_time(small)


def test_fork_crossover_keeps_each_measured_plan_on_its_side(monkeypatch):
    # weighted steps (cells x horizon, with the certificates on x 6 where a
    # scalar cell's post-burn-in window reaches the kNN MI and x 2 where none
    # does) against _FORK_MIN_STEPS, for each plan of the table at the
    # constants.  Every base plan is read from where it is defined.
    root = Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location("workloads", root / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    drive = workloads.raw_inputs("sweep_drive", "bench", 0)["sweeps"]
    (certify,) = workloads.raw_inputs("sweep_certify", "bench", 0)["sweeps"]
    (readme,) = re.findall(r"```json\n(.*?)```", (root / "README.md").read_text(), flags=re.S)
    (grid,) = re.findall(
        r"echo '(.*)' > \"\$RUNNER_TEMP/grid.json\"",
        (root / ".github" / "workflows" / "tests.yml").read_text(),
    )
    readme, grid = json.loads(readme), json.loads(grid)

    class Forked(Exception):
        pass

    def pool(*args, **kwargs):
        raise Forked

    monkeypatch.setattr(verify_module, "_FORK", True)
    monkeypatch.setattr(verify_module, "ProcessPoolExecutor", pool)

    def side(raw, tightness, **changes):
        config = cli.config_from_dict({**raw, **changes})
        cells = verify_module.run_plan(config, config.trials)
        steps = verify_module._weighted_steps(cells, config, None, tightness)
        try:  # the side is chosen before the first cell comes back
            next(verify_module.run_cells(cells, config, tightness=tightness, threads=2))
        except Forked:
            return steps, "fork"
        return steps, "serial"

    assert [side(raw, False) for raw in drive] == [(96_000, "serial"), (24_000, "serial")]
    assert side(certify, True) == (1_728_000, "fork")
    assert side(certify, True, trials=1, horizon=6_000) == (144_000, "serial")
    assert side(certify, True, trials=1, horizon=8_000) == (192_000, "serial")
    assert side(certify, True, trials=1, horizon=12_000) == (864_000, "fork")
    assert side(readme, True) == (720_000, "fork")
    assert side(readme, True, horizon=10_000) == (120_000, "serial")
    assert side(readme, True, horizon=15_000) == (540_000, "fork")
    # so that its t1 = t2 check in CI covers the pool
    assert side(grid, True) == (576_000, "fork")
    assert side(grid, True, horizon=8_000) == (128_000, "serial")


def test_run_cells_starts_no_more_workers_than_cpus(monkeypatch):
    counts = []

    def recording_pool(workers, **kwargs):
        counts.append(workers)
        raise RuntimeError("recorded; no process started")

    monkeypatch.setattr(verify_module, "_FORK", True)
    monkeypatch.setattr(verify_module, "_FORK_MIN_STEPS", 0)
    monkeypatch.setattr(verify_module, "ProcessPoolExecutor", recording_pool)
    config = _config([AR1], ["ar1"], [{"kind": "zero"}], [2.0], horizon=100, trials=5)
    cells = verify_module.run_plan(config, config.trials)
    for cpus, threads, want in ((2, 5000, 2), (8, 5000, 5), (8, 3, 3)):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        with pytest.raises(RuntimeError, match="recorded"):
            list(verify_module.run_cells(cells, config, threads=threads))
        assert counts.pop() == want


def test_sweep_seed_changes_rows(tmp_path):
    base = _config([AR1], ["ar1"], [{"kind": "random"}], [2.0])
    other = _config([AR1], ["ar1"], [{"kind": "random"}], [2.0], seed=8)
    a = el.sweep(base, out_dir=tmp_path / "a")
    b = el.sweep(other, out_dir=tmp_path / "b")
    assert _strip_runtime(a.csv_path) != _strip_runtime(b.csv_path)


def test_sweep_vector_cells_emit_det_rows():
    config = _config(
        models=[VEC], names=["vec"], controllers=[{"kind": "predictor"}],
        p_values=[1.0, 2.0], horizon=6_000,
    )
    result = el.sweep(config)
    assert len(result.rows) == 1  # det row only, not per-p
    row = result.rows[0]
    assert row.cell_id.endswith("det")
    assert row.p == 2.0
    assert not row.report.violation
    assert row.report.product is not None


def test_run_cells_yields_errors_in_plan_order_at_any_thread_count(monkeypatch):
    monkeypatch.setattr(verify_module, "_FORK_MIN_STEPS", 0)  # this small plan forks too
    config = _config(
        [AR1, VEC], ["ar1", "vec"], [{"kind": "random"}, {"kind": "zero"}], [1.0, 2.0],
        horizon=3_000,
    )
    cells = verify_module.run_plan(config, 1)

    def outcomes(threads):
        return list(verify_module.run_cells(cells, config, tightness=False, threads=threads))

    serial = outcomes(1)
    assert [cell for cell, _, _ in serial] == cells
    errors = [error for _, _, error in serial]
    assert [error is None for error in errors] == [True, True, False, True]
    assert isinstance(errors[2], ValueError)
    assert str(errors[2]) == "random controllers support scalar models only"
    assert [len(scored) for _, scored, _ in serial] == [2, 2, 0, 1]  # vec/zero still scores

    def without_runtime(results):
        return [
            (cell, [(p, dataclasses.replace(rep, runtime_ms=0)) for p, rep in scored])
            for cell, scored, _ in results
        ]

    for threads in (2, 4):  # fewer workers than cells, and one per cell or per CPU
        threaded = outcomes(threads)
        assert [type(error) for _, _, error in threaded] == [type(error) for error in errors]
        assert without_runtime(threaded) == without_runtime(serial)


def test_run_cells_resolves_each_controller_once_per_distinct_key(tmp_path, monkeypatch):
    # per model: zero, predictor and the pinned random are one controller over
    # the 3 trials, the unpinned learned and random one per trial: 9 keys
    config = _config(
        [AR1, el.IID(el.GeneralizedGaussian.uniform(1.0))], ["ar1", "unif"],
        [
            {"kind": "zero"}, {"kind": "predictor"}, {"kind": "random", "seed": 11},
            {"kind": "learned", "train_steps": 500}, {"kind": "random"},
        ],
        [1.0, 2.0], horizon=1_500, trials=3,
    )
    plan = verify_module.run_plan(config, config.trials)
    keys = [(cell.model_name, id(cell.spec), cell.used_seed) for cell in plan]
    assert (len(keys), len(set(keys))) == (30, 18)
    calls = []
    real_resolve = verify_module.resolve_controller

    def counted(spec, model, seed):
        calls.append((spec["kind"], seed))
        return real_resolve(spec, model, seed)

    monkeypatch.setattr(verify_module, "resolve_controller", counted)
    once = el.sweep(config, tightness=False, out_dir=tmp_path / "once")
    assert Counter(kind for kind, _ in calls) == {"zero": 2, "predictor": 2, "random": 8, "learned": 6}
    assert once.errors == () and len(once.rows) == 60
    assert keys == [cell.controller_key for cell in plan]

    # the reference resolves every cell: a key of its own per cell
    monkeypatch.setattr(verify_module.PlanCell, "controller_key", property(id))
    calls.clear()
    per_cell = el.sweep(config, tightness=False, out_dir=tmp_path / "per_cell")
    assert len(calls) == 30
    monkeypatch.undo()
    monkeypatch.setattr(verify_module, "_FORK_MIN_STEPS", 0)  # forked where the platform allows
    forked = el.sweep(config, threads=2, tightness=False, out_dir=tmp_path / "forked")
    want = _strip_runtime(per_cell.csv_path)
    assert _strip_runtime(once.csv_path) == want
    assert _strip_runtime(forked.csv_path) == want


def test_run_cells_names_a_cell_error_that_cannot_be_pickled(monkeypatch):
    monkeypatch.setattr(verify_module, "_FORK_MIN_STEPS", 0)

    class LocalError(Exception):  # a local class: pickle cannot find it
        pass

    class Broken:
        dim = 1
        descriptor = "broken"

        def effective_memory(self):
            return 0

        def sample_path(self, length, seed):
            raise LocalError("boom")

    config = _config([Broken(), AR1], ["broken", "ar1"], [{"kind": "zero"}], [2.0])
    cells = verify_module.run_plan(config, 1)
    serial = list(verify_module.run_cells(cells, config, tightness=False))
    forked = list(verify_module.run_cells(cells, config, tightness=False, threads=2))
    assert type(serial[0][2]) is LocalError
    if verify_module._FORK:
        assert type(forked[0][2]) is RuntimeError
        assert str(forked[0][2]) == "LocalError: boom"
    assert forked[1][2] is None
    assert len(forked[1][1]) == 1


@pytest.mark.skipif(not verify_module._FORK, reason="a serial sweep would run os._exit here")
def test_a_dead_worker_becomes_error_cells(tmp_path, monkeypatch):
    # below the crossover os._exit would run in this process
    monkeypatch.setattr(verify_module, "_FORK_MIN_STEPS", 0)

    class Dying:
        dim = 1
        descriptor = "dying"

        def effective_memory(self):
            return 0

        def sample_path(self, length, seed):
            os._exit(3)

    config = _config([Dying(), AR1], ["dying", "ar1"], [{"kind": "zero"}], [2.0])
    result = el.sweep(config, threads=2, out_dir=tmp_path / "s")
    broken = "BrokenProcessPool: "
    messages = dict(result.errors)
    assert messages["c00000"].startswith(broken)
    # the healthy cell came back before the pool broke, or shares its error
    assert len(result.rows) == 1 or messages["c00001"].startswith(broken)
    assert json.loads(result.summary_path.read_text())["errors"] == result.summary["errors"]
    assert result.csv_path.exists()

    monkeypatch.setattr(cli, "load_config", lambda path: config)
    code = cli.main(["sweep", "--config", "dying.json", "--threads", "2", "--out", str(tmp_path / "c")])
    assert code == cli.EXIT_CONFIG


def test_sweep_isolates_cell_failures():
    class Broken:
        dim = 1
        descriptor = "broken"

        def effective_memory(self):
            return 0

        def sample_path(self, length, seed):
            raise RuntimeError("boom")

    config = _config(
        models=[Broken(), AR1],
        names=["broken", "ar1"],
        controllers=[{"kind": "zero"}],
        p_values=[2.0],
    )
    result = el.sweep(config)
    assert len(result.errors) == 1
    cell_id, message = result.errors[0]
    assert "boom" in message
    assert result.summary["errors"] == [{"cell_id": cell_id, "message": message}]
    assert len(result.rows) == 1  # the healthy cell still ran
    assert result.rows[0].model == "ar1"


def test_sweep_records_non_finite_cell_as_error(monkeypatch):
    monkeypatch.setattr(
        verify_module, "resolve_controller", lambda spec, model, seed: _nan_policy()
    )
    config = _config([AR1], ["ar1"], [{"kind": "zero"}], [1.0, 2.0])
    result = el.sweep(config, tightness=False)
    assert result.rows == ()
    assert len(result.errors) == 1
    assert "non-finite loop error at step 1" in result.errors[0][1]
    assert result.summary["cells"] == 0
    assert result.summary["violations"] == 0


def test_sweep_without_tightness_leaves_columns_blank(tmp_path):
    config = _config([AR1], ["ar1"], [{"kind": "predictor"}], [2.0])
    result = el.sweep(config, tightness=False, out_dir=tmp_path)
    with open(result.csv_path, newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert rows[0]["whiteness_pass"] == ""
    assert rows[0]["mi_lag1_bits"] == ""
    assert rows[0]["violation"] == "false"
    assert rows[0]["p"] == "2"
