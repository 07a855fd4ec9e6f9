"""Command-line behavior: config parsing, exit codes, and output files."""

import csv
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

import entrolim as el
from entrolim import cli
from entrolim import verify as verify_module

AR1_SPEC = {"kind": "gauss_arma", "ar": [0.9], "name": "ar1"}
UNIF_SPEC = {
    "kind": "iid",
    "innovation": {"family": "gg", "p": "inf", "mu": 1.0},
    "name": "unif",
}
VEC_SPEC = {
    "kind": "vector_gauss_ar",
    "transition": [[0.5, 0.1], [0.0, 0.3]],
    "innovation_covariance": [[1.0, 0.2], [0.2, 0.5]],
    "name": "vec",
}


def _write_config(tmp_path, raw, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return str(path)


# ---------------------------------------------------------------------------
# config parsing


def test_config_defaults():
    config = cli.config_from_dict({"models": [AR1_SPEC]})
    assert config.model_names == ("ar1",)
    assert config.controllers == ({"kind": "zero"},)
    assert config.p_values == (2.0,)
    assert config.horizon == 20_000
    assert config.trials == 1
    assert config.master_seed == 0


def test_config_parses_inf_strings():
    config = cli.config_from_dict(
        {"models": [AR1_SPEC], "p_values": [1, 2.5, "inf", "Infinity"]}
    )
    assert config.p_values == (1.0, 2.5, math.inf, math.inf)


@pytest.mark.parametrize(
    "raw, message",
    [
        ({"models": [AR1_SPEC], "extra": 1}, "unknown config keys"),
        ({}, "models"),
        ({"models": []}, "models"),
        ({"models": ["ar"]}, "models\\[0\\]"),
        ({"models": [{"kind": "nope"}]}, "unknown model kind"),
        ({"models": [{"kind": "gauss_arma", "ar": [1.1]}]}, "models\\[0\\]"),
        ({"models": [AR1_SPEC, AR1_SPEC]}, "unique"),
        ({"models": [AR1_SPEC], "controllers": []}, "controllers"),
        ({"models": [AR1_SPEC], "controllers": [{"kind": "pid"}]}, "unknown kind"),
        ({"models": [AR1_SPEC], "p_values": []}, "p_values"),
        ({"models": [AR1_SPEC], "p_values": [0.5]}, ">= 1"),
        ({"models": [AR1_SPEC], "p_values": ["two"]}, "cannot parse"),
        ({"models": [AR1_SPEC], "horizon": 1}, "horizon"),
        ({"models": [AR1_SPEC], "trials": 0}, "trials"),
        ([], "object"),
    ],
)
def test_config_rejections(raw, message):
    with pytest.raises(cli.ConfigError, match=message):
        cli.config_from_dict(raw)


def test_load_config_rejects_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(cli.ConfigError, match="invalid JSON"):
        cli.load_config(path)


def test_resolve_threads(monkeypatch):
    monkeypatch.delenv("ENTROLIM_THREADS", raising=False)
    assert cli._resolve_threads(None) == 1
    assert cli._resolve_threads(4) == 4
    monkeypatch.setenv("ENTROLIM_THREADS", "3")
    assert cli._resolve_threads(None) == 3
    monkeypatch.setenv("ENTROLIM_THREADS", "zero")
    with pytest.raises(cli.ConfigError, match="threads"):
        cli._resolve_threads(None)
    with pytest.raises(cli.ConfigError, match="threads"):
        cli._resolve_threads(0)


# ---------------------------------------------------------------------------
# exit codes


def test_main_usage_errors():
    assert cli.main([]) == cli.EXIT_CONFIG
    assert cli.main(["bound"]) == cli.EXIT_CONFIG  # --config is required
    assert cli.main(["--help"]) == cli.EXIT_OK


def test_main_missing_config_file(tmp_path, capsys):
    code = cli.main(["bound", "--config", str(tmp_path / "absent.json")])
    assert code == cli.EXIT_IO
    assert "error" in capsys.readouterr().err


def test_main_invalid_config(tmp_path, capsys):
    path = _write_config(tmp_path, {"models": [AR1_SPEC], "wat": 1})
    assert cli.main(["bound", "--config", path]) == cli.EXIT_CONFIG
    assert "unknown config keys" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# bound


def test_bound_prints_table_and_csv(tmp_path, capsys):
    path = _write_config(
        tmp_path,
        {"models": [AR1_SPEC, UNIF_SPEC], "p_values": [2, "inf"]},
    )
    out_dir = tmp_path / "out"
    code = cli.main(["bound", "--config", path, "--out", str(out_dir)])
    captured = capsys.readouterr()
    assert code == cli.EXIT_OK
    assert "direct" in captured.out and "spectral" in captured.out
    assert "NO" not in captured.out

    with open(out_dir / "bounds.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 4
    by_key = {(r["model"], r["p"]): r for r in rows}
    ar1_p2 = by_key[("ar1", "2")]
    assert float(ar1_p2["direct"]) == pytest.approx(1.0, rel=1e-12)
    assert ar1_p2["agree"] == "true"
    # uniform errors at p = inf sit exactly on the scale
    assert float(by_key[("unif", "inf")]["direct"]) == pytest.approx(1.0, rel=1e-12)


def test_bound_skips_vector_models(tmp_path, capsys):
    path = _write_config(tmp_path, {"models": [VEC_SPEC]})
    assert cli.main(["bound", "--config", path]) == cli.EXIT_OK
    assert "vector model" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# simulate


def test_simulate_writes_traces(tmp_path, capsys):
    path = _write_config(
        tmp_path,
        {
            "models": [AR1_SPEC],
            "controllers": [{"kind": "zero"}, {"kind": "predictor"}],
            "horizon": 500,
            "trials": 2,
        },
    )
    out_dir = tmp_path / "traces"
    code = cli.main(["simulate", "--config", path, "--out", str(out_dir)])
    assert code == cli.EXIT_OK
    names = sorted(f.name for f in out_dir.glob("*.csv"))
    assert names == [
        "ar1__predictor__t0.csv",
        "ar1__predictor__t1.csv",
        "ar1__zero__t0.csv",
        "ar1__zero__t1.csv",
    ]
    trace = el.load_trace(out_dir / "ar1__zero__t0.csv")
    assert trace.length == 500
    assert "wrote 4 trace(s)" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# audit and verify


def test_audit_passes_honest_config(tmp_path, capsys):
    path = _write_config(
        tmp_path,
        {"models": [AR1_SPEC], "controllers": [{"kind": "predictor"}, {"kind": "random"}]},
    )
    assert cli.main(["audit", "--config", path]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert out.count("ok") == 2


def test_audit_flags_anticipatory(tmp_path, capsys):
    path = _write_config(
        tmp_path, {"models": [AR1_SPEC], "controllers": [{"kind": "anticipatory"}]}
    )
    assert cli.main(["audit", "--config", path]) == cli.EXIT_CAUSALITY
    assert "FAILED" in capsys.readouterr().out


def test_verify_refuses_anticipatory_controller(tmp_path, capsys):
    path = _write_config(
        tmp_path,
        {
            "models": [AR1_SPEC],
            "controllers": [{"kind": "zero"}, {"kind": "anticipatory"}],
            "horizon": 3_000,
        },
    )
    code = cli.main(["verify", "--config", path])
    assert code == cli.EXIT_CAUSALITY
    assert "causality FAILED: ar1 / anticipatory" in capsys.readouterr().err


def test_verify_ok_run_writes_csv(tmp_path, capsys):
    path = _write_config(
        tmp_path,
        {
            "models": [AR1_SPEC, VEC_SPEC],
            "controllers": [{"kind": "predictor"}],
            "p_values": [2],
            "horizon": 4_000,
        },
    )
    out_dir = tmp_path / "v"
    code = cli.main(["verify", "--config", path, "--out", str(out_dir)])
    captured = capsys.readouterr()
    assert code == cli.EXIT_OK
    assert "VIOLATION" not in captured.out
    assert "det-floor" in captured.out
    assert "0 violation(s) across 2 cell(s)" in captured.out
    with open(out_dir / "verify.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert [r["model"] for r in rows] == ["ar1", "vec"]
    assert rows[0]["violation"] == "false"


def test_verify_reports_violation_exit(monkeypatch, tmp_path, capsys):
    # no honest cell can violate a true bound, so wire a fake report through
    path = _write_config(
        tmp_path, {"models": [AR1_SPEC], "horizon": 3_000, "p_values": [2]}
    )
    real = cli._score_cell

    def doctored(*args, **kwargs):
        scored = real(*args, **kwargs)
        for _, report in scored:
            object.__setattr__(report, "violation", True)
        return scored

    monkeypatch.setattr(cli, "_score_cell", doctored)
    assert cli.main(["verify", "--config", path]) == cli.EXIT_VIOLATION
    assert "VIOLATION" in capsys.readouterr().out


def test_verify_audits_the_controller_it_scores(monkeypatch, tmp_path):
    path = _write_config(
        tmp_path,
        {
            "models": [AR1_SPEC, UNIF_SPEC],
            "controllers": [{"kind": "random"}, {"kind": "zero"}],
            "p_values": [2],
            "horizon": 3_000,
        },
    )
    resolved, audited, scored = [], [], []
    real_resolve, real_audit = cli.resolve_controller, cli.causality_audit
    real_run_loop = verify_module.run_loop

    def counting_resolve(*args, **kwargs):
        controller = real_resolve(*args, **kwargs)
        resolved.append(controller)
        return controller

    def recording_audit(controller, **kwargs):
        audited.append(controller)
        return real_audit(controller, **kwargs)

    def recording_run_loop(model, controller, length, seed):
        scored.append(controller)
        return real_run_loop(model, controller, length, seed)

    monkeypatch.setattr(cli, "resolve_controller", counting_resolve)
    monkeypatch.setattr(cli, "causality_audit", recording_audit)
    monkeypatch.setattr(verify_module, "run_loop", recording_run_loop)
    assert cli.main(["verify", "--config", path]) == cli.EXIT_OK
    assert len(resolved) == 4  # one per (model, controller) pair
    assert [id(c) for c in audited] == [id(c) for c in resolved]
    assert [id(c) for c in scored] == [id(c) for c in resolved]


def test_audit_and_verify_resolve_controllers_on_the_same_seeds(monkeypatch, tmp_path):
    path = _write_config(
        tmp_path,
        {
            "models": [AR1_SPEC, UNIF_SPEC],
            "controllers": [{"kind": "random"}, {"kind": "learned", "train_steps": 500}],
            "p_values": [2],
            "horizon": 3_000,
        },
    )
    seeds = {"audit": [], "verify": []}
    real_resolve = cli.resolve_controller
    for command, record in seeds.items():

        def recording_resolve(spec, model, seed, record=record):
            record.append((spec["kind"], seed))
            return real_resolve(spec, model, seed)

        monkeypatch.setattr(cli, "resolve_controller", recording_resolve)
        assert cli.main([command, "--config", path]) == cli.EXIT_OK
    assert len(seeds["audit"]) == 4
    assert seeds["audit"] == seeds["verify"]


def test_verify_numeric_fault_exit(monkeypatch, tmp_path, capsys):
    # z_k = 10 e_{k-1} is causal and passes both audits, but the loop diverges
    path = _write_config(
        tmp_path, {"models": [AR1_SPEC], "horizon": 3_000, "p_values": [2]}
    )
    diverging = el.ControllerPolicy(
        step=lambda e, z: 10.0 * float(e[-1]), descriptor="diverging"
    )
    monkeypatch.setattr(cli, "resolve_controller", lambda spec, model, seed: diverging)
    out_dir = tmp_path / "v"
    with np.errstate(all="ignore"):
        code = cli.main(["verify", "--config", path, "--out", str(out_dir)])
    assert code == cli.EXIT_NUMERIC == 6
    assert "non-finite loop error at step" in capsys.readouterr().err
    assert not (out_dir / "verify.csv").exists()


def _rows_without_runtime(csv_path):
    with open(csv_path, newline="") as handle:
        rows = list(csv.DictReader(handle))
    for row in rows:
        del row["runtime_ms"]
    return rows


def test_verify_csv_matches_library_calls(tmp_path):
    raw = {
        "models": [AR1_SPEC, VEC_SPEC],
        "controllers": [{"kind": "predictor"}],
        "p_values": [1, 2, "inf"],
        "horizon": 3_000,
        "trials": 2,
        "seed": 5,
    }
    path = _write_config(tmp_path, raw)
    assert cli.main(["verify", "--config", path, "--out", str(tmp_path / "v")]) == 0

    config = cli.config_from_dict(raw)
    seeds = el.spawn_seeds(config.master_seed, 4)  # (trace, controller) per pair
    ar1, vec = config.models
    expected = [
        el.CellRow(
            cell_id=f"v{i:05d}",
            model="ar1",
            controller="predictor",
            p=p,
            report=el.verify_bound(
                ar1,
                el.resolve_controller({"kind": "predictor"}, ar1, seeds[1]),
                p,
                horizon=3_000,
                seed=seeds[0],
                trials=2,
            ),
        )
        for i, p in enumerate(config.p_values)
    ]
    expected.append(
        el.CellRow(
            cell_id="v00003",
            model="vec",
            controller="predictor",
            p=2.0,
            report=el.verify_mimo_bound(
                vec,
                el.resolve_controller({"kind": "predictor"}, vec, seeds[3]),
                horizon=3_000,
                seed=seeds[2],
                trials=2,
            ),
        )
    )
    el.write_rows_csv(expected, tmp_path / "library.csv")
    cli_rows = _rows_without_runtime(tmp_path / "v" / "verify.csv")
    assert len(cli_rows) == 4
    assert cli_rows == _rows_without_runtime(tmp_path / "library.csv")


# ---------------------------------------------------------------------------
# sweep


def test_sweep_end_to_end(tmp_path, capsys):
    path = _write_config(
        tmp_path,
        {
            "models": [AR1_SPEC, UNIF_SPEC],
            "controllers": [{"kind": "zero"}, {"kind": "random", "memory": 2}],
            "p_values": [1, 2, "inf"],
            "horizon": 3_000,
            "seed": 11,
        },
    )
    out_dir = tmp_path / "sweep"
    code = cli.main(["sweep", "--config", path, "--out", str(out_dir), "--threads", "2"])
    assert code == cli.EXIT_OK
    summary = json.loads(capsys.readouterr().out)
    assert summary["cells"] == 12
    assert summary["violations"] == 0
    assert (out_dir / "report.csv").exists()
    assert json.loads((out_dir / "summary.json").read_text()) == summary


def test_sweep_seed_override_changes_rows(tmp_path):
    raw = {
        "models": [AR1_SPEC],
        "controllers": [{"kind": "random"}],
        "horizon": 3_000,
    }
    path = _write_config(tmp_path, raw)
    cli.main(["sweep", "--config", path, "--out", str(tmp_path / "a")])
    cli.main(["sweep", "--config", path, "--out", str(tmp_path / "b"), "--seed", "99"])
    a = (tmp_path / "a" / "report.csv").read_text().splitlines()
    b = (tmp_path / "b" / "report.csv").read_text().splitlines()
    assert a[0] == b[0]
    assert a[1:] != b[1:]


def test_sweep_exit_codes_for_failures(monkeypatch, tmp_path):
    path = _write_config(tmp_path, {"models": [AR1_SPEC], "horizon": 3_000})

    def fake_sweep(config, *, threads, out_dir):
        return el.SweepResult(
            rows=(), errors=(), csv_path=None, summary_path=None,
            summary={"cells": 1, "violations": 2, "worst_gap_ratio": 0.5,
                     "wall_time_ms": 1, "errors": []},
        )

    monkeypatch.setattr(cli, "sweep", fake_sweep)
    assert cli.main(["sweep", "--config", path, "--out", str(tmp_path / "x")]) == cli.EXIT_VIOLATION

    def erroring_sweep(errors):
        def fake(config, *, threads, out_dir):
            return el.SweepResult(
                rows=(), errors=errors, csv_path=None, summary_path=None,
                summary={"cells": 0, "violations": 0, "worst_gap_ratio": None,
                         "wall_time_ms": 1,
                         "errors": [{"cell_id": c, "message": m} for c, m in errors]},
            )
        return fake

    numeric = ("c00001", "NonFiniteLoopError: non-finite loop error at step 9")
    for errors, code in [
        ((("c00000", "RuntimeError: boom"),), cli.EXIT_CONFIG),
        ((numeric, ("c00002", numeric[1])), cli.EXIT_NUMERIC),
        ((("c00000", "RuntimeError: boom"), numeric), cli.EXIT_CONFIG),
    ]:
        monkeypatch.setattr(cli, "sweep", erroring_sweep(errors))
        assert cli.main(["sweep", "--config", path, "--out", str(tmp_path / "y")]) == code


def test_readme_example_config_runs(tmp_path, capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (block,) = re.findall(r"```json\n(.*?)```", readme, flags=re.S)
    raw = json.loads(block)
    raw["horizon"] = 3000
    path = _write_config(tmp_path, raw)
    assert cli.main(["audit", "--config", path]) == cli.EXIT_OK
    assert cli.main(["verify", "--config", path, "--out", str(tmp_path / "v")]) == cli.EXIT_OK
    assert (tmp_path / "v" / "verify.csv").exists()
