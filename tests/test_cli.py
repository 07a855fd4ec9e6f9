"""Command-line behavior: config parsing, exit codes, and output files."""

import csv
import importlib
import json
import math
import os
import re
import subprocess
import sys
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

# dim 1, but its paths are (n, 1): a vector model like any other
ONE_BY_ONE_SPEC = {
    "kind": "vector_gauss_ar",
    "transition": [[0.5]],
    "innovation_covariance": [[1.0]],
    "name": "one",
}


def _write_config(tmp_path, raw, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return str(path)


# spec numbers that are not numbers, with the key the message must name; the
# bad entry is the last controller, or the second of the config's models
BAD_CONTROLLERS = [
    ([{"kind": "random", "memory": 2.7}], "memory"),
    ([{"kind": "random", "memory": True, "seed": 1.9}], "seed"),
    ([{"kind": "random", "memory": True}], "memory"),
    ([{"kind": "zero"}, {"kind": "learned", "memory": 1.5, "train_steps": 2000.7}], "memory"),
    ([{"kind": "learned", "train_steps": 2000.7}], "train_steps"),
    ([{"kind": "random", "gain_cap": True}], "gain_cap"),
    ([{"kind": "random", "gain_cap": "2"}], "gain_cap"),
    ([{"kind": "random", "gain_cap": math.inf}], "gain_cap"),
    ([{"kind": "random", "gain_cap": math.nan}], "gain_cap"),
    ([{"kind": "learned", "memory": math.nan}], "memory"),
    ([{"kind": "random", "seed": -3}], "seed"),
    # numbers out of their ranges
    ([{"kind": "random", "memory": -1}], "memory"),
    ([{"kind": "random", "gain_cap": -2.0}], "gain_cap"),
    ([{"kind": "random", "gain_cap": 0}], "gain_cap"),
    ([{"kind": "learned", "memory": 0}], "memory"),
    ([{"kind": "learned", "train_steps": 0}], "train_steps"),
    ([{"kind": "learned", "memory": 3, "train_steps": 3}], "train_steps"),
]
BAD_MODELS = [
    ({"kind": "iid", "innovation": {"family": "gg", "p": True, "mu": 1.0}}, "innovation.p"),
    ({"kind": "iid", "innovation": {"family": "gg", "p": 2, "mu": "1.5"}}, "innovation.mu"),
    (
        {"kind": "iid", "innovation": {"family": "gaussian", "variance": True}},
        "innovation.variance",
    ),
    ({"kind": "gauss_arma", "innovation": {"variance": True}}, "innovation.variance"),
    ({"kind": "gauss_arma", "ar": ["0.9"]}, "ar"),
    ({"kind": "gauss_arma", "ma": [True]}, "ma"),
    (
        dict(VEC_SPEC, transition=[[0.5, True], [0.0, 0.3]], name="vec"),
        "transition",
    ),
    ({"kind": "gauss_arma", "ar": [math.nan]}, "ar"),
    ({"kind": "gauss_arma", "ma": [-math.inf]}, "ma"),
    ({"kind": "gengauss_ar", "ar": [math.inf], "innovation": {"p": 2, "mu": 1.0}}, "ar"),
    ({"kind": "gauss_arma", "innovation": {"variance": math.inf}}, "innovation.variance"),
    ({"kind": "iid", "innovation": {"family": "gg", "p": 2, "mu": math.nan}}, "innovation.mu"),
    ({"kind": "iid", "innovation": {"family": "gg", "p": math.nan, "mu": 1.0}}, "innovation.p"),
    (dict(VEC_SPEC, transition=[[0.5, 0.1], [math.nan, 0.3]], name="vec"), "transition"),
    ({"kind": "gauss_arma", "ar": [10**400]}, "ar"),
    (
        {"kind": "iid", "innovation": {"family": "gaussian", "variance": -1.0}},
        "innovation.variance",
    ),
    ({"kind": "iid", "innovation": {"family": "gg", "p": 2, "mu": -1}}, "innovation.mu"),
]
# specs with an undeclared key, or without a declared one, and the message
# that refuses them after their entry's prefix: a typo is never a default
UNDECLARED_CONTROLLERS = [
    ({"kind": "random", "memroy": 7}, "unknown controller keys: ['memroy']"),
    ({"kind": "learned", "seed": 3}, "unknown controller keys: ['seed']"),
    ({"kind": "zero", "gain": 1.0}, "unknown controller keys: ['gain']"),
]
UNDECLARED_MODELS = [
    ({"kind": "gauss_arma", "ar": [0.5], "am": [0.4]}, "unknown model keys: ['am']"),
    (
        {"kind": "gauss_arma", "innovation": {"family": "gaussian", "varaince": 9.0}},
        "innovation: unknown innovation keys: ['varaince']",
    ),
    (
        {"kind": "iid", "innovation": {"family": "gg", "p": 2, "mu": 1.0, "sigma": 1.0}},
        "innovation: unknown innovation keys: ['sigma']",
    ),
    (
        {"kind": "iid", "innovation": {"family": "gg", "p": 2}},
        "innovation: missing innovation keys: ['mu']",
    ),
    (
        {"kind": "gauss_arma", "innovation": {"family": "gaussian"}},
        "innovation: missing innovation keys: ['variance']",
    ),
]


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


@pytest.mark.parametrize("p", ["inf", "INF", " Infinity ", "infinity", math.inf])
def test_innovation_p_reads_inf_like_p_values(p):
    spec = {"kind": "iid", "innovation": {"family": "gg", "p": p, "mu": 1.0}}
    config = cli.config_from_dict({"models": [spec], "p_values": [p]})
    assert config.models[0].innovation.power == math.inf
    assert config.p_values == (math.inf,)


@pytest.mark.parametrize("p", [0.5, -math.inf, "-inf"])
def test_norm_exponents_below_one_are_refused_with_their_key(p):
    spec = {"kind": "iid", "innovation": {"family": "gg", "p": p, "mu": 1.0}}
    with pytest.raises(cli.ConfigError, match=r"models\[0\]: innovation\.p: "):
        cli.config_from_dict({"models": [spec]})
    with pytest.raises(cli.ConfigError, match=r"p_values: "):
        cli.config_from_dict({"models": [AR1_SPEC], "p_values": [p]})


def test_non_finite_config_number_exits_2_naming_the_field(tmp_path, capsys):
    path = tmp_path / "nan.json"
    path.write_text('{"models": [{"kind": "gauss_arma", "ar": [NaN]}]}')
    assert cli.main(["bound", "--config", str(path)]) == cli.EXIT_CONFIG
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: models[0]: ar: must be a finite number, got nan\n"


@pytest.mark.parametrize("command", ["bound", "simulate", "audit", "verify", "sweep"])
def test_negative_seed_exits_2_naming_the_field(tmp_path, capsys, command):
    path = _write_config(tmp_path, {"models": [AR1_SPEC], "horizon": 3_000})
    out_dir = ["--out", str(tmp_path / "out")] if command != "audit" else []
    assert cli.main([command, "--config", path, "--seed", "-1", *out_dir]) == cli.EXIT_CONFIG
    assert capsys.readouterr() == ("", "error: --seed: must be >= 0, got -1\n")
    assert not (tmp_path / "out").exists()
    bad = _write_config(tmp_path, {"models": [AR1_SPEC], "seed": -1}, "bad.json")
    assert cli.main([command, "--config", bad, *out_dir]) == cli.EXIT_CONFIG
    assert capsys.readouterr() == ("", "error: seed: must be >= 0, got -1\n")


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
        ({"models": [AR1_SPEC], "horizon": 12000.9}, "horizon"),
        ({"models": [AR1_SPEC], "horizon": "3000"}, "horizon"),
        ({"models": [AR1_SPEC], "horizon": True}, "horizon"),
        ({"models": [AR1_SPEC], "trials": 1.5}, "trials"),
        ({"models": [AR1_SPEC], "trials": "2"}, "trials"),
        ({"models": [AR1_SPEC], "trials": True}, "trials"),
        ({"models": [AR1_SPEC], "seed": True}, "seed"),
        ({"models": [AR1_SPEC], "seed": "7"}, "seed"),
        ({"models": [AR1_SPEC], "seed": 0.5}, "seed"),
        ({"models": [AR1_SPEC], "seed": -1}, "seed: must be >= 0, got -1"),
        ({"models": [AR1_SPEC], "p_values": [True]}, "p_values"),
        ({"models": [AR1_SPEC], "p_values": [2, True]}, "p_values"),
        ([], "object"),
        *[
            (
                {"models": [AR1_SPEC], "controllers": controllers},
                rf"controllers\[{len(controllers) - 1}\]: {key}",
            )
            for controllers, key in BAD_CONTROLLERS
        ],
        *[
            ({"models": [AR1_SPEC, spec]}, rf"models\[1\]: {key}")
            for spec, key in BAD_MODELS
        ],
        ({"models": [{"kind": ["iid"]}]}, "unknown model kind"),
        *[
            (
                {"models": [AR1_SPEC], "controllers": [{"kind": "zero"}, spec]},
                rf"controllers\[1\]: {re.escape(message)}",
            )
            for spec, message in UNDECLARED_CONTROLLERS
        ],
        *[
            ({"models": [AR1_SPEC, spec]}, rf"models\[1\]: {re.escape(message)}")
            for spec, message in UNDECLARED_MODELS
        ],
        (
            {"models": [{"kind": "iid", "innovation": {"p": 2, "mu": -1}}]},
            re.escape("models[0]: innovation.mu: must be > 0, got -1.0"),
        ),
        (
            {"models": [{"kind": "gauss_arma", "name": ["a"]}]},
            re.escape("models[0]: name: must be a string, got ['a']"),
        ),
        (
            {"models": [{"kind": "gauss_arma", "name": None}]},
            re.escape("models[0]: name: must be a string, got None"),
        ),
        (
            {"models": [AR1_SPEC], "controllers": [{"kind": "zero", "name": {"x": 1}}]},
            re.escape("controllers[0]: name: must be a string, got {'x': 1}"),
        ),
    ],
)
def test_config_rejections(raw, message):
    with pytest.raises(cli.ConfigError, match=message):
        cli.config_from_dict(raw)


@pytest.mark.parametrize("command", ["bound", "audit", "sweep"])
@pytest.mark.parametrize(
    "spec, message",
    [
        ({"kind": "random", "memory": -1}, "memory: must be >= 0, got -1"),
        ({"kind": "random", "gain_cap": -2.0}, "gain_cap: must be > 0, got -2.0"),
        ({"kind": "learned", "train_steps": 0}, "train_steps: must be > memory (2), got 0"),
        *UNDECLARED_CONTROLLERS,
        ({"kind": "random", "name": 7}, "name: must be a string, got 7"),
    ],
)
def test_controller_numbers_out_of_range_exit_2_at_config_read(
    tmp_path, capsys, command, spec, message
):
    path = _write_config(tmp_path, {"models": [AR1_SPEC], "controllers": [{"kind": "zero"}, spec]})
    out_dir = ["--out", str(tmp_path / "out")] if command != "audit" else []
    assert cli.main([command, "--config", path, *out_dir]) == cli.EXIT_CONFIG
    assert capsys.readouterr() == ("", f"error: controllers[1]: {message}\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["bound", "audit", "sweep"])
@pytest.mark.parametrize(
    "spec, message",
    [*UNDECLARED_MODELS, ({"kind": "gauss_arma", "name": ["a"]}, "name: must be a string, got ['a']")],
)
def test_model_key_faults_exit_2_at_config_read(tmp_path, capsys, command, spec, message):
    path = _write_config(tmp_path, {"models": [AR1_SPEC, spec]})
    out_dir = ["--out", str(tmp_path / "out")] if command != "audit" else []
    assert cli.main([command, "--config", path, *out_dir]) == cli.EXIT_CONFIG
    assert capsys.readouterr() == ("", f"error: models[1]: {message}\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("controllers, key", BAD_CONTROLLERS)
def test_resolve_controller_refuses_spec_numbers(controllers, key):
    # called directly, the resolver raises rather than truncate
    with pytest.raises(ValueError, match=f"{key}: must be"):
        el.resolve_controller(controllers[-1], el.GaussARMA(ar=(0.9,)), 5)


@pytest.mark.parametrize("spec, key", BAD_MODELS)
def test_model_from_config_refuses_spec_numbers(spec, key):
    with pytest.raises(ValueError, match=f"{key}: must be"):
        el.model_from_config({k: v for k, v in spec.items() if k != "name"})


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
# cold start


def _fresh_python(code: str) -> str:
    """Run ``code`` in a new interpreter on this checkout; return its stdout."""
    src = str(Path(el.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout


def test_cold_start_loads_no_scipy_module():
    # scipy.special, spatial and linalg took about 0.37 s of a 0.66 s import;
    # the package imports each where it is first used.  A config that names
    # every model kind and every controller kind is parsed, and its models
    # built, in a fresh interpreter.
    code = """
import sys
import entrolim, entrolim.cli
from entrolim import config
raw = {
    "models": [
        {"kind": "iid", "innovation": {"family": "gg", "p": 1.5, "mu": 1.0}},
        {"kind": "gauss_arma", "ar": [0.5, -0.3], "ma": [0.4]},
        {"kind": "gengauss_ar", "ar": [0.7], "innovation": {"p": "inf", "mu": 1.0}},
        {"kind": "vector_gauss_ar", "transition": [[0.5, 0.1], [0.0, 0.3]],
         "innovation_covariance": [[1.0, 0.2], [0.2, 0.5]]},
    ],
    "controllers": [{"kind": kind} for kind in config._CONTROLLER_KEYS],
}
parsed = entrolim.cli.config_from_dict(raw)
assert {m["kind"] for m in raw["models"]} == set(config._MODEL_KEYS)
assert len(parsed.models) == 4
print(*sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""
    assert _fresh_python(code).split() == []


def test_cold_start_scipy_subpackages_leave_the_heavy_ones_unloaded():
    # scipy.signal alone cost 0.9 s of a 1.4 s import; the ARMA paths run
    # their own recursion.  A scipy release whose special, spatial or linalg
    # starts importing one of these fails here.
    heavy = ["scipy.signal", "scipy.stats", "scipy.interpolate", "scipy.optimize", "scipy.ndimage"]
    code = (
        "import sys, scipy.special, scipy.spatial, scipy.linalg\n"
        f"print(*[m for m in {heavy!r} if m in sys.modules])"
    )
    assert _fresh_python(code).split() == []


def test_cold_fork_loads_the_scipy_subpackages_before_the_pool():
    # the workers inherit what the parent has imported when it forks; a
    # recording stand-in for the pool starts no process
    code = """
import sys
from entrolim import cli, verify
wanted = ["scipy.linalg", "scipy.spatial", "scipy.special"]

class Recorded(Exception):
    pass

def pool(*args, **kwargs):
    raise Recorded([m for m in wanted if m in sys.modules])

verify._FORK, verify._FORK_MIN_STEPS, verify.ProcessPoolExecutor = True, 0, pool
config = cli.config_from_dict({"models": [{"kind": "gauss_arma", "ar": [0.9]}],
                               "controllers": [{"kind": "zero"}, {"kind": "predictor"}],
                               "horizon": 3000})
cells = verify.run_plan(config, config.trials)
print("before:", *[m for m in wanted if m in sys.modules])
try:
    next(verify.run_cells(cells, config, threads=2))
except Recorded as exc:
    print("at the pool:", *exc.args[0])
"""
    assert _fresh_python(code).splitlines() == [
        "before:",
        "at the pool: scipy.linalg scipy.spatial scipy.special",
    ]


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


def test_bound_csv_quotes_model_names(tmp_path):
    name = 'a,b "c"'
    path = _write_config(tmp_path, {"models": [dict(AR1_SPEC, name=name)]})
    assert cli.main(["bound", "--config", path, "--out", str(tmp_path)]) == cli.EXIT_OK
    with open(tmp_path / "bounds.csv", newline="") as handle:
        header, *rows = list(csv.reader(handle))
    assert len(header) == 8
    assert [len(row) for row in rows] == [8]
    assert rows[0][0] == name


@pytest.mark.parametrize(
    "route, column, fault",
    [
        ("spectral_lp_bound", "spectral", el.SpectralIntegralError("node budget exhausted")),
        ("gw_lp_bound", "gw", el.NotAnalyticError("no entropy rate")),
    ],
)
def test_bound_prints_a_dash_for_a_route_that_raises(
    monkeypatch, tmp_path, capsys, route, column, fault
):
    def raising(model, p):
        raise fault

    monkeypatch.setattr(el.bounds, route, raising)
    path = _write_config(tmp_path, {"models": [AR1_SPEC], "p_values": [2]})
    assert cli.main(["bound", "--config", path, "--out", str(tmp_path)]) == cli.EXIT_OK
    header, line = capsys.readouterr().out.splitlines()[:2]
    cells = dict(zip(header.split(), line.split()))
    assert cells[column] == "-" and cells["agree"] == "yes"
    with open(tmp_path / "bounds.csv", newline="") as handle:
        (row,) = csv.DictReader(handle)
    assert row[column] == "" and row["agree"] == "true"


def _scale_spectrum(monkeypatch, factor):
    spectrum = el.GaussARMA.power_spectrum

    def scaled(model):
        density = spectrum(model)
        return el.SpectralDensity(lambda omega: factor * density(omega))

    monkeypatch.setattr(el.GaussARMA, "power_spectrum", scaled)


def test_bound_exits_4_when_the_spectrum_misses_the_innovation_law(monkeypatch, tmp_path, capsys):
    # a spectrum 1.5 times too large: its geometric mean is no longer the
    # innovation variance, and the spectral route must say so
    _scale_spectrum(monkeypatch, 1.5)
    ar1 = el.GaussARMA(ar=(0.9,))
    direct = el.lp_bound_asymptotic(ar1, 2.0).value
    spectral = el.spectral_lp_bound(ar1, 2.0).value
    assert direct == pytest.approx(1.0, rel=1e-12)
    assert spectral == pytest.approx(math.sqrt(1.5), rel=1e-9)
    assert el.gw_lp_bound(ar1, 2.0).value == pytest.approx(direct, rel=1e-12)

    path = _write_config(tmp_path, {"models": [AR1_SPEC], "p_values": [2]})
    assert cli.main(["bound", "--config", path, "--out", str(tmp_path)]) == cli.EXIT_VIOLATION
    out, err = capsys.readouterr()
    assert out.splitlines()[1].split()[-1] == "NO"
    assert err == "error: analytic routes disagree beyond a relative 1e-8\n"
    with open(tmp_path / "bounds.csv", newline="") as handle:
        (row,) = csv.DictReader(handle)
    assert row["agree"] == "false"


def _arma_with_variance(variance):
    return {
        "kind": "gauss_arma", "ar": [0.9], "ma": [0.4], "name": "arma11",
        "innovation": {"family": "gaussian", "variance": variance},
    }


def test_bound_route_check_is_relative_for_a_correct_model_at_variance_1e16(tmp_path, capsys):
    # the spectral route sits about 2.4e-7 from a floor near 1e8, a relative
    # 2.4e-15: an absolute 1e-8 rule read that as a disagreement
    path = _write_config(tmp_path, {"models": [_arma_with_variance(1e16)], "p_values": [1, 2, "inf"]})
    assert cli.main(["bound", "--config", path]) == cli.EXIT_OK
    out, err = capsys.readouterr()
    assert [line.split()[-1] for line in out.splitlines()[1:]] == ["yes"] * 3
    assert err == ""


def test_bound_route_check_is_relative_for_a_mis_scaled_spectrum_at_variance_1e_20(
    monkeypatch, tmp_path, capsys
):
    # a spectrum twice too large moves the spectral floor by a factor sqrt(2),
    # yet only 4e-11 in absolute terms at this variance
    _scale_spectrum(monkeypatch, 2.0)
    model = el.GaussARMA(ar=(0.9,), ma=(0.4,), innovation_variance=1e-20)
    direct = el.lp_bound_asymptotic(model, 2.0).value
    assert el.spectral_lp_bound(model, 2.0).value == pytest.approx(math.sqrt(2) * direct, rel=1e-9)
    path = _write_config(tmp_path, {"models": [_arma_with_variance(1e-20)], "p_values": [2]})
    assert cli.main(["bound", "--config", path]) == cli.EXIT_VIOLATION
    out, err = capsys.readouterr()
    assert out.splitlines()[1].split()[-1] == "NO"
    assert err == "error: analytic routes disagree beyond a relative 1e-8\n"


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


@pytest.mark.parametrize(
    "raw, cells, name",
    [
        (
            # unnamed random controllers share the label "random"
            {
                "models": [AR1_SPEC],
                "controllers": [{"kind": "random", "seed": 1}, {"kind": "random", "seed": 2}],
            },
            "model 'ar1' / controllers[0] t0 and model 'ar1' / controllers[1] t0",
            "ar1__random__t0.csv",
        ),
        (
            {"models": [dict(AR1_SPEC, name="ar 1"), dict(AR1_SPEC, name="ar_1")]},
            "model 'ar 1' / controllers[0] t0 and model 'ar_1' / controllers[0] t0",
            "ar_1__zero__t0.csv",
        ),
    ],
)
def test_simulate_refuses_colliding_trace_names_before_writing(tmp_path, capsys, raw, cells, name):
    path = _write_config(tmp_path, dict(raw, horizon=500, trials=2))
    out_dir = tmp_path / "traces"
    assert cli.main(["simulate", "--config", path, "--out", str(out_dir)]) == cli.EXIT_CONFIG
    assert capsys.readouterr() == ("", f"error: simulate: {cells} would both write {name}\n")
    assert not out_dir.exists()


def test_simulate_refuses_a_controller_before_writing(tmp_path, capsys):
    raw = {"models": [AR1_SPEC, VEC_SPEC], "controllers": [{"kind": "zero"}, {"kind": "random"}]}
    path = _write_config(tmp_path, dict(raw, horizon=300))
    out_dir = tmp_path / "traces"
    assert cli.main(["simulate", "--config", path, "--out", str(out_dir)]) == cli.EXIT_CONFIG
    assert capsys.readouterr() == ("", "error: random controllers support scalar models only\n")
    assert not out_dir.exists()


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


GRID_CONTROLLERS = [
    {"kind": "zero"},
    {"kind": "predictor"},
    {"kind": "learned", "train_steps": 8000},
    {"kind": "random"},
]


@pytest.mark.parametrize("models", [[AR1_SPEC, VEC_SPEC], [VEC_SPEC, AR1_SPEC]])
def test_audit_reports_a_refused_controller_and_audits_the_rest(tmp_path, capsys, models):
    # vec x learned and vec x random are refused; every other cell, before or
    # after them, is still audited, and the run exits 2
    raw = {"models": models, "controllers": GRID_CONTROLLERS, "horizon": 12_000}
    path = _write_config(tmp_path, raw)
    assert cli.main(["audit", "--config", path]) == cli.EXIT_CONFIG
    lines = capsys.readouterr().out.splitlines()
    assert sorted(line.split(":")[0] for line in lines) == [
        "error  vec / learned",
        "error  vec / random",
        "ok     ar1 / learned",
        "ok     ar1 / predictor",
        "ok     ar1 / random",
        "ok     ar1 / zero",
        "ok     vec / predictor",
        "ok     vec / zero",
    ]
    assert "error  vec / learned: learned controllers support scalar models only" in lines


def test_a_one_by_one_vector_model_refuses_random_and_learned_in_audit_verify_and_sweep(
    tmp_path, capsys
):
    raw = {"models": [ONE_BY_ONE_SPEC], "controllers": GRID_CONTROLLERS, "horizon": 3_000}
    path = _write_config(tmp_path, raw)
    refusals = [f"{kind} controllers support scalar models only" for kind in ("learned", "random")]
    assert cli.main(["audit", "--config", path]) == cli.EXIT_CONFIG
    assert [line.split(":")[0] for line in capsys.readouterr().out.splitlines()] == [
        "ok     one / zero",
        "ok     one / predictor",
        "error  one / learned",
        "error  one / random",
    ]
    out_dir = tmp_path / "v"
    assert cli.main(["verify", "--config", path, "--out", str(out_dir)]) == cli.EXIT_CONFIG
    assert capsys.readouterr() == ("", f"error: {refusals[0]}\n")
    assert not out_dir.exists()
    assert cli.main(["sweep", "--config", path, "--out", str(tmp_path / "s")]) == cli.EXIT_CONFIG
    summary = json.loads(capsys.readouterr().out)
    assert [e["message"] for e in summary["errors"]] == [f"ValueError: {r}" for r in refusals]
    assert summary["cells"] == 2


def test_audit_failure_outranks_a_refused_controller(tmp_path, capsys):
    raw = {
        "models": [VEC_SPEC, AR1_SPEC],
        "controllers": [{"kind": "random"}, {"kind": "anticipatory"}],
    }
    path = _write_config(tmp_path, raw)
    assert cli.main(["audit", "--config", path]) == cli.EXIT_CAUSALITY
    out = capsys.readouterr().out
    assert "error  vec / random" in out and "FAILED ar1 / anticipatory" in out


def test_verify_exits_2_on_a_refused_controller_before_scoring(tmp_path, capsys):
    path = _write_config(tmp_path, {"models": [VEC_SPEC], "controllers": [{"kind": "random"}]})
    out_dir = tmp_path / "v"
    assert cli.main(["verify", "--config", path, "--out", str(out_dir)]) == cli.EXIT_CONFIG
    assert capsys.readouterr() == ("", "error: random controllers support scalar models only\n")
    assert not out_dir.exists()


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


def test_anticipatory_double_takes_the_vector_models_dimension(tmp_path, capsys, monkeypatch):
    # built at the model's dimension, the double is probed with (n, 2) rows
    # in both audits and fails the open loop; sweep scores its det row, the
    # zero law's row; verify refuses it
    probes = set()
    run = el.simulator._AnticipatoryPolicy.run

    def recording_run(self, x, closed):
        probes.add((x.shape[1:], closed))
        return run(self, x, closed)

    monkeypatch.setattr(el.simulator._AnticipatoryPolicy, "run", recording_run)
    raw = {"models": [VEC_SPEC], "controllers": [{"kind": "anticipatory"}], "horizon": 3_000}
    path = _write_config(tmp_path, raw)
    assert cli.main(["audit", "--config", path]) == cli.EXIT_CAUSALITY
    assert "FAILED vec / anticipatory" in capsys.readouterr().out
    assert probes == {((2,), False), ((2,), True)}

    reports = []
    for kind in ("anticipatory", "zero"):
        raw["controllers"] = [{"kind": kind}]
        out_dir = tmp_path / kind
        config = _write_config(tmp_path, raw, f"{kind}.json")
        assert cli.main(["sweep", "--config", config, "--out", str(out_dir)]) == cli.EXIT_OK
        assert json.loads(capsys.readouterr().out)["errors"] == []
        with open(out_dir / "report.csv", newline="") as handle:
            (row,) = csv.DictReader(handle)
        assert (row["cell_id"], row["controller"], row["violation"]) == ("c00000det", kind, "false")
        reports.append({key: value for key, value in row.items() if key not in ("controller", "runtime_ms")})
    assert reports[0] == reports[1]

    assert cli.main(["verify", "--config", path]) == cli.EXIT_CAUSALITY
    assert "causality FAILED: vec / anticipatory" in capsys.readouterr().err


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


def test_verify_at_an_innovation_variance_near_1e_162_is_its_unit_twin(tmp_path, capsys):
    # the squares in the L_p norm's standard error underflowed at variance 1e-162
    # and a cell exactly on its floor read as a violation; its unit-variance
    # twin has the same gap, 0.9984, and neither violates
    gaps = []
    for variance in (1e-162, 1.0):
        model = {"kind": "gauss_arma", "ar": [0.9], "innovation": {"family": "gaussian", "variance": variance}}
        raw = {"models": [model], "controllers": [{"kind": "predictor"}], "p_values": [2], "horizon": 12000, "seed": 0}
        path = _write_config(tmp_path, raw, f"v{variance:g}.json")
        assert cli.main(["verify", "--config", path, "--out", str(tmp_path / f"v{variance:g}")]) == cli.EXIT_OK
        out = capsys.readouterr().out
        assert out.startswith("ok ") and "0 violation(s) across 1 cell(s)" in out
        gaps.append(re.search(r"gap=(\S+)", out).group(1))
    assert gaps == ["0.9984", "0.9984"]


@pytest.mark.filterwarnings("error")
def test_verify_det_scale_writes_the_unit_standard_error_scaled(monkeypatch, tmp_path, capsys):
    # the README vec model with Q x 2^(2j): the determinant's jackknife SE was
    # written as 1e-300 at j = -250 and -200 and as inf at 200 and 250, every
    # run at gap 1.0507; now it is the unit run's times 2^(4j)
    written = []
    real_write = cli.write_rows_csv

    def recording_write(rows, path):
        written.append(rows[0].report)
        real_write(rows, path)

    monkeypatch.setattr(cli, "write_rows_csv", recording_write)
    for j in (0, -250, -200, 200, 250):
        q = [[math.ldexp(a, 2 * j) for a in row] for row in VEC_SPEC["innovation_covariance"]]
        raw = {"models": [{**VEC_SPEC, "innovation_covariance": q}], "controllers": [{"kind": "predictor"}],
               "horizon": 3_000, "trials": 2}
        out = tmp_path / f"v{j}"
        assert cli.main(["verify", "--config", _write_config(tmp_path, raw), "--out", str(out)]) == cli.EXIT_OK
        assert "gap=1.0507" in capsys.readouterr().out
        (row,) = _rows_without_runtime(out / "verify.csv")
        # the CSV holds 12 significant digits
        assert float(row["std_error"]) == pytest.approx(math.ldexp(written[0].std_error, 4 * j), rel=1e-11)
        assert written[-1].std_error == pytest.approx(math.ldexp(written[0].std_error, 4 * j), rel=1e-12)


def test_a_vector_cell_whose_floor_underflows_is_an_error_cell(tmp_path, capsys):
    # the README vec model at Q near 1e-162: its determinant floor and sample
    # determinant underflow to 0, which read "ok ... gap=nan" and wrote a bare NaN
    # into summary.json; both rows are error cells now
    vec = {**VEC_SPEC, "innovation_covariance": [[1e-162, 2e-163], [2e-163, 5e-163]]}
    path = _write_config(tmp_path, {"models": [vec], "controllers": [{"kind": "zero"}, {"kind": "predictor"}], "horizon": 3_000})
    assert cli.main(["verify", "--config", path, "--out", str(tmp_path / "v")]) != cli.EXIT_OK
    captured = capsys.readouterr()
    assert "ok " not in captured.out and "out of the float64 range" in captured.err
    assert cli.main(["sweep", "--config", path, "--out", str(tmp_path / "s")]) != cli.EXIT_OK
    summary = json.loads((tmp_path / "s" / "summary.json").read_text(), parse_constant=lambda name: pytest.fail(name))
    assert summary["cells"] == 0 and len(summary["errors"]) == 2
    assert all("out of the float64 range" in error["message"] for error in summary["errors"])


@pytest.mark.parametrize(
    "model",
    [
        {"kind": "gauss_arma", "ar": [0.0]},
        {"kind": "gauss_arma", "ar": [0.0], "ma": [0.4]},
        {"kind": "gengauss_ar", "ar": [0.0], "innovation": {"family": "gg", "p": 1, "mu": 1.0}},
    ],
    ids=["ar0", "ar0-ma1", "gg-ar0"],
)
def test_sweep_and_verify_score_a_model_whose_ar_coefficients_are_all_zero(model, tmp_path, capsys):
    # its AR polynomial trims to degree 0 and has no roots: memory
    # max(len(ar), ma order, 1), where the maximum over no roots raised
    raw = {"models": [model], "controllers": [{"kind": "zero"}, {"kind": "predictor"}], "horizon": 3_000}
    path = _write_config(tmp_path, raw)
    assert cli.main(["sweep", "--config", path, "--out", str(tmp_path / "s")]) == cli.EXIT_OK
    assert len(_rows_without_runtime(tmp_path / "s" / "report.csv")) == 2
    assert cli.main(["verify", "--config", path, "--out", str(tmp_path / "v")]) == cli.EXIT_OK
    assert len(_rows_without_runtime(tmp_path / "v" / "verify.csv")) == 2
    assert capsys.readouterr().err == ""
    assert el.default_burn_in(cli.config_from_dict(raw).models[0]) == 1000


def test_verify_reports_violation_exit(monkeypatch, tmp_path, capsys):
    # no honest cell can violate a true bound, so wire a fake report through
    path = _write_config(
        tmp_path, {"models": [AR1_SPEC], "horizon": 3_000, "p_values": [2]}
    )
    real = verify_module._score_cell

    def doctored(*args, **kwargs):
        scored = real(*args, **kwargs)
        for _, report in scored:
            object.__setattr__(report, "violation", True)
        return scored

    monkeypatch.setattr(verify_module, "_score_cell", doctored)
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
    real_resolve, real_audit = verify_module.resolve_controller, cli.causality_audit
    real_run_loops = verify_module.run_loops

    def counting_resolve(*args, **kwargs):
        controller = real_resolve(*args, **kwargs)
        resolved.append(controller)
        return controller

    def recording_audit(controller, **kwargs):
        audited.append(controller)
        return real_audit(controller, **kwargs)

    def recording_run_loops(model, controller, length, seeds):
        scored.append(controller)
        return real_run_loops(model, controller, length, seeds)

    monkeypatch.setattr(verify_module, "resolve_controller", counting_resolve)
    monkeypatch.setattr(cli, "causality_audit", recording_audit)
    monkeypatch.setattr(verify_module, "run_loops", recording_run_loops)
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
    real_resolve = verify_module.resolve_controller
    for command, record in seeds.items():

        def recording_resolve(spec, model, seed, record=record):
            record.append((spec["kind"], seed))
            return real_resolve(spec, model, seed)

        monkeypatch.setattr(verify_module, "resolve_controller", recording_resolve)
        assert cli.main([command, "--config", path]) == cli.EXIT_OK
    assert len(seeds["audit"]) == 4
    assert seeds["audit"] == seeds["verify"]


def test_audit_covers_the_controllers_of_later_trials(monkeypatch, tmp_path, capsys):
    # sweep and simulate resolve trial 1's random controller on the fourth
    # child of the master seed; doctor only that one to be non-causal
    raw = {"models": [AR1_SPEC], "controllers": [{"kind": "random"}], "trials": 2}
    path = _write_config(tmp_path, raw)
    trial1_seed = el.spawn_seeds(0, 4)[3]
    real_resolve = verify_module.resolve_controller

    def doctored_resolve(spec, model, seed):
        if seed == trial1_seed:
            return el.anticipatory_double()
        return real_resolve(spec, model, seed)

    monkeypatch.setattr(verify_module, "resolve_controller", doctored_resolve)
    assert cli.main(["audit", "--config", path]) == cli.EXIT_CAUSALITY
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == [
        "ok     ar1 / random",
        "FAILED ar1 / random t1",
    ]


def test_audit_checks_seedless_controllers_once_per_pair(monkeypatch, tmp_path, capsys):
    arma21 = {"kind": "gauss_arma", "ar": [0.5, -0.3], "ma": [0.4], "name": "arma21"}
    raw = {
        "models": [AR1_SPEC, arma21, UNIF_SPEC, VEC_SPEC],
        "controllers": [{"kind": "zero"}, {"kind": "predictor"}],
        "trials": 2,
    }
    path = _write_config(tmp_path, raw)
    calls = []
    real_audit = cli.causality_audit

    def counting_audit(controller, **kwargs):
        calls.append(controller)
        return real_audit(controller, **kwargs)

    monkeypatch.setattr(cli, "causality_audit", counting_audit)
    assert cli.main(["audit", "--config", path]) == cli.EXIT_OK
    assert len(calls) == 8
    assert len(capsys.readouterr().out.splitlines()) == 8


def test_audit_checks_a_pinned_random_controller_once(monkeypatch, tmp_path, capsys):
    # a random spec with its own "seed" builds the same controller every trial
    raw = {
        "models": [AR1_SPEC],
        "controllers": [{"kind": "random", "seed": 7}, {"kind": "random"}],
        "trials": 3,
    }
    path = _write_config(tmp_path, raw)
    assert cli.main(["audit", "--config", path]) == cli.EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == [
        "ok     ar1 / random",
        "ok     ar1 / random",
        "ok     ar1 / random t0",
        "ok     ar1 / random t1",
        "ok     ar1 / random t2",
    ]


def test_verify_numeric_fault_exit(monkeypatch, tmp_path, capsys):
    # z_k = 10 e_{k-1} is causal and passes both audits, but the loop diverges
    path = _write_config(
        tmp_path, {"models": [AR1_SPEC], "horizon": 3_000, "p_values": [2]}
    )
    diverging = el.ControllerPolicy(
        step=lambda e, z: 10.0 * float(e[-1]), descriptor="diverging"
    )
    monkeypatch.setattr(verify_module, "resolve_controller", lambda spec, model, seed: diverging)
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


def test_run_plan_pins_the_seeds_of_every_subcommand(tmp_path):
    raw = {
        "models": [AR1_SPEC, VEC_SPEC],
        "controllers": [{"kind": "zero"}, {"kind": "predictor"}],
        "p_values": [2],
        "horizon": 3_000,
        "trials": 2,
        "seed": 13,
    }
    config = cli.config_from_dict(raw)
    plan = verify_module.run_plan(config, config.trials)
    seeds = el.spawn_seeds(13, 16)
    assert [(c.trace_seed, c.controller_seed) for c in plan] == list(
        zip(seeds[::2], seeds[1::2])
    )
    assert [(c.model_name, c.label, c.trial) for c in plan[:4]] == [
        ("ar1", "zero", 0), ("ar1", "zero", 1),
        ("ar1", "predictor", 0), ("ar1", "predictor", 1),
    ]
    path = _write_config(tmp_path, raw)

    # only the seeds are under test here, not the verdicts or exit codes;
    # sweep scores a vector cell on the first child of its trace seed
    cli.main(["sweep", "--config", path, "--out", str(tmp_path / "s")])
    with open(tmp_path / "s" / "report.csv", newline="") as handle:
        swept = [int(row["seed"]) for row in csv.DictReader(handle)]
    assert swept == [
        c.trace_seed if c.model.dim == 1 else el.spawn_seeds(c.trace_seed, 1)[0]
        for c in plan
    ]

    assert cli.main(["simulate", "--config", path, "--out", str(tmp_path / "t")]) == 0
    for c in plan:
        sidecar = tmp_path / "t" / f"{c.model_name}__{c.label}__t{c.trial}.json"
        assert json.loads(sidecar.read_text())["seed"] == c.trace_seed

    # verify pools the trials of one cell per pair of the one-trial plan
    cli.main(["verify", "--config", path, "--out", str(tmp_path / "v")])
    with open(tmp_path / "v" / "verify.csv", newline="") as handle:
        verified = [int(row["seed"]) for row in csv.DictReader(handle)]
    pairs = verify_module.run_plan(config, 1)
    assert pairs[1].controller_seed == seeds[3]
    assert verified == [el.spawn_seeds(c.trace_seed, 3)[0] for c in pairs]


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


def test_all_error_sweep_writes_strict_json(tmp_path, capsys):
    # no row is scored, so there is no worst gap ratio: null, never NaN
    path = _write_config(
        tmp_path, {"models": [VEC_SPEC], "controllers": [{"kind": "random"}], "horizon": 3_000}
    )
    assert cli.main(["sweep", "--config", path, "--out", str(tmp_path / "s")]) == cli.EXIT_CONFIG

    def refuse(constant):
        raise AssertionError(f"{constant} is not JSON")

    printed = json.loads(capsys.readouterr().out, parse_constant=refuse)
    written = json.loads((tmp_path / "s" / "summary.json").read_text(), parse_constant=refuse)
    assert printed == written
    assert written["cells"] == 0
    assert written["worst_gap_ratio"] is None
    assert [e["message"] for e in written["errors"]] == [
        "ValueError: random controllers support scalar models only"
    ]


def test_short_post_burn_in_window_keeps_the_rows_without_certificate(tmp_path, capsys):
    # a burn-in of 1000 steps leaves 500 samples, fewer than the whiteness test
    # needs: each row keeps its verdict and leaves the certificate columns blank
    raw = {"models": [{"kind": "gauss_arma", "ar": [0.9]}], "horizon": 1500, "p_values": [1, 2]}
    path = _write_config(tmp_path, raw)
    assert cli.main(["sweep", "--config", path, "--out", str(tmp_path / "s")]) == cli.EXIT_OK
    with open(tmp_path / "s" / "report.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert [row["cell_id"] for row in rows] == ["c00000p0", "c00000p1"]
    for row in rows:
        assert row["violation"] == "false"
        assert (row["whiteness_pass"], row["ggfit_pass"], row["mi_lag1_bits"]) == ("", "", "")
    assert json.loads(capsys.readouterr().out)["errors"] == []
    assert cli.main(["verify", "--config", path]) == cli.EXIT_OK


def test_readme_example_config_runs(tmp_path, capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (block,) = re.findall(r"```json\n(.*?)```", readme, flags=re.S)
    raw = json.loads(block)
    raw["horizon"] = 3000
    path = _write_config(tmp_path, raw)
    assert cli.main(["audit", "--config", path]) == cli.EXIT_OK
    assert cli.main(["verify", "--config", path, "--out", str(tmp_path / "v")]) == cli.EXIT_OK
    assert (tmp_path / "v" / "verify.csv").exists()


# ---------------------------------------------------------------------------
# the package


def test_package_republishes_each_library_modules_public_names():
    library = "distributions processes config spectral bounds simulator estimators verify"
    modules = [importlib.import_module(f"entrolim.{name}") for name in library.split()]
    assert el.__all__ == [name for module in modules for name in module.__all__] + ["__version__"]
    for module in modules:
        for name in module.__all__:
            assert getattr(el, name) is getattr(module, name)
    assert "main" not in el.__all__
