"""The experiment config: every JSON spec, read in one place.

``load_config`` reads a JSON file and ``config_from_dict`` checks it into an
``ExperimentConfig`` (``cli`` re-exports all four): models through
``model_from_config``, controllers through ``_controller_settings``, the one
declaration of each controller kind and its seed.  Each object goes through
``_read_object``, against a table of each kind's keys, and each bounded
number through ``_ranged``; a fault raises ConfigError naming its field.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass

from .distributions import GeneralizedGaussian
from .processes import IID, DisturbanceModel, GaussARMA, GenGaussAR, VectorGaussAR

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "config_from_dict",
    "load_config",
    "model_from_config",
    "spec_number",
    "spec_exponent",
]


class ConfigError(ValueError):
    """Raised for malformed or inconsistent experiment configs."""


def _read_object(spec, what: str, keys, tag: str = "kind", default=None, label=None):
    """Check that ``spec`` is an object with the declared keys; return its kind.

    ``keys`` lists the keys, "?" marking an optional one; a dict of such lists
    declares the kinds named by the ``tag`` key (``default`` when absent).  A
    non-object, an unknown kind, an undeclared key and a missing key raise
    ConfigError naming ``what`` (``label`` names an unknown kind), and so
    does a ``name`` that is not a string.
    """
    if not isinstance(spec, dict):
        raise ConfigError(f"{what} must be an object, got {type(spec).__name__}")
    kind = spec.get(tag, default)
    if isinstance(keys, dict):
        if kind not in list(keys):  # by ==: a JSON list kind is unhashable
            label = label or f"{what} {tag}"
            raise ConfigError(f"{tag}: unknown {label} {kind!r}, expected one of {sorted(keys)}")
        keys = f"{tag}? {keys[kind]}"
    unknown = set(spec) - {key.rstrip("?") for key in keys.split()}
    if unknown:
        raise ConfigError(f"unknown {what} keys: {sorted(unknown)}")
    missing = [key for key in keys.split() if not key.endswith("?") and key not in spec]
    if missing:
        raise ConfigError(f"missing {what} keys: {missing}")
    if not isinstance(spec.get("name", ""), str):
        raise ConfigError(f"name: must be a string, got {spec['name']!r}")
    return kind


def spec_number(value, key: str, *, integer: bool = False):
    """A number of a JSON spec, read one way for every field.

    Booleans, strings, other non-numbers, NaN and +-inf (Python's ``json``
    reads the last two) raise ConfigError naming ``key``, and so does an
    integer beyond the float range where a float goes; with ``integer``,
    so do fractions, while integral floats such as 3000.0 pass and come
    back as int.
    """
    what = "an integer" if integer else "a finite number"
    try:
        bad = (
            isinstance(value, bool)
            or not isinstance(value, numbers.Real)
            or (value % 1 if integer else not math.isfinite(value))
        )
    except OverflowError:  # math.isfinite of an int beyond the float range
        bad = True
    if bad:
        raise ConfigError(f"{key}: must be {what}, got {value!r}")
    return int(value) if integer else float(value)


def _ranged(value, key: str, low, *, strict=False, integer=True, low_name=None):
    """``spec_number(value, key)``, refused unless >= ``low`` (> if ``strict``)."""
    value = spec_number(value, key, integer=integer)
    if value < low or (strict and value == low):
        bound = low if low_name is None else f"{low_name} ({low})"
        raise ConfigError(f"{key}: must be {'>' if strict else '>='} {bound}, got {value!r}")
    return value


def spec_exponent(value, key: str) -> float:
    """A norm exponent p >= 1: "inf" or "infinity" in any case, JSON's
    Infinity, or else a number read by ``spec_number``."""
    if str(value).strip().lower() in ("inf", "infinity"):
        return math.inf
    try:
        p = spec_number(value, key)
    except ConfigError:
        raise ConfigError(f"{key}: must be a number or 'inf', cannot parse {value!r}") from None
    return _ranged(p, key, 1, integer=False)


def _spec_numbers(values, key: str, depth: int = 1) -> tuple:
    """A list of numbers (depth 1) or of such lists (depth 2), by ``spec_number``."""
    if not isinstance(values, (list, tuple)):
        raise ConfigError(f"{key}: must be a list, got {values!r}")
    if depth == 1:
        return tuple(spec_number(v, key) for v in values)
    return tuple(_spec_numbers(v, key, depth - 1) for v in values)


#: Each model kind's keys, and each innovation family's; "?" marks an optional one.
_MODEL_KEYS = {
    "iid": "name? innovation",
    "gauss_arma": "name? ar? ma? innovation?",
    "gengauss_ar": "name? ar? innovation",
    "vector_gauss_ar": "name? transition innovation_covariance",
}
_INNOVATION_KEYS = {"gaussian": "variance", "gg": "p mu"}


def _innovation_from_config(spec: dict, kind: str):
    """A scalar model's innovation: for gauss_arma the variance of a gaussian
    one (1 when absent), else a GeneralizedGaussian, gg by default."""
    arma = kind == "gauss_arma"
    innovation = spec.get("innovation", {"variance": 1.0}) if arma else spec["innovation"]
    try:
        family = _read_object(
            innovation, "innovation", {"gaussian": "variance"} if arma else _INNOVATION_KEYS,
            "family", "gaussian" if arma else "gg",
        )
    except ConfigError as exc:
        raise ConfigError(f"innovation: {exc}") from None
    if family == "gg":
        p = spec_exponent(innovation["p"], "innovation.p")
        mu = _ranged(innovation["mu"], "innovation.mu", 0, strict=True, integer=False)
        return GeneralizedGaussian(p, mu)
    variance = _ranged(innovation["variance"], "innovation.variance", 0, strict=True, integer=False)
    return variance if arma else GeneralizedGaussian.gaussian(math.sqrt(variance))


def model_from_config(spec: dict) -> DisturbanceModel:
    """Build a disturbance model from its JSON-config dictionary.

    A spec fault raises ConfigError naming its field; a model's own check
    (such as a stable AR polynomial) raises ValueError.
    """
    kind = _read_object(spec, "model", _MODEL_KEYS)
    if kind == "vector_gauss_ar":
        return VectorGaussAR(
            *(_spec_numbers(spec[key], key, 2) for key in ("transition", "innovation_covariance"))
        )
    ar, ma = (_spec_numbers(spec.get(key, ()), key) for key in ("ar", "ma"))
    innovation = _innovation_from_config(spec, kind)
    if kind == "gauss_arma":
        return GaussARMA(ar, ma, innovation)
    return IID(innovation) if kind == "iid" else GenGaussAR(ar, innovation)


#: Each controller kind's keys, all optional.
_CONTROLLER_KEYS = {
    "random": "name? seed? memory? gain_cap?",
    "learned": "name? memory? train_steps?",
    **dict.fromkeys(["zero", "predictor", "anticipatory"], "name?"),
}


def _controller_settings(spec: dict, seed: int) -> dict:
    """The one declaration of the controller kinds: the numbers each reads.

    Every kind that draws on a seed carries it as "seed": ``random`` its
    own (default ``seed``, >= 0), read with memory >= 0 and gain_cap > 0,
    and ``learned`` ``seed``, with memory >= 1 and train_steps > memory.
    zero, predictor and anticipatory read none; a fault raises ConfigError.
    """
    kind = _read_object(spec, "controller", _CONTROLLER_KEYS, label="kind")
    if kind == "random":
        gain_cap = _ranged(spec.get("gain_cap", 2.0), "gain_cap", 0, strict=True, integer=False)
        own_seed = _ranged(spec.get("seed", seed), "seed", 0)
        memory = _ranged(spec.get("memory", 3), "memory", 0)
        return dict(seed=own_seed, memory=memory, gain_cap=gain_cap)
    if kind == "learned":
        memory = _ranged(spec.get("memory", 2), "memory", 1)
        steps = spec.get("train_steps", 50_000)
        train_steps = _ranged(steps, "train_steps", memory, strict=True, low_name="memory")
        return dict(seed=seed, memory=memory, train_steps=train_steps)
    return {}


#: The config root's keys.
_CONFIG_KEYS = "models controllers? p_values? horizon? trials? seed?"


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description shared by every subcommand."""

    models: tuple[DisturbanceModel, ...]
    model_names: tuple[str, ...]
    controllers: tuple[dict, ...]
    p_values: tuple[float, ...]
    horizon: int
    trials: int
    master_seed: int


def config_from_dict(raw) -> ExperimentConfig:
    """Validate a parsed JSON config; a fault raises ConfigError naming its field."""

    def entries(key: str, default, read) -> list[tuple[dict, object]]:
        """(spec, ``read(spec)``) for each spec of the non-empty list ``raw[key]``."""
        specs = raw.get(key, default)
        if not isinstance(specs, list) or not specs:
            raise ConfigError(f"{key}: need a non-empty list of {key[:-1]} objects")
        out = []
        for i, spec in enumerate(specs):
            try:
                out.append((spec, read(spec)))
            except ValueError as exc:
                raise ConfigError(f"{key}[{i}]: {exc}") from exc
        return out

    _read_object(raw, "config", _CONFIG_KEYS)
    models = entries("models", None, model_from_config)
    names = [spec.get("name", f"model{i}") for i, (spec, _) in enumerate(models)]
    if len(set(names)) != len(names):
        raise ConfigError("models: names must be unique")
    controllers = entries("controllers", [{"kind": "zero"}], lambda s: _controller_settings(s, 0))

    p_raw = raw.get("p_values", [2])
    if not isinstance(p_raw, list) or not p_raw:
        raise ConfigError("p_values: need a non-empty list")
    return ExperimentConfig(
        models=tuple(model for _, model in models),
        model_names=tuple(names),
        controllers=tuple(dict(spec) for spec, _ in controllers),
        p_values=tuple(spec_exponent(v, "p_values") for v in p_raw),
        horizon=_ranged(raw.get("horizon", 20_000), "horizon", 2),
        trials=_ranged(raw.get("trials", 1), "trials", 1),
        master_seed=_ranged(raw.get("seed", 0), "seed", 0),
    )


def load_config(path) -> ExperimentConfig:
    """``config_from_dict`` of a JSON file; invalid JSON raises ConfigError."""
    try:
        with open(path) as handle:
            raw = json.load(handle)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    return config_from_dict(raw)
