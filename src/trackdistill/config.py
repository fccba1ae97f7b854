"""Flat INI configuration shared by every command.

Keys live in five sections (env, model, train, teachers, eval). Defaults live
in the config dataclasses, whose fields are keys typed by their default, and
``build`` makes one of them from a config; each checks its values as it is
built. Anything outside the schema is rejected so a typo cannot silently fall
back to a default. Every run echoes its effective config.
"""

from __future__ import annotations

import configparser
import math
import os
from dataclasses import fields
from typing import Any, Dict

from .errors import ConfigError
from .model import StudentConfig
from .trackers import VALUE_EVALUATOR
from .training import OptimizerConfig, TrainSettings, WorkerConfig
from .video import SyntheticSpec

SECTIONS = {
    StudentConfig: "model",
    SyntheticSpec: "env",
    OptimizerConfig: "train",
    WorkerConfig: "train",
    TrainSettings: "train",
}
# (class, field) -> key, where the key is not <section>.<field>
RENAMED = {
    (OptimizerConfig, "method"): "train.optimizer",
    (WorkerConfig, "returns_mode"): "train.returns",
    (WorkerConfig, "context"): "env.context",
}
# fields fixed by the code or the command line, not by the config
NOT_KEYS = {"beta1", "beta2", "eps", "seed", "record_deltas"}
# keys no dataclass carries
EXTRA = {
    "env.num_videos": 20,
    "teachers.pool": "oracle:0.9",
    "eval.beta": 0.5,
    "eval.evaluator": VALUE_EVALUATOR,
    "eval.dataset_id": "dataset",
}


def _keyed_fields(cls: type):
    """(field, key) for each field of ``cls`` that is a config key."""
    for f in fields(cls):
        if f.name not in NOT_KEYS:
            yield f, RENAMED.get((cls, f.name), f"{SECTIONS[cls]}.{f.name}")


# key -> default; a key's type is its default's (a tuple is a comma list of ints)
SCHEMA: Dict[str, Any] = {key: f.default for cls in SECTIONS for f, key in _keyed_fields(cls)}
SCHEMA.update(EXTRA)

_TRUE = {"1", "true", "yes", "on"}
_FALSE = {"0", "false", "no", "off"}


def parse_value(key: str, text: str) -> Any:
    if key not in SCHEMA:
        raise ConfigError(f"unknown config key {key!r}")
    kind = type(SCHEMA[key])
    text = text.strip()
    try:
        if kind is int:
            return int(text)
        if kind is float:
            value = float(text)
            if not math.isfinite(value):
                raise ValueError("not a finite number")
            return value
        if kind is bool:
            low = text.lower()
            if low in _TRUE:
                return True
            if low in _FALSE:
                return False
            raise ValueError(f"not a boolean: {text!r}")
        if kind is tuple:
            return tuple(int(p) for p in text.replace(" ", "").split(",") if p)
    except ValueError as e:
        raise ConfigError(f"{key}: {e}")
    return text


class Config:
    """Immutable-by-convention mapping of schema keys to typed values."""

    def __init__(self, values: Dict[str, Any]):
        for key in values:
            if key not in SCHEMA:
                raise ConfigError(f"unknown config key {key!r}")
        self.values = dict(values)

    def __getitem__(self, key: str) -> Any:
        if key not in SCHEMA:
            raise ConfigError(f"unknown config key {key!r}")
        return self.values.get(key, SCHEMA[key])

    def with_overrides(self, overrides: Dict[str, Any]) -> "Config":
        return Config({**self.values, **overrides})

    def effective(self) -> Dict[str, Any]:
        return {key: self[key] for key in SCHEMA}


def default_config() -> Config:
    return Config({})


def load_config(path: str) -> Config:
    """Defaults overlaid with an INI file, its values read verbatim (no "%"
    interpolation); unknown sections or keys fail, naming the file."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as e:
        raise ConfigError(f"cannot read config {path!r}: {e}")
    except (configparser.Error, UnicodeDecodeError) as e:
        raise ConfigError(f"{path}: {e}")
    values: Dict[str, Any] = {}
    try:
        for section in parser.sections():
            for name, text in parser.items(section):
                key = f"{section}.{name}"
                values[key] = parse_value(key, text)
    except ConfigError as e:
        raise ConfigError(f"{path}: {e}")
    return Config(values)


def echo_config(config: Config, out_dir: str, name: str = "config.ini") -> str:
    """Write the full effective configuration; rerunning from it reproduces the run."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    sections: Dict[str, Dict[str, str]] = {}
    for key, value in config.effective().items():
        section, option = key.split(".", 1)
        if isinstance(value, tuple):
            text = ",".join(str(v) for v in value)
        elif isinstance(value, bool):
            text = "true" if value else "false"
        else:
            text = repr(value) if isinstance(value, float) else str(value)
        sections.setdefault(section, {})[option] = text
    with open(path, "w") as fh:
        for section in sorted(sections):
            fh.write(f"[{section}]\n")
            for option in sorted(sections[section]):
                fh.write(f"{option} = {sections[section][option]}\n")
            fh.write("\n")
    return path


def build(config: Config, cls: type, **extra: Any):
    """An instance of config dataclass ``cls`` with every key field read from
    ``config``; ``extra`` sets the fields that are not keys (``seed=``)."""
    return cls(**{f.name: config[key] for f, key in _keyed_fields(cls)}, **extra)
