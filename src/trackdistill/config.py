"""Flat INI configuration shared by every command.

Keys live in five sections (env, model, train, teachers, eval). A loaded
``Config`` is six frozen dataclasses, whose fields are keys typed by their
default: the five the library takes, and ``PipelineSettings`` for the keys
only the commands read. ``load_config`` builds all six, and each checks its
values as it is built, so a bad value fails before any command writes.
Anything outside the schema is rejected so a typo cannot silently fall back
to a default. Every run echoes its effective config.
"""

from __future__ import annotations

import configparser
import math
import os
from dataclasses import dataclass, field, fields
from typing import Any, Dict, Optional

from .errors import ConfigError, TrackDistillError
from .model import StudentConfig
from .teachers import check_id
from .trackers import EVALUATORS, VALUE_EVALUATOR
from .training import OptimizerConfig, TrainSettings, WorkerConfig
from .transferset import check_beta
from .video import SyntheticSpec


@dataclass(frozen=True)
class PipelineSettings:
    """The keys that only the commands read: dataset size, teacher pool,
    filter threshold, tracking evaluator and the dataset's name in reports."""

    num_videos: int = 20
    pool: str = "oracle:0.9"
    beta: float = 0.5
    evaluator: str = VALUE_EVALUATOR
    dataset_id: str = "dataset"

    def __post_init__(self) -> None:
        if self.num_videos < 1:
            raise ConfigError(f"num_videos must be >= 1, got {self.num_videos}")
        check_beta(self.beta)
        if self.evaluator not in EVALUATORS:
            raise ConfigError(f"unknown evaluator {self.evaluator!r}")
        check_id("dataset id", self.dataset_id)


@dataclass(frozen=True)
class Config:
    """One loaded configuration; each field's default factory is its class."""

    model: StudentConfig = field(default_factory=StudentConfig)
    env: SyntheticSpec = field(default_factory=SyntheticSpec)
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    worker: WorkerConfig = field(default_factory=WorkerConfig)
    train: TrainSettings = field(default_factory=TrainSettings)
    pipeline: PipelineSettings = field(default_factory=PipelineSettings)


SECTIONS = {
    StudentConfig: "model",
    SyntheticSpec: "env",
    OptimizerConfig: "train",
    WorkerConfig: "train",
    TrainSettings: "train",
    PipelineSettings: "eval",
}
# (class, field) -> key, where the key is not <section>.<field>
RENAMED = {
    (OptimizerConfig, "method"): "train.optimizer",
    (WorkerConfig, "returns_mode"): "train.returns",
    (WorkerConfig, "context"): "env.context",
    (PipelineSettings, "num_videos"): "env.num_videos",
    (PipelineSettings, "pool"): "teachers.pool",
}
# fields fixed by the code or the command line, not by the config
NOT_KEYS = {"beta1", "beta2", "eps", "seed", "record_deltas"}


def _keyed_fields(cls: type):
    """(field, key) for each field of ``cls`` that is a config key."""
    for f in fields(cls):
        if f.name not in NOT_KEYS:
            yield f, RENAMED.get((cls, f.name), f"{SECTIONS[cls]}.{f.name}")


# key -> default; a key's type is its default's (a tuple is a comma list of ints)
SCHEMA: Dict[str, Any] = {key: f.default for cls in SECTIONS for f, key in _keyed_fields(cls)}

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


def load_config(path: Optional[str] = None) -> Config:
    """The defaults overlaid with the INI file at ``path``, if any, its values
    read verbatim (no "%" interpolation). Each part checks its values as it is
    built; an unknown section or key, or a bad value, fails naming the file."""
    texts: Dict[str, str] = {}
    if path is not None:
        parser = configparser.ConfigParser(interpolation=None)
        try:
            with open(path) as fh:
                parser.read_file(fh)
        except OSError as e:
            raise ConfigError(f"cannot read config {path!r}: {e}")
        except (configparser.Error, UnicodeDecodeError) as e:
            raise ConfigError(f"{path}: {e}")
        texts = {f"{s}.{name}": text for s in parser.sections() for name, text in parser.items(s)}
    try:
        values = {key: parse_value(key, text) for key, text in texts.items()}
        return Config(**{
            part.name: part.default_factory(**{
                f.name: values[key]
                for f, key in _keyed_fields(part.default_factory) if key in values
            })
            for part in fields(Config)
        })
    except TrackDistillError as e:
        raise ConfigError(f"{path}: {e}")


def echo_config(config: Config, out_dir: str) -> str:
    """Write the full effective configuration to ``<out_dir>/config.ini``;
    rerunning from it reproduces the run."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "config.ini")
    sections: Dict[str, Dict[str, str]] = {}
    for part in fields(config):
        values = getattr(config, part.name)
        for f, key in _keyed_fields(type(values)):
            value = getattr(values, f.name)
            if isinstance(value, tuple):
                text = ",".join(str(v) for v in value)
            elif isinstance(value, bool):
                text = "true" if value else "false"
            else:
                text = repr(value) if isinstance(value, float) else str(value)
            section, option = key.split(".", 1)
            sections.setdefault(section, {})[option] = text
    with open(path, "w") as fh:
        for section in sorted(sections):
            fh.write(f"[{section}]\n")
            for option in sorted(sections[section]):
                fh.write(f"{option} = {sections[section][option]}\n")
            fh.write("\n")
    return path
