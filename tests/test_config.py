import re
from dataclasses import fields, replace

import pytest

from trackdistill.config import (
    SCHEMA,
    Config,
    PipelineSettings,
    _keyed_fields,
    echo_config,
    load_config,
    parse_value,
)
from trackdistill.errors import ConfigError, InvalidInputError
from trackdistill.model import StudentConfig
from trackdistill.training import OptimizerConfig, TrainSettings, WorkerConfig
from trackdistill.video import SyntheticSpec

CONFIG_CLASSES = (StudentConfig, SyntheticSpec, OptimizerConfig, WorkerConfig, TrainSettings,
                  PipelineSettings)
PART = {f.default_factory: f.name for f in fields(Config)}  # class -> its field of Config

DEFAULT_INI = """\
[env]
background = noise
context = 1.5
height = 96
max_size = 40
max_step = 2.0
min_size = 16
motion = random-walk
num_frames = 64
num_videos = 20
scale_drift = 0.0
width = 96

[eval]
beta = 0.5
dataset_id = dataset
evaluator = value

[model]
conv_channels = 8,16,32
fc_dim = 64
hidden_dim = 64
patch_size = 32

[teachers]
pool = oracle:0.9

[train]
curriculum = true
gamma = 1.0
grad_clip = 0.0
initial_horizon = 1
lr = 1e-06
max_updates = 50000
optimizer = radam
patience = 5
returns = forward
rl_scale = 0.001
sigma_floor = 0.001
t_max = 5
tau = 0.25
val_every = 2000
weight_decay = 0.0001
workers = 8

"""


class TestSchema:
    def test_defaults(self):
        c = load_config()
        assert c == Config()
        assert c.optimizer.lr == 1e-6
        assert c.train.workers == 8
        assert c.worker.t_max == 5
        assert c.worker.gamma == 1.0
        assert c.worker.context == 1.5
        assert c.pipeline.beta == 0.5
        assert c.model.conv_channels == (8, 16, 32)
        assert c.train.curriculum is True

    def test_unknown_key_rejected_on_read(self, tmp_path):
        # a field fixed by the code is not a key
        ini = tmp_path / "seed.ini"
        ini.write_text("[train]\nseed = 3\n")
        with pytest.raises(ConfigError, match=re.escape(f"{ini}: unknown config key 'train.seed'")):
            load_config(str(ini))

    def test_unknown_key_rejected_on_construction(self):
        # a renamed field is a key under its new name only
        with pytest.raises(ConfigError, match="unknown config key 'train.returns_mode'"):
            parse_value("train.returns_mode", "forward")

    def test_parse_typed_values(self):
        assert parse_value("train.workers", " 4 ") == 4
        assert parse_value("train.lr", "1e-3") == 1e-3
        assert parse_value("train.curriculum", "no") is False
        assert parse_value("train.curriculum", "TRUE") is True
        assert parse_value("model.conv_channels", "4, 8") == (4, 8)
        assert parse_value("env.motion", "linear") == "linear"

    def test_parse_garbage_rejected(self):
        with pytest.raises(ConfigError):
            parse_value("train.workers", "several")
        with pytest.raises(ConfigError):
            parse_value("train.curriculum", "maybe")

    def test_exact_key_set(self):
        assert sorted(SCHEMA) == sorted(
            ["env." + k for k in (
                "width", "height", "num_frames", "num_videos", "min_size", "max_size",
                "motion", "max_step", "scale_drift", "background", "context",
            )]
            + ["model." + k for k in (
                "patch_size", "conv_channels", "fc_dim", "hidden_dim",
            )]
            + ["train." + k for k in (
                "workers", "t_max", "gamma", "optimizer", "lr", "weight_decay",
                "rl_scale", "grad_clip", "sigma_floor", "returns", "max_updates",
                "val_every", "patience", "curriculum", "initial_horizon", "tau",
            )]
            + ["teachers.pool", "eval.beta", "eval.evaluator", "eval.dataset_id"]
        )
        assert len(SCHEMA) == 35

    @pytest.mark.parametrize("key", sorted(k for k, v in SCHEMA.items() if type(v) is float))
    @pytest.mark.parametrize("text", ["nan", "inf", "-inf", " NaN ", "-Infinity"])
    def test_non_finite_float_rejected(self, key, text):
        with pytest.raises(ConfigError, match=f"{key}: not a finite number"):
            parse_value(key, text)

    def test_non_finite_float_rejected_from_ini(self, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text("[train]\nweight_decay = nan\n")
        with pytest.raises(ConfigError, match="train.weight_decay"):
            load_config(str(ini))

    def test_fractional_object_size_rejected(self):
        with pytest.raises(ConfigError):
            parse_value("env.min_size", "16.5")

    def test_overrides(self):
        c = load_config()
        assert replace(c.train, seed=7).seed == 7
        assert replace(c.pipeline, beta=0.7).beta == 0.7
        with pytest.raises(InvalidInputError, match=re.escape("beta must lie in [0.5, 1), got 0.3")):
            replace(c.pipeline, beta=0.3)


class TestLoadAndEcho:
    def test_ini_round_trip(self, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text("[train]\nlr = 1e-4\nworkers = 2\n\n[model]\npatch_size = 16\n")
        c = load_config(str(ini))
        assert c.optimizer.lr == 1e-4
        assert c.train.workers == 2
        assert c.model.patch_size == 16
        assert c.worker.t_max == 5  # untouched default

    def test_unknown_section_key_rejected(self, tmp_path):
        ini = tmp_path / "bad.ini"
        ini.write_text("[train]\nlearning_rate = 1\n")
        with pytest.raises(ConfigError):
            load_config(str(ini))

    def test_unknown_section_rejected(self, tmp_path):
        ini = tmp_path / "bad.ini"
        ini.write_text("[optimizer]\nlr = 1\n")
        with pytest.raises(ConfigError):
            load_config(str(ini))

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(str(tmp_path / "absent.ini"))

    def test_values_read_verbatim(self, tmp_path):
        # no interpolation: a "%" in an extern command is part of the command
        pool = "oracle:0.9,extern:ext:date +%Y-%m-%d"
        ini = tmp_path / "pool.ini"
        ini.write_text(f"[teachers]\npool = {pool}\n")
        assert load_config(str(ini)).pipeline.pool == pool
        back = load_config(echo_config(load_config(str(ini)), str(tmp_path / "echo")))
        assert back.pipeline.pool == pool

    @pytest.mark.parametrize("text", [b"[train]\nlr = 1e-4\xff\n", b"[train\xff]\n"])
    def test_undecodable_bytes_name_the_path(self, tmp_path, text):
        ini = tmp_path / "bad.ini"
        ini.write_bytes(text)
        with pytest.raises(ConfigError, match=re.escape(f"{ini}: ")):
            load_config(str(ini))

    def test_echo_reproduces_effective_config(self, tmp_path):
        c = Config(
            model=StudentConfig(conv_channels=(4, 8)),
            optimizer=OptimizerConfig(lr=3e-5),
            train=TrainSettings(curriculum=False),
        )
        path = echo_config(c, str(tmp_path))
        assert load_config(path) == c

    def test_default_echo_text(self, tmp_path):
        with open(echo_config(load_config(), str(tmp_path))) as fh:
            assert fh.read() == DEFAULT_INI

    def test_echo_naming_the_retired_encoder_fails_until_those_lines_go(self, tmp_path):
        # the default config.ini with the keys it had while the pool encoder existed
        old = DEFAULT_INI.replace("[model]\n", "[model]\nencoder = conv\npool_dim = 32\n"
                                  "pool_factor = 4\n")
        ini = tmp_path / "config.ini"
        ini.write_text(old)
        with pytest.raises(ConfigError, match=re.escape(
            f"{ini}: unknown config key 'model.encoder'"
        )):
            load_config(str(ini))
        ini.write_text(re.sub(r"^(encoder|pool_dim|pool_factor) = .*\n", "", old, flags=re.M))
        assert load_config(str(ini)) == Config()

    def test_echo_is_deterministic(self, tmp_path):
        c = load_config()
        with open(echo_config(c, str(tmp_path / "a"))) as fa:
            with open(echo_config(c, str(tmp_path / "b"))) as fb:
                assert fa.read() == fb.read()


# a valid alternative to each string default, and to beta's 0.5, which halved
# would fall below its range
OTHER_CHOICE = {
    "random-walk": "linear", "noise": "flat", "radam": "adam",
    "forward": "prefix-sum", "oracle:0.9": "oracle:0.8", "value": "oracle",
    "dataset": "otb", 0.5: "0.75",
}


def _other(value):
    """An INI text for a value of the same type as ``value`` but unequal to
    it. Each class stays valid with all its keys set so: ints grow by 4 (patch
    36 divides by 2^2 for the two conv stages "4,8"), and floats halve, or
    become 0.5 from 0, so that gamma stays in (0, 1]."""
    if isinstance(value, bool):
        return "false" if value else "true"
    if isinstance(value, tuple):
        return "4,8"
    if isinstance(value, int):
        return str(value + 4)
    if isinstance(value, float):
        return OTHER_CHOICE.get(value, str(value / 2 or 0.5))
    return OTHER_CHOICE[value]


class TestBridges:
    def test_student_config(self):
        sc = load_config().model
        assert sc == StudentConfig()
        assert sc.patch_size == 32
        assert sc.conv_channels == (8, 16, 32)

    def test_synthetic_spec(self):
        spec = load_config().env
        assert spec == SyntheticSpec()
        assert (spec.width, spec.height, spec.num_frames) == (96, 96, 64)

    def test_optimizer_and_worker(self):
        c = load_config()
        opt = c.optimizer
        assert opt.method == "radam" and opt.lr == 1e-6
        assert opt.rl_scale == 1e-3 and opt.weight_decay == 1e-4
        wc = c.worker
        assert wc.t_max == 5 and wc.context == 1.5

    def test_train_settings_carry_seed(self):
        ts = replace(load_config().train, seed=42)
        assert ts.seed == 42
        assert ts.workers == 8
        assert ts.tau == 0.25

    @pytest.mark.parametrize("cls", CONFIG_CLASSES, ids=lambda c: c.__name__)
    def test_every_key_reaches_its_field(self, cls, tmp_path):
        keyed = list(_keyed_fields(cls))
        sections = {}
        for f, key in keyed:
            section, option = key.split(".")
            sections.setdefault(section, []).append(f"{option} = {_other(f.default)}")
        ini = tmp_path / "run.ini"
        ini.write_text("".join(f"[{s}]\n" + "\n".join(o) + "\n" for s, o in sections.items()))
        built = getattr(load_config(str(ini)), PART[cls])
        for f, key in keyed:
            value = getattr(built, f.name)
            assert value != f.default, key
            assert value == parse_value(key, _other(f.default))
        # the fields that are not keys keep their defaults
        for f in fields(cls):
            if f.name not in {g.name for g, _ in keyed}:
                assert getattr(built, f.name) == f.default
