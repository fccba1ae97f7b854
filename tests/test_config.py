from dataclasses import fields

import pytest

from trackdistill.config import (
    SCHEMA,
    Config,
    _keyed_fields,
    build,
    default_config,
    echo_config,
    load_config,
    parse_value,
)
from trackdistill.errors import ConfigError
from trackdistill.model import StudentConfig
from trackdistill.training import OptimizerConfig, TrainSettings, WorkerConfig
from trackdistill.video import SyntheticSpec

CONFIG_CLASSES = (StudentConfig, SyntheticSpec, OptimizerConfig, WorkerConfig, TrainSettings)

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
encoder = conv
fc_dim = 64
hidden_dim = 64
patch_size = 32
pool_dim = 32
pool_factor = 4

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
        c = default_config()
        assert c["train.lr"] == 1e-6
        assert c["train.workers"] == 8
        assert c["train.t_max"] == 5
        assert c["train.gamma"] == 1.0
        assert c["env.context"] == 1.5
        assert c["eval.beta"] == 0.5
        assert c["model.conv_channels"] == (8, 16, 32)
        assert c["train.curriculum"] is True

    def test_unknown_key_rejected_on_read(self):
        with pytest.raises(ConfigError):
            default_config()["train.momentum"]

    def test_unknown_key_rejected_on_construction(self):
        with pytest.raises(ConfigError):
            Config({"train.turbo": 1})

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
                "patch_size", "encoder", "conv_channels", "pool_factor", "pool_dim",
                "fc_dim", "hidden_dim",
            )]
            + ["train." + k for k in (
                "workers", "t_max", "gamma", "optimizer", "lr", "weight_decay",
                "rl_scale", "grad_clip", "sigma_floor", "returns", "max_updates",
                "val_every", "patience", "curriculum", "initial_horizon", "tau",
            )]
            + ["teachers.pool", "eval.beta", "eval.evaluator", "eval.dataset_id"]
        )
        assert len(SCHEMA) == 38

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
        c = default_config().with_overrides({"train.lr": 0.5})
        assert c["train.lr"] == 0.5
        with pytest.raises(ConfigError):
            default_config().with_overrides({"nope.nope": 1})


class TestLoadAndEcho:
    def test_ini_round_trip(self, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text("[train]\nlr = 1e-4\nworkers = 2\n\n[model]\npatch_size = 16\n")
        c = load_config(str(ini))
        assert c["train.lr"] == 1e-4
        assert c["train.workers"] == 2
        assert c["model.patch_size"] == 16
        assert c["train.t_max"] == 5  # untouched default

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

    def test_echo_reproduces_effective_config(self, tmp_path):
        c = default_config().with_overrides(
            {"train.lr": 3e-5, "model.conv_channels": (4, 8), "train.curriculum": False}
        )
        path = echo_config(c, str(tmp_path))
        back = load_config(path)
        assert back.effective() == c.effective()

    def test_default_echo_text(self, tmp_path):
        with open(echo_config(default_config(), str(tmp_path))) as fh:
            assert fh.read() == DEFAULT_INI

    def test_echo_is_deterministic(self, tmp_path):
        c = default_config()
        with open(echo_config(c, str(tmp_path / "a"))) as fa:
            with open(echo_config(c, str(tmp_path / "b"))) as fb:
                assert fa.read() == fb.read()


def _other(value):
    """An INI text for a value of the same type as ``value`` but unequal to it."""
    if isinstance(value, bool):
        return "false" if value else "true"
    if isinstance(value, tuple):
        return "4,8"
    if isinstance(value, (int, float)):
        return str(value + 3)
    return value + "-x"


class TestBridges:
    def test_student_config(self):
        sc = build(default_config(), StudentConfig)
        assert sc == StudentConfig()
        assert sc.patch_size == 32
        assert sc.conv_channels == (8, 16, 32)
        sc.validate()

    def test_synthetic_spec(self):
        spec = build(default_config(), SyntheticSpec)
        assert spec == SyntheticSpec()
        assert (spec.width, spec.height, spec.num_frames) == (96, 96, 64)
        spec.validate()

    def test_optimizer_and_worker(self):
        c = default_config()
        opt = build(c, OptimizerConfig)
        assert opt.method == "radam" and opt.lr == 1e-6
        assert opt.rl_scale == 1e-3 and opt.weight_decay == 1e-4
        wc = build(c, WorkerConfig)
        assert wc.t_max == 5 and wc.context == 1.5
        wc.validate()

    def test_train_settings_carry_seed(self):
        ts = build(default_config(), TrainSettings, seed=42)
        assert ts.seed == 42
        assert ts.workers == 8
        assert ts.tau == 0.25
        ts.validate()

    @pytest.mark.parametrize("cls", CONFIG_CLASSES, ids=lambda c: c.__name__)
    def test_every_key_reaches_its_field(self, cls, tmp_path):
        keyed = list(_keyed_fields(cls))
        sections = {}
        for f, key in keyed:
            section, option = key.split(".")
            sections.setdefault(section, []).append(f"{option} = {_other(f.default)}")
        ini = tmp_path / "run.ini"
        ini.write_text("".join(f"[{s}]\n" + "\n".join(o) + "\n" for s, o in sections.items()))
        built = build(load_config(str(ini)), cls)
        for f, key in keyed:
            value = getattr(built, f.name)
            assert value != f.default, key
            assert value == parse_value(key, _other(f.default))
        # the fields that are not keys keep their defaults
        for f in fields(cls):
            if f.name not in {g.name for g, _ in keyed}:
                assert getattr(built, f.name) == f.default
