"""Faults injected into short training runs. Each run ends within a bounded
number of turns, the error that ends it names what failed, and the log holds
every line written before the fault. A spy counts ``run_episode`` turns and
raises past a limit, so a run that would spin fails instead of hanging.

Each turn here is one 12-step episode in three windows (5, 5, 2), so three
updates; the two workers alternate over two chunks, v0 and v1."""

import json

import numpy as np
import pytest

from trackdistill import training
from trackdistill.errors import NumericError
from trackdistill.model import StudentModel, load_params
from trackdistill.training import OptimizerConfig, SharedWeights, TrainSettings, WorkerConfig

from test_training import SMALL, Sentinel, make_chunk


class ValidationFault(Exception):
    """Raised by a ``validate_fn`` that fails."""


class FaultRun:
    def __init__(self, tmp_path, monkeypatch, limit=10):
        self.videos, self.stores = [], []  # each turn's video; the store built
        self.log_path = tmp_path / "train_log.jsonl"
        self.tmp_path = tmp_path
        episode = training.run_episode

        def counted(model, theta, chunk, *rest):
            self.videos.append(chunk.video_id)
            if len(self.videos) > limit:
                raise Sentinel(f"{limit} turns and the run goes on")
            return episode(model, theta, chunk, *rest)

        stores = self.stores

        class Recorded(SharedWeights):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                stores.append(self)

        monkeypatch.setattr(training, "run_episode", counted)
        monkeypatch.setattr(training, "SharedWeights", Recorded)

    def train(self, validate_fn=None):
        rng = np.random.default_rng(0)
        return training.train(
            StudentModel(SMALL), [make_chunk(rng, f"v{i}", n_frames=13) for i in range(2)],
            TrainSettings(workers=2, max_updates=24, val_every=4, seed=0, curriculum=False),
            WorkerConfig(t_max=5),
            OptimizerConfig(method="radam", lr=1e-3),
            str(self.tmp_path), validate_fn=validate_fn,
        )

    def entries(self):
        assert self.stores[0]._log_file.closed
        with open(self.log_path) as fh:
            return [json.loads(line) for line in fh]


def test_nan_in_a_moment_fails_its_update(tmp_path, monkeypatch):
    # a NaN written into the first moment after update 5 makes update 6's step
    # non-finite; the update names itself before it applies that step
    run = FaultRun(tmp_path, monkeypatch)
    update = SharedWeights.update

    def poisoning(store, *args):
        applied = update(store, *args)
        if store.update_count == 5 and applied:
            store._m[7] = np.nan
        return applied

    monkeypatch.setattr(SharedWeights, "update", poisoning)
    with pytest.raises(NumericError) as raised:
        run.train()
    assert len(run.videos) == 2  # the second turn is worker 1's, an autonomous one
    assert str(raised.value) == (
        "update 6 (autonomous): non-finite step for enc.conv0.W[7]; "
        "its first moment is non-finite"
    )
    assert [e["update"] for e in run.entries()] == [1, 2, 3, 4, 5]
    assert np.isfinite(run.stores[0].snapshot()).all()


def test_failing_validation_leaves_train(tmp_path, monkeypatch):
    # the first validation runs before any turn, the second once 4 updates
    # are applied: after the second turn, at 6
    run = FaultRun(tmp_path, monkeypatch)
    calls = []

    def validate_fn(params):
        calls.append(params)
        if len(calls) == 2:
            raise ValidationFault("held-out videos unreadable")
        return 0.5

    with pytest.raises(ValidationFault, match="held-out videos unreadable"):
        run.train(validate_fn)
    assert len(run.videos) == 2
    entries = run.entries()
    assert entries[0] == {"validation": True, "update": 0, "val_score": 0.5,
                          "best_val_score": 0.5}
    assert [e["update"] for e in entries[1:]] == [1, 2, 3, 4, 5, 6]
    assert all("kind" in e for e in entries[1:])
    # the first validation's best, the update-0 snapshot, was saved when it was scored
    model = StudentModel(SMALL)
    assert np.array_equal(load_params(str(tmp_path / "student.ckpt"), SMALL), model.init_params(0))
    assert not (tmp_path / "student.ckpt.tmp").exists()
