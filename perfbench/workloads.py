"""The benchmark's three workloads: ``train``, ``track`` and ``capture``.

Each workload builds its inputs from the benchmark seed in ``__init__`` (the
untimed set-up) and runs one timed pass per ``run_pass`` call, checking the
pass's outputs as it goes. The program only ever sees the generated inputs.

Why these inputs:

* ``train`` turns the horizon curriculum off, so every episode plays its
  whole 32-frame chunk as 7 windows (6 x 5 steps + 1), the state a long run
  reaches; with the curriculum on, a short run from init stays at horizon 1
  and measures per-episode overhead instead. Validation runs before and
  after ``train()`` but never during it, because a validation pass competes
  with the 8 worker threads for the interpreter lock and its duration swings
  by seconds from run to run.
* ``track`` renders 320x240 frames, the size of many OTB sequences, because
  the crop costs more on large frames than on training's 96x96 ones. At
  640x360 the crop converts 5.5 MB per frame and is bound by memory
  bandwidth, which a shared host varies most: pass-to-pass spread within a
  run was 10% there against 6-7% at 320x240.
* ``capture`` runs two external replay teachers plus one oracle over a
  dataset on disk, so the subprocess pipe, the dataset reader and the
  transfer-set builder do the work while the model does none.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import shlex
import sys
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from trackdistill import cli, mdp, metrics, teachers, trackers, training, transferset
from trackdistill import model as modelmod
from trackdistill.geometry import Box
from trackdistill import video as videomod

from tracing import PROTOCOLS, Tracer

CONTEXT = 1.5
BETA = 0.5
REPLAY_SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "replay_teacher.py")


def sub_seed(seed: int, *keys: int) -> int:
    return int(np.random.SeedSequence([seed, *keys]).generate_state(1)[0])


@dataclass
class PassResult:
    """One timed pass: its wall time, its primary operation count, the named
    rates as (count, seconds), per-request timings in ms, failure counts and
    output checks as (name, ok, detail)."""

    wall_s: float
    ops: int
    rates: Dict[str, tuple]
    timings_ms: Dict[str, List[float]]
    attempted: int
    failed: int
    checks: List[tuple]
    fingerprint: str = ""


def _pass_dirs(workdir: str, stem: str):
    """A fresh output directory per pass, so that no pass deletes or
    overwrites files (see the note on deleting in run.py)."""
    for k in itertools.count():
        yield os.path.join(workdir, "%s%d" % (stem, k))


def _boxes_finite(boxes) -> bool:
    return all(math.isfinite(v) for b in boxes for v in (b.x, b.y, b.w, b.h))


# -- train ---------------------------------------------------------------------


@dataclass(frozen=True)
class TrainSize:
    videos: int
    held_out: int
    frames: int
    budget: int


class TrainBench:
    """``training.train`` with the default model, RAdam, t_max=5 and the
    default 8 worker threads over a beta=0.5 transfer set recorded by one
    oracle teacher; ``tras`` validation on held-out videos before and after.
    Validation is called around ``train()`` rather than passed in as
    ``validate_fn``, so the checkpoint is the final parameter vector and the
    check that training moved it cannot fail merely because validation kept
    the initial snapshot as the best.

    One operation is one applied update."""

    SIZES = {"full": TrainSize(8, 2, 64, 64), "tiny": TrainSize(2, 1, 34, 8)}

    def __init__(self, workdir: str, seed: int, size: str):
        s = self.SIZES[size]
        spec = videomod.SyntheticSpec(num_frames=s.frames)
        videos = [
            videomod.generate_video(spec, sub_seed(seed, 1, i), "train%03d" % i)
            for i in range(s.videos)
        ]
        self.held_out = [
            videomod.generate_video(spec, sub_seed(seed, 2, i), "val%03d" % i)
            for i in range(s.held_out)
        ]
        oracle = teachers.OracleNoiseFactory("oracle0.9", 0.9, sub_seed(seed, 3))
        traces = [teachers.run_teacher_on_video(oracle, v) for v in videos]
        _, self.chunks = transferset.build_transfer_set(
            traces, transferset.videos_by_id(videos), BETA, seed=sub_seed(seed, 4)
        )
        if not self.chunks:
            raise RuntimeError("the generated transfer set is empty")
        self.model = modelmod.StudentModel(modelmod.StudentConfig())
        self.budget = s.budget
        self.settings = training.TrainSettings(
            max_updates=s.budget, seed=sub_seed(seed, 5), curriculum=False
        )
        self.worker_cfg = training.WorkerConfig(t_max=5)
        self.opt = training.OptimizerConfig(method="radam")
        self.params0 = self.model.init_params(self.settings.seed)
        self.out_dirs = _pass_dirs(workdir, "run")
        self.validations = itertools.count(1)

    def _validate(self, params: np.ndarray) -> float:
        result = metrics.ope_run(
            lambda v: trackers.tras(v, v.ground_truth[0], self.model, params, CONTEXT),
            self.held_out,
            "tras",
            "val",
        )
        return result.ao

    def run_pass(self, tracer: Optional[Tracer]) -> PassResult:
        validate = self._validate
        if tracer is not None:
            validate = tracer.wrap(
                "training.validate", validate,
                request=lambda parent, args: "validate-%d" % next(self.validations),
            )
        # A counting stand-in for TrackingEpisode.step gives the env-step
        # count; itertools.count is safe to advance from the worker threads.
        steps = itertools.count()
        step = mdp.TrackingEpisode.step

        def counted_step(episode, action):
            next(steps)
            return step(episode, action)

        mdp.TrackingEpisode.step = counted_step
        try:
            t0 = time.perf_counter()
            ao_before = validate(self.params0)
            result = training.train(
                self.model, self.chunks, self.settings, self.worker_cfg, self.opt,
                next(self.out_dirs),
            )
            params = modelmod.load_params(result.checkpoint_path, self.model.config)
            ao_after = validate(params)
            wall = time.perf_counter() - t0
        finally:
            mdp.TrackingEpisode.step = step
        env_steps = next(steps)

        with open(result.log_path) as fh:
            rejected = sum(1 for line in fh if json.loads(line).get("rejected"))
        shortfall = max(0, self.budget - result.updates)
        checks = [
            ("train.checkpoint_finite", bool(np.all(np.isfinite(params))), ""),
            ("train.checkpoint_moved", not np.array_equal(params, self.params0),
             "max |delta| %.3g" % float(np.max(np.abs(params - self.params0)))),
            ("train.val_ao_in_range", 0.0 <= ao_before <= 1.0 and 0.0 <= ao_after <= 1.0,
             "AO %.4f -> %.4f" % (ao_before, ao_after)),
        ]
        return PassResult(
            wall_s=wall,
            ops=result.updates,
            rates={
                "train.updates_per_s": (result.updates, wall),
                "train.env_steps_per_s": (env_steps, wall),
            },
            timings_ms={"train.pass_ms": [wall * 1e3]},
            attempted=result.updates + rejected + shortfall,
            failed=rejected + shortfall,
            checks=checks,
        )


# -- track ---------------------------------------------------------------------


@dataclass(frozen=True)
class TrackSize:
    videos: int
    frames: int
    width: int
    height: int


class TrackBench:
    """``tras``, ``trast`` (one oracle) and ``trasfust`` (three oracles) over
    the same videos with a fixed, seed-determined checkpoint; ``ope_run``
    scores each protocol and ``report`` writes the summary.

    One operation is one predicted frame (T-1 per video and protocol)."""

    SIZES = {"full": TrackSize(3, 40, 320, 240), "tiny": TrackSize(1, 8, 160, 120)}

    def __init__(self, workdir: str, seed: int, size: str):
        s = self.SIZES[size]
        spec = videomod.SyntheticSpec(
            width=s.width,
            height=s.height,
            num_frames=s.frames,
            min_size=s.height / 9.0,
            max_size=s.height / 3.0,
            max_step=s.height / 60.0,
            scale_drift=0.01,
        )
        self.videos = [
            videomod.generate_video(spec, sub_seed(seed, 1, i), "seq%03d" % i)
            for i in range(s.videos)
        ]
        self.model = modelmod.StudentModel(modelmod.StudentConfig())
        ckpt = os.path.join(workdir, "student.ckpt")
        modelmod.save_params(ckpt, self.model.config, self.model.init_params(sub_seed(seed, 2)))
        self.params = modelmod.load_params(ckpt, self.model.config)
        self.teacher = teachers.OracleNoiseFactory("oracle0.8", 0.8, sub_seed(seed, 3))
        self.pool = [
            teachers.OracleNoiseFactory("oracle%g" % q, q, sub_seed(seed, 4, k))
            for k, q in enumerate((0.5, 0.7, 0.9))
        ]
        self.out_dirs = _pass_dirs(workdir, "runs")

    def _track(self, protocol: str, video) -> trackers.TrackRun:
        g0 = video.ground_truth[0]
        if protocol == "tras":
            return trackers.tras(video, g0, self.model, self.params, CONTEXT)
        if protocol == "trast":
            return trackers.trast(video, g0, self.model, self.params, self.teacher, CONTEXT)
        return trackers.trasfust(video, g0, self.model, self.params, self.pool, CONTEXT)

    def run_pass(self, tracer: Optional[Tracer]) -> PassResult:
        out_dir = next(self.out_dirs)
        frame_ms: Dict[str, List[float]] = {p: [] for p in PROTOCOLS}
        frames = dict.fromkeys(PROTOCOLS, 0)
        seconds = dict.fromkeys(PROTOCOLS, 0.0)
        partial = 0
        finite = True
        results = []
        t0 = time.perf_counter()
        for protocol in PROTOCOLS:
            run_dir = os.path.join(out_dir, protocol)
            os.makedirs(run_dir)

            def track_one(video, protocol=protocol, run_dir=run_dir):
                nonlocal partial, finite
                start = time.perf_counter()
                run = self._track(protocol, video)
                dt = time.perf_counter() - start
                n = len(run.boxes)
                frames[protocol] += n
                seconds[protocol] += dt
                frame_ms[protocol].append(dt * 1e3 / max(n, 1))
                partial += run.partial
                finite = finite and _boxes_finite(run.boxes)
                trackers.write_trackrun(os.path.join(run_dir, video.video_id + ".csv"), run)
                return run

            results.append(metrics.ope_run(track_one, self.videos, protocol, "bench"))
        metrics.report(results, os.path.join(out_dir, "report"))
        wall = time.perf_counter() - t0

        digest = hashlib.sha256()
        for protocol in PROTOCOLS:
            run_dir = os.path.join(out_dir, protocol)
            for name in sorted(os.listdir(run_dir)):
                digest.update(("%s/%s\n" % (protocol, name)).encode())
                with open(os.path.join(run_dir, name), "rb") as fh:
                    digest.update(fh.read())
        aos = {r.tracker: r.ao for r in results}
        fingerprint = "AO %s; track CSV sha256 %s" % (
            " ".join("%s=%r" % kv for kv in aos.items()), digest.hexdigest()
        )
        checks = [
            ("track.ao_in_range", all(0.0 <= a <= 1.0 for a in aos.values()),
             " ".join("%s=%.4f" % kv for kv in aos.items())),
            ("track.boxes_finite", finite, ""),
        ]
        return PassResult(
            wall_s=wall,
            ops=sum(frames.values()),
            rates={p + ".frames_per_s": (frames[p], seconds[p]) for p in PROTOCOLS},
            timings_ms={p + ".frame_ms": frame_ms[p] for p in PROTOCOLS},
            attempted=len(PROTOCOLS) * len(self.videos),
            failed=partial,
            checks=checks,
            fingerprint=fingerprint,
        )


# -- capture -------------------------------------------------------------------


@dataclass(frozen=True)
class CaptureSize:
    videos: int
    frames: int


# Relative jitter of the two replay teachers' stored boxes around ground truth.
REPLAY_NOISE = {"replayA": 0.03, "replayB": 0.12}


class CaptureBench:
    """The ``run-teachers`` -> ``filter`` command path over a dataset on disk,
    with a pool of two ``extern:`` replay teachers and one oracle, then the
    chunk index reloaded as ``train`` would.

    One operation is one teacher frame predicted."""

    SIZES = {"full": CaptureSize(8, 48), "tiny": CaptureSize(2, 34)}
    # Small frames keep the files each run leaves behind small.
    FRAME_SIDE = 64

    def __init__(self, workdir: str, seed: int, size: str):
        s = self.SIZES[size]
        self.dataset = os.path.join(workdir, "dataset")
        spec = videomod.SyntheticSpec(
            width=self.FRAME_SIDE, height=self.FRAME_SIDE, num_frames=s.frames
        )
        ids = []
        for i in range(s.videos):
            video = videomod.generate_video(spec, sub_seed(seed, 1, i), "seq%03d" % i)
            videomod.write_video(video, self.dataset)
            ids.append(video.video_id)
        self.frames = s.frames
        self.seed = sub_seed(seed, 2)
        rng = np.random.default_rng(sub_seed(seed, 3))
        self.stored: Dict[tuple, list] = {}
        specs = []
        for tid, noise in REPLAY_NOISE.items():
            boxes_dir = os.path.join(workdir, "boxes", tid)
            os.makedirs(boxes_dir)
            for vid in ids:
                gt = videomod.read_groundtruth(os.path.join(self.dataset, vid, "groundtruth.csv"))
                rows = [gt[0]] + [_jitter(b, noise, rng) for b in gt[1:]]
                path = os.path.join(boxes_dir, vid + ".csv")
                videomod.write_groundtruth(path, rows)
                self.stored[(tid, vid)] = videomod.read_groundtruth(path)
            command = shlex.join([sys.executable, REPLAY_SCRIPT, boxes_dir])
            specs.append("extern:%s:%s" % (tid, command))
        specs.append("oracle:0.9")
        self.pool = ",".join(specs)
        if self.pool.count(",") != len(specs) - 1:
            raise RuntimeError("a path in the teacher pool holds a comma: %r" % self.pool)
        self.teachers = len(specs)
        self.ids = ids
        self.out_dirs = _pass_dirs(workdir, "pass")

    def run_pass(self, tracer: Optional[Tracer]) -> PassResult:
        out_dir = next(self.out_dirs)
        traces = os.path.join(out_dir, "traces")
        tset = os.path.join(out_dir, "tset")
        seed = str(self.seed)
        chunks = None
        output = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(output), contextlib.redirect_stderr(output):
            rc_teachers = cli.main(
                ["run-teachers", "--seed", seed, "--pool", self.pool, "--out", traces, self.dataset]
            )
            rc_filter = rc_teachers or cli.main(
                ["filter", "--seed", seed, "--beta", str(BETA), "--pool", self.pool,
                 "--out", tset, self.dataset, traces]
            )
        index = os.path.join(tset, "chunks.json")
        if rc_filter == 0:
            videos = transferset.videos_by_id(videomod.load_dataset(self.dataset))
            chunks = transferset.load_chunk_index(index, videos, traces)
        wall = time.perf_counter() - t0

        quarantine = os.path.join(traces, ".failed")
        failed = sum(len(files) for _, _, files in os.walk(quarantine))
        sessions = self.teachers * len(self.ids)
        replay_equal = all(
            os.path.isfile(teachers.trace_path(traces, tid, vid))
            and teachers.load_trace(traces, tid, vid).boxes == boxes
            for (tid, vid), boxes in self.stored.items()
        )
        commands_ok = rc_teachers == 0 and rc_filter == 0
        checks = [
            ("capture.commands_ok", commands_ok, "" if commands_ok else "exit codes %d, %d: %s"
             % (rc_teachers, rc_filter, output.getvalue().strip()[-500:])),
            ("capture.replay_traces_equal_stored", replay_equal, ""),
        ]
        fingerprint = ""
        if chunks is not None:
            with open(index) as fh:
                indexed = len(json.load(fh)["chunks"])
            checks.append(("capture.chunk_index_reloads", 0 < len(chunks) == indexed,
                           "%d chunks, %d indexed" % (len(chunks), indexed)))
            fingerprint = "%d chunks" % len(chunks)
        return PassResult(
            wall_s=wall,
            ops=(sessions - failed) * (self.frames - 1),
            rates={"capture.frames_per_s": ((sessions - failed) * (self.frames - 1), wall)},
            timings_ms={"capture.pass_ms": [wall * 1e3]},
            attempted=sessions,
            failed=failed,
            checks=checks,
            fingerprint=fingerprint,
        )


def _jitter(box, noise: float, rng: np.random.Generator):
    e = rng.standard_normal(4) * noise
    w = box.w * math.exp(e[2])
    h = box.h * math.exp(e[3])
    cx = box.cx + e[0] * box.w
    cy = box.cy + e[1] * box.h
    return Box(cx - w / 2.0, cy - h / 2.0, w, h)


WORKLOADS = {"train": TrainBench, "track": TrackBench, "capture": CaptureBench}
