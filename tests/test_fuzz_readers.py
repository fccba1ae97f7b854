"""Seeded mutation fuzzing of every reader of outside input, and of the
external-teacher wire.

The contract: a reader returns a valid object (finite boxes with positive
sides and area, frames with pixels, finite parameters of the expected count)
or raises a TrackDistillError that names the path it read. On the wire, a
child that garbles its replies costs a TeacherError naming the teacher, and
every box taken from it is valid. Seeds and counts are fixed, so every run tries the
same inputs.
"""

import math
import re
import sys

import numpy as np
import pytest

from trackdistill.config import Config, load_config
from trackdistill.errors import TeacherError, TrackDistillError
from trackdistill.geometry import Box
from trackdistill.model import StudentConfig, StudentModel, load_params, save_params
from trackdistill.teachers import (
    ExternalFactory,
    TrajectoryTrace,
    load_trace,
    run_pool_on_video,
    save_trace,
)
from trackdistill.trackers import TrackRun, read_trackrun, write_trackrun
from trackdistill.transferset import TransferChunk, load_chunk_index, write_chunk_index
from trackdistill.video import (
    Video,
    ppm_shape,
    read_groundtruth,
    read_ppm,
    write_groundtruth,
    write_ppm,
)

from test_cli import SMALL_INI

MUTATIONS = 500  # per reader
TOKENS = [b"0", b"-0", b"-1", b"nan", b"inf", b"-inf", b"1e999", b"5e-324", b"9" * 40, b"",
          b",", b"\n", b"\r", b" ", b"\x00", b"\xff", b'"', b"{", b"]", b"null", b"true", b"#"]
NUMBER = re.compile(rb"-?\d+(?:\.\d+)?(?:e[-+]?\d+)?")


def mutate(data: bytes, rng: np.random.Generator) -> bytes:
    """One random edit: a bit flip, a token in place of a number or a span,
    a span deleted or doubled, or a cut."""
    i = int(rng.integers(len(data) + 1))
    j = min(len(data), i + int(rng.integers(1, 9)))
    token = TOKENS[int(rng.integers(len(TOKENS)))]
    kind = int(rng.integers(6))
    if kind == 0 and data:
        k = min(i, len(data) - 1)
        return data[:k] + bytes([data[k] ^ (1 << int(rng.integers(8)))]) + data[k + 1:]
    if kind == 1:
        numbers = list(NUMBER.finditer(data))
        if numbers:
            m = numbers[int(rng.integers(len(numbers)))]
            return data[:m.start()] + token + data[m.end():]
    if kind == 2:
        return data[:i] + token + data[j:]
    if kind == 3:
        return data[:i] + data[j:]
    if kind == 4:
        return data[:j] + data[i:j] + data[j:]
    return data[:i]


def valid_box(box) -> bool:
    return (isinstance(box, Box) and all(math.isfinite(v) for v in (box.x, box.y, box.w, box.h))
            and box.w > 0 and box.h > 0 and box.area > 0)


def gt_video(video_id, n, rng):
    boxes = [Box(*rng.uniform(0, 40, 2), *rng.uniform(2, 20, 2)) for _ in range(n)]
    return Video(video_id, [np.zeros((4, 4, 3), np.uint8)] * n, boxes)


@pytest.fixture(scope="module")
def readers(tmp_path_factory):
    """Each reader's name -> (path, valid bytes, read, check): ``read()``
    reads ``path``, and ``check`` says whether what it returned is valid."""
    ws = tmp_path_factory.mktemp("fuzz")
    rng = np.random.default_rng(5)
    videos = {v.video_id: v for v in (gt_video(f"v{i}", 12, rng) for i in range(2))}
    traces = str(ws / "traces")
    for vid, video in videos.items():
        for tid, dx in (("a", 0.5), ("b", -0.25)):
            boxes = [Box(g.x + dx, g.y, g.w, g.h) for g in video.ground_truth]
            save_trace(traces, TrajectoryTrace(vid, tid, boxes))
    out = {}

    def add(name, path, read, check):
        with open(path, "rb") as fh:
            out[name] = (str(path), fh.read(), read, check)

    gt = ws / "gt.csv"
    write_groundtruth(str(gt), videos["v0"].ground_truth)
    add("read_groundtruth", gt, lambda: read_groundtruth(str(gt)),
        lambda boxes: boxes and all(map(valid_box, boxes)))

    trace = ws / "traces" / "a" / "v1.csv"
    add("load_trace", trace, lambda: load_trace(traces, "a", "v1"),
        lambda tr: tr.boxes and all(map(valid_box, tr.boxes)))

    run = TrackRun("v0", "trast", videos["v0"].ground_truth[1:], ["student", "a"] * 5 + ["a"],
                   [0.5, None] * 5 + [0.25], {"a": [0.125 * k for k in range(11)]})
    track = ws / "run.csv"
    write_trackrun(str(track), run)

    def valid_run(r):
        values = r.v_student + [v for vs in r.v_teachers.values() for v in vs]
        return (all(map(valid_box, r.boxes))
                and all(v is None or math.isfinite(v) for v in values)
                and all(len(vs) == len(r.boxes) for vs in [r.v_student, r.controllers,
                                                           *r.v_teachers.values()]))

    add("read_trackrun", track, lambda: read_trackrun(str(track)), valid_run)

    chunks = [TransferChunk(vid, tid, start, [], [], []) for vid, tid, start in
              (("v0", "a", 0), ("v0", "b", 4), ("v1", "a", 2), ("v1", "b", 1))]
    index = ws / "chunks.json"
    write_chunk_index(chunks, str(index), 0.5, 8, 3)
    add("load_chunk_index", index, lambda: load_chunk_index(str(index), videos, traces),
        lambda cs: all(all(map(valid_box, c.gt + c.teacher_boxes))
                       and len(c.gt) == len(c.teacher_boxes) == len(c) for c in cs))

    ini = ws / "small.ini"
    ini.write_text(SMALL_INI)
    add("load_config", ini, lambda: load_config(str(ini)), lambda cfg: isinstance(cfg, Config))

    config = StudentConfig(patch_size=8, conv_channels=(2,), fc_dim=4, hidden_dim=3)
    params = StudentModel(config).init_params(1)
    ckpt = ws / "student.ckpt"
    save_params(str(ckpt), config, params)
    add("load_params", ckpt, lambda: load_params(str(ckpt), config),
        lambda p: p.shape == params.shape and np.isfinite(p).all())

    ppm = ws / "frame.ppm"
    write_ppm(str(ppm), rng.integers(0, 256, (5, 7, 3)).astype(np.uint8))
    add("read_ppm", ppm, lambda: read_ppm(str(ppm)),
        lambda f: f.dtype == np.uint8 and f.ndim == 3 and f.shape[2] == 3 and f.size > 0)
    add("ppm_shape", ppm, lambda: ppm_shape(str(ppm)),
        lambda s: len(s) == 3 and s[2] == 3 and min(s) > 0)
    return out


READERS = ["read_groundtruth", "load_trace", "read_trackrun", "load_chunk_index",
           "load_config", "load_params", "read_ppm", "ppm_shape"]


@pytest.mark.parametrize("name", READERS)
def test_reader_contract(readers, name):
    path, valid, read, check = readers[name]
    rng = np.random.default_rng([2020, READERS.index(name)])
    broken = []
    accepted = rejected = 0
    try:
        for k in range(MUTATIONS):
            data = mutate(valid, rng)
            with open(path, "wb") as fh:
                fh.write(data)
            try:
                got = read()
            except TrackDistillError as e:
                rejected += 1
                if path not in str(e):
                    broken.append((k, data, f"error does not name the path: {e}"))
            except Exception as e:  # the contract is broken; report the input
                broken.append((k, data, f"{type(e).__name__}: {e}"))
            else:
                accepted += 1
                if not check(got):
                    broken.append((k, data, f"invalid result {got!r}"[:300]))
    finally:
        with open(path, "wb") as fh:
            fh.write(valid)
    assert not broken, f"{name}: {len(broken)} of {MUTATIONS} broke the contract: {broken[:3]}"
    assert accepted and rejected, (name, accepted, rejected)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_non_finite_parameter_rejected(readers, value):
    # the text mutations above seldom make a non-finite double, so this puts
    # one at seeded places in the checkpoint's payload
    path, valid, read, _ = readers["load_params"]
    count = (len(valid) - 52) // 8  # the header is 52 bytes
    rng = np.random.default_rng(2021)
    try:
        for k in rng.choice(count, size=20, replace=False):
            data = bytearray(valid)
            start = len(valid) - 8 * (count - int(k))
            data[start:start + 8] = np.float64(value).astype("<f8").tobytes()
            with open(path, "wb") as fh:
                fh.write(data)
            with pytest.raises(TrackDistillError, match=re.escape(path)):
                read()
    finally:
        with open(path, "wb") as fh:
            fh.write(valid)


# The echo teacher's drift, its replies garbled at random: each reply, with
# probability 0.2, gets one of the edits below. Its generator is seeded from
# argv[1] and the video id at every init, so what a video is sent does not
# depend on whether its child is fresh.
GARBLING_TEACHER = r"""
import json, random, sys
out = sys.stdout.buffer
for line in sys.stdin:
    msg = json.loads(line)
    if msg["cmd"] == "init":
        rng = random.Random(sys.argv[1] + msg["video"])
        box, reply = msg["box"], {"ok": True}
    else:
        box = [box[0] + 1.0, box[1], box[2], box[3]]
        reply = {"box": list(box)}
    kind = rng.randrange(9) if rng.random() < 0.2 else None
    if kind == 0 and "box" in reply:
        reply["box"][rng.randrange(4)] = rng.choice([0.0, -1.5, float("nan"), 1e999, "a", None])
    if kind == 1 and "box" in reply:
        reply["box"] = reply["box"][:3]
    data = json.dumps(reply).encode()
    i = rng.randrange(len(data) + 1)
    if kind == 2:
        data = data[:i] + bytes([rng.randrange(256)]) + data[i:]
    if kind == 3:
        data = data[:i] + b"\n" + data[i:]
    if kind == 4:
        data = data + b"\n" + data
    if kind == 5:
        data = b"x" * 5000
    if kind == 6:
        sys.exit(3)
    if kind == 7:
        data = data[:-1]
    if kind == 8:
        data = b"\xff" + data
    out.write(data + b"\n")
    out.flush()
"""


def test_wire_contract(tmp_path, closing):
    script = tmp_path / "garbling.py"
    script.write_text(GARBLING_TEACHER)
    factory = ExternalFactory("garble", f"{sys.executable} {script} 7")
    closing.append(factory)
    rng = np.random.default_rng(6)
    errors = []
    for i in range(10):
        video = gt_video(f"w{i}", 8, rng)
        [(trace, error)] = run_pool_on_video([factory], video)
        assert all(map(valid_box, trace.boxes)), trace.boxes
        if error is None:
            assert len(trace.boxes) == len(video)
        else:
            assert isinstance(error, TeacherError) and "teacher 'garble': " in str(error)
        errors.append(error)
    assert None in errors and any(errors), errors
