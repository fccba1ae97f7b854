"""Inference protocols for a trained student.

tras runs the policy alone. trast pairs it with one teacher and hands control
to whichever the value head trusts more, frame by frame. trasfust runs a pool
of teachers and uses the value head purely as a judge, emitting the box of
the highest-valued teacher each frame.

All three are one loop: trast is the one-member pool plus a student lane,
tras the empty pool plus a student lane, trasfust the pool alone. A teacher
never sees the student's box, so the pool runs first, through
``teachers.run_pool_on_video``, and the loop reads its traces. Each value
judgement is a lane, and a lane is one row of a single hidden state: every
protocol steps all lanes of a frame in one window-less ``forward`` call, with
each distinct anchor cropped once, in one call per frame, and all lanes reset
together under one ``HiddenSchedule``. Non-finite student output raises
NumericError. The crop context defaults to ``WorkerConfig.context``, the one
the student trained with.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from .errors import InvalidInputError, NumericError, ParseError
from .geometry import Box, apply_action, iou
from .mdp import make_states
from .model import HiddenSchedule, StudentModel
from .teachers import TeacherFactory, run_pool_on_video
from .training import WorkerConfig
from .video import Video, read_utf8

STUDENT = "student"
VALUE_EVALUATOR = "value"
ORACLE_EVALUATOR = "oracle"
EVALUATORS = (VALUE_EVALUATOR, ORACLE_EVALUATOR)
TRACK_COLUMNS = ("t", "x", "y", "w", "h", "controller", "v_student")  # then v_<id> per teacher


@dataclass
class TrackRun:
    """One tracker's pass over one video, frames 1..T-1."""

    video_id: str
    tracker: str
    boxes: List[Box]
    controllers: List[str]
    v_student: List[Optional[float]] = field(default_factory=list)
    v_teachers: Dict[str, List[Optional[float]]] = field(default_factory=dict)
    partial: bool = False
    error: Optional[str] = None

    def teacher_ids(self) -> List[str]:
        return list(self.v_teachers)


def _track(
    protocol: str, video: Video, g0: Box, model: StudentModel, params: np.ndarray,
    pool: Sequence[TeacherFactory], context: float, evaluator: str, student: bool,
) -> TrackRun:
    """Track ``video`` from ``g0`` with the student (if ``student``) and ``pool``.

    The pool runs first, through ``run_pool_on_video`` from the video's first
    ground-truth box; no member sees the student's box. Per frame t, one
    ``forward`` call steps the student's lane, anchored on the output
    box, and under the value evaluator one judge lane per member, anchored on
    that member's box at t - 1. The lanes are the rows of one hidden state
    under one reset schedule, as every lane steps on every frame. The distinct
    anchors, in lane order, are cropped from frames t - 1 and t in one
    ``make_states`` call, and lanes on equal anchors share one State, which is
    encoded once. The candidates are the student's box, then the members'
    boxes at t in pool order; the highest-valued wins and a tie goes to the
    first, so the student takes ties and otherwise the lowest pool index
    does. The oracle evaluator values each candidate by its overlap with
    ground truth. ``v_student`` holds None on every frame of a run without a
    student. The run ends, as partial, at the first frame that a failed
    member could not give, with the error of the member whose trace ends
    first (the lowest pool index on a tie).
    """
    if evaluator not in EVALUATORS:
        raise InvalidInputError(f"unknown evaluator {evaluator!r}")
    results = run_pool_on_video(pool, video)
    tracks = [trace.boxes for trace, _ in results]
    ids = [trace.teacher_id for trace, _ in results]
    judge = evaluator == VALUE_EVALUATOR
    lead = 1 if student else 0  # lanes and candidates of the student, which come first
    names = [STUDENT] * lead + ids
    run = TrackRun(
        video.video_id, protocol, boxes=[], controllers=[], v_teachers={tid: [] for tid in ids}
    )
    ends = [len(boxes) for boxes in tracks]
    end = min(ends, default=len(video.frames))
    if end < len(video.frames):
        run.partial, run.error = True, str(results[ends.index(end)][1])
    sched, size = HiddenSchedule(model), model.config.patch_size
    box = g0
    for t in range(1, end):
        anchors = ([box] if student else []) + ([b[t - 1] for b in tracks] if judge else [])
        if anchors:
            distinct = list(dict.fromkeys(anchors))
            crops = make_states(video.frames[t - 1], video.frames[t], distinct, context, size)
            states = dict(zip(distinct, crops))
            actions, values, hidden = model.forward(
                params, [states[a] for a in anchors], sched.before(t)
            )
            sched.after(t, hidden)
            if not (np.isfinite(actions).all() and np.isfinite(values).all()):
                raise NumericError(
                    f"{protocol}: non-finite output on {video.video_id!r} at frame {t}"
                )
        candidates = ([apply_action(actions[0], box)] if student else []) + [b[t] for b in tracks]
        if judge:
            values = values.tolist()
        else:
            values = [iou(c, video.ground_truth[t]) for c in candidates]
        best = int(np.argmax(values))  # argmax takes the first maximum
        box = candidates[best]
        run.boxes.append(box)
        run.controllers.append(names[best])
        run.v_student.append(values[0] if student else None)
        for tid, value in zip(ids, values[lead:]):
            run.v_teachers[tid].append(value)
    return run


def tras(
    video: Video, g0: Box, model: StudentModel, params: np.ndarray,
    context: float = WorkerConfig.context,
) -> TrackRun:
    """Pure student: the mean action drives the box chain deterministically."""
    return _track("tras", video, g0, model, params, [], context, VALUE_EVALUATOR, True)


def trast(
    video: Video, g0: Box, model: StudentModel, params: np.ndarray, teacher: TeacherFactory,
    context: float = WorkerConfig.context, evaluator: str = VALUE_EVALUATOR,
) -> TrackRun:
    """Student-teacher duo: per frame the higher-valued candidate wins, the
    student taking ties. A teacher hand-off rebases the student's next crop.

    The oracle evaluator replaces both value estimates with the candidates'
    true overlap against ground truth (testing hook; needs full annotation).
    """
    return _track("trast", video, g0, model, params, [teacher], context, evaluator, True)


def trasfust(
    video: Video, g0: Box, model: StudentModel, params: np.ndarray,
    pool: Sequence[TeacherFactory], context: float = WorkerConfig.context,
    evaluator: str = VALUE_EVALUATOR,
) -> TrackRun:
    """Teacher fusion: every pool member tracks its own chain; each frame the
    student's value head picks the box of the highest-valued teacher. Ties go
    to the lowest pool index. The student predicts no boxes of its own."""
    if not pool:
        raise InvalidInputError("teacher pool must be non-empty")
    return _track("trasfust", video, g0, model, params, pool, context, evaluator, False)


# -- serialization -------------------------------------------------------------


def write_trackrun(path: str, run: TrackRun) -> None:
    """CSV with one row per predicted frame: ``TRACK_COLUMNS``, then one
    ``v_<id>`` column per teacher; value cells are empty where a value was
    never computed."""
    tids = run.teacher_ids()
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(TRACK_COLUMNS) + [f"v_{tid}" for tid in tids])
        for i, box in enumerate(run.boxes):
            values = [run.v_student[i]] + [run.v_teachers[tid][i] for tid in tids]
            row = [str(i + 1)] + [f"{c:.6f}" for c in (box.x, box.y, box.w, box.h)]
            row += [run.controllers[i]] + ["" if v is None else f"{v:.6f}" for v in values]
            writer.writerow(row)


def read_trackrun(path: str, video_id: str = "", tracker: str = "") -> TrackRun:
    """The run ``write_trackrun`` stored; malformed input raises ParseError
    naming ``path:line``."""
    reader = csv.reader(io.StringIO(read_utf8(path), newline=""))
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError(f"{path}: empty track file")
    fixed = len(TRACK_COLUMNS)
    named = all(h.startswith("v_") and len(h) > 2 for h in header[fixed:])
    if tuple(header[:fixed]) != TRACK_COLUMNS or not named:
        raise ParseError(f"{path}:1: unrecognized track header {header!r}")
    if len(set(header)) < len(header):
        raise ParseError(f"{path}:1: duplicate column in track header {header!r}")
    tids = [h[2:] for h in header[fixed:]]
    run = TrackRun(video_id, tracker, [], [], v_teachers={tid: [] for tid in tids})
    for lineno, row in enumerate(reader, start=2):
        if len(row) != len(header):
            raise ParseError(f"{path}:{lineno}: expected {len(header)} fields")
        try:
            box = Box(*(float(v) for v in row[1:5]))
            values = [float(cell) if cell else None for cell in row[6:]]
        except ValueError:
            raise ParseError(f"{path}:{lineno}: non-numeric field in {row!r}")
        except InvalidInputError as e:
            raise ParseError(f"{path}:{lineno}: {e}")
        if not all(v is None or math.isfinite(v) for v in values):
            raise ParseError(f"{path}:{lineno}: non-finite value in {row!r}")
        run.boxes.append(box)
        run.controllers.append(row[5])
        run.v_student.append(values[0])
        for tid, value in zip(tids, values[1:]):
            run.v_teachers[tid].append(value)
    return run
