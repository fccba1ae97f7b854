"""Inference protocols for a trained student.

tras runs the policy alone. trast pairs it with one teacher and hands control
to whichever the value head trusts more, frame by frame. trasfust runs a pool
of teachers and uses the value head purely as a judge, emitting the box of
the highest-valued teacher each frame.

All three are one loop: trast is the one-member pool plus a student lane,
tras the empty pool plus a student lane, trasfust the pool alone. A teacher
never sees the student's box, so the pool runs first, through
``teachers.run_pool_on_video``, and the loop reads its traces. Each value
judgement is a lane with its own hidden state, and every protocol steps all
lanes of a frame in one ``forward_lanes`` call, with each distinct anchor
cropped once, in one call per frame. Non-finite student output raises
NumericError.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from .errors import InvalidInputError, NumericError, ParseError
from .geometry import Box, apply_action, iou
from .mdp import make_states
from .model import HiddenSchedule, StudentModel
from .teachers import TeacherFactory, run_pool_on_video
from .video import Video

STUDENT = "student"
VALUE_EVALUATOR = "value"
ORACLE_EVALUATOR = "oracle"


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


def _step_lanes(
    protocol: str, video: Video, t: int, anchors: Sequence[Box], model, params, context, scheds
):
    """Advance lane k from ``anchors[k]`` on frame t under hidden schedule
    ``scheds[k]``. The distinct anchors, in lane order, are cropped from frames
    t - 1 and t in one :func:`make_states` call, each once (equal boxes give
    equal states); every patch is bitwise its one-box crop, so a lane's step
    does not depend on the other lanes. Returns (actions (K, 4), values (K,))."""
    frames, size = (video.frames[t - 1], video.frames[t]), model.config.patch_size
    distinct = list(dict.fromkeys(anchors))
    states = dict(zip(distinct, make_states(*frames, distinct, context, size)))
    actions, values, hiddens = model.forward_lanes(
        params, [states[box] for box in anchors], [s.before(t) for s in scheds]
    )
    for sched, hidden in zip(scheds, hiddens):
        sched.after(t, hidden)
    if not (np.isfinite(actions).all() and np.isfinite(values).all()):
        raise NumericError(f"{protocol}: non-finite output on {video.video_id!r} at frame {t}")
    return actions, values


def _track(
    protocol: str, video: Video, g0: Box, model: StudentModel, params: np.ndarray,
    pool: Sequence[TeacherFactory], context: float, evaluator: str, student: bool,
) -> TrackRun:
    """Track ``video`` from ``g0`` with the student (if ``student``) and ``pool``.

    The pool runs first, through ``run_pool_on_video`` from the video's first
    ground-truth box; no member sees the student's box. Per frame t, one
    ``_step_lanes`` call then runs the student's lane, anchored on the output
    box, and under the value evaluator one judge lane per member, anchored
    on that member's box at t - 1. The candidates are the student's box, then
    the members' boxes at t in pool order; the highest-valued wins and a tie
    goes to the first, so the student takes ties and otherwise the lowest
    pool index does. The oracle evaluator values each candidate by its
    overlap with ground truth. The run ends, as partial, at the first frame
    that a failed member could not give, with the error of the member whose
    trace ends first (the lowest pool index on a tie).
    """
    if evaluator not in (VALUE_EVALUATOR, ORACLE_EVALUATOR):
        raise InvalidInputError(f"unknown evaluator {evaluator!r}")
    if evaluator == ORACLE_EVALUATOR and len(video.ground_truth) != len(video.frames):
        raise InvalidInputError("oracle evaluator needs ground truth on every frame")
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
    scheds = [HiddenSchedule(model) for _ in range(lead + (len(pool) if judge else 0))]
    box = g0
    for t in range(1, end):
        anchors = ([box] if student else []) + ([b[t - 1] for b in tracks] if judge else [])
        if anchors:
            actions, values = _step_lanes(
                protocol, video, t, anchors, model, params, context, scheds
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
        run.v_student += values[:lead]
        for tid, value in zip(ids, values[lead:]):
            run.v_teachers[tid].append(value)
    return run


def tras(
    video: Video, g0: Box, model: StudentModel, params: np.ndarray, context: float = 1.5
) -> TrackRun:
    """Pure student: the mean action drives the box chain deterministically."""
    return _track("tras", video, g0, model, params, [], context, VALUE_EVALUATOR, True)


def trast(
    video: Video, g0: Box, model: StudentModel, params: np.ndarray, teacher: TeacherFactory,
    context: float = 1.5, evaluator: str = VALUE_EVALUATOR,
) -> TrackRun:
    """Student-teacher duo: per frame the higher-valued candidate wins, the
    student taking ties. A teacher hand-off rebases the student's next crop.

    The oracle evaluator replaces both value estimates with the candidates'
    true overlap against ground truth (testing hook; needs full annotation).
    """
    return _track("trast", video, g0, model, params, [teacher], context, evaluator, True)


def trasfust(
    video: Video, g0: Box, model: StudentModel, params: np.ndarray,
    pool: Sequence[TeacherFactory], context: float = 1.5, evaluator: str = VALUE_EVALUATOR,
) -> TrackRun:
    """Teacher fusion: every pool member tracks its own chain; each frame the
    student's value head picks the box of the highest-valued teacher. Ties go
    to the lowest pool index. The student predicts no boxes of its own."""
    if not pool:
        raise InvalidInputError("teacher pool must be non-empty")
    return _track("trasfust", video, g0, model, params, pool, context, evaluator, False)


# -- serialization -------------------------------------------------------------


def write_trackrun(path: str, run: TrackRun) -> None:
    """CSV with one row per predicted frame; value columns empty where a
    value was never computed."""
    tids = run.teacher_ids()
    header = ["t", "x", "y", "w", "h", "controller", "v_student"]
    header += [f"v_{tid}" for tid in tids]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i, box in enumerate(run.boxes):
            row = [
                str(i + 1),
                f"{box.x:.6f}",
                f"{box.y:.6f}",
                f"{box.w:.6f}",
                f"{box.h:.6f}",
                run.controllers[i],
            ]
            v = run.v_student[i] if i < len(run.v_student) else None
            row.append("" if v is None else f"{v:.6f}")
            for tid in tids:
                tv = run.v_teachers[tid][i]
                row.append("" if tv is None else f"{tv:.6f}")
            writer.writerow(row)


def read_trackrun(path: str, video_id: str = "", tracker: str = "") -> TrackRun:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty track file")
        if header[:7] != ["t", "x", "y", "w", "h", "controller", "v_student"]:
            raise ParseError(f"{path}: unrecognized track header {header!r}")
        tids = [h[2:] for h in header[7:]]
        run = TrackRun(
            video_id,
            tracker,
            boxes=[],
            controllers=[],
            v_teachers={tid: [] for tid in tids},
        )
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise ParseError(f"{path}:{lineno}: expected {len(header)} fields")
            try:
                x, y, w, h = (float(v) for v in row[1:5])
            except ValueError:
                raise ParseError(f"{path}:{lineno}: bad box values")
            run.boxes.append(Box(x, y, w, h))
            run.controllers.append(row[5])
            run.v_student.append(float(row[6]) if row[6] else None)
            for tid, cell in zip(tids, row[7:]):
                run.v_teachers[tid].append(float(cell) if cell else None)
    return run
