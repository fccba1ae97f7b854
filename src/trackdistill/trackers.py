"""Inference protocols for a trained student.

tras runs the policy alone. trast pairs it with one teacher and hands control
to whichever the value head trusts more, frame by frame. trasfust runs a pool
of teachers and uses the value head purely as a judge, emitting the box of
the highest-valued teacher each frame.

Each value judgement is a lane with its own hidden state. trast and trasfust
step all lanes of a frame in one ``forward_lanes`` call, with each distinct
anchor cropped once, in one call per frame. Non-finite student output raises
NumericError.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from .errors import InvalidInputError, NumericError, ParseError, TeacherError
from .geometry import Box, apply_action, iou
from .mdp import make_state, make_states
from .model import HiddenSchedule, StudentModel
from .teachers import TeacherFactory, close_sessions
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


def _check_finite(protocol: str, video: Video, t: int, actions, values) -> None:
    if not (np.isfinite(actions).all() and np.isfinite(values).all()):
        raise NumericError(f"{protocol}: non-finite output on {video.video_id!r} at frame {t}")


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
    _check_finite(protocol, video, t, actions, values)
    return actions, values


def _check_evaluator(evaluator: str, video: Video) -> None:
    if evaluator not in (VALUE_EVALUATOR, ORACLE_EVALUATOR):
        raise InvalidInputError(f"unknown evaluator {evaluator!r}")
    if evaluator == ORACLE_EVALUATOR and len(video.ground_truth) != len(video.frames):
        raise InvalidInputError("oracle evaluator needs ground truth on every frame")


def tras(
    video: Video,
    g0: Box,
    model: StudentModel,
    params: np.ndarray,
    context: float = 1.5,
) -> TrackRun:
    """Pure student: the mean action drives the box chain deterministically."""
    sched = HiddenSchedule(model)
    box = g0
    run = TrackRun(video.video_id, "tras", boxes=[], controllers=[])
    for t in range(1, len(video.frames)):
        state = make_state(
            video.frames[t - 1], video.frames[t], box, context, model.config.patch_size
        )
        out, hidden = model.forward(params, state, sched.before(t))
        sched.after(t, hidden)
        _check_finite("tras", video, t, out.action, out.value)
        box = apply_action(out.action, box)
        run.boxes.append(box)
        run.controllers.append(STUDENT)
        run.v_student.append(out.value)
    return run


def trast(
    video: Video,
    g0: Box,
    model: StudentModel,
    params: np.ndarray,
    teacher: TeacherFactory,
    context: float = 1.5,
    evaluator: str = VALUE_EVALUATOR,
) -> TrackRun:
    """Student-teacher duo: per frame the higher-valued candidate wins, the
    student taking ties. A teacher hand-off rebases the student's next crop.

    The oracle evaluator replaces both value estimates with the candidates'
    true overlap against ground truth (testing hook; needs full annotation).
    """
    _check_evaluator(evaluator, video)
    oracle = evaluator == ORACLE_EVALUATOR
    scheds = [HiddenSchedule(model) for _ in range(1 if oracle else 2)]
    tid = teacher.teacher_id
    run = TrackRun(
        video.video_id, "trast", boxes=[], controllers=[], v_teachers={tid: []}
    )
    box = g0
    teacher_box = g0
    try:
        with teacher.session(video) as session:
            session.init(video.frames[0], g0)
            for t in range(1, len(video.frames)):
                prev_teacher_box = teacher_box
                try:
                    teacher_box = session.predict(video.frames[t])
                except TeacherError as exc:
                    run.partial = True
                    run.error = str(exc)
                    return run
                anchors = [box] if oracle else [box, prev_teacher_box]
                actions, values = _step_lanes(
                    "trast", video, t, anchors, model, params, context, scheds
                )
                student_box = apply_action(actions[0], box)
                if oracle:
                    gt = video.ground_truth[t]
                    v_s = iou(student_box, gt)
                    v_t = iou(teacher_box, gt)
                else:
                    v_s, v_t = values.tolist()
                if v_s >= v_t:
                    box = student_box
                    run.controllers.append(STUDENT)
                else:
                    box = teacher_box
                    run.controllers.append(tid)
                run.boxes.append(box)
                run.v_student.append(v_s)
                run.v_teachers[tid].append(v_t)
    except TeacherError as exc:
        run.partial = True
        run.error = str(exc)
    return run


def trasfust(
    video: Video,
    g0: Box,
    model: StudentModel,
    params: np.ndarray,
    pool: Sequence[TeacherFactory],
    context: float = 1.5,
    evaluator: str = VALUE_EVALUATOR,
) -> TrackRun:
    """Teacher fusion: every pool member tracks its own chain; each frame the
    student's value head picks the box of the highest-valued teacher. Ties go
    to the lowest pool index. The student predicts no boxes of its own. Frame
    t is submitted to every member before any box is collected, so external
    members work side by side; then one batched step judges all K lanes,
    lane k anchored on member k's box at t - 1."""
    if not pool:
        raise InvalidInputError("teacher pool must be non-empty")
    _check_evaluator(evaluator, video)
    ids = [f.teacher_id for f in pool]
    if len(set(ids)) != len(ids):
        raise InvalidInputError("teacher pool has duplicate ids")
    run = TrackRun(
        video.video_id,
        "trasfust",
        boxes=[],
        controllers=[],
        v_teachers={tid: [] for tid in ids},
    )
    scheds = [HiddenSchedule(model) for _ in pool]
    sessions = []
    try:
        for factory in pool:
            sessions.append(factory.session(video))
        for session in sessions:
            session.submit_init(video.frames[0], g0)
        for session in sessions:
            session.collect()
        prev_boxes = [g0 for _ in pool]
        for t in range(1, len(video.frames)):
            for session in sessions:
                session.submit(video.frames[t])
            cur_boxes = [session.collect() for session in sessions]
            if evaluator == ORACLE_EVALUATOR:
                values = [iou(b, video.ground_truth[t]) for b in cur_boxes]
            else:
                _, values = _step_lanes(
                    "trasfust", video, t, prev_boxes, model, params, context, scheds
                )
            best = int(np.argmax(values))  # argmax takes the first maximum
            run.boxes.append(cur_boxes[best])
            run.controllers.append(ids[best])
            for k, tid in enumerate(ids):
                run.v_teachers[tid].append(float(values[k]))
            prev_boxes = cur_boxes
    except TeacherError as exc:
        run.partial = True
        run.error = str(exc)
    finally:
        close_sessions(sessions)
    return run


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
