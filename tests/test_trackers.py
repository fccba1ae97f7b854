import sys

import numpy as np
import numpy.testing as npt
import pytest

from trackdistill import trackers
from trackdistill.errors import InvalidInputError, NumericError, TeacherError
from trackdistill.geometry import Box, apply_action, iou
from trackdistill.mdp import make_state, make_states
from trackdistill.model import HiddenSchedule, StudentConfig, StudentModel
from trackdistill.teachers import (
    ExternalFactory,
    OracleNoiseFactory,
    TeacherFactory,
    TeacherSession,
    TraceFactory,
    run_teacher_on_video,
    save_trace,
)
from trackdistill.trackers import (
    ORACLE_EVALUATOR,
    STUDENT,
    TrackRun,
    read_trackrun,
    tras,
    trasfust,
    trast,
    write_trackrun,
)
from trackdistill.video import SyntheticSpec, generate_video

from test_teachers import pid_teacher, rendezvous_pool, started

SMALL = StudentConfig(patch_size=16, conv_channels=(4, 8), fc_dim=16, hidden_dim=12)


def small_video(seed=0, frames=12, moving=True):
    spec = SyntheticSpec(
        width=48,
        height=48,
        num_frames=frames,
        min_size=12,
        max_size=18,
        max_step=2.0 if moving else 0.0,
    )
    return generate_video(spec, seed, f"clip{seed:03d}")


class FailAfter(TeacherFactory):
    """Echoes ground truth, then dies after n predictions."""

    def __init__(self, teacher_id, n):
        super().__init__(teacher_id)
        self.n = n

    def session(self, video):
        outer = self

        class _S(TeacherSession):
            def _predict(self, frame, t):
                if t > outer.n:
                    raise TeacherError(self.teacher_id, "synthetic failure")
                return video.ground_truth[t]

        return _S(self.teacher_id, video.video_id)


class TestTras:
    def setup_method(self):
        self.model = StudentModel(SMALL)

    def test_zero_parameters_freeze_the_box(self):
        video = small_video(1)
        g0 = video.ground_truth[0]
        run = tras(video, g0, self.model, np.zeros(self.model.n_params))
        assert len(run.boxes) == len(video.frames) - 1
        for b in run.boxes:
            assert b == g0

    def test_output_length_and_controllers(self):
        video = small_video(2, frames=9)
        params = self.model.init_params(5)
        run = tras(video, video.ground_truth[0], self.model, params)
        assert len(run.boxes) == 8
        assert run.controllers == [STUDENT] * 8
        assert len(run.v_student) == 8
        assert not run.partial

    def test_deterministic(self):
        video = small_video(3)
        params = self.model.init_params(5)
        g0 = video.ground_truth[0]
        a = tras(video, g0, self.model, params)
        b = tras(video, g0, self.model, params)
        assert a.boxes == b.boxes
        assert a.v_student == b.v_student

    def test_long_video_crosses_reset_boundary(self):
        video = small_video(4, frames=40)
        params = self.model.init_params(6)
        run = tras(video, video.ground_truth[0], self.model, params)
        assert len(run.boxes) == 39


class TestTrast:
    def setup_method(self):
        self.model = StudentModel(SMALL)
        self.zero = np.zeros(self.model.n_params)

    def test_oracle_picks_the_better_candidate(self):
        video = small_video(7, frames=14)
        teacher = OracleNoiseFactory("t9", 0.9, seed=3)
        run = trast(
            video, video.ground_truth[0], self.model, self.zero, teacher,
            evaluator=ORACLE_EVALUATOR,
        )
        assert not run.partial
        for i in range(len(run.boxes)):
            got = iou(run.boxes[i], video.ground_truth[i + 1])
            want = max(run.v_student[i], run.v_teachers["t9"][i])
            npt.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_tie_goes_to_student(self):
        # static target: the frozen student box and the exact teacher box are
        # both the ground truth, so every frame ties
        video = small_video(8, moving=False)
        teacher = OracleNoiseFactory("exact", 1.0)
        run = trast(
            video, video.ground_truth[0], self.model, self.zero, teacher,
            evaluator=ORACLE_EVALUATOR,
        )
        assert run.controllers == [STUDENT] * len(run.boxes)

    def test_handoff_rebases_the_crop(self):
        # zero student: its candidate is always the previous OUTPUT box, so
        # after a teacher frame the student's score is measured from there
        video = small_video(9, frames=16)
        teacher = OracleNoiseFactory("exact", 1.0)
        run = trast(
            video, video.ground_truth[0], self.model, self.zero, teacher,
            evaluator=ORACLE_EVALUATOR,
        )
        prev = video.ground_truth[0]
        for i in range(len(run.boxes)):
            npt.assert_allclose(
                run.v_student[i], iou(prev, video.ground_truth[i + 1]), atol=1e-12
            )
            prev = run.boxes[i]

    def test_value_evaluator_runs_both_lanes(self):
        video = small_video(10, frames=8)
        params = self.model.init_params(2)
        teacher = OracleNoiseFactory("t7", 0.7, seed=1)
        run = trast(video, video.ground_truth[0], self.model, params, teacher)
        assert len(run.v_student) == 7
        assert len(run.v_teachers["t7"]) == 7
        assert all(c in (STUDENT, "t7") for c in run.controllers)
        assert all(v is not None for v in run.v_teachers["t7"])

    def test_teacher_failure_flags_partial(self):
        video = small_video(11, frames=10)
        run = trast(
            video, video.ground_truth[0], self.model, self.zero, FailAfter("flaky", 4),
        )
        assert run.partial
        assert run.error is not None
        assert len(run.boxes) == 4

    def test_unknown_evaluator(self):
        video = small_video(12, frames=4)
        with pytest.raises(InvalidInputError):
            trast(
                video, video.ground_truth[0], self.model, self.zero,
                OracleNoiseFactory("t", 1.0), evaluator="psychic",
            )


class TestTrasfust:
    def setup_method(self):
        self.model = StudentModel(SMALL)
        self.zero = np.zeros(self.model.n_params)

    def test_singleton_pool_equals_teachers_own_run(self):
        video = small_video(20, frames=15)
        teacher = OracleNoiseFactory("t8", 0.8, seed=9)
        own = run_teacher_on_video(teacher, video)
        run = trasfust(
            video, video.ground_truth[0], self.model, self.zero, [teacher],
        )
        assert run.boxes == own.boxes[1:]
        assert run.controllers == ["t8"] * len(run.boxes)

    def test_oracle_dominates_every_member(self):
        video = small_video(21, frames=20)
        pool = [
            OracleNoiseFactory("a", 0.5, seed=1),
            OracleNoiseFactory("b", 0.7, seed=2),
            OracleNoiseFactory("c", 0.9, seed=3),
        ]
        run = trasfust(
            video, video.ground_truth[0], self.model, self.zero, pool,
            evaluator=ORACLE_EVALUATOR,
        )
        for i in range(len(run.boxes)):
            got = iou(run.boxes[i], video.ground_truth[i + 1])
            member_best = max(run.v_teachers[tid][i] for tid in ("a", "b", "c"))
            npt.assert_allclose(got, member_best, rtol=0, atol=1e-12)

    def test_tie_takes_lowest_pool_index(self):
        video = small_video(22, frames=8, moving=False)
        pool = [OracleNoiseFactory("first", 1.0), OracleNoiseFactory("second", 1.0)]
        run = trasfust(
            video, video.ground_truth[0], self.model, self.zero, pool,
            evaluator=ORACLE_EVALUATOR,
        )
        assert run.controllers == ["first"] * len(run.boxes)

    def test_zero_value_head_ties_to_first(self):
        video = small_video(23, frames=6)
        pool = [OracleNoiseFactory("p", 0.8, seed=4), OracleNoiseFactory("q", 0.8, seed=5)]
        run = trasfust(video, video.ground_truth[0], self.model, self.zero, pool)
        assert run.controllers == ["p"] * len(run.boxes)

    def test_empty_pool_rejected(self):
        video = small_video(24, frames=4)
        with pytest.raises(InvalidInputError):
            trasfust(video, video.ground_truth[0], self.model, self.zero, [])

    def test_duplicate_ids_rejected(self):
        video = small_video(25, frames=4)
        pool = [OracleNoiseFactory("same", 0.9), OracleNoiseFactory("same", 0.8)]
        with pytest.raises(InvalidInputError):
            trasfust(video, video.ground_truth[0], self.model, self.zero, pool)

    def test_pool_member_failure_aborts(self):
        video = small_video(26, frames=10)
        pool = [OracleNoiseFactory("ok", 0.9, seed=1), FailAfter("flaky", 3)]
        run = trasfust(video, video.ground_truth[0], self.model, self.zero, pool)
        assert run.partial
        assert len(run.boxes) == 3

    def test_unopenable_member_gives_no_boxes(self, tmp_path):
        video = small_video(26, frames=10)
        pool = [OracleNoiseFactory("ok", 0.9, seed=1), TraceFactory("ghost", str(tmp_path))]
        run = trasfust(video, video.ground_truth[0], self.model, self.zero, pool)
        assert run.partial and "ghost" in run.error
        assert run.boxes == [] and run.v_teachers == {"ok": [], "ghost": []}

    def test_first_failure_ends_the_run(self):
        video = small_video(26, frames=10)
        pool = [OracleNoiseFactory("ok", 0.9, seed=1), FailAfter("six", 6), FailAfter("three", 3)]
        run = trasfust(video, video.ground_truth[0], self.model, self.zero, pool)
        assert run.partial and "'three'" in run.error
        assert len(run.boxes) == 3
        tie = [FailAfter("first", 3), FailAfter("second", 3)]
        run = trasfust(video, video.ground_truth[0], self.model, self.zero, tie)
        assert "'first'" in run.error and len(run.boxes) == 3

    def test_healthy_extern_member_outlives_a_failed_one(self, tmp_path, closing):
        # the failing member does not cut its co-member's session short, so
        # the extern child serves both videos
        command, pids = pid_teacher(tmp_path, "ext")
        closing.append(ExternalFactory("ext", command))
        pool = [FailAfter("flaky", 2), closing[0]]
        for seed in (29, 30):
            video = small_video(seed, frames=6)
            run = trasfust(video, video.ground_truth[0], self.model, self.zero, pool)
            assert run.partial and "flaky" in run.error and len(run.boxes) == 2
        assert len(started(pids)) == 1

    def test_extern_members_equal_trace_members(self, tmp_path, closing):
        # two child processes replaying stored boxes judge exactly like
        # in-process trace sessions over the same boxes
        video = small_video(27, frames=15)
        params = self.model.init_params(8)
        script = tmp_path / "replay.py"
        script.write_text(REPLAY_TEACHER)
        traced, extern = [], []
        for k, q in enumerate((0.6, 0.9)):
            trace = run_teacher_on_video(OracleNoiseFactory(f"m{k}", q, seed=k), video)
            save_trace(str(tmp_path), trace)
            traced.append(TraceFactory(trace.teacher_id, str(tmp_path)))
            extern.append(ExternalFactory(
                trace.teacher_id, f"{sys.executable} {script} {tmp_path / trace.teacher_id}"
            ))
        closing += extern
        g0 = video.ground_truth[0]
        want = trasfust(video, g0, self.model, params, traced)
        got = trasfust(video, g0, self.model, params, extern)
        assert not got.partial and got == want
        assert len(set(got.controllers)) == 2  # both members control some frames

    def test_extern_members_run_in_lockstep(self, tmp_path, closing):
        video = small_video(28, frames=5)
        closing += rendezvous_pool(tmp_path)
        run = trasfust(video, video.ground_truth[0], self.model, self.zero, closing)
        assert not run.partial, run.error
        assert len(run.boxes) == 4


# Replays <dir>/<video>.csv, one "x,y,w,h" row per frame, over the wire protocol.
REPLAY_TEACHER = r"""
import json, os, sys
for line in sys.stdin:
    msg = json.loads(line)
    if msg["cmd"] == "init":
        with open(os.path.join(sys.argv[1], msg["video"] + ".csv")) as fh:
            rows = [[float(v) for v in row.split(",")] for row in fh if row.strip()]
        t = 0
        print(json.dumps({"ok": True}), flush=True)
    else:
        t += 1
        print(json.dumps({"box": rows[t]}), flush=True)
"""


class RefLane:
    """One judgement chain stepped alone through ``forward``: the per-lane
    reference that the batched trackers must reproduce bitwise."""

    def __init__(self, model, params):
        self.model, self.params = model, params
        self.sched = HiddenSchedule(model)

    def step(self, video, t, anchor):
        state = make_state(
            video.frames[t - 1], video.frames[t], anchor, 1.5, self.model.config.patch_size
        )
        out, hidden = self.model.forward(self.params, state, self.sched.before(t))
        self.sched.after(t, hidden)
        return out


def reference_tras(video, model, params):
    lane = RefLane(model, params)
    run = TrackRun(video.video_id, "tras", [], [])
    box = video.ground_truth[0]
    for t in range(1, len(video.frames)):
        out = lane.step(video, t, box)
        box = apply_action(out.action, box)
        run.boxes.append(box)
        run.controllers.append(STUDENT)
        run.v_student.append(out.value)
    return run


def reference_trast(video, model, params, teacher):
    student, judge = RefLane(model, params), RefLane(model, params)
    chain = run_teacher_on_video(teacher, video).boxes
    tid = teacher.teacher_id
    run = TrackRun(video.video_id, "trast", [], [], v_teachers={tid: []})
    box = video.ground_truth[0]
    for t in range(1, len(video.frames)):
        out = student.step(video, t, box)
        v_t = judge.step(video, t, chain[t - 1]).value
        if out.value >= v_t:
            box, who = apply_action(out.action, box), STUDENT
        else:
            box, who = chain[t], tid
        run.boxes.append(box)
        run.controllers.append(who)
        run.v_student.append(out.value)
        run.v_teachers[tid].append(v_t)
    return run


def reference_trasfust(video, model, params, pool):
    lanes = [RefLane(model, params) for _ in pool]
    chains = [run_teacher_on_video(f, video).boxes for f in pool]
    ids = [f.teacher_id for f in pool]
    run = TrackRun(video.video_id, "trasfust", [], [], v_teachers={tid: [] for tid in ids})
    for t in range(1, len(video.frames)):
        values = [lane.step(video, t, chain[t - 1]).value for lane, chain in zip(lanes, chains)]
        best = int(np.argmax(values))
        run.boxes.append(chains[best][t])
        run.controllers.append(ids[best])
        for tid, value in zip(ids, values):
            run.v_teachers[tid].append(value)
    return run


def count_crops(monkeypatch):
    """Record (frame, anchors) for every make_states call the trackers make."""
    calls = []

    def counting(frame_prev, frame_cur, boxes, context, patch_size):
        calls.append((id(frame_cur), tuple(boxes)))
        return make_states(frame_prev, frame_cur, boxes, context, patch_size)

    monkeypatch.setattr(trackers, "make_states", counting)
    return calls


class TestBatchedLanes:
    def setup_method(self):
        self.model = StudentModel(SMALL)
        self.params = self.model.init_params(31)

    def test_tras_equals_per_lane_reference(self):
        video = small_video(46, frames=40)  # crosses the hidden reset at frame 33
        run = tras(video, video.ground_truth[0], self.model, self.params)
        assert run == reference_tras(video, self.model, self.params)
        assert len(set(run.boxes)) > 1  # the student moves the box

    def test_trast_equals_per_lane_reference(self):
        video = small_video(40, frames=40)  # crosses the hidden reset at frame 33
        teacher = OracleNoiseFactory("t8", 0.8, seed=7)
        run = trast(video, video.ground_truth[0], self.model, self.params, teacher)
        assert run == reference_trast(video, self.model, self.params, teacher)
        assert {STUDENT, "t8"} <= set(run.controllers)  # both candidates win somewhere

    def test_trasfust_equals_per_lane_reference(self):
        video = small_video(41, frames=40)
        pool = [OracleNoiseFactory(f"o{k}", q, seed=k) for k, q in enumerate((0.5, 0.7, 0.9, 1.0))]
        run = trasfust(video, video.ground_truth[0], self.model, self.params, pool)
        assert run == reference_trasfust(video, self.model, self.params, pool)
        assert len(set(run.controllers)) > 1

    def test_tras_crops_its_one_anchor_once_per_frame(self, monkeypatch):
        video = small_video(47, frames=12)
        calls = count_crops(monkeypatch)
        run = tras(video, video.ground_truth[0], self.model, self.params)
        outputs = [video.ground_truth[0]] + run.boxes
        assert calls == [
            (id(video.frames[t]), (outputs[t - 1],)) for t in range(1, len(video.frames))
        ]

    def test_trast_crops_each_distinct_anchor_once(self, monkeypatch):
        video = small_video(42, frames=30)
        teacher = OracleNoiseFactory("exact", 1.0)
        calls = count_crops(monkeypatch)
        run = trast(video, video.ground_truth[0], self.model, self.params, teacher)
        chain = run_teacher_on_video(teacher, video).boxes
        outputs = [video.ground_truth[0]] + run.boxes
        want = [
            (id(video.frames[t]), tuple(dict.fromkeys((outputs[t - 1], chain[t - 1]))))
            for t in range(1, len(video.frames))
        ]
        assert calls == want  # one call per frame, each distinct anchor once, in lane order
        cropped = sum(len(boxes) for _, boxes in calls)
        assert cropped < 2 * len(run.boxes)  # the shared anchors were cropped once

    def test_trasfust_crops_each_distinct_anchor_once(self, monkeypatch):
        video = small_video(43, frames=20)
        pool = [OracleNoiseFactory("a", 0.8, seed=1), OracleNoiseFactory("b", 1.0),
                OracleNoiseFactory("c", 1.0, seed=5)]
        calls = count_crops(monkeypatch)
        trasfust(video, video.ground_truth[0], self.model, self.params, pool)
        chains = [run_teacher_on_video(f, video).boxes for f in pool]
        want = [
            (id(video.frames[t]), tuple(dict.fromkeys(chain[t - 1] for chain in chains)))
            for t in range(1, len(video.frames))
        ]
        assert calls == want  # one call per frame, each distinct anchor once, in lane order
        cropped = sum(len(boxes) for _, boxes in calls)
        assert cropped < 2 * (len(video.frames) - 1)  # "b" and "c" always agree

    @pytest.mark.parametrize("protocol", ["tras", "trast", "trasfust"])
    def test_nonfinite_output_names_protocol_video_and_frame(self, protocol):
        video = small_video(44, frames=6)
        params = np.full(self.model.n_params, np.nan)
        g0 = video.ground_truth[0]
        calls = {
            "tras": lambda: tras(video, g0, self.model, params),
            "trast": lambda: trast(video, g0, self.model, params, OracleNoiseFactory("t", 0.9)),
            "trasfust": lambda: trasfust(
                video, g0, self.model, params,
                [OracleNoiseFactory("p", 0.9), OracleNoiseFactory("q", 0.7, seed=2)],
            ),
        }
        with pytest.raises(NumericError, match=f"^{protocol}: .*'clip044' at frame 1$"):
            calls[protocol]()

    def test_trasfust_member_failure_keeps_earlier_frames(self):
        video = small_video(45, frames=12)
        g0 = video.ground_truth[0]
        ok = OracleNoiseFactory("ok", 0.9, seed=1)
        full = trasfust(video, g0, self.model, self.params, [ok, FailAfter("flaky", 10**6)])
        run = trasfust(video, g0, self.model, self.params, [ok, FailAfter("flaky", 5)])
        assert run.partial and "flaky" in run.error
        assert run.boxes == full.boxes[:5]
        assert run.controllers == full.controllers[:5]
        assert run.v_teachers == {tid: v[:5] for tid, v in full.v_teachers.items()}


class TestSerialization:
    def make_run(self):
        return TrackRun(
            video_id="v1",
            tracker="trast",
            boxes=[Box(1.25, 2.5, 10.0, 20.0), Box(3.0, 4.0, 11.0, 21.0)],
            controllers=[STUDENT, "t9"],
            v_student=[0.125, -0.5],
            v_teachers={"t9": [0.25, 0.75]},
        )

    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "run.csv")
        run = self.make_run()
        write_trackrun(path, run)
        back = read_trackrun(path, "v1", "trast")
        assert len(back.boxes) == 2
        for a, b in zip(back.boxes, run.boxes):
            npt.assert_allclose(a.as_array(), b.as_array(), atol=5e-7)
        assert back.controllers == run.controllers
        npt.assert_allclose(back.v_student, run.v_student, atol=5e-7)
        npt.assert_allclose(back.v_teachers["t9"], run.v_teachers["t9"], atol=5e-7)

    def test_header_shape(self, tmp_path):
        path = str(tmp_path / "run.csv")
        write_trackrun(path, self.make_run())
        with open(path) as fh:
            first = fh.readline().strip()
        assert first == "t,x,y,w,h,controller,v_student,v_t9"

    def test_frames_numbered_from_one(self, tmp_path):
        path = str(tmp_path / "run.csv")
        write_trackrun(path, self.make_run())
        with open(path) as fh:
            lines = fh.read().strip().splitlines()
        assert lines[1].split(",")[0] == "1"
        assert lines[2].split(",")[0] == "2"

    def test_tras_run_has_no_teacher_columns(self, tmp_path):
        model = StudentModel(SMALL)
        video = small_video(30, frames=5)
        run = tras(video, video.ground_truth[0], model, np.zeros(model.n_params))
        path = str(tmp_path / "tras.csv")
        write_trackrun(path, run)
        with open(path) as fh:
            assert fh.readline().strip() == "t,x,y,w,h,controller,v_student"
        back = read_trackrun(path)
        assert back.teacher_ids() == []
        assert len(back.boxes) == 4

    def test_bad_header_rejected(self, tmp_path):
        from trackdistill.errors import ParseError

        path = str(tmp_path / "bad.csv")
        with open(path, "w") as fh:
            fh.write("frame,x,y,w,h\n1,0,0,5,5\n")
        with pytest.raises(ParseError):
            read_trackrun(path)

    def test_ragged_row_rejected(self, tmp_path):
        from trackdistill.errors import ParseError

        path = str(tmp_path / "ragged.csv")
        with open(path, "w") as fh:
            fh.write("t,x,y,w,h,controller,v_student\n1,0,0\n")
        with pytest.raises(ParseError):
            read_trackrun(path)
