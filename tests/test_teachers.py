"""Teacher sessions: noisy oracles, trace replay, the external wire protocol."""

import importlib.util
import json
import os
import shlex
import sys
import threading
import time
import zlib

import numpy as np
import pytest

from trackdistill import trackers
from trackdistill.errors import InvalidInputError, ProtocolError, TeacherError
from trackdistill.geometry import MIN_SIDE, Box, iou
from trackdistill.model import StudentConfig, StudentModel
from trackdistill.teachers import (
    _SCALE_FLOOR,
    EXIT_GRACE,
    REPLY_LINE_CAP,
    STDERR_TAIL,
    WIRE_TIMEOUT,
    ExternalFactory,
    OracleNoiseFactory,
    TeacherFactory,
    TeacherSession,
    TraceFactory,
    TraceSession,
    TrajectoryTrace,
    calibrate_noise,
    close_all,
    load_trace,
    parse_teacher_spec,
    run_pool_on_video,
    run_teacher_on_video,
    save_trace,
)
from trackdistill.video import SyntheticSpec, Video, generate_video, load_video, write_video


def gt_only_video(video_id, n, rng):
    """A video whose frames are all the same tiny array; only ground truth matters."""
    frame = np.zeros((8, 8, 3), dtype=np.uint8)
    boxes = [
        Box(float(rng.uniform(0, 60)), float(rng.uniform(0, 60)),
            float(rng.uniform(10, 50)), float(rng.uniform(10, 50)))
        for _ in range(n)
    ]
    return Video(video_id, [frame] * n, boxes)


def reference_oracle_boxes(factory, video):
    """The oracle's boxes as a per-frame session once gave them: at each
    predicted frame in turn, four uniforms from the video's generator and the
    jitter of that frame's ground truth."""
    seeds = [factory.seed, zlib.crc32(video.video_id.encode("utf-8"))]
    rng, kappa = np.random.default_rng(np.random.SeedSequence(seeds)), factory.kappa
    boxes = [video.ground_truth[0]]
    for g in video.ground_truth[1:]:
        if kappa == 0.0:
            boxes.append(g)
            continue
        e = rng.uniform(-1.0, 1.0, 4)
        cx = g.cx + e[0] * kappa * g.w
        cy = g.cy + e[1] * kappa * g.h
        w = max(g.w * max(_SCALE_FLOOR, 1.0 + e[2] * kappa * 0.5), MIN_SIDE)
        h = max(g.h * max(_SCALE_FLOOR, 1.0 + e[3] * kappa * 0.5), MIN_SIDE)
        boxes.append(Box(cx - w / 2, cy - h / 2, w, h))
    return boxes


class TestOracleNoise:
    @pytest.mark.parametrize("target", [1.0, 0.9, 0.6, 0.3])
    def test_session_replays_the_per_frame_draws(self, target):
        rng = np.random.default_rng(70)
        boxes = [Box(float(rng.uniform(0, 60)), float(rng.uniform(0, 60)),
                     float(rng.uniform(1, 50)), float(rng.uniform(1, 50))) for _ in range(300)]
        vid = Video("vref", [np.zeros((8, 8, 3), dtype=np.uint8)] * len(boxes), boxes)
        factory = OracleNoiseFactory("o", target_iou=target, seed=13)
        sess = factory.session(vid)
        assert isinstance(sess, TraceSession)  # the track is drawn when the session opens
        sess.init(vid.ground_truth[0])
        got = [vid.ground_truth[0]] + [sess.predict() for _ in range(1, len(vid))]
        want = reference_oracle_boxes(factory, vid)
        as_bytes = lambda bs: np.array([b.as_array() for b in bs]).tobytes()
        assert as_bytes(got) == as_bytes(want)
        if target == 0.3:  # boxes of a few pixels shrink to the floor
            assert any(MIN_SIDE in (b.w, b.h) for b in got[1:])

    def test_zero_noise_returns_ground_truth(self):
        rng = np.random.default_rng(71)
        vid = gt_only_video("v0", 20, rng)
        factory = OracleNoiseFactory("perfect", target_iou=1.0, seed=3)
        sess = factory.session(vid)
        sess.init(vid.ground_truth[0])
        for t in range(1, 20):
            assert sess.predict() == vid.ground_truth[t]

    @pytest.mark.parametrize("target", [0.6, 0.8, 0.9])
    def test_calibrated_mean_overlap(self, target):
        rng = np.random.default_rng(72)
        vid = gt_only_video("vcal", 1001, rng)
        factory = OracleNoiseFactory("noisy", target_iou=target, seed=5)
        sess = factory.session(vid)
        sess.init(vid.ground_truth[0])
        vals = [
            iou(sess.predict(), vid.ground_truth[t]) for t in range(1, 1001)
        ]
        assert target - 0.05 <= float(np.mean(vals)) <= target + 0.05

    def test_deterministic_per_seed_and_video(self):
        rng = np.random.default_rng(73)
        vid = gt_only_video("vdet", 30, rng)
        runs = []
        for _ in range(2):
            factory = OracleNoiseFactory("o", target_iou=0.7, seed=11)
            runs.append([b.as_array() for b in run_teacher_on_video(factory, vid).boxes])
        np.testing.assert_array_equal(np.array(runs[0]), np.array(runs[1]))

    def test_videos_get_independent_noise(self):
        rng = np.random.default_rng(74)
        va = gt_only_video("va", 10, rng)
        vb = Video("vb", va.frames, va.ground_truth)
        factory = OracleNoiseFactory("o", target_iou=0.7, seed=11)
        ta = run_teacher_on_video(factory, va)
        tb = run_teacher_on_video(factory, vb)
        assert any(x != y for x, y in zip(ta.boxes[1:], tb.boxes[1:]))

    def test_calibrated_on_first_session(self):
        factory = OracleNoiseFactory("o", target_iou=0.7, seed=11)
        assert "kappa" not in vars(factory)  # a factory that opens no session never bisects
        factory.session(gt_only_video("v", 3, np.random.default_rng(75)))
        assert vars(factory)["kappa"] == calibrate_noise(0.7, seed=11) > 0.0

    def test_unreachable_target_rejected_at_construction(self):
        with pytest.raises(InvalidInputError, match="outside"):
            OracleNoiseFactory("o", target_iou=0.1)

    def test_calibration_monotone(self):
        k6 = calibrate_noise(0.6, seed=1)
        k8 = calibrate_noise(0.8, seed=1)
        k10 = calibrate_noise(1.0, seed=1)
        assert k6 > k8 > k10 == 0.0

    def test_unreachable_target_rejected(self):
        with pytest.raises(InvalidInputError):
            calibrate_noise(0.1, seed=1)


class TestTraceTeacher:
    def test_save_load_replay(self, tmp_path):
        rng = np.random.default_rng(81)
        vid = gt_only_video("seq", 12, rng)
        src = OracleNoiseFactory("o8", target_iou=0.8, seed=2)
        trace = run_teacher_on_video(src, vid)
        save_trace(str(tmp_path), trace)

        back = load_trace(str(tmp_path), "o8", "seq")
        assert back.video_id == "seq"
        replay = TraceFactory("o8", str(tmp_path))
        boxes = run_teacher_on_video(replay, vid).boxes
        for a, b in zip(boxes[1:], trace.boxes[1:]):
            np.testing.assert_allclose(a.as_array(), b.as_array(), atol=1e-5)

    def test_replay_is_pure(self, tmp_path):
        rng = np.random.default_rng(82)
        vid = gt_only_video("seq", 8, rng)
        save_trace(str(tmp_path), run_teacher_on_video(
            OracleNoiseFactory("t", 0.7, seed=4), vid))
        replay = TraceFactory("t", str(tmp_path))
        one = run_teacher_on_video(replay, vid).boxes
        two = run_teacher_on_video(replay, vid).boxes
        assert one == two

    def test_missing_trace_errors_with_id(self, tmp_path):
        rng = np.random.default_rng(83)
        vid = gt_only_video("seq", 4, rng)
        with pytest.raises(TeacherError, match="ghost"):
            TraceFactory("ghost", str(tmp_path)).session(vid)

    def test_length_mismatch_rejected(self, tmp_path):
        rng = np.random.default_rng(84)
        vid = gt_only_video("seq", 6, rng)
        save_trace(str(tmp_path), TrajectoryTrace("seq", "t", vid.ground_truth[:4]))
        with pytest.raises(TeacherError, match="4 boxes"):
            TraceFactory("t", str(tmp_path)).session(vid)


class TestSessionProtocol:
    def test_double_init(self):
        rng = np.random.default_rng(91)
        vid = gt_only_video("v", 4, rng)
        sess = OracleNoiseFactory("o", 0.9, 1).session(vid)
        sess.init(vid.ground_truth[0])
        with pytest.raises(ProtocolError):
            sess.init(vid.ground_truth[0])

    def test_predict_before_init(self):
        rng = np.random.default_rng(92)
        vid = gt_only_video("v", 4, rng)
        sess = OracleNoiseFactory("o", 0.9, 1).session(vid)
        with pytest.raises(ProtocolError):
            sess.predict()

    def test_predict_past_the_last_frame(self):
        vid = gt_only_video("v", 4, np.random.default_rng(93))
        sess = OracleNoiseFactory("o", 0.9, 1).session(vid)
        sess.init(vid.ground_truth[0])
        for _ in range(3):
            sess.predict()
        with pytest.raises(ProtocolError, match="'v' has no frame 4"):
            sess.predict()


ECHO_TEACHER = r"""
import json, os, sys
box = None
for line in sys.stdin:
    msg = json.loads(line)
    assert os.path.exists(msg["frame"])
    if msg["cmd"] == "init":
        box = msg["box"]
        print(json.dumps({"ok": True}), flush=True)
    else:
        box = [box[0] + 1.0, box[1], box[2], box[3]]
        print(json.dumps({"box": box}), flush=True)
"""


class TestExternalTeacher:
    @pytest.fixture(autouse=True)
    def factories(self, closing):
        self.closing = closing

    def make_factory(self, tmp_path, body, **kw):
        script = tmp_path / "teacher.py"
        script.write_text(body)
        factory = ExternalFactory("ext", f"{sys.executable} {script}", **kw)
        self.closing.append(factory)
        return factory

    def test_wire_round_trip(self, tmp_path):
        vid = generate_video(SyntheticSpec(num_frames=5, width=48, height=48, max_size=20), 1, "wire")
        factory = self.make_factory(tmp_path, ECHO_TEACHER)
        trace = run_teacher_on_video(factory, vid)
        g0 = vid.ground_truth[0]
        # the echo teacher drifts +1 px per frame from g0
        for t in range(1, 5):
            np.testing.assert_allclose(
                trace.boxes[t].as_array(),
                [g0.x + t, g0.y, g0.w, g0.h],
                atol=1e-9,
            )

    def test_malformed_reply(self, tmp_path):
        body = "import sys\nfor line in sys.stdin:\n    print('not json', flush=True)\n"
        vid = generate_video(SyntheticSpec(num_frames=3, width=48, height=48, max_size=20), 2, "bad")
        with pytest.raises(TeacherError, match="ext"):
            run_teacher_on_video(self.make_factory(tmp_path, body), vid)

    def test_non_utf8_reply_is_malformed_at_once(self, tmp_path):
        # the reply to the init is one byte that is not UTF-8
        body = (
            "import sys\n"
            "sys.stdin.readline()\n"
            "sys.stdout.buffer.write(b'\\xff\\n')\n"
            "sys.stdout.flush()\n"
            "sys.stdin.read()\n"
        )
        vid = generate_video(SyntheticSpec(num_frames=3, width=48, height=48, max_size=20), 2, "bad")
        start = time.monotonic()
        with pytest.raises(TeacherError, match=r"malformed reply '\\\\xff\\n'"):
            run_teacher_on_video(self.make_factory(tmp_path, body), vid)
        assert time.monotonic() - start < WIRE_TIMEOUT / 2

    @pytest.mark.parametrize("tail", ["", "\\n"], ids=["unterminated", "terminated"])
    def test_reply_line_over_the_cap_fails_at_once(self, tmp_path, tail):
        # a megabyte in one line: the read that passes the cap fails the
        # session, long before the timeout, and the child is killed
        body = (
            "import sys\n"
            "sys.stdin.readline()\n"
            f"sys.stdout.write('x' * 1000000 + '{tail}')\n"
            "sys.stdout.flush()\n"
            "sys.stdin.read()\n"
        )
        vid = generate_video(SyntheticSpec(num_frames=3, width=48, height=48, max_size=20), 2, "long")
        start = time.monotonic()
        with pytest.raises(TeacherError, match=f"reply line longer than {REPLY_LINE_CAP} bytes"):
            run_teacher_on_video(self.make_factory(tmp_path, body), vid)
        assert time.monotonic() - start < WIRE_TIMEOUT / 2

    def test_timeout(self, tmp_path):
        body = "import sys, time\nsys.stdin.readline()\ntime.sleep(30)\n"
        vid = generate_video(SyntheticSpec(num_frames=3, width=48, height=48, max_size=20), 3, "slow")
        with pytest.raises(TeacherError, match="no reply"):
            run_teacher_on_video(self.make_factory(tmp_path, body, timeout=0.3), vid)

    def test_early_exit(self, tmp_path):
        vid = generate_video(SyntheticSpec(num_frames=3, width=48, height=48, max_size=20), 4, "dead")
        with pytest.raises(TeacherError):
            run_teacher_on_video(self.make_factory(tmp_path, "import sys; sys.exit(0)\n"), vid)

    def test_stderr_tail_in_error(self, tmp_path):
        # 200 KB of stderr would fill a pipe nobody reads; the child then
        # dies mid-session, after the init reply.
        body = (
            "import json, sys\n"
            "sys.stdin.readline()\n"
            "print(json.dumps({'ok': True}), flush=True)\n"
            "sys.stdin.readline()\n"
            "sys.stderr.write('noise ' * 40000 + 'fatal: weights missing\\n')\n"
            "sys.exit(3)\n"
        )
        vid = generate_video(SyntheticSpec(num_frames=3, width=48, height=48, max_size=20), 5, "loud")
        with pytest.raises(TeacherError) as info:
            run_teacher_on_video(self.make_factory(tmp_path, body), vid)
        msg = str(info.value)
        assert "process closed its output stream; stderr tail: " in msg
        assert msg.endswith("fatal: weights missing'")
        assert len(msg) < STDERR_TAIL + 100


# On predict t it leaves the marker "<me>_t" and waits up to 2 s for
# "<other>_t"; without it, it exits. Two of these finish a video only when
# each is sent frame t before either reply is awaited.
RENDEZVOUS_TEACHER = r"""
import json, os, sys, time
me, other, marks = sys.argv[1:4]
t = 0
for line in sys.stdin:
    msg = json.loads(line)
    if msg["cmd"] == "init":
        box = msg["box"]
        print(json.dumps({"ok": True}), flush=True)
        continue
    t += 1
    open(os.path.join(marks, "%s_%d" % (me, t)), "w").close()
    deadline = time.monotonic() + 2.0
    while not os.path.exists(os.path.join(marks, "%s_%d" % (other, t))):
        if time.monotonic() > deadline:
            sys.exit("no marker %s_%d" % (other, t))
        time.sleep(0.002)
    print(json.dumps({"box": box}), flush=True)
"""


# The echo teacher's drift, until it exits on being sent frame 3.
DIES_AT_FRAME_3 = r"""
import json, sys
t = 0
for line in sys.stdin:
    msg = json.loads(line)
    if msg["cmd"] == "init":
        box = msg["box"]
        print(json.dumps({"ok": True}), flush=True)
        continue
    t += 1
    if t == 3:
        sys.exit(1)
    box = [box[0] + 1.0, box[1], box[2], box[3]]
    print(json.dumps({"box": box}), flush=True)
"""


# Answers nothing until it has read all argv[1] requests of its one video:
# the init and every predict. It never sees a reply's effect, as no teacher does.
READS_WHOLE_VIDEO_FIRST = r"""
import json, sys
requests = [json.loads(sys.stdin.readline()) for _ in range(int(sys.argv[1]))]
print(json.dumps({"ok": True}))
for _ in requests[1:]:
    print(json.dumps({"box": requests[0]["box"]}))
sys.stdout.flush()
sys.stdin.read()
"""


def rendezvous_pool(tmp_path):
    script = tmp_path / "rendezvous.py"
    script.write_text(RENDEZVOUS_TEACHER)
    marks = tmp_path / "marks"
    marks.mkdir()
    return [
        ExternalFactory(me, f"{sys.executable} {script} {me} {other} {marks}")
        for me, other in (("a", "b"), ("b", "a"))
    ]


class Recorder(TeacherFactory):
    """Sessions that echo ground truth and log each phase they are driven through."""

    def __init__(self, teacher_id, log):
        super().__init__(teacher_id)
        self.log = log

    def session(self, video):
        log, tid = self.log, self.teacher_id

        class _S(TeacherSession):
            def _init(self, g0):
                log.append(("init", tid, 0))

            def _predict(self, t):
                log.append(("predict", tid, t))
                return video.ground_truth[t]

            def close(self):
                log.append(("close", tid))

        return _S(tid, video.video_id, len(video))


class NoPixels:
    """The frame list of a video whose frames must not be read."""

    def __init__(self, n):
        self.n = n

    def __len__(self):
        return self.n

    def __getitem__(self, t):
        raise AssertionError(f"frame {t} was read")


class TestPool:
    def video(self, frames=5, seed=11):
        spec = SyntheticSpec(num_frames=frames, width=48, height=48, max_size=20)
        return generate_video(spec, seed, "pool")

    @pytest.mark.parametrize("runner", ["run_pool_on_video", "trast", "trasfust"])
    def test_schedule_inits_all_then_predicts_frame_by_frame(self, runner):
        # the trackers drive their pool through run_pool_on_video, so every
        # runner gives the same log for the members it runs
        vid = self.video(frames=3)
        log = []
        pool = [Recorder("a", log)] + ([] if runner == "trast" else [Recorder("b", log)])
        if runner == "run_pool_on_video":
            run_pool_on_video(pool, vid)
        else:
            config = StudentConfig(patch_size=16, conv_channels=(4, 8), fc_dim=16, hidden_dim=12)
            model = StudentModel(config)
            member = pool[0] if runner == "trast" else pool
            getattr(trackers, runner)(
                vid, vid.ground_truth[0], model, np.zeros(model.n_params), member
            )
        ids = [f.teacher_id for f in pool]
        want = [("init", tid, 0) for tid in ids]
        for t in range(1, 3):
            want += [("predict", tid, t) for tid in ids]
        want += [("close", tid) for tid in ids]
        assert log == want

    def one_of_each_kind(self, tmp_path, vid):
        """An oracle, a ``trace:`` member replaying ``vid`` backwards and an echo child."""
        traces = str(tmp_path / "traces")
        save_trace(traces, TrajectoryTrace(vid.video_id, "t", vid.ground_truth[::-1]))
        echo = tmp_path / "echo.py"
        echo.write_text(ECHO_TEACHER)
        return [
            OracleNoiseFactory("o", 0.8, 3),
            TraceFactory("t", traces),
            ExternalFactory("ext", f"{sys.executable} {echo}"),
        ]

    def test_pool_reads_no_pixels(self, tmp_path, closing):
        # the oracle and the trace replay read boxes; the child reads frame files
        vid = load_video(write_video(self.video(), str(tmp_path / "data")))
        blind = Video(vid.video_id, NoPixels(len(vid)), vid.ground_truth, vid.frame_paths)
        closing += self.one_of_each_kind(tmp_path, vid)
        want = run_pool_on_video(closing, vid)
        got = run_pool_on_video(closing, blind)
        assert [error for _, error in got] == [None] * 3
        assert [trace.boxes for trace, _ in got] == [trace.boxes for trace, _ in want]

    def test_corrupt_trace_member_is_contained(self, tmp_path):
        # a malformed line fails that member alone, naming the file and line
        vid = self.video(frames=6)
        traces = str(tmp_path / "traces")
        path = save_trace(traces, TrajectoryTrace(vid.video_id, "t", vid.ground_truth))
        with open(path) as fh:
            rows = fh.readlines()
        rows[3] = "1,2,abc,4\n"
        with open(path, "w") as fh:
            fh.writelines(rows)
        pool = [OracleNoiseFactory("o", 0.9, 1), TraceFactory("t", traces)]
        (oracle, oracle_error), (trace, error) = run_pool_on_video(pool, vid)
        assert oracle_error is None and len(oracle.boxes) == len(vid)
        assert isinstance(error, TeacherError) and error.teacher_id == "t"
        assert f"{path}:4: non-numeric box field" in str(error)
        assert trace.boxes == [vid.ground_truth[0]]

    def test_duplicate_ids_rejected(self):
        pool = [parse_teacher_spec("oracle:0.9"), parse_teacher_spec("oracle:0.9:5")]
        assert pool[0].teacher_id == pool[1].teacher_id == "oracle0.9"
        with pytest.raises(InvalidInputError, match="duplicate ids"):
            run_pool_on_video(pool, self.video())

    def test_members_run_in_lockstep(self, tmp_path, closing):
        vid = self.video()
        closing += rendezvous_pool(tmp_path)
        results = run_pool_on_video(closing, vid)
        for (trace, error), tid in zip(results, ("a", "b")):
            assert error is None
            assert trace.teacher_id == tid
            assert trace.boxes == [vid.ground_truth[0]] * len(vid)

    def test_video_requests_are_sent_up_front(self, tmp_path, closing):
        # one request at a time, the child would never answer the init
        vid = self.video(frames=6)
        script = tmp_path / "whole_video.py"
        script.write_text(READS_WHOLE_VIDEO_FIRST)
        factory = ExternalFactory("ext", f"{sys.executable} {script} {len(vid)}", timeout=1.0)
        closing.append(factory)
        assert run_teacher_on_video(factory, vid).boxes == [vid.ground_truth[0]] * len(vid)

    def test_one_member_alone_cannot_meet(self, tmp_path, closing):
        # the sequential schedule: "a" waits for a "b" that is never started
        closing += rendezvous_pool(tmp_path)
        with pytest.raises(TeacherError, match="no marker b_1"):
            run_teacher_on_video(closing[0], self.video())

    def test_member_dying_at_frame_3_keeps_3_boxes(self, tmp_path, closing):
        vid = self.video(frames=8)
        script = tmp_path / "dies.py"
        script.write_text(DIES_AT_FRAME_3)
        echo = tmp_path / "echo.py"
        echo.write_text(ECHO_TEACHER)
        pool = [
            OracleNoiseFactory("o", 0.9, 1),
            ExternalFactory("dies", f"{sys.executable} {script}"),
            ExternalFactory("echo", f"{sys.executable} {echo}"),
        ]
        closing += pool
        (oracle, e_o), (dead, e_d), (live, e_l) = run_pool_on_video(pool, vid)
        assert e_o is None and e_l is None
        assert isinstance(e_d, TeacherError) and e_d.teacher_id == "dies"
        assert oracle.boxes == run_teacher_on_video(pool[0], vid).boxes
        assert len(live.boxes) == len(vid)
        assert dead.boxes == live.boxes[:3]

    def test_tracer_sees_every_session_step(self, tmp_path, closing):
        # the benchmark's tracer wraps TeacherSession.init and .predict, each
        # factory's session and the sessions' close by name
        path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                            "perfbench", "tracing.py")
        spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
        tracing = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracing)
        vid = self.video()
        closing += self.one_of_each_kind(tmp_path, vid)
        init = TeacherSession.init
        tracer = tracing.Tracer()
        tracer.install()
        try:
            results = run_pool_on_video(closing, vid)
        finally:
            tracer.uninstall()
        assert TeacherSession.init is init
        assert [error for _, error in results] == [None] * 3
        calls = {name: s["calls"] for name, s in tracer.function_stats().items()}
        assert len(vid) == 5
        assert calls == {"teachers.session_open": 3, "teachers.predict": 12, "teachers.close": 3}

    def test_unopenable_member_keeps_start_box(self, tmp_path):
        vid = self.video()
        pool = [TraceFactory("ghost", str(tmp_path)), OracleNoiseFactory("o", 0.9, 1)]
        (ghost, error), (oracle, none) = run_pool_on_video(pool, vid)
        assert isinstance(error, TeacherError) and ghost.boxes == [vid.ground_truth[0]]
        assert none is None and len(oracle.boxes) == len(vid)


# The echo teacher's drift, logging its pid to argv[1] at start and a line
# per video to stderr. On video argv[2] it exits when sent frame 3; on video
# argv[3] it hangs when sent frame 2 ("-" names no video).
PID_TEACHER = r"""
import json, os, sys, time
pids, die_on, hang_on = sys.argv[1:4]
with open(pids, "a") as fh:
    fh.write("%d\n" % os.getpid())
for line in sys.stdin:
    msg = json.loads(line)
    if msg["cmd"] == "init":
        video, t, box = msg["video"], 0, msg["box"]
        print("init " + video, file=sys.stderr, flush=True)
        print(json.dumps({"ok": True}), flush=True)
        continue
    t += 1
    if t == 3 and video == die_on:
        sys.exit("fatal: gave up on " + video)
    if t == 2 and video == hang_on:
        time.sleep(30)
    box = [box[0] + 1.0, box[1], box[2], box[3]]
    print(json.dumps({"box": box}), flush=True)
"""


# The echo teacher's drift, logging its pid to argv[1] at start and a line
# per video to stderr; it answers the init of video argv[2] with argv[3].
REFUSES_INIT = r"""
import json, os, sys
pids, refuse, reply = sys.argv[1:4]
with open(pids, "a") as fh:
    fh.write("%d\n" % os.getpid())
for line in sys.stdin:
    msg = json.loads(line)
    if msg["cmd"] == "init":
        video, box = msg["video"], msg["box"]
        print("init " + video, file=sys.stderr, flush=True)
        print(reply if video == refuse else json.dumps({"ok": True}), flush=True)
        continue
    box = [box[0] + 1.0, box[1], box[2], box[3]]
    print(json.dumps({"box": box}), flush=True)
"""


def pid_teacher(tmp_path, name, die_on="-", hang_on="-"):
    """The command of a PID_TEACHER logging to ``<name>.pids``, and that log."""
    script = tmp_path / "pid_teacher.py"
    script.write_text(PID_TEACHER)
    pids = tmp_path / f"{name}.pids"
    return f"{sys.executable} {script} {pids} {die_on} {hang_on}", pids


def started(pids):
    """The pids a PID_TEACHER log holds, in start order."""
    return [int(p) for p in pids.read_text().split()] if pids.exists() else []


def assert_exited(pids):
    """Every pid is gone: exited and reaped, not a zombie."""
    assert pids
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


class TestChildLifetime:
    def videos(self, n, frames=6):
        spec = SyntheticSpec(num_frames=frames, width=48, height=48, max_size=20)
        return [generate_video(spec, 40 + i, f"v{i}") for i in range(n)]

    def drift(self, video, n):
        g0 = video.ground_truth[0]
        return [g0] + [Box(g0.x + t, g0.y, g0.w, g0.h) for t in range(1, n)]

    def test_one_child_serves_every_video(self, tmp_path, closing):
        command, pids = pid_teacher(tmp_path, "ext")
        factory = ExternalFactory("ext", command)
        closing.append(factory)
        for video in self.videos(4):
            assert run_teacher_on_video(factory, video).boxes == self.drift(video, len(video))
        assert len(started(pids)) == 1
        close_all([factory])
        assert_exited(started(pids))

    def test_hung_child_is_killed_and_replaced(self, tmp_path, closing):
        command, pids = pid_teacher(tmp_path, "ext", hang_on="v1")
        factory = ExternalFactory("ext", command, timeout=0.5)
        closing.append(factory)
        v0, v1, v2 = self.videos(3)
        run_teacher_on_video(factory, v0)
        with pytest.raises(TeacherError, match="no reply within 0.5s"):
            run_teacher_on_video(factory, v1)
        assert_exited(started(pids))
        assert run_teacher_on_video(factory, v2).boxes == self.drift(v2, len(v2))
        assert len(started(pids)) == 2

    @pytest.mark.parametrize(
        "then, error",
        [("", r"no reply within 1\.0s$"),
         ("os.close(0)", r"no reply within 1\.0s \(write failed: .*Broken pipe\)$")],
        ids=["hung", "input_closed"],
    )
    def test_silent_child_behind_a_full_input_pipe(self, tmp_path, closing, then, error):
        # the child reads nothing, so its video's requests overfill the pipe;
        # one that closes its input also fails the write behind it
        pids = tmp_path / "silent.pids"
        script = tmp_path / "silent.py"
        script.write_text(
            f"import os, time\nopen({str(pids)!r}, 'w').write('%d' % os.getpid())\n"
            f"{then}\ntime.sleep(30)\n"
        )
        n = 400
        paths = [str(tmp_path / ("f" * 200) / ("%06d.ppm" % t)) for t in range(n)]
        assert sum(len(p) for p in paths) > 64 * 1024
        vid = Video("long", NoPixels(n), [Box(1.0, 1.0, 5.0, 5.0)] * n, paths)
        factory = ExternalFactory("ext", f"{sys.executable} {script}", timeout=1.0)
        closing.append(factory)
        start = time.monotonic()
        with pytest.raises(TeacherError, match=error):
            run_teacher_on_video(factory, vid)
        assert time.monotonic() - start < 1.0 + EXIT_GRACE
        assert_exited(started(pids))

    def test_error_quotes_only_its_own_videos_stderr(self, tmp_path, closing):
        command, pids = pid_teacher(tmp_path, "ext", die_on="v2")
        factory = ExternalFactory("ext", command)
        closing.append(factory)
        v0, v1, v2 = self.videos(3)
        run_teacher_on_video(factory, v0)
        run_teacher_on_video(factory, v1)
        with pytest.raises(TeacherError) as info:
            run_teacher_on_video(factory, v2)
        msg = str(info.value)
        assert msg.endswith("stderr tail: 'init v2\\nfatal: gave up on v2'")
        assert "init v1" not in msg
        assert len(started(pids)) == 1

    def test_pending_request_at_close_kills_the_child(self, tmp_path, closing):
        command, pids = pid_teacher(tmp_path, "ext")
        factory = ExternalFactory("ext", command)
        closing.append(factory)
        v0, v1 = self.videos(2)
        session = factory.session(v0)
        session.init(v0.ground_truth[0])
        session.close()  # the replies to frames 1.. are never read
        assert_exited(started(pids))
        assert run_teacher_on_video(factory, v1).boxes == self.drift(v1, len(v1))
        assert len(started(pids)) == 2

    @pytest.mark.parametrize("reply", [{"ok": False}, {"error": "no weights for v1"}],
                             ids=["not_ok", "error"])
    def test_unacknowledged_init_fails_and_replaces_the_child(self, tmp_path, closing, reply):
        script = tmp_path / "refuses.py"
        script.write_text(REFUSES_INIT)
        pids = tmp_path / "ext.pids"
        command = f"{sys.executable} {script} {pids} v1 {shlex.quote(json.dumps(reply))}"
        factory = ExternalFactory("ext", command)
        closing.append(factory)
        v0, v1, v2 = self.videos(3)
        run_teacher_on_video(factory, v0)
        with factory.session(v1) as session:
            with pytest.raises(TeacherError) as info:
                session.init(v1.ground_truth[0])
        assert str(info.value) == (
            f"teacher 'ext': init not acknowledged: {reply!r}; stderr tail: 'init v1'"
        )
        assert_exited(started(pids))
        assert run_teacher_on_video(factory, v2).boxes == self.drift(v2, len(v2))
        assert len(started(pids)) == 2

    def test_predict_past_the_last_frame_keeps_the_child(self, tmp_path, closing):
        command, pids = pid_teacher(tmp_path, "ext")
        factory = ExternalFactory("ext", command)
        closing.append(factory)
        v0, v1 = self.videos(2, frames=3)
        with factory.session(v0) as session:
            session.init(v0.ground_truth[0])
            assert [session.predict() for _ in range(2)] == self.drift(v0, 3)[1:]
            with pytest.raises(ProtocolError, match="has no frame 3"):
                session.predict()
        assert run_teacher_on_video(factory, v1).boxes == self.drift(v1, 3)
        assert len(started(pids)) == 1

    def test_one_session_at_a_time(self, tmp_path, closing):
        command, _ = pid_teacher(tmp_path, "ext")
        factory = ExternalFactory("ext", command)
        closing.append(factory)
        v0, v1 = self.videos(2)
        with factory.session(v0):
            with pytest.raises(ProtocolError, match="still open"):
                factory.session(v1)
        run_teacher_on_video(factory, v1)


# The echo teacher's drift, with each reply written in two parts 50 ms apart.
SPLIT_REPLY_TEACHER = r"""
import json, sys, time
for line in sys.stdin:
    msg = json.loads(line)
    if msg["cmd"] == "init":
        box = msg["box"]
        reply = json.dumps({"ok": True})
    else:
        box = [box[0] + 1.0, box[1], box[2], box[3]]
        reply = json.dumps({"box": box})
    half = len(reply) // 2
    sys.stdout.write(reply[:half])
    sys.stdout.flush()
    time.sleep(0.05)
    print(reply[half:], flush=True)
"""


# The echo teacher's drift over a video of argv[1] frames, whose last reply
# has no newline; it exits right after writing it.
NO_LAST_NEWLINE = r"""
import json, sys
n = int(sys.argv[1])
for t in range(n):
    msg = json.loads(sys.stdin.readline())
    if t == 0:
        box = msg["box"]
        print(json.dumps({"ok": True}), flush=True)
        continue
    box = [box[0] + 1.0, box[1], box[2], box[3]]
    sys.stdout.write(json.dumps({"box": box}) + ("\n" if t < n - 1 else ""))
    sys.stdout.flush()
"""


class CountThreads(TeacherFactory):
    """Ground truth replayed by sessions that log ``threading.active_count()``
    at every step."""

    def __init__(self, teacher_id, counts):
        super().__init__(teacher_id)
        self.counts = counts

    def session(self, video):
        counts = self.counts

        class _S(TraceSession):
            def _predict(self, t):
                counts.append(threading.active_count())
                return super()._predict(t)

        return _S(self.teacher_id, video.video_id, video.ground_truth)


class TestPolledPipes:
    """The stepping thread drives each child's pipes itself."""

    def factory(self, tmp_path, closing, tid, body, *args, timeout=WIRE_TIMEOUT):
        script = tmp_path / f"{tid}.py"
        script.write_text(body)
        factory = ExternalFactory(
            tid, " ".join([sys.executable, str(script), *map(str, args)]), timeout=timeout
        )
        closing.append(factory)
        return factory

    def drift(self, video):
        g0 = video.ground_truth[0]
        return [g0] + [Box(g0.x + t, g0.y, g0.w, g0.h) for t in range(1, len(video))]

    def test_no_thread_is_started(self, tmp_path, closing):
        spec = SyntheticSpec(num_frames=6, width=48, height=48, max_size=20)
        videos = [generate_video(spec, 60 + i, f"v{i}") for i in range(2)]
        counts = []
        pool = [
            self.factory(tmp_path, closing, "a", ECHO_TEACHER),
            self.factory(tmp_path, closing, "b", ECHO_TEACHER),
            CountThreads("count", counts),
        ]
        before = threading.active_count()
        for video in videos:
            results = run_pool_on_video(pool, video)
            assert [error for _, error in results] == [None] * 3
            assert results[0][0].boxes == results[1][0].boxes == self.drift(video)
        close_all(pool)
        assert counts == [before] * (2 * 5)
        assert threading.active_count() == before

    def test_reply_written_in_two_parts(self, tmp_path, closing):
        vid = generate_video(SyntheticSpec(num_frames=3, width=48, height=48, max_size=20), 6, "split")
        factory = self.factory(tmp_path, closing, "ext", SPLIT_REPLY_TEACHER)
        assert run_teacher_on_video(factory, vid).boxes == self.drift(vid)

    def test_requests_past_a_pipe_to_two_children(self, tmp_path, closing):
        # each child is sent more than a pipe holds; "whole" answers only
        # once it has read all of them, "echo" as it reads
        n = 400
        frames = tmp_path / ("f" * 200)
        frames.mkdir()
        paths = [str(frames / ("%06d.ppm" % t)) for t in range(n)]
        for path in paths:
            open(path, "w").close()
        assert sum(len(p) for p in paths) > 64 * 1024
        g0 = Box(1.0, 1.0, 5.0, 5.0)
        vid = Video("long", NoPixels(n), [g0] * n, paths)
        pool = [
            self.factory(tmp_path, closing, "whole", READS_WHOLE_VIDEO_FIRST, n),
            self.factory(tmp_path, closing, "echo", ECHO_TEACHER),
        ]
        start = time.monotonic()
        (whole, e_whole), (echo, e_echo) = run_pool_on_video(pool, vid)
        assert time.monotonic() - start < WIRE_TIMEOUT / 2
        assert e_whole is None and e_echo is None
        assert whole.boxes == [g0] * n
        assert echo.boxes == self.drift(vid)

    def test_last_reply_without_newline(self, tmp_path, closing):
        vid = generate_video(SyntheticSpec(num_frames=4, width=48, height=48, max_size=20), 8, "last")
        factory = self.factory(tmp_path, closing, "ext", NO_LAST_NEWLINE, len(vid))
        assert run_teacher_on_video(factory, vid).boxes == self.drift(vid)


class TestTeacherSpecParsing:
    def test_oracle_forms(self):
        f = parse_teacher_spec("oracle:0.8")
        assert f.teacher_id == "oracle0.8" and f.target_iou == 0.8
        f = parse_teacher_spec("oracle:0.9:7")
        assert f.seed == 7
        f = parse_teacher_spec("good=oracle:0.9")
        assert f.teacher_id == "good"

    def test_trace_form(self, tmp_path):
        f = parse_teacher_spec(f"trace:{tmp_path}:kcfish")
        assert isinstance(f, TraceFactory) and f.teacher_id == "kcfish"

    def test_extern_form(self):
        f = parse_teacher_spec("extern:mytracker:python3 run.py --flag")
        assert isinstance(f, ExternalFactory)
        assert f.command == "python3 run.py --flag"

    def test_bad_specs(self):
        for s in ("oracle", "oracle:x", "trace:only_dir", "warp:1", ""):
            with pytest.raises(InvalidInputError):
                parse_teacher_spec(s)
