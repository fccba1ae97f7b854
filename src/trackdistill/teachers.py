"""Teacher trackers: noisy oracles, trace replay, external processes.

A teacher session is bound to one video, primed with the first frame and
ground-truth box, then fed frames in temporal order, producing one box per
frame. Factories build fresh sessions per video so pools can be replayed
deterministically across passes.

Every step has two phases: ``submit`` hands the session its input and
``collect`` returns the box. ``init`` and ``predict`` are submit-then-collect.
Only ``run_pool_on_video`` opens and steps sessions. Every pool, those of
``track`` and ``fuse`` included, runs through it, each member submitted to
before any is collected from; the trackers then read the traces.

An external teacher is a child process, one per teacher per command: its
factory starts it for the first video and sends every later video to the
same child. It speaks one JSON object per line on its stdin and stdout:

    -> {"cmd": "init", "video": <id>, "box": [x, y, w, h], "frame": <path>}
    <- {"ok": true}
    -> {"cmd": "predict", "frame": <path>}     (once per frame 1..T-1)
    <- {"box": [x, y, w, h]}

Each video starts with an ``init``, also on a child that served the video
before. End of file on its stdin comes when the command ends (``close`` on
the factory; ``close_all`` ends a pool's children side by side) and
ends the child. A session that fails kills its child, and the factory's next
video starts a fresh one. Frames are PPM file paths.
"""

from __future__ import annotations

import json
import os
import queue
import shlex
import subprocess
import tempfile
import threading
import time
import zlib
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import InvalidInputError, ProtocolError, TeacherError
from .geometry import MIN_SIDE, Box
from .video import Video, read_groundtruth, write_groundtruth, write_ppm

# Relative perturbation cap: scale factors stay in [0.2, 1.8] at kappa = 1.6.
_SCALE_FLOOR = 0.2
_KAPPA_MAX = 1.6
WIRE_TIMEOUT = 5.0
EXIT_GRACE = 1.0  # seconds an external teacher has to exit after its input closes
STDERR_TAIL = 2048  # bytes of an external teacher's stderr quoted in its TeacherError


@dataclass
class TrajectoryTrace:
    """Per-frame box predictions of one teacher over one video."""

    video_id: str
    teacher_id: str
    boxes: List[Box]


class TeacherSession:
    """Base session: init once, then predict per frame, in order, each step
    split into submit and collect."""

    def __init__(self, teacher_id: str, video_id: str):
        self.teacher_id = teacher_id
        self.video_id = video_id
        self.box = None  # the teacher's latest output
        self._initialized = False
        self._t = 0
        self._pending = False  # a step was submitted and not yet collected
        self._frame = None

    def init(self, frame0: np.ndarray, g0: Box) -> None:
        self.submit_init(frame0, g0)
        self.collect()

    def predict(self, frame: np.ndarray) -> Box:
        self.submit(frame)
        return self.collect()

    def submit_init(self, frame0: np.ndarray, g0: Box) -> None:
        """First phase of ``init``: hand over the first frame and its box."""
        if self._initialized:
            raise ProtocolError(f"teacher {self.teacher_id!r}: double init")
        self._initialized = True
        self._t = 0
        self.box = g0
        self._start(frame0)

    def submit(self, frame: np.ndarray) -> None:
        """First phase of ``predict``: hand over the next frame."""
        if not self._initialized:
            raise ProtocolError(f"teacher {self.teacher_id!r}: predict before init")
        if self._pending:
            raise ProtocolError(f"teacher {self.teacher_id!r}: submit before collect")
        self._t += 1
        self._start(frame)

    def _start(self, frame: np.ndarray) -> None:
        self._pending = True
        self._frame = frame
        self._submit(frame, self._t)

    def collect(self) -> Box:
        """Second phase: the box of the frame last submitted (the start box after init)."""
        if not self._pending:
            raise ProtocolError(f"teacher {self.teacher_id!r}: collect without submit")
        self._pending = False
        if self._t == 0:
            self._collect_init()
        else:
            self.box = self._predict(self._frame, self._t)
        return self.box

    def close_input(self) -> None:
        """Tell the teacher no more frames come; ``close`` then waits for it."""

    def close(self) -> None:
        pass

    def _submit(self, frame: np.ndarray, t: int) -> None:
        """Start work on frame t (0 is the init); in-process teachers do it in ``_predict``."""

    def _collect_init(self) -> None:
        pass

    def _predict(self, frame: np.ndarray, t: int) -> Box:
        raise NotImplementedError

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


class TeacherFactory:
    """Builds one session per video; subclasses define the teacher behavior.
    A factory may hold resources across its sessions (an external teacher's
    child process); ``close`` releases them."""

    def __init__(self, teacher_id: str):
        if not teacher_id or "/" in teacher_id:
            raise InvalidInputError(f"bad teacher id {teacher_id!r}")
        self.teacher_id = teacher_id

    def session(self, video: Video) -> TeacherSession:
        raise NotImplementedError

    def close_input(self) -> None:
        """Tell the teacher no more videos come; ``close`` then waits for it."""

    def close(self) -> None:
        pass


def close_all(closables: Sequence) -> None:
    """Close the input of every session or factory before waiting for any to
    end, so that external children are killed or exit side by side."""
    for closable in closables:
        closable.close_input()
    for closable in closables:
        closable.close()


def _video_seed(base_seed: int, video_id: str) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence([int(base_seed), zlib.crc32(video_id.encode("utf-8"))])
    )


def _unit_mean_iou(kappa: float, noise: np.ndarray) -> float:
    # Mean overlap of a unit box against its perturbed copy; overlap is
    # invariant under per-axis affine scaling, so this models every box size.
    cx = 0.5 + noise[:, 0] * kappa
    cy = 0.5 + noise[:, 1] * kappa
    w = np.maximum(_SCALE_FLOOR, 1.0 + noise[:, 2] * kappa * 0.5)
    h = np.maximum(_SCALE_FLOOR, 1.0 + noise[:, 3] * kappa * 0.5)
    ix = np.clip(np.minimum(cx + w / 2, 1.0) - np.maximum(cx - w / 2, 0.0), 0.0, None)
    iy = np.clip(np.minimum(cy + h / 2, 1.0) - np.maximum(cy - h / 2, 0.0), 0.0, None)
    inter = ix * iy
    return float(np.mean(inter / (1.0 + w * h - inter)))


def calibrate_noise(target_iou: float, seed: int, samples: int = 4000) -> float:
    """Perturbation magnitude whose mean overlap hits ``target_iou``, by bisection."""
    if not (0.3 <= target_iou <= 1.0):
        raise InvalidInputError(f"target overlap {target_iou} outside [0.3, 1.0]")
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0xCA11B]))
    noise = rng.uniform(-1.0, 1.0, (samples, 4))
    if target_iou >= 1.0:
        return 0.0
    lo, hi = 0.0, _KAPPA_MAX
    if _unit_mean_iou(hi, noise) > target_iou:
        return hi
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if _unit_mean_iou(mid, noise) > target_iou:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class OracleNoiseSession(TeacherSession):
    """Ground truth with calibrated relative jitter; quality dialed by target overlap."""

    def __init__(self, teacher_id: str, video: Video, kappa: float, rng: np.random.Generator):
        super().__init__(teacher_id, video.video_id)
        self._gt = video.ground_truth
        self._kappa = kappa
        self._rng = rng

    def _predict(self, frame: np.ndarray, t: int) -> Box:
        if t >= len(self._gt):
            raise ProtocolError(f"teacher {self.teacher_id!r}: video exhausted at step {t}")
        g = self._gt[t]
        if self._kappa == 0.0:
            return g
        e = self._rng.uniform(-1.0, 1.0, 4)
        cx = g.cx + e[0] * self._kappa * g.w
        cy = g.cy + e[1] * self._kappa * g.h
        w = max(g.w * max(_SCALE_FLOOR, 1.0 + e[2] * self._kappa * 0.5), MIN_SIDE)
        h = max(g.h * max(_SCALE_FLOOR, 1.0 + e[3] * self._kappa * 0.5), MIN_SIDE)
        return Box(cx - w / 2, cy - h / 2, w, h)


class OracleNoiseFactory(TeacherFactory):
    def __init__(self, teacher_id: str, target_iou: float, seed: int = 0):
        super().__init__(teacher_id)
        self.target_iou = float(target_iou)
        self.seed = int(seed)
        self.kappa = calibrate_noise(self.target_iou, self.seed)

    def session(self, video: Video) -> OracleNoiseSession:
        return OracleNoiseSession(
            self.teacher_id, video, self.kappa, _video_seed(self.seed, video.video_id)
        )


class TraceSession(TeacherSession):
    """Replays a stored trajectory verbatim."""

    def __init__(self, teacher_id: str, video_id: str, boxes: List[Box]):
        super().__init__(teacher_id, video_id)
        self._boxes = boxes

    def _predict(self, frame: np.ndarray, t: int) -> Box:
        if t >= len(self._boxes):
            raise ProtocolError(
                f"teacher {self.teacher_id!r}: trace exhausted at step {t}"
            )
        return self._boxes[t]


class TraceFactory(TeacherFactory):
    def __init__(self, teacher_id: str, trace_root: str):
        super().__init__(teacher_id)
        self.trace_root = trace_root

    def session(self, video: Video) -> TraceSession:
        trace = load_trace(self.trace_root, self.teacher_id, video.video_id)
        if len(trace.boxes) != len(video):
            raise TeacherError(
                self.teacher_id,
                f"trace for {video.video_id!r} has {len(trace.boxes)} boxes, "
                f"video has {len(video)} frames",
            )
        return TraceSession(self.teacher_id, video.video_id, trace.boxes)


class _Child:
    """One running external teacher: its pipes, a reader thread that queues
    its reply lines as they arrive, and its stderr in an unnamed temporary
    file (no reader, no full pipe). It serves one session at a time."""

    def __init__(self, teacher_id: str, command: str):
        self.stderr = tempfile.TemporaryFile()
        try:
            self.proc = subprocess.Popen(
                shlex.split(command),
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                stderr=self.stderr,
                text=True,
                bufsize=1,
            )
        except OSError as e:
            self.stderr.close()
            raise TeacherError(teacher_id, f"cannot start {command!r}: {e}")
        self.replies: "queue.Queue[Optional[str]]" = queue.Queue()
        # The thread holds the pipe, not this object, so a child whose owner
        # is dropped unclosed still gets end of file on its input.
        self.reader = threading.Thread(
            target=_pump, args=(self.proc.stdout, self.replies), daemon=True
        )
        self.reader.start()
        self.busy = False  # a session is open on it
        self.broken = False  # killed: its reply stream may be out of step

    def stderr_size(self) -> int:
        return os.fstat(self.stderr.fileno()).st_size

    def stderr_tail(self, start: int) -> str:
        """The last STDERR_TAIL bytes of stderr written from offset ``start`` on."""
        if self.stderr.closed:
            return ""
        # pread keeps the offset the child writes at
        tail = os.pread(
            self.stderr.fileno(), STDERR_TAIL, max(start, self.stderr_size() - STDERR_TAIL)
        )
        return tail.decode("utf-8", "replace").strip()

    def kill(self) -> None:
        self.broken = True
        self.proc.kill()

    def close_input(self) -> None:
        try:
            self.proc.stdin.close()
        except OSError:  # a child that already exited leaves a broken pipe
            pass

    def close(self) -> None:
        self.close_input()
        # The reader ends when the child's output closes at exit; joining it
        # blocks where Popen.wait(timeout) would poll in sleeps. The child
        # gets EXIT_GRACE in all before it is killed.
        deadline = time.monotonic() + EXIT_GRACE
        self.reader.join(timeout=EXIT_GRACE)
        try:
            self.proc.wait(timeout=max(0.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        if not self.reader.is_alive():  # it read the pipe to its end
            self.proc.stdout.close()
        self.stderr.close()


def _pump(stream, replies: "queue.Queue[Optional[str]]") -> None:
    for line in stream:
        replies.put(line)
    replies.put(None)


class ExternalSession(TeacherSession):
    """One video on its factory's child, over the line-JSON wire protocol
    (module docstring).

    ``submit`` writes the request line and ``collect`` reads the reply, which
    the child's reader thread queues as it arrives, so a pool can write ahead
    to every child without a full pipe stalling either side. Frames are
    handed over as file paths; in-memory videos are spilled to a temporary
    directory that the session removes at close. Any malformed reply,
    timeout, or early exit raises TeacherError carrying the teacher id and
    the tail of what the child wrote to stderr since this video's init.

    A session that closes with every submitted step collected and nothing
    raised leaves the child running for the factory's next video. One that
    raised, or closes with a request pending, kills the child, because its
    replies may be out of step; the factory then starts a fresh one.
    """

    def __init__(self, teacher_id: str, video: Video, child: _Child, timeout: float):
        super().__init__(teacher_id, video.video_id)
        self._video = video
        self._child = child
        self._timeout = timeout
        self._tmpdir: Optional[tempfile.TemporaryDirectory] = None
        self._stderr_start = 0
        self._failed = False
        child.busy = True

    def _error(self, message: str) -> TeacherError:
        """A TeacherError quoting the tail of this video's stderr."""
        self._failed = True
        tail = self._child.stderr_tail(self._stderr_start)
        if tail:
            message += f"; stderr tail: {tail!r}"
        return TeacherError(self.teacher_id, message)

    def _frame_path(self, t: int) -> str:
        if self._video.frame_paths is not None:
            return self._video.frame_paths[t]
        if self._tmpdir is None:
            self._tmpdir = tempfile.TemporaryDirectory(prefix="teacher_frames_")
        path = os.path.join(self._tmpdir.name, "%06d.ppm" % t)
        if not os.path.exists(path):
            write_ppm(path, self._video.frames[t])
        return path

    def _submit(self, frame: np.ndarray, t: int) -> None:
        if t == 0:
            self._stderr_start = self._child.stderr_size()
            g0 = self.box
            msg = {
                "cmd": "init",
                "video": self.video_id,
                "box": [g0.x, g0.y, g0.w, g0.h],
                "frame": self._frame_path(0),
            }
        else:
            msg = {"cmd": "predict", "frame": self._frame_path(t)}
        try:
            self._child.proc.stdin.write(json.dumps(msg) + "\n")
            self._child.proc.stdin.flush()
        except (BrokenPipeError, ValueError, OSError) as e:
            raise self._error(f"write failed: {e}")

    def _reply(self) -> dict:
        try:
            line = self._child.replies.get(timeout=self._timeout)
        except queue.Empty:
            raise self._error(f"no reply within {self._timeout:.1f}s")
        if line is None:
            raise self._error("process closed its output stream")
        try:
            reply = json.loads(line)
        except json.JSONDecodeError:
            raise self._error(f"malformed reply {line!r}")
        if not isinstance(reply, dict):
            raise self._error(f"malformed reply {line!r}")
        return reply

    def _collect_init(self) -> None:
        reply = self._reply()
        if reply.get("ok") is not True:
            raise self._error(f"init not acknowledged: {reply!r}")

    def _predict(self, frame: np.ndarray, t: int) -> Box:
        reply = self._reply()
        box = reply.get("box")
        if not (isinstance(box, list) and len(box) == 4):
            raise self._error(f"bad predict reply: {reply!r}")
        try:
            return Box(*(float(v) for v in box))
        except (TypeError, ValueError, InvalidInputError) as e:
            raise self._error(f"bad box in reply: {e}")

    def close_input(self) -> None:
        # A failed or abandoned step leaves the reply stream out of step.
        if self._failed or self._pending:
            self._child.kill()

    def close(self) -> None:
        self.close_input()
        if self._child.broken:
            self._child.close()
        self._child.busy = False
        if self._tmpdir is not None:
            self._tmpdir.cleanup()
            self._tmpdir = None


class ExternalFactory(TeacherFactory):
    """An external teacher: one child process that serves every video of a
    command in turn, each of its sessions starting with an ``init``. The
    first session starts the child; a session that fails, or closes with a
    request pending, kills it, and the next session starts a fresh one.
    ``close`` ends the child."""

    def __init__(self, teacher_id: str, command: str, timeout: float = WIRE_TIMEOUT):
        super().__init__(teacher_id)
        self.command = command
        self.timeout = timeout
        self._child: Optional[_Child] = None

    def session(self, video: Video) -> ExternalSession:
        if self._child is None or self._child.broken:
            self._child = _Child(self.teacher_id, self.command)
        elif self._child.busy:
            raise ProtocolError(f"teacher {self.teacher_id!r}: a session is still open")
        return ExternalSession(self.teacher_id, video, self._child, self.timeout)

    def close_input(self) -> None:
        if self._child is not None:
            self._child.close_input()

    def close(self) -> None:
        if self._child is not None:
            self._child.close()
            self._child = None


def parse_teacher_spec(spec: str, default_seed: int = 0) -> TeacherFactory:
    """Build a factory from a CLI spec string.

    Forms:
        oracle:<target_iou>[:<seed>]   calibrated noisy oracle
        trace:<dir>:<teacher_id>       replay stored trajectories
        extern:<id>:<command>          external process (command may hold spaces)
    An explicit id may prefix any form as "<id>=<form>".
    """
    teacher_id = None
    if "=" in spec.split(":", 1)[0]:
        teacher_id, spec = spec.split("=", 1)
    parts = spec.split(":", 2)
    kind = parts[0]
    try:
        if kind == "oracle":
            if len(parts) < 2:
                raise InvalidInputError(f"oracle spec needs a target overlap: {spec!r}")
            target = float(parts[1])
            seed = int(parts[2]) if len(parts) > 2 else default_seed
            return OracleNoiseFactory(teacher_id or f"oracle{target:g}", target, seed)
        if kind == "trace":
            if len(parts) != 3:
                raise InvalidInputError(f"trace spec is trace:<dir>:<id>, got {spec!r}")
            return TraceFactory(teacher_id or parts[2], parts[1])
        if kind == "extern":
            if len(parts) != 3:
                raise InvalidInputError(f"extern spec is extern:<id>:<command>, got {spec!r}")
            return ExternalFactory(teacher_id or parts[1], parts[2])
    except ValueError as e:
        raise InvalidInputError(f"bad teacher spec {spec!r}: {e}")
    raise InvalidInputError(f"unknown teacher kind {kind!r} in {spec!r}")


def run_pool_on_video(
    pool: Sequence[TeacherFactory], video: Video
) -> List[Tuple[TrajectoryTrace, Optional[TeacherError]]]:
    """Run every pool member over ``video`` side by side, from the video's
    first ground-truth box.

    One session per member is opened first, which starts together every
    external child not yet running. Then, for the init and for each frame,
    every live member is submitted to before any is collected from. A member that
    raises TeacherError is dropped and keeps the boxes it gave so far; the
    others go on. Returns, in pool order, each member's trace (boxes[0] is
    the ground-truth start) and its error, or None: a member that failed at
    frame t has boxes up to t - 1. Two members with one id, whose traces
    would share a path, raise InvalidInputError.
    """
    ids = [f.teacher_id for f in pool]
    if len(set(ids)) != len(ids):
        raise InvalidInputError("teacher pool has duplicate ids")
    g0 = video.ground_truth[0]
    traces = [TrajectoryTrace(video.video_id, f.teacher_id, [g0]) for f in pool]
    errors: List[Optional[TeacherError]] = [None] * len(pool)
    opened: List[TeacherSession] = []
    live: Dict[int, TeacherSession] = {}

    def each_live(step: Callable[[int, TeacherSession], object]) -> None:
        for k, session in list(live.items()):
            try:
                step(k, session)
            except TeacherError as e:
                errors[k] = e
                del live[k]

    try:
        for k, factory in enumerate(pool):
            try:
                opened.append(factory.session(video))
            except TeacherError as e:
                errors[k] = e
            else:
                live[k] = opened[-1]
        each_live(lambda k, s: s.submit_init(video.frames[0], g0))
        each_live(lambda k, s: s.collect())
        for t in range(1, len(video)):
            frame = video.frames[t]
            each_live(lambda k, s: s.submit(frame))
            each_live(lambda k, s: traces[k].boxes.append(s.collect()))
    finally:
        close_all(opened)
    return list(zip(traces, errors))


def run_teacher_on_video(factory: TeacherFactory, video: Video) -> TrajectoryTrace:
    """The one-member pool: every frame through a fresh session; boxes[0] is
    the ground-truth start. Raises the member's TeacherError."""
    [(trace, error)] = run_pool_on_video([factory], video)
    if error is not None:
        raise error
    return trace


def trace_path(trace_root: str, teacher_id: str, video_id: str) -> str:
    return os.path.join(trace_root, teacher_id, f"{video_id}.csv")


def save_trace(trace_root: str, trace: TrajectoryTrace) -> str:
    path = trace_path(trace_root, trace.teacher_id, trace.video_id)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    write_groundtruth(path, trace.boxes)
    return path


def load_trace(trace_root: str, teacher_id: str, video_id: str) -> TrajectoryTrace:
    path = trace_path(trace_root, teacher_id, video_id)
    if not os.path.isfile(path):
        raise TeacherError(teacher_id, f"no trace file {path}")
    return TrajectoryTrace(video_id, teacher_id, read_groundtruth(path))
