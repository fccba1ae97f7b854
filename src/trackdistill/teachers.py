"""Teacher trackers: noisy oracles, trace replay, external processes.

A teacher session is bound to one video, primed with the first ground-truth
box, then stepped by frame index in temporal order, producing one box per
frame. In-process teachers read no pixels; an external one reads frame files.
Factories build fresh sessions per video so pools can be replayed
deterministically across passes.

A session is ``init(g0)``, then one ``predict()`` per later frame, then one
``close`` that ends it. Only ``run_pool_on_video`` opens, steps and closes
sessions. Every pool, those of ``track`` and ``fuse`` included, runs through
it, frame by frame across its members; the trackers then read the traces.

An external teacher is a child process, one per teacher per command: its
factory starts it for the first video and sends every later video to the
same child. It speaks one JSON object per line on its stdin and stdout:

    -> {"cmd": "init", "video": <id>, "box": [x, y, w, h], "frame": <path>}
    <- {"ok": true}
    -> {"cmd": "predict", "frame": <path>}     (once per frame 1..T-1)
    <- {"box": [x, y, w, h]}

Each video starts with an ``init``, also on a child that served the video
before. A teacher never sees the student's box, so no request depends on a
reply: at the ``init`` the child is sent every request of its video at once,
and its replies are then read in order; the thread that steps the sessions
polls the child's pipes itself, and no helper thread is started.
End of file on its stdin comes when the command ends (``close`` on the
factory; ``close_all`` ends a pool's children side by side) and ends the
child. A session that fails, or closes with a request unanswered, kills its
child, and the factory's next video starts a fresh one. Frames are PPM file
paths; a child reads the files itself, so the frames of a video loaded from
disk are never decoded for it.
"""

from __future__ import annotations

import collections
import functools
import json
import os
import select
import shlex
import subprocess
import tempfile
import time
import zlib
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import InvalidInputError, ParseError, ProtocolError, TeacherError
from .geometry import MIN_SIDE, Box
from .video import Video, read_groundtruth, write_groundtruth, write_ppm

# Relative perturbation cap: scale factors stay in [0.2, 1.8] at kappa = 1.6.
_SCALE_FLOOR = 0.2
_KAPPA_MAX = 1.6
WIRE_TIMEOUT = 5.0
EXIT_GRACE = 1.0  # seconds an external teacher has to exit after its input closes
STDERR_TAIL = 2048  # bytes of an external teacher's stderr quoted in its TeacherError
READ_BYTES = 65536  # the most one read takes of an external teacher's output
REPLY_LINE_CAP = 4096  # bytes in one reply line of an external teacher; a reply is < 100


class _LineTooLong(Exception):
    """An external teacher wrote a line longer than REPLY_LINE_CAP."""


@dataclass
class TrajectoryTrace:
    """Per-frame box predictions of one teacher over one video."""

    video_id: str
    teacher_id: str
    boxes: List[Box]


class TeacherSession:
    """Base session over one video of ``n_frames`` frames: ``init`` once from
    the first box, then ``predict`` frame 1, 2, ... in order."""

    def __init__(self, teacher_id: str, video_id: str, n_frames: int):
        self.teacher_id = teacher_id
        self.video_id = video_id
        self.n_frames = n_frames
        self._t: Optional[int] = None  # the last frame stepped; None before init

    def init(self, g0: Box) -> None:
        if self._t is not None:
            raise ProtocolError(f"teacher {self.teacher_id!r}: double init")
        self._t = 0
        self._init(g0)

    def predict(self) -> Box:
        """The box of the next frame."""
        if self._t is None:
            raise ProtocolError(f"teacher {self.teacher_id!r}: predict before init")
        t = self._t + 1
        if t >= self.n_frames:
            raise ProtocolError(f"teacher {self.teacher_id!r}: {self.video_id!r} has no frame {t}")
        self._t = t
        return self._predict(t)

    def close(self) -> None:
        pass

    def _init(self, g0: Box) -> None:
        """Start from the first frame's box; in-process teachers need nothing."""

    def _predict(self, t: int) -> Box:
        raise NotImplementedError

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def check_id(kind: str, name: str) -> None:
    """An id is part of a file path: it must be non-empty and hold no "/"."""
    if not name or "/" in name:
        raise InvalidInputError(f"bad {kind} {name!r}")


class TeacherFactory:
    """Builds one session per video; subclasses define the teacher behavior.
    A factory may hold resources across its sessions (an external teacher's
    child process); ``close`` releases them."""

    def __init__(self, teacher_id: str):
        check_id("teacher id", teacher_id)
        self.teacher_id = teacher_id

    def session(self, video: Video) -> TeacherSession:
        raise NotImplementedError

    def close_input(self) -> None:
        """Tell the teacher no more videos come; ``close`` then waits for it."""

    def close(self) -> None:
        pass


def close_all(factories: Sequence[TeacherFactory]) -> None:
    """Close the input of every factory before waiting for any to end, so
    that external children exit side by side."""
    for factory in factories:
        factory.close_input()
    for factory in factories:
        factory.close()


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


def _check_target(target_iou: float) -> float:
    if not (0.3 <= target_iou <= 1.0):
        raise InvalidInputError(f"target overlap {target_iou} outside [0.3, 1.0]")
    return target_iou


def calibrate_noise(target_iou: float, seed: int, samples: int = 4000) -> float:
    """Perturbation magnitude whose mean overlap hits ``target_iou``, by bisection."""
    _check_target(target_iou)
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


class OracleNoiseFactory(TeacherFactory):
    """Ground truth with calibrated relative jitter; quality dialed by target overlap."""

    def __init__(self, teacher_id: str, target_iou: float, seed: int = 0):
        super().__init__(teacher_id)
        self.target_iou = _check_target(float(target_iou))
        self.seed = int(seed)

    @functools.cached_property
    def kappa(self) -> float:
        """The calibrated jitter, found on first use: a factory that opens no
        session (``filter`` names its pool only for the ids) skips the bisection."""
        return calibrate_noise(self.target_iou, self.seed)

    def session(self, video: Video) -> TraceSession:
        """The replay of the video's jittered track, drawn whole here in frame
        order from the video's own generator."""
        boxes = list(video.ground_truth)
        if self.kappa != 0.0:
            # one draw of (T - 1, 4) is the stream of T - 1 draws of 4
            e = _video_seed(self.seed, video.video_id).uniform(-1.0, 1.0, (len(boxes) - 1, 4))
            x, y, gw, gh = np.array([(g.x, g.y, g.w, g.h) for g in boxes[1:]]).T
            k = self.kappa
            cx = (x + gw / 2.0) + e[:, 0] * k * gw
            cy = (y + gh / 2.0) + e[:, 1] * k * gh
            w = np.maximum(gw * np.maximum(_SCALE_FLOOR, 1.0 + e[:, 2] * k * 0.5), MIN_SIDE)
            h = np.maximum(gh * np.maximum(_SCALE_FLOOR, 1.0 + e[:, 3] * k * 0.5), MIN_SIDE)
            rows = np.stack([cx - w / 2, cy - h / 2, w, h], axis=1).tolist()
            boxes[1:] = [Box(*row) for row in rows]
        return TraceSession(self.teacher_id, video.video_id, boxes)


class TraceSession(TeacherSession):
    """Replays a box list verbatim: a stored trace or an oracle's drawn track."""

    def __init__(self, teacher_id: str, video_id: str, boxes: List[Box]):
        super().__init__(teacher_id, video_id, len(boxes))
        self._boxes = boxes

    def _predict(self, t: int) -> Box:
        return self._boxes[t]


class TraceFactory(TeacherFactory):
    def __init__(self, teacher_id: str, trace_root: str):
        super().__init__(teacher_id)
        self.trace_root = trace_root

    def session(self, video: Video) -> TraceSession:
        try:
            trace = load_trace(self.trace_root, self.teacher_id, video.video_id)
        except ParseError as e:  # a corrupt trace fails this member alone
            raise TeacherError(self.teacher_id, str(e))
        if len(trace.boxes) != len(video):
            raise TeacherError(
                self.teacher_id,
                f"trace for {video.video_id!r} has {len(trace.boxes)} boxes, "
                f"video has {len(video)} frames",
            )
        return TraceSession(self.teacher_id, video.video_id, trace.boxes)


class _Child:
    """One running external teacher: its pipes, which the thread that steps
    its sessions drives itself through one poll (no helper thread), and its
    stderr in an unnamed temporary file (no reader, no full pipe). It serves
    one session at a time."""

    def __init__(self, teacher_id: str, command: str):
        self.stderr = tempfile.TemporaryFile()
        try:
            self.proc = subprocess.Popen(
                shlex.split(command),
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                stderr=self.stderr,
            )
        except OSError as e:
            self.stderr.close()
            raise TeacherError(teacher_id, f"cannot start {command!r}: {e}")
        self._in, self._out = self.proc.stdin.fileno(), self.proc.stdout.fileno()
        os.set_blocking(self._in, False)
        os.set_blocking(self._out, False)
        self._poll = select.poll()
        self._poll.register(self._out, select.POLLIN)
        self._unsent = bytearray()  # request bytes not yet written; input polled while any
        self._partial = b""  # the start of a reply line still being written
        self._lines: Deque[str] = collections.deque()
        self._eof = False  # its output stream has closed
        self.write_error: Optional[OSError] = None
        self.busy = False  # a session is open on it
        self.broken = False  # killed: its reply stream may be out of step

    def send(self, data: bytes) -> None:
        """Queue request bytes and write what the input pipe takes now; the
        rest goes out while ``line`` waits."""
        if not self._unsent:
            self._poll.register(self._in, select.POLLOUT)
        self._unsent += data
        self._write()

    def line(self, timeout: float) -> Optional[str]:
        """The next reply line, or None at end of file. Raises TimeoutError
        if neither comes within ``timeout`` seconds, and _LineTooLong as soon
        as a line outgrows REPLY_LINE_CAP; that line is dropped."""
        deadline = time.monotonic() + timeout
        while not self._lines and not self._eof:
            wait = deadline - time.monotonic()
            if wait <= 0:
                raise TimeoutError
            for fd, _ in self._poll.poll(wait * 1000):
                if fd == self._out:
                    self._read()
                else:
                    self._write()
        return self._lines.popleft() if self._lines else None

    def _write(self) -> None:
        try:
            del self._unsent[: os.write(self._in, self._unsent)]
        except BlockingIOError:
            pass
        except OSError as e:  # the child closed its input or exited
            self.write_error = e
            self._unsent.clear()
        if not self._unsent:
            self._poll.unregister(self._in)

    def _read(self) -> None:
        data = os.read(self._out, READ_BYTES)
        if not data:  # end of file; a last line without a newline still counts
            self._eof = True
            self._poll.unregister(self._out)
            lines = [self._partial] if self._partial else []
        else:
            pieces = (self._partial + data).split(b"\n")
            if max(map(len, pieces)) > REPLY_LINE_CAP:
                self._partial = b""
                raise _LineTooLong
            *lines, self._partial = pieces
            lines = [line + b"\n" for line in lines]
        # A line that is not UTF-8 keeps its bad bytes as "\xff" escapes,
        # which JSON accepts nowhere, so it reads as a malformed reply.
        self._lines.extend(line.decode("utf-8", "backslashreplace") for line in lines)

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
        if self._unsent:
            self._unsent.clear()
            self._poll.unregister(self._in)
        self.proc.stdin.close()

    def close(self) -> None:
        if self.proc.stdout.closed:  # closed before, as a killed child is
            return
        self.close_input()
        # Its output closes when it exits, so reading that to its end waits
        # for the exit in poll, where Popen.wait(timeout) would poll in
        # sleeps. The child gets EXIT_GRACE in all before it is killed.
        deadline = time.monotonic() + EXIT_GRACE
        try:
            while self.line(deadline - time.monotonic()) is not None:
                pass
        except (TimeoutError, _LineTooLong):
            pass
        try:
            self.proc.wait(timeout=max(0.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        self.stderr.close()


class ExternalSession(TeacherSession):
    """One video on its factory's child, over the line-JSON wire protocol
    (module docstring).

    ``init`` queues on the child the video's every request line, the
    ``init`` and a ``predict`` per frame 1..T-1, and reads the init's
    acknowledgement; each ``predict`` reads the next reply. While a step
    waits, it writes what the child's input takes of the requests, so no
    step blocks on a write, and a child may answer as soon as it likes.
    Frames are handed over as file paths; in-memory videos are spilled to
    a temporary directory that the session removes at close.
    Any malformed reply, timeout, or early exit raises TeacherError carrying
    the teacher id and the tail of what the child wrote to stderr since this
    video's init; a failed write is named in the timeout's message.

    A session that closes with every request answered and nothing raised
    leaves the child running for the factory's next video. One that raised,
    or closes with a request unanswered, kills the child, because its
    replies may be out of step; the factory then starts a fresh one.
    """

    def __init__(self, teacher_id: str, video: Video, child: _Child, timeout: float):
        super().__init__(teacher_id, video.video_id, len(video))
        self._video = video
        self._child = child
        self._timeout = timeout
        self._tmpdir: Optional[tempfile.TemporaryDirectory] = None
        self._stderr_start = 0
        self._unanswered = 0  # requests sent whose reply is not read yet
        child.busy = True

    def _error(self, message: str) -> TeacherError:
        """A TeacherError quoting the tail of this video's stderr; the child,
        whose replies may now be out of step, is killed."""
        tail = self._child.stderr_tail(self._stderr_start)
        if tail:
            message += f"; stderr tail: {tail!r}"
        self._child.kill()
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

    def _init(self, g0: Box) -> None:
        self._stderr_start = self._child.stderr_size()
        init = {
            "cmd": "init",
            "video": self.video_id,
            "box": [g0.x, g0.y, g0.w, g0.h],
            "frame": self._frame_path(0),
        }
        lines = [json.dumps(init)] + [
            json.dumps({"cmd": "predict", "frame": self._frame_path(k)})
            for k in range(1, len(self._video))
        ]
        self._unanswered = len(lines)
        self._child.send("".join(line + "\n" for line in lines).encode("utf-8"))
        reply = self._reply()
        if reply.get("ok") is not True:
            raise self._error(f"init not acknowledged: {reply!r}")

    def _reply(self) -> dict:
        try:
            line = self._child.line(self._timeout)
        except TimeoutError:
            message = f"no reply within {self._timeout:.1f}s"
            if self._child.write_error is not None:
                message += f" (write failed: {self._child.write_error})"
            raise self._error(message)
        except _LineTooLong:
            raise self._error(f"reply line longer than {REPLY_LINE_CAP} bytes")
        if line is None:
            raise self._error("process closed its output stream")
        self._unanswered -= 1
        try:
            reply = json.loads(line)
        except json.JSONDecodeError:
            raise self._error(f"malformed reply {line!r}")
        if not isinstance(reply, dict):
            raise self._error(f"malformed reply {line!r}")
        return reply

    def _predict(self, t: int) -> Box:
        reply = self._reply()
        box = reply.get("box")
        if not (isinstance(box, list) and len(box) == 4):
            raise self._error(f"bad predict reply: {reply!r}")
        try:
            return Box(*(float(v) for v in box))
        except (TypeError, ValueError, InvalidInputError) as e:
            raise self._error(f"bad box in reply: {e}")

    def close(self) -> None:
        if self._unanswered:  # an unread reply leaves the reply stream out of step
            self._child.kill()
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
    request unanswered, kills it, and the next session starts a fresh one.
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
    external child not yet running. Then every live member is initialised,
    and for each frame every live member is asked for its box, in pool
    order; an external member's requests all went out at its init, so its
    child works ahead while the others are read. A member that raises
    TeacherError is dropped and keeps the boxes it gave so far; the others
    go on. Returns, in pool order, each member's trace (boxes[0] is the
    ground-truth start) and its error, or None: a member that failed at
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
        each_live(lambda k, s: s.init(g0))
        for _ in range(1, len(video)):
            each_live(lambda k, s: traces[k].boxes.append(s.predict()))
    finally:
        for session in opened:
            session.close()
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
