"""Video sequences on disk, binary PPM frames, and synthetic sequence generation.

A dataset directory holds one subdirectory per sequence:

    <root>/<sequence>/frames/000000.ppm, 000001.ppm, ...
    <root>/<sequence>/groundtruth.csv        # one "x,y,w,h" line per frame

Frames are binary PPM (P6, maxval 255). Ground-truth boxes are continuous.

A loaded or generated video's frames are produced when read and are
read-only: decoded from disk, or rendered from a background and a texture.
Either keeps only the last frame it produced, so a video holds at most one
frame however long it is.
"""

from __future__ import annotations

import os
import re
from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .errors import InvalidInputError, ParseError
from .geometry import Box

FRAME_PATTERN = "%06d.ppm"


def write_ppm(path: str, image: np.ndarray) -> None:
    """Write an (H, W, 3) uint8 array as binary PPM (P6)."""
    if image.ndim != 3 or image.shape[2] != 3 or image.dtype != np.uint8:
        raise InvalidInputError(f"expected (H, W, 3) uint8 image, got {image.shape} {image.dtype}")
    h, w = image.shape[:2]
    with open(path, "wb") as fh:
        fh.write(b"P6\n%d %d\n255\n" % (w, h))
        fh.write(image.tobytes())


# P6, width, height and maxval, each after whitespace or "#" comment lines,
# then the one whitespace byte that ends the header.
_SEP = rb"(?:\s|#[^\n]*\n)+"
_PPM_HEADER = re.compile(rb"P6%s(\d+)%s(\d+)%s(\d+)\s" % (_SEP, _SEP, _SEP))
PPM_HEADER_BYTES = 64  # what ``ppm_shape`` reads of a frame file


def _ppm_header(path: str, data: bytes) -> Tuple[int, int, int]:
    """(height, width, raster offset) of the PPM whose bytes start with ``data``."""
    m = _PPM_HEADER.match(data)
    if m is None:
        raise ParseError(f"{path}: not a binary PPM header: {data[:16]!r}")
    w, h, maxval = (int(g) for g in m.groups())
    if maxval != 255:
        raise ParseError(f"{path}: unsupported PPM maxval {maxval}")
    if not (w and h):
        raise ParseError(f"{path}: PPM of {w}x{h} pixels has none")
    return h, w, m.end()


def read_ppm(path: str) -> np.ndarray:
    """Read a binary PPM (P6, maxval 255) into a read-only (H, W, 3) uint8
    array, a view of the file's bytes."""
    with open(path, "rb") as fh:
        data = fh.read()
    h, w, pos = _ppm_header(path, data)
    need = w * h * 3
    if len(data) - pos < need:
        raise ParseError(f"{path}: raster has {len(data) - pos} bytes, expected {need}")
    return np.frombuffer(data, np.uint8, need, pos).reshape(h, w, 3)


def ppm_shape(path: str) -> Tuple[int, int, int]:
    """The (H, W, 3) shape of a PPM frame from its header alone, checked
    against the file's size; no raster is read."""
    fd = os.open(path, os.O_RDONLY)
    try:
        head = os.read(fd, PPM_HEADER_BYTES)
        size = os.fstat(fd).st_size
    except OSError as e:  # named as open() would name it (a directory, say)
        raise OSError(e.errno, e.strerror, path) from None
    finally:
        os.close(fd)
    h, w, pos = _ppm_header(path, head)
    if size - pos < w * h * 3:
        raise ParseError(f"{path}: raster has {size - pos} bytes, expected {w * h * 3}")
    return h, w, 3


class LazyFrames(SequenceABC):
    """A video's frames, each produced by ``source(j)`` when frame j is read.
    A slice is a view over the same source, so it shares what the source
    keeps."""

    def __init__(self, source: Callable[[int], np.ndarray], index: range):
        self._source = source
        self._index = index

    def __len__(self) -> int:
        return len(self._index)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return LazyFrames(self._source, self._index[i])
        return self._source(self._index[i])


def _last_kept(make: Callable[[int], np.ndarray]) -> Callable[[int], np.ndarray]:
    """Frame j is ``make(j)``, and only the last frame made is kept: a tracker
    reads t - 1 and then t, so each frame is made once per pass. The kept
    (j, frame) pair is replaced in one assignment, so no reader, on any
    thread, gets one frame's index with another's bytes."""
    last: Tuple[int, Optional[np.ndarray]] = (-1, None)

    def frame(j: int) -> np.ndarray:
        nonlocal last
        last_j, f = last
        if last_j != j:
            f = make(j)
            last = (j, f)
        return f

    return frame


@dataclass
class Video:
    """A sequence with per-frame ground truth. Frames are (H, W, 3) uint8.
    Those of a loaded or generated video are produced when read and are
    read-only: decoded from disk or rendered on each read but a repeat of
    the last."""

    video_id: str
    frames: Sequence[np.ndarray]
    ground_truth: List[Box]
    frame_paths: Optional[List[str]] = field(default=None, repr=False)

    def __post_init__(self):
        if len(self.frames) != len(self.ground_truth):
            raise InvalidInputError(
                f"video {self.video_id!r}: {len(self.frames)} frames but "
                f"{len(self.ground_truth)} ground-truth boxes"
            )
        if len(self.frames) < 2:
            raise InvalidInputError(f"video {self.video_id!r}: needs at least 2 frames")

    def __len__(self) -> int:
        return len(self.frames)


def read_groundtruth(path: str) -> List[Box]:
    boxes = []
    # A byte outside ASCII reads as a lone surrogate, so its line is named.
    with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            if not line.isascii():
                raw = line.encode("ascii", "surrogateescape")
                raise ParseError(f"{path}:{lineno}: non-ASCII byte in {raw!r}")
            parts = line.split(",")
            if len(parts) != 4:
                raise ParseError(f"{path}:{lineno}: expected 4 comma-separated values")
            try:
                vals = [float(p) for p in parts]
            except ValueError:
                raise ParseError(f"{path}:{lineno}: non-numeric box field in {line!r}")
            try:
                boxes.append(Box(*vals))
            except InvalidInputError as e:
                raise ParseError(f"{path}:{lineno}: {e}")
    if not boxes:
        raise ParseError(f"{path}: no ground-truth boxes")
    return boxes


def read_utf8(path: str) -> str:
    """The text of a UTF-8 file; a byte that is not UTF-8 raises ParseError
    naming ``path:line``."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as e:
        lineno = data.count(b"\n", 0, e.start) + 1
        line = data.split(b"\n")[lineno - 1].rstrip(b"\r")
        raise ParseError(f"{path}:{lineno}: non-UTF-8 byte in {line!r}")


def write_groundtruth(path: str, boxes: List[Box]) -> None:
    with open(path, "w", encoding="ascii") as fh:
        for b in boxes:
            fh.write("%.6f,%.6f,%.6f,%.6f\n" % (b.x, b.y, b.w, b.h))


def load_video(seq_dir: str) -> Video:
    """Load one sequence directory (frames/ + groundtruth.csv). Every frame's
    header is checked here; its raster is decoded when the frame is read."""
    frames_dir = os.path.join(seq_dir, "frames")
    gt_path = os.path.join(seq_dir, "groundtruth.csv")
    if not os.path.isdir(frames_dir):
        raise ParseError(f"{seq_dir}: missing frames/ directory")
    if not os.path.isfile(gt_path):
        raise ParseError(f"{seq_dir}: missing groundtruth.csv")
    names = sorted(n for n in os.listdir(frames_dir) if re.fullmatch(r"\d{6}\.ppm", n))
    if not names:
        raise ParseError(f"{frames_dir}: no %06d.ppm frames")
    for i, name in enumerate(names):
        if name != FRAME_PATTERN % i:
            raise ParseError(f"{frames_dir}: frame numbering gap at {name} (expected {FRAME_PATTERN % i})")
    paths = [os.path.join(frames_dir, n) for n in names]
    boxes = read_groundtruth(gt_path)
    if len(boxes) != len(paths):
        raise ParseError(
            f"{seq_dir}: {len(paths)} frames but {len(boxes)} ground-truth lines"
        )
    first = ppm_shape(paths[0])
    for path in paths[1:]:
        shape = ppm_shape(path)
        if shape != first:
            raise ParseError(f"{path}: frame shape {shape} differs from {first}")
    video_id = os.path.basename(os.path.normpath(seq_dir))
    frames = LazyFrames(_last_kept(lambda j: read_ppm(paths[j])), range(len(paths)))
    return Video(video_id, frames, boxes, frame_paths=paths)


def load_dataset(root: str) -> List[Video]:
    """Load every sequence under ``root``, sorted by sequence id."""
    if not os.path.isdir(root):
        raise ParseError(f"{root}: not a directory")
    seq_dirs = sorted(
        d for d in os.listdir(root) if os.path.isdir(os.path.join(root, d))
    )
    return [load_video(os.path.join(root, d)) for d in seq_dirs]


def write_video(video: Video, root: str) -> str:
    """Write a video under ``root`` in the dataset layout. Returns the sequence dir."""
    seq_dir = os.path.join(root, video.video_id)
    frames_dir = os.path.join(seq_dir, "frames")
    os.makedirs(frames_dir, exist_ok=True)
    for i, frame in enumerate(video.frames):
        write_ppm(os.path.join(frames_dir, FRAME_PATTERN % i), frame)
    write_groundtruth(os.path.join(seq_dir, "groundtruth.csv"), video.ground_truth)
    return seq_dir


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters of a generated sequence: one textured target over a noise field.

    ``max_step`` bounds the per-frame center displacement along each axis,
    including at boundary bounces. ``scale_drift`` is the relative per-frame
    side change bound.
    """

    width: int = 96
    height: int = 96
    num_frames: int = 64
    min_size: int = 16
    max_size: int = 40
    motion: str = "random-walk"  # or "linear"
    max_step: float = 2.0
    scale_drift: float = 0.0
    background: str = "noise"  # or "flat"

    def __post_init__(self) -> None:
        if self.motion not in ("random-walk", "linear"):
            raise InvalidInputError(f"unknown motion model {self.motion!r}")
        if self.background not in ("noise", "flat"):
            raise InvalidInputError(f"unknown background {self.background!r}")
        if self.num_frames < 2:
            raise InvalidInputError("need at least 2 frames")
        if not (0 < self.min_size <= self.max_size):
            raise InvalidInputError("need 0 < min_size <= max_size")
        if self.max_size >= min(self.width, self.height):
            raise InvalidInputError(
                f"max object size {self.max_size} does not fit a "
                f"{self.width}x{self.height} frame"
            )
        if self.max_step < 0 or self.scale_drift < 0:
            raise InvalidInputError("motion bounds must be non-negative")


def _bounce(pos: float, lo: float, hi: float) -> float:
    # Reflect into [lo, hi]; at most one reflection is needed for small steps.
    if pos < lo:
        pos = 2 * lo - pos
    if pos > hi:
        pos = 2 * hi - pos
    return min(max(pos, lo), hi)


def generate_video(spec: SyntheticSpec, seed: int, video_id: str) -> Video:
    """Deterministically generate a moving textured rectangle.

    Same (spec, seed) always yields byte-identical frames and ground truth.
    Only the background, the texture and each frame's paste window are kept;
    a frame renders when it is read.
    """
    rng = np.random.default_rng(np.random.PCG64(seed))
    w_f, h_f = spec.width, spec.height

    if spec.background == "noise":
        bg = rng.integers(20, 90, (h_f, w_f, 3)).astype(np.uint8)
    else:
        bg = np.full((h_f, w_f, 3), 70, dtype=np.uint8)
    tex_side = int(np.ceil(spec.max_size)) + 2
    texture = rng.integers(150, 256, (tex_side, tex_side, 3)).astype(np.uint8)

    bw = float(rng.uniform(spec.min_size, spec.max_size))
    bh = float(rng.uniform(spec.min_size, spec.max_size))
    margin = 1.0
    cx = float(rng.uniform(margin + bw / 2, w_f - margin - bw / 2))
    cy = float(rng.uniform(margin + bh / 2, h_f - margin - bh / 2))
    vx = vy = 0.0
    if spec.motion == "linear":
        vx = float(rng.uniform(-spec.max_step, spec.max_step))
        vy = float(rng.uniform(-spec.max_step, spec.max_step))

    pastes = []
    boxes: List[Box] = []
    for t in range(spec.num_frames):
        if t > 0:
            if spec.motion == "random-walk":
                dx = float(rng.uniform(-spec.max_step, spec.max_step))
                dy = float(rng.uniform(-spec.max_step, spec.max_step))
            else:
                dx, dy = vx, vy
            if spec.scale_drift > 0:
                bw = float(np.clip(bw * (1 + rng.uniform(-spec.scale_drift, spec.scale_drift)),
                                   spec.min_size, spec.max_size))
                bh = float(np.clip(bh * (1 + rng.uniform(-spec.scale_drift, spec.scale_drift)),
                                   spec.min_size, spec.max_size))
            nx = _bounce(cx + dx, margin + bw / 2, w_f - margin - bw / 2)
            ny = _bounce(cy + dy, margin + bh / 2, h_f - margin - bh / 2)
            if spec.motion == "linear":
                if abs(nx - (cx + dx)) > 1e-12:
                    vx = -vx
                if abs(ny - (cy + dy)) > 1e-12:
                    vy = -vy
            cx, cy = nx, ny

        box = Box(cx - bw / 2, cy - bh / 2, bw, bh)
        boxes.append(box)
        xi = int(round(box.x))
        yi = int(round(box.y))
        wi = max(1, int(round(bw)))
        hi = max(1, int(round(bh)))
        x0, y0 = max(xi, 0), max(yi, 0)
        x1, y1 = min(xi + wi, w_f), min(yi + hi, h_f)
        if x1 > x0 and y1 > y0:
            pastes.append(((slice(y0, y1), slice(x0, x1)),
                           (slice(y0 - yi, y1 - yi), slice(x0 - xi, x1 - xi))))
        else:
            pastes.append(None)

    def render(j: int) -> np.ndarray:
        """A read-only copy of the background with frame j's texture window
        pasted in, if it has one."""
        f = bg.copy()
        if pastes[j] is not None:
            dst, src = pastes[j]
            f[dst] = texture[src]
        f.flags.writeable = False
        return f

    frames = LazyFrames(_last_kept(render), range(spec.num_frames))
    return Video(video_id, frames, boxes)
