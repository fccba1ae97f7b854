"""Transfer-set construction: quality filtering, chunking, and statistics.

A teacher trajectory survives a threshold beta iff its overlap with ground
truth is strictly above beta at every prediction frame. Kept trajectories are
cut into fixed-length windows at uniformly random start indices (with
replacement). The stats report mirrors per-teacher, per-threshold rows:
trajectory count, average overlap, chunk count.
"""

from __future__ import annotations

import csv
import json
import zlib
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from .errors import InvalidInputError, ParseError, TeacherError
from .geometry import Box, iou
from .teachers import TrajectoryTrace, load_trace, trace_path
from .video import Video, read_utf8

CHUNK_LENGTH = 32
CHUNKS_PER_TRAJECTORY = 5


@dataclass
class TransferChunk:
    """A contiguous training window: frames with ground truth and teacher boxes.
    The frames are a slice of the video's, so on-disk frames stay undecoded
    until read."""

    video_id: str
    teacher_id: str
    start: int
    frames: Sequence[np.ndarray]
    gt: List[Box]
    teacher_boxes: List[Box]

    def __len__(self) -> int:
        return len(self.frames)


def videos_by_id(videos: Iterable[Video]) -> Dict[str, Video]:
    out = {}
    for v in videos:
        if v.video_id in out:
            raise InvalidInputError(f"duplicate video id {v.video_id!r}")
        out[v.video_id] = v
    return out


def trajectory_ious(trace: TrajectoryTrace, video: Video) -> np.ndarray:
    """Per-prediction-frame overlap with ground truth (frames 1..T-1)."""
    if len(trace.boxes) != len(video):
        raise InvalidInputError(
            f"trace {trace.teacher_id!r}/{trace.video_id!r} has {len(trace.boxes)} "
            f"boxes, video has {len(video)} frames"
        )
    return np.array(
        [iou(b, g) for b, g in zip(trace.boxes[1:], video.ground_truth[1:])]
    )


def trace_ious(
    traces: Sequence[TrajectoryTrace], videos: Dict[str, Video]
) -> List[np.ndarray]:
    """``trajectory_ious`` of every trace, in trace order: computed once, they
    serve every threshold of a report."""
    for trace in traces:
        if trace.video_id not in videos:
            raise InvalidInputError(f"trace references unknown video {trace.video_id!r}")
    return [trajectory_ious(trace, videos[trace.video_id]) for trace in traces]


def check_beta(beta: float) -> None:
    if not (0.5 <= beta < 1.0):
        raise InvalidInputError(f"beta must lie in [0.5, 1), got {beta}")


def filter_trajectories(
    traces: Sequence[TrajectoryTrace],
    videos: Dict[str, Video],
    beta: float,
    ious: Optional[Sequence[np.ndarray]] = None,
) -> List[TrajectoryTrace]:
    """Keep trajectories whose overlap stays strictly above beta at every
    frame. ``ious`` are the traces' ``trace_ious``, if already computed."""
    check_beta(beta)
    if ious is None:
        ious = trace_ious(traces, videos)
    return [trace for trace, z in zip(traces, ious) if np.all(z > beta)]


def chunk_trajectory(
    trace: TrajectoryTrace,
    video: Video,
    length: int = CHUNK_LENGTH,
    count: int = CHUNKS_PER_TRAJECTORY,
    seed: int = 0,
) -> List[TransferChunk]:
    """Cut ``count`` random windows of ``length`` frames; short trajectories yield none.

    Start indices are uniform over [0, T - length] with replacement and depend
    only on (seed, video id, teacher id), not on processing order.
    """
    n = len(video)
    if len(trace.boxes) != n:
        raise InvalidInputError(
            f"trace/video length mismatch for {trace.video_id!r}: {len(trace.boxes)} vs {n}"
        )
    if n < length:
        return []
    rng = np.random.default_rng(
        np.random.SeedSequence(
            [int(seed), zlib.crc32(trace.video_id.encode()), zlib.crc32(trace.teacher_id.encode())]
        )
    )
    starts = rng.integers(0, n - length + 1, size=count)
    return [_chunk(video, trace, int(s), length) for s in starts]


def _chunk(video: Video, trace: TrajectoryTrace, start: int, length: int) -> TransferChunk:
    """The window [start, start + length) of ``trace`` over ``video``."""
    return TransferChunk(
        video_id=trace.video_id,
        teacher_id=trace.teacher_id,
        start=start,
        frames=video.frames[start : start + length],
        gt=list(video.ground_truth[start : start + length]),
        teacher_boxes=list(trace.boxes[start : start + length]),
    )


def build_transfer_set(
    traces: Sequence[TrajectoryTrace],
    videos: Dict[str, Video],
    beta: float,
    length: int = CHUNK_LENGTH,
    count: int = CHUNKS_PER_TRAJECTORY,
    seed: int = 0,
    ious: Optional[Sequence[np.ndarray]] = None,
):
    """Filter then chunk; returns (kept trajectories, chunks) in stable order.
    ``ious`` are the traces' ``trace_ious``, if already computed."""
    kept = filter_trajectories(traces, videos, beta, ious)
    kept = sorted(kept, key=lambda tr: (tr.video_id, tr.teacher_id))
    chunks: List[TransferChunk] = []
    for trace in kept:
        chunks.extend(chunk_trajectory(trace, videos[trace.video_id], length, count, seed))
    return kept, chunks


def _row(teacher_id: str, beta: float, ious: Sequence[np.ndarray], num_chunks: int) -> dict:
    return {
        "teacher": teacher_id,
        "beta": beta,
        "num_traj": len(ious),
        "ao": float(np.mean(np.concatenate(ious))) if ious else 0.0,
        "num_chunks": num_chunks,
    }


def transfer_report(
    traces: Sequence[TrajectoryTrace],
    videos: Dict[str, Video],
    betas: Sequence[float],
    length: int = CHUNK_LENGTH,
    count: int = CHUNKS_PER_TRAJECTORY,
    ious: Optional[Sequence[np.ndarray]] = None,
) -> List[dict]:
    """Rows for every (teacher, beta), teachers sorted, betas in given order.
    Each trace's overlaps are computed once (or taken from ``ious``, its
    ``trace_ious``) and serve every beta. Chunks are counted, not built: each
    kept trace of a video of ``length`` frames or more gives ``count``."""
    if ious is None:
        ious = trace_ious(traces, videos)
    overlaps = {id(tr): z for tr, z in zip(traces, ious)}
    teacher_ids = sorted({tr.teacher_id for tr in traces})
    rows = []
    for beta in betas:
        kept = filter_trajectories(traces, videos, beta, ious)
        for tid in teacher_ids:
            # build_transfer_set's order: the concatenated overlaps' mean depends on it
            mine = sorted((tr for tr in kept if tr.teacher_id == tid), key=lambda tr: tr.video_id)
            n_chunks = count * sum(1 for tr in mine if len(videos[tr.video_id]) >= length)
            rows.append(_row(tid, beta, [overlaps[id(tr)] for tr in mine], n_chunks))
    return rows


def write_stats_csv(rows: Sequence[dict], path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["teacher", "beta", "num_traj", "ao", "num_chunks"])
        for r in rows:
            writer.writerow(
                [r["teacher"], "%g" % r["beta"], r["num_traj"], "%.6f" % r["ao"], r["num_chunks"]]
            )


def write_chunk_index(
    chunks: Sequence[TransferChunk], path: str, beta: float, length: int, seed: int
) -> None:
    """Persist chunk identities (not pixel data) for later materialization."""
    payload = {
        "beta": beta,
        "length": length,
        "seed": seed,
        "chunks": [
            {"video": ch.video_id, "teacher": ch.teacher_id, "start": ch.start}
            for ch in chunks
        ],
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1)


def load_chunk_index(path: str, videos: Dict[str, Video], trace_root: str) -> List[TransferChunk]:
    """Rebuild chunks from an index file against a dataset and trace directory.
    A malformed index (``length`` not an integer of at least 2, ``chunks`` not a
    list, an entry that is not an object or lacks a string ``video`` and
    ``teacher`` or an integer ``start``) and a trace whose length differs from
    its video's raise ``ParseError`` naming the path."""
    try:
        payload = json.loads(read_utf8(path))
    except (OSError, json.JSONDecodeError) as e:
        raise ParseError(f"{path}: {e}")
    if not isinstance(payload, dict) or "chunks" not in payload:
        raise ParseError(f"{path}: not a chunk index")
    length = payload.get("length", CHUNK_LENGTH)
    if not isinstance(length, int) or isinstance(length, bool) or length < 2:
        raise ParseError(f"{path}: chunk length {length!r} is not a positive integer >= 2")
    if not isinstance(payload["chunks"], list):
        raise ParseError(f"{path}: \"chunks\" is not a list")
    out = []
    trace_cache: Dict[tuple, TrajectoryTrace] = {}
    for i, entry in enumerate(payload["chunks"]):
        if not isinstance(entry, dict):
            raise ParseError(f"{path}: chunk entry {i} is not an object")
        for key, kind in (("video", str), ("teacher", str), ("start", int)):
            if key not in entry:
                raise ParseError(f"{path}: chunk entry {i} has no {key!r}")
            if not isinstance(entry[key], kind) or isinstance(entry[key], bool):
                raise ParseError(f"{path}: chunk entry {i} has a bad {key!r}: {entry[key]!r}")
        vid_id, tid, start = entry["video"], entry["teacher"], entry["start"]
        if vid_id not in videos:
            raise ParseError(f"{path}: unknown video {vid_id!r}")
        video = videos[vid_id]
        key = (tid, vid_id)
        if key not in trace_cache:
            try:
                trace = load_trace(trace_root, tid, vid_id)
            except TeacherError as e:
                raise ParseError(f"{path}: chunk entry {i}: {e}")
            if len(trace.boxes) != len(video):
                raise ParseError(
                    f"{trace_path(trace_root, tid, vid_id)}: trace has {len(trace.boxes)} "
                    f"boxes, video {vid_id!r} has {len(video)} frames"
                )
            trace_cache[key] = trace
        trace = trace_cache[key]
        if start < 0 or start + length > len(video):
            raise ParseError(f"{path}: chunk start {start} out of range for {vid_id!r}")
        out.append(_chunk(video, trace, start, length))
    return out
