"""One-pass evaluation and the standard overlap/precision metrics.

AO is mean IoU. SR is the fraction of frames at or above an overlap
threshold. SS and PS are the areas under the success and precision curves,
taken as plain means over the conventional 101-point overlap grid and the
0..50 pixel grid. Dataset numbers average per-video numbers.
"""

from __future__ import annotations

import json
import os
import warnings
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence

import numpy as np

from .errors import InvalidInputError
from .geometry import iou
from .teachers import check_id
from .trackers import TrackRun
from .video import Video

SUCCESS_GRID = np.arange(101) / 100.0
PRECISION_GRID = np.arange(51).astype(float)
SUMMARY_COLUMNS = ("ao", "sr50", "sr75", "ss", "ps")  # aggregate keys in summary.csv
SUMMARY_HEADER = ",".join(("tracker", "dataset") + SUMMARY_COLUMNS)


def _checked(values: Sequence[float], what: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        raise InvalidInputError(f"empty {what} array")
    return arr


def ao(ious: Sequence[float]) -> float:
    return float(np.mean(_checked(ious, "overlap")))


def sr(ious: Sequence[float], thr: float) -> float:
    arr = _checked(ious, "overlap")
    return float(np.mean(arr >= thr))


def success_auc(ious: Sequence[float]) -> float:
    return float(np.mean(success_curve(ious)))


def precision_auc(center_errors: Sequence[float]) -> float:
    return float(np.mean(precision_curve(center_errors)))


def precision_at(center_errors: Sequence[float], px: float = 20.0) -> float:
    arr = _checked(center_errors, "center-error")
    return float(np.mean(arr <= px))


def success_curve(ious: Sequence[float]) -> np.ndarray:
    """Fraction of frames at or above each overlap threshold, one comparison
    for the whole grid; each row's mean is that threshold's ``sr``."""
    arr = _checked(ious, "overlap")
    return np.mean(arr >= SUCCESS_GRID[:, None], axis=1)


def precision_curve(center_errors: Sequence[float]) -> np.ndarray:
    """Fraction of frames within each pixel threshold, one comparison for the grid."""
    arr = _checked(center_errors, "center-error")
    return np.mean(arr <= PRECISION_GRID[:, None], axis=1)


@dataclass
class VideoMetrics:
    ious: np.ndarray
    center_errors: np.ndarray

    @property
    def summary(self) -> Dict[str, float]:
        return {
            "ao": ao(self.ious),
            "sr50": sr(self.ious, 0.50),
            "sr75": sr(self.ious, 0.75),
            "ss": success_auc(self.ious),
            "ps": precision_auc(self.center_errors),
            "precision20": precision_at(self.center_errors),
            "frames": int(self.ious.size),
        }


@dataclass
class EvalResult:
    tracker: str
    dataset: str
    per_video: Dict[str, VideoMetrics]
    excluded: List[str] = field(default_factory=list)

    @property
    def aggregate(self) -> Dict[str, float]:
        """Dataset scores: each score of the per-video ``summary`` (all but the
        frame count) averaged over the videos."""
        summaries = [m.summary for m in self.per_video.values()]
        keys = [k for k in summaries[0] if k != "frames"]
        return {k: float(np.mean([s[k] for s in summaries])) for k in keys}

    @property
    def ao(self) -> float:
        return self.aggregate["ao"]

    def success_curve(self) -> np.ndarray:
        return np.mean([success_curve(v.ious) for v in self.per_video.values()], axis=0)

    def precision_curve(self) -> np.ndarray:
        return np.mean(
            [precision_curve(v.center_errors) for v in self.per_video.values()], axis=0
        )


def run_metrics(run: TrackRun, video: Video) -> VideoMetrics:
    """Per-frame IoU and center error of a completed run against annotation."""
    if len(run.boxes) != len(video.frames) - 1:
        raise InvalidInputError(
            f"run over {video.video_id!r} has {len(run.boxes)} boxes for "
            f"{len(video.frames)} frames"
        )
    ious = np.array(
        [iou(b, video.ground_truth[t + 1]) for t, b in enumerate(run.boxes)]
    )
    errors = np.array(
        [b.center_distance(video.ground_truth[t + 1]) for t, b in enumerate(run.boxes)]
    )
    return VideoMetrics(ious=ious, center_errors=errors)


def ope_run(
    tracker: Callable[[Video], TrackRun],
    dataset: Sequence[Video],
    tracker_id: str,
    dataset_id: str,
) -> EvalResult:
    """One pass per video from its first annotation, no re-initialization.

    Both ids name ``report``'s files, so each must be a valid id. A partial
    (aborted) run excludes its video from aggregation with a warning rather
    than failing the whole evaluation.
    """
    check_id("tracker id", tracker_id)
    check_id("dataset id", dataset_id)
    if not dataset:
        raise InvalidInputError("dataset is empty")
    result = EvalResult(tracker=tracker_id, dataset=dataset_id, per_video={})
    for video in sorted(dataset, key=lambda v: v.video_id):
        run = tracker(video)
        if run.partial:
            warnings.warn(
                f"{tracker_id} aborted on {video.video_id!r}: {run.error}; excluded"
            )
            result.excluded.append(video.video_id)
            continue
        result.per_video[video.video_id] = run_metrics(run, video)
    if not result.per_video:
        raise InvalidInputError(f"{tracker_id}: no videos completed")
    return result


def report(results: Sequence[EvalResult], out_dir: str) -> None:
    """summary.csv plus, per result, a per-video JSON and two plot CSVs.

    Plot files are headerless "threshold,value" rows: 101 for success,
    51 for precision.
    """
    os.makedirs(out_dir, exist_ok=True)
    rows = [SUMMARY_HEADER]
    for r in results:
        aggregate = r.aggregate
        scores = [f"{aggregate[k]:.6f}" for k in SUMMARY_COLUMNS]
        rows.append(",".join([r.tracker, r.dataset] + scores))
        stem = f"{r.tracker}_{r.dataset}"
        payload = {
            "tracker": r.tracker,
            "dataset": r.dataset,
            "aggregate": aggregate,
            "excluded": list(r.excluded),
            "videos": {vid: m.summary for vid, m in sorted(r.per_video.items())},
        }
        with open(os.path.join(out_dir, f"{stem}_videos.json"), "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        s_curve = r.success_curve()
        with open(os.path.join(out_dir, f"{stem}_success.csv"), "w") as fh:
            for t, v in zip(SUCCESS_GRID, s_curve):
                fh.write(f"{t:.2f},{v:.6f}\n")
        p_curve = r.precision_curve()
        with open(os.path.join(out_dir, f"{stem}_precision.csv"), "w") as fh:
            for t, v in zip(PRECISION_GRID, p_curve):
                fh.write(f"{t:.0f},{v:.6f}\n")
    with open(os.path.join(out_dir, "summary.csv"), "w") as fh:
        fh.write("\n".join(rows) + "\n")
