"""Distill an ensemble of trackers into one recurrent student, then let it fly solo.

The package covers the full loop: synthetic video generation, teacher
trajectory capture, overlap-filtered transfer sets, interleaved
distillation + actor-critic training, and three inference protocols
(student-only, student/teacher hand-off, pool fusion) with OTB/VOT-style
evaluation. Everything runs on numpy; the command line lives in
``trackdistill.cli``.
"""

from .geometry import Box, iou
from .model import StudentConfig, StudentModel, load_params, save_params
from .trackers import TrackRun, tras, trasfust, trast
from .video import SyntheticSpec, Video, generate_video, load_dataset

__version__ = "0.1.0"

__all__ = [
    "Box",
    "iou",
    "StudentConfig",
    "StudentModel",
    "load_params",
    "save_params",
    "TrackRun",
    "tras",
    "trast",
    "trasfust",
    "SyntheticSpec",
    "Video",
    "generate_video",
    "load_dataset",
    "__version__",
]
