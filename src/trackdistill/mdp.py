"""Sequential decision view of tracking: states, reward, and the episode driver.

A state is the pair of context patches cut from consecutive frames around the
previous box. An action is a relative motion in [-1, 1]^4. The reward
quantizes overlap with ground truth in 0.05 steps and punishes losing the
target (overlap below 0.5) with -1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import InvalidInputError, ProtocolError
from .geometry import Box, apply_action, context_region, crop_regions, iou

IOU_FAIL_LIMIT = 0.5
QUANT_STEP = 0.05
# Absorbs float under-rounding like 0.15/0.05 -> 2.9999...; smaller than any
# representable gap that could push a value over the next quantization edge.
_EDGE_NUDGE = 1e-9


@dataclass(frozen=True)
class State:
    """Two context patches (previous frame, current frame) around one anchor box."""

    patch_prev: np.ndarray
    patch_cur: np.ndarray


def make_states(
    frame_prev: np.ndarray,
    frame_cur: np.ndarray,
    boxes: Sequence[Box],
    context: float,
    patch_size: int,
) -> List[State]:
    """One State per box in ``boxes``: the context regions around all boxes
    cropped from both (equal-shape) frames in one :func:`crop_regions` call.
    Each patch is bitwise the one-region crop of its frame and region,
    whatever the other boxes."""
    patches = crop_regions(
        (frame_prev, frame_cur),
        [context_region(box, context) for box in boxes],
        (patch_size, patch_size),
    )
    return [State(patch_prev=p[0], patch_cur=p[1]) for p in patches]


def make_state(
    frame_prev: np.ndarray,
    frame_cur: np.ndarray,
    box_prev: Box,
    context: float,
    patch_size: int,
) -> State:
    """The State around ``box_prev``: the one-box call of :func:`make_states`."""
    return make_states(frame_prev, frame_cur, (box_prev,), context, patch_size)[0]


def quantized_overlap(z: float) -> float:
    """Map overlap z in [0, 1] to 2 * floor_0.05(z) - 1 in [-1, 1]."""
    if not (0.0 <= z <= 1.0) or not math.isfinite(z):
        raise InvalidInputError(f"overlap must be in [0, 1], got {z!r}")
    return 2.0 * (math.floor((z + _EDGE_NUDGE) / QUANT_STEP) * QUANT_STEP) - 1.0


def reward(box: Box, gt: Box) -> float:
    """Quantized overlap when the box keeps the target, -1 once overlap < 0.5."""
    z = iou(box, gt)
    if z < IOU_FAIL_LIMIT:
        return -1.0
    return quantized_overlap(z)


class TrackingEpisode:
    """Drives one episode over a frame window: reset -> (step)* until done.

    The episode ends exactly when the horizon is reached (or the frames run
    out, whichever comes first). ``step`` after the end raises ProtocolError.
    """

    def __init__(
        self,
        frames: Sequence[np.ndarray],
        ground_truth: Sequence[Box],
        context: float,
        patch_size: int,
        horizon: Optional[int] = None,
    ):
        if len(frames) != len(ground_truth):
            raise InvalidInputError(
                f"{len(frames)} frames but {len(ground_truth)} ground-truth boxes"
            )
        if len(frames) < 2:
            raise InvalidInputError("an episode needs at least 2 frames")
        if context <= 0 or patch_size <= 0:
            raise InvalidInputError("context and patch size must be positive")
        self.frames = frames
        self.ground_truth = ground_truth
        self.context = context
        self.patch_size = patch_size
        max_steps = len(frames) - 1
        self.horizon = max_steps if horizon is None else min(int(horizon), max_steps)
        if self.horizon < 1:
            raise InvalidInputError(f"horizon must allow at least one step, got {horizon}")
        self.t = 0
        self.box = None
        self.done = True

    def reset(self, box0: Optional[Box] = None) -> State:
        """Start at frame 0 with ``box0`` (ground truth by default); returns s_1."""
        self.box = self.ground_truth[0] if box0 is None else box0
        self.t = 0
        self.done = False
        return self._state()

    def _state(self) -> State:
        return make_state(
            self.frames[self.t],
            self.frames[self.t + 1],
            self.box,
            self.context,
            self.patch_size,
        )

    def step(self, action: Sequence[float]) -> Tuple[Optional[State], float, bool]:
        """Apply a relative motion; returns (next_state, reward, done).

        next_state is None exactly when done is True.
        """
        if self.done:
            raise ProtocolError("step() on a finished episode")
        self.t += 1
        self.box = apply_action(np.asarray(action, dtype=np.float64), self.box)
        r = reward(self.box, self.ground_truth[self.t])
        out_of_frames = self.t + 1 >= len(self.frames)
        self.done = out_of_frames or self.t >= self.horizon
        return (None if self.done else self._state()), r, self.done
