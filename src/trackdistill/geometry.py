"""Axis-aligned box arithmetic, relative-motion coordinates, and patch cropping.

Boxes live in continuous pixel coordinates (x, y = top-left corner; w, h in
pixels, no integer snapping) so that the motion maps below invert each other
exactly. Everything here is pure and float64.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .errors import InvalidInputError

# Normalized boxes never get thinner than this, in pixels.
MIN_SIDE = 1.0


@dataclass(frozen=True)
class Box:
    """Axis-aligned rectangle: top-left corner plus width and height."""

    x: float
    y: float
    w: float
    h: float

    def __post_init__(self):
        for name in ("x", "y", "w", "h"):
            v = float(getattr(self, name))
            if not np.isfinite(v):
                raise InvalidInputError(f"box field {name} is not finite: {v!r}")
            object.__setattr__(self, name, v)

    @property
    def cx(self) -> float:
        return self.x + self.w / 2.0

    @property
    def cy(self) -> float:
        return self.y + self.h / 2.0

    @property
    def area(self) -> float:
        return self.w * self.h

    def center_distance(self, other: "Box") -> float:
        return float(np.hypot(self.cx - other.cx, self.cy - other.cy))

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.w, self.h], dtype=np.float64)


def iou(a: Box, b: Box) -> float:
    """Intersection area over union area of two boxes.

    Raises:
        InvalidInputError: if either box has non-positive width or height.
    """
    if a.w <= 0 or a.h <= 0 or b.w <= 0 or b.h <= 0:
        raise InvalidInputError("iou of a degenerate box (non-positive side)")
    if a == b:  # (x+w)-x cancellation would spoil the exact self-overlap
        return 1.0
    ix = min(a.x + a.w, b.x + b.w) - max(a.x, b.x)
    iy = min(a.y + a.h, b.y + b.h) - max(a.y, b.y)
    if ix <= 0 or iy <= 0:
        return 0.0
    inter = ix * iy
    return min(1.0, inter / (a.area + b.area - inter))


def apply_action(action: Sequence[float], prev: Box) -> Box:
    """Turn a relative motion (dx, dy, dw, dh) anchored at ``prev`` into a box.

    Offsets are measured in units of the previous box size: the center moves
    by (dx*w', dy*h') and the sides grow by (dw*w', dh*h'). Width and height
    are clamped from below at MIN_SIDE; action components are expected in
    [-1, 1] but are not checked here.
    """
    dx, dy, dw, dh = (float(v) for v in action)
    w = max(prev.w + dw * prev.w, MIN_SIDE)
    h = max(prev.h + dh * prev.h, MIN_SIDE)
    cx = prev.cx + dx * prev.w
    cy = prev.cy + dy * prev.h
    return Box(cx - w / 2.0, cy - h / 2.0, w, h)


def infer_action(target: Box, prev: Box) -> np.ndarray:
    """Relative motion that would move ``prev`` onto ``target``, clamped to [-1, 1]^4.

    Inverse of :func:`apply_action` whenever the true offsets fit in the clamp
    range and no side hits the MIN_SIDE floor.
    """
    if prev.w <= 0 or prev.h <= 0:
        raise InvalidInputError("anchor box has non-positive side")
    a = np.array(
        [
            (target.cx - prev.cx) / prev.w,
            (target.cy - prev.cy) / prev.h,
            (target.w - prev.w) / prev.w,
            (target.h - prev.h) / prev.h,
        ],
        dtype=np.float64,
    )
    return np.clip(a, -1.0, 1.0)


def context_region(box: Box, context: float) -> Box:
    """Square region centered on ``box`` whose side is context * sqrt(w * h)."""
    if context <= 0:
        raise InvalidInputError(f"context factor must be positive, got {context}")
    if box.w <= 0 or box.h <= 0:
        raise InvalidInputError("context region of a degenerate box")
    side = context * float(np.sqrt(box.w * box.h))
    return Box(box.cx - side / 2.0, box.cy - side / 2.0, side, side)


def crop_patch(frame: np.ndarray, region: Box, out_size: Tuple[int, int]) -> np.ndarray:
    """Resample ``region`` of an (H, W, 3) frame to (out_h, out_w, 3) float64,
    as one frame through :func:`crop_patches`."""
    return crop_patches((frame,), region, out_size)[0]


def _window_taps(i0: np.ndarray, size: int):
    """Lay one axis's ascending taps i0 and i0 + 1 on a window buffer: frame
    lines lo..hi sit between two zero lines that all off-frame taps read.
    Returns (frame slice lo..hi, local i0, local i0 + 1, buffer length)."""
    lo = max(int(i0[0]), 0)
    hi = max(min(int(i0[-1]) + 1, size - 1), lo - 1)  # hi = lo - 1: no line on the frame
    edge = hi - lo + 2
    # both taps in one pass; minimum/maximum, as np.clip costs more than the taps
    taps = np.minimum(np.maximum(np.add.outer((1 - lo, 2 - lo), i0), 0), edge)
    return slice(lo, hi + 1), taps[0], taps[1], edge + 1


def crop_patches(
    frames: Sequence[np.ndarray], region: Box, out_size: Tuple[int, int]
) -> np.ndarray:
    """Resample one ``region`` of n equal-shape (H, W, 3) frames to an
    (n, out_h, out_w, 3) float64 stack.

    Bilinear sampling on pixel centers: output pixel (i, j) reads the source
    point region.origin + ((j, i) + 0.5) * region.size / out_size - 0.5.
    Samples outside the frame are zero. Input may be uint8 or float; values
    pass through unscaled (a uint8 frame yields a patch in [0, 255]). Only
    the frame window the samples touch is converted to float64.
    """
    ow, oh = int(out_size[0]), int(out_size[1])
    if ow <= 0 or oh <= 0:
        raise InvalidInputError(f"non-positive patch size {out_size!r}")
    if region.w <= 0 or region.h <= 0:
        raise InvalidInputError("crop region has zero or negative area")
    shape = frames[0].shape
    for frame in frames:
        if frame.ndim != 3 or frame.shape[2] != 3:
            raise InvalidInputError(f"frame must be (H, W, 3), got shape {frame.shape}")
        if frame.shape != shape:
            raise InvalidInputError(f"frame shapes differ: {frame.shape} vs {shape}")

    # both axes in one pass: rows sample y and x; the shorter one ignores its surplus
    step = np.array([[region.h / oh], [region.w / ow]])
    pos = np.array([[region.y], [region.x]]) + (np.arange(max(oh, ow)) + 0.5) * step - 0.5
    i0 = np.floor(pos).astype(np.int64)
    frac = pos - i0

    rs, ya, yb, nr = _window_taps(i0[0, :oh], shape[0])
    cs, xa, xb, nc = _window_taps(i0[1, :ow], shape[1])
    win = np.zeros((len(frames), nr, nc, 3))
    for k, frame in enumerate(frames):
        win[k, 1:-1, 1:-1] = frame[rs, cs]
    top = win.take(ya, axis=1)
    bottom = win.take(yb, axis=1)
    wx = frac[1, None, :ow, None]
    wy = frac[0, :oh, None, None]
    return (
        top.take(xa, axis=2) * (1.0 - wy) * (1.0 - wx)
        + top.take(xb, axis=2) * (1.0 - wy) * wx
        + bottom.take(xa, axis=2) * wy * (1.0 - wx)
        + bottom.take(xb, axis=2) * wy * wx
    )
