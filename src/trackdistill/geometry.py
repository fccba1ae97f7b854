"""Axis-aligned box arithmetic, relative-motion coordinates, and patch cropping.

Boxes live in continuous pixel coordinates (x, y = top-left corner; w, h in
pixels, no integer snapping) so that the motion maps below invert each other
exactly. Everything here is pure and float64.
"""

from __future__ import annotations

import math
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
            if not math.isfinite(v):
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


def crop_regions(
    frames: Sequence[np.ndarray], regions: Sequence[Box], out_size: Tuple[int, int]
) -> np.ndarray:
    """Resample each of R ``regions`` of n equal-shape (H, W, 3) frames to an
    (R, n, out_h, out_w, 3) float64 stack.

    Bilinear sampling on pixel centers: output pixel (i, j) of a region reads
    the source point region.origin + ((j, i) + 0.5) * region.size / out_size - 0.5.
    Samples outside the frame are zero. Input may be uint8 or float; values
    pass through unscaled (a uint8 frame yields a patch in [0, 255]).

    Only the four taps of each output pixel are read and converted to float64,
    never the frame window a region covers, so the cost does not grow with the
    region. The work order:

    1. every region's sample positions, floors and fractions, both axes in one
       (R, 2, max(out_h, out_w)) pass;
    2. the taps i0 | i0 + 1 of rows and of columns, clipped into the frame;
    3. per frame, one ``take`` of all regions' tap pixels into an
       (R, n, 2 * out_h, 2 * out_w, 3) float64 tap block;
    4. zeros on the rows and columns whose tap fell off the frame;
    5. the rows weighted by 1 - wy | wy, then the columns by 1 - wx | wx;
    6. the four quadrants summed in the order below.

    Each output value is therefore
    (((A*(1-wy))*(1-wx) + (B*(1-wy))*wx) + (C*wy)*(1-wx)) + (D*wy)*wx with
    A, B, C, D the taps at (i0, j0), (i0, j0+1), (i0+1, j0), (i0+1, j0+1):
    the same operations in the same order for any R and n, so slice [r] is
    bitwise the one-region call on regions[r].
    """
    ow, oh = int(out_size[0]), int(out_size[1])
    if ow <= 0 or oh <= 0:
        raise InvalidInputError(f"non-positive patch size {out_size!r}")
    if not len(regions):
        raise InvalidInputError("no crop regions")
    for region in regions:
        if region.w <= 0 or region.h <= 0:
            raise InvalidInputError("crop region has zero or negative area")
    if not len(frames):
        raise InvalidInputError("no frames to crop")
    shape = frames[0].shape
    for frame in frames:
        if frame.ndim != 3 or frame.shape[2] != 3:
            raise InvalidInputError(f"frame must be (H, W, 3), got shape {frame.shape}")
        if frame.shape != shape:
            raise InvalidInputError(f"frame shapes differ: {frame.shape} vs {shape}")

    # 1. rows sample y, columns x; the shorter axis ignores its surplus
    R, n = len(regions), len(frames)
    box = np.array([[r.y, r.x, r.h, r.w] for r in regions])
    step = box[:, 2:, None] / [[oh], [ow]]
    pos = box[:, :2, None] + (np.arange(max(oh, ow)) + 0.5) * step - 0.5
    i0 = np.floor(pos)
    frac = pos - i0
    # 2. (R, axis, tap, sample); minimum/maximum, as np.clip costs more here
    raw = i0.astype(np.int64)[:, :, None, :] + np.array([[0], [1]])
    size = np.array([[[shape[0]]], [[shape[1]]]])
    taps = np.minimum(np.maximum(raw, 0), size - 1)
    off = taps != raw
    ys, xs = taps[:, 0, :, :oh].reshape(R, 2 * oh), taps[:, 1, :, :ow].reshape(R, 2 * ow)
    # 3. frame pixel (y, x) is row y * W + x of the (H * W, 3) view
    pixels = (ys * shape[1])[:, :, None] + xs[:, None, :]
    block = np.empty((R, n, 2 * oh, 2 * ow, 3))
    for k, frame in enumerate(frames):
        block[:, k] = frame.reshape(-1, 3).take(pixels, axis=0)
    # 4. assigned, not multiplied, zeros: a negative float tap times 0 is -0.0
    if off.any():
        r, i = np.nonzero(off[:, 0, :, :oh].reshape(R, 2 * oh))
        block[r, :, i] = 0.0
        r, j = np.nonzero(off[:, 1, :, :ow].reshape(R, 2 * ow))
        block[r, :, :, j] = 0.0
    # 5. the column weights repeat over the channels, so each row is one
    # contiguous run of 3 * 2 * out_w values
    weights = np.stack((1.0 - frac, frac), axis=2)
    lines = block.reshape(R, n, 2 * oh, 6 * ow)
    lines *= weights[:, 0, :, :oh].reshape(R, 1, 2 * oh, 1)
    lines *= np.repeat(weights[:, 1, :, :ow].reshape(R, 1, 1, 2 * ow), 3, axis=3)
    # 6. top-left + top-right + bottom-left + bottom-right
    out = block[:, :, :oh, :ow] + block[:, :, :oh, ow:]
    out += block[:, :, oh:, :ow]
    out += block[:, :, oh:, ow:]
    return out
