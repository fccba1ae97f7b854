"""Box arithmetic checked against counting oracles and hand-worked cases."""

import numpy as np
import pytest

from trackdistill.errors import InvalidInputError
from trackdistill.geometry import (
    Box,
    apply_action,
    context_region,
    crop_regions,
    infer_action,
    iou,
)
from trackdistill.mdp import make_state, make_states


def raster_iou(a: Box, b: Box) -> float:
    """Counting oracle: overlap of unit-cell masks for integer-coordinate boxes."""
    for box in (a, b):
        for v in (box.x, box.y, box.w, box.h):
            assert float(v).is_integer()
    x1 = int(min(a.x, b.x))
    y1 = int(min(a.y, b.y))
    x2 = int(max(a.x + a.w, b.x + b.w))
    y2 = int(max(a.y + a.h, b.y + b.h))
    gx, gy = np.meshgrid(np.arange(x1, x2), np.arange(y1, y2))
    in_a = (gx >= a.x) & (gx < a.x + a.w) & (gy >= a.y) & (gy < a.y + a.h)
    in_b = (gx >= b.x) & (gx < b.x + b.w) & (gy >= b.y) & (gy < b.y + b.h)
    inter = np.count_nonzero(in_a & in_b)
    union = np.count_nonzero(in_a | in_b)
    return inter / union


def crop_patch_slow(frame, region, out_size):
    """Scalar re-derivation of the bilinear crop, one output pixel at a time."""
    ow, oh = out_size
    fh, fw = frame.shape[:2]
    out = np.zeros((oh, ow, 3))

    def pixel(y, x, c):
        if 0 <= y < fh and 0 <= x < fw:
            return float(frame[y, x, c])
        return 0.0

    for i in range(oh):
        for j in range(ow):
            sx = region.x + (j + 0.5) * region.w / ow - 0.5
            sy = region.y + (i + 0.5) * region.h / oh - 0.5
            x0, y0 = int(np.floor(sx)), int(np.floor(sy))
            fx, fy = sx - x0, sy - y0
            for c in range(3):
                out[i, j, c] = (
                    pixel(y0, x0, c) * (1 - fy) * (1 - fx)
                    + pixel(y0, x0 + 1, c) * (1 - fy) * fx
                    + pixel(y0 + 1, x0, c) * fy * (1 - fx)
                    + pixel(y0 + 1, x0 + 1, c) * fy * fx
                )
    return out


def _window_taps(i0, size):
    """One axis's taps i0 and i0 + 1 on a window buffer whose frame lines
    lo..hi sit between two zero lines that every off-frame tap reads."""
    lo = max(int(i0[0]), 0)
    hi = max(min(int(i0[-1]) + 1, size - 1), lo - 1)
    edge = hi - lo + 2
    taps = np.minimum(np.maximum(np.add.outer((1 - lo, 2 - lo), i0), 0), edge)
    return slice(lo, hi + 1), taps[0], taps[1], edge + 1


def crop_window_reference(frames, region, out_size):
    """A second, independent crop with the same operation order: the sampled
    frame window is copied into a zero-bordered float64 buffer and the four
    taps are read from it. crop_regions must match it bitwise."""
    ow, oh = out_size
    step = np.array([[region.h / oh], [region.w / ow]])
    pos = np.array([[region.y], [region.x]]) + (np.arange(max(oh, ow)) + 0.5) * step - 0.5
    i0 = np.floor(pos).astype(np.int64)
    frac = pos - i0
    rs, ya, yb, nr = _window_taps(i0[0, :oh], frames[0].shape[0])
    cs, xa, xb, nc = _window_taps(i0[1, :ow], frames[0].shape[1])
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


def assert_bitwise(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(np.signbit(got), np.signbit(want))


class TestBox:
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("field", ["x", "y", "w", "h"])
    def test_nonfinite_field_rejected(self, field, value):
        fields = {"x": 1.0, "y": 2.0, "w": 3.0, "h": 4.0, field: value}
        with pytest.raises(InvalidInputError, match=f"box field {field} is not finite"):
            Box(**fields)


class TestIou:
    def test_hand_cases(self):
        a = Box(0, 0, 10, 10)
        assert iou(a, Box(0, 0, 10, 10)) == 1.0
        assert iou(a, Box(20, 20, 5, 5)) == 0.0
        assert iou(a, Box(10, 0, 10, 10)) == 0.0  # touching edges share no area
        np.testing.assert_allclose(iou(a, Box(5, 0, 10, 10)), 1.0 / 3.0, rtol=1e-15)
        np.testing.assert_allclose(iou(a, Box(0, 0, 5, 10)), 0.5, rtol=1e-15)

    def test_matches_raster_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(400):
            a = Box(*rng.integers(0, 60, 2), *rng.integers(1, 40, 2))
            b = Box(*rng.integers(0, 60, 2), *rng.integers(1, 40, 2))
            np.testing.assert_allclose(iou(a, b), raster_iou(a, b), atol=1e-12)

    def test_symmetry_and_range(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            a = Box(*rng.uniform(0, 50, 2), *rng.uniform(0.5, 30, 2))
            b = Box(*rng.uniform(0, 50, 2), *rng.uniform(0.5, 30, 2))
            v = iou(a, b)
            assert 0.0 <= v <= 1.0
            assert v == iou(b, a)

    def test_scale_shift_invariance(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            a = Box(*rng.uniform(0, 50, 2), *rng.uniform(0.5, 30, 2))
            b = Box(*rng.uniform(0, 50, 2), *rng.uniform(0.5, 30, 2))
            s = rng.uniform(0.1, 10)
            tx, ty = rng.uniform(-100, 100, 2)
            a2 = Box(a.x * s + tx, a.y * s + ty, a.w * s, a.h * s)
            b2 = Box(b.x * s + tx, b.y * s + ty, b.w * s, b.h * s)
            np.testing.assert_allclose(iou(a2, b2), iou(a, b), rtol=1e-10, atol=1e-12)

    def test_degenerate_rejected(self):
        with pytest.raises(InvalidInputError):
            iou(Box(0, 0, 0, 5), Box(0, 0, 5, 5))
        with pytest.raises(InvalidInputError):
            iou(Box(0, 0, 5, 5), Box(0, 0, 5, -1))


class TestMotionMaps:
    def test_apply_hand_case(self):
        # center (20, 15) moves to (22, 17); sides 20 -> 30 and 10 -> 8
        out = apply_action([0.1, 0.2, 0.5, -0.2], Box(10, 10, 20, 10))
        np.testing.assert_allclose(out.as_array(), [7.0, 13.0, 30.0, 8.0], atol=1e-12)

    def test_zero_action_is_identity(self):
        b = Box(3.5, -2.0, 17.0, 9.5)
        np.testing.assert_allclose(apply_action(np.zeros(4), b).as_array(), b.as_array())

    def test_infer_inverts_apply(self):
        rng = np.random.default_rng(11)
        for _ in range(2000):
            prev = Box(*rng.uniform(-20, 80, 2), *rng.uniform(5, 60, 2))
            action = rng.uniform(-0.5, 0.5, 4)
            box = apply_action(action, prev)
            np.testing.assert_allclose(infer_action(box, prev), action, atol=1e-9)

    def test_apply_inverts_infer(self):
        rng = np.random.default_rng(12)
        for _ in range(2000):
            prev = Box(*rng.uniform(-20, 80, 2), *rng.uniform(5, 60, 2))
            target = Box(
                prev.x + rng.uniform(-2, 2),
                prev.y + rng.uniform(-2, 2),
                prev.w * rng.uniform(0.6, 1.5),
                prev.h * rng.uniform(0.6, 1.5),
            )
            back = apply_action(infer_action(target, prev), prev)
            np.testing.assert_allclose(back.as_array(), target.as_array(), atol=1e-9)

    def test_infer_zero_when_equal(self):
        b = Box(5, 5, 20, 10)
        np.testing.assert_allclose(infer_action(b, b), np.zeros(4), atol=1e-12)

    def test_infer_hand_pair(self):
        a = infer_action(Box(7, 13, 30, 8), Box(10, 10, 20, 10))
        np.testing.assert_allclose(a, [0.1, 0.2, 0.5, -0.2], atol=1e-12)

    def test_clamp_bounds_action(self):
        a = infer_action(Box(1000, 1000, 5, 5), Box(0, 0, 5, 5))
        assert np.all(a <= 1.0) and np.all(a >= -1.0)

    def test_infer_far_box_clamped(self):
        # a teacher box far off and smaller than the previous box
        a = infer_action(Box(500, 500, 5, 5), Box(0, 0, 10, 10))
        assert np.all(np.abs(a) <= 1.0)

    def test_min_side_floor(self):
        out = apply_action([0.0, 0.0, -1.0, -1.0], Box(0, 0, 10, 10))
        assert out.w == 1.0 and out.h == 1.0


class TestContextRegion:
    def test_square_centered_area(self):
        rng = np.random.default_rng(13)
        for _ in range(300):
            b = Box(*rng.uniform(-10, 90, 2), *rng.uniform(1, 50, 2))
            c = rng.uniform(0.5, 3.0)
            r = context_region(b, c)
            assert r.w == r.h
            np.testing.assert_allclose(r.area, c * c * b.w * b.h, rtol=1e-12)
            np.testing.assert_allclose([r.cx, r.cy], [b.cx, b.cy], atol=1e-9)

    def test_rejects_bad_context(self):
        with pytest.raises(InvalidInputError):
            context_region(Box(0, 0, 10, 10), 0.0)


class TestCropPatch:
    """The one-frame, one-region crop_regions call."""

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(21)
        frame = rng.integers(0, 256, (9, 8, 3)).astype(np.uint8)
        for _ in range(25):
            region = Box(*rng.uniform(-4, 8, 2), *rng.uniform(0.5, 10, 2))
            got = crop_regions((frame,), [region], (5, 4))[0, 0]
            want = crop_patch_slow(frame, region, (5, 4))
            np.testing.assert_allclose(got, want, atol=1e-10)

    def test_identity_resample(self):
        """Whole-frame region at native resolution reproduces the frame."""
        rng = np.random.default_rng(22)
        frame = rng.integers(0, 256, (6, 7, 3)).astype(np.uint8)
        out = crop_regions((frame,), [Box(0, 0, 7, 6)], (7, 6))[0, 0]
        np.testing.assert_allclose(out, frame.astype(np.float64), atol=1e-12)

    def test_outside_is_zero(self):
        frame = np.full((5, 5, 3), 200, dtype=np.uint8)
        out = crop_regions((frame,), [Box(100, 100, 10, 10)], (4, 4))[0, 0]
        assert np.all(out == 0.0)

    def test_constant_interior(self):
        frame = np.full((20, 20, 3), 37, dtype=np.uint8)
        out = crop_regions((frame,), [Box(4, 4, 10, 10)], (8, 8))[0, 0]
        np.testing.assert_allclose(out, 37.0, atol=1e-12)

    def test_zero_area_region_rejected(self):
        frame = np.zeros((5, 5, 3), dtype=np.uint8)
        with pytest.raises(InvalidInputError):
            crop_regions((frame,), [Box(0, 0, 0, 5)], (4, 4))

    def test_shape_and_dtype(self):
        frame = np.zeros((5, 5, 3), dtype=np.uint8)
        out = crop_regions((frame,), [Box(1, 1, 3, 3)], (6, 4))[0, 0]
        assert out.shape == (4, 6, 3)
        assert out.dtype == np.float64


class TestCropPatches:
    """The one-region crop of a frame pair, as make_state uses it, against
    the scalar oracle."""

    @staticmethod
    def regions(rng, fw, fh):
        for _ in range(10):
            yield Box(*rng.uniform(0, [fw - 6, fh - 6]), *rng.uniform(0.5, 6, 2))  # inside
            yield Box(*rng.uniform(-8, [fw, fh]), *rng.uniform(4, 12, 2))  # partly off-frame
            yield Box(fw + rng.uniform(0.5, 20), rng.uniform(-30, fh + 30), *rng.uniform(0.5, 10, 2))
            yield Box(*rng.uniform(-40, -12, 2), *rng.uniform(0.5, 10, 2))  # fully off-frame
            yield Box(*rng.uniform([-fw, -fh], 0), *rng.uniform([2 * fw, 2 * fh], [3 * fw, 3 * fh]))

    @pytest.mark.parametrize("fh, fw", [(9, 8), (240, 320)])
    def test_matches_scalar_oracle(self, fh, fw):
        rng = np.random.default_rng(fw)
        frames = rng.integers(0, 256, (2, fh, fw, 3)).astype(np.uint8)
        for region in self.regions(rng, fw, fh):
            got = crop_regions((frames[0], frames[1]), [region], (5, 4))[0]
            assert got.shape == (2, 4, 5, 3)
            for k in range(2):
                want = crop_patch_slow(frames[k], region, (5, 4))
                np.testing.assert_allclose(got[k], want, rtol=0, atol=1e-10)

    def test_make_state_patches_equal_single_crops(self):
        rng = np.random.default_rng(23)
        fa, fb = rng.integers(0, 256, (2, 40, 50, 3)).astype(np.uint8)
        for _ in range(30):
            box = Box(*rng.uniform(-15, 50, 2), *rng.uniform(1, 40, 2))
            s = make_state(fa, fb, box, context=1.5, patch_size=16)
            region = context_region(box, 1.5)
            prev, cur = (crop_regions((f,), [region], (16, 16))[0, 0] for f in (fa, fb))
            np.testing.assert_array_equal(s.patch_prev, prev)
            np.testing.assert_array_equal(s.patch_cur, cur)

    def test_frames_of_different_shapes_rejected(self):
        a = np.zeros((20, 20, 3), dtype=np.uint8)
        b = np.zeros((20, 21, 3), dtype=np.uint8)
        with pytest.raises(InvalidInputError, match="differ"):
            crop_regions((a, b), [Box(2, 2, 5, 5)], (4, 4))
        with pytest.raises(InvalidInputError, match="differ"):
            make_state(a, b, Box(2, 2, 5, 5), context=1.5, patch_size=8)


class TestCropRegions:
    """The crop every other crop goes through, bitwise against the window-copy
    reference and close to the scalar oracle."""

    @staticmethod
    def random_region(rng, fw, fh):
        kind = rng.integers(7)
        if kind == 0:  # inside
            w, h = rng.uniform(0.5, [fw, fh])
            return Box(*rng.uniform(0, [fw - w, fh - h]), w, h)
        if kind == 1:  # partly off-frame
            w, h = rng.uniform(2, [2 * fw, 2 * fh])
            return Box(*rng.uniform([-w, -h], [fw, fh]), w, h)
        if kind == 2:  # fully off-frame, near: left, right, above or below
            w, h = rng.uniform(0.5, 40, 2)
            x, y = rng.uniform([-w, -h], [fw, fh])
            gap = rng.uniform(1, 30)
            side = rng.integers(4)
            if side < 2:
                x = -w - gap if side == 0 else fw + gap
            else:
                y = -h - gap if side == 2 else fh + gap
            return Box(x, y, w, h)
        if kind == 3:  # far off-frame
            return Box(*(rng.choice([-1, 1], 2) * 1e6 + rng.uniform(-50, 50, 2)), *rng.uniform(1, 500, 2))
        if kind == 4:  # larger than the frame
            w, h = rng.uniform([fw, fh], [3 * fw + 1, 3 * fh + 1])
            return Box(*rng.uniform([-w, -h], [fw, fh]), w, h)
        # kinds 5 and 6: large regions around the frame, up to 500 px
        w, h = rng.uniform(1, 500, 2)
        return Box(*rng.uniform([-w / 2, -h / 2], [fw, fh]), w, h)

    @staticmethod
    def random_frames(rng, n, fh, fw):
        if rng.integers(2):
            return [rng.integers(0, 256, (fh, fw, 3)).astype(np.uint8) for _ in range(n)]
        frames = [rng.normal(0, 100, (fh, fw, 3)) for _ in range(n)]
        for frame in frames:  # signed zeros, so that the sign bits are checked
            frame[rng.random(frame.shape) < 0.05] = -0.0
        return frames

    def test_bitwise_reference_and_scalar_oracle(self):
        rng = np.random.default_rng(81)
        kinds = set()
        for case in range(3000):
            fh, fw = (240, 320) if case % 10 == 0 else rng.integers(3, 40, 2)
            frames = self.random_frames(rng, rng.integers(1, 3), fh, fw)
            regions = [self.random_region(rng, fw, fh) for _ in range(rng.integers(1, 5))]
            out_size = tuple(int(v) for v in rng.integers(1, 9, 2))
            got = crop_regions(frames, regions, out_size)
            assert got.shape == (len(regions), len(frames), out_size[1], out_size[0], 3)
            for r, region in enumerate(regions):
                assert_bitwise(got[r], crop_window_reference(frames, region, out_size))
                if case % 3 == 0:
                    for k, frame in enumerate(frames):
                        want = crop_patch_slow(frame, region, out_size)
                        np.testing.assert_allclose(got[r, k], want, rtol=0, atol=1e-9)
                # no sample of a region this far out comes within a pixel of the frame
                off = (region.x >= fw + 1 or region.x + region.w <= -1
                       or region.y >= fh + 1 or region.y + region.h <= -1)
                kinds.add(off)
                if off:
                    assert not got[r].any()
        assert kinds == {False, True}

    @pytest.mark.parametrize("out_size", [(32, 32), (40, 16)])
    def test_bitwise_reference_at_patch_sizes(self, out_size):
        rng = np.random.default_rng(82 + out_size[1])
        pairs = [self.random_frames(rng, 2, 360, 640) for _ in range(4)]
        assert {frames[0].dtype for frames in pairs} == {np.dtype(np.uint8), np.dtype(np.float64)}
        for case in range(150):
            frames = pairs[case % 4]
            regions = [self.random_region(rng, 640, 360) for _ in range(rng.integers(1, 5))]
            got = crop_regions(frames, regions, out_size)
            for r, region in enumerate(regions):
                assert_bitwise(got[r], crop_window_reference(frames, region, out_size))

    def test_one_call_equals_separate_calls(self):
        rng = np.random.default_rng(83)
        for _ in range(200):
            frames = self.random_frames(rng, rng.integers(1, 3), 60, 80)
            regions = [self.random_region(rng, 80, 60) for _ in range(rng.integers(2, 6))]
            got = crop_regions(frames, regions, (12, 10))
            for r, region in enumerate(regions):
                assert_bitwise(got[r], crop_regions(frames, [region], (12, 10))[0])
                for k, frame in enumerate(frames):
                    assert_bitwise(got[r, k], crop_regions((frame,), [region], (12, 10))[0, 0])

    def test_make_states_equal_make_state(self):
        rng = np.random.default_rng(84)
        fa, fb = rng.integers(0, 256, (2, 40, 50, 3)).astype(np.uint8)
        for _ in range(30):
            boxes = [Box(*rng.uniform(-15, 50, 2), *rng.uniform(1, 40, 2)) for _ in range(3)]
            states = make_states(fa, fb, boxes, context=1.5, patch_size=16)
            for box, s in zip(boxes, states):
                one = make_state(fa, fb, box, context=1.5, patch_size=16)
                assert_bitwise(s.patch_prev, one.patch_prev)
                assert_bitwise(s.patch_cur, one.patch_cur)

    def test_bad_input_rejected(self):
        frame = np.zeros((20, 20, 3), dtype=np.uint8)
        ok = Box(2, 2, 5, 5)
        with pytest.raises(InvalidInputError, match="no crop regions"):
            crop_regions((frame,), [], (4, 4))
        for bad in (Box(0, 0, 0, 5), Box(0, 0, 5, -1)):
            with pytest.raises(InvalidInputError, match="area"):
                crop_regions((frame,), [ok, bad], (4, 4))
        with pytest.raises(InvalidInputError, match="differ"):
            crop_regions((frame, np.zeros((20, 21, 3), dtype=np.uint8)), [ok], (4, 4))
        with pytest.raises(InvalidInputError, match="no frames"):
            crop_regions((), [ok], (4, 4))
        with pytest.raises(InvalidInputError, match="patch size"):
            crop_regions((frame,), [ok], (0, 4))
        with pytest.raises(InvalidInputError, match="differ"):
            make_states(frame, np.zeros((21, 20, 3), dtype=np.uint8), [ok], 1.5, 8)
