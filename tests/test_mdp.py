"""Reward quantization, state construction, and episode stepping."""

import numpy as np
import pytest

from trackdistill.errors import InvalidInputError, ProtocolError
from trackdistill.geometry import Box, apply_action
from trackdistill.mdp import (
    TrackingEpisode,
    make_state,
    quantized_overlap,
    reward,
)


def nested_box_with_iou(z: float) -> Box:
    """A box nested in (0,0,10,10) whose overlap with it is exactly z."""
    return Box(0.0, 0.0, 10.0, 10.0 * z)


class TestQuantizedOverlap:
    def test_endpoints_and_hand_values(self):
        assert quantized_overlap(1.0) == 1.0
        assert quantized_overlap(0.5) == 0.0
        np.testing.assert_allclose(quantized_overlap(0.73), 0.40, atol=1e-12)
        assert quantized_overlap(0.0) == -1.0

    def test_grid_against_integer_arithmetic(self):
        for i in range(1001):
            z = i / 1000.0
            want = 2.0 * ((i // 50) * 0.05) - 1.0
            assert quantized_overlap(z) == want, z

    def test_exact_multiples_not_underrounded(self):
        # 0.15/0.05 computes to 2.999...96 in floats; the nudge must fix that.
        for k in range(21):
            z = k * 0.05
            np.testing.assert_allclose(quantized_overlap(z), 2 * k * 0.05 - 1, atol=1e-12)

    def test_monotone_with_005_plateaus(self):
        zs = np.linspace(0, 1, 2001)
        vals = np.array([quantized_overlap(z) for z in zs])
        assert np.all(np.diff(vals) >= 0)
        assert len(np.unique(vals)) == 21  # 0.05-wide plateaus over [0, 1]

    def test_out_of_range_rejected(self):
        for z in (-0.01, 1.01, float("nan")):
            with pytest.raises(InvalidInputError):
                quantized_overlap(z)


class TestReward:
    def test_perfect_overlap(self):
        g = Box(3, 4, 10, 12)
        assert reward(g, g) == 1.0

    def test_below_half_is_minus_one(self):
        big = Box(0, 0, 10, 10)
        assert reward(nested_box_with_iou(0.49), big) == -1.0
        assert reward(Box(100, 100, 5, 5), big) == -1.0

    def test_boundary_half(self):
        assert reward(nested_box_with_iou(0.5), Box(0, 0, 10, 10)) == 0.0

    def test_quantized_above_half(self):
        np.testing.assert_allclose(
            reward(nested_box_with_iou(0.73), Box(0, 0, 10, 10)), 0.40, atol=1e-12
        )

    def test_symmetry(self):
        rng = np.random.default_rng(31)
        for _ in range(300):
            a = Box(*rng.uniform(0, 30, 2), *rng.uniform(2, 20, 2))
            b = Box(*rng.uniform(0, 30, 2), *rng.uniform(2, 20, 2))
            assert reward(a, b) == reward(b, a)


class TestMakeState:
    def test_identical_frames_identical_patches(self):
        rng = np.random.default_rng(41)
        frame = rng.integers(0, 256, (30, 30, 3)).astype(np.uint8)
        s = make_state(frame, frame, Box(8, 8, 10, 10), context=1.5, patch_size=16)
        np.testing.assert_array_equal(s.patch_prev, s.patch_cur)
        assert s.patch_prev.shape == (16, 16, 3)


class TestTrackingEpisode:
    @staticmethod
    def static_episode(n_frames=4, horizon=None):
        frame = np.zeros((40, 40, 3), dtype=np.uint8)
        frame[10:20, 10:20] = 200
        g = Box(10, 10, 10, 10)
        return TrackingEpisode(
            [frame] * n_frames, [g] * n_frames, context=1.5, patch_size=8, horizon=horizon
        )

    def test_zero_action_static_target(self):
        ep = self.static_episode()
        ep.reset()
        _, r, _ = ep.step(np.zeros(4))
        assert r == 1.0

    def test_done_exactly_at_horizon(self):
        ep = self.static_episode(n_frames=10, horizon=3)
        ep.reset()
        flags = []
        done = False
        while not done:
            _, _, done = ep.step(np.zeros(4))
            flags.append(done)
        assert flags == [False, False, True]

    def test_done_when_frames_run_out(self):
        ep = self.static_episode(n_frames=3)
        ep.reset()
        _, _, done = ep.step(np.zeros(4))
        assert not done
        state, _, done = ep.step(np.zeros(4))
        assert done and state is None

    def test_step_after_done_raises(self):
        ep = self.static_episode(n_frames=2)
        ep.reset()
        ep.step(np.zeros(4))
        with pytest.raises(ProtocolError):
            ep.step(np.zeros(4))

    def test_box_chain_is_fold_of_actions(self):
        rng = np.random.default_rng(55)
        ep = self.static_episode(n_frames=8)
        ep.reset()
        box = ep.ground_truth[0]
        done = False
        while not done:
            a = rng.uniform(-0.1, 0.1, 4)
            _, _, done = ep.step(a)
            box = apply_action(a, box)
            np.testing.assert_allclose(ep.box.as_array(), box.as_array(), atol=1e-12)

    def test_reward_sequence_hand_traced(self):
        """3-frame scripted drift: rewards recomputed by hand-applying the motion map."""
        frame = np.zeros((40, 40, 3), dtype=np.uint8)
        gt = [Box(10, 10, 10, 10), Box(12, 10, 10, 10), Box(14, 10, 10, 10)]
        ep = TrackingEpisode([frame] * 3, gt, context=1.5, patch_size=8)
        ep.reset()
        # action (0.2, 0, 0, 0) moves the center by 2 px: tracks gt exactly
        _, r1, _ = ep.step([0.2, 0, 0, 0])
        assert r1 == 1.0
        # standing still leaves an 8x10 overlap of gt's 10x10: iou = 80/120
        _, r2, done = ep.step([0.0, 0, 0, 0])
        np.testing.assert_allclose(r2, quantized_overlap(80.0 / 120.0), atol=1e-12)
        assert done

    def test_custom_start_box(self):
        ep = self.static_episode()
        s = ep.reset(Box(0, 0, 5, 5))
        assert ep.box == Box(0, 0, 5, 5)
        want = make_state(ep.frames[0], ep.frames[1], Box(0, 0, 5, 5), 1.5, 8)
        np.testing.assert_array_equal(s.patch_prev, want.patch_prev)
        np.testing.assert_array_equal(s.patch_cur, want.patch_cur)

    def test_mismatched_lengths_rejected(self):
        frame = np.zeros((10, 10, 3), dtype=np.uint8)
        with pytest.raises(InvalidInputError):
            TrackingEpisode([frame] * 3, [Box(0, 0, 2, 2)] * 2, 1.5, 8)
