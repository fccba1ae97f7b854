import json
import math
import re

import numpy as np
import numpy.testing as npt
import pytest

from trackdistill.errors import InvalidInputError
from trackdistill.geometry import Box, iou
from trackdistill.metrics import (
    EvalResult,
    VideoMetrics,
    ao,
    ope_run,
    precision_at,
    PRECISION_GRID,
    SUCCESS_GRID,
    precision_auc,
    precision_curve,
    report,
    run_metrics,
    sr,
    success_auc,
    success_curve,
)
from trackdistill.trackers import TrackRun
from trackdistill.video import SyntheticSpec, generate_video


def brute_ss(ious):
    """Independent scan over the 101-point grid with plain Python sums."""
    total = 0.0
    for i in range(101):
        thr = i / 100.0
        total += sum(1 for z in ious if z >= thr) / len(ious)
    return total / 101.0


def brute_ps(errors):
    total = 0.0
    for thr in range(51):
        total += sum(1 for e in errors if e <= thr) / len(errors)
    return total / 51.0


class TestScalarMetrics:
    def test_ao_hand_case(self):
        assert ao([1.0, 0.5, 0.0]) == 0.5

    def test_sr_inclusive_at_threshold(self):
        npt.assert_allclose(sr([0.6, 0.4, 0.5], 0.50), 2.0 / 3.0)

    def test_all_zero(self):
        assert ao([0.0, 0.0]) == 0.0
        assert sr([0.0, 0.0], 0.5) == 0.0

    def test_empty_rejected(self):
        for fn in (ao, success_auc, precision_auc):
            with pytest.raises(InvalidInputError):
                fn([])
        with pytest.raises(InvalidInputError):
            sr([], 0.5)

    def test_perfect_success(self):
        assert success_auc([1.0, 1.0, 1.0]) == 1.0

    def test_perfect_precision(self):
        assert precision_auc([0.0, 0.0]) == 1.0

    def test_single_frame_half_overlap(self):
        npt.assert_allclose(success_auc([0.5]), 51.0 / 101.0, rtol=0, atol=1e-15)

    def test_success_matches_brute_force(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            ious = rng.uniform(0, 1, int(rng.integers(1, 60)))
            npt.assert_allclose(success_auc(ious), brute_ss(list(ious)), atol=1e-12)

    def test_precision_matches_brute_force(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            errors = rng.uniform(0, 60, int(rng.integers(1, 60)))
            npt.assert_allclose(precision_auc(errors), brute_ps(list(errors)), atol=1e-12)

    def test_curves_equal_per_threshold_loop(self):
        # the reference: one mean per threshold, as the curves were computed
        rng = np.random.default_rng(17)
        for n in (1, 2, 39, 400):
            ious = rng.uniform(0.0, 1.0, n)
            ious[: n // 2] = np.round(ious[: n // 2], 2)  # values on the grid
            errors = rng.uniform(0.0, 60.0, n)
            errors[: n // 2] = np.round(errors[: n // 2])
            s_ref = np.array([np.mean(ious >= t) for t in SUCCESS_GRID])
            p_ref = np.array([np.mean(errors <= t) for t in PRECISION_GRID])
            assert np.array_equal(success_curve(ious), s_ref)
            assert np.array_equal(precision_curve(errors), p_ref)
            assert success_auc(ious) == float(np.mean(s_ref))
            assert precision_auc(errors) == float(np.mean(p_ref))

    def test_sr_monotone_in_threshold(self):
        rng = np.random.default_rng(2)
        ious = rng.uniform(0, 1, 40)
        rates = [sr(ious, i / 100.0) for i in range(101)]
        assert all(a >= b for a, b in zip(rates, rates[1:]))

    def test_ss_bounds(self):
        rng = np.random.default_rng(3)
        ious = rng.uniform(0, 1, 50)
        val = success_auc(ious)
        assert sr(ious, 1.0) <= val <= 1.0

    def test_ao_permutation_invariant(self):
        rng = np.random.default_rng(4)
        ious = rng.uniform(0, 1, 25)
        shuffled = rng.permutation(ious)
        npt.assert_allclose(ao(ious), ao(shuffled), atol=1e-14)

    def test_precision_at_20(self):
        npt.assert_allclose(precision_at([5.0, 25.0, 20.0]), 2.0 / 3.0)


def tiny_video(seed=0, frames=6, moving=True):
    spec = SyntheticSpec(
        width=48, height=48, num_frames=frames, min_size=12, max_size=18,
        max_step=2.0 if moving else 0.0,
    )
    return generate_video(spec, seed, f"vid{seed:03d}")


def echo_tracker(video):
    """Perfect run: repeats the annotation."""
    boxes = list(video.ground_truth[1:])
    return TrackRun(video.video_id, "echo", boxes=boxes, controllers=["student"] * len(boxes))


def static_tracker(video):
    boxes = [video.ground_truth[0]] * (len(video.frames) - 1)
    return TrackRun(video.video_id, "static", boxes=boxes, controllers=["student"] * len(boxes))


class TestOpeRun:
    def test_perfect_tracker_maxes_everything(self):
        dataset = [tiny_video(s) for s in range(3)]
        res = ope_run(echo_tracker, dataset, "echo", "toy")
        assert res.ao == 1.0
        assert res.aggregate["ss"] == 1.0
        assert res.aggregate["ps"] == 1.0
        assert res.aggregate["sr50"] == 1.0 and res.aggregate["sr75"] == 1.0

    def test_static_tracker_matches_direct_iou(self):
        dataset = [tiny_video(s, frames=8) for s in range(2)]
        res = ope_run(static_tracker, dataset, "static", "toy")
        want = np.mean(
            [
                np.mean(
                    [iou(v.ground_truth[0], g) for g in v.ground_truth[1:]]
                )
                for v in dataset
            ]
        )
        npt.assert_allclose(res.ao, want, atol=1e-12)

    def test_per_video_array_lengths(self):
        dataset = [tiny_video(0, frames=9)]
        res = ope_run(echo_tracker, dataset, "echo", "toy")
        m = res.per_video["vid000"]
        assert m.ious.shape == (8,)
        assert m.center_errors.shape == (8,)

    def test_aborted_video_excluded_with_warning(self):
        dataset = [tiny_video(0), tiny_video(1)]

        def flaky(video):
            if video.video_id == "vid000":
                return TrackRun(video.video_id, "flaky", boxes=[], controllers=[],
                                partial=True, error="died")
            return echo_tracker(video)

        with pytest.warns(UserWarning, match="vid000"):
            res = ope_run(flaky, dataset, "flaky", "toy")
        assert res.excluded == ["vid000"]
        assert list(res.per_video) == ["vid001"]
        assert res.ao == 1.0

    def test_all_aborted_rejected(self):
        dataset = [tiny_video(0)]

        def dead(video):
            return TrackRun(video.video_id, "dead", boxes=[], controllers=[],
                            partial=True, error="x")

        with pytest.warns(UserWarning):
            with pytest.raises(InvalidInputError):
                ope_run(dead, dataset, "dead", "toy")

    @pytest.mark.parametrize("tracker_id,dataset_id,bad", [
        ("t", "a/b", "'a/b'"), ("t/u", "toy", "'t/u'"), ("t", "", "''"),
    ])
    def test_bad_id_rejected_before_tracking(self, tracker_id, dataset_id, bad):
        # the ids name report's files; a "/" would point into a missing directory
        calls = []

        def tracker(video):
            calls.append(video.video_id)
            return echo_tracker(video)

        with pytest.raises(InvalidInputError, match=re.escape(bad)):
            ope_run(tracker, [tiny_video(0)], tracker_id, dataset_id)
        assert not calls

    def test_empty_dataset_rejected(self):
        with pytest.raises(InvalidInputError):
            ope_run(echo_tracker, [], "echo", "toy")

    def test_length_mismatch_rejected(self):
        video = tiny_video(0)

        def short(v):
            return TrackRun(v.video_id, "short", boxes=[v.ground_truth[1]],
                            controllers=["student"])

        with pytest.raises(InvalidInputError):
            ope_run(short, [video], "short", "toy")

    def test_dataset_averages_per_video(self):
        # one perfect video, one at AO 0.5 by construction
        v0 = tiny_video(0, frames=5, moving=False)
        g = v0.ground_truth[0]
        half = Box(g.x + g.w / 3.0, g.y, g.w, g.h)  # IoU = (2/3)/(4/3) = 0.5
        runs = {
            "vid000": [g] * 4,
        }
        v1 = tiny_video(1, frames=5, moving=False)
        g1 = v1.ground_truth[0]
        half1 = Box(g1.x + g1.w / 3.0, g1.y, g1.w, g1.h)
        runs["vid001"] = [half1] * 4

        def tracker(video):
            boxes = runs[video.video_id]
            return TrackRun(video.video_id, "mix", boxes=list(boxes),
                            controllers=["student"] * 4)

        res = ope_run(tracker, [v0, v1], "mix", "toy")
        npt.assert_allclose(res.ao, (1.0 + 0.5) / 2.0, atol=1e-12)
        per_video = {
            "ao": lambda m: ao(m.ious),
            "sr50": lambda m: sr(m.ious, 0.50),
            "sr75": lambda m: sr(m.ious, 0.75),
            "ss": lambda m: success_auc(m.ious),
            "ps": lambda m: precision_auc(m.center_errors),
            "precision20": lambda m: precision_at(m.center_errors),
        }
        assert list(res.aggregate) == list(per_video)
        for key, score in per_video.items():  # bitwise the mean of the per-video scores
            want = float(np.mean([score(m) for m in res.per_video.values()]))
            assert res.aggregate[key] == want, key
        assert res.ao == res.aggregate["ao"]


class TestReport:
    def make_result(self):
        rng = np.random.default_rng(7)
        per_video = {
            f"v{i}": VideoMetrics(
                ious=rng.uniform(0, 1, 10), center_errors=rng.uniform(0, 40, 10)
            )
            for i in range(3)
        }
        return EvalResult(tracker="tras", dataset="toy", per_video=per_video)

    def test_summary_header_and_rows(self, tmp_path):
        res = self.make_result()
        other = EvalResult(tracker="trast", dataset="toy", per_video=res.per_video)
        report([res, other], str(tmp_path))
        lines = (tmp_path / "summary.csv").read_text().strip().splitlines()
        assert lines[0] == "tracker,dataset,ao,sr50,sr75,ss,ps"
        assert len(lines) == 3
        assert lines[1].startswith("tras,toy,")
        assert lines[2].startswith("trast,toy,")

    def test_plot_row_counts(self, tmp_path):
        report([self.make_result()], str(tmp_path))
        success = (tmp_path / "tras_toy_success.csv").read_text().strip().splitlines()
        precision = (tmp_path / "tras_toy_precision.csv").read_text().strip().splitlines()
        assert len(success) == 101
        assert len(precision) == 51
        # headerless: every row is numeric
        t0, v0 = success[0].split(",")
        assert float(t0) == 0.0 and 0.0 <= float(v0) <= 1.0

    def test_json_carries_per_video_and_precision20(self, tmp_path):
        res = self.make_result()
        report([res], str(tmp_path))
        payload = json.loads((tmp_path / "tras_toy_videos.json").read_text())
        assert set(payload["videos"]) == {"v0", "v1", "v2"}
        assert "precision20" in payload["aggregate"]
        for v in payload["videos"].values():
            assert {"ao", "sr50", "sr75", "ss", "ps", "precision20", "frames"} <= set(v)

    def test_rerun_is_byte_identical(self, tmp_path):
        res = self.make_result()
        a = tmp_path / "a"
        b = tmp_path / "b"
        report([res], str(a))
        report([res], str(b))
        for name in ("summary.csv", "tras_toy_videos.json", "tras_toy_success.csv",
                     "tras_toy_precision.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_curves_average_over_videos(self, tmp_path):
        res = self.make_result()
        curve = res.success_curve()
        want = np.mean(
            [[np.mean(m.ious >= i / 100.0) for i in range(101)]
             for m in res.per_video.values()],
            axis=0,
        )
        npt.assert_allclose(curve, want, atol=1e-12)
        # area under the written curve equals the SS aggregate
        npt.assert_allclose(float(np.mean(curve)), res.aggregate["ss"], atol=1e-12)


class TestRunMetrics:
    def test_center_error_is_euclidean(self):
        video = tiny_video(0, frames=3, moving=False)
        g = video.ground_truth[1]
        shifted = Box(g.x + 3.0, g.y + 4.0, g.w, g.h)
        run = TrackRun(video.video_id, "x", boxes=[shifted, g],
                       controllers=["student"] * 2)
        m = run_metrics(run, video)
        npt.assert_allclose(m.center_errors[0], 5.0, atol=1e-12)
        npt.assert_allclose(m.center_errors[1], 0.0, atol=1e-12)

    def test_iou_range_invariant(self):
        rng = np.random.default_rng(5)
        video = tiny_video(3, frames=10)
        boxes = [
            Box(rng.uniform(0, 40), rng.uniform(0, 40), rng.uniform(2, 20), rng.uniform(2, 20))
            for _ in range(9)
        ]
        run = TrackRun(video.video_id, "r", boxes=boxes, controllers=["student"] * 9)
        m = run_metrics(run, video)
        assert np.all(m.ious >= 0.0) and np.all(m.ious <= 1.0)
        assert np.all(m.center_errors >= 0.0)
