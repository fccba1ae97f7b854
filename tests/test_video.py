"""PPM round-trips, dataset layout IO, and the synthetic sequence generator."""

import os

import numpy as np
import pytest

from trackdistill.errors import InvalidInputError, ParseError
from trackdistill.geometry import Box
from trackdistill.video import (
    SyntheticSpec,
    Video,
    generate_video,
    load_dataset,
    load_video,
    read_groundtruth,
    read_ppm,
    write_groundtruth,
    write_ppm,
    write_video,
)


class TestPpm:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        img = rng.integers(0, 256, (11, 7, 3)).astype(np.uint8)
        p = str(tmp_path / "a.ppm")
        write_ppm(p, img)
        np.testing.assert_array_equal(read_ppm(p), img)

    def test_reads_comment_header(self, tmp_path):
        p = str(tmp_path / "c.ppm")
        with open(p, "wb") as fh:
            fh.write(b"P6\n# a comment\n2 1\n255\n" + bytes([1, 2, 3, 4, 5, 6]))
        img = read_ppm(p)
        assert img.shape == (1, 2, 3)
        assert img[0, 1, 2] == 6

    def test_rejects_wrong_magic(self, tmp_path):
        p = str(tmp_path / "b.ppm")
        with open(p, "wb") as fh:
            fh.write(b"P3\n1 1\n255\n0 0 0\n")
        with pytest.raises(ParseError):
            read_ppm(p)

    def test_rejects_truncated_raster(self, tmp_path):
        p = str(tmp_path / "t.ppm")
        with open(p, "wb") as fh:
            fh.write(b"P6\n4 4\n255\n" + b"\x00" * 10)
        with pytest.raises(ParseError):
            read_ppm(p)

    def test_rejects_non_uint8_write(self, tmp_path):
        with pytest.raises(InvalidInputError):
            write_ppm(str(tmp_path / "x.ppm"), np.zeros((4, 4, 3)))


class TestGroundTruth:
    def test_round_trip(self, tmp_path):
        boxes = [Box(1.5, 2.25, 10.0, 20.5), Box(-3.0, 0.0, 4.0, 4.0)]
        p = str(tmp_path / "gt.csv")
        write_groundtruth(p, boxes)
        back = read_groundtruth(p)
        for a, b in zip(back, boxes):
            np.testing.assert_allclose(a.as_array(), b.as_array(), atol=1e-6)

    def test_malformed_line_names_location(self, tmp_path):
        p = str(tmp_path / "gt.csv")
        with open(p, "w") as fh:
            fh.write("1,2,3,4\n1,2,3\n")
        with pytest.raises(ParseError, match=r"gt\.csv:2"):
            read_groundtruth(p)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_nonfinite_row_names_location(self, tmp_path, cell):
        p = str(tmp_path / "gt.csv")
        with open(p, "w") as fh:
            fh.write(f"1,2,3,4\n1,{cell},3,4\n")
        with pytest.raises(ParseError, match=r"gt\.csv:2: box field y is not finite"):
            read_groundtruth(p)

    def test_non_numeric_rejected(self, tmp_path):
        p = str(tmp_path / "gt.csv")
        with open(p, "w") as fh:
            fh.write("1,2,x,4\n")
        with pytest.raises(ParseError):
            read_groundtruth(p)


class TestDatasetLayout:
    def test_write_then_load(self, tmp_path):
        vid = generate_video(SyntheticSpec(num_frames=5, width=48, height=40, max_size=20), seed=1, video_id="seq00")
        write_video(vid, str(tmp_path))
        loaded = load_video(str(tmp_path / "seq00"))
        assert loaded.video_id == "seq00"
        assert len(loaded) == 5
        for a, b in zip(loaded.frames, vid.frames):
            np.testing.assert_array_equal(a, b)
        for a, b in zip(loaded.ground_truth, vid.ground_truth):
            np.testing.assert_allclose(a.as_array(), b.as_array(), atol=1e-5)

    def test_load_dataset_sorted(self, tmp_path):
        for name in ("b_seq", "a_seq"):
            write_video(
                generate_video(SyntheticSpec(num_frames=3, width=48, height=40, max_size=20), 2, name),
                str(tmp_path),
            )
        vids = load_dataset(str(tmp_path))
        assert [v.video_id for v in vids] == ["a_seq", "b_seq"]

    def test_frame_count_mismatch_rejected(self, tmp_path):
        vid = generate_video(SyntheticSpec(num_frames=4, width=48, height=40, max_size=20), 3, "s")
        d = write_video(vid, str(tmp_path))
        with open(os.path.join(d, "groundtruth.csv"), "a") as fh:
            fh.write("0,0,5,5\n")
        with pytest.raises(ParseError, match="4 frames but 5"):
            load_video(d)

    def test_frame_numbering_gap_rejected(self, tmp_path):
        vid = generate_video(SyntheticSpec(num_frames=4, width=48, height=40, max_size=20), 3, "s")
        d = write_video(vid, str(tmp_path))
        os.rename(os.path.join(d, "frames", "000002.ppm"), os.path.join(d, "frames", "000009.ppm"))
        with pytest.raises(ParseError, match="numbering gap"):
            load_video(d)

    def test_two_frame_minimum(self):
        frame = np.zeros((4, 4, 3), dtype=np.uint8)
        with pytest.raises(InvalidInputError):
            Video("v", [frame], [Box(0, 0, 2, 2)])


class TestSyntheticGenerator:
    def test_deterministic(self):
        spec = SyntheticSpec(num_frames=8)
        a = generate_video(spec, seed=42, video_id="v")
        b = generate_video(spec, seed=42, video_id="v")
        for fa, fb in zip(a.frames, b.frames):
            np.testing.assert_array_equal(fa, fb)
        for ga, gb in zip(a.ground_truth, b.ground_truth):
            assert ga == gb

    def test_seed_changes_content(self):
        spec = SyntheticSpec(num_frames=4)
        a = generate_video(spec, seed=1, video_id="v")
        b = generate_video(spec, seed=2, video_id="v")
        assert any(not np.array_equal(fa, fb) for fa, fb in zip(a.frames, b.frames))

    def test_boxes_stay_inside_frame(self):
        spec = SyntheticSpec(num_frames=200, max_step=5.0)
        vid = generate_video(spec, seed=5, video_id="v")
        for g in vid.ground_truth:
            assert g.x >= 0 and g.y >= 0
            assert g.x + g.w <= spec.width
            assert g.y + g.h <= spec.height

    def test_step_bound_scan(self):
        """Random-walk with max step 2 px: per-frame center displacement <= 2 per axis."""
        spec = SyntheticSpec(num_frames=300, max_step=2.0, motion="random-walk")
        vid = generate_video(spec, seed=9, video_id="v")
        gt = vid.ground_truth
        for prev, cur in zip(gt, gt[1:]):
            assert abs(cur.cx - prev.cx) <= 2.0 + 1e-9
            assert abs(cur.cy - prev.cy) <= 2.0 + 1e-9

    def test_size_bounds_respected(self):
        spec = SyntheticSpec(num_frames=100, scale_drift=0.05, min_size=10, max_size=30)
        vid = generate_video(spec, seed=11, video_id="v")
        for g in vid.ground_truth:
            assert 10 - 1e-9 <= g.w <= 30 + 1e-9
            assert 10 - 1e-9 <= g.h <= 30 + 1e-9

    def test_object_brighter_than_background(self):
        # Texture range starts above the background range, so the target region
        # must dominate the frame mean inside the ground-truth box.
        vid = generate_video(SyntheticSpec(num_frames=3), seed=13, video_id="v")
        g = vid.ground_truth[0]
        ys, xs = int(g.y + 1), int(g.x + 1)
        inside = vid.frames[0][ys : ys + int(g.h) - 2, xs : xs + int(g.w) - 2]
        assert inside.mean() > 120
        assert vid.frames[0].mean() < inside.mean()

    def test_oversized_object_rejected(self):
        with pytest.raises(InvalidInputError):
            generate_video(SyntheticSpec(width=32, height=32, max_size=40), 1, "v")

    def test_unknown_motion_rejected(self):
        with pytest.raises(InvalidInputError):
            generate_video(SyntheticSpec(motion="teleport"), 1, "v")
