"""PPM round-trips, dataset layout IO, and the synthetic sequence generator."""

import hashlib
import os
import re
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from trackdistill.errors import InvalidInputError, ParseError
from trackdistill.geometry import Box
from trackdistill import video as videomod
from trackdistill.video import (
    SyntheticSpec,
    Video,
    generate_video,
    load_dataset,
    load_video,
    ppm_shape,
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

    def test_rejects_other_maxval(self, tmp_path):
        p = str(tmp_path / "m.ppm")
        with open(p, "wb") as fh:
            fh.write(b"P6\n1 1\n65535\n" + b"\x00" * 6)
        with pytest.raises(ParseError, match="maxval 65535"):
            read_ppm(p)

    def test_rejects_truncated_raster(self, tmp_path):
        p = str(tmp_path / "t.ppm")
        with open(p, "wb") as fh:
            fh.write(b"P6\n4 4\n255\n" + b"\x00" * 10)
        with pytest.raises(ParseError):
            read_ppm(p)

    @pytest.mark.parametrize("size", [b"0 4", b"4 0"])
    def test_rejects_a_raster_without_pixels(self, tmp_path, size):
        # a frame of no pixels would fail far away, in the crop, unnamed
        p = str(tmp_path / "z.ppm")
        with open(p, "wb") as fh:
            fh.write(b"P6\n" + size + b"\n255\n")
        for read in (read_ppm, ppm_shape):
            with pytest.raises(ParseError, match=re.escape(f"{p}: PPM of ") + ".* has none"):
                read(p)

    def test_decoded_frame_is_read_only(self, tmp_path):
        img = np.random.default_rng(4).integers(0, 256, (5, 6, 3)).astype(np.uint8)
        p = str(tmp_path / "r.ppm")
        write_ppm(p, img)
        frame = read_ppm(p)
        np.testing.assert_array_equal(frame, img)
        assert not frame.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            frame[0, 0, 0] = 1

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

    @pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"])
    def test_non_ascii_byte_names_location(self, tmp_path, newline):
        p = tmp_path / "gt.csv"
        p.write_bytes(newline.join([b"1,2,3,4", b"", b"1,2,3\xff,4", b""]))
        with pytest.raises(ParseError, match=re.escape(f"{p}:3: non-ASCII byte in b'1,2,3\\xff,4'")):
            read_groundtruth(str(p))

    def test_line_endings_read_alike(self, tmp_path):
        p = tmp_path / "gt.csv"
        for newline in (b"\n", b"\r\n", b"\r"):
            p.write_bytes(newline.join([b"1,2,3,4", b"", b" 5,6,7,8 ", b""]))
            assert read_groundtruth(str(p)) == [Box(1, 2, 3, 4), Box(5, 6, 7, 8)]


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

    def test_frame_shape_mismatch_names_the_frame(self, tmp_path):
        vid = generate_video(SyntheticSpec(num_frames=4, width=48, height=40, max_size=20), 3, "s")
        d = write_video(vid, str(tmp_path))
        odd = os.path.join(d, "frames", "000002.ppm")
        write_ppm(odd, np.zeros((40, 47, 3), dtype=np.uint8))
        with pytest.raises(ParseError, match=re.escape(f"{odd}: frame shape (40, 47, 3) differs")):
            load_video(d)

    def test_truncated_frame_rejected_at_load(self, tmp_path):
        vid = generate_video(SyntheticSpec(num_frames=4, width=48, height=40, max_size=20), 3, "s")
        d = write_video(vid, str(tmp_path))
        last = os.path.join(d, "frames", "000003.ppm")
        os.truncate(last, os.path.getsize(last) - 1)
        with pytest.raises(ParseError, match=re.escape(f"{last}: raster has")):
            load_video(d)

    @pytest.mark.parametrize("make, error", [
        (lambda path: None, FileNotFoundError),
        (os.mkdir, IsADirectoryError),
    ], ids=["missing", "directory"])
    def test_unreadable_frame_names_its_path(self, tmp_path, make, error):
        path = str(tmp_path / "000000.ppm")
        make(path)
        with pytest.raises(error) as info:
            videomod.ppm_shape(path)
        assert info.value.filename == path
        assert str(info.value).endswith(f": {path!r}")

    def test_frames_decode_once_on_first_read(self, tmp_path, monkeypatch):
        vid = generate_video(SyntheticSpec(num_frames=6, width=48, height=40, max_size=20), 4, "s")
        loaded = load_video(write_video(vid, str(tmp_path)))
        decoded = []
        real = videomod.read_ppm
        monkeypatch.setattr(videomod, "read_ppm", lambda p: decoded.append(p) or real(p))
        window = loaded.frames[2:5]  # a slice shares the video's cache
        assert len(window) == 3 and not decoded
        np.testing.assert_array_equal(window[-1], vid.frames[4])
        assert loaded.frames[4] is window[2]
        np.testing.assert_array_equal(loaded.frames[-1], vid.frames[5])
        assert [os.path.basename(p) for p in decoded] == ["000004.ppm", "000005.ppm"]
        with pytest.raises(IndexError):
            window[3]

    def test_two_frame_minimum(self):
        frame = np.zeros((4, 4, 3), dtype=np.uint8)
        with pytest.raises(InvalidInputError):
            Video("v", [frame], [Box(0, 0, 2, 2)])


def sha256_of(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


# (all frames, frames[5:30:3], ground-truth float64s) at seed 5
PINNED = {
    "default": (
        SyntheticSpec(),
        "e9c3acd69a6653cd299fe1f9e054f85c57ab77f2f0e7b754b4e414030446e2ba",
        "4f64312a8dac599a39c39bfdc5275c45ab7524ec0ba39b5ccbd8345238f60edc",
        "a55556f6f586658a98bab86bde39fa03f6ecf5649743d639e87481683d187658",
    ),
    "track-bench": (  # the benchmark's track workload spec
        SyntheticSpec(width=320, height=240, num_frames=40, min_size=240 / 9.0,
                      max_size=240 / 3.0, max_step=240 / 60.0, scale_drift=0.01),
        "49efb223e726f3f8e02af0acf572d2945d62779c62d807d7da493a9398978687",
        "0085d5c97bd65273f80e377a72db3cda29a22c3ee3528415fb1d9b1cde422508",
        "d4b0dc76b67caa743bbbcf991d5089ed528376a973b181f7b6c25714b75d8e32",
    ),
    "linear-flat": (
        SyntheticSpec(motion="linear", background="flat"),
        "b6b1e291133d49aa8e24d4ebab61afd14f7a773cb201b0928c4dc761723c6dfa",
        "7286390367861c8ec8bfc49f93ef3315d8ec36cd08243c1f1758d74c3c181445",
        "106ddbf6f82ff5bdf011b2cd06462b6d76fffb211f1317dc40354ead94b9fb04",
    ),
}


class TestSyntheticGenerator:
    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_bytes_are_pinned(self, name):
        spec, frames_sha, slice_sha, gt_sha = PINNED[name]
        vid = generate_video(spec, seed=5, video_id="v")
        assert sha256_of(vid.frames) == frames_sha
        assert sha256_of(vid.frames[5:30:3]) == slice_sha
        assert sha256_of(b.as_array() for b in vid.ground_truth) == gt_sha

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


class TestRenderedFrames:
    """A generated video keeps its background, texture and paste windows and
    renders a frame when it is read."""

    SPEC = SyntheticSpec(width=320, height=240, num_frames=200)

    def test_generation_keeps_no_frames(self):
        # 200 frames of 320x240 would hold 46 MB
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            vid = generate_video(self.SPEC, seed=3, video_id="v")
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(vid) == 200
        assert held < 1_000_000

    def test_frame_is_read_only(self):
        frame = generate_video(self.SPEC, seed=3, video_id="v").frames[7]
        assert not frame.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            frame[0, 0, 0] = 1

    def test_rereading_a_frame_gives_its_bytes(self):
        frames = generate_video(self.SPEC, seed=3, video_id="v").frames
        first = frames[9]
        assert frames[9] is first  # a repeat read is the kept frame
        other = frames[10]
        again = frames[9]
        assert not np.array_equal(other, first)
        np.testing.assert_array_equal(again, first)

    def test_slice_frames_equal_the_videos(self):
        frames = generate_video(self.SPEC, seed=3, video_id="v").frames
        window = frames[40:60]
        assert len(window) == 20
        for k in (0, 19, 5, -1, 6):
            np.testing.assert_array_equal(window[k], frames[40 + k % 20])
        with pytest.raises(IndexError):
            window[20]

    def test_threads_reading_one_video_get_their_frames(self):
        vid = generate_video(SyntheticSpec(num_frames=30), seed=3, video_id="v")
        want = [frame.tobytes() for frame in vid.frames]
        wrong = []

        def reader(seed):
            rng = np.random.default_rng(seed)
            for t in rng.integers(0, len(want), 400):
                if vid.frames[t].tobytes() != want[t]:
                    wrong.append(int(t))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=reader, args=(k,)) for k in range(4)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert wrong == []
