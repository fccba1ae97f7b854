"""Filtering, chunking, and reporting over teacher trajectories."""

import filecmp
import json
import re

import numpy as np
import pytest

from trackdistill.errors import InvalidInputError, ParseError
from trackdistill.geometry import Box
from trackdistill.teachers import (
    OracleNoiseFactory,
    TrajectoryTrace,
    run_teacher_on_video,
    save_trace,
)
from trackdistill import transferset
from trackdistill.transferset import (
    build_transfer_set,
    chunk_trajectory,
    filter_trajectories,
    load_chunk_index,
    trace_ious,
    trajectory_ious,
    transfer_report,
    videos_by_id,
    write_chunk_index,
    write_stats_csv,
)
from trackdistill.video import Video


def video_with_ious(video_id, ious):
    """Video plus a one-teacher trace whose per-frame overlaps equal ``ious``."""
    frame = np.zeros((8, 8, 3), dtype=np.uint8)
    n = len(ious) + 1
    gt = [Box(0, 0, 10, 10)] * n
    boxes = [gt[0]] + [Box(0, 0, 10, 10 * z) for z in ious]  # nested: iou == z
    return Video(video_id, [frame] * n, gt), TrajectoryTrace(video_id, "t", boxes)


class TestFiltering:
    def test_kept_and_dropped_rule(self):
        vid_a, tr_a = video_with_ious("a", [0.6, 0.55, 0.7])
        vid_b, tr_b = video_with_ious("b", [0.6, 0.45, 0.7])
        videos = videos_by_id([vid_a, vid_b])
        kept = filter_trajectories([tr_a, tr_b], videos, beta=0.5)
        assert [t.video_id for t in kept] == ["a"]

    def test_strictly_above_threshold(self):
        vid, tr = video_with_ious("a", [0.5, 0.9])
        assert filter_trajectories([tr], videos_by_id([vid]), 0.5) == []

    def test_beta_range_enforced(self):
        vid, tr = video_with_ious("a", [0.9])
        for beta in (0.4, 1.0):
            with pytest.raises(InvalidInputError):
                filter_trajectories([tr], videos_by_id([vid]), beta)

    def test_misaligned_lengths_rejected(self):
        vid, tr = video_with_ious("a", [0.9, 0.9])
        tr.boxes.append(Box(0, 0, 1, 1))
        with pytest.raises(InvalidInputError):
            filter_trajectories([tr], videos_by_id([vid]), 0.5)

    def test_nested_kept_sets(self):
        rng = np.random.default_rng(17)
        videos, traces = [], []
        for i in range(30):
            vid, tr = video_with_ious(f"v{i:02d}", rng.uniform(0.4, 1.0, 40))
            videos.append(vid)
            traces.append(tr)
        table = videos_by_id(videos)
        prev = None
        for beta in (0.5, 0.6, 0.7, 0.8, 0.9):
            ids = {t.video_id for t in filter_trajectories(traces, table, beta)}
            if prev is not None:
                assert ids <= prev
            prev = ids


class TestChunking:
    def test_exact_length_trajectory(self):
        vid, tr = video_with_ious("a", [0.9] * 31)  # 32 frames total
        chunks = chunk_trajectory(tr, vid, length=32, count=5, seed=1)
        assert len(chunks) == 5
        assert all(ch.start == 0 for ch in chunks)
        assert all(len(ch) == 32 for ch in chunks)

    def test_short_trajectory_skipped(self):
        vid, tr = video_with_ious("a", [0.9] * 30)  # 31 frames
        assert chunk_trajectory(tr, vid, length=32) == []

    def test_start_range_scan(self):
        vid, tr = video_with_ious("a", [0.9] * 99)  # 100 frames
        starts = set()
        for seed in range(300):
            for ch in chunk_trajectory(tr, vid, seed=seed):
                starts.add(ch.start)
        assert min(starts) >= 0 and max(starts) <= 68
        assert max(starts) == 68  # the extreme window does get drawn

    def test_deterministic_per_seed(self):
        vid, tr = video_with_ious("a", [0.9] * 80)
        a = [ch.start for ch in chunk_trajectory(tr, vid, seed=9)]
        b = [ch.start for ch in chunk_trajectory(tr, vid, seed=9)]
        c = [ch.start for ch in chunk_trajectory(tr, vid, seed=10)]
        assert a == b
        assert a != c

    def test_chunk_slices_line_up(self):
        vid, tr = video_with_ious("a", np.linspace(0.6, 0.95, 50))
        for ch in chunk_trajectory(tr, vid, seed=3):
            s = ch.start
            assert ch.teacher_boxes == tr.boxes[s : s + 32]
            assert ch.gt == vid.ground_truth[s : s + 32]


class TestStats:
    def test_empty_row_shape(self):
        vid, tr = video_with_ious("a", [0.8] * 40)  # not above 0.9: none kept
        [row] = transfer_report([tr], videos_by_id([vid]), betas=[0.9])
        assert (row["num_traj"], row["ao"], row["num_chunks"]) == (0, 0.0, 0)

    def test_constant_iou_ao(self):
        vid, tr = video_with_ious("a", [0.8] * 40)
        [row] = transfer_report([tr], videos_by_id([vid]), betas=[0.5])
        np.testing.assert_allclose(row["ao"], 0.8, atol=1e-12)

    def test_chunk_count_five_per_trajectory(self):
        videos, traces = [], []
        for i in range(4):
            vid, tr = video_with_ious(f"v{i}", [0.9] * 40)
            videos.append(vid)
            traces.append(tr)
        kept, chunks = build_transfer_set(traces, videos_by_id(videos), 0.5)
        assert len(kept) == 4
        assert len(chunks) == 20

    def test_report_rows_and_csv(self, tmp_path):
        rng = np.random.default_rng(23)
        videos, traces = [], []
        for i in range(10):
            vid, tr = video_with_ious(f"v{i}", rng.uniform(0.5, 1.0, 40))
            videos.append(vid)
            traces.append(tr)
        rows = transfer_report(traces, videos_by_id(videos), betas=[0.5, 0.7, 0.9])
        assert len(rows) == 3  # one teacher, three thresholds
        counts = [r["num_traj"] for r in rows]
        assert counts == sorted(counts, reverse=True)

        path = str(tmp_path / "stats.csv")
        write_stats_csv(rows, path)
        with open(path) as fh:
            lines = fh.read().strip().split("\n")
        assert lines[0] == "teacher,beta,num_traj,ao,num_chunks"
        assert len(lines) == 4


def per_beta_report(traces, videos, betas, length=32, count=5, seed=0):
    """The reference report: the transfer set and every kept trajectory's
    overlaps rebuilt for each beta and each row."""
    teacher_ids = sorted({tr.teacher_id for tr in traces})
    rows = []
    for beta in betas:
        kept = [tr for tr in traces if np.all(trajectory_ious(tr, videos[tr.video_id]) > beta)]
        kept.sort(key=lambda tr: (tr.video_id, tr.teacher_id))
        chunks = [
            ch for tr in kept
            for ch in chunk_trajectory(tr, videos[tr.video_id], length, count, seed)
        ]
        for tid in teacher_ids:
            mine = [trajectory_ious(tr, videos[tr.video_id]) for tr in kept if tr.teacher_id == tid]
            rows.append({
                "teacher": tid,
                "beta": beta,
                "num_traj": len(mine),
                "ao": float(np.mean(np.concatenate(mine))) if mine else 0.0,
                "num_chunks": sum(1 for ch in chunks if ch.teacher_id == tid),
            })
    return rows, chunks


class TestOverlapsOnce:
    def pool(self, seed=31):
        """Three teachers over eight videos, two of them too short to chunk."""
        rng = np.random.default_rng(seed)
        frame = np.zeros((8, 8, 3), dtype=np.uint8)
        videos, traces = [], []
        for i in range(8):
            n = 20 if i % 4 == 3 else 40
            gt = [Box(0, 0, 10, 10)] * n
            videos.append(Video(f"v{i}", [frame] * n, gt))
            for k in range(3):
                ious = rng.uniform(rng.choice([0.45, 0.55, 0.65, 0.75, 0.85, 0.92]), 1.0, n - 1)
                traces.append(TrajectoryTrace(
                    f"v{i}", f"t{k}", [gt[0]] + [Box(0, 0, 10, 10 * z) for z in ious]
                ))
        return videos_by_id(videos), traces

    def test_report_and_index_bytes_equal_per_beta_path(self, tmp_path):
        videos, traces = self.pool()
        betas = [0.5, 0.6, 0.7, 0.8, 0.9, 0.65]
        ref_rows, ref_chunks = per_beta_report(traces, videos, betas, seed=3)
        assert len({r["num_chunks"] for r in ref_rows}) > 2  # counts vary
        ious = trace_ious(traces, videos)
        write_stats_csv(ref_rows, str(tmp_path / "ref.csv"))
        write_stats_csv(transfer_report(traces, videos, betas, ious=ious),
                        str(tmp_path / "got.csv"))
        assert filecmp.cmp(tmp_path / "ref.csv", tmp_path / "got.csv", shallow=False)
        _, chunks = build_transfer_set(traces, videos, 0.65, seed=3, ious=ious)
        write_chunk_index(ref_chunks, str(tmp_path / "ref.json"), 0.65, 32, 3)
        write_chunk_index(chunks, str(tmp_path / "got.json"), 0.65, 32, 3)
        assert filecmp.cmp(tmp_path / "ref.json", tmp_path / "got.json", shallow=False)

    def test_report_computes_each_trace_once(self, monkeypatch):
        videos, traces = self.pool()
        calls = []
        real = transferset.trajectory_ious

        def counted(trace, video):
            calls.append((trace.teacher_id, trace.video_id))
            return real(trace, video)

        monkeypatch.setattr(transferset, "trajectory_ious", counted)
        transfer_report(traces, videos, [0.5, 0.6, 0.7, 0.8, 0.9])
        assert sorted(calls) == sorted((tr.teacher_id, tr.video_id) for tr in traces)


class TestChunkIndex:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(29)
        frame = rng.integers(0, 256, (16, 16, 3)).astype(np.uint8)
        gt = [Box(1, 1, 8, 8)] * 40
        vid = Video("seq0", [frame] * 40, gt)
        factory = OracleNoiseFactory("o9", 0.9, seed=2)
        trace = run_teacher_on_video(factory, vid)
        save_trace(str(tmp_path / "traces"), trace)

        videos = videos_by_id([vid])
        kept, chunks = build_transfer_set([trace], videos, 0.5, seed=4)
        idx = str(tmp_path / "chunks.json")
        write_chunk_index(chunks, idx, beta=0.5, length=32, seed=4)
        back = load_chunk_index(idx, videos, str(tmp_path / "traces"))
        assert len(back) == len(chunks)
        for a, b in zip(back, chunks):
            assert (a.video_id, a.teacher_id, a.start) == (b.video_id, b.teacher_id, b.start)
            np.testing.assert_allclose(
                a.teacher_boxes[5].as_array(), b.teacher_boxes[5].as_array(), atol=1e-5
            )

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"length": "32x"}, "chunk length '32x' is not a positive integer"),
            ({"length": "32"}, "chunk length '32' is not a positive integer"),
            ({"length": 0}, "chunk length 0 is not a positive integer"),
            ({"length": 2.5}, "chunk length 2.5 is not a positive integer"),
            ({"chunks": {"0": {"video": "v", "teacher": "t", "start": 0}}},
             '"chunks" is not a list'),
            ({"chunks": [["v", "t", 0]]}, "chunk entry 0 is not an object"),
            ({"chunks": [{"teacher": "t", "start": 0}]}, "chunk entry 0 has no 'video'"),
            ({"chunks": [{"video": "v", "start": 0}]}, "chunk entry 0 has no 'teacher'"),
            ({"chunks": [{"video": "v", "teacher": "t"}]}, "chunk entry 0 has no 'start'"),
            ({"chunks": [{"video": ["v"], "teacher": "t", "start": 0}]},
             "chunk entry 0 has a bad 'video'"),
            ({"chunks": [{"video": "v", "teacher": 7, "start": 0}]},
             "chunk entry 0 has a bad 'teacher'"),
            ({"chunks": [{"video": "v", "teacher": "t", "start": "3"}]},
             "chunk entry 0 has a bad 'start'"),
            ({"chunks": [{"video": "v", "teacher": "t", "start": 3.5}]},
             "chunk entry 0 has a bad 'start'"),
            ({"chunks": [{"video": "v", "teacher": "t", "start": True}]},
             "chunk entry 0 has a bad 'start'"),
            ({"length": 1}, "chunk length 1 is not a positive integer >= 2"),
        ],
    )
    def test_malformed_index_named(self, tmp_path, fields, message):
        idx = tmp_path / "chunks.json"
        payload = {"beta": 0.5, "length": 32, "seed": 0, "chunks": [], **fields}
        idx.write_text(json.dumps(payload))
        with pytest.raises(ParseError, match="^" + re.escape(f"{idx}: {message}")):
            load_chunk_index(str(idx), {}, str(tmp_path))
