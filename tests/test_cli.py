"""End-to-end checks of the command line, driven in process via main()."""

import filecmp
import itertools
import json
import os
import re
import shutil
import sys

import pytest

from trackdistill import cli, mdp, transferset
from trackdistill.cli import main
from trackdistill.errors import InvalidInputError
from trackdistill.teachers import load_trace, run_teacher_on_video, save_trace, trace_path
from trackdistill.video import load_dataset

from test_teachers import DIES_AT_FRAME_3, ECHO_TEACHER, assert_exited, pid_teacher, started

SMALL_INI = """\
[env]
width = 64
height = 64
num_frames = 40
num_videos = 4
min_size = 14
max_size = 22

[model]
patch_size = 16
conv_channels = 4,8
fc_dim = 16
hidden_dim = 12

[train]
workers = 2
max_updates = 30
val_every = 15
lr = 1e-4
optimizer = sgd
"""


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Run the whole chain once; individual tests pick over the artifacts."""
    ws = tmp_path_factory.mktemp("cli")
    ini = ws / "small.ini"
    ini.write_text(SMALL_INI)
    paths = {
        "ini": str(ini),
        "data": str(ws / "data"),
        "traces": str(ws / "traces"),
        "filter": str(ws / "filter"),
        "train": str(ws / "train"),
        "tras": str(ws / "runs" / "tras"),
        "eval": str(ws / "eval"),
    }
    cfg = ["--config", paths["ini"]]
    assert main(["gen-data", *cfg, "--seed", "9", "--out", paths["data"]]) == 0
    assert main([
        "run-teachers", *cfg, "--pool", "oracle:0.9,oracle:0.6",
        "--out", paths["traces"], paths["data"],
    ]) == 0
    assert main([
        "filter", *cfg, "--out", paths["filter"], paths["data"], paths["traces"],
    ]) == 0
    assert main([
        "train", *cfg, "--seed", "3", "--out", paths["train"],
        paths["data"], paths["traces"], os.path.join(paths["filter"], "chunks.json"),
    ]) == 0
    ckpt = os.path.join(paths["train"], "student.ckpt")
    assert main([
        "track", *cfg, "--out", paths["tras"], ckpt, paths["data"],
    ]) == 0
    assert main([
        "eval", *cfg, "--out", paths["eval"], paths["data"], paths["tras"],
    ]) == 0
    return paths


class TestUsageErrors:
    def test_no_command(self):
        assert main([]) == 1

    def test_unknown_command(self):
        assert main(["polish"]) == 1

    def test_gen_data_needs_seed(self, tmp_path):
        assert main(["gen-data", "--out", str(tmp_path / "d")]) == 1

    def test_train_needs_seed(self, tmp_path):
        assert main(["train", "--out", str(tmp_path), "a", "b", "c"]) == 1

    def test_help_exits_zero(self):
        assert main(["--help"]) == 0


class TestDataErrors:
    def test_missing_dataset(self, tmp_path):
        code = main(["run-teachers", "--out", str(tmp_path / "t"),
                     str(tmp_path / "absent")])
        assert code == 2

    def test_bad_config_key(self, tmp_path):
        ini = tmp_path / "bad.ini"
        ini.write_text("[train]\nwarp = 9\n")
        code = main(["gen-data", "--config", str(ini), "--seed", "1",
                     "--out", str(tmp_path / "d")])
        assert code == 2

    @pytest.mark.parametrize("command", ["run-teachers", "filter"])
    def test_duplicate_pool_ids(self, tmp_path, pipeline, capsys, command):
        # both specs make a member with the id "oracle0.9"; its traces would
        # share one directory
        out = tmp_path / "out"
        inputs = [pipeline["data"]] + ([pipeline["traces"]] if command == "filter" else [])
        code = main([command, "--config", pipeline["ini"], "--pool", "oracle:0.9,oracle:0.9:5",
                     "--out", str(out), *inputs])
        assert code == 2
        assert "'oracle0.9'" in capsys.readouterr().err
        assert not out.exists()

    def test_eval_without_runs(self, tmp_path, pipeline):
        empty = tmp_path / "noruns"
        empty.mkdir()
        code = main(["eval", "--config", pipeline["ini"],
                     "--out", str(tmp_path / "e"), pipeline["data"], str(empty)])
        assert code == 2


class TestGenData:
    def test_dataset_layout(self, pipeline):
        entries = sorted(os.listdir(pipeline["data"]))
        assert "config.ini" in entries
        assert [e for e in entries if e.startswith("synth")] == [
            f"synth{i:03d}" for i in range(4)
        ]

    def test_deterministic(self, tmp_path, pipeline):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        for out in (a, b):
            assert main(["gen-data", "--config", pipeline["ini"],
                         "--seed", "9", "--out", out]) == 0
        seen = 0
        for root, _dirs, files in os.walk(a):
            rel = os.path.relpath(root, a)
            for name in files:
                twin = os.path.join(b, rel, name)
                assert filecmp.cmp(os.path.join(root, name), twin, shallow=False), twin
                seen += 1
        assert seen > 4  # frames plus annotations per video, not just config.ini
        assert sum(len(fs) for _, _, fs in os.walk(b)) == seen

    def test_seed_changes_content(self, tmp_path, pipeline):
        out = str(tmp_path / "c")
        assert main(["gen-data", "--config", pipeline["ini"],
                     "--seed", "10", "--out", out]) == 0
        assert not filecmp.cmp(
            os.path.join(out, "synth000", "groundtruth.csv"),
            os.path.join(pipeline["data"], "synth000", "groundtruth.csv"),
            shallow=False,
        )


class TestTeachersAndFilter:
    def test_trace_files(self, pipeline):
        for tid in ("oracle0.9", "oracle0.6"):
            for i in range(4):
                assert os.path.exists(
                    os.path.join(pipeline["traces"], tid, f"synth{i:03d}.csv")
                )

    def test_failing_teacher_quarantined(self, tmp_path, pipeline, capsys):
        out = str(tmp_path / "traces")
        code = main(["run-teachers", "--config", pipeline["ini"],
                     "--pool", "oracle:0.9,bad=extern:bad:false",
                     "--out", out, pipeline["data"]])
        assert code == 0
        assert "warning" in capsys.readouterr().err
        failed = os.path.join(out, ".failed", "bad")
        assert sorted(os.listdir(failed)) == [f"synth{i:03d}.csv" for i in range(4)]
        assert os.path.exists(os.path.join(out, "oracle0.9", "synth000.csv"))
        assert not os.path.exists(os.path.join(out, "bad"))

    def test_pool_traces_equal_single_teacher_runs(self, tmp_path, pipeline, closing):
        # one member of each kind; the extern one drifts +1 px per frame
        script = tmp_path / "echo.py"
        script.write_text(ECHO_TEACHER)
        pool = (
            f"oracle:0.8,trace:{pipeline['traces']}:oracle0.6,"
            f"ext=extern:ext:{sys.executable} {script}"
        )
        out, ref = str(tmp_path / "traces"), str(tmp_path / "ref")
        assert main(["run-teachers", "--config", pipeline["ini"], "--seed", "4",
                     "--pool", pool, "--out", out, pipeline["data"]]) == 0
        closing += cli._parse_pool(pool, 4)
        for factory in closing:
            for video in load_dataset(pipeline["data"]):
                path = save_trace(ref, run_teacher_on_video(factory, video))
                assert filecmp.cmp(path, trace_path(out, factory.teacher_id, video.video_id),
                                   shallow=False)
        assert not os.path.exists(os.path.join(out, ".failed"))

    def test_member_dying_mid_video_quarantined(self, tmp_path, pipeline, capsys):
        # "dies" drifts like "echo" until it exits on being sent frame 3
        dies, echo = tmp_path / "dies.py", tmp_path / "echo.py"
        dies.write_text(DIES_AT_FRAME_3)
        echo.write_text(ECHO_TEACHER)
        out = str(tmp_path / "traces")
        pool = (f"dies=extern:dies:{sys.executable} {dies},oracle:0.9,"
                f"echo=extern:echo:{sys.executable} {echo}")
        code = main(["run-teachers", "--config", pipeline["ini"],
                     "--pool", pool, "--out", out, pipeline["data"]])
        assert code == 0
        assert capsys.readouterr().out.endswith("(4 failures quarantined)\n")
        for video in load_dataset(pipeline["data"]):
            partial = load_trace(os.path.join(out, ".failed"), "dies", video.video_id).boxes
            echoed = load_trace(out, "echo", video.video_id).boxes
            assert len(echoed) == len(video) and partial == echoed[:3]
            assert len(load_trace(out, "oracle0.9", video.video_id).boxes) == len(video)
        assert not os.path.exists(os.path.join(out, "dies"))

    def test_filter_computes_each_trace_overlap_once(self, tmp_path, pipeline, monkeypatch):
        calls = []
        real = transferset.trajectory_ious

        def counted(trace, video):
            calls.append((trace.teacher_id, trace.video_id))
            return real(trace, video)

        monkeypatch.setattr(transferset, "trajectory_ious", counted)
        out = tmp_path / "filter"
        assert main(["filter", "--config", pipeline["ini"], "--out", str(out),
                     pipeline["data"], pipeline["traces"]]) == 0
        # the default pool is oracle:0.9
        assert sorted(calls) == [("oracle0.9", f"synth{i:03d}") for i in range(4)]
        for name in ("chunks.json", "transfer_stats.csv"):
            assert filecmp.cmp(out / name, os.path.join(pipeline["filter"], name),
                               shallow=False)

    def test_chunk_index(self, pipeline):
        with open(os.path.join(pipeline["filter"], "chunks.json")) as f:
            index = json.load(f)
        assert index["beta"] == 0.5
        assert index["chunks"]
        for chunk in index["chunks"]:
            assert chunk["video"].startswith("synth")
            assert chunk["teacher"] in ("oracle0.9", "oracle0.6")

    def test_stats_table(self, pipeline):
        with open(os.path.join(pipeline["filter"], "transfer_stats.csv")) as f:
            lines = f.read().splitlines()
        assert lines[0] == "teacher,beta,num_traj,ao,num_chunks"
        betas = {line.split(",")[1] for line in lines[1:]}
        assert {"0.5", "0.6", "0.7", "0.8", "0.9"} <= betas


class TestChildPerCommand:
    """An ``extern:`` teacher runs as one child per command, and no child
    outlives its command."""

    def test_run_teachers(self, tmp_path, pipeline):
        (a, pids_a), (b, pids_b) = (pid_teacher(tmp_path, n) for n in "ab")
        assert main(["run-teachers", "--config", pipeline["ini"],
                     "--pool", f"a=extern:a:{a},oracle:0.9,b=extern:b:{b}",
                     "--out", str(tmp_path / "traces"), pipeline["data"]]) == 0
        for pids in (pids_a, pids_b):
            assert len(started(pids)) == 1
            assert_exited(started(pids))

    def test_fuse(self, tmp_path, pipeline):
        (a, pids_a), (b, pids_b) = (pid_teacher(tmp_path, n) for n in "ab")
        out = tmp_path / "fuse"
        assert main(["fuse", "--config", pipeline["ini"],
                     "--pool", f"a=extern:a:{a},b=extern:b:{b}", "--out", str(out),
                     os.path.join(pipeline["train"], "student.ckpt"), pipeline["data"]]) == 0
        assert sorted(os.listdir(out)) == ["config.ini"] + [f"synth{i:03d}.csv" for i in range(4)]
        for pids in (pids_a, pids_b):
            assert len(started(pids)) == 1
            assert_exited(started(pids))

    def test_trast(self, tmp_path, pipeline):
        command, pids = pid_teacher(tmp_path, "a")
        out = tmp_path / "trast"
        assert main(["track", "--config", pipeline["ini"], "--mode", "trast",
                     "--teacher", f"a=extern:a:{command}", "--out", str(out),
                     os.path.join(pipeline["train"], "student.ckpt"), pipeline["data"]]) == 0
        assert sorted(os.listdir(out)) == ["config.ini"] + [f"synth{i:03d}.csv" for i in range(4)]
        assert len(started(pids)) == 1
        assert_exited(started(pids))

    def test_death_in_video_3_of_8(self, tmp_path, capsys):
        ini = tmp_path / "eight.ini"
        ini.write_text(SMALL_INI.replace("num_videos = 4", "num_videos = 8")
                       .replace("num_frames = 40", "num_frames = 12"))
        data = str(tmp_path / "data")
        assert main(["gen-data", "--config", str(ini), "--seed", "5", "--out", data]) == 0
        outs = {}
        for run, die_on in (("healthy", "-"), ("dying", "synth002")):
            command, pids = pid_teacher(tmp_path, run, die_on=die_on)
            outs[run] = str(tmp_path / run)
            assert main(["run-teachers", "--config", str(ini),
                         "--pool", f"t=extern:t:{command},oracle:0.9",
                         "--out", outs[run], data]) == 0
            assert len(started(pids)) == (2 if die_on != "-" else 1)
            assert_exited(started(pids))
        assert "warning: t failed on synth002: " in capsys.readouterr().err
        failed = os.path.join(outs["dying"], ".failed")
        assert os.listdir(os.path.join(failed, "t")) == ["synth002.csv"]
        partial = load_trace(failed, "t", "synth002").boxes
        assert partial == load_trace(outs["healthy"], "t", "synth002").boxes[:3]
        for i in range(8):
            for tid in ("t", "oracle0.9"):
                path = trace_path(outs["dying"], tid, f"synth{i:03d}")
                if (tid, i) == ("t", 2):
                    assert not os.path.exists(path)
                    continue
                assert filecmp.cmp(path, trace_path(outs["healthy"], tid, f"synth{i:03d}"),
                                   shallow=False), path


class TestTrainAndTrack:
    def test_train_artifacts(self, pipeline):
        out = pipeline["train"]
        assert os.path.exists(os.path.join(out, "student.ckpt"))
        assert os.path.exists(os.path.join(out, "config.ini"))
        with open(os.path.join(out, "train_log.jsonl")) as f:
            rows = [json.loads(line) for line in f]
        assert any("loss" in r for r in rows)

    def test_run_files(self, pipeline):
        files = sorted(os.listdir(pipeline["tras"]))
        assert [f for f in files if f.endswith(".csv") and f != "config.ini"] == [
            f"synth{i:03d}.csv" for i in range(4)
        ]

    def test_summary_csv(self, pipeline):
        with open(os.path.join(pipeline["eval"], "summary.csv")) as f:
            lines = f.read().splitlines()
        assert lines[0] == "tracker,dataset,ao,sr50,sr75,ss,ps"
        assert len(lines) == 2
        fields = lines[1].split(",")
        assert fields[0] == "tras"
        assert 0.0 <= float(fields[2]) <= 1.0

    def test_eval_plot_files(self, pipeline):
        names = os.listdir(pipeline["eval"])
        assert any(n.endswith("_success.csv") for n in names)
        assert any(n.endswith("_precision.csv") for n in names)
        assert any(n.endswith("_videos.json") for n in names)


class TestTrainRun:
    def train(self, pipeline, out, chunks=None, traces=None):
        return main([
            "train", "--config", pipeline["ini"], "--seed", "3", "--out", str(out),
            pipeline["data"], traces or pipeline["traces"],
            chunks or os.path.join(pipeline["filter"], "chunks.json"),
        ])

    def test_short_trace_fails_at_load(self, pipeline, tmp_path, capsys):
        # a trace cut short, as an interrupted save leaves it, is named
        # before any training starts
        traces = tmp_path / "traces"
        shutil.copytree(pipeline["traces"], traces)
        with open(os.path.join(pipeline["filter"], "chunks.json")) as fh:
            first = json.load(fh)["chunks"][0]
        path = trace_path(str(traces), first["teacher"], first["video"])
        with open(path) as fh:
            rows = fh.readlines()
        with open(path, "w") as fh:
            fh.writelines(rows[:20])
        out = tmp_path / "t"
        assert self.train(pipeline, out, traces=str(traces)) == 2
        err = capsys.readouterr().err
        assert path in err
        assert f"trace has 20 boxes, video {first['video']!r} has {len(rows)} frames" in err
        assert not out.exists()

    def test_chunk_entry_without_start_fails_at_load(self, pipeline, tmp_path, capsys):
        with open(os.path.join(pipeline["filter"], "chunks.json")) as fh:
            index = json.load(fh)
        del index["chunks"][1]["start"]
        chunks = tmp_path / "chunks.json"
        chunks.write_text(json.dumps(index))
        out = tmp_path / "t"
        assert self.train(pipeline, out, str(chunks)) == 2
        assert f"{chunks}: chunk entry 1 has no 'start'" in capsys.readouterr().err
        assert not out.exists()

    def test_episode_error_exits_nonzero(self, pipeline, tmp_path, monkeypatch, capsys):
        real = mdp.make_state
        calls = itertools.count()

        def failing_crop(*args):
            if next(calls) == 10:
                raise InvalidInputError("injected crop failure")
            return real(*args)

        monkeypatch.setattr(mdp, "make_state", failing_crop)
        assert self.train(pipeline, tmp_path / "t") == 2
        assert "injected crop failure" in capsys.readouterr().err

    def test_progress_line_per_validation(self, pipeline, tmp_path, capsys):
        # hold one video out of the transfer set so that validation runs
        with open(os.path.join(pipeline["filter"], "chunks.json")) as fh:
            index = json.load(fh)
        index["chunks"] = [c for c in index["chunks"] if c["video"] != "synth003"]
        chunks = tmp_path / "chunks.json"
        chunks.write_text(json.dumps(index))
        assert self.train(pipeline, tmp_path / "t", str(chunks)) == 0
        captured = capsys.readouterr()
        assert "held-out" not in captured.err
        lines = [
            line for line in captured.out.splitlines()
            if re.fullmatch(
                r"update \d+: val AO \d\.\d{4}, best \d\.\d{4}, \d+\.\d upd/s", line
            )
        ]
        with open(tmp_path / "t" / "train_log.jsonl") as fh:
            validations = [e for e in map(json.loads, fh) if e.get("validation")]
        assert len(validations) >= 2
        assert [int(line.split()[1][:-1]) for line in lines] == [
            e["update"] for e in validations
        ]


    def test_warns_once_when_nothing_is_held_out(self, pipeline, tmp_path, capsys):
        # every video of the pipeline keeps a chunk at beta 0.5
        out = tmp_path / "t"
        assert self.train(pipeline, out) == 0
        captured = capsys.readouterr()
        assert captured.err == (
            "warning: no held-out videos (every video has a chunk in the index): "
            "validation, progress lines and early stopping are off; "
            "the final parameters are saved\n"
        )
        ckpt = out / "student.ckpt"
        assert captured.out == f"trained 30 updates -> {ckpt}\n"
        assert filecmp.cmp(ckpt, os.path.join(pipeline["train"], "student.ckpt"),
                           shallow=False)


class TestGradcheck:
    def test_ok_exit_zero(self, pipeline, capsys):
        code = main(["gradcheck", "--config", pipeline["ini"],
                     "--seed", "2", "--samples", "8"])
        assert code == 0
        out = capsys.readouterr().out
        assert "OK" in out
        for kind in ("distill", "policy", "value", "combined"):
            assert kind in out

    def test_fail_exit_three(self, pipeline, capsys, monkeypatch):
        monkeypatch.setattr(cli, "GRADCHECK_TOLERANCE", 0.0)
        code = main(["gradcheck", "--config", pipeline["ini"],
                     "--seed", "2", "--samples", "4"])
        assert code == 3
        assert "FAIL" in capsys.readouterr().err
