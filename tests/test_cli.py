"""End-to-end checks of the command line, driven in process via main()."""

import collections
import filecmp
import inspect
import itertools
import json
import os
import pathlib
import re
import shutil
import sys

import pytest

from trackdistill import cli, mdp, transferset
from trackdistill import video as videomod
from trackdistill.cli import main
from trackdistill.errors import InvalidInputError, NumericError
from trackdistill.model import StudentModel
from trackdistill.teachers import load_trace, run_teacher_on_video, save_trace, trace_path
from trackdistill.trackers import read_trackrun
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


# The echo teacher's drift; on video argv[1] it replies with w = 0 at frame 2.
ZERO_WIDTH_AT_FRAME_2 = r"""
import json, sys
for line in sys.stdin:
    msg = json.loads(line)
    if msg["cmd"] == "init":
        video, t, box = msg["video"], 0, msg["box"]
        print(json.dumps({"ok": True}), flush=True)
        continue
    t += 1
    box = [box[0] + 1.0, box[1], box[2], box[3]]
    reply = [box[0], box[1], 0.0, box[3]] if (video, t) == (sys.argv[1], 2) else box
    print(json.dumps({"box": reply}), flush=True)
"""


def with_value(key, text):
    """SMALL_INI with config key ``<section>.<option>`` set to ``text``."""
    section, option = key.split(".")
    ini = re.sub(rf"^{option} = .*\n", "", SMALL_INI, flags=re.M)
    if f"[{section}]\n" not in ini:
        ini += f"\n[{section}]\n"
    return ini.replace(f"[{section}]\n", f"[{section}]\n{option} = {text}\n")


def count_decodes(monkeypatch):
    """A Counter of the frame rasters decoded, by path, for the rest of the test."""
    decodes = collections.Counter()
    real = videomod.read_ppm

    def counted(path):
        decodes[path] += 1
        return real(path)

    monkeypatch.setattr(videomod, "read_ppm", counted)
    return decodes


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

    def test_non_ascii_groundtruth_names_the_file(self, tmp_path, pipeline, capsys):
        data = tmp_path / "data"
        shutil.copytree(pipeline["data"], data)
        gt = sorted(data.glob("*/groundtruth.csv"))[1]
        gt.write_bytes(gt.read_bytes().replace(b"\n", b"\xff\n", 1))
        code = main(["run-teachers", "--config", pipeline["ini"], "--pool", "oracle:0.9",
                     "--out", str(tmp_path / "t"), str(data)])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {gt}:1: non-ASCII byte in {gt.read_bytes().splitlines()[0]!r}\n"
        )

    def test_non_utf8_track_run_names_the_line(self, tmp_path, pipeline, capsys):
        runs = tmp_path / "tras"
        shutil.copytree(pipeline["tras"], runs)
        path = runs / "synth002.csv"
        lines = path.read_bytes().splitlines(keepends=True)
        lines[2] = lines[2].replace(b",", b"\xff,", 1)
        path.write_bytes(b"".join(lines))
        code = main(["eval", "--config", pipeline["ini"], "--out", str(tmp_path / "eval"),
                     pipeline["data"], str(runs)])
        assert code == 2
        line = lines[2].rstrip(b"\r\n")
        assert capsys.readouterr().err == f"error: {path}:3: non-UTF-8 byte in {line!r}\n"

    def test_non_utf8_chunk_index_names_the_line(self, tmp_path, pipeline, capsys):
        chunks = tmp_path / "chunks.json"
        lines = (pathlib.Path(pipeline["filter"]) / "chunks.json").read_bytes().split(b"\n")
        lines[1] = lines[1] + b"\xff"
        chunks.write_bytes(b"\n".join(lines))
        out = tmp_path / "t"
        code = main(["train", "--config", pipeline["ini"], "--seed", "3", "--out", str(out),
                     pipeline["data"], pipeline["traces"], str(chunks)])
        assert code == 2
        assert capsys.readouterr().err == f"error: {chunks}:2: non-UTF-8 byte in {lines[1]!r}\n"
        assert not out.exists()

    @pytest.mark.parametrize("text", [b"[train]\nlr = 5%6\n", b"[train]\nlr = 1e-4\xff\n"],
                             ids=["percent", "not_utf8"])
    def test_unreadable_config_names_the_file(self, tmp_path, capsys, text):
        ini = tmp_path / "bad.ini"
        ini.write_bytes(text)
        code = main(["gen-data", "--config", str(ini), "--seed", "1",
                     "--out", str(tmp_path / "d")])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {ini}: ")
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("case", [
        ("filter", "eval.beta", "0.3", "beta must lie in [0.5, 1), got 0.3"),
        ("filter", "--beta", "0.3", "beta must lie in [0.5, 1), got 0.3"),
        ("trast", "eval.evaluator", "bogus", "unknown evaluator 'bogus'"),
        ("eval", "eval.dataset_id", "a/b", "bad dataset id 'a/b'"),
        ("train", "train.initial_horizon", "0", "initial horizon must be >= 1"),
        ("train", "env.context", "0.0", "context must be positive, got 0.0"),
        ("track", "env.context", "0.0", "context must be positive, got 0.0"),
        ("gen-data", "env.num_videos", "-3", "num_videos must be >= 1, got -3"),
        ("track", "model.conv_channels", "-4,8", "conv stages need at least 1 channel, "
                                                 "got (-4, 8)"),
        ("train", "model.conv_channels", "0,8", "conv stages need at least 1 channel, "
                                                "got (0, 8)"),
        ("train", "train.patience", "0", "patience must be >= 1, got 0"),
        # the keys of the retired pool encoder
        ("gen-data", "model.encoder", "conv", "unknown config key 'model.encoder'"),
        ("train", "model.pool_factor", "4", "unknown config key 'model.pool_factor'"),
        ("track", "model.pool_dim", "32", "unknown config key 'model.pool_dim'"),
        ("filter", "short-trace", "", None),
    ], ids=lambda case: f"{case[0]}:{case[1]}")
    def test_bad_value_writes_nothing(self, tmp_path, pipeline, capsys, case):
        # each fails before its command writes: the error names the config
        # file, the --beta value or the cut trace
        command, key, text, message = case
        ini, out, traces = tmp_path / "bad.ini", str(tmp_path / "out"), pipeline["traces"]
        ini.write_text(SMALL_INI if "." not in key else with_value(key, text))
        flags = ["--config", str(ini), "--out", out]
        if key == "--beta":
            flags += ["--beta", text]
        if key == "short-trace":
            traces = str(tmp_path / "traces")
            shutil.copytree(pipeline["traces"], traces)
            path = trace_path(traces, "oracle0.9", "synth002")
            with open(path) as fh:
                rows = fh.readlines()
            with open(path, "w") as fh:
                fh.writelines(rows[:-1])
            message = (f"trace 'oracle0.9'/'synth002' has {len(rows) - 1} boxes, "
                       f"video has {len(rows)} frames")
        ckpt = os.path.join(pipeline["train"], "student.ckpt")
        argv = {
            "filter": ["filter", *flags, pipeline["data"], traces],
            "trast": ["track", *flags, "--mode", "trast", ckpt, pipeline["data"]],
            "track": ["track", *flags, ckpt, pipeline["data"]],
            "eval": ["eval", *flags, pipeline["data"], pipeline["tras"]],
            "train": ["train", *flags, "--seed", "3", pipeline["data"], traces,
                      os.path.join(pipeline["filter"], "chunks.json")],
            "gen-data": ["gen-data", *flags, "--seed", "1"],
        }[command]
        assert main(argv) == 2
        where = f"{ini}: " if "." in key else ""
        assert capsys.readouterr().err == f"error: {where}{message}\n"
        assert not os.path.exists(out)

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

    def test_filter_reruns_from_its_config(self, tmp_path, pipeline):
        # --beta is echoed into config.ini, so a rerun from that file keeps it
        first, second = tmp_path / "first", tmp_path / "second"
        assert main(["filter", "--config", pipeline["ini"], "--beta", "0.7",
                     "--out", str(first), pipeline["data"], pipeline["traces"]]) == 0
        assert main(["filter", "--config", str(first / "config.ini"),
                     "--out", str(second), pipeline["data"], pipeline["traces"]]) == 0
        assert json.loads((first / "chunks.json").read_text())["beta"] == 0.7
        for name in ("chunks.json", "transfer_stats.csv", "config.ini"):
            assert filecmp.cmp(first / name, second / name, shallow=False), name

    def test_run_teachers_and_filter_decode_no_raster(self, tmp_path, pipeline, monkeypatch):
        # the oracle reads boxes, the child reads the frame files itself and
        # the filter scores boxes
        decodes = count_decodes(monkeypatch)
        script = tmp_path / "echo.py"
        script.write_text(ECHO_TEACHER)
        pool = f"oracle:0.9,ext=extern:ext:{sys.executable} {script}"
        traces = str(tmp_path / "traces")
        assert main(["run-teachers", "--config", pipeline["ini"], "--pool", pool,
                     "--out", traces, pipeline["data"]]) == 0
        assert main(["filter", "--config", pipeline["ini"], "--pool", pool,
                     "--out", str(tmp_path / "filter"), pipeline["data"], traces]) == 0
        assert not decodes

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


class TestDegenerateBoxes:
    """A box with a side that is not positive is rejected where it enters:
    from a teacher, as a contained teacher failure; from a file, naming the
    line."""

    def zero_width(self, tmp_path, tid="t"):
        script = tmp_path / "zero.py"
        script.write_text(ZERO_WIDTH_AT_FRAME_2)
        return f"{tid}=extern:{tid}:{sys.executable} {script} synth001"

    def echo(self, tmp_path, tid="t"):
        script = tmp_path / "echo.py"
        script.write_text(ECHO_TEACHER)
        return f"{tid}=extern:{tid}:{sys.executable} {script}"

    def test_run_teachers_quarantines_the_teacher(self, tmp_path, pipeline, capsys):
        out = str(tmp_path / "traces")
        code = main(["run-teachers", "--config", pipeline["ini"],
                     "--pool", f"{self.zero_width(tmp_path)},oracle:0.9",
                     "--out", out, pipeline["data"]])
        assert code == 0
        captured = capsys.readouterr()
        assert captured.out.endswith("(1 failures quarantined)\n")
        assert captured.err.startswith(
            "warning: t failed on synth001: teacher 't': bad box in reply: "
            "box side is not positive: w=0.0, h="
        )
        assert os.listdir(os.path.join(out, ".failed", "t")) == ["synth001.csv"]
        partial = load_trace(os.path.join(out, ".failed"), "t", "synth001").boxes
        assert len(partial) == 2  # the start box and frame 1's
        for video in load_dataset(pipeline["data"]):
            assert len(load_trace(out, "oracle0.9", video.video_id).boxes) == len(video)
            if video.video_id != "synth001":
                assert len(load_trace(out, "t", video.video_id).boxes) == len(video)
        assert not os.path.exists(trace_path(out, "t", "synth001"))

    @pytest.mark.parametrize("command", ["trast", "fuse"])
    def test_tracking_makes_one_partial_run(self, tmp_path, pipeline, capsys, command):
        # beside the partial run, each run is the one an echo teacher gives
        ckpt = os.path.join(pipeline["train"], "student.ckpt")
        outs = {}
        for name, spec in (("zero", self.zero_width(tmp_path)), ("echo", self.echo(tmp_path))):
            outs[name] = tmp_path / name
            if command == "trast":
                argv = ["track", "--mode", "trast", "--teacher", spec]
            else:
                argv = ["fuse", "--pool", f"oracle:0.9,{spec}"]
            assert main([*argv, "--config", pipeline["ini"], "--out", str(outs[name]),
                         ckpt, pipeline["data"]]) == 0
        tracker = "trast" if command == "trast" else "trasfust"
        err = capsys.readouterr().err
        assert err.startswith(f"warning: {tracker} aborted on synth001: teacher 't': bad box in "
                              "reply: box side is not positive: w=0.0, h=")
        assert err.endswith("; quarantined\n") and err.count("\n") == 1
        assert os.listdir(outs["zero"] / ".failed") == ["synth001.csv"]
        partial = read_trackrun(str(outs["zero"] / ".failed" / "synth001.csv"))
        assert len(partial.boxes) == 1  # frame 1; frame 2 has no teacher box
        assert sorted(os.listdir(outs["zero"])) == [
            ".failed", "config.ini", "synth000.csv", "synth002.csv", "synth003.csv"]
        for name in ("synth000.csv", "synth002.csv", "synth003.csv"):
            assert filecmp.cmp(outs["zero"] / name, outs["echo"] / name, shallow=False), name

    def test_groundtruth_line_names_the_line(self, tmp_path, pipeline, capsys):
        data = tmp_path / "data"
        shutil.copytree(pipeline["data"], data)
        gt = data / "synth002" / "groundtruth.csv"
        lines = gt.read_text().splitlines(keepends=True)
        x, y, _w, h = lines[1].split(",")
        lines[1] = f"{x},{y},0,{h}"
        gt.write_text("".join(lines))
        code = main(["run-teachers", "--config", pipeline["ini"], "--pool", "oracle:0.9",
                     "--out", str(tmp_path / "t"), str(data)])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {gt}:2: box side is not positive: w=0.0, h={float(h)!r}\n"
        )


class TestTrainAndTrack:
    def test_train_artifacts(self, pipeline):
        out = pipeline["train"]
        assert os.path.exists(os.path.join(out, "student.ckpt"))
        assert os.path.exists(os.path.join(out, "config.ini"))
        with open(os.path.join(out, "train_log.jsonl")) as f:
            rows = [json.loads(line) for line in f]
        assert any("loss" in r for r in rows)

    @pytest.mark.parametrize("command", ["track", "fuse"])
    def test_tracking_decodes_each_frame_once(self, tmp_path, pipeline, monkeypatch, command):
        decodes = count_decodes(monkeypatch)
        pool = ["--pool", "oracle:0.9,oracle:0.6"] if command == "fuse" else []
        assert main([command, "--config", pipeline["ini"], *pool, "--out", str(tmp_path / "runs"),
                     os.path.join(pipeline["train"], "student.ckpt"), pipeline["data"]]) == 0
        assert len(decodes) == 4 * 40 and set(decodes.values()) == {1}

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

    def test_eval_excludes_a_video_without_run_file(self, pipeline, tmp_path, capsys):
        runs = tmp_path / "tras"
        shutil.copytree(pipeline["tras"], runs)
        os.remove(runs / "synth001.csv")
        out = tmp_path / "eval"
        capsys.readouterr()
        assert main(["eval", "--config", pipeline["ini"], "--out", str(out),
                     pipeline["data"], str(runs)]) == 0
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("warning: tras ") and "'synth001'" in line
        [name] = [n for n in os.listdir(pipeline["eval"]) if n.endswith("_videos.json")]
        with open(os.path.join(pipeline["eval"], name)) as f:
            every = json.load(f)["videos"]
        with open(out / name) as f:
            scored = json.load(f)
        assert scored["excluded"] == ["synth001"]
        assert sorted(scored["videos"]) == ["synth000", "synth002", "synth003"]
        ao = sum(every[vid]["ao"] for vid in scored["videos"]) / 3
        with open(out / "summary.csv") as f:
            assert f.read().splitlines()[1].split(",")[2] == f"{ao:.6f}"

    def test_eval_stdout_matches_summary_csv(self, pipeline, tmp_path, capsys):
        out = tmp_path / "eval"
        capsys.readouterr()
        assert main(["eval", "--config", pipeline["ini"], "--out", str(out),
                     pipeline["data"], pipeline["tras"]]) == 0
        [line] = capsys.readouterr().out.splitlines()
        with open(out / "summary.csv") as f:
            header, row = f.read().splitlines()
        name, scores = line.split(": ")
        tracker, dataset = row.split(",")[:2]
        assert name == f"{tracker}/{dataset}"
        with open(out / f"{tracker}_{dataset}_videos.json") as f:
            aggregate = json.load(f)["aggregate"]
        words = scores.split()
        columns = header.split(",")[2:]
        assert words[0::2] == [c.upper() for c in columns]
        for column, printed, stored in zip(columns, words[1::2], row.split(",")[2:]):
            # both round the one aggregate: stdout to 4 decimals, the CSV to 6
            assert printed == f"{aggregate[column]:.4f}"
            assert stored == f"{aggregate[column]:.6f}"
            assert abs(float(printed) - float(stored)) <= 0.5e-4 + 0.5e-6

    def test_eval_rejects_runs_that_share_a_tracker_id(self, pipeline, tmp_path, capsys):
        # two rows named tras, and the second run's plot files over the first's
        other = tmp_path / "b" / "tras"
        shutil.copytree(pipeline["tras"], other)
        out = tmp_path / "eval"
        assert main(["eval", "--config", pipeline["ini"], "--out", str(out),
                     pipeline["data"], pipeline["tras"], f"{other}/"]) == 2
        assert capsys.readouterr().err == (
            f"error: run directories {pipeline['tras']!r} and '{other}/' share the "
            f"tracker id 'tras'\n"
        )
        assert not out.exists()

    def test_track_writes_each_run_when_it_is_done(self, pipeline, tmp_path, monkeypatch,
                                                   capsys):
        real, calls = cli.tras, itertools.count()

        def failing_third(video, *args):
            if next(calls) == 2:
                raise NumericError(f"injected on {video.video_id}")
            return real(video, *args)

        monkeypatch.setattr(cli, "tras", failing_third)
        out = tmp_path / "tras"
        assert main(["track", "--config", pipeline["ini"], "--out", str(out),
                     os.path.join(pipeline["train"], "student.ckpt"), pipeline["data"]]) == 3
        assert capsys.readouterr().err == "error: injected on synth002\n"
        assert sorted(os.listdir(out)) == ["config.ini", "synth000.csv", "synth001.csv"]
        for name in ("synth000.csv", "synth001.csv"):
            assert filecmp.cmp(out / name, os.path.join(pipeline["tras"], name), shallow=False)

    def eval_edited_run(self, pipeline, tmp_path, capsys, edit):
        """Exit code and stderr of eval over the tras runs, with synth002's
        rows (lists of cells, the header first) passed through ``edit``."""
        runs = tmp_path / "tras"
        shutil.copytree(pipeline["tras"], runs)
        path = runs / "synth002.csv"
        rows = edit([line.split(",") for line in path.read_text().splitlines()])
        path.write_text("".join(",".join(cells) + "\n" for cells in rows))
        capsys.readouterr()
        code = main(["eval", "--config", pipeline["ini"], "--out", str(tmp_path / "eval"),
                     pipeline["data"], str(runs)])
        return code, capsys.readouterr().err, path

    @pytest.mark.parametrize("line,column,text", [
        (2, 6, "abc"),  # a value cell that is not a number
        (3, 1, "inf"),  # a box field that is not finite
    ], ids=["value", "box"])
    def test_eval_names_the_bad_cell(self, pipeline, tmp_path, capsys, line, column, text):
        def edit(rows):
            rows[line - 1][column] = text
            return rows

        code, err, path = self.eval_edited_run(pipeline, tmp_path, capsys, edit)
        assert code == 2 and err.startswith(f"error: {path}:{line}: "), err

    @pytest.mark.parametrize("columns", [["v_a", "v_a"], ["a"]], ids=["duplicate", "unnamed"])
    def test_eval_names_the_bad_header(self, pipeline, tmp_path, capsys, columns):
        # every row carries a value for each added column, so only the header is wrong
        def edit(rows):
            return [rows[0] + columns] + [row + ["0.5"] * len(columns) for row in rows[1:]]

        code, err, path = self.eval_edited_run(pipeline, tmp_path, capsys, edit)
        assert code == 2 and err.startswith(f"error: {path}:1: "), err

    @pytest.mark.parametrize("damage", ["corrupt", "short"])
    def test_trast_contains_a_bad_trace_file(self, pipeline, tmp_path, capsys, damage):
        # a trace: teacher's bad file fails its video alone; the other 3 are tracked
        traces = tmp_path / "traces"
        shutil.copytree(pipeline["traces"], traces)
        path = trace_path(str(traces), "oracle0.9", "synth001")
        with open(path) as fh:
            rows = fh.readlines()
        if damage == "corrupt":
            rows[5] = "1,2,abc,4\n"
            why = f"{path}:6: non-numeric box field in '1,2,abc,4'"
        else:
            rows = rows[:20]
            why = "trace for 'synth001' has 20 boxes, video has 40 frames"
        with open(path, "w") as fh:
            fh.writelines(rows)
        out = tmp_path / "trast"
        assert main(["track", "--config", pipeline["ini"], "--mode", "trast",
                     "--teacher", f"trace:{traces}:oracle0.9", "--out", str(out),
                     os.path.join(pipeline["train"], "student.ckpt"), pipeline["data"]]) == 0
        captured = capsys.readouterr()
        assert captured.out == f"trast: 3/4 videos tracked into {out}\n"
        assert captured.err == (
            f"warning: trast aborted on synth001: teacher 'oracle0.9': {why}; quarantined\n"
        )
        assert sorted(os.listdir(out)) == [
            ".failed", "config.ini", "synth000.csv", "synth002.csv", "synth003.csv"]

    def test_eval_plot_files(self, pipeline):
        names = os.listdir(pipeline["eval"])
        assert any(n.endswith("_success.csv") for n in names)
        assert any(n.endswith("_precision.csv") for n in names)
        assert any(n.endswith("_videos.json") for n in names)


class TestTrainRun:
    def train(self, pipeline, out, chunks=None, traces=None, config=None):
        return main([
            "train", "--config", config or pipeline["ini"], "--seed", "3", "--out", str(out),
            pipeline["data"], traces or pipeline["traces"],
            chunks or os.path.join(pipeline["filter"], "chunks.json"),
        ])

    def test_decodes_each_frame_at_most_once(self, pipeline, tmp_path, monkeypatch, capsys):
        # chunks overlap in frames, and each validation tracks the held-out video
        with open(os.path.join(pipeline["filter"], "chunks.json")) as fh:
            index = json.load(fh)
        index["chunks"] = [c for c in index["chunks"] if c["video"] != "synth003"]
        chunks = tmp_path / "chunks.json"
        chunks.write_text(json.dumps(index))
        decodes = count_decodes(monkeypatch)
        assert self.train(pipeline, tmp_path / "t", str(chunks)) == 0
        held_out = [p for p in decodes if os.sep + "synth003" + os.sep in p]
        assert len(held_out) == 40 and set(decodes.values()) == {1}

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

    def test_chunk_length_below_2_fails_at_load(self, pipeline, tmp_path, capsys):
        # an episode needs 2 frames; the index that cuts 1-frame chunks is named
        with open(os.path.join(pipeline["filter"], "chunks.json")) as fh:
            index = json.load(fh)
        index["length"] = 1
        chunks = tmp_path / "chunks.json"
        chunks.write_text(json.dumps(index))
        out = tmp_path / "t"
        assert self.train(pipeline, out, str(chunks)) == 2
        assert capsys.readouterr().err == (
            f"error: {chunks}: chunk length 1 is not a positive integer >= 2\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("key, text, message", [
        ("returns", "bogus", "unknown returns mode 'bogus'"),
        ("optimizer", "rmsprop", "unknown optimizer 'rmsprop'"),
        ("lr", "0.0", "learning rate must be positive"),
        ("t_max", "0", "t_max must be >= 1"),
        ("gamma", "0.0", "gamma must be in (0, 1]"),
        ("workers", "1", "need at least 2 workers for the even split, got 1"),
    ])
    def test_bad_train_value_writes_nothing(self, pipeline, tmp_path, capsys, key, text,
                                            message):
        ini = tmp_path / "bad.ini"
        ini.write_text(with_value(f"train.{key}", text))
        out = tmp_path / "t"
        assert self.train(pipeline, out, config=str(ini)) == 2
        assert capsys.readouterr().err == f"error: {ini}: {message}\n"
        assert not out.exists()

    def test_missing_trace_names_the_index_entry(self, pipeline, tmp_path, capsys):
        with open(os.path.join(pipeline["filter"], "chunks.json")) as fh:
            entries = json.load(fh)["chunks"]
        last = entries[-1]
        i = next(k for k, e in enumerate(entries)  # the first entry that needs its trace
                 if (e["teacher"], e["video"]) == (last["teacher"], last["video"]))
        traces = tmp_path / "traces"
        shutil.copytree(pipeline["traces"], traces)
        path = trace_path(str(traces), last["teacher"], last["video"])
        os.remove(path)
        chunks = os.path.join(pipeline["filter"], "chunks.json")
        out = tmp_path / "t"
        assert self.train(pipeline, out, traces=str(traces)) == 2
        assert capsys.readouterr().err == (
            f"error: {chunks}: chunk entry {i}: teacher {last['teacher']!r}: "
            f"no trace file {path}\n"
        )
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
            "validation and early stopping are off; the final parameters are saved\n"
        )
        ckpt = out / "student.ckpt"
        # a progress line every val_every (15) updates, with no score
        assert re.fullmatch(
            rf"update 15: \d+\.\d upd/s\nupdate 30: \d+\.\d upd/s\n"
            rf"trained 30 updates -> {re.escape(str(ckpt))}\n",
            captured.out,
        )
        assert filecmp.cmp(ckpt, os.path.join(pipeline["train"], "student.ckpt"),
                           shallow=False)

    @staticmethod
    def poison_gradients(monkeypatch, poisoned):
        """A NaN in the gradient of each window whose call index ``poisoned``
        picks; more than 100 windows end the run with an AssertionError."""
        backward, calls = StudentModel.backward_window, itertools.count()

        def spy(model, params, caches, dmus, dvalues):
            call = next(calls)
            assert call < 100, "the run goes on after 100 windows"
            grad = backward(model, params, caches, dmus, dvalues)
            if poisoned(call):
                grad[0] = float("nan")
            return grad

        monkeypatch.setattr(StudentModel, "backward_window", spy)

    def test_rejected_updates_end_the_last_line(self, pipeline, tmp_path, monkeypatch, capsys):
        self.poison_gradients(monkeypatch, lambda call: call == 1)
        out = tmp_path / "t"
        assert self.train(pipeline, out) == 0
        ckpt = out / "student.ckpt"
        lines = capsys.readouterr().out.splitlines()  # progress lines, then the last
        assert lines[-1] == f"trained 30 updates -> {ckpt}, 1 rejected"

    def test_every_gradient_rejected_exits_3(self, pipeline, tmp_path, monkeypatch, capsys):
        self.poison_gradients(monkeypatch, lambda call: True)
        out = tmp_path / "t"
        assert self.train(pipeline, out) == 3
        assert re.fullmatch(
            r"error: worker \d on synth\d{3} \(chunk start \d+\), window \d: 2 turns in a "
            r"row applied no update; the last gradient has 1 non-finite element\(s\), the "
            r"first in enc\.conv0\.W\[0\]\n",
            capsys.readouterr().err.splitlines(keepends=True)[-1],
        )
        with open(out / "train_log.jsonl") as fh:
            assert [json.loads(line)["rejected"] for line in fh] == [True, True]


class TestGradcheck:
    def test_ok_exit_zero(self, pipeline, capsys):
        code = main(["gradcheck", "--config", pipeline["ini"],
                     "--seed", "2", "--samples", "8"])
        assert code == 0
        out = capsys.readouterr().out
        assert "OK" in out
        for kind in ("distill", "policy", "value", "combined"):
            assert kind in out

    def test_checks_the_configured_objective(self, tmp_path, capsys, monkeypatch):
        configured = {"gamma": 0.9, "returns_mode": "prefix-sum", "rl_scale": 0.5,
                      "weight_decay": 0.01}
        ini = tmp_path / "objective.ini"
        ini.write_text(SMALL_INI + "gamma = 0.9\nreturns = prefix-sum\nrl_scale = 0.5\n"
                       "weight_decay = 0.01\n")
        real, seen = cli.window_loss_fn, []

        def recording(*args, **kwargs):
            bound = inspect.signature(real).bind(*args, **kwargs)
            seen.append({name: bound.arguments.get(name) for name in configured})
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "window_loss_fn", recording)
        assert main(["gradcheck", "--config", str(ini), "--seed", "2", "--samples", "4"]) == 0
        assert seen == [configured] * 4

    def test_fail_exit_three(self, pipeline, capsys, monkeypatch):
        monkeypatch.setattr(cli, "GRADCHECK_TOLERANCE", 0.0)
        code = main(["gradcheck", "--config", pipeline["ini"],
                     "--seed", "2", "--samples", "4"])
        assert code == 3
        assert "FAIL" in capsys.readouterr().err
