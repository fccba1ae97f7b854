"""Smoke test of the benchmark: every workload at a tiny size, untraced and traced.

    python3 -m pytest perfbench/test_smoke.py

It checks that each run passes its output checks, that the result line holds
exactly the metrics BENCHMARK.json names with their units, and that the
report prints every named end-to-end metric with its unit and sample count.
"""

import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("train", "track", "capture")
NAMED = {
    "train": ("train.updates_per_s", "train.env_steps_per_s"),
    "track": ("tras.frames_per_s", "trast.frames_per_s", "trasfust.frames_per_s"),
    "capture": ("capture.frames_per_s",),
}


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _run(trace: int, cwd: str = ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", "all",
           "--seed", "3", "--seconds", "0.5", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def _sections(stdout: str):
    """Split ``--workload all`` output into (report text, result) per workload."""
    sections, text = [], []
    for line in stdout.splitlines():
        if line.startswith("{"):
            sections.append(("\n".join(text), json.loads(line)))
            text = []
        else:
            text.append(line)
    return sections


def _check_sections(proc, wanted_metrics):
    assert proc.returncode == 0, proc.stderr[-3000:]
    sections = _sections(proc.stdout)
    assert len(sections) == len(WORKLOADS)
    for workload, (text, result) in zip(WORKLOADS, sections):
        assert "workload %s," % workload in text
        assert result["correct"] is True, text
        assert result["attempted"] >= 1 and result["failed"] == 0, text
        assert "FAIL" not in text
        assert re.search(r"check \S+: PASS", text)
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == wanted_metrics
        for name in ("setup_s", "peak_rss_mb", "ops_per_s"):
            assert re.search(r"\b%s = \S+ \S+ +\(.*n=\d+" % re.escape(name), text), name
        assert re.search(r"ops_failed_ratio = 0 +\(0 failed / \d+ attempted\)", text)
        for name in NAMED[workload]:
            assert re.search(r"\b%s = \S+ 1/s +\(.*n=\d+" % re.escape(name), text), name
    return sections


def test_untraced_runs_print_end_to_end_metrics():
    spec = _spec()
    _check_sections(_run(0), {m["name"]: m["unit"] for m in spec["end_to_end"]})


def test_traced_runs_print_per_layer_metrics():
    spec = _spec()
    sections = _check_sections(_run(1), {m["name"]: m["unit"] for m in spec["per_layer"]})
    for workload, (text, _) in zip(WORKLOADS, sections):
        assert "layer trace_overhead.ops_per_s" in text
        # training threads make the checkpoint nondeterministic, so only the
        # deterministic workloads compare traced and untraced outputs
        if workload != "train":
            assert "check traced_matches_untraced: PASS" in text


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
