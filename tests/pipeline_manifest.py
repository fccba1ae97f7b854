"""The whole command line at test size, and the manifest of what it writes.

``run(workspace)`` runs every command in process through ``cli.main``:
gen-data; run-teachers with two oracles and the echo ``extern:`` teacher;
filter at a beta that leaves a video without a chunk, so that train
validates; train; filter at the default beta, which keeps a chunk of every
video, and train on that index, which saves the parameters its updates
moved; track with tras, then with trast and the echo teacher;
fuse over all three teachers; eval of the three run directories;
gradcheck; and a failing leg, a teacher that dies at frame 3 run through
run-teachers and fuse. It returns the manifest: the sha256 of every file
written under ``<workspace>/out``, and each command's exit code, stdout and
stderr. In the text, the workspace path reads ``<ws>`` and train's updates
per second read ``<rate>``, the one figure that depends on the clock.

tests/test_pipeline_bytes.py compares a run against pipeline_manifest.json.
To rewrite that file from this tree, run from the repository root:

    PYTHONPATH=src python tests/pipeline_manifest.py

It prints what differs from the file it replaces: the changed file paths
and command fields, one a line. A change that alters output bytes on
purpose rewrites it and lists those entries.
"""

import contextlib
import hashlib
import io
import json
import os
import platform
import re
import sys

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from trackdistill.cli import main  # noqa: E402

from test_cli import SMALL_INI  # noqa: E402
from test_teachers import DIES_AT_FRAME_3, ECHO_TEACHER  # noqa: E402

MANIFEST = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pipeline_manifest.json")
RATE = re.compile(r"\d+\.\d upd/s")


def versions() -> dict:
    """The numpy and BLAS builds the model's digests were computed with."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "machine": platform.machine(),
    }


def commands(ws: str) -> list:
    """(name, argv) of every command, in order, over workspace ``ws``."""
    inp, out = os.path.join(ws, "in"), os.path.join(ws, "out")
    cfg = ["--config", os.path.join(inp, "small.ini")]
    o = lambda *parts: os.path.join(out, *parts)
    teacher = lambda name: f"{name}=extern:{name}:{sys.executable} {os.path.join(inp, name)}.py"
    ckpt = o("train", "student.ckpt")
    pool = f"oracle:0.9,oracle:0.6,{teacher('echo')}"
    dying = f"{teacher('dies')},oracle:0.9"
    return [
        ("gen-data", ["gen-data", *cfg, "--seed", "9", "--out", o("data")]),
        ("run-teachers", ["run-teachers", *cfg, "--pool", pool, "--out", o("traces"), o("data")]),
        ("filter", ["filter", *cfg, "--pool", pool, "--beta", "0.83", "--out", o("filter"),
                    o("data"), o("traces")]),
        ("train", ["train", *cfg, "--seed", "3", "--out", o("train"), o("data"), o("traces"),
                   o("filter", "chunks.json")]),
        ("filter-all", ["filter", *cfg, "--pool", pool, "--out", o("filter-all"), o("data"),
                        o("traces")]),
        ("train-all", ["train", *cfg, "--seed", "3", "--out", o("train-all"), o("data"),
                       o("traces"), o("filter-all", "chunks.json")]),
        ("track-tras", ["track", *cfg, "--out", o("runs", "tras"), ckpt, o("data")]),
        ("track-trast", ["track", *cfg, "--mode", "trast", "--teacher", teacher("echo"),
                         "--out", o("runs", "trast"), ckpt, o("data")]),
        ("fuse", ["fuse", *cfg, "--pool", pool, "--out", o("runs", "trasfust"), ckpt, o("data")]),
        ("eval", ["eval", *cfg, "--out", o("eval"), o("data"), o("runs", "tras"),
                  o("runs", "trast"), o("runs", "trasfust")]),
        ("gradcheck", ["gradcheck", *cfg, "--seed", "2", "--samples", "8"]),
        ("run-teachers-dying", ["run-teachers", *cfg, "--pool", dying, "--out", o("dying"),
                                o("data")]),
        ("fuse-dying", ["fuse", *cfg, "--pool", dying, "--out", o("runs-dying"), ckpt,
                        o("data")]),
    ]


def run(workspace) -> dict:
    """Run the pipeline in the empty directory ``workspace``; its manifest."""
    ws = str(workspace)
    inp = os.path.join(ws, "in")
    os.makedirs(inp)
    for name, text in (("small.ini", SMALL_INI), ("echo.py", ECHO_TEACHER),
                       ("dies.py", DIES_AT_FRAME_3)):
        with open(os.path.join(inp, name), "w") as fh:
            fh.write(text)
    text = lambda s: RATE.sub("<rate> upd/s", s.replace(ws, "<ws>"))
    runs = {}
    for name, argv in commands(ws):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
        runs[name] = {"exit": code, "stdout": text(stdout.getvalue()),
                      "stderr": text(stderr.getvalue())}
    out = os.path.join(ws, "out")
    files = {}
    for root, _dirs, names in os.walk(out):
        for n in names:
            path = os.path.join(root, n)
            with open(path, "rb") as fh:
                files[os.path.relpath(path, out)] = hashlib.sha256(fh.read()).hexdigest()
    return {"versions": versions(), "commands": runs, "files": dict(sorted(files.items()))}


def differences(want: dict, got: dict) -> list:
    """What differs between two manifests: file paths, then command fields."""
    out = [path for path in sorted(set(want["files"]) | set(got["files"]))
           if want["files"].get(path) != got["files"].get(path)]
    for name in sorted(want["commands"].keys() | got["commands"].keys()):
        a, b = want["commands"].get(name, {}), got["commands"].get(name, {})
        out += [f"{name} {field}" for field in ("exit", "stdout", "stderr")
                if a.get(field) != b.get(field)]
    return out


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        manifest = run(tmp)
    old = {"versions": {}, "commands": {}, "files": {}}
    if os.path.exists(MANIFEST):
        with open(MANIFEST) as fh:
            old = json.load(fh)
    with open(MANIFEST, "w") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {MANIFEST}: {len(manifest['files'])} files, "
          f"{len(manifest['commands'])} commands")
    changed = differences(old, manifest)
    if old["versions"] != manifest["versions"]:
        changed.insert(0, "versions")
    print(f"{len(changed)} changed" + "".join(f"\n  {entry}" for entry in changed))
