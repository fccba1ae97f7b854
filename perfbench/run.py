#!/usr/bin/env python3
"""The repository benchmark: ``train``, ``track`` and ``capture`` workloads.

    python3 perfbench/run.py --workload train --seed 1 --seconds 30 --trace 0

runs one workload in this process: it sets the workload up five times
(untimed; the median is ``setup_s``), then runs timed passes until
``--seconds`` have passed (``ops_per_s`` is the median of the per-pass
rates), checks every pass's outputs and prints one line per metric, then a
JSON result as the last line:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json.
With ``--trace 1`` the run spends half its seconds on untraced passes and
half on traced ones, the result holds the per-layer metrics instead (with
the tracing overhead as traced minus untraced ``ops_per_s``), and the spans
are written to ``.perfbench/spans-<workload>.jsonl``. Each run leaves its
inputs and outputs in ``.perfbench/<workload>-*/``; remove ``.perfbench/``
when done. ``--workload all`` runs the three workloads one after another,
each in its own process, and ``--size tiny`` shrinks the inputs for a smoke
test.

The program is imported from ``src/`` next to this directory; without it
the benchmark exits with status 2 and prints no result. BLAS threads are
pinned to one before numpy loads, so the benchmark itself keeps to at most
``nproc`` busy threads apart from the program's 8 training workers.
"""

import os

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402

from tracing import PROTOCOLS, Tracer, layer_metrics, percentile, tail_percentile  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
WORKLOAD_NAMES = ("train", "track", "capture")
SETUPS = 5

# name -> unit, in BENCHMARK.json order
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ops_per_s": "1/s",
}
OPERATION = {
    "train": "applied update",
    "track": "predicted frame, over tras+trast+trasfust",
    "capture": "teacher frame predicted",
}
# The issue's named end-to-end rates; each is reported on its own workload and
# as a per-layer metric of traced runs (zero on the other workloads).
NAMED_RATES = (
    "train.updates_per_s",
    "train.env_steps_per_s",
    "tras.frames_per_s",
    "trast.frames_per_s",
    "trasfust.frames_per_s",
    "capture.frames_per_s",
)


class ThreadErrors:
    """A threading.excepthook that counts uncaught worker-thread exceptions
    and still prints them."""

    def __init__(self):
        self.count = 0
        self._lock = threading.Lock()
        self._previous = threading.excepthook

    def __call__(self, args):
        with self._lock:
            self.count += 1
        self._previous(args)


def environment() -> dict:
    import numpy

    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = "%s %s" % (blas.get("name", "?"), blas.get("version", "?"))
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    env = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu or platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
    }
    env.update({var: os.environ.get(var) for var in BLAS_THREAD_VARS})
    return env


def measure(bench, seconds: float, tracer, thread_errors: ThreadErrors) -> dict:
    """Timed passes until ``seconds`` have passed (at least one)."""
    errors_before = thread_errors.count
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(bench.run_pass(tracer))
    rates = {}
    for p in passes:
        for name, (count, secs) in p.rates.items():
            total = rates.setdefault(name, [0, 0.0, []])
            total[0] += count
            total[1] += secs
            total[2].append(count / secs if secs > 0 else 0.0)
    timings = {}
    for p in passes:
        for name, values in p.timings_ms.items():
            timings.setdefault(name, []).extend(values)
    checks = {}
    for p in passes:
        for name, ok, detail in p.checks:
            if checks.get(name, (True,))[0]:  # keep the first failure's detail
                checks[name] = (ok, detail)
    fingerprints = sorted({p.fingerprint for p in passes})
    if passes[0].fingerprint:
        checks["passes_agree"] = (len(fingerprints) == 1, " | ".join(fingerprints))
    pass_ops_per_s = [p.ops / p.wall_s for p in passes]
    return {
        "passes": len(passes),
        "ops": sum(p.ops for p in passes),
        "wall_s": sum(p.wall_s for p in passes),
        "ops_per_s": statistics.median(pass_ops_per_s),
        "pass_ops_per_s": pass_ops_per_s,
        "rates": rates,
        "timings": timings,
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes) + thread_errors.count - errors_before,
        "checks": checks,
        "fingerprint": fingerprints[0],
    }


def print_block(label: str, block: dict) -> None:
    print("%s: %d passes, %d ops in %.3f s" % (label, block["passes"], block["ops"], block["wall_s"]))
    for name, (count, secs, per_pass) in block["rates"].items():
        print("  %s = %.6g 1/s  (median of n=%d passes; overall %d in %.3f s)"
              % (name, statistics.median(per_pass), len(per_pass), count, secs))
    for name, values in block["timings"].items():
        ordered = sorted(values)
        label_t, tail = tail_percentile(ordered)
        print("  %s: p50 %.4g ms, %s %.4g ms (n=%d)"
              % (name, percentile(ordered, 0.5), label_t, tail, len(ordered)))
    print("  ops_failed_ratio = %.6g  (%d failed / %d attempted)"
          % (block["failed"] / max(block["attempted"], 1), block["failed"], block["attempted"]))
    for name, (ok, detail) in block["checks"].items():
        print("  check %s: %s%s" % (name, "PASS" if ok else "FAIL", "  " + detail if detail else ""))
    if block["fingerprint"]:
        print("  outputs: %s" % block["fingerprint"])


def per_layer(tracer, untraced: dict, traced: dict) -> dict:
    """Every per-layer metric as name -> (value, unit)."""
    out = layer_metrics(tracer)
    stats = tracer.function_stats()
    env_steps = stats.get("mdp.episode_step", {}).get("calls", 0)
    episode_forwards = tracer.count_spans("model.forward", "episode-")
    window_steps = tracer.counts.get("model.forward_window.items", 0)
    out["train.model_steps_per_env_step"] = (
        (episode_forwards + window_steps) / env_steps if env_steps else 0.0, "ratio")
    episodes = stats.get("training.run_episode")
    episode_wall_ns = sum(episodes["durations_us"]) * 1e3 if episodes else 0.0
    out["train.episode_wait_share"] = (
        1.0 - tracer.counts.get("training.run_episode.cpu_ns", 0) / episode_wall_ns
        if episode_wall_ns else 0.0, "ratio")
    for proto in PROTOCOLS:
        frames = tracer.counts.get("trackers.%s.items" % proto, 0)
        forwards = tracer.count_spans("model.forward", proto + "/")
        out["track.%s.forwards_per_frame" % proto] = (forwards / frames if frames else 0.0, "ratio")
    for name in NAMED_RATES:
        per_pass = untraced["rates"].get(name, (0, 0.0, [0.0]))[2]
        out[name] = (statistics.median(per_pass), "1/s")
    diff = traced["ops_per_s"] - untraced["ops_per_s"]
    out["trace_overhead.ops_per_s"] = (diff, "1/s")
    out["trace_overhead.ops_share"] = (diff / untraced["ops_per_s"], "ratio")
    return out


def run_one(args) -> int:
    if not os.path.isfile(os.path.join(SRC, "trackdistill", "__init__.py")):
        print("error: no trackdistill package under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS  # imports the program

    thread_errors = ThreadErrors()
    threading.excepthook = thread_errors
    os.makedirs(OUT, exist_ok=True)
    # Each run keeps its files in a directory of its own and deletes nothing:
    # on some file systems (ext4 with online discard) deleting files makes
    # later writes several times slower, in this run and in the next.
    work = tempfile.mkdtemp(prefix=args.workload + "-", dir=OUT)
    traced = tracer = None
    setup_s = []
    for i in range(SETUPS):
        bench = None  # let the previous set-up's inputs go first
        workdir = os.path.join(work, "setup%d" % i)
        os.makedirs(workdir)
        t0 = time.perf_counter()
        bench = WORKLOADS[args.workload](workdir, args.seed, args.size)
        setup_s.append(time.perf_counter() - t0)
    # A traced run splits its time between an untraced and a traced block, so
    # that it takes no longer than an untraced one.
    block_s = args.seconds / 2 if args.trace else args.seconds
    untraced = measure(bench, block_s, None, thread_errors)
    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            traced = measure(bench, block_s, tracer, thread_errors)
        finally:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    print("env %s" % json.dumps(environment(), sort_keys=True))
    print("workload %s, seed %d, size %s, %g s per block; one op = one %s"
          % (args.workload, args.seed, args.size, block_s, OPERATION[args.workload]))
    end_to_end = {
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": peak_rss_mb,
        "ops_per_s": untraced["ops_per_s"],
    }
    print("  setup_s = %.6g s  (median of n=%d set-ups: %s)"
          % (end_to_end["setup_s"], len(setup_s), ", ".join("%.4f" % s for s in setup_s)))
    print("  peak_rss_mb = %.6g MB  (n=1)" % peak_rss_mb)
    print("  ops_per_s = %.6g 1/s  (median of n=%d passes: %s)"
          % (untraced["ops_per_s"], untraced["passes"],
             ", ".join("%.5g" % r for r in untraced["pass_ops_per_s"])))
    print_block("untraced", untraced)
    blocks = [untraced]
    correct = all(ok for ok, _ in untraced["checks"].values())
    if traced is not None:
        print_block("traced", traced)
        blocks.append(traced)
        agree = traced["fingerprint"] == untraced["fingerprint"]
        if untraced["fingerprint"]:
            print("  check traced_matches_untraced: %s" % ("PASS" if agree else "FAIL"))
        correct = correct and agree and all(ok for ok, _ in traced["checks"].values())
        layers = per_layer(tracer, untraced, traced)
        for name, (value, unit) in layers.items():
            print("  layer %s = %.6g %s" % (name, value, unit))
        spans_path = os.path.join(OUT, "spans-%s.jsonl" % args.workload)
        tracer.write_spans(spans_path)
        print("  %d spans written to %s" % (len(tracer.spans), os.path.relpath(spans_path, ROOT)))
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in layers.items()}
    else:
        metrics = {name: {"value": end_to_end[name], "unit": u} for name, u in END_TO_END.items()}
    result = {
        "correct": bool(correct),
        "attempted": sum(b["attempted"] for b in blocks),
        "failed": sum(b["failed"] for b in blocks),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        sys.stdout.flush()
        status = status or subprocess.run(cmd).returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
