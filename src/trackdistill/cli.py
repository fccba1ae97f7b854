"""Command-line pipeline: data generation through evaluation.

Every command is deterministic given its config, inputs, and seeds. Exit
codes: 0 success, 1 usage, 2 data error, 3 numeric-verification failure.
Partial products of a failed tracker run land in a ".failed" directory
next to the good ones.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
import warnings
from dataclasses import replace
from typing import List, Optional

import numpy as np

from . import config as cfgmod
from .errors import InvalidInputError, NumericError, TrackDistillError
from .metrics import SUMMARY_COLUMNS, ope_run, report
from .model import StudentModel, grad_check, load_params
from .teachers import (
    TeacherFactory,
    close_all,
    load_trace,
    parse_teacher_spec,
    run_pool_on_video,
    save_trace,
)
from .trackers import TrackRun, read_trackrun, tras, trasfust, trast, write_trackrun
from .training import synthetic_record, train, window_loss_fn
from .transferset import (
    CHUNK_LENGTH,
    build_transfer_set,
    load_chunk_index,
    trace_ious,
    transfer_report,
    videos_by_id,
    write_chunk_index,
    write_stats_csv,
)
from .video import Video, generate_video, load_dataset, write_video

GRADCHECK_TOLERANCE = 1e-4
STATS_BETAS = (0.5, 0.6, 0.7, 0.8, 0.9)


def _load_videos(args) -> List[Video]:
    videos = load_dataset(args.dataset)
    if not videos:
        raise InvalidInputError(f"no videos found under {args.dataset!r}")
    return videos


def _parse_pool(text: str, seed: int) -> List[TeacherFactory]:
    specs = [p.strip() for p in text.split(",") if p.strip()]
    if not specs:
        raise InvalidInputError("empty teacher pool")
    pool = [parse_teacher_spec(s, default_seed=seed) for s in specs]
    for k, factory in enumerate(pool):
        if factory.teacher_id in [f.teacher_id for f in pool[:k]]:
            raise InvalidInputError(f"teacher pool names {factory.teacher_id!r} twice")
    return pool


def _failed_dir(out_dir: str) -> str:
    path = os.path.join(out_dir, ".failed")
    os.makedirs(path, exist_ok=True)
    return path


def cmd_gen_data(args, config: cfgmod.Config) -> int:
    cfgmod.echo_config(config, args.out)
    count = config.pipeline.num_videos
    for i in range(count):
        video_seed = int(np.random.SeedSequence([args.seed, i]).generate_state(1)[0])
        video = generate_video(config.env, video_seed, f"synth{i:03d}")
        write_video(video, args.out)
    print(f"wrote {count} videos to {args.out}")
    return 0


def cmd_run_teachers(args, config: cfgmod.Config) -> int:
    videos = _load_videos(args)
    pool = _parse_pool(args.pool or config.pipeline.pool, args.seed)
    cfgmod.echo_config(config, args.out)
    failures = 0
    try:
        for video in videos:
            for trace, error in run_pool_on_video(pool, video):
                if error is None:
                    save_trace(args.out, trace)
                else:  # quarantine the partial boxes
                    failures += 1
                    save_trace(_failed_dir(args.out), trace)
                    print(
                        f"warning: {trace.teacher_id} failed on {video.video_id}: {error}",
                        file=sys.stderr,
                    )
    finally:
        close_all(pool)
    print(
        f"traced {len(pool)} teachers over {len(videos)} videos"
        + (f" ({failures} failures quarantined)" if failures else "")
    )
    return 0


def cmd_filter(args, config: cfgmod.Config) -> int:
    if args.beta is not None:  # echoed as eval.beta, so config.ini reruns the filter
        config = replace(config, pipeline=replace(config.pipeline, beta=args.beta))
    beta = config.pipeline.beta
    videos = videos_by_id(_load_videos(args))
    pool = _parse_pool(args.pool or config.pipeline.pool, args.seed)
    traces = []
    for factory in pool:
        for vid in sorted(videos):
            traces.append(load_trace(args.traces, factory.teacher_id, vid))
    ious = trace_ious(traces, videos)
    cfgmod.echo_config(config, args.out)
    kept, chunks = build_transfer_set(traces, videos, beta, seed=args.seed, ious=ious)
    write_chunk_index(
        chunks, os.path.join(args.out, "chunks.json"), beta, CHUNK_LENGTH, args.seed
    )
    betas = list(STATS_BETAS)
    if beta not in betas:
        betas.append(beta)
    rows = transfer_report(traces, videos, betas, ious=ious)
    write_stats_csv(rows, os.path.join(args.out, "transfer_stats.csv"))
    print(
        f"beta={beta:g}: kept {len(kept)}/{len(traces)} trajectories, "
        f"{len(chunks)} chunks"
    )
    return 0


def cmd_train(args, config: cfgmod.Config) -> int:
    config = replace(config, train=replace(config.train, seed=args.seed))
    videos = videos_by_id(load_dataset(args.dataset))
    chunks = load_chunk_index(args.chunks, videos, args.traces)
    if not chunks:
        raise InvalidInputError(f"chunk index {args.chunks!r} is empty")
    model = StudentModel(config.model)
    cfgmod.echo_config(config, args.out)

    covered = {c.video_id for c in chunks}
    held_out = [videos[vid] for vid in sorted(videos) if vid not in covered]

    validate_fn = None
    if held_out:

        def validate_fn(params):
            result = ope_run(
                lambda v: tras(v, v.ground_truth[0], model, params, config.worker.context),
                held_out,
                "tras",
                "val",
            )
            return result.ao

    else:
        print(
            "warning: no held-out videos (every video has a chunk in the index): "
            "validation and early stopping are off; the final parameters are saved",
            file=sys.stderr,
        )
    started = time.perf_counter()

    def progress(entry: dict) -> None:
        rate = entry["update"] / (time.perf_counter() - started)
        score = (
            f"val AO {entry['val_score']:.4f}, best {entry['best_val_score']:.4f}, "
            if "val_score" in entry else ""
        )
        print(f"update {entry['update']}: {score}{rate:.1f} upd/s", flush=True)

    result = train(
        model, chunks, config.train, config.worker, config.optimizer,
        args.out, validate_fn=validate_fn, progress=progress,
    )
    tail = (
        f", best val AO {result.best_val_ao:.4f}" if result.best_val_ao is not None else ""
    )
    if result.rejected:
        tail += f", {result.rejected} rejected"
    print(f"trained {result.updates} updates -> {result.checkpoint_path}{tail}")
    return 0


def cmd_track(args, config: cfgmod.Config) -> int:
    """``track`` (``--mode`` tras or trast) and ``fuse`` (whose parser sets the
    mode to trasfust): one protocol over every video of the dataset."""
    model = StudentModel(config.model)
    params = load_params(args.checkpoint, model.config)
    videos = _load_videos(args)
    context, evaluator = config.worker.context, config.pipeline.evaluator
    pool: List[TeacherFactory] = []
    if args.mode == "tras":
        track = lambda v: tras(v, v.ground_truth[0], model, params, context)
    elif args.mode == "trast":
        spec = args.teacher or config.pipeline.pool.split(",")[0].strip()
        pool = [parse_teacher_spec(spec, default_seed=args.seed)]
        track = lambda v: trast(v, v.ground_truth[0], model, params, pool[0], context, evaluator)
    else:
        pool = _parse_pool(args.pool or config.pipeline.pool, args.seed)
        track = lambda v: trasfust(v, v.ground_truth[0], model, params, pool, context, evaluator)
    cfgmod.echo_config(config, args.out)
    ok = 0
    try:
        for video in videos:  # each run is written as soon as it is done
            run = track(video)
            if run.partial:
                write_trackrun(os.path.join(_failed_dir(args.out), f"{run.video_id}.csv"), run)
                print(
                    f"warning: {run.tracker} aborted on {run.video_id}: {run.error}; "
                    f"quarantined",
                    file=sys.stderr,
                )
            else:
                write_trackrun(os.path.join(args.out, f"{run.video_id}.csv"), run)
                ok += 1
    finally:
        close_all(pool)
    verb = "fused" if args.mode == "trasfust" else "tracked"
    print(f"{args.mode}: {ok}/{len(videos)} videos {verb} into {args.out}")
    return 0


def cmd_eval(args, config: cfgmod.Config) -> int:
    videos = _load_videos(args)
    dirs = {}  # tracker id -> the run directory it names
    for runs_dir in args.runs:
        tracker_id = os.path.basename(os.path.normpath(runs_dir))
        if tracker_id in dirs:
            raise InvalidInputError(
                f"run directories {dirs[tracker_id]!r} and {runs_dir!r} share the "
                f"tracker id {tracker_id!r}"
            )
        dirs[tracker_id] = runs_dir
    results = []
    with warnings.catch_warnings():  # ope_run's warnings as warning: lines
        warnings.simplefilter("always")
        warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
        for tracker_id, runs_dir in dirs.items():

            def stored(video: Video) -> TrackRun:
                path = os.path.join(runs_dir, f"{video.video_id}.csv")
                if not os.path.isfile(path):
                    return TrackRun(video.video_id, tracker_id, [], [], partial=True,
                                    error="no run file")
                return read_trackrun(path, video.video_id, tracker_id)

            results.append(ope_run(stored, videos, tracker_id, config.pipeline.dataset_id))
    cfgmod.echo_config(config, args.out)
    report(results, args.out)
    for r in results:
        aggregate = r.aggregate
        scores = " ".join(f"{k.upper()} {aggregate[k]:.4f}" for k in SUMMARY_COLUMNS)
        print(f"{r.tracker}/{r.dataset}: {scores}")
    return 0


def cmd_gradcheck(args, config: cfgmod.Config) -> int:
    model = StudentModel(config.model)
    worker_cfg, opt = config.worker, config.optimizer
    rng = np.random.default_rng(args.seed)
    params = model.init_params(args.seed)
    record = synthetic_record(model, params, 5, rng)
    worst = 0.0
    for kind in ("distill", "policy", "value", "combined"):
        fn = window_loss_fn(
            model, record, kind, gamma=worker_cfg.gamma, returns_mode=worker_cfg.returns_mode,
            rl_scale=opt.rl_scale, weight_decay=opt.weight_decay,
        )
        rep = grad_check(
            params, fn, eps=1e-5, samples=args.samples,
            rng=np.random.default_rng(args.seed + 1), name_of=model.param_name,
        )
        print(f"{kind}: {rep}")
        worst = max(worst, rep.max_rel_error)
    if worst >= GRADCHECK_TOLERANCE:
        print(
            f"FAIL: max relative error {worst:.3e} >= {GRADCHECK_TOLERANCE:g}",
            file=sys.stderr,
        )
        return 3
    print(f"OK: max relative error {worst:.3e} < {GRADCHECK_TOLERANCE:g}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trackdistill",
        description="Distill tracking teachers into a recurrent student and run it.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed_required=False):
        p.add_argument("--config", help="INI config file")
        p.add_argument(
            "--seed", type=int, required=seed_required,
            default=None if seed_required else 0,
            help="random seed" + (" (required)" if seed_required else ""),
        )

    p = sub.add_parser("gen-data", help="render a synthetic dataset")
    common(p, seed_required=True)
    p.add_argument("--out", required=True, help="dataset directory to create")
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("run-teachers", help="record teacher trajectories")
    common(p)
    p.add_argument("--out", required=True, help="trace root directory")
    p.add_argument("--pool", help="comma-separated teacher specs")
    p.add_argument("dataset", help="dataset directory")
    p.set_defaults(func=cmd_run_teachers)

    p = sub.add_parser("filter", help="build the filtered, chunked transfer set")
    common(p)
    p.add_argument("--out", required=True)
    p.add_argument("--beta", type=float, help="per-frame overlap threshold")
    p.add_argument("--pool", help="comma-separated teacher specs")
    p.add_argument("dataset", help="dataset directory")
    p.add_argument("traces", help="trace root from run-teachers")
    p.set_defaults(func=cmd_filter)

    p = sub.add_parser("train", help="train the student over a chunk index")
    common(p, seed_required=True)
    p.add_argument("--out", required=True)
    p.add_argument("dataset", help="dataset directory")
    p.add_argument("traces", help="trace root")
    p.add_argument("chunks", help="chunk index JSON from filter")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("track", help="run TRAS or TRAST over a dataset")
    common(p)
    p.add_argument("--out", required=True)
    p.add_argument("--mode", choices=("tras", "trast"), default="tras")
    p.add_argument("--teacher", help="teacher spec for trast")
    p.add_argument("checkpoint", help="student checkpoint")
    p.add_argument("dataset", help="dataset directory")
    p.set_defaults(func=cmd_track)

    p = sub.add_parser("fuse", help="run TRASFUST over a teacher pool")
    common(p)
    p.add_argument("--out", required=True)
    p.add_argument("--pool", help="comma-separated teacher specs")
    p.add_argument("checkpoint", help="student checkpoint")
    p.add_argument("dataset", help="dataset directory")
    p.set_defaults(func=cmd_track, mode="trasfust")

    p = sub.add_parser("eval", help="score stored track runs against a dataset")
    common(p)
    p.add_argument("--out", required=True)
    p.add_argument("dataset", help="dataset directory")
    p.add_argument("runs", nargs="+", help="one or more track-run directories")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gradcheck", help="verify analytic gradients numerically")
    common(p)
    p.add_argument(
        "--samples", type=int, default=60, help="coordinates probed per loss"
    )
    p.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        code = e.code if isinstance(e.code, int) else 1
        return 0 if code == 0 else 1
    try:
        return args.func(args, cfgmod.load_config(args.config))
    except NumericError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except (TrackDistillError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
