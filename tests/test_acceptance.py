"""Eleven numbered acceptance gates, one test each, run in order.

Every gate prints a single verdict line (PASS/FAIL plus the measured
numbers) through the capture-disabled stream so the terminal log carries
an explicit per-gate record even on quiet runs. Budgeted gates also
assert their wall-clock limits.
"""

import math
import os
import time
from contextlib import contextmanager
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from trackdistill.geometry import Box, apply_action, infer_action, iou
from trackdistill.mdp import make_state, quantized_overlap, reward
from trackdistill.metrics import ao, ope_run, precision_auc, sr, success_auc
from trackdistill.model import (
    HiddenSchedule,
    StudentConfig,
    StudentModel,
    grad_check,
    load_params,
)
from trackdistill.teachers import (
    OracleNoiseFactory,
    TraceFactory,
    TrajectoryTrace,
    run_teacher_on_video,
    save_trace,
)
from trackdistill.trackers import STUDENT, tras, trasfust, trast
from trackdistill.training import (
    CurriculumState,
    CurriculumStore,
    EpisodeRecord,
    OptimizerConfig,
    StepRecord,
    TrainSettings,
    WorkerConfig,
    actor_critic_loss,
    curriculum_update,
    distill_loss,
    gaussian_log_density,
    replay_deltas,
    returns,
    synthetic_record,
    train,
    window_loss_fn,
)
from trackdistill.transferset import (
    build_transfer_set,
    filter_trajectories,
    transfer_report,
    videos_by_id,
)
from trackdistill.video import SyntheticSpec, Video, generate_video

DEFAULT = StudentConfig()
SPEC = SyntheticSpec()


@contextmanager
def gate(capsys, num, label):
    rec = SimpleNamespace(detail="")
    t0 = time.time()
    try:
        yield rec
    except BaseException as e:
        with capsys.disabled():
            print(f"FAIL gate {num:02d} [{label}]: {type(e).__name__}: {e}")
        raise
    with capsys.disabled():
        print(f"PASS gate {num:02d} [{label}]: {rec.detail} ({time.time() - t0:.1f}s)")


def _seeded_videos(tag, count, spec=SPEC):
    return [
        generate_video(
            spec,
            int(np.random.SeedSequence([tag, i]).generate_state(1)[0]),
            f"g{tag}v{i:03d}",
        )
        for i in range(count)
    ]


def test_gate_01_geometry_round_trip(capsys):
    with gate(capsys, 1, "box/action round trip and overlap oracle") as g:
        t0 = time.time()
        rng = np.random.default_rng(101)
        worst_a = 0.0
        for _ in range(10_000):
            prev = Box(
                rng.uniform(-50, 150), rng.uniform(-50, 150),
                rng.uniform(2, 40), rng.uniform(2, 40),
            )
            # dw, dh bounded below so no side can reach the MIN_SIDE clamp
            a = np.concatenate([
                rng.uniform(-1, 1, 2), rng.uniform(-0.45, 1.0, 2)
            ])
            back = infer_action(apply_action(a, prev), prev)
            worst_a = max(worst_a, float(np.max(np.abs(back - a))))
        assert worst_a < 1e-9

        def raster(a, b):
            x1 = int(min(a.x, b.x))
            y1 = int(min(a.y, b.y))
            x2 = int(max(a.x + a.w, b.x + b.w))
            y2 = int(max(a.y + a.h, b.y + b.h))
            gx, gy = np.meshgrid(np.arange(x1, x2), np.arange(y1, y2))
            in_a = (gx >= a.x) & (gx < a.x + a.w) & (gy >= a.y) & (gy < a.y + a.h)
            in_b = (gx >= b.x) & (gx < b.x + b.w) & (gy >= b.y) & (gy < b.y + b.h)
            union = np.count_nonzero(in_a | in_b)
            return np.count_nonzero(in_a & in_b) / union

        worst_i = 0.0
        for _ in range(10_000):
            a = Box(*(int(v) for v in rng.integers(0, 30, 2)),
                    *(int(v) for v in rng.integers(1, 20, 2)))
            b = Box(*(int(v) for v in rng.integers(0, 30, 2)),
                    *(int(v) for v in rng.integers(1, 20, 2)))
            worst_i = max(worst_i, abs(iou(a, b) - raster(a, b)))
        assert worst_i < 1e-3
        elapsed = time.time() - t0
        assert elapsed < 5.0
        g.detail = f"identity err {worst_a:.2e}, raster gap {worst_i:.2e}"


def test_gate_02_reward_quantizer(capsys):
    with gate(capsys, 2, "overlap quantizer grid and failure reward") as g:
        t0 = time.time()
        for i in range(1001):
            z = i / 1000.0
            want = 2.0 * ((i // 50) * 0.05) - 1.0
            assert quantized_overlap(z) == want, z
        # horizontal slide of two 10x10 boxes: overlap (10-d)/(10+d)
        hits = fails = 0
        gt = Box(0, 0, 10, 10)
        for d10 in range(0, 101):
            d = d10 / 10.0
            r = reward(Box(d, 0, 10, 10), gt)
            z = iou(Box(d, 0, 10, 10), gt)
            if z < 0.5:
                assert r == -1.0, d
                fails += 1
            else:
                assert r == quantized_overlap(z), d
                hits += 1
        assert reward(Box(50, 50, 10, 10), gt) == -1.0  # disjoint
        assert hits and fails
        elapsed = time.time() - t0
        assert elapsed < 1.0
        g.detail = f"1001 grid points exact, {fails + 1} failure rewards"


def test_gate_03_gradient_correctness(capsys):
    with gate(capsys, 3, "finite-difference check, default model") as g:
        t0 = time.time()
        model = StudentModel(DEFAULT)
        worst = 0.0
        for seed in (0, 1, 2):
            params = model.init_params(seed)
            record = synthetic_record(model, params, 5, np.random.default_rng(seed))
            for kind in ("distill", "policy", "value", "combined"):
                rep = grad_check(
                    params,
                    window_loss_fn(model, record, kind),
                    eps=1e-5,
                    samples=60,
                    rng=np.random.default_rng(seed + 100),
                    name_of=model.param_name,
                )
                assert rep.max_rel_error < 1e-4, (seed, kind, rep.max_rel_error)
                worst = max(worst, rep.max_rel_error)
        elapsed = time.time() - t0
        assert elapsed < 60.0
        g.detail = f"3 windows x 4 losses, worst rel err {worst:.2e}"


def test_gate_04_loss_hand_cases(capsys):
    with gate(capsys, 4, "loss hand cases") as g:
        def step(**kw):
            base = dict(
                state=None, mu=np.zeros(4), value=0.0,
                executed=np.zeros(4), reward=0.0,
            )
            base.update(kw)
            return StepRecord(**base)

        # distillation: |0.1| + |-0.1| + |0.2| + |0| = 0.4 on one masked step
        s = step(teacher_action=np.array([0.1, -0.1, 0.2, 0.0]), mask=1)
        rec = EpisodeRecord([s], None, 0.0, True)
        assert abs(distill_loss(rec) - 0.4) < 1e-12

        # policy: A = 0.4 + 1.0*0.2 - 0.1 = 0.5, loss = -(-1.2)*0.5 = 0.6
        s = step(reward=0.4, value=0.1, log_density=-1.2)
        rec = EpisodeRecord([s], None, 0.2, False)
        loss_pi, _ = actor_critic_loss(rec, 1.0)
        assert abs(loss_pi - 0.6) < 1e-12

        # value: terminal window, R = 0.4, v = 0.1 -> 0.5*(0.3)^2 = 0.045
        rec = EpisodeRecord([s], None, 0.0, True)
        _, loss_v = actor_critic_loss(rec, 1.0)
        assert abs(loss_v - 0.045) < 1e-12

        # standard normal at its mean, four components
        got = gaussian_log_density(np.zeros(4), np.zeros(4), np.ones(4))
        assert abs(got - (-2.0 * math.log(2.0 * math.pi))) < 1e-12

        # both return conventions on the worked two-step window
        two = [step(reward=0.4, value=0.1, log_density=-1.0),
               step(reward=0.6, value=0.1, log_density=-1.0)]
        rec = EpisodeRecord(two, None, 0.0, True)
        np.testing.assert_allclose(returns(rec, 1.0, "forward"), [1.0, 0.6], atol=1e-12)
        np.testing.assert_allclose(returns(rec, 1.0, "prefix-sum"), [0.4, 1.0], atol=1e-12)
        g.detail = "distill 0.4, policy 0.6, value 0.045, density, returns"


def test_gate_05_curriculum_scheduler(capsys):
    with gate(capsys, 5, "horizon curriculum vs hand simulation") as g:
        # explicit worked case: three failures then one success trips 1/4
        state = CurriculumState(horizon=2, max_horizon=10, successes=0, episodes=3)
        curriculum_update(state, 1.0, 0.5, tau=0.25)
        assert (state.horizon, state.successes, state.episodes) == (3, 0, 0)

        rng = np.random.default_rng(55)
        store = CurriculumStore(initial_horizon=1, tau=0.25)
        keys = [("va", "t", 0), ("vb", "t", 0), ("vc", "t", 32)]
        t_max = 12
        hand = {k: {"T": 1, "C": 0, "E": 0} for k in keys}
        checked = 0
        for episode in range(100):
            for k in keys:
                rs = float(rng.choice([-1.0, 0.5, 1.5, 3.0]))
                rt = float(rng.choice([0.5, 1.5, 2.5]))
                store.update(k, t_max, rs, rt)
                h = hand[k]
                h["E"] += 1
                if rs >= rt:
                    h["C"] += 1
                if h["C"] / h["E"] >= 0.25:
                    h["T"] = min(h["T"] + 1, t_max)
                    h["C"] = 0
                    h["E"] = 0
                got = store.state_for(k, t_max)
                assert (got.horizon, got.successes, got.episodes) == (
                    h["T"], h["C"], h["E"]
                ), (episode, k)
                checked += 1
        g.detail = f"{checked} per-episode states match over 100 episodes x 3 keys"


def _toy_corpus():
    """Two tiny videos, three teachers, hand-designed per-frame overlaps.

    Boxes slide horizontally: overlap of (d,0,10,10) with (0,0,10,10) is
    (10-d)/(10+d), exact in rational arithmetic.
    """
    frames = [np.zeros((12, 12, 3), dtype=np.uint8) for _ in range(5)]
    gt = Box(0.0, 0.0, 10.0, 10.0)
    videos = [
        Video("toy0", list(frames), [gt] * 5),
        Video("toy1", list(frames), [gt] * 5),
    ]
    shifts = {
        ("a", "toy0"): [0.0, 0.25, 0.1, 0.2],      # min overlap 39/41  ~ 0.951
        ("b", "toy0"): [0.5, 1.0, 0.75, 0.0],      # 9/11  ~ 0.818
        ("c", "toy0"): [1.5, 0.5, 1.0, 0.25],      # 17/23 ~ 0.739
        ("a", "toy1"): [2.4, 1.0, 2.0, 0.5],       # 19/31 ~ 0.613
        ("b", "toy1"): [3.0, 2.0, 1.0, 2.5],       # 7/13  ~ 0.538
        ("c", "toy1"): [4.0, 1.0, 2.0, 3.0],       # 3/7   ~ 0.429, never kept
    }
    traces = [
        TrajectoryTrace(vid, tid, [gt] + [Box(d, 0, 10, 10) for d in ds])
        for (tid, vid), ds in shifts.items()
    ]
    return videos, traces, shifts


def test_gate_06_transfer_filtering(capsys):
    with gate(capsys, 6, "transfer-set counts, AO, and nesting") as g:
        videos, traces, shifts = _toy_corpus()
        vmap = videos_by_id(videos)
        betas = [0.5, 0.6, 0.7, 0.8, 0.9]

        def frac_iou(d):
            d = Fraction(d).limit_denominator(100)
            return (10 - d) / (10 + d)

        hand_kept = {}
        hand_ao = {}
        for beta in betas:
            b = Fraction(beta).limit_denominator(10)
            for tid in ("a", "b", "c"):
                mine = [
                    ds for (t, _v), ds in shifts.items() if t == tid
                    and min(frac_iou(d) for d in ds) > b
                ]
                hand_kept[tid, beta] = len(mine)
                pooled = [frac_iou(d) for ds in mine for d in ds]
                hand_ao[tid, beta] = (
                    float(sum(pooled) / len(pooled)) if pooled else 0.0
                )

        rows = transfer_report(traces, vmap, betas, length=4, count=2)
        assert len(rows) == len(betas) * 3
        for row in rows:
            key = (row["teacher"], row["beta"])
            assert row["num_traj"] == hand_kept[key], key
            assert abs(row["ao"] - hand_ao[key]) < 1e-12, key

        totals = [sum(hand_kept[t, b] for t in "abc") for b in betas]
        assert totals == [5, 4, 3, 2, 1]

        kept_ids = [
            {(tr.teacher_id, tr.video_id) for tr in filter_trajectories(traces, vmap, b)}
            for b in betas
        ]
        for tighter, looser in zip(kept_ids[1:], kept_ids):
            assert tighter <= looser
        g.detail = "counts 5/4/3/2/1, pooled AO exact, kept sets nested"


def test_gate_07_fusion_dominance(capsys):
    with gate(capsys, 7, "fusion with true-overlap selection dominates") as g:
        t0 = time.time()
        pool = [
            OracleNoiseFactory("t5", 0.5, seed=11),
            OracleNoiseFactory("t7", 0.7, seed=12),
            OracleNoiseFactory("t9", 0.9, seed=13),
        ]
        model = StudentModel(DEFAULT)
        params = model.init_params(0)
        videos = _seeded_videos(7, 20)
        margin = 1.0
        for video in videos:
            run = trasfust(
                video, video.ground_truth[0], model, params, pool,
                evaluator="oracle",
            )
            assert not run.partial
            member_ious = {}
            member_ao = {}
            for f in pool:
                boxes = run_teacher_on_video(f, video).boxes[1:]
                zs = [iou(b, gt) for b, gt in zip(boxes, video.ground_truth[1:])]
                member_ious[f.teacher_id] = zs
                member_ao[f.teacher_id] = float(np.mean(zs))
            fused = [
                iou(b, gt) for b, gt in zip(run.boxes, video.ground_truth[1:])
            ]
            for t, z in enumerate(fused):
                assert z == max(m[t] for m in member_ious.values()), (video.video_id, t)
            fused_ao = float(np.mean(fused))
            best = max(member_ao.values())
            assert fused_ao >= best, video.video_id
            margin = min(margin, fused_ao - best)
        elapsed = time.time() - t0
        assert elapsed < 120.0
        g.detail = f"20 videos, min AO margin over best member {margin:+.4f}"


def test_gate_08_handoff_selection(capsys, tmp_path):
    with gate(capsys, 8, "hand-off picks the larger true overlap, ties stay") as g:
        model = StudentModel(DEFAULT)
        params = model.init_params(1)
        teacher = OracleNoiseFactory("t7", 0.7, seed=21)
        videos = _seeded_videos(8, 10)
        context = 1.5
        controllers = set()
        for video in videos:
            run = trast(
                video, video.ground_truth[0], model, params, teacher,
                evaluator="oracle",
            )
            assert not run.partial
            teacher_boxes = run_teacher_on_video(teacher, video).boxes
            sched = HiddenSchedule(model)
            box = video.ground_truth[0]
            for t in range(1, len(video.frames)):
                state = make_state(
                    video.frames[t - 1], video.frames[t], box, context,
                    model.config.patch_size,
                )
                hidden = sched.before(t)
                (action,), _, hidden = model.forward(params, [state], hidden, model.window(1))
                sched.after(t, hidden)
                cand = apply_action(action, box)
                gt = video.ground_truth[t]
                v_s = iou(cand, gt)
                v_t = iou(teacher_boxes[t], gt)
                expect_student = v_s >= v_t
                i = t - 1
                assert run.v_student[i] == v_s
                assert run.v_teachers["t7"][i] == v_t
                assert run.controllers[i] == (STUDENT if expect_student else "t7")
                box = cand if expect_student else teacher_boxes[t]
                assert run.boxes[i] == box
                assert iou(run.boxes[i], gt) == max(v_s, v_t)
                controllers.add(run.controllers[i])
        assert controllers == {STUDENT, "t7"}

        # exact tie on every frame: both candidates sit on the annotation
        frame = np.random.default_rng(0).integers(0, 255, (48, 48, 3)).astype(np.uint8)
        gt = Box(1.0, 1.0, 10.0, 10.0)
        static = Video("still", [frame.copy() for _ in range(6)], [gt] * 6)
        save_trace(str(tmp_path), TrajectoryTrace("still", "echo", [gt] * 6))
        echo = TraceFactory("echo", str(tmp_path))
        run = trast(
            static, gt, model, np.zeros(model.n_params), echo, evaluator="oracle"
        )
        assert run.controllers == [STUDENT] * 5
        assert all(v == 1.0 for v in run.v_student)
        g.detail = "10 videos exhaustive, both parties won frames, ties stay home"


def test_gate_09_training_smoke(capsys, tmp_path):
    with gate(capsys, 9, "desk-scale training lifts held-out tracking") as g:
        t0 = time.time()
        model = StudentModel(DEFAULT)
        train_videos = _seeded_videos(90, 50)
        held = _seeded_videos(91, 10)
        teacher = OracleNoiseFactory("t9", 0.9, seed=3)
        traces = [run_teacher_on_video(teacher, v) for v in train_videos]
        vmap = videos_by_id(train_videos)
        kept, chunks = build_transfer_set(traces, vmap, beta=0.5, seed=0)
        assert chunks

        def tras_ao(params):
            return ope_run(
                lambda v: tras(v, v.ground_truth[0], model, params),
                held, "tras", "held",
            ).ao

        def trast_ao(params):
            return ope_run(
                lambda v: trast(v, v.ground_truth[0], model, params, teacher),
                held, "trast", "held",
            ).ao

        params = model.init_params(0)
        base = tras_ao(params)
        total_updates = 0
        gain = trast_gap = -1.0
        final_tras = final_trast = 0.0
        for round_no in range(3):  # restarts stay far inside the update budget
            res = train(
                model, chunks,
                TrainSettings(
                    workers=8, max_updates=3000, val_every=500,
                    patience=100, seed=round_no,
                ),
                WorkerConfig(),
                OptimizerConfig(lr=1e-4),
                str(tmp_path / f"round{round_no}"),
                validate_fn=tras_ao,
                init_params=params.copy(),
            )
            total_updates += res.updates
            params = load_params(res.checkpoint_path, DEFAULT)
            final_tras = tras_ao(params)
            final_trast = trast_ao(params)
            gain = final_tras - base
            trast_gap = final_trast - final_tras
            if gain >= 0.2 and trast_gap >= 0.0:
                break
        assert total_updates <= 50_000
        assert gain >= 0.2, (base, final_tras, total_updates)
        assert trast_gap >= 0.0, (final_tras, final_trast)
        elapsed = time.time() - t0
        assert elapsed < 1800.0
        g.detail = (
            f"AO {base:.3f} -> {final_tras:.3f} (+{gain:.3f}), "
            f"handoff {final_trast:.3f} ({trast_gap:+.3f}), "
            f"{total_updates} updates"
        )


def test_gate_10_metrics_oracle(capsys):
    with gate(capsys, 10, "metrics vs brute-force recomputation") as g:
        rng = np.random.default_rng(1010)

        def brute_ss(zs):
            grid = [i / 100.0 for i in range(101)]
            return sum(
                sum(1 for z in zs if z >= thr) / len(zs) for thr in grid
            ) / len(grid)

        def brute_ps(es):
            grid = [float(i) for i in range(51)]
            return sum(
                sum(1 for e in es if e <= thr) / len(es) for thr in grid
            ) / len(grid)

        worst = 0.0
        for _ in range(1000):
            n = int(rng.integers(1, 61))
            zs = rng.uniform(0, 1, n)
            es = rng.uniform(0, 60, n)
            pairs = [
                (ao(zs), float(np.mean(zs))),
                (sr(zs, 0.5), sum(1 for z in zs if z >= 0.5) / n),
                (sr(zs, 0.75), sum(1 for z in zs if z >= 0.75) / n),
                (success_auc(zs), brute_ss(zs)),
                (precision_auc(es), brute_ps(es)),
            ]
            for got, want in pairs:
                err = abs(got - want)
                assert err < 1e-12
                worst = max(worst, err)
        g.detail = f"1000 arrays x 5 summaries, worst gap {worst:.2e}"


def test_gate_11_concurrent_update_log(capsys, tmp_path):
    with gate(capsys, 11, "8-worker delta log replays to the exact state") as g:
        model = StudentModel(DEFAULT)
        videos = _seeded_videos(110, 8)
        teacher = OracleNoiseFactory("t9", 0.9, seed=5)
        traces = [run_teacher_on_video(teacher, v) for v in videos]
        _, chunks = build_transfer_set(traces, videos_by_id(videos), beta=0.5, seed=0)
        initial = model.init_params(2)
        res = train(
            model, chunks,
            TrainSettings(
                workers=8, max_updates=400, val_every=200, seed=6,
                record_deltas=True,
            ),
            WorkerConfig(),
            OptimizerConfig(lr=1e-4),
            str(tmp_path),
            init_params=initial.copy(),
        )
        assert res.deltas is not None and len(res.deltas) == res.updates
        final = load_params(res.checkpoint_path, DEFAULT)
        replayed = replay_deltas(initial, res.deltas)
        np.testing.assert_array_equal(replayed, final)
        g.detail = f"{res.updates} updates from 8 workers, replay bitwise equal"
