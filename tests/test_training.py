import io
import json
import math

import numpy as np
import numpy.testing as npt
import pytest

from trackdistill import training
from trackdistill.errors import ConfigError, InvalidInputError, NumericError
from trackdistill.geometry import Box
from trackdistill.mdp import State
from trackdistill.model import StudentConfig, StudentModel, grad_check
from trackdistill.training import (
    AUTONOMOUS,
    DISTILLING,
    ActionSample,
    CurriculumState,
    CurriculumStore,
    EpisodeRecord,
    OptimizerConfig,
    SharedWeights,
    StepRecord,
    TrainSettings,
    WorkerConfig,
    actor_critic_loss,
    advantages,
    curriculum_update,
    distill_loss,
    gaussian_log_density,
    mask,
    replay_deltas,
    returns,
    run_episode,
    sample_action,
    synthetic_record,
    train,
    window_loss_fn,
)
from trackdistill.transferset import TransferChunk

SMALL = StudentConfig(patch_size=16, conv_channels=(4, 8), fc_dim=16, hidden_dim=12)


def bare_step(**kw):
    defaults = dict(
        state=None,
        mu=np.zeros(4),
        value=0.0,
        executed=np.zeros(4),
        reward=0.0,
    )
    defaults.update(kw)
    return StepRecord(**defaults)


def bare_record(steps, bootstrap=0.0, terminated=True):
    return EpisodeRecord(
        steps=steps, h0=None, bootstrap_value=bootstrap, terminated=terminated
    )


class TestMask:
    def test_student_worse(self):
        assert mask(0.2, 0.4) == 1

    def test_student_better(self):
        assert mask(0.8, 0.4) == 0

    def test_tie_is_unmasked(self):
        assert mask(0.4, 0.4) == 0


class TestDistillLoss:
    def test_single_step_hand_value(self):
        # |0.1| + |-0.1| + |0.2| + |0| = 0.4
        step = bare_step(
            mu=np.zeros(4),
            teacher_action=np.array([0.1, -0.1, 0.2, 0.0]),
            mask=1,
        )
        assert abs(distill_loss(bare_record([step])) - 0.4) < 1e-12

    def test_two_identical_steps_double(self):
        step = bare_step(
            mu=np.zeros(4), teacher_action=np.array([0.1, -0.1, 0.2, 0.0]), mask=1
        )
        rec = bare_record([step, step])
        assert abs(distill_loss(rec) - 0.8) < 1e-12

    def test_masked_out_step_contributes_nothing(self):
        step = bare_step(
            mu=np.zeros(4), teacher_action=np.array([0.5, 0.5, 0.5, 0.5]), mask=0
        )
        assert distill_loss(bare_record([step])) == 0.0

    def test_missing_teacher_rejected(self):
        with pytest.raises(InvalidInputError):
            distill_loss(bare_record([bare_step()]))


class TestLogDensity:
    def test_standard_normal_at_mean(self):
        # four independent components, each -0.5*ln(2*pi)
        got = gaussian_log_density(np.zeros(4), np.zeros(4), np.ones(4))
        assert abs(got - (-2.0 * math.log(2.0 * math.pi))) < 1e-12

    def test_matches_scipy_free_formula(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            x = rng.normal(size=4)
            mu = rng.normal(size=4)
            sigma = rng.uniform(0.1, 2.0, 4)
            want = sum(
                -0.5 * math.log(2 * math.pi * s * s) - 0.5 * ((a - m) / s) ** 2
                for a, m, s in zip(x, mu, sigma)
            )
            npt.assert_allclose(gaussian_log_density(x, mu, sigma), want, rtol=1e-12)


class FixedNoise:
    """Stand-in generator producing a predetermined standard-normal draw."""

    def __init__(self, draw):
        self.draw = np.asarray(draw, dtype=float)

    def standard_normal(self, n):
        assert n == len(self.draw)
        return self.draw.copy()


class TestSampleAction:
    def test_sigma_is_distance_plus_floor(self):
        mu = np.array([0.2, -0.1, 0.0, 0.5])
        gt = np.array([0.1, 0.3, 0.0, 0.5])
        s = sample_action(mu, gt, FixedNoise(np.zeros(4)))
        npt.assert_allclose(s.sigma, np.abs(mu - gt) + 1e-3, rtol=0, atol=1e-15)

    def test_zero_draw_lands_on_mean(self):
        s = sample_action(np.zeros(4), np.ones(4), FixedNoise(np.zeros(4)))
        npt.assert_allclose(s.raw, np.zeros(4))
        npt.assert_allclose(s.action, np.zeros(4))

    def test_density_taken_before_clamp(self):
        # a +3 sigma draw leaves [-1, 1]; density must describe the raw point
        mu = np.array([0.9, 0.0, 0.0, 0.0])
        gt = np.array([0.0, 0.0, 0.0, 0.0])
        s = sample_action(mu, gt, FixedNoise([3.0, 0.0, 0.0, 0.0]))
        assert s.raw[0] > 1.0
        assert s.action[0] == 1.0
        npt.assert_allclose(s.log_density, gaussian_log_density(s.raw, mu, s.sigma))

    def test_clamp_bounds(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            mu = rng.uniform(-1, 1, 4)
            gt = rng.uniform(-1, 1, 4)
            s = sample_action(mu, gt, rng)
            assert np.all(s.action >= -1.0) and np.all(s.action <= 1.0)

    def test_perfect_policy_keeps_floor_spread(self):
        mu = np.array([0.3, 0.3, 0.3, 0.3])
        s = sample_action(mu, mu.copy(), FixedNoise(np.ones(4)))
        npt.assert_allclose(s.sigma, 1e-3)


class TestReturns:
    def two_step(self, terminated, bootstrap=0.0):
        steps = [bare_step(reward=0.4), bare_step(reward=0.6)]
        return bare_record(steps, bootstrap=bootstrap, terminated=terminated)

    def test_forward_terminated(self):
        npt.assert_allclose(
            returns(self.two_step(True), 1.0, "forward"), [1.0, 0.6], rtol=0, atol=1e-15
        )

    def test_prefix_sum(self):
        npt.assert_allclose(
            returns(self.two_step(True), 1.0, "prefix-sum"),
            [0.4, 1.0],
            rtol=0,
            atol=1e-15,
        )

    def test_forward_bootstraps_when_cut(self):
        got = returns(self.two_step(False, bootstrap=0.5), 1.0, "forward")
        npt.assert_allclose(got, [1.5, 1.1], rtol=0, atol=1e-15)

    def test_forward_discounting(self):
        got = returns(self.two_step(True), 0.9, "forward")
        npt.assert_allclose(got, [0.4 + 0.9 * 0.6, 0.6])

    def test_prefix_sum_discounting(self):
        got = returns(self.two_step(True), 0.9, "prefix-sum")
        npt.assert_allclose(got, [0.4, 0.4 + 0.9 * 0.6])

    def test_prefix_sum_ignores_bootstrap(self):
        a = returns(self.two_step(False, bootstrap=9.0), 1.0, "prefix-sum")
        b = returns(self.two_step(True), 1.0, "prefix-sum")
        npt.assert_allclose(a, b)

    def test_unknown_mode(self):
        with pytest.raises(ConfigError):
            returns(self.two_step(True), 1.0, "backward")

    def test_bad_gamma(self):
        with pytest.raises(InvalidInputError):
            returns(self.two_step(True), 0.0)


class TestActorCriticLoss:
    def test_policy_hand_value(self):
        # A = 0.4 + 1.0*0.2 - 0.1 = 0.5; loss = -(-1.2 * 0.5) = 0.6
        step = bare_step(reward=0.4, value=0.1, log_density=-1.2)
        rec = bare_record([step], bootstrap=0.2, terminated=False)
        loss_pi, _ = actor_critic_loss(rec, 1.0)
        assert abs(loss_pi - 0.6) < 1e-12

    def test_value_hand_value(self):
        # terminal one-step window: R = 0.4, v = 0.1 -> 0.5*(0.3)^2 = 0.045
        step = bare_step(reward=0.4, value=0.1, log_density=-1.2)
        rec = bare_record([step], terminated=True)
        _, loss_v = actor_critic_loss(rec, 1.0)
        assert abs(loss_v - 0.045) < 1e-12

    def test_advantages_use_recorded_values(self):
        steps = [
            bare_step(reward=1.0, value=0.3, log_density=-1.0),
            bare_step(reward=-1.0, value=0.7, log_density=-2.0),
        ]
        rec = bare_record(steps, bootstrap=0.25, terminated=False)
        npt.assert_allclose(
            advantages(rec, 1.0), [1.0 + 0.7 - 0.3, -1.0 + 0.25 - 0.7]
        )

    def test_terminated_window_has_zero_tail_value(self):
        steps = [bare_step(reward=0.5, value=0.2, log_density=-1.0)]
        rec = bare_record(steps, bootstrap=123.0, terminated=True)
        npt.assert_allclose(advantages(rec, 1.0), [0.5 - 0.2])

    def test_missing_density_rejected(self):
        rec = bare_record([bare_step(reward=0.4)])
        with pytest.raises(InvalidInputError):
            actor_critic_loss(rec, 1.0)


class TestWindowGradients:
    """Backward passes of every loss kind against central differences."""

    def setup_method(self):
        self.model = StudentModel(SMALL)
        rng = np.random.default_rng(101)
        self.params = self.model.init_params(17) * 3.0
        self.record = synthetic_record(self.model, self.params, 3, rng)

    def check(self, kind, **kw):
        fn = window_loss_fn(self.model, self.record, kind, **kw)
        rep = grad_check(
            self.params,
            fn,
            eps=1e-5,
            samples=40,
            rng=np.random.default_rng(5),
            name_of=self.model.param_name,
        )
        assert rep.max_rel_error < 1e-4, str(rep)

    def test_distill_gradient(self):
        self.check("distill")

    def test_policy_gradient(self):
        self.check("policy")

    def test_value_gradient(self):
        self.check("value")

    def test_rl_gradient(self):
        self.check("rl")

    def test_combined_gradient(self):
        self.check("combined", rl_scale=1e-3, weight_decay=1e-4)

    def test_prefix_sum_targets_also_differentiate(self):
        self.check("value", returns_mode="prefix-sum")

    def test_combined_includes_decay_term(self):
        plain = window_loss_fn(self.model, self.record, "combined", weight_decay=0.0)
        decayed = window_loss_fn(self.model, self.record, "combined", weight_decay=0.1)
        l0, g0 = plain(self.params)
        l1, g1 = decayed(self.params)
        npt.assert_allclose(l1 - l0, 0.05 * float(self.params @ self.params), rtol=1e-10)
        npt.assert_allclose(g1 - g0, 0.1 * self.params, rtol=0, atol=1e-12)

    def test_fully_masked_window_has_zero_distill_gradient(self):
        rec = self.record
        for s in rec.steps:
            s.mask = 0
        fn = window_loss_fn(self.model, rec, "distill")
        loss, grad = fn(self.params)
        assert loss == 0.0
        assert np.all(grad == 0.0)

    def test_policy_loss_ignores_value_head(self):
        fn = window_loss_fn(self.model, self.record, "policy")
        _, grad = fn(self.params)
        v = self.model.views(grad)
        assert np.all(v["value.W"] == 0.0)
        assert np.all(v["value.b"] == 0.0)

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            window_loss_fn(self.model, self.record, "l2")


def reference_radam(grads, lr, b1, b2, eps):
    """Straight transcription of the rectified update rule."""
    n = len(grads[0])
    theta = np.zeros(n)
    m = np.zeros(n)
    v = np.zeros(n)
    rho_inf = 2.0 / (1.0 - b2) - 1.0
    out = []
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1 ** t)
        rho_t = rho_inf - 2 * t * b2 ** t / (1 - b2 ** t)
        if rho_t > 4:
            rect = math.sqrt(
                ((rho_t - 4) * (rho_t - 2) * rho_inf)
                / ((rho_inf - 4) * (rho_inf - 2) * rho_t)
            )
            step = lr * rect * m_hat / (np.sqrt(v / (1 - b2 ** t)) + eps)
        else:
            step = lr * m_hat
        theta = theta - step
        out.append(theta.copy())
    return out


class TestOptimizers:
    def test_sgd_is_definitional(self):
        theta0 = np.array([1.0, -2.0, 3.0])
        sw = SharedWeights(theta0, OptimizerConfig(method="sgd", lr=0.1, weight_decay=0.0))
        g = np.array([0.5, 0.5, -1.0])
        sw.update(g, AUTONOMOUS if False else DISTILLING)
        npt.assert_array_equal(sw.snapshot(), theta0 - 0.1 * g)

    def test_rl_gradients_are_prescaled(self):
        theta0 = np.ones(3)
        sw = SharedWeights(
            theta0,
            OptimizerConfig(method="sgd", lr=0.1, weight_decay=0.0, rl_scale=1e-3),
        )
        g = np.array([1.0, 2.0, 3.0])
        sw.update(g, AUTONOMOUS)
        npt.assert_allclose(sw.snapshot(), theta0 - 0.1 * 1e-3 * g, rtol=0, atol=1e-18)

    def test_decay_applies_to_distillation_only(self):
        theta0 = np.array([2.0, -4.0])
        cfg = OptimizerConfig(method="sgd", lr=0.1, weight_decay=0.5)
        sw = SharedWeights(theta0, cfg)
        sw.update(np.zeros(2), AUTONOMOUS)
        npt.assert_array_equal(sw.snapshot(), theta0)  # no decay on RL updates
        sw.update(np.zeros(2), DISTILLING)
        npt.assert_allclose(sw.snapshot(), theta0 * (1 - 0.1 * 0.5), rtol=1e-15)

    def test_zero_gradient_zero_decay_is_identity(self):
        theta0 = np.linspace(-1, 1, 7)
        for method in ("sgd", "adam", "radam"):
            sw = SharedWeights(theta0, OptimizerConfig(method=method, weight_decay=0.0))
            for _ in range(3):
                sw.update(np.zeros(7), DISTILLING)
            npt.assert_array_equal(sw.snapshot(), theta0)

    def test_radam_matches_reference(self):
        rng = np.random.default_rng(29)
        grads = [rng.normal(size=5) for _ in range(12)]
        cfg = OptimizerConfig(method="radam", lr=0.01, weight_decay=0.0)
        sw = SharedWeights(np.zeros(5), cfg)
        want = reference_radam(grads, 0.01, cfg.beta1, cfg.beta2, cfg.eps)
        for g, expect in zip(grads, want):
            sw.update(g, DISTILLING)
            npt.assert_allclose(sw.snapshot(), expect, rtol=1e-12, atol=1e-15)

    def test_radam_early_steps_skip_variance_term(self):
        # with beta2=0.999 the rectification gate stays closed at t=1..4,
        # so the first step must be exactly lr * g (bias-corrected momentum)
        cfg = OptimizerConfig(method="radam", lr=0.5, weight_decay=0.0)
        sw = SharedWeights(np.zeros(2), cfg)
        g = np.array([2.0, -2.0])
        sw.update(g, DISTILLING)
        npt.assert_allclose(sw.snapshot(), -0.5 * g, rtol=1e-15)

    def test_adam_first_step_is_signlike(self):
        cfg = OptimizerConfig(method="adam", lr=0.1, weight_decay=0.0, eps=1e-8)
        sw = SharedWeights(np.zeros(2), cfg)
        sw.update(np.array([3.0, -0.001]), DISTILLING)
        npt.assert_allclose(sw.snapshot(), [-0.1, 0.1], rtol=1e-4)

    def test_max_norm_clip(self):
        g = np.array([3.0, 4.0])  # norm 5
        cfg = OptimizerConfig(method="sgd", lr=1.0, weight_decay=0.0, grad_clip=1.0)
        sw = SharedWeights(np.zeros(2), cfg)
        sw.update(g, DISTILLING)
        npt.assert_allclose(sw.snapshot(), -g / 5.0, rtol=1e-15)

    def test_clip_leaves_small_gradients_alone(self):
        g = np.array([0.3, 0.4])
        cfg = OptimizerConfig(method="sgd", lr=1.0, weight_decay=0.0, grad_clip=1.0)
        sw = SharedWeights(np.zeros(2), cfg)
        sw.update(g, DISTILLING)
        npt.assert_array_equal(sw.snapshot(), -g)

    def test_unknown_method_rejected(self):
        with pytest.raises(ConfigError):
            SharedWeights(np.zeros(2), OptimizerConfig(method="rmsprop"))


class OutOfPlaceOptimizer:
    """The update rule written with fresh arrays for every term: the form the
    in-place optimizer has to reproduce bitwise."""

    def __init__(self, params, opt):
        self.opt = opt
        self.params = params.copy()
        self.m = np.zeros_like(params)
        self.v = np.zeros_like(params)
        self.t = 0
        self.branches = set()

    def update(self, grad, kind):
        o = self.opt
        g = grad * o.rl_scale if kind == AUTONOMOUS else grad
        if o.grad_clip > 0.0:
            norm = float(np.linalg.norm(g))
            if norm > o.grad_clip:
                g = g * (o.grad_clip / norm)
        self.t += 1
        t = self.t
        if o.method == "sgd":
            step = o.lr * g
        else:
            self.m = o.beta1 * self.m + (1.0 - o.beta1) * g
            self.v = o.beta2 * self.v + (1.0 - o.beta2) * g * g
            m_hat = self.m / (1.0 - o.beta1 ** t)
            v_hat = np.sqrt(self.v / (1.0 - o.beta2 ** t))
            if o.method == "adam":
                step = o.lr * m_hat / (v_hat + o.eps)
            else:
                rho_inf = 2.0 / (1.0 - o.beta2) - 1.0
                rho_t = rho_inf - 2.0 * t * o.beta2 ** t / (1.0 - o.beta2 ** t)
                if rho_t <= 4.0:
                    self.branches.add("momentum")
                    step = o.lr * m_hat
                else:
                    self.branches.add("rectified")
                    rect = math.sqrt(
                        ((rho_t - 4.0) * (rho_t - 2.0) * rho_inf)
                        / ((rho_inf - 4.0) * (rho_inf - 2.0) * rho_t)
                    )
                    step = o.lr * rect * m_hat / (v_hat + o.eps)
        delta = -step
        if kind == DISTILLING and o.weight_decay > 0.0:
            delta = delta - o.lr * o.weight_decay * self.params
        self.params = self.params + delta
        return delta


class TestInPlaceOptimizer:
    @pytest.mark.parametrize("method", ["sgd", "adam", "radam"])
    @pytest.mark.parametrize("grad_clip", [0.0, 4.0])
    def test_bitwise_equal_to_out_of_place_formulas(self, method, grad_clip):
        rng = np.random.default_rng(61)
        theta0 = rng.normal(size=50)
        cfg = OptimizerConfig(method=method, lr=1e-2, weight_decay=0.05, grad_clip=grad_clip)
        sw = SharedWeights(theta0, cfg, record_deltas=True)
        ref = OutOfPlaceOptimizer(theta0, cfg)
        for i in range(12):
            g = rng.normal(size=50) * (10.0 if i % 3 == 0 else 1.0)
            kind = DISTILLING if rng.integers(2) == 0 else AUTONOMOUS
            assert sw.update(g, kind)
            want = ref.update(g, kind)
            assert np.array_equal(sw.deltas[-1], want)
            assert np.array_equal(sw.snapshot(), ref.params)
        if method == "radam":
            # beta2 = 0.999 keeps the rectification gate closed for t <= 4
            assert ref.branches == {"momentum", "rectified"}


class TestSharedWeights:
    def test_snapshot_is_a_copy(self):
        sw = SharedWeights(np.zeros(3), OptimizerConfig(method="sgd"))
        snap = sw.snapshot()
        snap[:] = 99.0
        npt.assert_array_equal(sw.snapshot(), np.zeros(3))

    def test_nonfinite_gradient_rejected_and_logged(self):
        log = io.StringIO()
        sw = SharedWeights(np.ones(3), OptimizerConfig(method="sgd"), log_file=log)
        bad = np.array([1.0, np.nan, 0.0])
        ok = sw.update(bad, DISTILLING, {"worker": 4})
        assert not ok
        npt.assert_array_equal(sw.snapshot(), np.ones(3))
        assert sw.update_count == 0
        assert sw.rejected_count == 1
        last = logged(log)[-1]
        assert last["rejected"] is True
        assert last["worker"] == 4

    def test_update_count_strictly_increases(self):
        log = io.StringIO()
        sw = SharedWeights(
            np.zeros(2), OptimizerConfig(method="sgd", weight_decay=0.0), log_file=log
        )
        for i in range(5):
            sw.update(np.ones(2), DISTILLING)
            assert sw.update_count == i + 1
            assert logged(log)[-1]["update"] == i + 1

    def test_delta_replay_is_bitwise(self):
        rng = np.random.default_rng(41)
        initial = rng.normal(size=20)
        sw = SharedWeights(
            initial,
            OptimizerConfig(method="radam", lr=0.01),
            record_deltas=True,
        )
        for _ in range(60):
            kind = DISTILLING if rng.integers(2) == 0 else AUTONOMOUS
            sw.update(rng.normal(size=20), kind)
        replayed = replay_deltas(initial, sw.deltas)
        assert np.array_equal(replayed, sw.snapshot())


class TestCurriculum:
    def test_hand_trace_advance_and_reset(self):
        st = CurriculumState(horizon=3, max_horizon=10, successes=0, episodes=3)
        curriculum_update(st, sum_r_student=2.0, sum_r_teacher=1.5)
        assert st.horizon == 4
        assert st.successes == 0 and st.episodes == 0

    def test_failure_below_threshold_no_advance(self):
        st = CurriculumState(horizon=3, max_horizon=10)
        curriculum_update(st, 0.0, 1.0)
        assert st.horizon == 3
        assert (st.successes, st.episodes) == (0, 1)

    def test_tie_counts_as_success(self):
        st = CurriculumState(horizon=1, max_horizon=10)
        curriculum_update(st, 1.0, 1.0)
        assert st.horizon == 2  # 1/1 >= 0.25

    def test_horizon_saturates(self):
        st = CurriculumState(horizon=5, max_horizon=5)
        curriculum_update(st, 1.0, 0.0)
        assert st.horizon == 5

    def test_ratio_needs_one_in_four(self):
        st = CurriculumState(horizon=2, max_horizon=9)
        for _ in range(3):
            curriculum_update(st, 0.0, 1.0)
        assert st.horizon == 2
        curriculum_update(st, 5.0, 1.0)  # 1/4 == tau
        assert st.horizon == 3
        assert (st.successes, st.episodes) == (0, 0)

    def test_store_tracks_keys_independently(self):
        store = CurriculumStore(initial_horizon=1)
        store.update(("a",), 8, 1.0, 0.0)
        assert store.horizon(("a",), 8) == 2
        assert store.horizon(("b",), 8) == 1

    def test_store_caps_initial_horizon(self):
        store = CurriculumStore(initial_horizon=5)
        assert store.horizon(("short",), 3) == 3

    def test_bad_initial_horizon(self):
        with pytest.raises(ConfigError):
            CurriculumStore(initial_horizon=0)


def logged(log_file):
    """The entries a SharedWeights wrote to an in-memory log file."""
    return [json.loads(line) for line in log_file.getvalue().splitlines()]


def make_chunk(rng, video_id="v0", n_frames=7):
    """Frames of 48x48 noise with a drifting ground-truth box; the teacher
    reports ground truth."""
    frames = [rng.integers(0, 255, (48, 48, 3), dtype=np.uint8) for _ in range(n_frames)]
    gt = [Box(8.0 + 0.5 * t, 8.0, 14.0, 12.0) for t in range(n_frames)]
    return TransferChunk(
        video_id=video_id, teacher_id="t0", start=0,
        frames=frames, gt=gt, teacher_boxes=list(gt),
    )


class TestRunEpisode:
    def setup_method(self):
        self.model = StudentModel(SMALL)
        self.params = self.model.init_params(3)
        self.cfg = WorkerConfig(t_max=5)

    def test_window_boundaries_5_10_12(self):
        rng = np.random.default_rng(0)
        chunk = make_chunk(rng, n_frames=13)  # horizon 12
        sw = SharedWeights(self.params, OptimizerConfig(method="sgd", lr=1e-12))
        _, _, records = run_episode(
            self.model, self.params, chunk, DISTILLING, self.cfg, sw,
            np.random.default_rng(1), horizon=12,
        )
        assert [len(r.steps) for r in records] == [5, 5, 2]
        assert [r.terminated for r in records] == [False, False, True]
        assert sw.update_count == 3

    def test_terminal_window_bootstraps_zero(self):
        rng = np.random.default_rng(0)
        chunk = make_chunk(rng, n_frames=4)
        sw = SharedWeights(self.params, OptimizerConfig(method="sgd", lr=1e-12))
        _, _, records = run_episode(
            self.model, self.params, chunk, AUTONOMOUS, self.cfg, sw,
            np.random.default_rng(1),
        )
        assert len(records) == 1
        assert records[0].terminated
        assert records[0].bootstrap_value == 0.0

    def test_recorded_mus_match_fresh_replay(self):
        # the reference path re-runs the forward pass; the rollout's own
        # hidden chain has to land on the same numbers or gradients lie
        rng = np.random.default_rng(7)
        chunk = make_chunk(rng, n_frames=13)
        sw = SharedWeights(self.params, OptimizerConfig(method="sgd", lr=1e-12))
        _, _, records = run_episode(
            self.model, self.params, chunk, AUTONOMOUS, self.cfg, sw,
            np.random.default_rng(2), horizon=12,
        )
        for rec in records:
            mus, values, _, _ = self.model.forward_window(
                self.params, rec.states(), rec.h0
            )
            for i, s in enumerate(rec.steps):
                npt.assert_array_equal(mus[i], s.mu)
                assert float(values[i]) == s.value

    def test_distilling_worker_executes_own_policy(self):
        rng = np.random.default_rng(5)
        chunk = make_chunk(rng, n_frames=6)
        sw = SharedWeights(self.params, OptimizerConfig(method="sgd", lr=1e-12))
        _, _, records = run_episode(
            self.model, self.params, chunk, DISTILLING, self.cfg, sw,
            np.random.default_rng(1),
        )
        for rec in records:
            for s in rec.steps:
                npt.assert_array_equal(s.executed, s.mu)
                assert s.raw is None and s.log_density is None

    def test_autonomous_worker_executes_clamped_samples(self):
        rng = np.random.default_rng(5)
        chunk = make_chunk(rng, n_frames=6)
        sw = SharedWeights(self.params, OptimizerConfig(method="sgd", lr=1e-12))
        _, _, records = run_episode(
            self.model, self.params, chunk, AUTONOMOUS, self.cfg, sw,
            np.random.default_rng(1),
        )
        saw_sample = False
        for rec in records:
            for s in rec.steps:
                assert s.raw is not None
                npt.assert_array_equal(s.executed, np.clip(s.raw, -1, 1))
                if not np.array_equal(s.executed, s.mu):
                    saw_sample = True
        assert saw_sample

    def test_perfect_teacher_never_loses_to_student(self):
        # the teacher reports ground truth, so its candidate reward is 1.0
        # on every step and any imperfect student step is masked in
        rng = np.random.default_rng(9)
        chunk = make_chunk(rng, n_frames=6)
        sw = SharedWeights(self.params, OptimizerConfig(method="sgd", lr=1e-12))
        sum_s, sum_t, records = run_episode(
            self.model, self.params, chunk, DISTILLING, self.cfg, sw,
            np.random.default_rng(1),
        )
        assert sum_t == 5.0  # perfect own-chain reward, 5 steps
        for rec in records:
            for s in rec.steps:
                if s.reward < 1.0:
                    assert s.mask == 1

    def test_horizon_limits_steps(self):
        rng = np.random.default_rng(0)
        chunk = make_chunk(rng, n_frames=13)
        sw = SharedWeights(self.params, OptimizerConfig(method="sgd", lr=1e-12))
        _, _, records = run_episode(
            self.model, self.params, chunk, DISTILLING, self.cfg, sw,
            np.random.default_rng(1), horizon=1,
        )
        assert [len(r.steps) for r in records] == [1]
        assert records[0].terminated

    def test_default_worker_config_follows_model_patch_size(self):
        # a 16-px model under a default WorkerConfig crops 16-px patches
        sw = SharedWeights(self.params, OptimizerConfig(method="sgd", lr=1e-4))
        rng = np.random.default_rng(0)
        for kind in (DISTILLING, AUTONOMOUS):
            for i in range(2):
                _, _, records = run_episode(
                    self.model, sw.snapshot(), make_chunk(rng, f"v{i}", n_frames=6), kind,
                    WorkerConfig(), sw, np.random.default_rng(0),
                )
                assert records[0].steps[0].state.patch_prev.shape == (16, 16, 3)
        assert sw.update_count == 4  # 5 steps -> one window per episode

    def test_autonomous_worker_needs_rng(self):
        sw = SharedWeights(self.params, OptimizerConfig(method="sgd", lr=1e-4))
        with pytest.raises(ConfigError, match="rng"):
            run_episode(
                self.model, self.params, make_chunk(np.random.default_rng(0)), AUTONOMOUS,
                self.cfg, sw, None,
            )
        assert sw.update_count == 0

    def test_unknown_kind(self):
        sw = SharedWeights(self.params, OptimizerConfig(method="sgd", lr=1e-4))
        with pytest.raises(ConfigError, match="observer"):
            run_episode(
                self.model, self.params, make_chunk(np.random.default_rng(0)), "observer",
                self.cfg, sw, np.random.default_rng(0),
            )
        assert sw.update_count == 0

    def test_autonomous_episodes_are_deterministic(self):
        def go():
            log = io.StringIO()
            sw = SharedWeights(
                self.params, OptimizerConfig(method="radam", lr=1e-3, weight_decay=0.0),
                log_file=log,
            )
            chunk_rng, rng = np.random.default_rng(5), np.random.default_rng(77)
            for i in range(3):
                chunk = make_chunk(chunk_rng, f"v{i}", n_frames=6)
                run_episode(self.model, sw.snapshot(), chunk, AUTONOMOUS, self.cfg, sw, rng)
            return sw.snapshot(), [e["loss"] for e in logged(log)]

        p1, l1 = go()
        p2, l2 = go()
        assert np.array_equal(p1, p2)
        assert l1 == l2


class RecordingShared(SharedWeights):
    def __init__(self, *a, **kw):
        super().__init__(*a, **kw)
        self.sent = []

    def update(self, grad, kind, meta=None):
        self.sent.append((grad.copy(), dict(meta or {})))
        return super().update(grad, kind, meta)


class CountingModel(StudentModel):
    def __init__(self, config):
        super().__init__(config)
        self.forward_calls = 0
        self.window_calls = 0

    def forward(self, params, state, hidden):
        self.forward_calls += 1
        return super().forward(params, state, hidden)

    def forward_window(self, params, states, hidden):
        self.window_calls += 1
        return super().forward_window(params, states, hidden)


class TestRolloutGradients:
    """run_episode reuses the rollout's forward pass; window_loss_fn recomputes
    it and is the reference."""

    def setup_method(self):
        self.model = StudentModel(SMALL)
        self.params = self.model.init_params(3)
        self.cfg = WorkerConfig(t_max=5)

    @pytest.mark.parametrize("kind", [DISTILLING, AUTONOMOUS])
    def test_sent_gradient_equals_reference(self, kind):
        chunk = make_chunk(np.random.default_rng(7), n_frames=13)
        sw = RecordingShared(self.params, OptimizerConfig(method="sgd", lr=1e-12))
        _, _, records = run_episode(
            self.model, self.params, chunk, kind, self.cfg, sw,
            np.random.default_rng(2), horizon=12,
        )
        assert [r.terminated for r in records] == [False, False, True]
        loss_kind = "distill" if kind == DISTILLING else "rl"
        for rec, (grad, entry) in zip(records, sw.sent):
            loss, want = window_loss_fn(self.model, rec, loss_kind)(self.params)
            assert np.array_equal(grad, want)
            assert entry["loss"] == loss

    def test_bootstrap_is_next_window_first_value(self):
        chunk = make_chunk(np.random.default_rng(7), n_frames=13)
        sw = SharedWeights(self.params, OptimizerConfig(method="sgd", lr=1e-12))
        _, _, records = run_episode(
            self.model, self.params, chunk, AUTONOMOUS, self.cfg, sw,
            np.random.default_rng(2), horizon=12,
        )
        for cut, following in zip(records, records[1:]):
            assert cut.bootstrap_value == following.steps[0].value

    def test_one_forward_per_env_step(self):
        model = CountingModel(SMALL)
        sw = SharedWeights(self.params, OptimizerConfig(method="sgd", lr=1e-12))
        _, _, records = run_episode(
            model, self.params, make_chunk(np.random.default_rng(7), n_frames=13), DISTILLING,
            self.cfg, sw, np.random.default_rng(2), horizon=12,
        )
        assert model.forward_calls == sum(len(r.steps) for r in records) == 12
        assert model.window_calls == 0

    def test_nonfinite_output_raises_where_it_appears(self):
        params = self.params.copy()
        self.model.view(params, "policy.b")[0] = np.nan
        sw = SharedWeights(self.params, OptimizerConfig(method="sgd", lr=1e-12))
        with pytest.raises(NumericError, match="step 1 .* on v0"):
            run_episode(
                self.model, params, make_chunk(np.random.default_rng(7), n_frames=13), DISTILLING,
                self.cfg, sw, np.random.default_rng(2), horizon=12,
            )
        assert sw.update_count == 0


class TestTrain:
    def test_budgeted_run_writes_checkpoint_and_log(self, tmp_path):
        import json as _json

        from trackdistill.model import load_params
        from trackdistill.training import TrainSettings, train

        model = StudentModel(SMALL)
        rng = np.random.default_rng(0)
        chunks = [make_chunk(rng, f"v{i}") for i in range(3)]
        settings = TrainSettings(
            workers=2, max_updates=12, val_every=6, seed=1, curriculum=True
        )
        res = train(
            model, chunks, settings,
            WorkerConfig(t_max=5),
            OptimizerConfig(method="sgd", lr=1e-5),
            str(tmp_path),
        )
        assert res.updates >= 12
        params = load_params(res.checkpoint_path, SMALL)
        assert params.shape == (model.n_params,)
        with open(res.log_path) as fh:
            entries = [_json.loads(line) for line in fh if line.strip()]
        applied = [e for e in entries if "update" in e and not e.get("validation")]
        assert len(applied) == res.updates
        kinds = {e["kind"] for e in applied}
        assert kinds == {DISTILLING, AUTONOMOUS}
        for e in applied:
            for key in ("worker", "loss", "sum_reward", "video_id", "T_hat"):
                assert key in e

    def test_validation_tracks_best(self, tmp_path):
        from trackdistill.training import TrainSettings, train

        model = StudentModel(SMALL)
        rng = np.random.default_rng(0)
        chunks = [make_chunk(rng, "v0")]
        calls = []

        def fake_val(params):
            calls.append(params.copy())
            return float(len(calls))  # strictly improving

        res = train(
            model, chunks,
            TrainSettings(workers=2, max_updates=8, val_every=4, seed=2),
            WorkerConfig(t_max=5),
            OptimizerConfig(method="sgd", lr=1e-5),
            str(tmp_path), validate_fn=fake_val,
        )
        assert len(calls) >= 2  # baseline plus at least one mid-run pass
        assert res.best_val_ao == float(len(calls))
        assert res.val_history[0][0] == 0

    def test_checkpoint_is_the_scored_snapshot(self, tmp_path):
        # training goes on after each validation; the kept parameters must
        # be the ones that earned the best score, not a later state
        import time as _time

        from trackdistill.model import load_params
        from trackdistill.training import TrainSettings, train

        model = StudentModel(SMALL)
        rng = np.random.default_rng(3)
        chunks = [make_chunk(rng, f"v{i}") for i in range(2)]
        seen = []

        def slow_val(params):
            seen.append(params.copy())
            _time.sleep(0.1)
            return float(len(seen))

        res = train(
            model, chunks,
            TrainSettings(workers=2, max_updates=30, val_every=10, seed=4),
            WorkerConfig(t_max=5),
            OptimizerConfig(method="sgd", lr=1e-4),
            str(tmp_path), validate_fn=slow_val,
        )
        best_seen = seen[-1]  # scores strictly improve, last call wins
        params = load_params(res.checkpoint_path, SMALL)
        np.testing.assert_array_equal(params, best_seen)

    def test_finite_transfer_set_cycles_to_budget(self, tmp_path):
        # two short chunks cannot fill the budget in one pass: each worker
        # reshuffles and goes round again, and the run ends at the budget
        import json as _json

        from trackdistill.training import TrainSettings, train

        model = StudentModel(SMALL)
        rng = np.random.default_rng(0)
        chunks = [make_chunk(rng, f"v{i}", n_frames=6) for i in range(2)]
        res = train(
            model, chunks, TrainSettings(workers=2, max_updates=8, seed=4),
            WorkerConfig(t_max=5),
            OptimizerConfig(method="sgd", lr=1e-5),
            str(tmp_path),
        )
        assert res.updates == 8  # 5 frames -> one window per episode
        with open(res.log_path) as fh:
            entries = [_json.loads(line) for line in fh if line.strip()]
        applied = [e for e in entries if "update" in e and not e.get("validation")]
        for w in range(2):
            seen = [e["video_id"] for e in applied if e["worker"] == w]
            assert len(seen) == 4
            assert sorted(seen[:2]) == sorted(seen[2:]) == ["v0", "v1"]

    def test_worker_floor(self, tmp_path):
        from trackdistill.training import TrainSettings, train

        model = StudentModel(SMALL)
        with pytest.raises(ConfigError):
            train(
                model, [make_chunk(np.random.default_rng(0), "v")],
                TrainSettings(workers=1),
                WorkerConfig(), OptimizerConfig(), str(tmp_path),
            )

    def test_empty_transfer_set_rejected(self, tmp_path):
        from trackdistill.training import TrainSettings, train

        model = StudentModel(SMALL)
        with pytest.raises(ConfigError):
            train(
                model, [], TrainSettings(workers=2),
                WorkerConfig(), OptimizerConfig(), str(tmp_path),
            )

    def test_episode_error_propagates_and_log_survives(self, tmp_path):
        # a grayscale last frame: the first window lands, then cropping the
        # frame for the second window's last step raises
        chunk = make_chunk(np.random.default_rng(0), "v0", n_frames=12)
        chunk.frames[11] = chunk.frames[11][:, :, 0]
        with pytest.raises(InvalidInputError, match="frame must be"):
            train(
                StudentModel(SMALL), [chunk],
                TrainSettings(workers=2, max_updates=50, val_every=1, seed=0, curriculum=False),
                WorkerConfig(t_max=5),
                OptimizerConfig(method="sgd", lr=1e-5),
                str(tmp_path), validate_fn=lambda params: 0.5,
            )
        with open(tmp_path / "train_log.jsonl") as fh:
            entries = [json.loads(line) for line in fh]
        assert [(e.get("validation", False), e["update"]) for e in entries] == [
            (True, 0), (False, 1),
        ]

    def test_whole_run_is_reproducible(self, tmp_path):
        rng = np.random.default_rng(5)
        chunks = [make_chunk(rng, f"v{i}", n_frames=12) for i in range(3)]
        model = StudentModel(SMALL)

        def run(out):
            res = train(
                model, chunks,
                TrainSettings(max_updates=60, val_every=20, seed=3),
                WorkerConfig(t_max=5),
                OptimizerConfig(lr=1e-3),
                str(out), validate_fn=lambda params: -float(np.abs(params).sum()),
            )
            with open(res.checkpoint_path, "rb") as ckpt, open(res.log_path) as log:
                return ckpt.read(), log.read()

        first = run(tmp_path / "a")
        assert first == run(tmp_path / "b")
        workers = {json.loads(line).get("worker") for line in first[1].splitlines()}
        assert workers - {None} == set(range(8))

    def test_snapshot_once_per_episode(self, tmp_path, monkeypatch):
        # one snapshot per turn, taken before the episode and never inside
        # it, although each 13-frame chunk plays as 3 windows
        calls = []
        snapshot, episode = SharedWeights.snapshot, training.run_episode

        def counted_snapshot(shared):
            calls.append("snapshot")
            return snapshot(shared)

        def counted_episode(*args, **kwargs):
            calls.append("episode")
            result = episode(*args, **kwargs)
            assert len(result[2]) == 3
            return result

        monkeypatch.setattr(SharedWeights, "snapshot", counted_snapshot)
        monkeypatch.setattr(training, "run_episode", counted_episode)
        rng = np.random.default_rng(0)
        res = train(
            StudentModel(SMALL), [make_chunk(rng, f"v{i}", n_frames=13) for i in range(2)],
            TrainSettings(workers=2, max_updates=12, seed=0, curriculum=False),
            WorkerConfig(t_max=5),
            OptimizerConfig(method="sgd", lr=1e-4),
            str(tmp_path),
        )
        assert res.updates == 12
        # the last snapshot is the checkpoint's
        assert calls == ["snapshot", "episode"] * 4 + ["snapshot"]

    def test_curriculum_shortens_early_episodes(self, tmp_path):
        # with the curriculum on, a new chunk starts at the initial horizon;
        # without it, every episode plays the whole 13-frame chunk
        def first_horizon(curriculum):
            res = train(
                StudentModel(SMALL), [make_chunk(np.random.default_rng(0), n_frames=13)],
                TrainSettings(
                    workers=2, max_updates=1, seed=0, curriculum=curriculum,
                    initial_horizon=2,
                ),
                WorkerConfig(t_max=5),
                OptimizerConfig(method="sgd", lr=1e-4),
                str(tmp_path / str(curriculum)),
            )
            with open(res.log_path) as fh:
                first = json.loads(fh.readline())
            assert first["worker"] == 0
            return first["T_hat"]

        assert first_horizon(True) == 2
        assert first_horizon(False) == 12

    def test_log_is_written_as_it_happens(self, tmp_path):
        model = StudentModel(SMALL)
        chunks = [make_chunk(np.random.default_rng(1), "v0")]
        seen = []
        res = train(
            model, chunks,
            TrainSettings(workers=2, max_updates=8, val_every=4, seed=2),
            WorkerConfig(t_max=5),
            OptimizerConfig(method="sgd", lr=1e-5),
            str(tmp_path), validate_fn=lambda params: 0.5, progress=seen.append,
        )
        with open(res.log_path) as fh:
            entries = [json.loads(line) for line in fh]
        applied = 0
        for e in entries:
            if e.get("validation"):
                assert e["update"] == applied  # sits at the update it scored
                assert e["best_val_score"] == 0.5
            else:
                applied += 1
        validations = [e for e in entries if e.get("validation")]
        assert [(e["update"], e["val_score"]) for e in validations] == res.val_history
        assert seen == validations
