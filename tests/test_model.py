"""Forward determinism, weight sharing, exact gradients, checkpoints."""

import os
import re
import weakref

import numpy as np
import pytest

from trackdistill.errors import CheckpointError, ConfigError, NumericError, ParseError
from trackdistill.mdp import State
from trackdistill.model import (
    GradCheckReport,
    HiddenSchedule,
    HiddenState,
    StudentConfig,
    StudentModel,
    _sigmoid,
    grad_check,
    load_params,
    save_params,
)

SMALL = StudentConfig(patch_size=16, conv_channels=(4, 8), fc_dim=16, hidden_dim=12)


def random_state(rng, patch_size=16):
    shape = (patch_size, patch_size, 3)
    return State(
        patch_prev=rng.uniform(0, 255, shape),
        patch_cur=rng.uniform(0, 255, shape),
    )


class TestForward:
    def test_deterministic(self):
        rng = np.random.default_rng(101)
        model = StudentModel(SMALL)
        params = model.init_params(seed=1)
        s = random_state(rng)
        h = model.zero_hidden()
        (mu1,), (v1,), h1 = model.forward(params, [s], h, model.window(1))
        (mu2,), (v2,), h2 = model.forward(params, [s], h, model.window(1))
        np.testing.assert_array_equal(mu1, mu2)
        assert v1 == v2
        np.testing.assert_array_equal(h1.h, h2.h)

    def test_action_bounded(self):
        rng = np.random.default_rng(102)
        model = StudentModel(SMALL)
        for seed in range(5):
            params = model.init_params(seed) * 10.0  # exaggerate pre-activations
            (mu,), _, _ = model.forward(
                params, [random_state(rng)], model.zero_hidden(), model.window(1)
            )
            assert np.all(np.abs(mu) < 1.0)

    def test_zero_params_zero_outputs(self):
        rng = np.random.default_rng(103)
        model = StudentModel(SMALL)
        params = np.zeros(model.n_params)
        (mu,), (v,), hidden = model.forward(
            params, [random_state(rng)], model.zero_hidden(), model.window(1)
        )
        np.testing.assert_array_equal(mu, np.zeros(4))
        assert v == 0.0
        np.testing.assert_array_equal(hidden.h, np.zeros((1, 12)))

    def test_hidden_state_matters(self):
        rng = np.random.default_rng(104)
        model = StudentModel(SMALL)
        params = model.init_params(seed=2)
        s = random_state(rng)
        mu_cold, _, h1 = model.forward(params, [s], model.zero_hidden(), model.window(1))
        mu_warm, _, _ = model.forward(params, [s], h1, model.window(1))
        assert not np.array_equal(mu_cold, mu_warm)

    def test_weight_sharing_across_branches(self):
        """Both patch branches apply the identical encoder function."""
        rng = np.random.default_rng(105)
        model = StudentModel(SMALL)
        params = model.init_params(seed=3)
        a = rng.uniform(0, 255, (16, 16, 3))
        b = rng.uniform(0, 255, (16, 16, 3))
        v = model.views(params)
        fa, fb = (model._encode(v, patch[None], model._kept(1))[0] for patch in (a, b))
        sab = State(a, b)
        sba = State(b, a)
        mus = {}
        for tag, st in (("ab", sab), ("ba", sba)):
            (mus[tag],), _, _ = model.forward(params, [st], model.zero_hidden(), model.window(1))
        # swapping inputs changes the output only via concat order, never via
        # per-branch weights: rebuild both orders from the same two features
        for tag, first, second in (("ab", fa, fb), ("ba", fb, fa)):
            z = np.concatenate([first, second])
            a1 = np.maximum(v["fuse1.W"] @ z + v["fuse1.b"], 0.0)
            a2 = np.maximum(v["fuse2.W"] @ a1 + v["fuse2.b"], 0.0)
            assert a2.shape == (16,)
        assert not np.array_equal(mus["ab"], mus["ba"])

    def test_shape_mismatch_rejected(self):
        rng = np.random.default_rng(106)
        model = StudentModel(SMALL)
        params = model.init_params(seed=1)
        bad = random_state(rng, patch_size=8)
        with pytest.raises(ConfigError):
            model.forward(params, [bad], model.zero_hidden(), model.window(1))

    def test_nonfinite_params_detected(self):
        rng = np.random.default_rng(108)
        model = StudentModel(SMALL)
        params = model.init_params(seed=5)
        params[10] = np.inf
        # the deliberate inf overflows and turns to nan on the way; the check under
        # test is the NumericError
        with np.errstate(invalid="ignore", over="ignore"):
            with pytest.raises(NumericError, match="step 0"):
                model.forward_window(params, [random_state(rng)], model.zero_hidden())

    def test_bad_configs_rejected(self):
        with pytest.raises(ConfigError):
            StudentModel(StudentConfig(patch_size=30))  # not divisible by 2^3

    @pytest.mark.parametrize("channels", [(0, 8), (-4, 8), (4, 0)])
    def test_stage_without_channels_rejected(self, channels):
        with pytest.raises(ConfigError, match=re.escape(
            f"conv stages need at least 1 channel, got {channels}"
        )):
            StudentConfig(patch_size=16, conv_channels=channels)


class TestParamViewCache:
    def counting(self, model):
        calls = []
        views = model.views
        model.views = lambda params: calls.append(params) or views(params)
        return calls

    def test_views_built_once_per_vector(self):
        rng = np.random.default_rng(111)
        model = StudentModel(SMALL)
        calls = self.counting(model)
        params = model.init_params(seed=1)
        states = [random_state(rng) for _ in range(3)]
        _, _, _, window = model.forward_window(params, states, model.zero_hidden())
        model.forward(params, states[:2], model.zero_hidden())
        model._encode(model._param_views(params), states[0].patch_cur[None], None)
        assert [c is params for c in calls] == [True]
        # backward reads the cached views; its fresh gradient's views are not kept
        model.backward_window(params, window, np.ones((3, 4)), np.ones(3))
        model.forward(params, states[:1], model.zero_hidden(), model.window(1))
        assert [c is params for c in calls] == [True, False]

    def test_cache_holds_its_vector(self):
        rng = np.random.default_rng(112)
        model = StudentModel(SMALL)
        params = model.init_params(seed=1)
        model.forward(params, [random_state(rng)], model.zero_hidden(), model.window(1))
        ref = weakref.ref(params)
        del params
        assert ref() is not None  # so no later vector can take its id

    def test_outputs_follow_the_vector(self):
        rng = np.random.default_rng(113)
        model, fresh = StudentModel(SMALL), StudentModel(SMALL)
        s, h = random_state(rng), model.zero_hidden()
        p, q = model.init_params(seed=1), model.init_params(seed=2)
        for params in (p, q.copy(), p):
            got_mu, got_v, _ = model.forward(params, [s], h, model.window(1))
            want_mu, want_v, _ = fresh.forward(params.copy(), [s], h, fresh.window(1))
            assert np.array_equal(got_mu, want_mu) and got_v == want_v
        p[:] = q  # an in-place update shows through the cached views
        got_mu, got_v, _ = model.forward(p, [s], h, model.window(1))
        want_mu, want_v, _ = fresh.forward(q, [s], h, fresh.window(1))
        assert np.array_equal(got_mu, want_mu) and got_v == want_v


def masked_sigmoid(x):
    """The earlier boolean-mask formulation, kept as the reference."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


class TestSigmoid:
    def test_bitwise_equal_to_masked_form(self):
        rng = np.random.default_rng(130)
        edges = np.array([0.0, -0.0, np.inf, -np.inf, 800.0, -800.0, 1e-300, -1e-300])
        for x in (edges, rng.normal(scale=8.0, size=200_000), rng.normal(size=(3, 64))[:, 5:37]):
            got = _sigmoid(x)
            assert got.shape == x.shape
            np.testing.assert_array_equal(got, masked_sigmoid(x))
            assert np.array_equal(np.signbit(got), np.signbit(masked_sigmoid(x)))

    def test_nan_stays_nan(self):
        assert np.all(np.isnan(_sigmoid(np.array([np.nan, -np.nan]))))


def random_hiddens(rng, config, k):
    """One HiddenState whose (k, hidden) rows are k lanes' states."""
    hdim = config.hidden_dim
    return HiddenState(rng.normal(size=(k, hdim)), rng.normal(size=(k, hdim)))


def assert_lanes_equal_forward(model, params, states, hidden):
    """Window-less ``forward`` rows against per-lane windowed ``forward``, the
    reference; a one-row (1-D) ``hidden`` starts every lane from that row."""
    k = len(states)
    actions, values, new_hidden = model.forward(params, states, hidden)
    assert actions.shape == (k, 4) and values.shape == (k,)
    assert new_hidden.h.shape == new_hidden.c.shape == (k, model.config.hidden_dim)
    hs, cs = (np.broadcast_to(x, (k, model.config.hidden_dim)) for x in (hidden.h, hidden.c))
    for lane in range(k):  # bitwise: batching and sharing must not change the rounding
        (mu,), (v,), h = model.forward(
            params, [states[lane]], HiddenState(hs[lane], cs[lane]), model.window(1)
        )
        np.testing.assert_array_equal(actions[lane], mu)
        assert values[lane] == v
        np.testing.assert_array_equal(new_hidden.h[lane], h.h[0])
        np.testing.assert_array_equal(new_hidden.c[lane], h.c[0])


class TestForwardLanes:
    @pytest.mark.parametrize("config", [SMALL, StudentConfig()], ids=["conv", "default"])
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 6, 8])
    def test_rows_equal_per_lane_forward(self, config, k):
        rng = np.random.default_rng(140 + k)
        model = StudentModel(config)
        params = model.init_params(seed=13) * 2.0
        distinct = [random_state(rng, config.patch_size) for _ in range(2)]
        extra = [random_state(rng, config.patch_size) for _ in range(max(1, k - 3))]
        # lanes 0 and 2 share one State object; every lane has its own hidden state
        states = ([distinct[0], distinct[1], distinct[0]] + extra)[:k]
        assert_lanes_equal_forward(model, params, states, random_hiddens(rng, config, k))

    @pytest.mark.parametrize("config", [SMALL, StudentConfig()], ids=["conv", "default"])
    @pytest.mark.parametrize("k", [1, 3, 8])
    def test_one_row_state_starts_every_lane(self, config, k):
        """A one-row state is broadcast to every lane: each row is bitwise a
        one-lane ``forward`` from that row, as it is from K stacked copies."""
        rng = np.random.default_rng(170 + k)
        model = StudentModel(config)
        params = model.init_params(seed=18) * 2.0
        states = [random_state(rng, config.patch_size) for _ in range(k)]
        row = random_hiddens(rng, config, 1)
        one = HiddenState(row.h[0], row.c[0])
        assert_lanes_equal_forward(model, params, states, one)
        stacked = HiddenState(np.repeat(row.h, k, axis=0), np.repeat(row.c, k, axis=0))
        (mu1, v1, h1), (mu, v, h) = (
            model.forward(params, states, x) for x in (one, stacked)
        )
        assert_trees_bitwise([mu1, v1, h1.h, h1.c], [mu, v, h.h, h.c])

    @pytest.mark.parametrize("config", [SMALL, StudentConfig()], ids=["conv", "default"])
    def test_rows_stay_bitwise_as_lane_counts_change(self, config):
        """One model through growing and shrinking stacks: a dirty border or a
        stale row in the reused encoder buffers would change some lane's row."""
        rng = np.random.default_rng(152)
        model = StudentModel(config)
        params = model.init_params(seed=15) * 2.0
        for k in (8, 1, 3, 8, 2):
            states = [random_state(rng, config.patch_size) for _ in range(k)]
            assert_lanes_equal_forward(model, params, states, random_hiddens(rng, config, k))

    def test_shared_state_encoded_once(self, monkeypatch):
        rng = np.random.default_rng(150)
        model = StudentModel(SMALL)
        params = model.init_params(seed=14)
        a, b = random_state(rng), random_state(rng)
        encoded = []
        encode = model._encode
        monkeypatch.setattr(
            model,
            "_encode",
            lambda v, patches, *rest: encoded.append(len(patches)) or encode(v, patches, *rest),
        )
        model.forward(params, [a, b, a, a], model.zero_hidden())
        assert encoded == [4]  # two distinct states, two patches each, one call

    def test_shape_mismatch_rejected(self):
        rng = np.random.default_rng(151)
        model = StudentModel(SMALL)
        params = model.init_params(seed=1)
        states = [random_state(rng), random_state(rng, patch_size=8)]
        with pytest.raises(ConfigError):
            model.forward(params, states, model.zero_hidden())

    def test_a_window_takes_one_lane(self):
        """A windowed call of two lanes, by its states or by its hidden rows, raises
        before it writes anything (a full window raises too: see test_training)."""
        rng = np.random.default_rng(153)
        model = StudentModel(SMALL)
        params = model.init_params(seed=1)
        window = model.window(2)
        model.forward(params, [random_state(rng)], model.zero_hidden(), window)
        kept = [a.copy() for a in arrays_in([window.kept, window.rows])]
        lanes = [random_state(rng), random_state(rng)]
        for states, rows in ((lanes, 2), (lanes[:1], 2), (lanes, 1)):
            with pytest.raises(ValueError, match="a window takes one lane per step, not 2"):
                model.forward(params, states, random_hiddens(rng, SMALL, rows), window)
        assert window.steps == 1
        assert_trees_bitwise([window.kept, window.rows], kept)


def window_sum_loss(model, states, h0, cmu, cv):
    """Scalar loss linear in every output: sum(cmu * mu) + sum(cv * v)."""

    def fn(params):
        mus, values, _, caches = model.forward_window(params, states, h0)
        loss = float(np.sum(cmu * mus) + np.sum(cv * values))
        grad = model.backward_window(params, caches, cmu, cv)
        return loss, grad

    return fn


class TestGradients:
    def test_linear_closed_form(self):
        """Plain linear map with squared loss: grad must equal 2(w.x - y) x."""
        rng = np.random.default_rng(111)
        x = rng.normal(size=8)
        y = 1.7

        def loss_fn(w):
            r = float(w @ x - y)
            return r * r, 2.0 * r * x

        w0 = rng.normal(size=8)
        report = grad_check(w0, loss_fn, eps=1e-4, samples=8)
        assert report.max_rel_error < 1e-7

    def test_constant_loss_zero_grad(self):
        def loss_fn(w):
            return 3.5, np.zeros_like(w)

        report = grad_check(np.ones(10), loss_fn, samples=10)
        assert report.max_rel_error == 0.0

    @pytest.mark.parametrize("config", [SMALL], ids=["conv"])
    def test_full_model_window_fd(self, config):
        rng = np.random.default_rng(112)
        model = StudentModel(config)
        params = model.init_params(seed=7)
        states = [random_state(rng, config.patch_size) for _ in range(3)]
        cmu = rng.normal(size=(3, 4))
        cv = rng.normal(size=3)
        fn = window_sum_loss(model, states, model.zero_hidden(), cmu, cv)
        report = grad_check(params, fn, eps=1e-4, samples=60, rng=rng, name_of=model.param_name)
        assert report.max_rel_error < 1e-4, str(report)

    def test_bptt_couples_steps(self):
        # Gradient at step-0 parameters must reflect step-2 outputs: zeroing
        # the later steps' output weights changes the recurrent weight grads.
        rng = np.random.default_rng(113)
        model = StudentModel(SMALL)
        params = model.init_params(seed=9)
        states = [random_state(rng) for _ in range(3)]
        cv = np.zeros(3)
        cmu_all = np.ones((3, 4))
        cmu_last = np.zeros((3, 4))
        cmu_last[2] = 1.0
        _, g_all = window_sum_loss(model, states, model.zero_hidden(), cmu_all, cv)(params)
        _, g_last = window_sum_loss(model, states, model.zero_hidden(), cmu_last, cv)(params)
        wh = slice(*model._slices["rnn.Wh"][0].indices(model.n_params))
        assert np.any(g_last[wh] != 0.0)  # earlier steps reached through time
        assert not np.allclose(g_all[wh], g_last[wh])

    def test_report_names_worst_coordinate(self):
        rng = np.random.default_rng(114)
        model = StudentModel(SMALL)
        params = model.init_params(seed=1)
        states = [random_state(rng)]
        fn = window_sum_loss(model, states, model.zero_hidden(), np.ones((1, 4)), np.ones(1))
        report = grad_check(params, fn, samples=5, rng=rng, name_of=model.param_name)
        assert isinstance(report, GradCheckReport)
        assert "[" in report.worst_name and "]" in report.worst_name


def conv_reference(x, W, b):
    """Direct stride-2, pad-1, 3x3 convolution plus ReLU of one (h, w, cin) map."""
    xp = np.pad(x, ((1, 1), (1, 1), (0, 0)))
    oh, ow = x.shape[0] // 2, x.shape[1] // 2
    out = np.empty((oh, ow, W.shape[0]))
    for i in range(oh):
        for j in range(ow):
            window = xp[2 * i : 2 * i + 3, 2 * j : 2 * j + 3]  # (3, 3, cin)
            out[i, j] = np.einsum("yxc,ocyx->o", window, W) + b
    return np.maximum(out, 0.0)


def nine_copy_encode(model, v, patches):
    """The im2col encoder with nine strided copies per conv stage into fresh
    buffers: the bitwise reference for ``StudentModel._encode``."""
    n = patches.shape[0]
    x = patches / 255.0 - 0.5
    stage_caches = []
    for k, (side, cin) in enumerate(model._conv_stages):
        W = v[f"enc.conv{k}.W"]
        half = side // 2
        xpad = np.zeros((n, side + 2, side + 2, cin))
        xpad[:, 1:-1, 1:-1] = x
        cols = np.empty((n, half, half, cin, 3, 3))
        for ky in range(3):
            for kx in range(3):
                cols[..., ky, kx] = xpad[:, ky : ky + side : 2, kx : kx + side : 2]
        cols = cols.reshape(n, half * half, cin * 9)
        pre = cols @ W.reshape(W.shape[0], -1).T + v[f"enc.conv{k}.b"]
        stage_caches.append((cols.reshape(-1, cin * 9), pre.reshape(-1, W.shape[0])))
        x = np.maximum(pre, 0.0).reshape(n, half, half, W.shape[0])
    return x.reshape(n, -1), stage_caches


def encoding(kept):
    """The features and per-stage (columns, pre-activations) in ``_kept`` buffers,
    as (n, feature_dim) and (n·half², ·) views: ``nine_copy_encode``'s layout."""
    stages = [(cols.reshape(-1, cols.shape[-1]), pre.reshape(-1, pre.shape[-1]))
              for cols, pre in zip(kept[0:-1:2], kept[1:-1:2])]
    return kept[-1], stages


def arrays_in(tree):
    """Every array of a nested tuple/list, in order."""
    if isinstance(tree, np.ndarray):
        return [tree]
    return [a for item in tree for a in arrays_in(item)]


def assert_trees_bitwise(got, want):
    got, want = arrays_in(got), arrays_in(want)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.shape == w.shape and g.tobytes() == w.tobytes()


class TestGatherEncoder:
    @pytest.mark.parametrize("config", [SMALL, StudentConfig()], ids=["conv", "default"])
    def test_bitwise_nine_copy_reference(self, config):
        """Fresh and reused buffers, through growing and shrinking stacks on one model."""
        rng = np.random.default_rng(160)
        model = StudentModel(config)
        params = model.init_params(seed=16) * 2.0
        v = model.views(params)
        p = config.patch_size
        for n in (8, 1, 16, 3, 2, 6):
            patches = rng.uniform(0, 255, (n, p, p, 3))
            want = nine_copy_encode(model, v, patches)
            fresh = model._kept(n)
            model._encode(v, list(patches), fresh)
            assert_trees_bitwise(encoding(fresh), want)
            model._encode(v, list(patches), None)
            assert_trees_bitwise(encoding(model._arena(n)[len(config.conv_channels) + 1 :]), want)

    @pytest.mark.parametrize("config", [SMALL, StudentConfig()], ids=["conv", "default"])
    def test_forward_caches_outlive_lane_calls(self, config):
        """A ``forward`` window owns its buffers: window-less and later windowed
        ``forward`` calls leave its bytes and its gradient as they were."""
        rng = np.random.default_rng(161)
        model, fresh = StudentModel(config), StudentModel(config)
        params = model.init_params(seed=17)
        p, h0 = config.patch_size, model.zero_hidden()

        def lanes():
            return [random_state(rng, p) for _ in range(8)], random_hiddens(rng, config, 8)

        model.forward(params, *lanes())  # the reused buffers are at full size
        states = [random_state(rng, p) for _ in range(3)]
        one = model.window(1)
        model.forward(params, states[:1], h0, one)
        _, _, _, window = model.forward_window(params, states, h0)
        rows = [[w.kept, w.rows] for w in (one, window)]
        kept = [a.copy() for a in arrays_in(rows)]
        dmus, dvalues = rng.normal(size=(3, 4)), rng.normal(size=3)
        grad = model.backward_window(params, window, dmus, dvalues)
        grad_one = model.backward_window(params, one, dmus[:1], dvalues[:1])

        model.forward(params, *lanes())
        model.forward(params, [random_state(rng, p)], h0, model.window(1))
        assert_trees_bitwise(rows, kept)
        assert model.backward_window(params, window, dmus, dvalues).tobytes() == grad.tobytes()
        assert model.backward_window(params, one, dmus[:1], dvalues[:1]).tobytes() == (
            grad_one.tobytes()
        )
        _, _, _, own = fresh.forward_window(params, states, h0)
        assert fresh.backward_window(params, own, dmus, dvalues).tobytes() == grad.tobytes()


class TestBatchedEncoder:
    @pytest.mark.parametrize("config", [SMALL, StudentConfig()], ids=["conv", "default"])
    def test_rows_equal_single_patch_features(self, config):
        rng = np.random.default_rng(115)
        model = StudentModel(config)
        params = model.init_params(seed=11)
        p = config.patch_size
        patches = rng.uniform(0, 255, (4, p, p, 3))
        feats = model._encode(model.views(params), patches, model._kept(4))
        assert feats.shape == (4, model.feature_dim)
        for k in range(4):  # bitwise: batching must not change the rounding
            one = model._encode(model.views(params), patches[k : k + 1], model._kept(1))
            np.testing.assert_array_equal(feats[k], one[0])

    def test_conv_features_match_direct_convolution(self):
        rng = np.random.default_rng(116)
        model = StudentModel(SMALL)
        params = model.init_params(seed=12)
        v = model.views(params)
        patch = rng.uniform(0, 255, (16, 16, 3))
        x = patch / 255.0 - 0.5
        for k in range(len(SMALL.conv_channels)):
            x = conv_reference(x, v[f"enc.conv{k}.W"], v[f"enc.conv{k}.b"])
        feats = model._encode(v, patch[None], model._kept(1))
        np.testing.assert_allclose(feats[0], x.reshape(-1), atol=1e-12)

    def test_every_conv_coordinate_fd(self):
        """Central differences on all encoder weights, not a sample: every
        conv0 coordinate reaches the loss through the stage-1 col2im."""
        rng = np.random.default_rng(120)
        model = StudentModel(SMALL)
        params = model.init_params(seed=13)
        states = [random_state(rng) for _ in range(2)]
        h0 = model.zero_hidden()
        fn = window_sum_loss(model, states, h0, rng.normal(size=(2, 4)), rng.normal(size=2))
        _, grad = fn(params)
        # Every ReLU input (encoder stages; fuse1/fuse2 at step rows 0, 2)
        # this far from its kink cannot flip under a 1e-6 step, so the loss
        # is smooth along every probe.
        _, _, _, window = model.forward_window(params, states, h0)
        relu_inputs = window.kept[1:-1:2] + [r[i] for r in window.rows for i in (0, 2)]
        assert min(np.abs(p).min() for p in relu_inputs) > 1e-5
        coords = np.concatenate([
            np.arange(model.n_params)[sl]
            for name, (sl, _) in model._slices.items() if name.startswith("enc.conv")
        ])
        assert coords.size == 4 * 3 * 9 + 4 + 8 * 4 * 9 + 8
        eps = 1e-6
        for i in coords:
            probe = params.copy()
            probe[i] += eps
            lp, _ = fn(probe)
            probe[i] = params[i] - eps
            lm, _ = fn(probe)
            numeric = (lp - lm) / (2.0 * eps)
            rel = abs(grad[i] - numeric) / max(abs(grad[i]), abs(numeric), 1e-3)
            assert rel < 1e-6, (model.param_name(int(i)), grad[i], numeric)


class TestParamNames:
    def test_partition_covers_vector(self):
        model = StudentModel(SMALL)
        assert model.param_name(0).startswith("enc.conv0.W")
        assert model.param_name(model.n_params - 1).startswith("value.b")
        with pytest.raises(IndexError):
            model.param_name(model.n_params)

    def test_views_are_views(self):
        model = StudentModel(SMALL)
        params = model.init_params(seed=1)
        model.view(params, "policy.b")[:] = 7.0
        assert np.all(params[model._slices["policy.b"][0]] == 7.0)


class TestHiddenSchedule:
    def test_cold_start_is_zero(self):
        model = StudentModel(SMALL)
        sched = HiddenSchedule(model, period=32)
        h = sched.before(1)
        assert np.all(h.h == 0.0) and np.all(h.c == 0.0)

    def test_reset_at_period_boundary(self):
        rng = np.random.default_rng(121)
        model = StudentModel(SMALL)
        params = model.init_params(seed=11)
        sched = HiddenSchedule(model, period=32)
        snapshot = None
        seen = {}
        state = random_state(rng)
        for t in range(1, 35):
            h = sched.before(t)
            _, _, h_next = model.forward(params, [state], h, model.window(1))
            sched.after(t, h_next)
            seen[t] = h
            if t == 1:
                snapshot = h_next
        # frames 2..32 evolve freely; frame 33 restarts from the t=1 snapshot
        assert not np.array_equal(seen[32].h, snapshot.h)
        np.testing.assert_array_equal(seen[33].h, snapshot.h)
        np.testing.assert_array_equal(seen[33].c, snapshot.c)
        assert not np.array_equal(seen[34].h, snapshot.h)

    def test_snapshot_replayed_every_period(self):
        rng = np.random.default_rng(122)
        model = StudentModel(SMALL)
        params = model.init_params(seed=12)
        sched = HiddenSchedule(model, period=4)
        state = random_state(rng)
        fetched = {}
        for t in range(1, 14):
            h = sched.before(t)
            fetched[t] = h
            _, _, h_next = model.forward(params, [state], h, model.window(1))
            sched.after(t, h_next)
        snap = fetched[2]  # state entering step 2 is the post-step-1 snapshot
        for t in (5, 9, 13):
            np.testing.assert_array_equal(fetched[t].h, snap.h)


class TestCheckpoints:
    def test_round_trip_bitwise(self, tmp_path):
        model = StudentModel(SMALL)
        params = model.init_params(seed=13)
        p = str(tmp_path / "m.ckpt")
        save_params(p, SMALL, params)
        back = load_params(p, SMALL)
        assert back.tobytes() == params.tobytes()

    def test_save_replaces_through_a_temporary_file(self, tmp_path, monkeypatch):
        model = StudentModel(SMALL)
        p = tmp_path / "m.ckpt"
        save_params(str(p), SMALL, model.init_params(seed=1))
        # a write that fails part-way leaves the earlier checkpoint whole
        monkeypatch.setattr(StudentConfig, "fingerprint", lambda self: 1 / 0)
        with pytest.raises(ZeroDivisionError):
            save_params(str(p), SMALL, model.init_params(seed=2))
        monkeypatch.undo()
        assert load_params(str(p), SMALL).tobytes() == model.init_params(seed=1).tobytes()
        save_params(str(p), SMALL, model.init_params(seed=2))
        assert load_params(str(p), SMALL).tobytes() == model.init_params(seed=2).tobytes()
        assert os.listdir(tmp_path) == ["m.ckpt"]

    def test_fingerprint_mismatch(self, tmp_path):
        model = StudentModel(SMALL)
        p = str(tmp_path / "m.ckpt")
        save_params(p, SMALL, model.init_params(seed=1))
        other = StudentConfig(patch_size=16, conv_channels=(4, 8), fc_dim=16, hidden_dim=16)
        with pytest.raises(CheckpointError, match="different architecture"):
            load_params(p, other)

    def test_fingerprint_pinned(self):
        # checkpoints written so far carry these; a change makes them unloadable
        assert StudentConfig().fingerprint().hex() == (
            "d795bb48bb38e7f59201d96db2c78587585751eb8a26161d85ee7445654d1a2d"
        )
        assert SMALL.fingerprint().hex() == (
            "5747493fe6fa258130dfbf651ddb43ba4ae8e0957adb18fbac9b2b5cf346fd6f"
        )

    def test_empty_file_rejected(self, tmp_path):
        p = tmp_path / "empty.ckpt"
        p.write_bytes(b"")
        with pytest.raises(ParseError):
            load_params(str(p), SMALL)

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "junk.ckpt"
        p.write_bytes(b"NOTACKPT" + b"\x00" * 64)
        with pytest.raises(ParseError, match="magic"):
            load_params(str(p), SMALL)

    def test_truncated_payload_rejected(self, tmp_path):
        model = StudentModel(SMALL)
        p = str(tmp_path / "m.ckpt")
        save_params(p, SMALL, model.init_params(seed=1))
        with open(p, "rb") as fh:
            blob = fh.read()
        expected = model.n_params * 8
        # the payload cut short, then two bytes past its end
        for bad in (blob[:-16], blob + b"\x00\x01"):
            with open(p, "wb") as fh:
                fh.write(bad)
            got = expected + len(bad) - len(blob)
            with pytest.raises(ParseError, match=re.escape(
                f"{p}: parameter payload has {got} bytes, expected {expected}"
            )):
                load_params(p, SMALL)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_nonfinite_params_rejected_at_load(self, tmp_path, value):
        # a checkpoint edited after save: its last double is not finite
        model = StudentModel(SMALL)
        p = str(tmp_path / "m.ckpt")
        save_params(p, SMALL, model.init_params(seed=1))
        with open(p, "r+b") as fh:
            fh.seek(-8, 2)
            fh.write(np.float64(value).astype("<f8").tobytes())
        with pytest.raises(CheckpointError, match=re.escape(
            f"{p}: checkpoint holds non-finite parameters"
        )):
            load_params(p, SMALL)

    def test_nonfinite_params_refused(self, tmp_path):
        model = StudentModel(SMALL)
        params = model.init_params(seed=1)
        params[0] = np.nan
        with pytest.raises(NumericError):
            save_params(str(tmp_path / "x.ckpt"), SMALL, params)
