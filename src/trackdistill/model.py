"""The compact recurrent policy/value model, with exact gradients.

Architecture: two weight-shared conv patch encoders -> concat -> two fully
connected layers -> recurrent cell -> twin heads (bounded action, linear
value). Everything is float64 numpy with hand-derived reverse-mode gradients,
so finite-difference verification can be made tight.

``forward`` is the one step call: it steps K lanes, and tracking runs it
without a window. Training runs it once per step, one lane, into a
``WindowCache``, the one object ``backward_window`` reads: each step's encoder
columns, pre-activations and features land in the window's rows 2i and
2i + 1, and its recurrent rows are appended to the window's list.
``backward_window`` then runs only the recurrent deltas step by step and
takes every weight's gradient as one product over the window, the encoder's
over all 2n patches, reading the window's buffers in place.

Parameters live in one flat vector partitioned into named tensors; training
code treats it as an opaque array, which keeps shared-weight updates and
delta replay bitwise-exact.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
from dataclasses import asdict, dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import CheckpointError, ConfigError, NumericError, ParseError
from .mdp import State

CHECKPOINT_MAGIC = b"TRKDSTL1"
CHECKPOINT_VERSION = 1
HIDDEN_RESET_PERIOD = 32


@dataclass(frozen=True)
class StudentConfig:
    """Architecture knobs: the patch side, the output channels of each stride-2
    3x3 conv stage of the encoder, the width of the two fuse layers and the
    recurrent cell's hidden size."""

    patch_size: int = 32
    conv_channels: Tuple[int, ...] = (8, 16, 32)
    fc_dim: int = 64
    hidden_dim: int = 64

    def __post_init__(self) -> None:
        if min(self.patch_size, self.fc_dim, self.hidden_dim) <= 0:
            raise ConfigError("sizes must be positive")
        if not self.conv_channels:
            raise ConfigError("conv encoder needs at least one stage")
        if min(self.conv_channels) < 1:
            raise ConfigError(f"conv stages need at least 1 channel, got {self.conv_channels}")
        if self.patch_size % (2 ** len(self.conv_channels)) != 0:
            raise ConfigError(
                f"patch size {self.patch_size} not divisible by "
                f"2^{len(self.conv_channels)} stride-2 stages"
            )

    def fingerprint(self) -> bytes:
        # the retired encoder keys, at the values every checkpoint so far recorded
        keys = dict(asdict(self), encoder="conv", pool_dim=32, pool_factor=4)
        payload = json.dumps(keys, sort_keys=True).encode("ascii")
        return hashlib.sha256(payload).digest()


@dataclass(frozen=True)
class HiddenState:
    """Recurrent cell state; immutable snapshot."""

    h: np.ndarray
    c: np.ndarray


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # exp(-|x|) never overflows; each branch is the stable form for its sign
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _matvecs(W: np.ndarray, X: np.ndarray) -> np.ndarray:
    """W @ x for each row x of X as its own gemv; a flat ``X @ W.T`` rounds differently."""
    return (W @ X[:, :, None])[:, :, 0]


def _gather_index(side: int, cin: int) -> np.ndarray:
    """Flat indices into one (side + 2, side + 2, cin) padded map that lay out its
    stride-2 3x3 im2col as (half², cin·9) rows, in the (cin, ky, kx) order of the
    conv weights: kernel tap (ky, kx) of output (i, j) reads padded pixel
    (2i + ky, 2j + kx)."""
    half, k = side // 2, np.arange(3)
    y = (2 * np.arange(half))[:, None, None, None, None] + k[:, None]
    x = (2 * np.arange(half))[None, :, None, None, None] + k
    c = np.arange(cin)[:, None, None]
    return ((y * (side + 2) + x) * cin + c).reshape(half * half, cin * 9).astype(np.intp)


class StudentModel:
    """Stateless computation over flat parameter vectors for one architecture."""

    def __init__(self, config: StudentConfig):
        self.config = config
        self._layout: List[Tuple[str, Tuple[int, ...], int]] = []
        offset = 0

        def add(name: str, shape: Tuple[int, ...]) -> None:
            nonlocal offset
            self._layout.append((name, shape, offset))
            offset += int(np.prod(shape))

        self._conv_stages: List[Tuple[int, int]] = []  # (side, channels) into each stage
        self._gathers: List[np.ndarray] = []  # each stage's im2col index into one padded map
        side, cin = config.patch_size, 3
        for k, cout in enumerate(config.conv_channels):
            add(f"enc.conv{k}.W", (cout, cin, 3, 3))
            add(f"enc.conv{k}.b", (cout,))
            self._conv_stages.append((side, cin))
            self._gathers.append(_gather_index(side, cin))
            side //= 2
            cin = cout
        self.feature_dim = side * side * cin

        f, hdim = config.fc_dim, config.hidden_dim
        add("fuse1.W", (f, 2 * self.feature_dim))
        add("fuse1.b", (f,))
        add("fuse2.W", (f, f))
        add("fuse2.b", (f,))
        add("rnn.Wx", (4 * hdim, f))
        add("rnn.Wh", (4 * hdim, hdim))
        add("rnn.b", (4 * hdim,))
        add("policy.W", (4, hdim))
        add("policy.b", (4,))
        add("value.W", (1, hdim))
        add("value.b", (1,))
        self.n_params = offset
        self._slices: Dict[str, Tuple[slice, Tuple[int, ...]]] = {
            name: (slice(off, off + int(np.prod(shape))), shape)
            for name, shape, off in self._layout
        }
        self._views_of: Optional[np.ndarray] = None  # the vector _views were built on
        self._views: Dict[str, np.ndarray] = {}
        self._arena_bufs = self._workspace(0)
        self._col2im_bufs = [np.empty((0, s + 2, s + 2, cin)) for s, cin in self._conv_stages]

    # -- parameter vector plumbing -------------------------------------------

    def view(self, params: np.ndarray, name: str) -> np.ndarray:
        sl, shape = self._slices[name]
        return params[sl].reshape(shape)

    def views(self, params: np.ndarray) -> Dict[str, np.ndarray]:
        return {name: self.view(params, name) for name, _, _ in self._layout}

    def _param_views(self, params: np.ndarray) -> Dict[str, np.ndarray]:
        """``views(params)`` for the paths that read parameters, kept for the
        last vector seen. The check is by identity, and the reference held
        keeps that id from being reused; the views share the vector's memory,
        so in-place updates to it show through."""
        if self._views_of is not params:
            self._views = self.views(params)
            self._views_of = params
        return self._views

    def param_name(self, index: int) -> str:
        for name, shape, off in self._layout:
            n = int(np.prod(shape))
            if off <= index < off + n:
                return f"{name}[{index - off}]"
        raise IndexError(index)

    def init_params(self, seed: int) -> np.ndarray:
        """Uniform fan-in init for weights, zero biases; fully seed-determined."""
        rng = np.random.default_rng(seed)
        params = np.zeros(self.n_params)
        for name, shape, _ in self._layout:
            if name.endswith(".b"):
                continue
            fan_in = int(np.prod(shape[1:]))
            bound = 1.0 / np.sqrt(fan_in)
            self.view(params, name)[...] = rng.uniform(-bound, bound, shape)
        return params

    def zero_hidden(self) -> HiddenState:
        hdim = self.config.hidden_dim
        return HiddenState(np.zeros(hdim), np.zeros(hdim))

    # -- encoder --------------------------------------------------------------

    def _workspace(self, n: int) -> List[np.ndarray]:
        """Fresh encoder buffers for n patches: the (n, p, p, 3) normalised patches
        and each conv stage's padded input (the border zero), the scratch of one
        call; then what ``_kept`` lists."""
        p = self.config.patch_size
        scratch = [np.empty((n, p, p, 3))]
        scratch += [np.zeros((n, side + 2, side + 2, cin)) for side, cin in self._conv_stages]
        return scratch + self._kept(n)

    def _kept(self, n: int) -> List[np.ndarray]:
        """Fresh buffers for what backpropagation reads of n patches' encoding:
        per conv stage its (n, half², cin·9) columns and (n, half², cout)
        pre-activations, then the (n, feature_dim) features."""
        bufs = []
        for (side, cin), cout in zip(self._conv_stages, self.config.conv_channels):
            half = side // 2
            bufs += [np.empty((n, half * half, cin * 9)), np.empty((n, half * half, cout))]
        return bufs + [np.empty((n, self.feature_dim))]

    def window(self, steps: int) -> WindowCache:
        """An empty cache for up to ``steps`` consecutive ``forward`` steps."""
        return WindowCache(self._kept(2 * steps))

    def _arena(self, n: int) -> List[np.ndarray]:
        """The leading n rows of the model's own encoder buffers, for what a call
        drops before the next: ``forward``'s scratch, and without a window all it
        encodes.
        They grow to the largest n asked for and are otherwise reused; no call
        writes a padded border, so it stays zero."""
        if len(self._arena_bufs[0]) < n:
            self._arena_bufs = self._workspace(n)
        return [b[:n] for b in self._arena_bufs]

    def _encode(
        self,
        v: Dict[str, np.ndarray],
        patches: Sequence[np.ndarray],
        kept: Optional[List[np.ndarray]],
    ) -> np.ndarray:
        """(n, feature_dim) features of n (p, p, 3) patches.

        What backpropagation reads goes into ``kept``, n rows of each buffer in
        ``_kept``'s layout (a window's rows), or with None into the arena; the
        features are a view of it. The scratch is the arena's. Each stage's im2col
        is one ``take`` of a precomputed index, and each stage's ReLU writes into
        the next stage's padded input; the arithmetic is the nine-copy encoder's,
        so every value is bitwise its.
        """
        n, stages = len(patches), len(self._gathers)
        bufs = self._arena(n)
        x, xpads = bufs[0], bufs[1 : stages + 1]
        kept = bufs[stages + 1 :] if kept is None else kept
        # normalised in a contiguous buffer: a ufunc writing a strided view is slower
        for j, patch in enumerate(patches):
            np.divide(patch, 255.0, out=x[j])
        x -= 0.5
        xpads[0][:, 1:-1, 1:-1] = x
        for k, ((side, cin), idx) in enumerate(zip(self._conv_stages, self._gathers)):
            cols, pre = kept[2 * k : 2 * k + 2]
            W = v[f"enc.conv{k}.W"]
            cout, half = W.shape[0], side // 2
            # mode="clip" writes straight into cols; "raise" would buffer it
            np.take(xpads[k].reshape(n, -1), idx, axis=1, out=cols, mode="clip")
            # a matmul per patch, so rows round as in a one-patch call
            np.matmul(cols, W.reshape(cout, -1).T, out=pre)
            pre += v[f"enc.conv{k}.b"]
            act = pre.reshape(n, half, half, cout)
            # into the next stage's padded input; after the last stage, the features
            out = xpads[k + 1][:, 1:-1, 1:-1] if k + 1 < stages else kept[-1].reshape(act.shape)
            np.maximum(act, 0.0, out=out)
        return kept[-1]

    def _encode_backward(self, v, g, dfeat: np.ndarray, kept: List[np.ndarray]) -> None:
        """Set the encoder's gradient in ``g`` from the (n, feature_dim) ``dfeat`` of
        n patches whose ``_encode`` rows are ``kept``: one product per conv weight
        over all n patches. Input-patch gradients are never needed (patches are
        data), so the first stage skips the scatter back to pixels."""
        dx = dfeat
        for k in range(len(self._conv_stages) - 1, -1, -1):
            side, cin = self._conv_stages[k]
            W = v[f"enc.conv{k}.W"]
            cols, pre = (a.reshape(-1, a.shape[-1]) for a in kept[2 * k : 2 * k + 2])
            cout = W.shape[0]
            dpre = (dx * (pre.reshape(dx.shape) > 0)).reshape(-1, cout)
            np.matmul(dpre.T, cols, out=g[f"enc.conv{k}.W"].reshape(cout, -1))
            np.sum(dpre, axis=0, out=g[f"enc.conv{k}.b"])
            if k == 0:
                break
            dcols = (dpre @ W.reshape(cout, -1)).reshape(-1, side // 2, side // 2, cin, 3, 3)
            dxpad = self._col2im_target(k, len(dcols))
            for ky in range(3):  # col2im: the adjoint of the im2col gather
                for kx in range(3):
                    dxpad[:, ky : ky + side : 2, kx : kx + side : 2] += dcols[..., ky, kx]
            dx = dxpad[:, 1:-1, 1:-1]

    def _col2im_target(self, k: int, n: int) -> np.ndarray:
        """Stage k's (n, side + 2, side + 2, cin) col2im target, zeroed: the leading
        n rows of a buffer the model keeps, grown to the largest n asked for."""
        if len(self._col2im_bufs[k]) < n:
            side, cin = self._conv_stages[k]
            self._col2im_bufs[k] = np.empty((n, side + 2, side + 2, cin))
        target = self._col2im_bufs[k][:n]
        target.fill(0.0)
        return target

    # -- forward --------------------------------------------------------------

    def _check_state(self, state: State) -> None:
        p = self.config.patch_size
        want = (p, p, 3)
        if state.patch_prev.shape != want or state.patch_cur.shape != want:
            raise ConfigError(
                f"state patches {state.patch_prev.shape}/{state.patch_cur.shape} "
                f"do not match configured {want}"
            )

    def _step(
        self, v: Dict[str, np.ndarray], states: Sequence[State], h_prev, c_prev, kept
    ):
        """Advance K lanes: lane k reads states[k] and row k of the (K, hidden) h_prev
        and c_prev; lanes given one State object share its encoding. Each lane's rows are
        bitwise a one-lane step's. Returns (mu, value, h, c, (K, ...) rows). The encoder
        keeps its rows in ``kept`` (see ``_encode``); every returned array is fresh."""
        distinct = list({id(s): s for s in states}.values())
        feats = self._encode(v, [p for s in distinct for p in (s.patch_prev, s.patch_cur)], kept)
        z = feats.reshape(len(distinct), -1)
        pre1 = _matvecs(v["fuse1.W"], z) + v["fuse1.b"]
        a1 = np.maximum(pre1, 0.0)
        pre2 = _matvecs(v["fuse2.W"], a1) + v["fuse2.b"]
        a2 = np.maximum(pre2, 0.0)
        if len(distinct) < len(states):  # fan each shared state's row out to its lanes
            row = {id(s): i for i, s in enumerate(distinct)}
            a2 = a2[[row[id(s)] for s in states]]

        hdim = self.config.hidden_dim
        gates = _matvecs(v["rnn.Wx"], a2) + _matvecs(v["rnn.Wh"], h_prev) + v["rnn.b"]
        sig = _sigmoid(gates)  # one call for the i, f and o gates; the g block goes unused
        gi, gf, go = sig[:, 0:hdim], sig[:, hdim : 2 * hdim], sig[:, 3 * hdim : 4 * hdim]
        gg = np.tanh(gates[:, 2 * hdim : 3 * hdim])
        c = gf * c_prev + gi * gg
        tc = np.tanh(c)
        h = go * tc

        mu = np.tanh(_matvecs(v["policy.W"], h) + v["policy.b"])
        value = (h[:, None, :] @ v["value.W"][0][:, None])[:, 0, 0] + v["value.b"][0]
        rows = (pre1, a1, pre2, a2, h_prev, c_prev, gi, gf, gg, go, tc, h, mu)
        return mu, value, h, c, rows

    def forward(
        self, params: np.ndarray, states: Sequence[State], hidden: HiddenState,
        window: Optional[WindowCache] = None,
    ):
        """One prediction for K lanes: lane k reads states[k] and row k of ``hidden``, whose h
        and c are (K, hidden); a one-row state, such as ``zero_hidden()``, starts every lane
        from that row. Lanes passing one State object share its encoding. Returns (actions
        (K, 4), values (K,), one HiddenState of (K, hidden) rows), a pure function of
        (params, states, hidden); row k is bitwise a one-lane call's from lane k's row.

        With a ``window`` (from ``window(n)``) the call is one lane, one state and a one-row
        ``hidden``, and is the window's next step; it raises ValueError, before writing
        anything, for more lanes or a full window. It leaves in the window all that
        backpropagation reads of the step: its encoding in the window's rows 2i and 2i + 1,
        its recurrent rows appended to ``window.rows``. No later call writes a window's
        filled rows, so the window stays valid until ``backward_window`` reads it. The
        encoder's scratch, and without a window all it writes, is the model's own buffers
        (``_arena``), so a model runs one call at a time."""
        for state in states:
            self._check_state(state)
        h, c = np.atleast_2d(hidden.h), np.atleast_2d(hidden.c)
        kept = None
        if window is not None:
            lanes = max(len(states), len(h))  # a one-row state starts every lane
            if lanes != 1:
                raise ValueError(f"a window takes one lane per step, not {lanes}")
            i = window.steps
            if 2 * i == len(window.kept[-1]):
                raise ValueError(f"the window is full at {i} steps")
            kept = [b[2 * i : 2 * i + 2] for b in window.kept]
        mu, value, h, c, rows = self._step(self._param_views(params), states, h, c, kept)
        if window is not None:
            window.rows.append(tuple(r[0] for r in rows))
        return mu, value, HiddenState(h, c)

    def forward_window(
        self, params: np.ndarray, states: Sequence[State], hidden: HiddenState
    ):
        """Run consecutive steps in one window, keeping every intermediate for backward.

        Returns (mus (n,4), values (n,), final HiddenState, the ``WindowCache``).
        """
        mus, values = [], []
        window = self.window(len(states))
        for i, state in enumerate(states):
            mu, value, hidden = self.forward(params, [state], hidden, window)
            if not (np.all(np.isfinite(mu)) and np.isfinite(value[0])):
                raise NumericError(f"non-finite model output at window step {i}")
            mus.append(mu[0])
            values.append(value[0])
        return np.array(mus), np.array(values), hidden, window

    # -- backward -------------------------------------------------------------

    def backward_window(
        self,
        params: np.ndarray,
        window: WindowCache,
        dmus: np.ndarray,
        dvalues: np.ndarray,
    ) -> np.ndarray:
        """Exact gradient of sum_i (dmus[i].mu_i + dvalues[i].v_i) w.r.t. params.

        ``window`` holds the n steps that ``forward`` ran into it, and dmus/dvalues
        the loss derivatives at each step's outputs, one row per step. Only the
        recurrent deltas run step by step, backwards through the window; each
        weight's gradient is then one product over the window's n steps, and
        the encoder's one backward pass over its 2n patches, read in place
        from the window's buffers.
        """
        n = window.steps
        if len(dmus) != n or len(dvalues) != n:
            raise ValueError(
                f"{len(dmus)} action and {len(dvalues)} value derivatives for {n} window steps"
            )
        kept = [b[: 2 * n] for b in window.kept]
        (pre1, a1, pre2, a2, h_prev, c_prev, gi, gf, gg, go, tc, h, mu) = (
            np.array(rows) for rows in zip(*window.rows)
        )
        v = self._param_views(params)
        grad = np.zeros(self.n_params)
        g = self.views(grad)
        hdim = self.config.hidden_dim

        dza = dmus * (1.0 - mu * mu)
        dh_out = dza @ v["policy.W"] + dvalues[:, None] * v["value.W"][0]  # through the heads
        dtc = go * (1.0 - tc * tc)
        # dgates = (dc, dc, dc, dh) times these, block by block (i, f, g, o)
        factors = np.concatenate(
            [gg * gi * (1.0 - gi), c_prev * gf * (1.0 - gf), gi * (1.0 - gg * gg),
             tc * go * (1.0 - go)],
            axis=1,
        )
        dgates = np.empty((n, 4 * hdim))
        dh_carry = np.zeros(hdim)
        dc_carry = np.zeros(hdim)
        for i in range(n - 1, -1, -1):
            dh = dh_carry + dh_out[i]
            dc = dc_carry + dh * dtc[i]
            np.multiply(factors[i, : 3 * hdim].reshape(3, hdim), dc,
                        out=dgates[i, : 3 * hdim].reshape(3, hdim))
            np.multiply(factors[i, 3 * hdim :], dh, out=dgates[i, 3 * hdim :])
            dc_carry = dc * gf[i]
            dh_carry = dgates[i] @ v["rnn.Wh"]

        np.matmul(dza.T, h, out=g["policy.W"])
        np.sum(dza, axis=0, out=g["policy.b"])
        np.matmul(dvalues[None], h, out=g["value.W"])
        g["value.b"][0] = np.sum(dvalues)
        np.matmul(dgates.T, a2, out=g["rnn.Wx"])
        np.matmul(dgates.T, h_prev, out=g["rnn.Wh"])
        np.sum(dgates, axis=0, out=g["rnn.b"])
        dpre2 = (dgates @ v["rnn.Wx"]) * (pre2 > 0)
        np.matmul(dpre2.T, a1, out=g["fuse2.W"])
        np.sum(dpre2, axis=0, out=g["fuse2.b"])
        dpre1 = (dpre2 @ v["fuse2.W"]) * (pre1 > 0)
        np.matmul(dpre1.T, kept[-1].reshape(n, -1), out=g["fuse1.W"])
        np.sum(dpre1, axis=0, out=g["fuse1.b"])
        dz = dpre1 @ v["fuse1.W"]
        self._encode_backward(v, g, dz.reshape(2 * n, -1), kept)
        return grad


class WindowCache:
    """Everything ``backward_window`` reads of up to ``len(kept[-1]) // 2``
    consecutive ``forward`` steps. Step i writes its two patches' encoding into
    rows 2i and 2i + 1 of the ``StudentModel._kept`` buffers ``kept``, and
    appends its recurrent rows (``_step``'s, one lane's) to ``rows``; backward
    reads both in place."""

    def __init__(self, kept: List[np.ndarray]):
        self.kept = kept
        self.rows: List[tuple] = []

    @property
    def steps(self) -> int:
        """The steps written so far."""
        return len(self.rows)


# -- hidden-state schedule ----------------------------------------------------


class HiddenSchedule:
    """The inference-time reset rule: every ``period`` frames the hidden state
    returns to the snapshot taken after the first prediction. A state may hold
    K lanes' (K, hidden) rows, as ``forward`` takes and returns them.

    Use ``before(t)`` to fetch the state for 1-based prediction step t and
    ``after(t, hidden)`` to record the advanced state.
    """

    def __init__(self, model: StudentModel, period: int = HIDDEN_RESET_PERIOD):
        self.period = period
        self.hidden = model.zero_hidden()
        self.snapshot: Optional[HiddenState] = None

    def before(self, t: int) -> HiddenState:
        if t > 1 and (t - 1) % self.period == 0 and self.snapshot is not None:
            self.hidden = self.snapshot
        return self.hidden

    def after(self, t: int, hidden: HiddenState) -> None:
        self.hidden = hidden
        if t == 1:
            self.snapshot = hidden


# -- finite-difference verification -------------------------------------------


@dataclass
class GradCheckReport:
    max_rel_error: float
    worst_index: int
    worst_name: str
    checked: int

    def __str__(self) -> str:
        return (
            f"grad check: max rel error {self.max_rel_error:.3e} at "
            f"{self.worst_name} over {self.checked} coordinates"
        )


def grad_check(
    params: np.ndarray,
    loss_fn: Callable[[np.ndarray], Tuple[float, np.ndarray]],
    eps: float = 1e-4,
    samples: int = 100,
    rng: Optional[np.random.Generator] = None,
    name_of: Optional[Callable[[int], str]] = None,
) -> GradCheckReport:
    """Compare analytic gradients against central differences on sampled coordinates.

    Relative error uses a 1e-3 floor in the denominator, so coordinates with
    near-zero gradient are held to an absolute standard instead of a ratio of
    roundoff noise.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    _, grad = loss_fn(params)
    n = params.size
    count = min(samples, n)
    idx = rng.choice(n, size=count, replace=False)
    worst = (0.0, int(idx[0]))
    for i in idx:
        probe = params.copy()
        probe[i] = params[i] + eps
        lp, _ = loss_fn(probe)
        probe[i] = params[i] - eps
        lm, _ = loss_fn(probe)
        numeric = (lp - lm) / (2.0 * eps)
        analytic = grad[i]
        rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-3)
        if rel > worst[0]:
            worst = (float(rel), int(i))
    worst_name = name_of(worst[1]) if name_of else str(worst[1])
    return GradCheckReport(worst[0], worst[1], worst_name, count)


# -- checkpoints ---------------------------------------------------------------


def save_params(path: str, config: StudentConfig, params: np.ndarray) -> None:
    """Write a checkpoint through a temporary file that then replaces ``path``,
    so an interrupted write never leaves a truncated checkpoint behind."""
    if params.size and not np.all(np.isfinite(params)):
        raise NumericError("refusing to checkpoint non-finite parameters")
    data = np.ascontiguousarray(params, dtype="<f8")
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", CHECKPOINT_VERSION))
        fh.write(config.fingerprint())
        fh.write(struct.pack("<Q", data.size))
        fh.write(data.tobytes())
    os.replace(tmp, path)


def load_params(path: str, config: StudentConfig) -> np.ndarray:
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as e:
        raise ParseError(f"{path}: {e}")
    header = len(CHECKPOINT_MAGIC) + 4 + 32 + 8
    if len(blob) < header:
        raise ParseError(f"{path}: truncated checkpoint header")
    if blob[: len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
        raise ParseError(f"{path}: bad checkpoint magic")
    pos = len(CHECKPOINT_MAGIC)
    (version,) = struct.unpack_from("<I", blob, pos)
    pos += 4
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
    fp = blob[pos : pos + 32]
    pos += 32
    if fp != config.fingerprint():
        raise CheckpointError(
            f"{path}: checkpoint belongs to a different architecture"
        )
    (count,) = struct.unpack_from("<Q", blob, pos)
    pos += 8
    expected = count * 8
    if len(blob) - pos != expected:
        raise ParseError(f"{path}: parameter payload has {len(blob) - pos} bytes, expected {expected}")
    params = np.frombuffer(blob, dtype="<f8", count=count, offset=pos).astype(np.float64)
    if not np.all(np.isfinite(params)):
        raise CheckpointError(f"{path}: checkpoint holds non-finite parameters")
    return params
