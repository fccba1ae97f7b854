"""The compact recurrent policy/value model, with exact gradients.

Architecture: two weight-shared patch encoders -> concat -> two fully
connected layers -> recurrent cell -> twin heads (bounded action, linear
value). Everything is float64 numpy with hand-derived reverse-mode gradients,
so finite-difference verification can be made tight.

Parameters live in one flat vector partitioned into named tensors; training
code treats it as an opaque array, which keeps shared-weight updates and
delta replay bitwise-exact.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import CheckpointError, ConfigError, NumericError, ParseError
from .mdp import State

CHECKPOINT_MAGIC = b"TRKDSTL1"
CHECKPOINT_VERSION = 1
HIDDEN_RESET_PERIOD = 32


@dataclass(frozen=True)
class StudentConfig:
    """Architecture knobs. ``encoder`` is "conv" (stride-2 stages) or "pool"
    (average pool + one fully connected layer, the smallest configuration)."""

    patch_size: int = 32
    encoder: str = "conv"
    conv_channels: Tuple[int, ...] = (8, 16, 32)
    pool_factor: int = 4
    pool_dim: int = 32
    fc_dim: int = 64
    hidden_dim: int = 64

    def validate(self) -> None:
        if self.encoder not in ("conv", "pool"):
            raise ConfigError(f"unknown encoder {self.encoder!r}")
        if min(self.patch_size, self.fc_dim, self.hidden_dim) <= 0:
            raise ConfigError("sizes must be positive")
        if self.encoder == "conv":
            if not self.conv_channels:
                raise ConfigError("conv encoder needs at least one stage")
            if self.patch_size % (2 ** len(self.conv_channels)) != 0:
                raise ConfigError(
                    f"patch size {self.patch_size} not divisible by "
                    f"2^{len(self.conv_channels)} stride-2 stages"
                )
        else:
            if self.pool_factor <= 0 or self.patch_size % self.pool_factor != 0:
                raise ConfigError(
                    f"patch size {self.patch_size} not divisible by pool factor "
                    f"{self.pool_factor}"
                )
            if self.pool_dim <= 0:
                raise ConfigError("pool_dim must be positive")

    def fingerprint(self) -> bytes:
        payload = json.dumps(asdict(self), sort_keys=True).encode("ascii")
        return hashlib.sha256(payload).digest()


@dataclass(frozen=True)
class HiddenState:
    """Recurrent cell state; immutable snapshot."""

    h: np.ndarray
    c: np.ndarray


@dataclass(frozen=True)
class StudentOutput:
    """One step's outputs, plus the intermediates ``backward_window`` needs
    to differentiate through this step (one entry of its ``caches``)."""

    action: np.ndarray  # in (-1, 1)^4
    value: float
    cache: tuple = field(default=(), repr=False, compare=False)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # exp(-|x|) never overflows; each branch is the stable form for its sign
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _matvecs(W: np.ndarray, X: np.ndarray) -> np.ndarray:
    """W @ x for each row x of X as its own gemv; a flat ``X @ W.T`` rounds differently."""
    return (W @ X[:, :, None])[:, :, 0]


class StudentModel:
    """Stateless computation over flat parameter vectors for one architecture."""

    def __init__(self, config: StudentConfig):
        config.validate()
        self.config = config
        self._layout: List[Tuple[str, Tuple[int, ...], int]] = []
        offset = 0

        def add(name: str, shape: Tuple[int, ...]) -> None:
            nonlocal offset
            self._layout.append((name, shape, offset))
            offset += int(np.prod(shape))

        p = config.patch_size
        self._conv_stages: List[Tuple[int, int]] = []  # (side, channels) into each stage
        if config.encoder == "conv":
            side, cin = p, 3
            for k, cout in enumerate(config.conv_channels):
                add(f"enc.conv{k}.W", (cout, cin, 3, 3))
                add(f"enc.conv{k}.b", (cout,))
                self._conv_stages.append((side, cin))
                side //= 2
                cin = cout
            self.feature_dim = side * side * cin
        else:
            side = p // config.pool_factor
            add("enc.fc.W", (config.pool_dim, side * side * 3))
            add("enc.fc.b", (config.pool_dim,))
            self.feature_dim = config.pool_dim

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

    def _encode(self, v: Dict[str, np.ndarray], patches: np.ndarray):
        """(n, feature_dim) features of an (n, p, p, 3) patch stack, and their cache."""
        n = patches.shape[0]
        x = patches / 255.0 - 0.5
        if self.config.encoder == "conv":
            stage_caches = []
            for k, (side, cin) in enumerate(self._conv_stages):
                W = v[f"enc.conv{k}.W"]
                half = side // 2
                xpad = np.zeros((n, side + 2, side + 2, cin))
                xpad[:, 1:-1, 1:-1] = x
                # im2col: kernel tap (ky, kx) reads every other padded pixel from (ky, kx)
                cols = np.empty((n, half, half, cin, 3, 3))
                for ky in range(3):
                    for kx in range(3):
                        cols[..., ky, kx] = xpad[:, ky : ky + side : 2, kx : kx + side : 2]
                # a matmul per patch, so rows round as in a one-patch call
                cols = cols.reshape(n, half * half, cin * 9)
                pre = cols @ W.reshape(W.shape[0], -1).T + v[f"enc.conv{k}.b"]
                stage_caches.append((cols.reshape(-1, cin * 9), pre.reshape(-1, W.shape[0])))
                x = np.maximum(pre, 0.0).reshape(n, half, half, W.shape[0])
            return x.reshape(n, -1), stage_caches
        side = self.config.patch_size // self.config.pool_factor
        f = self.config.pool_factor
        pooled = x.reshape(n, side, f, side, f, 3).mean(axis=(2, 4))
        flat = pooled.reshape(n, -1)
        pre = _matvecs(v["enc.fc.W"], flat) + v["enc.fc.b"]
        return np.maximum(pre, 0.0), (flat, pre)

    def _encode_backward(self, v, g, dfeat: np.ndarray, cache) -> None:
        # Input-patch gradients are never needed (patches are data), so the
        # first stage skips the scatter back to pixels.
        if self.config.encoder == "conv":
            dx = dfeat
            for k in range(len(self._conv_stages) - 1, -1, -1):
                side, cin = self._conv_stages[k]
                W = v[f"enc.conv{k}.W"]
                cols, pre = cache[k]
                cout = W.shape[0]
                dpre = dx.reshape(-1, cout) * (pre > 0)
                g[f"enc.conv{k}.W"] += (dpre.T @ cols).reshape(W.shape)
                g[f"enc.conv{k}.b"] += dpre.sum(axis=0)
                if k == 0:
                    break
                dcols = (dpre @ W.reshape(cout, -1)).reshape(-1, side // 2, side // 2, cin, 3, 3)
                dxpad = np.zeros((dcols.shape[0], side + 2, side + 2, cin))
                for ky in range(3):  # col2im: the adjoint of the im2col gather
                    for kx in range(3):
                        dxpad[:, ky : ky + side : 2, kx : kx + side : 2] += dcols[..., ky, kx]
                dx = dxpad[:, 1:-1, 1:-1]
            return
        flat, pre = cache
        dpre = dfeat * (pre > 0)
        g["enc.fc.W"] += dpre.T @ flat
        g["enc.fc.b"] += dpre.sum(axis=0)

    # -- forward --------------------------------------------------------------

    def _check_state(self, state: State) -> None:
        p = self.config.patch_size
        want = (p, p, 3)
        if state.patch_prev.shape != want or state.patch_cur.shape != want:
            raise ConfigError(
                f"state patches {state.patch_prev.shape}/{state.patch_cur.shape} "
                f"do not match configured {want}"
            )

    def _step(self, v: Dict[str, np.ndarray], states: Sequence[State], h_prev, c_prev):
        """Advance K lanes: lane k reads states[k] and row k of the (K, hidden) h_prev
        and c_prev; lanes given one State object share its encoding. Each lane's rows are
        bitwise a one-lane step's. Returns (mu, value, h, c, encoder cache, (K, ...) rows)."""
        distinct = list({id(s): s for s in states}.values())
        feats, enc_cache = self._encode(
            v, np.stack([p for s in distinct for p in (s.patch_prev, s.patch_cur)])
        )
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
        rows = (z, pre1, a1, pre2, a2, h_prev, c_prev, gi, gf, gg, go, c, tc, h, mu)
        return mu, value, h, c, enc_cache, rows

    def forward(self, params: np.ndarray, state: State, hidden: HiddenState):
        """One prediction, with its backward cache; purely functional in (params, state, hidden)."""
        self._check_state(state)
        mu, value, h, c, enc_cache, rows = self._step(
            self._param_views(params), (state,), hidden.h[None], hidden.c[None]
        )
        cache = (enc_cache,) + tuple(r[0] for r in rows)
        return StudentOutput(mu[0], float(value[0]), cache), HiddenState(h[0], c[0])

    def forward_lanes(
        self, params: np.ndarray, states: Sequence[State], hiddens: Sequence[HiddenState]
    ):
        """One batched prediction for K lanes, lane k reading states[k] with hiddens[k]; lanes
        passing one State object share its encoding. Row k is bitwise ``forward(params,
        states[k], hiddens[k])``. Returns (actions (K, 4), values (K,), [HiddenState] * K)."""
        for state in states:
            self._check_state(state)
        hs, cs = np.stack([x.h for x in hiddens]), np.stack([x.c for x in hiddens])
        mu, value, h, c, _, _ = self._step(self._param_views(params), states, hs, cs)
        return mu, value, [HiddenState(h[k], c[k]) for k in range(len(states))]

    def forward_window(
        self, params: np.ndarray, states: Sequence[State], hidden: HiddenState
    ):
        """Run consecutive steps, keeping every intermediate for backward.

        Returns (mus (n,4), values (n,), final HiddenState, cache).
        """
        mus, values, caches = [], [], []
        for i, state in enumerate(states):
            out, hidden = self.forward(params, state, hidden)
            if not (np.all(np.isfinite(out.action)) and np.isfinite(out.value)):
                raise NumericError(f"non-finite model output at window step {i}")
            mus.append(out.action)
            values.append(out.value)
            caches.append(out.cache)
        return np.array(mus), np.array(values), hidden, caches

    # -- backward -------------------------------------------------------------

    def backward_window(
        self,
        params: np.ndarray,
        caches: list,
        dmus: np.ndarray,
        dvalues: np.ndarray,
    ) -> np.ndarray:
        """Exact gradient of sum_i (dmus[i].mu_i + dvalues[i].v_i) w.r.t. params.

        dmus/dvalues are the loss derivatives at each step's outputs;
        backpropagation runs through time across the whole window.
        """
        v = self._param_views(params)
        grad = np.zeros(self.n_params)
        g = self.views(grad)
        hdim = self.config.hidden_dim
        dh_carry = np.zeros(hdim)
        dc_carry = np.zeros(hdim)

        for i in range(len(caches) - 1, -1, -1):
            (enc_cache, z, pre1, a1, pre2, a2, h_prev, c_prev,
             gi, gf, gg, go, c, tc, h, mu) = caches[i]

            dza = dmus[i] * (1.0 - mu * mu)
            g["policy.W"] += np.outer(dza, h)
            g["policy.b"] += dza
            dv = float(dvalues[i])
            g["value.W"] += dv * h[None, :]
            g["value.b"] += dv
            dh = dh_carry + v["policy.W"].T @ dza + dv * v["value.W"][0]

            do = dh * tc
            dc = dc_carry + dh * go * (1.0 - tc * tc)
            df = dc * c_prev
            di = dc * gg
            dgg = dc * gi
            dc_carry = dc * gf
            dgates = np.concatenate(
                [
                    di * gi * (1.0 - gi),
                    df * gf * (1.0 - gf),
                    dgg * (1.0 - gg * gg),
                    do * go * (1.0 - go),
                ]
            )
            g["rnn.Wx"] += np.outer(dgates, a2)
            g["rnn.Wh"] += np.outer(dgates, h_prev)
            g["rnn.b"] += dgates
            dh_carry = v["rnn.Wh"].T @ dgates

            da2 = v["rnn.Wx"].T @ dgates
            dpre2 = da2 * (pre2 > 0)
            g["fuse2.W"] += np.outer(dpre2, a1)
            g["fuse2.b"] += dpre2
            da1 = v["fuse2.W"].T @ dpre2
            dpre1 = da1 * (pre1 > 0)
            g["fuse1.W"] += np.outer(dpre1, z)
            g["fuse1.b"] += dpre1
            dz = v["fuse1.W"].T @ dpre1
            self._encode_backward(v, g, dz.reshape(2, -1), enc_cache)
        return grad


# -- hidden-state schedule ----------------------------------------------------


class HiddenSchedule:
    """The inference-time reset rule: every ``period`` frames the hidden state
    returns to the snapshot taken after the first prediction.

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
    if params.size and not np.all(np.isfinite(params)):
        raise NumericError("refusing to checkpoint non-finite parameters")
    data = np.ascontiguousarray(params, dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", CHECKPOINT_VERSION))
        fh.write(config.fingerprint())
        fh.write(struct.pack("<Q", data.size))
        fh.write(data.tobytes())


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
        raise ParseError(f"{path}: raster has {len(blob) - pos} bytes, expected {expected}")
    return np.frombuffer(blob, dtype="<f8", count=count, offset=pos).astype(np.float64)
