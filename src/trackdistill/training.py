"""Offline trainer: imitation and reinforcement over teacher demonstrations.

Episodes play transfer-set chunks: each ``TransferChunk`` holds frames,
ground truth and the boxes of the one teacher that recorded it. Distilling
workers execute their own policy and regress masked L1 toward that teacher's
action; autonomous workers execute Gaussian samples around the policy mean
(spread set by the distance to the ground-truth action) and optimize an
advantage actor-critic objective. ``window_terms`` states a window's objective
once; the reported losses and every window's gradient read its terms. A
window's steps run forward into one ``WindowCache``, the one object its
gradient backpropagates through. Every window's gradient goes to one shared
parameter store. A worker is a (kind, rng, shuffled chunk order) triple:
``train`` interleaves the workers on the calling thread, one whole episode
per turn in a fixed round-robin order, so a run is a pure function of its
inputs and seed, and an error in any episode propagates out of ``train``.
"""

from __future__ import annotations

import collections
import itertools
import json
import math
import os
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, TextIO, Tuple

import numpy as np

from .errors import ConfigError, InvalidInputError, NumericError
from .geometry import apply_action, infer_action
from .mdp import State, TrackingEpisode, reward
from .model import HiddenState, StudentModel, WindowCache, save_params
from .transferset import TransferChunk

DISTILLING = "distilling"
AUTONOMOUS = "autonomous"
RETURNS_MODES = ("forward", "prefix-sum")


# -- configuration -------------------------------------------------------------


@dataclass(frozen=True)
class OptimizerConfig:
    method: str = "radam"  # "radam" | "adam" | "sgd"
    lr: float = 1e-6
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 1e-4  # decoupled, distillation updates only
    rl_scale: float = 1e-3  # pre-scales autonomous gradients
    grad_clip: float = 0.0  # max L2 norm, 0 disables

    def __post_init__(self) -> None:
        if self.method not in ("radam", "adam", "sgd"):
            raise ConfigError(f"unknown optimizer {self.method!r}")
        if self.lr <= 0:
            raise ConfigError("learning rate must be positive")


@dataclass(frozen=True)
class WorkerConfig:
    t_max: int = 5
    gamma: float = 1.0
    context: float = 1.5
    sigma_floor: float = 1e-3
    returns_mode: str = "forward"

    def __post_init__(self) -> None:
        if self.t_max < 1:
            raise ConfigError("t_max must be >= 1")
        if self.context <= 0:
            raise ConfigError(f"context must be positive, got {self.context}")
        if not (0.0 < self.gamma <= 1.0):
            raise ConfigError("gamma must be in (0, 1]")
        if self.returns_mode not in RETURNS_MODES:
            raise ConfigError(f"unknown returns mode {self.returns_mode!r}")


@dataclass(frozen=True)
class TrainSettings:
    workers: int = 8
    max_updates: int = 50000
    val_every: int = 2000
    patience: int = 5
    seed: int = 0
    curriculum: bool = True
    initial_horizon: int = 1
    tau: float = 0.25
    record_deltas: bool = False

    def __post_init__(self) -> None:
        if self.workers < 2:
            raise ConfigError(f"need at least 2 workers for the even split, got {self.workers}")
        if self.max_updates < 1:
            raise ConfigError("max_updates must be positive")
        if self.val_every < 1:
            raise ConfigError("val_every must be positive")
        if self.patience < 1:
            raise ConfigError(f"patience must be >= 1, got {self.patience}")
        if self.initial_horizon < 1:
            raise ConfigError("initial horizon must be >= 1")


# -- records -------------------------------------------------------------------


@dataclass
class StepRecord:
    """What the rollout recorded at one executed step. A mutable record: tests set
    fields such as ``mask``, and a loss at other parameters re-derives mu and v."""

    state: State
    mu: np.ndarray
    value: float
    executed: np.ndarray
    reward: float
    log_density: Optional[float] = None
    raw: Optional[np.ndarray] = None
    sigma: Optional[np.ndarray] = None
    teacher_action: Optional[np.ndarray] = None
    mask: int = 0


@dataclass
class EpisodeRecord:
    """One gradient window (at most t_max steps) plus its bootstrap."""

    steps: List[StepRecord]
    h0: HiddenState
    bootstrap_value: float
    terminated: bool

    def states(self) -> List[State]:
        return [s.state for s in self.steps]

    def tail_value(self) -> float:  # v after the last step
        return 0.0 if self.terminated else self.bootstrap_value


# -- losses --------------------------------------------------------------------


def mask(reward_student: float, reward_teacher: float) -> int:
    """1 where the student's action earned strictly less reward than the teacher's."""
    return 1 if reward_student < reward_teacher else 0


def distill_loss(record: EpisodeRecord) -> float:
    """Masked L1 between recorded policy means and best-teacher actions."""
    return window_terms(record, "distill", _recorded(record.steps, "mu"), None, None,
                        gamma=None, returns_mode=None, rl_scale=None).distill


def gaussian_log_density(x: np.ndarray, mu: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """log N(x; mu, diag(sigma^2)) over the last axis, so one per row of a window."""
    z = (x - mu) / sigma
    return -0.5 * np.sum(np.log(2.0 * np.pi * sigma * sigma) + z * z, axis=-1)


@dataclass(frozen=True)
class ActionSample:
    action: np.ndarray  # clamped into [-1, 1]
    raw: np.ndarray
    sigma: np.ndarray
    log_density: float


def sample_action(
    mu: np.ndarray,
    gt_action: np.ndarray,
    rng: np.random.Generator,
    sigma_floor: float = WorkerConfig.sigma_floor,
) -> ActionSample:
    """Gaussian exploration that shrinks as the policy approaches ground truth.

    The log density is taken at the pre-clamp sample; the executed action is
    the clamped one.
    """
    sigma = np.abs(mu - gt_action) + sigma_floor
    raw = mu + sigma * rng.standard_normal(4)
    return ActionSample(
        action=np.clip(raw, -1.0, 1.0),
        raw=raw,
        sigma=sigma,
        log_density=float(gaussian_log_density(raw, mu, sigma)),
    )


def returns(
    record: EpisodeRecord, gamma: float, mode: str = WorkerConfig.returns_mode
) -> np.ndarray:
    """Per-step value targets R_i, in one of the RETURNS_MODES.

    "forward": discounted reward-to-go with terminal-zero bootstrap.
    "prefix-sum": backward-looking prefix sums, R_i = sum_{k<=i} gamma^(k-1) r_k.
    """
    if not (0.0 < gamma <= 1.0):
        raise InvalidInputError(f"gamma must be in (0, 1], got {gamma}")
    if mode not in RETURNS_MODES:
        raise ConfigError(f"unknown returns mode {mode!r}")
    r = np.array([s.reward for s in record.steps])
    n = len(r)
    if mode == "prefix-sum":
        weights = gamma ** np.arange(n)
        return np.cumsum(weights * r)
    out = np.empty(n)
    acc = record.tail_value()
    for i in range(n - 1, -1, -1):
        acc = r[i] + gamma * acc
        out[i] = acc
    return out


def advantages(record: EpisodeRecord, gamma: float) -> np.ndarray:
    """A_i = r_i + gamma * v(s_{i+1}) - v(s_i), all from recorded values."""
    values = np.array([s.value for s in record.steps])
    following = np.append(values[1:], record.tail_value())
    return np.array([s.reward for s in record.steps]) + gamma * following - values


WindowTerms = collections.namedtuple("WindowTerms", "distill policy value loss dmus dvalues")


def _recorded(steps: Sequence[StepRecord], field: str) -> np.ndarray:
    column = [getattr(s, field) for s in steps]
    if any(x is None for x in column):
        raise InvalidInputError(f"this loss needs a recorded {field} on every step")
    return np.array(column)


def window_terms(
    record: EpisodeRecord, kind: str, mus: Optional[np.ndarray], values: Optional[np.ndarray],
    log_density: Optional[np.ndarray], *, gamma: Optional[float],
    returns_mode: Optional[str], rl_scale: Optional[float],
) -> WindowTerms:
    """A window's masked-L1, policy and value sums under loss ``kind``, their
    weighted ``loss`` and its derivatives in ``mus`` and ``values``. Advantages
    read the recorded values; a given ``log_density`` is held constant, else it
    is taken at the recorded samples around ``mus``. Unread arguments may be None.
    """
    steps = record.steps
    scale = rl_scale if kind == "combined" else 1.0
    dmus, dvalues = np.zeros((len(steps), 4)), np.zeros(len(steps))
    distill = policy = value = 0.0
    if kind in ("distill", "combined"):
        diff = mus - _recorded(steps, "teacher_action")
        masks = np.array([s.mask for s in steps])
        distill = float(np.cumsum(np.append(0.0, masks * np.sum(np.abs(diff), axis=1)))[-1])
        dmus += masks[:, None] * np.sign(diff)
    if kind in ("policy", "rl", "combined"):
        adv = advantages(record, gamma)
        if log_density is None:
            raw, sigma = _recorded(steps, "raw"), _recorded(steps, "sigma")
            log_density = gaussian_log_density(raw, mus, sigma)
            dmus += (scale * -adv)[:, None] * (raw - mus) / sigma ** 2
        policy = float(np.cumsum(np.append(0.0, -adv * log_density))[-1])
    if kind in ("value", "rl", "combined"):
        errors = values - returns(record, gamma, returns_mode)
        value = float(np.sum(0.5 * errors * errors))
        dvalues += scale * errors
    return WindowTerms(distill, policy, value, distill + scale * policy + scale * value,
                       dmus, dvalues)


def actor_critic_loss(
    record: EpisodeRecord, gamma: float, returns_mode: str = WorkerConfig.returns_mode
) -> Tuple[float, float]:
    """(policy loss, value loss): the window's terms at the recorded values and
    log densities, the reporting view of what window_loss_fn differentiates."""
    values, densities = (_recorded(record.steps, f) for f in ("value", "log_density"))
    terms = window_terms(record, "rl", None, values, densities, gamma=gamma,
                         returns_mode=returns_mode, rl_scale=None)
    return terms.policy, terms.value


LOSS_KINDS = ("distill", "policy", "value", "combined", "rl")


def window_loss_fn(
    model: StudentModel,
    record: EpisodeRecord,
    kind: str,
    gamma: float = WorkerConfig.gamma,
    returns_mode: str = WorkerConfig.returns_mode,
    rl_scale: float = OptimizerConfig.rl_scale,
    weight_decay: float = OptimizerConfig.weight_decay,
) -> Callable[[np.ndarray], Tuple[float, np.ndarray]]:
    """A differentiable view of one window's loss, for verification.

    Everything recorded (advantages, value targets, samples, sigmas, masks) is
    held constant; only the policy mean and value are re-evaluated at the
    given parameters. "combined" is rl_scale*(policy+value) + distill +
    0.5*weight_decay*||theta||^2, the objective gradcheck verifies; no update
    applies it, since ``SharedWeights.update`` scales an autonomous gradient by
    rl_scale and applies weight decay to a distilling one as a decoupled step.
    """
    if kind not in LOSS_KINDS:
        raise ConfigError(f"unknown loss kind {kind!r}")
    states = record.states()

    def fn(params: np.ndarray) -> Tuple[float, np.ndarray]:
        mus, values, _, window = model.forward_window(params, states, record.h0)
        return window_gradient(
            model, params, record, kind, mus, values, window, gamma, returns_mode,
            rl_scale, weight_decay,
        )

    return fn


def window_gradient(
    model: StudentModel,
    params: np.ndarray,
    record: EpisodeRecord,
    kind: str,
    mus: np.ndarray,
    values: np.ndarray,
    window: WindowCache,
    gamma: float,
    returns_mode: str,
    rl_scale: float = 1.0,
    weight_decay: float = 0.0,
) -> Tuple[float, np.ndarray]:
    """Loss and exact gradient of one window from its forward pass at params.

    ``mus`` and ``values`` are that pass's per-step outputs and ``window`` the
    ``WindowCache`` it ran into, from ``forward_window`` or from the rollout's
    own ``forward`` calls. See ``window_terms`` for the objective and
    ``window_loss_fn`` for the kinds.
    """
    terms = window_terms(record, kind, mus, values, None, gamma=gamma,
                         returns_mode=returns_mode, rl_scale=rl_scale)
    loss = terms.loss
    grad = model.backward_window(params, window, terms.dmus, terms.dvalues)
    if kind == "combined" and weight_decay:
        loss += 0.5 * weight_decay * float(params @ params)
        grad = grad + weight_decay * params
    if not math.isfinite(loss):
        raise NumericError(f"non-finite {kind} loss over a {len(record.steps)}-step window")
    return float(loss), grad


# -- optimizer and shared store ------------------------------------------------


# Elements per optimizer block: one block of the three vectors and the two
# scratch buffers (640 KiB) stays in a core's L2 cache.
OPT_BLOCK = 16384


class SharedWeights:
    """The master parameter vector plus optimizer state.

    Reads hand out full copies; updates are counted. Given ``log_file``, every
    update, rejection and ``log_entry`` call is written to it as one JSON line
    and flushed at once. With ``record_deltas`` every applied delta is kept so
    a replay can reproduce the final vector bitwise.

    A gradient with a non-finite element is rejected. Its log entry, also
    kept as ``last_rejection``, counts those elements and names the first
    through ``name_of``. A finite gradient whose step or second moment comes
    out non-finite (from a non-finite moment, or from an overflow) raises
    ``NumericError`` naming the update, the kind, the first such parameter and
    its non-finite moments, before that block's step is applied; earlier
    blocks are already applied.

    The store holds three parameter-sized vectors (the parameters and the two
    moments) and two scratch buffers of one ``OPT_BLOCK``. An update runs
    block by block; each element goes through the same operations in the same
    order as the textbook formulas, so results are bitwise equal to them.
    """

    def __init__(
        self,
        params: np.ndarray,
        opt: OptimizerConfig,
        record_deltas: bool = False,
        log_file: Optional[TextIO] = None,
        *,
        name_of: Callable[[int], str],
    ):
        self.opt = opt
        self._params = np.array(params, dtype=np.float64, copy=True)
        self._m = np.zeros_like(self._params)
        self._v = np.zeros_like(self._params)
        self._delta = np.empty(min(OPT_BLOCK, self._params.size))
        self._tmp = np.empty_like(self._delta)
        self.update_count = 0
        self.rejected_count = 0
        self.last_rejection: Optional[dict] = None
        self._name_of = name_of
        self.deltas: Optional[List[np.ndarray]] = [] if record_deltas else None
        self._log_file = log_file

    def snapshot(self) -> np.ndarray:
        return self._params.copy()

    def log_entry(self, entry: dict) -> None:
        if self._log_file is not None:
            self._log_file.write(json.dumps(entry) + "\n")
            self._log_file.flush()

    def _nonfinite(self, block: np.ndarray, start: int, kind: str, what: str) -> None:
        """Raise for the first non-finite element of ``block``, at ``start``."""
        index = start + int(np.flatnonzero(~np.isfinite(block))[0])
        bad = [name for name, a in (("first", self._m), ("second", self._v))
               if not math.isfinite(a[index])]
        which = {0: "neither moment is", 2: "both moments are"}.get(len(bad)) or (
            f"its {bad[0]} moment is")
        raise NumericError(
            f"update {self.update_count} ({kind}): non-finite {what} for "
            f"{self._name_of(index)}; {which} non-finite"
        )

    def update(self, grad: np.ndarray, kind: str, meta: Optional[dict] = None) -> bool:
        """Apply one gradient; returns False (and logs) when the grad is rejected."""
        if kind not in (DISTILLING, AUTONOMOUS):
            raise InvalidInputError(f"unknown update kind {kind!r}")
        finite = np.isfinite(grad)
        if not finite.all():
            bad = np.flatnonzero(~finite)
            self.rejected_count += 1
            entry = {"rejected": True, "kind": kind, "reason": "non-finite gradient",
                     "param": self._name_of(int(bad[0])), "nonfinite": int(bad.size)}
            entry.update(meta or {})
            self.log_entry(entry)
            self.last_rejection = entry
            return False
        o = self.opt
        rl_scale = o.rl_scale if kind == AUTONOMOUS else None
        clip = None
        if o.grad_clip > 0.0:
            # an infinity left by rl_scale makes the norm NaN and is raised below as a
            # non-finite step
            with np.errstate(over="ignore", invalid="ignore"):
                scaled = grad if rl_scale is None else grad * rl_scale
                norm = float(np.linalg.norm(scaled))
                if math.isinf(norm):  # the sum of squares overflows: take it of scaled / peak
                    peak = float(np.max(np.abs(scaled)))
                    norm = peak * float(np.linalg.norm(scaled / peak))
            if norm > o.grad_clip:
                clip = o.grad_clip / norm
        self.update_count += 1
        t = self.update_count
        # step = scale * m / c1, divided by sqrt(v / c2) + eps when adaptive
        c1, c2 = 1.0 - o.beta1 ** t, 1.0 - o.beta2 ** t
        scale, adaptive = o.lr, o.method != "sgd"
        if o.method == "radam":
            # variance-rectified: fall back to unadapted momentum while the
            # second-moment estimate is too young to be trusted
            rho_inf = 2.0 / (1.0 - o.beta2) - 1.0
            rho_t = rho_inf - 2.0 * t * o.beta2 ** t / c2
            adaptive = rho_t > 4.0
            if adaptive:
                scale = o.lr * math.sqrt(
                    ((rho_t - 4.0) * (rho_t - 2.0) * rho_inf)
                    / ((rho_inf - 4.0) * (rho_inf - 2.0) * rho_t)
                )
        decay = o.lr * o.weight_decay if kind == DISTILLING and o.weight_decay > 0.0 else None
        delta = None if self.deltas is None else np.empty_like(self._params)
        # an overflow is raised below as a non-finite step or moment, with its parameter
        with np.errstate(over="ignore", invalid="ignore"):
            for s in range(0, self._params.size, OPT_BLOCK):
                params, m, v = (a[s:s + OPT_BLOCK] for a in (self._params, self._m, self._v))
                d, tmp = self._delta[:params.size], self._tmp[:params.size]
                g = grad[s:s + OPT_BLOCK]
                if rl_scale is not None:
                    g = np.multiply(g, rl_scale, out=d)
                if clip is not None:
                    g = np.multiply(g, clip, out=d)
                if o.method == "sgd":
                    np.multiply(g, o.lr, out=d)
                else:
                    # m = beta1 * m + (1 - beta1) * g;  v = beta2 * v + (1 - beta2) * g * g
                    m *= o.beta1
                    m += np.multiply(g, 1.0 - o.beta1, out=tmp)
                    v *= o.beta2
                    np.multiply(g, 1.0 - o.beta2, out=tmp)
                    tmp *= g
                    v += tmp
                    np.divide(m, c1, out=d)  # m_hat
                    d *= scale
                    if adaptive:
                        np.divide(v, c2, out=tmp)
                        np.sqrt(tmp, out=tmp)
                        tmp += o.eps
                        d /= tmp
                np.negative(d, out=d)
                if decay is not None:
                    d -= np.multiply(params, decay, out=tmp)
                if not np.isfinite(d).all():
                    self._nonfinite(d, s, kind, "step")
                # a non-finite second moment alone can leave the step finite:
                # m / inf is 0, and RAdam's early steps do not read v
                if o.method != "sgd" and not np.isfinite(v).all():
                    self._nonfinite(v, s, kind, "moment")
                params += d
                if delta is not None:
                    delta[s:s + OPT_BLOCK] = d
        if delta is not None:
            self.deltas.append(delta)
        entry = {"update": self.update_count, "kind": kind}
        entry.update(meta or {})
        self.log_entry(entry)
        return True


def replay_deltas(initial: np.ndarray, deltas: Sequence[np.ndarray]) -> np.ndarray:
    """Re-apply a delta log in order; bitwise-equal to the live result."""
    out = initial.copy()
    for d in deltas:
        out += d
    return out


# -- curriculum ----------------------------------------------------------------


@dataclass
class CurriculumState:
    horizon: int
    max_horizon: int
    successes: int = 0
    episodes: int = 0


def curriculum_update(
    state: CurriculumState,
    sum_r_student: float,
    sum_r_teacher: float,
    tau: float = TrainSettings.tau,
) -> None:
    """Count the episode; extend the horizon when the success ratio reaches tau."""
    state.episodes += 1
    if sum_r_student >= sum_r_teacher:
        state.successes += 1
    if state.successes / state.episodes >= tau:
        state.horizon = min(state.horizon + 1, state.max_horizon)
        state.successes = 0
        state.episodes = 0


class CurriculumStore:
    """Per-episode-source horizon table."""

    def __init__(
        self, initial_horizon: int = TrainSettings.initial_horizon, tau: float = TrainSettings.tau
    ):
        self.initial_horizon = initial_horizon
        self.tau = tau
        self._table: Dict[tuple, CurriculumState] = {}

    def state_for(self, key: tuple, max_horizon: int) -> CurriculumState:
        if key not in self._table:
            self._table[key] = CurriculumState(
                horizon=min(self.initial_horizon, max_horizon),
                max_horizon=max_horizon,
            )
        return self._table[key]

    def horizon(self, key: tuple, max_horizon: int) -> int:
        return self.state_for(key, max_horizon).horizon

    def update(self, key: tuple, max_horizon: int, sum_r_student: float, sum_r_teacher: float) -> None:
        curriculum_update(
            self.state_for(key, max_horizon), sum_r_student, sum_r_teacher, self.tau
        )


# -- episodes and workers ------------------------------------------------------


def run_episode(
    model: StudentModel,
    theta: np.ndarray,
    chunk: TransferChunk,
    kind: str,
    cfg: WorkerConfig,
    shared: SharedWeights,
    rng: Optional[np.random.Generator],
    horizon: Optional[int] = None,
    worker: int = 0,
) -> Tuple[float, float, List[EpisodeRecord]]:
    """Play one chunk under frozen theta as worker ``worker`` of kind ``kind``,
    sending one gradient per window.

    The teacher target of each step is the action from the student's current
    box to the chunk's teacher box on the next frame. ``rng`` draws the autonomous worker's action
    samples; a distilling worker draws none. The model runs forward exactly
    once per env step, into the window the step belongs to (``model.window``).
    A window's gradient backpropagates through that same window, and the step
    that gives a cut window its bootstrap value is the next window's first
    step.

    Returns (sum of student rewards, sum of teacher own rewards, records).
    """
    if kind not in (DISTILLING, AUTONOMOUS):
        raise ConfigError(f"unknown worker kind {kind!r}")
    if kind == AUTONOMOUS and rng is None:
        raise ConfigError("an autonomous worker needs an rng")
    episode = TrackingEpisode(
        chunk.frames, chunk.gt, cfg.context, model.config.patch_size, horizon=horizon
    )
    loss_kind = "distill" if kind == DISTILLING else "rl"

    def predict(state: State, hidden: HiddenState, window: WindowCache):
        actions, values, hidden = model.forward(theta, [state], hidden, window)
        if not (np.all(np.isfinite(actions)) and math.isfinite(values[0])):
            raise NumericError(
                f"non-finite model output at step {episode.t + 1} of an episode "
                f"on {chunk.video_id}"
            )
        return actions[0], float(values[0]), hidden

    state = episode.reset()
    hidden = model.zero_hidden()
    window = model.window(cfg.t_max)  # where each step's forward keeps what backward reads
    pending = predict(state, hidden, window)
    sum_r_student = 0.0
    sum_r_teacher = 0.0
    records: List[EpisodeRecord] = []
    done = False
    while not done:
        h0, filled = hidden, window  # the window this record's steps run into
        steps: List[StepRecord] = []
        while len(steps) < cfg.t_max and not done:
            mu, value, hidden = pending
            t_next = episode.t + 1
            b_prev = episode.box
            gt = chunk.gt[t_next]
            teacher_box = chunk.teacher_boxes[t_next]
            ta = infer_action(teacher_box, b_prev)
            if kind == DISTILLING:
                sample = None
                executed = mu
            else:
                gt_action = infer_action(gt, b_prev)
                sample = sample_action(mu, gt_action, rng, cfg.sigma_floor)
                executed = sample.action
            next_state, r, done = episode.step(executed)
            sum_r_student += r
            sum_r_teacher += reward(teacher_box, gt)
            steps.append(
                StepRecord(
                    state=state,
                    mu=mu,
                    value=value,
                    executed=executed,
                    reward=r,
                    log_density=None if sample is None else sample.log_density,
                    raw=None if sample is None else sample.raw,
                    sigma=None if sample is None else sample.sigma,
                    teacher_action=ta,
                    mask=mask(r, reward(apply_action(ta, b_prev), gt)),
                )
            )
            state = next_state
            if not done:
                if len(steps) == cfg.t_max:  # the next step opens the next window
                    window = model.window(cfg.t_max)
                pending = predict(state, hidden, window)
        record = EpisodeRecord(
            steps=steps,
            h0=h0,
            bootstrap_value=0.0 if done else pending[1],
            terminated=done,
        )
        records.append(record)
        loss, grad = window_gradient(
            model, theta, record, loss_kind,
            np.array([s.mu for s in steps]), np.array([s.value for s in steps]), filled,
            cfg.gamma, cfg.returns_mode,
        )
        entry = {
            "worker": worker,
            "loss": float(loss),
            "sum_reward": float(sum_r_student),
            "video_id": chunk.video_id,
            "T_hat": episode.horizon,
        }
        shared.update(grad, kind, entry)
        del grad  # applied; gone before the next window's backward makes another
    return sum_r_student, sum_r_teacher, records


# -- the training orchestrator -------------------------------------------------


@dataclass
class TrainResult:
    checkpoint_path: str
    log_path: str
    best_val_ao: Optional[float]
    updates: int
    rejected: int
    val_history: List[Tuple[int, float]]
    deltas: Optional[List[np.ndarray]] = None


def _endless_shuffle(
    chunks: Sequence[TransferChunk], rng: np.random.Generator
) -> Iterator[TransferChunk]:
    while True:
        for i in rng.permutation(len(chunks)):
            yield chunks[int(i)]


def train(
    model: StudentModel,
    chunks: Sequence[TransferChunk],
    settings: TrainSettings,
    worker_cfg: WorkerConfig,
    opt: OptimizerConfig,
    out_dir: str,
    validate_fn: Optional[Callable[[np.ndarray], float]] = None,
    init_params: Optional[np.ndarray] = None,
    progress: Optional[Callable[[dict], None]] = None,
) -> TrainResult:
    """Run S logical workers (even distilling/autonomous split) to a budget.

    Workers take turns in round-robin order, one whole episode each, and the
    budget is checked before every turn, so a run overshoots it by less than
    one episode. Each worker keeps its own RNG stream and shuffled chunk
    order, and plays every episode under one snapshot of the parameters; with
    the curriculum on, a chunk's horizon is keyed by (video, teacher, start).
    ``train_log.jsonl`` gets every update, rejection and validation as it
    happens. A turn whose windows are all rejected applies no update; as
    many such turns in a row as there are workers end the run with
    ``NumericError``.

    ``validate_fn`` maps a parameter vector to a held-out score (higher is
    better). It runs before the first turn and then between turns, once the
    update count reaches the next ``val_every`` mark; ``progress`` receives
    each validation's log entry. Each new best snapshot is checkpointed when
    it is scored, so an error later in the run leaves it on disk. Without
    ``validate_fn`` ``progress`` receives ``{"update": n}`` at each mark, and
    the final parameters are saved.
    """
    if not chunks:
        raise ConfigError("no training chunks; transfer set is empty")
    os.makedirs(out_dir, exist_ok=True)

    curriculum = (
        CurriculumStore(settings.initial_horizon, settings.tau)
        if settings.curriculum
        else None
    )
    n_distill = (settings.workers + 1) // 2
    workers = [
        (
            DISTILLING if w < n_distill else AUTONOMOUS,
            np.random.default_rng(np.random.SeedSequence([settings.seed, 7, w])),
            _endless_shuffle(
                chunks, np.random.default_rng(np.random.SeedSequence([settings.seed, 11, w]))
            ),
        )
        for w in range(settings.workers)
    ]
    log_path = os.path.join(out_dir, "train_log.jsonl")
    ckpt = os.path.join(out_dir, "student.ckpt")
    val_history: List[Tuple[int, float]] = []
    best_score: Optional[float] = None

    with open(log_path, "w") as log_file:
        # the store keeps its own copy; no reference to the initial vector stays behind
        shared = SharedWeights(
            model.init_params(settings.seed) if init_params is None else init_params,
            opt, record_deltas=settings.record_deltas, log_file=log_file,
            name_of=model.param_name,
        )

        def validate() -> bool:
            """Score the current parameters; True when they are the new best."""
            nonlocal best_score
            at = shared.update_count
            snap = shared.snapshot()
            score = float(validate_fn(snap))
            val_history.append((at, score))
            improved = best_score is None or score > best_score
            if improved:  # on disk at once, so a later failure keeps it
                best_score = score
                save_params(ckpt, model.config, snap)
            entry = {
                "validation": True, "update": at, "val_score": score,
                "best_val_score": best_score,
            }
            shared.log_entry(entry)
            if progress is not None:
                progress(entry)
            return improved

        if validate_fn is not None:
            validate()
        next_val = settings.val_every
        bad_rounds = idle_turns = 0
        for w in itertools.cycle(range(settings.workers)):
            if shared.update_count >= settings.max_updates:
                break
            kind, rng, order = workers[w]
            # one turn: this worker's next episode
            chunk = next(order)
            key = (chunk.video_id, chunk.teacher_id, chunk.start)
            max_horizon = len(chunk) - 1
            horizon = curriculum.horizon(key, max_horizon) if curriculum else max_horizon
            updates, rejected = shared.update_count, shared.rejected_count
            # [:2] drops the records now rather than holding them through the next turn
            sum_s, sum_t = run_episode(
                model, shared.snapshot(), chunk, kind, worker_cfg, shared, rng, horizon, w
            )[:2]
            idle_turns = idle_turns + 1 if shared.update_count == updates else 0
            if idle_turns >= settings.workers:
                last = shared.last_rejection
                raise NumericError(
                    f"worker {w} on {chunk.video_id} (chunk start {chunk.start}), window "
                    f"{shared.rejected_count - rejected - 1}: {idle_turns} turns in a row applied "
                    f"no update; the last gradient has {last['nonfinite']} non-finite "
                    f"element(s), the first in {last['param']}"
                )
            if curriculum is not None:
                curriculum.update(key, max_horizon, sum_s, sum_t)
            if shared.update_count >= next_val:
                next_val = shared.update_count + settings.val_every
                if validate_fn is not None:
                    bad_rounds = 0 if validate() else bad_rounds + 1
                    if bad_rounds >= settings.patience:
                        break
                elif progress is not None:
                    progress({"update": shared.update_count})

    if best_score is None:  # no validation: the final parameters
        save_params(ckpt, model.config, shared.snapshot())
    return TrainResult(
        checkpoint_path=ckpt,
        log_path=log_path,
        best_val_ao=best_score,
        updates=shared.update_count,
        rejected=shared.rejected_count,
        val_history=val_history,
        deltas=shared.deltas,
    )


# -- synthetic records for verification ----------------------------------------


def synthetic_record(
    model: StudentModel,
    params: np.ndarray,
    n_steps: int,
    rng: np.random.Generator,
    sigma_floor: float = 0.05,
) -> EpisodeRecord:
    """A fully populated random window: real forward outputs, random rewards,
    teacher actions, masks, and Gaussian samples. Suitable for every loss kind.

    The spread floor sits well above the training-time one: 1/sigma^2 scales
    the policy loss's curvature, and finite differences need it bounded."""
    p = model.config.patch_size
    states = [
        State(
            patch_prev=rng.uniform(0, 255, (p, p, 3)),
            patch_cur=rng.uniform(0, 255, (p, p, 3)),
        )
        for _ in range(n_steps)
    ]
    h0 = model.zero_hidden()
    mus, values, _, _ = model.forward_window(params, states, h0)
    steps = []
    for i in range(n_steps):
        gt_action = rng.uniform(-0.4, 0.4, 4)
        sample = sample_action(mus[i], gt_action, rng, sigma_floor)
        steps.append(
            StepRecord(
                state=states[i],
                mu=mus[i],
                value=float(values[i]),
                executed=sample.action,
                reward=float(rng.choice([-1.0, 0.0, 0.4, 0.8, 1.0])),
                log_density=sample.log_density,
                raw=sample.raw,
                sigma=sample.sigma,
                teacher_action=rng.uniform(-0.8, 0.8, 4),
                mask=int(rng.integers(0, 2)),
            )
        )
        rng.choice([0.0, 0.4, 0.8])  # discarded; keeps the windows each seed gives unchanged
    terminated = bool(rng.integers(0, 2))
    return EpisodeRecord(
        steps=steps,
        h0=h0,
        bootstrap_value=float(rng.normal() * 0.3),
        terminated=terminated,
    )
