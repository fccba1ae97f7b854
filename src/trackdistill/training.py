"""Offline trainer: imitation and reinforcement over teacher demonstrations.

Episodes play transfer-set chunks: each ``TransferChunk`` holds frames,
ground truth and the boxes of the one teacher that recorded it. Distilling
workers execute their own policy and regress masked L1 toward that teacher's
action; autonomous workers execute Gaussian samples around the policy mean
(spread set by the distance to the ground-truth action) and optimize an
advantage actor-critic objective. Every window's gradient goes to one shared
parameter store. A worker is a (kind, rng, shuffled chunk order) triple:
``train`` interleaves the workers on the calling thread, one whole episode per
turn in a fixed round-robin order, so a run is a pure function of its inputs
and seed, and an error in any episode propagates out of ``train``.
"""

from __future__ import annotations

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
from .model import HiddenState, StudentModel, save_params
from .transferset import TransferChunk

DISTILLING = "distilling"
AUTONOMOUS = "autonomous"


# -- records -------------------------------------------------------------------


@dataclass
class StepRecord:
    """Frozen facts about one executed step; only mu/v are ever re-derived."""

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


# -- losses --------------------------------------------------------------------


def mask(reward_student: float, reward_teacher: float) -> int:
    """1 where the student's action earned strictly less reward than the teacher's."""
    return 1 if reward_student < reward_teacher else 0


def distill_loss(record: EpisodeRecord) -> float:
    """Masked L1 between recorded policy means and best-teacher actions."""
    total = 0.0
    for s in record.steps:
        if s.teacher_action is None:
            raise InvalidInputError("distillation loss needs teacher actions on every step")
        total += s.mask * float(np.sum(np.abs(s.teacher_action - s.mu)))
    return total


def gaussian_log_density(x: np.ndarray, mu: np.ndarray, sigma: np.ndarray) -> float:
    z = (x - mu) / sigma
    return float(-0.5 * np.sum(np.log(2.0 * np.pi * sigma * sigma) + z * z))


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
    sigma_floor: float = 1e-3,
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
        log_density=gaussian_log_density(raw, mu, sigma),
    )


def returns(record: EpisodeRecord, gamma: float, mode: str = "forward") -> np.ndarray:
    """Per-step value targets R_i.

    "forward": discounted reward-to-go with terminal-zero bootstrap.
    "prefix-sum": backward-looking prefix sums, R_i = sum_{k<=i} gamma^(k-1) r_k.
    """
    if not (0.0 < gamma <= 1.0):
        raise InvalidInputError(f"gamma must be in (0, 1], got {gamma}")
    r = np.array([s.reward for s in record.steps])
    n = len(r)
    if mode == "forward":
        out = np.empty(n)
        acc = 0.0 if record.terminated else record.bootstrap_value
        for i in range(n - 1, -1, -1):
            acc = r[i] + gamma * acc
            out[i] = acc
        return out
    if mode == "prefix-sum":
        weights = gamma ** np.arange(n)
        return np.cumsum(weights * r)
    raise ConfigError(f"unknown returns mode {mode!r}")


def advantages(record: EpisodeRecord, gamma: float) -> np.ndarray:
    """A_i = r_i + gamma * v(s_{i+1}) - v(s_i), all from recorded values."""
    values = [s.value for s in record.steps]
    values.append(0.0 if record.terminated else record.bootstrap_value)
    return np.array(
        [s.reward + gamma * values[i + 1] - values[i] for i, s in enumerate(record.steps)]
    )


def actor_critic_loss(
    record: EpisodeRecord, gamma: float, returns_mode: str = "forward"
) -> Tuple[float, float]:
    """(policy loss, value loss) over the recorded window.

    Advantages and value targets are constants here; this is the reporting
    view of the objective whose gradient window_loss_fn computes.
    """
    adv = advantages(record, gamma)
    loss_pi = 0.0
    for a, s in zip(adv, record.steps):
        if s.log_density is None:
            raise InvalidInputError("policy loss needs recorded log densities")
        loss_pi -= s.log_density * a
    targets = returns(record, gamma, returns_mode)
    values = np.array([s.value for s in record.steps])
    loss_v = float(np.sum(0.5 * (targets - values) ** 2))
    return float(loss_pi), loss_v


LOSS_KINDS = ("distill", "policy", "value", "combined", "rl")


def window_loss_fn(
    model: StudentModel,
    record: EpisodeRecord,
    kind: str,
    gamma: float = 1.0,
    returns_mode: str = "forward",
    rl_scale: float = 1e-3,
    weight_decay: float = 1e-4,
) -> Callable[[np.ndarray], Tuple[float, np.ndarray]]:
    """A differentiable view of one window's loss, for updates and verification.

    Everything recorded (advantages, value targets, samples, sigmas, masks) is
    held constant; only the policy mean and value are re-evaluated at the
    given parameters. "combined" is rl_scale*(policy+value) + distill +
    0.5*weight_decay*||theta||^2, the full objective a mixed update sees.
    """
    if kind not in LOSS_KINDS:
        raise ConfigError(f"unknown loss kind {kind!r}")
    states = record.states()
    adv = advantages(record, gamma)
    targets = returns(record, gamma, returns_mode)

    def fn(params: np.ndarray) -> Tuple[float, np.ndarray]:
        mus, values, _, caches = model.forward_window(params, states, record.h0)
        return window_gradient(
            model, params, record, kind, mus, values, caches, adv, targets,
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
    caches: list,
    adv: np.ndarray,
    targets: np.ndarray,
    rl_scale: float = 1.0,
    weight_decay: float = 0.0,
) -> Tuple[float, np.ndarray]:
    """Loss and exact gradient of one window from its forward pass at params.

    ``mus``, ``values`` and ``caches`` are that pass's per-step outputs, from
    ``forward_window`` or from the rollout's own ``forward`` calls; ``adv``
    and ``targets`` are the recorded advantages and value targets. See
    ``window_loss_fn`` for the loss kinds.
    """
    n = len(record.steps)
    dmus = np.zeros((n, 4))
    dvalues = np.zeros(n)
    loss = 0.0
    if kind in ("distill", "combined"):
        part = 0.0
        for i, s in enumerate(record.steps):
            if s.teacher_action is None:
                raise InvalidInputError("distill loss needs teacher actions")
            diff = mus[i] - s.teacher_action
            part += s.mask * float(np.sum(np.abs(diff)))
            dmus[i] += s.mask * np.sign(diff)
        loss += part
    if kind in ("policy", "rl", "combined"):
        part = 0.0
        scale = rl_scale if kind == "combined" else 1.0
        for i, s in enumerate(record.steps):
            if s.raw is None or s.sigma is None:
                raise InvalidInputError("policy loss needs recorded samples")
            part -= adv[i] * gaussian_log_density(s.raw, mus[i], s.sigma)
            dmus[i] += scale * (-adv[i]) * (s.raw - mus[i]) / (s.sigma ** 2)
        loss += scale * part
    if kind in ("value", "rl", "combined"):
        scale = rl_scale if kind == "combined" else 1.0
        diff = values - targets
        loss += scale * float(np.sum(0.5 * diff * diff))
        dvalues += scale * diff
    grad = model.backward_window(params, caches, dmus, dvalues)
    if kind == "combined" and weight_decay:
        loss += 0.5 * weight_decay * float(params @ params)
        grad = grad + weight_decay * params
    if not math.isfinite(loss):
        raise NumericError(f"non-finite {kind} loss over a {n}-step window")
    return float(loss), grad


# -- optimizer and shared store ------------------------------------------------


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

    def validate(self) -> None:
        if self.method not in ("radam", "adam", "sgd"):
            raise ConfigError(f"unknown optimizer {self.method!r}")
        if self.lr <= 0:
            raise ConfigError("learning rate must be positive")


class SharedWeights:
    """The master parameter vector plus optimizer state.

    Reads hand out full copies; updates are counted. Given ``log_file``, every
    update, rejection and ``log_entry`` call is written to it as one JSON line
    and flushed at once. With ``record_deltas`` every applied delta is kept so
    a replay can reproduce the final vector bitwise.

    The optimizer works in preallocated buffers; each element goes through the
    same operations in the same order as the textbook formulas, so results are
    bitwise equal to them.
    """

    def __init__(
        self,
        params: np.ndarray,
        opt: OptimizerConfig,
        record_deltas: bool = False,
        log_file: Optional[TextIO] = None,
    ):
        opt.validate()
        self.opt = opt
        self._params = np.array(params, dtype=np.float64, copy=True)
        self._m = np.zeros_like(self._params)
        self._v = np.zeros_like(self._params)
        self._g = np.empty_like(self._params)
        self._delta = np.empty_like(self._params)
        self._tmp = np.empty_like(self._params)
        self._t = 0
        self.update_count = 0
        self.rejected_count = 0
        self.deltas: Optional[List[np.ndarray]] = [] if record_deltas else None
        self._log_file = log_file

    def snapshot(self) -> np.ndarray:
        return self._params.copy()

    def log_entry(self, entry: dict) -> None:
        if self._log_file is not None:
            self._log_file.write(json.dumps(entry) + "\n")
            self._log_file.flush()

    def _direction(self, g: np.ndarray) -> np.ndarray:
        """The step lr * direction(g), written into (and returned as) _delta."""
        o = self.opt
        d, tmp = self._delta, self._tmp
        if o.method == "sgd":
            return np.multiply(g, o.lr, out=d)
        # m = beta1 * m + (1 - beta1) * g;  v = beta2 * v + (1 - beta2) * g * g
        self._m *= o.beta1
        self._m += np.multiply(g, 1.0 - o.beta1, out=tmp)
        self._v *= o.beta2
        np.multiply(g, 1.0 - o.beta2, out=tmp)
        tmp *= g
        self._v += tmp
        t = self._t
        np.divide(self._m, 1.0 - o.beta1 ** t, out=d)  # m_hat
        if o.method == "adam":
            scale = o.lr
        else:
            # variance-rectified: fall back to unadapted momentum while the
            # second-moment estimate is too young to be trusted
            rho_inf = 2.0 / (1.0 - o.beta2) - 1.0
            rho_t = rho_inf - 2.0 * t * o.beta2 ** t / (1.0 - o.beta2 ** t)
            if rho_t <= 4.0:
                d *= o.lr
                return d
            scale = o.lr * math.sqrt(
                ((rho_t - 4.0) * (rho_t - 2.0) * rho_inf)
                / ((rho_inf - 4.0) * (rho_inf - 2.0) * rho_t)
            )
        # scale * m_hat / (sqrt(v / (1 - beta2^t)) + eps)
        np.divide(self._v, 1.0 - o.beta2 ** t, out=tmp)
        np.sqrt(tmp, out=tmp)
        tmp += o.eps
        d *= scale
        d /= tmp
        return d

    def update(self, grad: np.ndarray, kind: str, meta: Optional[dict] = None) -> bool:
        """Apply one gradient; returns False (and logs) when the grad is rejected."""
        if kind not in (DISTILLING, AUTONOMOUS):
            raise InvalidInputError(f"unknown update kind {kind!r}")
        if not np.all(np.isfinite(grad)):
            self.rejected_count += 1
            entry = {"rejected": True, "kind": kind, "reason": "non-finite gradient"}
            entry.update(meta or {})
            self.log_entry(entry)
            return False
        g = np.multiply(grad, self.opt.rl_scale, out=self._g) if kind == AUTONOMOUS else grad
        if self.opt.grad_clip > 0.0:
            norm = float(np.linalg.norm(g))
            if norm > self.opt.grad_clip:
                g = np.multiply(g, self.opt.grad_clip / norm, out=self._g)
        self._t += 1
        delta = np.negative(self._direction(g), out=self._delta)
        if kind == DISTILLING and self.opt.weight_decay > 0.0:
            delta -= np.multiply(
                self._params, self.opt.lr * self.opt.weight_decay, out=self._tmp
            )
        self._params += delta
        self.update_count += 1
        if self.deltas is not None:
            self.deltas.append(delta.copy())
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
    tau: float = 0.25,
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

    def __init__(self, initial_horizon: int = 1, tau: float = 0.25):
        if initial_horizon < 1:
            raise ConfigError("initial horizon must be >= 1")
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


@dataclass(frozen=True)
class WorkerConfig:
    t_max: int = 5
    gamma: float = 1.0
    context: float = 1.5
    sigma_floor: float = 1e-3
    returns_mode: str = "forward"

    def validate(self) -> None:
        if self.t_max < 1:
            raise ConfigError("t_max must be >= 1")
        if not (0.0 < self.gamma <= 1.0):
            raise ConfigError("gamma must be in (0, 1]")


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
    once per env step. A window's gradient backpropagates through those same
    steps' caches, and the step that gives a cut window its bootstrap value is
    the next window's first step.

    Returns (sum of student rewards, sum of teacher own rewards, records).
    """
    if kind not in (DISTILLING, AUTONOMOUS):
        raise ConfigError(f"unknown worker kind {kind!r}")
    if kind == AUTONOMOUS and rng is None:
        raise ConfigError("an autonomous worker needs an rng")
    cfg.validate()
    episode = TrackingEpisode(
        chunk.frames, chunk.gt, cfg.context, model.config.patch_size, horizon=horizon
    )
    loss_kind = "distill" if kind == DISTILLING else "rl"

    def predict(state: State, hidden: HiddenState):
        out, hidden = model.forward(theta, state, hidden)
        if not (np.all(np.isfinite(out.action)) and math.isfinite(out.value)):
            raise NumericError(
                f"non-finite model output at step {episode.t + 1} of an episode "
                f"on {chunk.video_id}"
            )
        return out, hidden

    state = episode.reset()
    hidden = model.zero_hidden()
    pending = predict(state, hidden)
    sum_r_student = 0.0
    sum_r_teacher = 0.0
    records: List[EpisodeRecord] = []
    done = False
    while not done:
        h0 = hidden
        steps: List[StepRecord] = []
        caches = []
        while len(steps) < cfg.t_max and not done:
            out, hidden = pending
            t_next = episode.t + 1
            b_prev = episode.box
            gt = chunk.gt[t_next]
            teacher_box = chunk.teacher_boxes[t_next]
            ta = infer_action(teacher_box, b_prev)
            if kind == DISTILLING:
                sample = None
                executed = out.action
            else:
                gt_action = infer_action(gt, b_prev)
                sample = sample_action(out.action, gt_action, rng, cfg.sigma_floor)
                executed = sample.action
            next_state, r, done = episode.step(executed)
            sum_r_student += r
            sum_r_teacher += reward(teacher_box, gt)
            steps.append(
                StepRecord(
                    state=state,
                    mu=out.action,
                    value=out.value,
                    executed=executed,
                    reward=r,
                    log_density=None if sample is None else sample.log_density,
                    raw=None if sample is None else sample.raw,
                    sigma=None if sample is None else sample.sigma,
                    teacher_action=ta,
                    mask=mask(r, reward(apply_action(ta, b_prev), gt)),
                )
            )
            caches.append(out.cache)
            state = next_state
            if not done:
                pending = predict(state, hidden)
        record = EpisodeRecord(
            steps=steps,
            h0=h0,
            bootstrap_value=0.0 if done else pending[0].value,
            terminated=done,
        )
        records.append(record)
        loss, grad = window_gradient(
            model, theta, record, loss_kind,
            np.array([s.mu for s in steps]), np.array([s.value for s in steps]), caches,
            advantages(record, cfg.gamma), returns(record, cfg.gamma, cfg.returns_mode),
        )
        entry = {
            "worker": worker,
            "loss": float(loss),
            "sum_reward": float(sum_r_student),
            "video_id": chunk.video_id,
            "T_hat": episode.horizon,
        }
        shared.update(grad, kind, entry)
    return sum_r_student, sum_r_teacher, records


# -- the training orchestrator -------------------------------------------------


@dataclass
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

    def validate(self) -> None:
        if self.workers < 2:
            raise ConfigError(f"need at least 2 workers for the even split, got {self.workers}")
        if self.max_updates < 1:
            raise ConfigError("max_updates must be positive")
        if self.val_every < 1:
            raise ConfigError("val_every must be positive")


@dataclass
class TrainResult:
    checkpoint_path: str
    log_path: str
    best_val_ao: Optional[float]
    updates: int
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
    happens.

    ``validate_fn`` maps a parameter vector to a held-out score (higher is
    better). It runs before the first turn and then between turns, once the
    update count reaches the next ``val_every`` mark; ``progress`` receives
    each validation's log entry. The best-scoring snapshot is checkpointed.
    Without ``validate_fn`` the final parameters are saved.
    """
    settings.validate()
    worker_cfg.validate()
    if not chunks:
        raise ConfigError("no training chunks; transfer set is empty")
    os.makedirs(out_dir, exist_ok=True)

    params0 = model.init_params(settings.seed) if init_params is None else init_params
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
    val_history: List[Tuple[int, float]] = []
    best_score: Optional[float] = None
    best_params: Optional[np.ndarray] = None

    with open(log_path, "w") as log_file:
        shared = SharedWeights(
            params0, opt, record_deltas=settings.record_deltas, log_file=log_file
        )

        def validate() -> bool:
            """Score the current parameters; True when they are the new best."""
            nonlocal best_score, best_params
            at = shared.update_count
            snap = shared.snapshot()
            score = float(validate_fn(snap))
            val_history.append((at, score))
            improved = best_score is None or score > best_score
            if improved:
                best_score, best_params = score, snap
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
        bad_rounds = 0
        for w in itertools.cycle(range(settings.workers)):
            if shared.update_count >= settings.max_updates:
                break
            kind, rng, order = workers[w]
            # one turn: this worker's next episode
            chunk = next(order)
            key = (chunk.video_id, chunk.teacher_id, chunk.start)
            max_horizon = len(chunk) - 1
            horizon = curriculum.horizon(key, max_horizon) if curriculum else max_horizon
            # [:2] drops the records now rather than holding them through the next turn
            sum_s, sum_t = run_episode(
                model, shared.snapshot(), chunk, kind, worker_cfg, shared, rng, horizon, w
            )[:2]
            if curriculum is not None:
                curriculum.update(key, max_horizon, sum_s, sum_t)
            if validate_fn is not None and shared.update_count >= next_val:
                bad_rounds = 0 if validate() else bad_rounds + 1
                next_val = shared.update_count + settings.val_every
                if bad_rounds >= settings.patience:
                    break

    final_params = shared.snapshot() if best_params is None else best_params
    ckpt = os.path.join(out_dir, "student.ckpt")
    save_params(ckpt, model.config, final_params)
    return TrainResult(
        checkpoint_path=ckpt,
        log_path=log_path,
        best_val_ao=best_score,
        updates=shared.update_count,
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
