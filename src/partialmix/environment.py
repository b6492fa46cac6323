"""Loss and feedback generators, full games, and hindsight competitors.

All randomness in a game derives from a single integer seed: one child
stream generates the losses, another drives the learner's selections and
observation draws, so a transcript is a pure function of (configuration,
seed). The loss generators are evaluation machinery; the learner only ever
sees the values its feedback scheme reveals, and the game runner verifies
that round by round.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from . import feedback as fb
from .classnet import CompetitorSequence, TableKernel
from .learner import LearnerConfig, RoundRecord, init_state, step


class EnvironmentError_(ValueError):
    """Invalid environment specification."""


@dataclass(frozen=True)
class UniformArm:
    low: float
    high: float


@dataclass(frozen=True)
class BernoulliArm:
    """Loss equals the top of the range with probability p, else the bottom."""

    p: float


class LossProcess(ABC):
    """Generates a T x M loss matrix; every value lies in ``loss_range``."""

    @property
    @abstractmethod
    def n_experts(self) -> int: ...

    @property
    @abstractmethod
    def loss_range(self) -> tuple[float, float]: ...

    @abstractmethod
    def generate(self, horizon: int, rng: np.random.Generator) -> np.ndarray: ...

    def _check_range(self, low: float, high: float) -> None:
        if not low < high:
            raise EnvironmentError_(f"loss range [{low}, {high}] must have low < high")


class ScriptedLosses(LossProcess):
    """Fixed loss matrix; a horizon may use any prefix of it."""

    def __init__(self, values: np.ndarray, loss_range: tuple[float, float]):
        values = np.asarray(values, dtype=float)
        if values.ndim != 2 or values.shape[0] < 1 or values.shape[1] < 1:
            raise EnvironmentError_(f"scripted losses must be a T x M matrix, got {values.shape}")
        low, high = float(loss_range[0]), float(loss_range[1])
        self._check_range(low, high)
        if not np.all(np.isfinite(values)):
            raise EnvironmentError_("scripted losses must be finite")
        if np.any(values < low) or np.any(values > high):
            raise EnvironmentError_("scripted losses leave the declared range")
        self._values = values
        self._range = (low, high)

    @property
    def n_experts(self) -> int:
        return self._values.shape[1]

    @property
    def loss_range(self) -> tuple[float, float]:
        return self._range

    def generate(self, horizon: int, rng: np.random.Generator) -> np.ndarray:
        if horizon > self._values.shape[0]:
            raise EnvironmentError_(
                f"script covers {self._values.shape[0]} rounds, horizon {horizon} asked"
            )
        return self._values[:horizon].copy()


class IIDLosses(LossProcess):
    """Independent per-arm draws, one distribution per expert."""

    def __init__(
        self,
        arms: list[UniformArm | BernoulliArm],
        loss_range: tuple[float, float],
    ):
        low, high = float(loss_range[0]), float(loss_range[1])
        self._check_range(low, high)
        if not arms:
            raise EnvironmentError_("need at least one arm")
        for i, arm in enumerate(arms):
            if isinstance(arm, UniformArm):
                if not (low <= arm.low <= arm.high <= high):
                    raise EnvironmentError_(
                        f"arm {i} support [{arm.low}, {arm.high}] leaves the range"
                    )
            elif isinstance(arm, BernoulliArm):
                if not 0.0 <= arm.p <= 1.0:
                    raise EnvironmentError_(f"arm {i} probability {arm.p} outside [0, 1]")
            else:
                raise EnvironmentError_(f"unknown arm spec {arm!r}")
        self._arms = list(arms)
        self._range = (low, high)

    @property
    def n_experts(self) -> int:
        return len(self._arms)

    @property
    def loss_range(self) -> tuple[float, float]:
        return self._range

    def generate(self, horizon: int, rng: np.random.Generator) -> np.ndarray:
        low, high = self._range
        out = np.empty((horizon, len(self._arms)))
        for i, arm in enumerate(self._arms):
            if isinstance(arm, UniformArm):
                out[:, i] = rng.uniform(arm.low, arm.high, size=horizon)
            else:
                out[:, i] = np.where(rng.random(horizon) < arm.p, high, low)
        return out


class PiecewiseLosses(LossProcess):
    """Segment-wise favorites: within each segment one arm's mean loss sits
    a fixed gap below the others'.

    Segment boundaries are fractions of the horizon, so the same process
    scales across a horizon sweep. The best arm draws uniformly from
    ``[low, high - gap]``, the rest from ``[low + gap, high]``.
    """

    def __init__(
        self,
        n_experts: int,
        loss_range: tuple[float, float],
        best_arms: list[int],
        boundaries: list[float],
        gap: float | None = None,
    ):
        low, high = float(loss_range[0]), float(loss_range[1])
        self._check_range(low, high)
        if gap is None:
            gap = 0.2 * (high - low)
        if not 0.0 < gap < high - low:
            raise EnvironmentError_(f"gap {gap} must lie strictly inside the loss range width")
        if len(best_arms) != len(boundaries) + 1:
            raise EnvironmentError_(
                f"{len(best_arms)} segments need {len(best_arms) - 1} boundaries, "
                f"got {len(boundaries)}"
            )
        if any(not 0.0 < b < 1.0 for b in boundaries) or any(
            b2 <= b1 for b1, b2 in zip(boundaries, boundaries[1:])
        ):
            raise EnvironmentError_("boundaries must be increasing fractions in (0, 1)")
        if any(not 0 <= a < n_experts for a in best_arms):
            raise EnvironmentError_("best arm index out of range")
        self._m = n_experts
        self._range = (low, high)
        self._best = list(best_arms)
        self._boundaries = list(boundaries)
        self._gap = float(gap)

    @property
    def n_experts(self) -> int:
        return self._m

    @property
    def loss_range(self) -> tuple[float, float]:
        return self._range

    @property
    def gap(self) -> float:
        return self._gap

    def segment_starts(self, horizon: int) -> list[int]:
        return [0] + [int(round(b * horizon)) for b in self._boundaries]

    def best_arm_path(self, horizon: int) -> np.ndarray:
        """The designed per-round favorite (hindsight reference)."""
        starts = self.segment_starts(horizon) + [horizon]
        path = np.empty(horizon, dtype=int)
        for arm, lo, hi in zip(self._best, starts, starts[1:]):
            path[lo:hi] = arm
        return path

    def generate(self, horizon: int, rng: np.random.Generator) -> np.ndarray:
        low, high = self._range
        width = high - low - self._gap
        u = rng.random((horizon, self._m))
        out = low + self._gap + u * width
        path = self.best_arm_path(horizon)
        rows = np.arange(horizon)
        out[rows, path] = low + u[rows, path] * width
        return out


class FeedbackProcess(ABC):
    """Per-round feedback schemes; every emitted matrix is pre-validated."""

    @property
    @abstractmethod
    def n_experts(self) -> int: ...

    @abstractmethod
    def matrix_at(self, t: int) -> fb.FeedbackMatrix: ...

    def check_horizon(self, horizon: int) -> None:
        """Scripted processes must cover the horizon; constants always do."""


class ConstantFeedback(FeedbackProcess):
    def __init__(self, matrix: fb.FeedbackMatrix):
        fb.validate(matrix)
        self._matrix = matrix

    @property
    def n_experts(self) -> int:
        return self._matrix.n_experts

    def matrix_at(self, t: int) -> fb.FeedbackMatrix:
        return self._matrix


class ScriptedFeedback(FeedbackProcess):
    def __init__(self, matrices: list[fb.FeedbackMatrix]):
        if not matrices:
            raise EnvironmentError_("scripted feedback needs at least one matrix")
        for matrix in matrices:
            fb.validate(matrix)
        sizes = {m.n_experts for m in matrices}
        if len(sizes) != 1:
            raise EnvironmentError_("scripted feedback matrices disagree in size")
        self._matrices = list(matrices)

    @property
    def n_experts(self) -> int:
        return self._matrices[0].n_experts

    def matrix_at(self, t: int) -> fb.FeedbackMatrix:
        return self._matrices[t - 1]

    def check_horizon(self, horizon: int) -> None:
        if horizon > len(self._matrices):
            raise EnvironmentError_(
                f"feedback script covers {len(self._matrices)} rounds, horizon {horizon} asked"
            )


def bandit_feedback(n_experts: int) -> ConstantFeedback:
    return ConstantFeedback(fb.identity_feedback(n_experts))


def full_feedback_process(n_experts: int) -> ConstantFeedback:
    return ConstantFeedback(fb.full_feedback(n_experts))


@dataclass(eq=False)
class GameTranscript:
    """Everything one game produced, plus the realized losses for
    hindsight evaluation. The learner never sees this object."""

    records: list[RoundRecord]
    cumulative_loss: float
    config: LearnerConfig
    seed: int
    losses: np.ndarray
    loss_range: tuple[float, float]

    @property
    def horizon(self) -> int:
        return len(self.records)

    @property
    def selections(self) -> np.ndarray:
        return np.array([r.selected for r in self.records], dtype=int)


def run_game(
    config: LearnerConfig,
    loss_process: LossProcess,
    feedback_process: FeedbackProcess,
    horizon: int,
    seed: int,
) -> GameTranscript:
    """Play ``horizon`` rounds and return the full transcript.

    Deterministic per seed. The loss oracle handed to the learner answers
    only revealed indices; any out-of-band query aborts the game.
    """
    if horizon < 1:
        raise EnvironmentError_("horizon must be at least 1")
    if loss_process.n_experts != config.n_experts:
        raise EnvironmentError_(
            f"loss process covers {loss_process.n_experts} experts, "
            f"learner expects {config.n_experts}"
        )
    if feedback_process.n_experts != config.n_experts:
        raise EnvironmentError_(
            f"feedback process covers {feedback_process.n_experts} experts, "
            f"learner expects {config.n_experts}"
        )
    feedback_process.check_horizon(horizon)
    loss_seq, play_seq = np.random.SeedSequence(seed).spawn(2)
    losses = loss_process.generate(horizon, np.random.default_rng(loss_seq))
    low, high = loss_process.loss_range
    if np.any(losses < low) or np.any(losses > high):
        raise EnvironmentError_("loss process produced values outside its declared range")
    play_rng = np.random.default_rng(play_seq)

    state = init_state(config)
    records: list[RoundRecord] = []
    cumulative = 0.0
    for t in range(1, horizon + 1):
        matrix = feedback_process.matrix_at(t)
        row = losses[t - 1]
        queried: list[int] = []

        def reveal(m: int) -> float:
            queried.append(m)
            return float(row[m])

        record, state = step(state, config, matrix, reveal, play_rng)
        indicators = record.outcome.indicators
        if any(indicators[m] == 0 for m in queried):
            raise RuntimeError(f"learner read an unrevealed loss at round {t}")
        # the incurred loss is environment-side knowledge even when hidden
        record.selected_loss = float(row[record.selected])
        cumulative += record.selected_loss
        records.append(record)
    return GameTranscript(
        records=records,
        cumulative_loss=cumulative,
        config=config,
        seed=seed,
        losses=losses,
        loss_range=loss_process.loss_range,
    )


def best_competitor(
    losses: np.ndarray, kernel: TableKernel, max_switches: int
) -> CompetitorSequence:
    """Loss-minimizing expert sequence with at most ``max_switches`` switches,
    by dynamic programming over (round, arm, switch budget). Hindsight
    machinery only; ties resolve to the lowest arm index."""
    losses = np.asarray(losses, dtype=float)
    horizon, m = losses.shape
    if max_switches < 0:
        raise EnvironmentError_("switch budget must be nonnegative")
    k = min(max_switches, horizon - 1)
    # cost[j, a]: best total loss so far ending at arm a with <= j switches
    cost = np.tile(losses[0], (k + 1, 1))
    # origin[t, j, a]: 0 = stayed on a, 1 + a' = switched from a'
    origin = np.zeros((horizon, k + 1, m), dtype=np.int32)
    for t in range(1, horizon):
        new_cost = np.empty_like(cost)
        new_origin = origin[t]
        new_cost[0] = cost[0]
        for j in range(1, k + 1):
            prev = cost[j - 1]
            best = int(np.argmin(prev))
            runner = np.partition(prev, 1)[1] if m > 1 else prev[best]
            switched = np.full(m, prev[best])
            switched_from = np.full(m, best, dtype=np.int32)
            if m > 1:
                switched[best] = runner
                switched_from[best] = int(
                    np.argmin(np.where(np.arange(m) == best, np.inf, prev))
                )
            use_switch = switched < cost[j]
            new_cost[j] = np.where(use_switch, switched, cost[j])
            new_origin[j] = np.where(use_switch, switched_from + 1, 0)
        cost = new_cost + losses[t]
    j = int(np.argmin(cost.min(axis=1)))
    arm = int(np.argmin(cost[j]))
    path = np.empty(horizon, dtype=int)
    for t in range(horizon - 1, 0, -1):
        path[t] = arm
        move = origin[t, j, arm]
        if move:
            arm = int(move - 1)
            j -= 1
    path[0] = arm
    return CompetitorSequence.from_experts(path, kernel)


@dataclass(frozen=True)
class CompetitorSpec:
    """How to pick the comparison sequence for a game.

    ``kind`` is one of ``fixed`` (constant expert), ``best_fixed``,
    ``best_k_switch`` (hindsight dynamic program), or ``explicit``.
    """

    kind: str
    expert: int | None = None
    switches: int | None = None
    sequence: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("fixed", "best_fixed", "best_k_switch", "explicit"):
            raise EnvironmentError_(f"unknown competitor kind {self.kind!r}")
        if self.kind == "fixed" and self.expert is None:
            raise EnvironmentError_("fixed competitor needs an expert index")
        if self.kind == "best_k_switch" and (self.switches is None or self.switches < 0):
            raise EnvironmentError_("best_k_switch needs a nonnegative switch budget")
        if self.kind == "explicit" and not self.sequence:
            raise EnvironmentError_("explicit competitor needs a sequence")


def resolve_competitor(
    spec: CompetitorSpec, losses: np.ndarray, kernel: TableKernel
) -> CompetitorSequence:
    horizon = losses.shape[0]
    if spec.kind == "fixed":
        return CompetitorSequence.from_experts([spec.expert] * horizon, kernel)
    if spec.kind == "best_fixed":
        return best_competitor(losses, kernel, 0)
    if spec.kind == "best_k_switch":
        return best_competitor(losses, kernel, spec.switches)
    if len(spec.sequence) != horizon:
        raise EnvironmentError_(
            f"explicit competitor has {len(spec.sequence)} rounds, game has {horizon}"
        )
    return CompetitorSequence.from_experts(list(spec.sequence), kernel)
