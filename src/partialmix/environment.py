"""Loss and feedback generators, full games, and hindsight competitors.

All randomness in a game derives from a single integer seed: one child
stream generates the losses, another drives the learner's selections and
observation draws, so a transcript is a pure function of (configuration,
seed). The loss generators are evaluation machinery; the learner only ever
sees the values its feedback scheme reveals, and the game runner verifies
that round by round.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from . import feedback as fb
from .classnet import CompetitorSequence, TableKernel
from .learner import LearnerConfig, init_state, step


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

    def __init__(self, n_experts: int, loss_range: tuple[float, float]):
        low, high = float(loss_range[0]), float(loss_range[1])
        if not low < high:
            raise EnvironmentError_(f"loss range [{low}, {high}] must have low < high")
        self.n_experts = n_experts
        self.loss_range = (low, high)

    @abstractmethod
    def generate(self, horizon: int, rng: np.random.Generator) -> np.ndarray: ...


class ScriptedLosses(LossProcess):
    """Fixed loss matrix; a horizon may use any prefix of it."""

    def __init__(self, values: np.ndarray, loss_range: tuple[float, float]):
        values = np.asarray(values, dtype=float)
        if values.ndim != 2 or values.shape[0] < 1 or values.shape[1] < 1:
            raise EnvironmentError_(f"scripted losses must be a T x M matrix, got {values.shape}")
        super().__init__(values.shape[1], loss_range)
        low, high = self.loss_range
        if not np.all(np.isfinite(values)):
            raise EnvironmentError_("scripted losses must be finite")
        if np.any(values < low) or np.any(values > high):
            raise EnvironmentError_("scripted losses leave the declared range")
        self._values = values

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
        super().__init__(len(arms), loss_range)
        low, high = self.loss_range
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

    def generate(self, horizon: int, rng: np.random.Generator) -> np.ndarray:
        low, high = self.loss_range
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
        super().__init__(n_experts, loss_range)
        low, high = self.loss_range
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
        self._best = list(best_arms)
        self._boundaries = list(boundaries)
        self.gap = float(gap)

    def best_arm_path(self, horizon: int) -> np.ndarray:
        """The designed per-round favorite (hindsight reference)."""
        starts = [0] + [int(round(b * horizon)) for b in self._boundaries] + [horizon]
        path = np.empty(horizon, dtype=int)
        for arm, lo, hi in zip(self._best, starts, starts[1:]):
            path[lo:hi] = arm
        return path

    def generate(self, horizon: int, rng: np.random.Generator) -> np.ndarray:
        low, high = self.loss_range
        width = high - low - self.gap
        u = rng.random((horizon, self.n_experts))
        out = low + self.gap + u * width
        path = self.best_arm_path(horizon)
        rows = np.arange(horizon)
        out[rows, path] = low + u[rows, path] * width
        return out


class FeedbackProcess(ABC):
    """Per-round feedback schemes; every emitted matrix is pre-validated and
    covers ``n_experts`` experts."""

    n_experts: int

    @abstractmethod
    def matrix_at(self, t: int) -> fb.FeedbackMatrix: ...

    def check_horizon(self, horizon: int) -> None:
        """Scripted processes must cover the horizon; constants always do."""


class ConstantFeedback(FeedbackProcess):
    def __init__(self, matrix: fb.FeedbackMatrix):
        fb.validate(matrix)
        self._matrix = matrix
        self.n_experts = matrix.n_experts

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
        self.n_experts = sizes.pop()

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
    """Everything one game produced, one row per round, plus the realized
    losses for hindsight evaluation. The learner never sees this object.

    (T,) columns: ``epsilon``, ``eta`` (NaN while the rate is unset),
    ``psi``, ``V``, ``D``, ``v``, ``d``, ``selected`` and ``selected_loss``
    (the loss incurred, revealed or not). (T, M) columns: ``p``, ``q``,
    ``o``, ``phi`` and the int8 observation ``indicators``.
    """

    config: LearnerConfig
    seed: int
    losses: np.ndarray
    loss_range: tuple[float, float]

    def __post_init__(self) -> None:
        horizon, m = self.losses.shape
        (self.epsilon, self.eta, self.psi, self.V, self.D, self.v, self.d,
         self.selected_loss) = np.empty((8, horizon))
        self.selected = np.empty(horizon, dtype=int)
        self.p, self.q, self.o, self.phi = np.empty((4, horizon, m))
        self.indicators = np.empty((horizon, m), dtype=np.int8)

    @property
    def horizon(self) -> int:
        return len(self.selected)

    @property
    def cumulative_loss(self) -> float:
        # a left fold from 0.0, round by round, like the CSV's cum_loss
        return float(np.cumsum(self.selected_loss)[-1]) + 0.0


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

    tr = GameTranscript(config, seed, losses, loss_process.loss_range)
    state = init_state(config)
    queried: list[int] = []

    def reveal(m: int) -> float:
        queried.append(m)
        return row[m]

    for i in range(horizon):
        # one round's losses as Python floats; reveal reads the current row
        row = losses[i].tolist()
        queried.clear()
        matrix = feedback_process.matrix_at(i + 1)
        ctx, selected, indicators, phi, rate, state = step(
            state, config, matrix, reveal, play_rng
        )
        if not all(indicators[m] for m in queried):
            raise RuntimeError(f"learner read an unrevealed loss at round {i + 1}")
        tr.epsilon[i] = ctx.epsilon
        tr.eta[i] = math.nan if rate.eta is None else rate.eta
        tr.psi[i] = state.psi
        tr.V[i] = rate.V
        tr.D[i] = rate.D
        tr.v[i] = rate.v
        tr.d[i] = rate.d
        tr.selected[i] = selected
        # the incurred loss is environment-side knowledge even when hidden
        tr.selected_loss[i] = row[selected]
        tr.p[i] = ctx.p
        tr.q[i] = ctx.q
        tr.o[i] = ctx.o
        tr.phi[i] = phi
        tr.indicators[i] = indicators
    return tr


# The k-switch DP runs on Python floats or as one numpy step per round over
# all budgets, whichever is cheaper at (M, k). Per call at T = 3000 (min of
# 5 calls, float/array ms; 2-vCPU VM, Python 3.11.7, numpy 2.4.6):
#   k \ M      4          16          32          64         128
#   0      1.8/1.9    2.8/1.9     4.3/1.9     7.1/1.9    14.0/2.0
#   1      3.2/23.7   6.2/23.7   10.1/24.1   17.5/24.3   34.3/25.0
#   2      4.6/24.5   9.1/24.5   14.4/24.9   26.8/25.7   52.3/27.4
#   3      6.6/24.5  12.3/24.6   20.6/25.2   37.6/26.5   70.9/29.2
#   5      8.5/24.6  18.6/25.3   31.4/26.5   56.5/27.9  110.0/31.5
#   8     13.0/24.9  27.1/25.9   47.9/27.6   87.2/30.8  165.7/35.8
# The forms meet near M = 5, 92, 62, 44, 25 and 15 at k = 0, 1, 2, 3, 5 and
# 8. The per-round costs below (in µs) are fitted to this table and put the
# crossovers at M = 5, 96, 59, 42, 25 and 15; they keep the float form below
# 96 experts, inside its one-byte origins.
def _float_dp_is_faster(m: int, k: int) -> bool:
    float_us = 0.47 + 0.28 * k + (0.034 + 0.048 * k) * m
    array_us = 0.63 if k == 0 else 8.2 + 0.0037 * k * m
    return float_us < array_us


def best_competitor(
    losses: np.ndarray, kernel: TableKernel, max_switches: int
) -> CompetitorSequence:
    """Loss-minimizing expert sequence with at most ``max_switches`` switches,
    by dynamic programming over (round, arm, switch budget). Hindsight
    machinery only; the losses must be finite. Ties resolve to the lowest
    arm index, and among equal totals to the smallest budget.

    ``cost[j][a]`` is the best total so far ending at arm ``a`` with at most
    ``j`` switches. Each round, arm ``a`` with budget ``j`` switches in from
    the first best arm of budget ``j - 1`` when that is strictly cheaper
    than staying, and then adds the round's loss. The best arm itself never
    switches in: ``cost[j] <= cost[j - 1]`` holds elementwise by induction
    (rounding is monotone), so staying costs it at most the best value.
    Both forms make the same float additions and deciding comparisons, so
    they return the same path.
    """
    losses = np.asarray(losses, dtype=float)
    horizon, m = losses.shape
    if max_switches < 0:
        raise EnvironmentError_("switch budget must be nonnegative")
    k = min(max_switches, horizon - 1)
    dp = _float_dp if _float_dp_is_faster(m, k) else _array_dp
    # origin[t, j, a]: 0 = stayed on a, 1 + a' = switched from a'
    origin, j, arm = dp(losses, k)
    path = np.empty(horizon, dtype=int)
    for t in range(horizon - 1, 0, -1):
        path[t] = arm
        move = int(origin[t, j, arm])
        if move:
            arm = move - 1
            j -= 1
    path[0] = arm
    return CompetitorSequence.from_experts(path, kernel)


def _float_dp(losses: np.ndarray, k: int):
    horizon, m = losses.shape
    cost = [losses[0].tolist() for _ in range(k + 1)]
    stride = (k + 1) * m
    origin = bytearray(horizon * stride)  # a move 1 + a' < 256 fits a byte
    for t in range(1, horizon):
        row = losses[t].tolist()
        # descending budgets read cost[j - 1] before it takes round t
        for j in range(k, 0, -1):
            prev = cost[j - 1]
            best_v = min(prev)
            move = prev.index(best_v) + 1
            c = cost[j]
            at = t * stride + j * m
            for a in range(m):
                x = c[a]
                if best_v < x:
                    x = best_v
                    origin[at + a] = move
                c[a] = x + row[a]
        cost[0] = [x + r for x, r in zip(cost[0], row)]
    mins = [min(c) for c in cost]
    j = mins.index(min(mins))
    origin = np.frombuffer(origin, dtype=np.uint8).reshape(horizon, k + 1, m)
    return origin, j, cost[j].index(mins[j])


def _array_dp(losses: np.ndarray, k: int):
    horizon, m = losses.shape
    cost = np.tile(losses[0], (k + 1, 1))
    origin = np.zeros((horizon, k + 1, m), dtype=np.min_scalar_type(m))
    for t in range(1, horizon):
        if k:
            best = cost[:-1].argmin(axis=1)[:, None]
            best_v = np.take_along_axis(cost[:-1], best, axis=1)
            use_switch = best_v < cost[1:]
            cost[1:] = np.where(use_switch, best_v, cost[1:])
            origin[t, 1:] = np.where(use_switch, best + 1, 0)
        cost += losses[t]
    j = int(cost.min(axis=1).argmin())
    return origin, j, int(cost[j].argmin())


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
