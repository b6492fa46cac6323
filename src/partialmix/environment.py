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
import numbers
from array import array
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
    ``psi``, ``V``, ``D``, ``v``, ``d``, ``selected``, ``selected_loss``
    (the loss incurred, revealed or not), ``p_phi`` (``p_t . phi_t``) and
    ``o_min`` (the round's smallest observation probability).
    (T, M) columns: ``q`` and the int8 observation ``indicators``.
    ``phi_revealed`` holds the estimates at the revealed indices only, in
    the row-major order of ``indicators``; every other estimate is an exact
    zero, so ``dense[indicators.astype(bool)] = phi_revealed`` on a zero
    (T, M) array rebuilds the whole ``phi``.
    """

    config: LearnerConfig
    seed: int
    losses: np.ndarray
    loss_range: tuple[float, float]

    def __post_init__(self) -> None:
        horizon, m = self.losses.shape
        (self.epsilon, self.eta, self.psi, self.V, self.D, self.v, self.d,
         self.selected_loss, self.p_phi, self.o_min) = np.empty((10, horizon))
        self.selected = np.empty(horizon, dtype=int)
        self.q = np.empty((horizon, m))
        # nothing revealed until run_game writes the rows
        self.indicators = np.zeros((horizon, m), dtype=np.int8)
        self.phi_revealed = np.zeros(0)

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
    # fails on NaN too, and builds no (T, M) temporary
    if not (losses.min() >= low and losses.max() <= high):
        raise EnvironmentError_("loss process produced values outside its declared range")
    play_rng = np.random.default_rng(play_seq)

    tr = GameTranscript(config, seed, losses, loss_process.loss_range)
    state = init_state(config)
    phi_revealed = array("d")  # grows by one float per revealed loss

    def reveal(at):
        queried.append(at)
        return row[at]

    for i in range(horizon):
        # reveal reads this round's row and records each read: an int or an index array
        row, queried = losses[i], []
        matrix = feedback_process.matrix_at(i + 1)
        ctx, selected, indicators, phi, rate, state = step(state, config, matrix, reveal, play_rng)
        # a scalar read checks one indicator; .all() on a few would cost microseconds
        for seen in map(indicators.__getitem__, queried):
            if not (seen if seen.ndim == 0 else np.count_nonzero(seen) == seen.size):
                raise RuntimeError(f"learner read an unrevealed loss at round {i + 1}")
        tr.epsilon[i] = ctx.epsilon
        tr.eta[i] = math.nan if rate.eta is None else rate.eta
        tr.psi[i] = state.psi
        tr.V[i] = rate.V
        tr.D[i] = rate.D
        tr.v[i] = rate.v
        tr.d[i] = rate.d
        tr.selected[i] = selected
        tr.o_min[i] = ctx.o_min
        tr.q[i] = ctx.q
        tr.indicators[i] = indicators
        at = fb.revealed_indices(matrix, selected, indicators)
        # phi is an exact zero off the revealed losses: one reveal, one product
        tr.p_phi[i] = (ctx.p[at] * phi[at] if isinstance(at, int)
                       else np.einsum("m,m->", ctx.p, phi))
        phi_revealed.frombytes(phi[at].tobytes())
    # the incurred loss is environment-side knowledge even when hidden
    tr.selected_loss[:] = losses[np.arange(horizon), tr.selected]
    tr.phi_revealed = np.frombuffer(phi_revealed)
    return tr


# cells per block of the k-switch DP: each of its two block buffers takes
# about 32 KiB, small beside the one-byte switch mask of a wide game
_DP_BLOCK_CELLS = 1 << 12


def best_competitor(
    losses: np.ndarray, kernel: TableKernel, max_switches: int
) -> CompetitorSequence:
    """Loss-minimizing expert sequence with at most ``max_switches`` switches,
    by dynamic programming over (round, arm, switch budget). Hindsight
    machinery only; the losses must be a finite (T, M) matrix, T >= 1 and M
    the kernel's expert count. Ties resolve to the lowest arm index, and
    among equal totals to the smallest budget.

    Arm ``a`` with budget ``j`` switches in at round ``t`` from the first
    best arm of budget ``j - 1`` at round ``t - 1`` when that is strictly
    cheaper than staying, and then adds the round's loss. The totals are
    cumulative losses plus offsets, not a round-by-round fold, so paths
    whose totals lie within rounding of the cumulative losses may tie
    either way; on small integer or dyadic losses the DP is exact.
    """
    losses = np.asarray(losses, dtype=float)
    if losses.ndim != 2 or not losses.shape[0] or losses.shape[1] != kernel.n_experts:
        raise EnvironmentError_(f"competitor losses must be T >= 1 rounds by "
                                f"{kernel.n_experts} experts, got shape {losses.shape}")
    k = max_switches
    if isinstance(k, bool) or not isinstance(k, numbers.Integral) or k < 0:
        raise EnvironmentError_(f"switch budget must be a nonnegative integer, got {k!r}")
    # NaN fails both comparisons; no (T, M) temporary
    if not (-math.inf < losses.min() and losses.max() < math.inf):
        raise EnvironmentError_("competitor losses must be finite")
    horizon = losses.shape[0]
    # switched[t, j - 1, a]: arm a with budget j switched in at round t,
    # from source[t, j - 1], the first best arm of budget j - 1
    switched, source, j, arm = _layer_dp(losses, min(int(k), horizon - 1))
    path = np.empty(horizon, dtype=int)
    for t in range(horizon - 1, 0, -1):
        path[t] = arm
        if j and switched[t, j - 1, arm]:
            arm = int(source[t, j - 1])
            j -= 1
    path[0] = arm
    return CompetitorSequence.from_experts(path, kernel)


def _layer_dp(losses: np.ndarray, k: int):
    """The k-switch DP, each budget layer in whole-block passes. From a
    virtual round before round 0, where every total is 0, layer ``j`` is
    ``L + G``: ``L`` sums the losses, and ``G[t]`` is the running
    minimum of ``best[t - 1] - L[t - 1]``, with ``best`` layer ``j - 1``'s
    row minimum. ``G`` falls where switching in is strictly cheaper than
    staying. Row 0 of a block carries the round before it. Layer ``j``'s
    totals overwrite its ``G``, and layer ``j + 1`` reads them before it
    writes its own."""
    horizon, m = losses.shape
    rows = min(horizon, max(1, _DP_BLOCK_CELLS // m))
    switched = np.empty((horizon, k, m), dtype=bool)
    source = np.empty((horizon, k), dtype=np.min_scalar_type(m - 1))
    total, gap = np.zeros((2, rows + 1, m))
    last_gap = np.zeros((k + 1, m))  # each layer's G at the last round played
    for t0 in range(0, horizon, rows):
        n = min(rows, horizon - t0)
        L, G, at = total[: n + 1], gap[: n + 1], slice(t0, t0 + n)
        L[1:] = losses[at]
        np.add.accumulate(L, axis=0, out=L)
        layer = L
        for j in range(1, k + 1):
            prev = layer[:n]
            source[at, j - 1] = prev.argmin(axis=1)
            best = prev.min(axis=1)[:, None]
            G[0] = last_gap[j]
            np.subtract(best, L[:n], out=G[1:])
            np.minimum.accumulate(G, axis=0, out=G)
            np.less(G[1:], G[:-1], out=switched[at, j - 1])
            last_gap[j] = G[n]
            layer = np.add(L, G, out=G)
        total[0] = L[n]
    final = total[0] + last_gap
    j = int(final.min(axis=1).argmin())
    return switched, source, j, int(final[j].argmin())


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
