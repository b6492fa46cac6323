"""Regret accounting, closed-form bound evaluation, per-run inequality
diagnostics, Monte-Carlo batches, and scaling fits.

The four inequality diagnostics hold deterministically on every run played
with the adaptive learning rate, for every competitor inside the kernel's
support; they are checked at every prefix horizon, not just the final
round. Failures are reported as data, not raised.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from .classnet import CompetitorSequence, ZeroTransitionError, complexity
from .environment import (
    CompetitorSpec,
    FeedbackProcess,
    GameTranscript,
    LossProcess,
    resolve_competitor,
    run_game,
)
from .learner import LearnerConfig

RELATIVE_TOLERANCE = 1e-8
Z_95 = 1.959963984540054


class LengthMismatchError(ValueError):
    """Competitor and transcript cover different horizons."""


class DegenerateFitError(ValueError):
    """Scaling fit needs at least four distinct horizons and positive regrets."""


@dataclass(frozen=True)
class LemmaCheck:
    """One inequality verdict: the worst prefix slack, relative to the
    bound side, with the values at that prefix."""

    name: str
    lhs: float
    rhs: float
    slack: float
    passed: bool


@dataclass(frozen=True)
class LemmaDiagnostics:
    checks: tuple[LemmaCheck, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def __getitem__(self, name: str) -> LemmaCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


def _verdict(name: str, lhs: np.ndarray, rhs: np.ndarray) -> LemmaCheck:
    scale = np.maximum(1.0, np.abs(rhs))
    slack = (rhs - lhs) / scale
    worst = int(np.argmin(slack))
    return LemmaCheck(
        name=name,
        lhs=float(lhs[worst]),
        rhs=float(rhs[worst]),
        slack=float(slack[worst]),
        passed=bool(slack[worst] >= -RELATIVE_TOLERANCE),
    )


def check_lemmas(
    transcript: GameTranscript,
    competitor: CompetitorSequence,
) -> LemmaDiagnostics:
    """Evaluate the four per-run inequalities at every prefix horizon.

    ``variance_sum``: cumulative ``eta_t v_t / 2`` against ``gamma sqrt(V)``.
    ``rate_drop``: cumulative ``(1 - eta_t/eta_{t-1}) d_t`` against
    ``sqrt(V + D^2)`` (ratio 1 wherever the rate is unset).
    ``tracking``: cumulative estimate regret against the competitor versus
    its complexity bound.
    ``observation_floor``: ``o_{t,m} >= epsilon_t / M`` for every round and
    expert, read off each round's smallest ``o_{t,m}``. The slack is
    monotone in ``o`` on ``o >= 0``, and ``prepare_round`` rejects every
    other value, so a round's worst entry is its minimum.
    """
    horizon = transcript.horizon
    if len(competitor) != horizon:
        raise LengthMismatchError(
            f"competitor covers {len(competitor)} rounds, transcript {horizon}"
        )
    kernel = transcript.config.kernel
    gamma = transcript.config.gamma
    m = transcript.config.n_experts
    eta, v, d = transcript.eta, transcript.v, transcript.d
    v_run, d_run = transcript.V, transcript.D
    phi = transcript.phi

    sqrt_v = np.sqrt(v_run)
    sqrt_vd = np.sqrt(v_run + d_run * d_run)

    terms = np.where(np.isnan(eta), 0.0, 0.5 * eta * v)
    variance_sum = _verdict("variance_sum", np.cumsum(terms), gamma * sqrt_v)

    prev_eta = np.concatenate(([math.nan], eta[:-1]))
    with np.errstate(invalid="ignore"):
        ratio = np.where(np.isnan(eta) | np.isnan(prev_eta), 1.0, eta / prev_eta)
    if ratio.max() > 1.0 + RELATIVE_TOLERANCE:
        # non-increasing rates are a precondition of the guarantee; an
        # increase marks the transcript itself as invalid
        rate_drop = LemmaCheck(
            name="rate_drop",
            lhs=float(ratio.max()),
            rhs=1.0,
            slack=float(1.0 - ratio.max()),
            passed=False,
        )
    else:
        rate_drop = _verdict("rate_drop", np.cumsum((1.0 - ratio) * d), sqrt_vd)

    experts = competitor.experts
    inst = transcript.p_phi - phi[np.arange(horizon), experts]
    log_counts = np.full(horizon, math.log(kernel.class_count(horizon)))
    log_counts[0] = math.log(kernel.class_count(1))
    w_prefix = log_counts - np.cumsum(kernel.path_log_factors(competitor.classes))
    tracking = _verdict(
        "tracking",
        np.cumsum(inst),
        ((w_prefix + gamma) / gamma) * sqrt_vd + gamma * sqrt_v,
    )

    observation_floor = _verdict(
        "observation_floor", transcript.epsilon / m, transcript.o_min
    )

    return LemmaDiagnostics((variance_sum, rate_drop, tracking, observation_floor))


@dataclass(frozen=True)
class BoundValue:
    """Normalized expected-regret bound: the exact finite-horizon form and
    its looser closed form (always at least as large)."""

    theorem: float
    cleaner: float


def theoretical_bound(
    n_experts: int, w: float, gamma: float, epsilons: np.ndarray
) -> BoundValue:
    """Evaluate the normalized expected-regret bound for an explicit
    mixture schedule.

    ``epsilons`` must be positive and non-increasing; ``w`` is the
    competitor complexity entering the bound, ``gamma`` the rate scale.
    """
    eps = np.asarray(epsilons, dtype=float)
    if eps.ndim != 1 or eps.size < 1:
        raise ValueError("need a nonempty epsilon schedule")
    if np.any(eps <= 0.0):
        raise ValueError("epsilon schedule must be positive")
    if np.any(eps[1:] > eps[:-1] + 1e-12):
        raise ValueError("epsilon schedule must be non-increasing")
    m = float(n_experts)
    eps_T = float(eps[-1])
    sum_eps = float(eps.sum())
    sum_inv = float((1.0 / eps).sum())
    root_sum = math.sqrt(m * sum_inv)
    theorem = (
        1.0
        + m / eps_T
        + sum_eps
        + gamma * root_sum
        + ((w + gamma) / gamma) * math.sqrt(m * sum_inv + m * m / (eps_T * eps_T))
    )
    cleaner = (
        1.0
        + sum_eps
        + ((w + 2.0 * gamma) / gamma) * (m / eps_T)
        + ((w + gamma + gamma * gamma) / gamma) * root_sum
    )
    return BoundValue(theorem=theorem, cleaner=cleaner)


def regret_bound(config: LearnerConfig, w: float, epsilons: np.ndarray) -> BoundValue:
    """``theoretical_bound`` for a played schedule. A competitor outside the
    kernel's support (infinite ``w``) or an epsilon of 0, whose ``M/eps_T``
    term is infinite, gets no guarantee: the bound is infinite."""
    if math.isinf(w) or np.any(epsilons == 0.0):
        return BoundValue(math.inf, math.inf)
    return theoretical_bound(config.n_experts, w, config.gamma, epsilons)


@dataclass(frozen=True)
class RegretReport:
    """Scorecard of one seeded game against one competitor. The bound is
    left to the callers that write one (``regret_bound``)."""

    seed: int
    learner_loss: float
    competitor_loss: float
    regret: float
    normalized_regret: float
    loss_range: tuple[float, float]
    complexity: float
    n_switches: int
    w_budget: float | None
    budget_exceeded: bool
    diagnostics: LemmaDiagnostics | None


def realized_regret(
    transcript: GameTranscript,
    competitor: CompetitorSequence,
    with_diagnostics: bool = True,
) -> RegretReport:
    """Realized regret, its normalized form and the competitor's
    complexity, checked against the learner's budget."""
    horizon = transcript.horizon
    if len(competitor) != horizon:
        raise LengthMismatchError(f"transcript has {horizon} rounds, competitor {len(competitor)}")
    competitor_loss = float(transcript.losses[np.arange(horizon), competitor.experts].sum())
    regret = transcript.cumulative_loss - competitor_loss
    low, high = transcript.loss_range
    config = transcript.config
    try:
        w_realized = complexity(config.kernel, competitor)
    except ZeroTransitionError:
        # out of the kernel's support: complexity is infinite and no
        # guarantee applies, but the regret arithmetic still stands
        w_realized = math.inf
    budget_exceeded = config.w_budget is not None and w_realized > config.w_budget + 1e-9 * max(
        1.0, abs(config.w_budget)
    )
    if budget_exceeded:
        warnings.warn(
            f"competitor complexity {w_realized:.17g} exceeds the budget "
            f"{config.w_budget:.17g} by {w_realized - config.w_budget:.17g}; "
            "the regret guarantee lapses",
            stacklevel=2,
        )
    # out of the kernel's support no inequality applies
    diagnostics = (
        check_lemmas(transcript, competitor)
        if with_diagnostics and math.isfinite(w_realized)
        else None
    )
    return RegretReport(
        seed=transcript.seed,
        learner_loss=transcript.cumulative_loss,
        competitor_loss=competitor_loss,
        regret=regret,
        normalized_regret=regret / (high - low),
        loss_range=(low, high),
        complexity=w_realized,
        n_switches=competitor.n_switches,
        w_budget=config.w_budget,
        budget_exceeded=budget_exceeded,
        diagnostics=diagnostics,
    )


@dataclass(frozen=True)
class ExperimentBundle:
    """Everything needed to play and score one seeded game."""

    learner_config: LearnerConfig
    loss_process: LossProcess
    feedback_process: FeedbackProcess
    horizon: int
    competitor: CompetitorSpec


@dataclass(frozen=True)
class BatchSummary:
    """Seed-aggregated regret statistics with a 95% normal confidence
    interval. With one seed the standard error is reported as 0 and
    flagged undefined."""

    n_seeds: int
    mean_regret: float
    std_error: float
    confidence_interval: tuple[float, float]
    mean_normalized_regret: float
    normalized_std_error: float
    normalized_confidence_interval: tuple[float, float]
    bound: BoundValue
    std_error_defined: bool


def play_and_score(
    bundle: ExperimentBundle, seed: int, with_diagnostics: bool = False
) -> tuple[GameTranscript, CompetitorSequence, RegretReport]:
    """Play one seeded game, resolve its competitor and score it; the
    inequality diagnostics are checked only when asked for."""
    transcript = run_game(
        bundle.learner_config,
        bundle.loss_process,
        bundle.feedback_process,
        bundle.horizon,
        seed,
    )
    kernel = bundle.learner_config.kernel
    competitor = resolve_competitor(bundle.competitor, transcript.losses, kernel)
    return transcript, competitor, realized_regret(transcript, competitor, with_diagnostics)


def play_seeds(
    bundle: ExperimentBundle, n_seeds: int, base_seed: int = 0
) -> Iterator[tuple[GameTranscript, CompetitorSequence, RegretReport]]:
    """Play seeds ``base_seed + i`` in turn and yield each game's
    transcript, competitor and report; ``n_seeds`` is checked at the call.
    The loop keeps nothing of a yielded game, so a caller that drops each
    transcript before asking for the next holds one game at a time."""
    if n_seeds < 1:
        raise ValueError("need at least one seed")
    return (play_and_score(bundle, base_seed + i) for i in range(n_seeds))


def summarize_runs(bundle: ExperimentBundle, results: list[RegretReport]) -> BatchSummary:
    """Aggregate per-seed reports; the bound uses the worst realized
    competitor complexity with the budget-driven schedule."""
    if not results:
        raise ValueError("need at least one report")
    n_seeds = len(results)
    regrets = np.array([r.regret for r in results])
    normalized = np.array([r.normalized_regret for r in results])
    defined = n_seeds > 1
    se = float(regrets.std(ddof=1) / math.sqrt(n_seeds)) if defined else 0.0
    se_norm = float(normalized.std(ddof=1) / math.sqrt(n_seeds)) if defined else 0.0
    mean = float(regrets.mean())
    mean_norm = float(normalized.mean())
    config = bundle.learner_config
    eps = np.array([config.epsilon_at(t) for t in range(1, bundle.horizon + 1)])
    w_worst = max(r.complexity for r in results)
    bound = regret_bound(config, w_worst, eps)
    return BatchSummary(
        n_seeds=n_seeds,
        mean_regret=mean,
        std_error=se,
        confidence_interval=(mean - Z_95 * se, mean + Z_95 * se),
        mean_normalized_regret=mean_norm,
        normalized_std_error=se_norm,
        normalized_confidence_interval=(
            mean_norm - Z_95 * se_norm,
            mean_norm + Z_95 * se_norm,
        ),
        bound=bound,
        std_error_defined=defined,
    )


def monte_carlo(
    bundle: ExperimentBundle, n_seeds: int, base_seed: int = 0
) -> tuple[BatchSummary, list[RegretReport]]:
    """Play ``n_seeds`` games through ``play_seeds`` and aggregate their
    regrets. Deterministic given the base seed."""
    results = [report for _, _, report in play_seeds(bundle, n_seeds, base_seed)]
    return summarize_runs(bundle, results), results


def fit_scaling(horizons: Sequence[float], mean_regrets: Sequence[float]) -> float:
    """Least-squares slope of log mean regret against log horizon."""
    horizons = np.asarray(horizons, dtype=float)
    mean_regrets = np.asarray(mean_regrets, dtype=float)
    if horizons.shape != mean_regrets.shape or np.unique(horizons).size < 4:
        raise DegenerateFitError("need at least four distinct horizons")
    if np.any(mean_regrets <= 0.0):
        raise DegenerateFitError("mean regrets must be positive for a log-log fit")
    slope, _ = np.polyfit(np.log(horizons), np.log(mean_regrets), 1)
    return float(slope)
