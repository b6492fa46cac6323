"""Reusable validation suites: oracle equivalences, randomized inequality
sweeps, and the affine-invariance comparison.

These back the CLI ``validate`` subcommand and the acceptance tests; the
counts are parameters so the CLI can run a quick pass while the tests run
the full-size sweeps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .classnet import (
    CompetitorSequence,
    TableKernel,
    advance,
    complexity,
    expert_marginals,
    fixed_kernel,
    fixed_share_kernel,
    init_weights,
)
from .environment import (
    CompetitorSpec,
    ConstantFeedback,
    IIDLosses,
    ScriptedLosses,
    UniformArm,
    bandit_feedback,
    full_feedback_process,
    resolve_competitor,
    run_game,
)
from .evaluation import ExperimentBundle, check_lemmas, realized_regret
from .feedback import FeedbackMatrix
from .learner import LearnerConfig
from .oracle import enumerate_weights


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def random_table_kernel(rng: np.random.Generator, n_experts: int) -> TableKernel:
    """Random kernel over one or two classes per expert."""
    experts = np.repeat(np.arange(n_experts), rng.integers(1, 3, size=n_experts))
    n = len(experts)
    prior = rng.dirichlet(np.ones(n))
    matrix = np.vstack([rng.dirichlet(np.ones(n)) for _ in range(n)])
    return TableKernel(experts, prior, matrix, n_experts)


# worst relative difference the oracle check accepts, and the (scale, shift)
# pairs the affine check plays
ORACLE_TOLERANCE = 1e-10
AFFINE_TRANSFORMS = ((0.5, -5.0), (3.0, 10.0))


def oracle_equivalence_suite(n_instances: int = 50, seed: int = 20240) -> CheckResult:
    """Fixed-rate class recursion versus explicit path enumeration on random
    small instances."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for i in range(n_instances):
        m = int(rng.integers(2, 4))
        horizon = int(rng.integers(4, 7))
        pick = rng.random()
        if pick < 1 / 3:
            kernel = fixed_kernel(m)
        elif pick < 2 / 3:
            kernel = fixed_share_kernel(m, float(rng.uniform(0.05, 0.5)))
        else:
            kernel = random_table_kernel(rng, m)
        phi = rng.uniform(0.0, 3.0, size=(horizon, m))
        eta = float(rng.uniform(0.2, 2.0))
        weights = init_weights(kernel)
        for t in range(horizon):
            weights = advance(weights, phi[t], eta, eta, kernel)
        recursed = expert_marginals(weights, kernel)
        enumerated = enumerate_weights(kernel, phi, eta)
        diff = float(np.max(np.abs(recursed - enumerated) / np.maximum(enumerated, 1e-12)))
        worst = max(worst, diff)
    return CheckResult(
        "oracle_weight_equivalence",
        worst <= ORACLE_TOLERANCE,
        f"{n_instances} instances, worst relative difference {worst:.3e}",
    )


def random_experiment(
    rng: np.random.Generator, horizon: int
) -> tuple[ExperimentBundle, CompetitorSequence]:
    """A random well-posed experiment whose competitor complexity equals the
    learner's budget, so every guarantee applies."""
    m = int(rng.integers(2, 9))
    if rng.random() < 0.5:
        kernel = fixed_kernel(m)
        experts = [int(rng.integers(m))] * horizon
    else:
        alpha = float(10 ** rng.uniform(-3.0, math.log10(0.3)))
        kernel = fixed_share_kernel(m, alpha)
        n_switches = int(rng.integers(0, 4))
        switch_at = np.sort(rng.choice(np.arange(1, horizon), size=n_switches, replace=False))
        experts = []
        arm = int(rng.integers(m))
        boundaries = [0, *switch_at.tolist(), horizon]
        for lo, hi in zip(boundaries, boundaries[1:]):
            experts.extend([arm] * (hi - lo))
            nxt = int(rng.integers(m - 1))
            arm = nxt if nxt < arm else nxt + 1
    competitor = CompetitorSequence.from_experts(experts, kernel)

    pick = rng.random()
    if pick < 0.4:
        feedback = bandit_feedback(m)
    elif pick < 0.55:
        feedback = full_feedback_process(m)
    else:
        rows = np.vstack([rng.dirichlet(np.ones(m)) for _ in range(m)])
        feedback = ConstantFeedback(FeedbackMatrix(rows, "strict"))

    arms = []
    for _ in range(m):
        lo = float(rng.uniform(0.0, 0.5))
        arms.append(UniformArm(lo, float(rng.uniform(lo, 1.0))))
    losses = IIDLosses(arms, (0.0, 1.0))

    w_budget = complexity(kernel, competitor)
    config = LearnerConfig(kernel=kernel, w_budget=w_budget)
    bundle = ExperimentBundle(
        learner_config=config,
        loss_process=losses,
        feedback_process=feedback,
        horizon=horizon,
        competitor=CompetitorSpec("explicit", sequence=tuple(experts)),
    )
    return bundle, competitor


def lemma_suite(
    n_configs: int = 100, horizon: int = 2000, seed: int = 31337
) -> CheckResult:
    """Randomized sweep: the four per-run inequalities must hold at every
    prefix of every run."""
    rng = np.random.default_rng(seed)
    worst_slack = math.inf
    failures = 0
    for i in range(n_configs):
        bundle, competitor = random_experiment(rng, horizon)
        transcript = run_game(
            bundle.learner_config,
            bundle.loss_process,
            bundle.feedback_process,
            horizon,
            seed=int(rng.integers(2**31)),
        )
        diagnostics = check_lemmas(transcript, competitor)
        worst_slack = min(worst_slack, min(c.slack for c in diagnostics.checks))
        if not diagnostics.all_passed:
            failures += 1
    return CheckResult(
        "deterministic_inequalities",
        failures == 0,
        f"{n_configs} runs of {horizon} rounds, {failures} failures, "
        f"worst relative slack {worst_slack:.3e}",
    )


@dataclass(frozen=True)
class AffineComparison:
    q_sup_diff: float
    selections_equal: bool
    indicators_equal: bool
    regret_scale_error: float
    normalized_regret_diff: float


def affine_pair(
    scale: float,
    shift: float,
    horizon: int = 1000,
    seed: int = 7,
    n_experts: int = 4,
) -> AffineComparison:
    """Play the same seeded bandit game on base losses and on their affine
    transform and compare behavior and regret."""
    gen_rng = np.random.default_rng(seed + 999)
    base = gen_rng.uniform(0.0, 1.0, size=(horizon, n_experts))
    kernel = fixed_kernel(n_experts)
    spec = CompetitorSpec("best_fixed")

    def play(values: np.ndarray, low: float, high: float):
        process = ScriptedLosses(values, (low, high))
        # best_fixed under the fixed kernel costs exactly 2 log M
        config = LearnerConfig(kernel=kernel, w_budget=2 * math.log(n_experts))
        transcript = run_game(config, process, bandit_feedback(n_experts), horizon, seed)
        competitor = resolve_competitor(spec, transcript.losses, kernel)
        report = realized_regret(transcript, competitor, with_diagnostics=False)
        return transcript, report

    base_t, base_r = play(base, 0.0, 1.0)
    scaled_t, scaled_r = play(scale * base + shift, shift, scale + shift)

    q_diff = float(np.max(np.abs(base_t.q - scaled_t.q)))
    selections_equal = bool(np.array_equal(base_t.selected, scaled_t.selected))
    indicators_equal = bool(np.array_equal(base_t.indicators, scaled_t.indicators))
    expected = scale * base_r.realized_regret
    denom = max(abs(expected), 1e-12)
    return AffineComparison(
        q_sup_diff=q_diff,
        selections_equal=selections_equal,
        indicators_equal=indicators_equal,
        regret_scale_error=abs(scaled_r.realized_regret - expected) / denom,
        normalized_regret_diff=abs(scaled_r.normalized_regret - base_r.normalized_regret),
    )


def affine_suite(horizon: int = 1000, seed: int = 7) -> CheckResult:
    worst_q = 0.0
    worst_scale = 0.0
    worst_norm = 0.0
    aligned = True
    for scale, shift in AFFINE_TRANSFORMS:
        cmp = affine_pair(scale, shift, horizon=horizon, seed=seed)
        worst_q = max(worst_q, cmp.q_sup_diff)
        worst_scale = max(worst_scale, cmp.regret_scale_error)
        worst_norm = max(worst_norm, cmp.normalized_regret_diff)
        aligned = aligned and cmp.selections_equal and cmp.indicators_equal
    passed = aligned and worst_q <= 1e-6 and worst_scale <= 1e-9 and worst_norm <= 1e-6
    return CheckResult(
        "affine_invariance",
        passed,
        f"sup |q| diff {worst_q:.3e}, regret scale error {worst_scale:.3e}, "
        f"normalized diff {worst_norm:.3e}, trajectories aligned: {aligned}",
    )


def run_validation_suite(
    oracle_instances: int = 25,
    lemma_configs: int = 20,
    lemma_horizon: int = 500,
    affine_horizon: int = 500,
    seed: int = 1234,
) -> list[CheckResult]:
    return [
        oracle_equivalence_suite(n_instances=oracle_instances, seed=seed),
        lemma_suite(n_configs=lemma_configs, horizon=lemma_horizon, seed=seed + 1),
        affine_suite(horizon=affine_horizon, seed=seed + 2),
    ]
