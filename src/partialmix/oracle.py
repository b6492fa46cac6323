"""Brute-force reference computations for tiny instances.

``enumerate_weights`` sums explicit class-path weights in the linear
domain, validating the log-domain class recursion at a fixed learning
rate (with adaptive rates the power of a sum is not the sum of powers, so
path weights are only defined at class granularity). ``exact_expected_regret``
walks the full selection-times-indicator outcome tree, validating the
Monte-Carlo estimate. Both are wired into the CLI ``validate`` subcommand
so the equivalences are reproducible without a test framework.
"""

from __future__ import annotations

import math
from itertools import product

import numpy as np

from .classnet import TableKernel
from .environment import FeedbackProcess
from .learner import LearnerConfig, finish_round, init_state, prepare_round


class PathExplosionError(ValueError):
    """The class-path product space exceeds the enumeration guard."""


class OutcomeExplosionError(ValueError):
    """The selection/observation outcome tree exceeds the enumeration guard."""


def enumerate_weights(
    kernel: TableKernel,
    phi_history: np.ndarray,
    eta: float,
    max_paths: int = 10**6,
) -> np.ndarray:
    """Expert marginals after the given estimate history at a fixed rate,
    by explicit path enumeration.

    Sums, over every class path lambda_1..lambda_{T+1}, the product of its
    prior weight and ``exp(-eta * sum_t phi[t, expert(lambda_t)])``, then
    marginalizes the round-``T+1`` class to its expert. ``phi_history`` has
    shape (T, M); T = 0 returns the initial prior marginals.
    """
    phi_history = np.asarray(phi_history, dtype=float)
    if phi_history.ndim != 2:
        raise ValueError("phi history must have shape (T, M)")
    horizon = phi_history.shape[0]
    if eta <= 0.0:
        raise ValueError("the fixed rate must be positive")
    n_classes = len(kernel.experts)
    n_paths = n_classes ** (horizon + 1)
    if n_paths > max_paths:
        raise PathExplosionError(f"{n_paths} class paths exceed the limit {max_paths}")
    prior = kernel.prior.tolist()
    matrix = kernel.matrix.tolist()
    experts = kernel.experts.tolist()
    phi = phi_history.tolist()
    marginals = np.zeros(kernel.n_experts)
    for path in product(range(n_classes), repeat=horizon + 1):
        weight = prior[path[0]]
        if weight == 0.0:
            continue
        for t in range(1, horizon + 1):
            weight *= matrix[path[t - 1]][path[t]]
            if weight == 0.0:
                break
        if weight == 0.0:
            continue
        exponent = 0.0
        for t in range(horizon):
            exponent += phi[t][experts[path[t]]]
        marginals[experts[path[horizon]]] += weight * math.exp(-eta * exponent)
    total = marginals.sum()
    if total <= 0.0:
        raise ValueError("all enumerated paths carry zero weight")
    return marginals / total


def exact_expected_regret(
    config: LearnerConfig,
    losses: np.ndarray,
    feedback_process: FeedbackProcess,
    competitor_experts: np.ndarray | list[int],
    max_outcomes: int = 10**6,
) -> float:
    """Exact expected realized regret on a tiny scripted instance.

    Enumerates every (selection, observation-indicator) combination with
    its probability, advancing the learner deterministically along each
    branch; the losses are fixed, so the expectation is over the learner's
    randomness only.
    """
    losses = np.asarray(losses, dtype=float)
    horizon, m = losses.shape
    competitor_experts = np.asarray(competitor_experts, dtype=int)
    if competitor_experts.shape != (horizon,):
        raise ValueError("competitor must cover exactly the scripted horizon")
    visited = 0

    def recurse(state, t: int, probability: float, learner_loss: float) -> float:
        nonlocal visited
        if t > horizon:
            return probability * learner_loss
        ctx = prepare_round(state, config, feedback_process.matrix_at(t))
        row = losses[t - 1]
        total = 0.0
        for i in range(m):
            q_i = float(ctx.q[i])
            if q_i == 0.0:
                continue
            column = feedback_process.matrix_at(t).entries[:, i]
            for pattern in product((0, 1), repeat=m):
                branch = q_i
                for mm, bit in enumerate(pattern):
                    branch *= column[mm] if bit else 1.0 - column[mm]
                    if branch == 0.0:
                        break
                if branch == 0.0:
                    continue
                visited += 1
                if visited > max_outcomes:
                    raise OutcomeExplosionError(f"outcome tree exceeds the limit {max_outcomes}")
                observed = np.flatnonzero(pattern)
                next_state = finish_round(state, config, ctx, observed, row[observed])[2]
                total += recurse(
                    next_state, t + 1, probability * branch, learner_loss + row[i]
                )
        return total

    expected_loss = recurse(init_state(config), 1, 1.0, 0.0)
    competitor_loss = float(losses[np.arange(horizon), competitor_experts].sum())
    return expected_loss - competitor_loss
