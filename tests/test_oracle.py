import math

import numpy as np
import pytest

from partialmix.classnet import advance, expert_marginals, fixed_kernel, init_weights
from partialmix.environment import bandit_feedback, full_feedback_process
from partialmix.learner import LearnerConfig
from partialmix.oracle import (
    OutcomeExplosionError,
    PathExplosionError,
    enumerate_weights,
    exact_expected_regret,
)
from partialmix.validation import oracle_equivalence_suite, random_table_kernel


class TestEnumerateWeights:
    def test_empty_history_returns_prior_marginals(self):
        kernel = fixed_kernel(3)
        np.testing.assert_allclose(
            enumerate_weights(kernel, np.zeros((0, 3)), 1.0), [1 / 3, 1 / 3, 1 / 3]
        )

    def test_single_round_hand_value(self):
        kernel = fixed_kernel(2)
        phi = np.array([[math.log(2), 0.0]])
        np.testing.assert_allclose(
            enumerate_weights(kernel, phi, 1.0), [1 / 3, 2 / 3], rtol=1e-12
        )

    def test_matches_class_recursion_on_random_instances(self):
        result = oracle_equivalence_suite(n_instances=50, seed=424242)
        assert result.passed, result.detail

    def test_matches_recursion_with_pruned_prior(self):
        rng = np.random.default_rng(0)
        kernel = random_table_kernel(rng, 3)
        phi = rng.uniform(0, 2, size=(4, 3))
        eta = 0.55
        weights = init_weights(kernel)
        for t in range(4):
            weights = advance(weights, phi[t], eta, eta, kernel)
        np.testing.assert_allclose(
            expert_marginals(weights, kernel),
            enumerate_weights(kernel, phi, eta),
            rtol=1e-10,
        )

    def test_path_explosion_guard(self):
        kernel = fixed_kernel(3)
        with pytest.raises(PathExplosionError):
            enumerate_weights(kernel, np.zeros((6, 3)), 1.0, max_paths=100)


class TestExactExpectedRegret:
    def test_equal_losses_give_zero(self):
        config = LearnerConfig(kernel=fixed_kernel(2), w_budget=1.0)
        losses = np.full((2, 2), 0.4)
        value = exact_expected_regret(config, losses, bandit_feedback(2), [0, 1])
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_one_round_forced_uniform(self):
        # epsilon 1 forces q = (1/2, 1/2); losses (0, 1), competitor arm 0:
        # E[R] = 0.5
        config = LearnerConfig(
            kernel=fixed_kernel(2), gamma=1.0, epsilon=1.0
        )
        losses = np.array([[0.0, 1.0]])
        value = exact_expected_regret(config, losses, bandit_feedback(2), [0])
        assert value == pytest.approx(0.5, abs=1e-12)

    def test_full_feedback_two_rounds_by_hand(self):
        # with full feedback the indicator tree is deterministic, so the
        # expectation reduces to summing over selection pairs
        config = LearnerConfig(
            kernel=fixed_kernel(2), gamma=1.0, epsilon=0.5
        )
        losses = np.array([[0.2, 0.9], [0.1, 0.8]])
        from partialmix.learner import finish_round, init_state, prepare_round

        matrix = full_feedback_process(2).matrix_at(1)
        expected = 0.0
        state0 = init_state(config)
        ctx1 = prepare_round(state0, config, matrix)
        for i in range(2):
            _, _, state1 = finish_round(state0, config, ctx1, np.arange(2), losses[0])
            ctx2 = prepare_round(state1, config, matrix)
            for j in range(2):
                expected += ctx1.q[i] * ctx2.q[j] * (losses[0, i] + losses[1, j])
        expected -= losses[:, 0].sum()
        value = exact_expected_regret(config, losses, full_feedback_process(2), [0, 0])
        assert value == pytest.approx(expected, rel=1e-12)

    def test_probabilities_sum_to_one_without_competitor_loss(self):
        # competitor equal to the pointwise argmin gives regret >= 0
        config = LearnerConfig(kernel=fixed_kernel(2), w_budget=1.0)
        losses = np.array([[0.3, 0.6], [0.8, 0.2]])
        value = exact_expected_regret(config, losses, bandit_feedback(2), [0, 1])
        assert value >= 0.0

    def test_outcome_explosion_guard(self):
        config = LearnerConfig(kernel=fixed_kernel(3), w_budget=1.0)
        losses = np.random.default_rng(1).uniform(size=(3, 3))
        with pytest.raises(OutcomeExplosionError):
            exact_expected_regret(
                config,
                losses,
                bandit_feedback(3),
                [0, 0, 0],
                max_outcomes=10,
            )
