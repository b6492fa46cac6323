import dataclasses
import math

import numpy as np
import pytest

from partialmix import learner
from partialmix.classnet import TableKernel, fixed_kernel, fixed_share_kernel
from partialmix.environment import ScriptedLosses, full_feedback_process, run_game
from partialmix.feedback import FeedbackMatrix, full_feedback, identity_feedback
from partialmix.learner import (
    LearnerConfig,
    LearnerState,
    ZeroObservationProbabilityError,
    epsilon_schedule,
    estimate,
    init_state,
    prepare_round,
    select,
    step,
    update_rate,
)


def bandit_config(m=2, w=1.0, **kwargs):
    return LearnerConfig(kernel=fixed_kernel(m), w_budget=w, **kwargs)


def play(config, matrix, losses, seed=0):
    """Drive the learner directly over a scripted loss matrix; one
    ``(ctx, selected, indicators, phi, rate, state)`` tuple per round."""
    rng = np.random.default_rng(seed)
    state = init_state(config)
    rounds = []
    for t in range(losses.shape[0]):
        row = losses[t]
        result = step(state, config, matrix, lambda m: row[m], rng)
        state = result[-1]
        rounds.append(result)
    return rounds, state


class TestEpsilonSchedule:
    def test_clamp_boundary(self):
        assert epsilon_schedule(8, 1.0, 8) == pytest.approx(1.0, abs=1e-12)

    def test_cube_root_decay(self):
        assert epsilon_schedule(1, 1.0, 1000) == pytest.approx(0.1, abs=1e-12)

    def test_clamped_at_one(self):
        assert epsilon_schedule(1, 1.0, 1) == 1.0

    def test_nonincreasing(self):
        values = [epsilon_schedule(4, 7.0, t) for t in range(1, 500)]
        assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))


class TestPolicy:
    def test_full_mixing_is_uniform(self):
        kernel = TableKernel(np.arange(2), np.array([0.9, 0.1]), np.eye(2), 2)
        config = LearnerConfig(kernel=kernel, gamma=1.0, epsilon=1.0)
        q = prepare_round(init_state(config), config, identity_feedback(2)).q
        np.testing.assert_allclose(q, [0.5, 0.5])

    def test_no_mixing_returns_marginals(self):
        kernel = TableKernel(np.arange(2), np.array([0.9, 0.1]), np.eye(2), 2)
        config = LearnerConfig(kernel=kernel, gamma=1.0, epsilon=0.0)
        q = prepare_round(init_state(config), config, identity_feedback(2)).q
        np.testing.assert_allclose(q, [0.9, 0.1], rtol=1e-12)

    def test_hand_mixture(self):
        kernel = TableKernel(np.arange(2), np.array([0.9, 0.1]), np.eye(2), 2)
        config = LearnerConfig(kernel=kernel, gamma=1.0, epsilon=0.5)
        q = prepare_round(init_state(config), config, identity_feedback(2)).q
        np.testing.assert_allclose(q, [0.7, 0.3], rtol=1e-12)

    def test_floor_holds_for_every_round(self):
        config = bandit_config(4, w=2.0)
        state = init_state(config)
        for t in (1, 10, 100, 10_000):
            object.__setattr__(state, "t", t)
            q = prepare_round(state, config, identity_feedback(4)).q
            assert np.all(q >= config.epsilon_at(t) / 4)


class TestSelect:
    def test_degenerate(self):
        rng = np.random.default_rng(0)
        assert all(select(np.array([1.0, 0.0, 0.0]), rng) == 0 for _ in range(50))

    def test_uniform_frequencies(self):
        rng = np.random.default_rng(1)
        m, n = 4, 10**5
        counts = np.bincount(
            [select(np.full(m, 0.25), rng) for _ in range(n)], minlength=m
        )
        four_se = 4 * math.sqrt(0.25 * 0.75 / n)
        np.testing.assert_allclose(counts / n, 0.25, atol=four_se)

    def test_deterministic_given_seed(self):
        q = np.array([0.3, 0.4, 0.3])
        a = [select(q, np.random.default_rng(5)) for _ in range(10)]
        b = [select(q, np.random.default_rng(5)) for _ in range(10)]
        assert a == b


class TestEstimate:
    def test_unobserved_is_zero(self):
        phi = estimate(np.array([0, 1]), np.array([0.7]), np.array([0.5, 0.5]), 0.7)
        assert phi[0] == 0.0

    def test_minimum_attains_zero(self):
        phi = estimate(np.array([1, 0]), np.array([0.4]), np.array([0.8, 0.2]), 0.4)
        np.testing.assert_allclose(phi, [0.0, 0.0])

    def test_hand_value(self):
        phi = estimate(np.array([1, 0]), np.array([0.8]), np.array([0.5, 0.5]), 0.2)
        assert phi[0] == pytest.approx(1.2, rel=1e-12)

    def test_revealed_must_match_indicators(self):
        with pytest.raises(ValueError):
            estimate(np.array([1, 1]), np.array([0.3]), np.array([0.5, 0.5]), 0.1)

    def test_zero_observation_probability(self):
        with pytest.raises(ZeroObservationProbabilityError):
            estimate(np.array([1, 0]), np.array([0.8]), np.array([0.0, 1.0]), 0.2)


class TestUpdateRate:
    def test_all_zero_phi_keeps_rate_unset(self):
        config = bandit_config(2)
        rate = update_rate(init_state(config), np.zeros(2), np.array([0.5, 0.5]), config)
        assert rate.eta is None and rate.V == 0.0 and rate.D == 0.0

    def test_hand_statistics(self):
        config = bandit_config(2, w=1.0, gamma=1.0)
        rate = update_rate(
            init_state(config), np.array([2.0, 0.0]), np.array([0.5, 0.5]), config
        )
        assert rate.v == pytest.approx(2.0) and rate.d == pytest.approx(2.0)
        assert rate.eta == pytest.approx(1.0 / math.sqrt(6.0), rel=1e-12)

    def test_rate_formula(self):
        config = bandit_config(2, gamma=1.0)
        state = LearnerState(
            t=5, psi=0.1, V=3.0, D=1.0, eta_prev=0.9,
            weights=init_state(config).weights,
        )
        rate = update_rate(state, np.zeros(2), np.array([0.5, 0.5]), config)
        assert rate.eta == pytest.approx(0.5, rel=1e-12)

    def test_fixed_eta_short_circuits(self):
        config = bandit_config(2, fixed_eta=0.123)
        rate = update_rate(
            init_state(config), np.array([1.0, 0.0]), np.array([0.5, 0.5]), config
        )
        assert rate.eta == 0.123


class TestStep:
    def test_single_expert_forced(self):
        config = bandit_config(1)
        losses = np.random.default_rng(2).uniform(size=(50, 1))
        rounds, _ = play(config, identity_feedback(1), losses)
        selections = [selected for _, selected, *_ in rounds]
        assert selections == [0] * 50
        assert losses[np.arange(50), selections].sum() == pytest.approx(losses.sum())

    def test_bitwise_deterministic(self):
        config = bandit_config(3, w=2.0)
        losses = np.random.default_rng(3).uniform(size=(80, 3))
        first, _ = play(config, identity_feedback(3), losses, seed=9)
        second, _ = play(config, identity_feedback(3), losses, seed=9)
        for a, b in zip(first, second):
            ctx_a, sel_a, ind_a, _, rate_a, state_a = a
            ctx_b, sel_b, ind_b, _, rate_b, state_b = b
            assert sel_a == sel_b
            assert np.array_equal(ctx_a.q, ctx_b.q)
            assert np.array_equal(ind_a, ind_b)
            assert state_a.psi == state_b.psi and rate_a.eta == rate_b.eta and rate_a.v == rate_b.v

    def test_monotone_state_invariants(self):
        rng = np.random.default_rng(4)
        config = LearnerConfig(kernel=fixed_share_kernel(3, 0.05), w_budget=8.0)
        matrix = FeedbackMatrix(np.vstack([rng.dirichlet(np.ones(3)) for _ in range(3)]))
        losses = rng.uniform(size=(300, 3))
        rounds, _ = play(config, matrix, losses, seed=11)
        psi = [state.psi for *_, state in rounds]
        assert all(b <= a for a, b in zip(psi, psi[1:]))
        etas = [rate.eta for *_, rate, _ in rounds if rate.eta is not None]
        assert all(b <= a + 1e-15 for a, b in zip(etas, etas[1:]))
        V = [rate.V for *_, rate, _ in rounds]
        D = [rate.D for *_, rate, _ in rounds]
        assert all(b >= a for a, b in zip(V, V[1:]))
        assert all(b >= a for a, b in zip(D, D[1:]))

    def test_phi_nonnegative_and_zero_when_unobserved(self):
        rng = np.random.default_rng(5)
        config = bandit_config(4, w=3.0)
        matrix = FeedbackMatrix(np.vstack([rng.dirichlet(np.ones(4)) for _ in range(4)]))
        losses = rng.uniform(size=(200, 4))
        rounds, _ = play(config, matrix, losses, seed=12)
        for _, _, indicators, phi, _, _ in rounds:
            assert np.all(phi >= 0.0)
            assert np.all(phi[indicators == 0] == 0.0)

    def test_observation_floor_every_round(self):
        rng = np.random.default_rng(6)
        config = bandit_config(5, w=4.0)
        matrix = FeedbackMatrix(np.vstack([rng.dirichlet(np.ones(5)) for _ in range(5)]))
        losses = rng.uniform(size=(200, 5))
        rounds, _ = play(config, matrix, losses, seed=13)
        for ctx, *_ in rounds:
            assert np.all(ctx.o >= ctx.epsilon / 5 * (1 - 1e-12))
            assert np.all(ctx.q >= ctx.epsilon / 5)

    def test_learner_queries_only_revealed_losses(self):
        rng = np.random.default_rng(7)
        config = bandit_config(3, w=2.0)
        matrix = FeedbackMatrix(np.vstack([rng.dirichlet(np.ones(3)) for _ in range(3)]))
        losses = rng.uniform(size=(100, 3))
        play_rng = np.random.default_rng(14)
        state = init_state(config)
        total_queried = 0
        total_observed = 0
        for t in range(100):
            queried = []
            row = losses[t]

            def oracle(m):
                queried.append(m)
                return row[m]

            _, _, indicators, _, _, state = step(state, config, matrix, oracle, play_rng)
            revealed = set(int(i) for i in np.flatnonzero(indicators))
            assert set(queried) == revealed
            assert len(queried) == len(revealed)
            total_queried += len(queried)
            total_observed += int(indicators.sum())
        assert total_queried == total_observed

    def test_observation_floor_violation_aborts(self):
        # an unvalidated deficient scheme trips the runtime floor check
        matrix = FeedbackMatrix(np.array([[0.1, 0.0], [0.0, 0.1]]), "strict")
        config = bandit_config(2, w=1.0)
        with pytest.raises(RuntimeError, match=r"^observation probability 0\.05 fell below the floor"):
            play(config, matrix, np.full((3, 2), 0.5))

    @pytest.mark.parametrize(
        "entries",
        [
            [[math.nan, 0.0], [0.0, 0.1]],  # a NaN next to an entry below the floor
            [[0.1, 0.0], [0.0, math.nan]],
            [[math.nan, math.nan], [math.nan, math.nan]],  # all NaN
        ],
    )
    def test_nan_observation_probability_trips_the_floor_check(self, entries):
        config = bandit_config(2, w=1.0)
        message = r"^observation probability [01] is NaN at round 1, so the floor 0\.5 cannot hold"
        with pytest.raises(RuntimeError, match=message):
            prepare_round(init_state(config), config, FeedbackMatrix(np.array(entries), "strict"))

    def test_advance_sees_one_rate_pair_per_round(self, monkeypatch):
        # round 1's equal losses leave every estimate at zero, so the rate
        # stays unset; rounds 2 and 3 are informative
        recorded = []
        original = learner.advance

        def record(log_w, phi, eta_prev, eta_new, kernel):
            recorded.append((eta_prev, eta_new))
            return original(log_w, phi, eta_prev, eta_new, kernel)

        monkeypatch.setattr(learner, "advance", record)
        values = np.array([[0.5, 0.5], [0.2, 0.7], [0.9, 0.1]])
        transcript = run_game(
            bandit_config(2, w=4.0), ScriptedLosses(values, (0.0, 1.0)),
            full_feedback_process(2), 3, seed=0,
        )
        eta = transcript.eta
        assert np.isnan(eta[0]) and eta[1] > eta[2] > 0.0
        assert recorded == [(1.0, 1.0), (eta[1], eta[1]), (eta[1], eta[2])]

    def test_full_feedback_fixed_eta_matches_exponential_weights(self):
        # with everything revealed, o = 1 and the identity-kernel marginals
        # collapse to a softmax of -eta * cumulative losses (the psi
        # translation is common to all experts and cancels)
        rng = np.random.default_rng(16)
        m, horizon, eta = 3, 40, 0.7
        config = LearnerConfig(
            kernel=fixed_kernel(m), gamma=1.0, epsilon=0.0, fixed_eta=eta
        )
        losses = rng.uniform(size=(horizon, m))
        rounds, state = play(config, full_feedback(m), losses, seed=17)
        from partialmix.classnet import expert_marginals

        got = expert_marginals(state.weights, config.kernel)
        scores = -eta * losses.sum(axis=0)
        expected = np.exp(scores - scores.max())
        expected /= expected.sum()
        np.testing.assert_allclose(got, expected, rtol=1e-10)

        # and the path-enumeration oracle agrees on the recorded estimates
        from partialmix.oracle import enumerate_weights

        phi_history = np.stack([phi for _, _, _, phi, _, _ in rounds[:6]])
        short, _ = play(config, full_feedback(m), losses[:6], seed=17)
        np.testing.assert_allclose(
            np.stack([phi for _, _, _, phi, _, _ in short]), phi_history, atol=1e-12
        )
        state6 = play(config, full_feedback(m), losses[:6], seed=17)[1]
        np.testing.assert_allclose(
            expert_marginals(state6.weights, config.kernel),
            enumerate_weights(config.kernel, phi_history, eta),
            rtol=1e-10,
        )


class TestLearnerConfig:
    def test_gamma_defaults_to_sqrt_budget(self):
        assert bandit_config(2, w=9.0).gamma == 3.0
        assert bandit_config(2, w=9.0, gamma=0.5).gamma == 0.5

    def test_expert_count_comes_from_the_kernel(self):
        assert LearnerConfig(kernel=fixed_kernel(3), w_budget=1.0).n_experts == 3
        init = [f.name for f in dataclasses.fields(LearnerConfig) if f.init]
        assert init == ["kernel", "w_budget", "gamma", "epsilon", "fixed_eta"]
        # a stated count is only checked against the kernel, never stored
        config = LearnerConfig(n_experts=2.0, kernel=fixed_kernel(2), w_budget=1.0)
        assert type(config.n_experts) is int and config.n_experts == 2
        with pytest.raises(ValueError, match="kernel covers 1 experts, config says True"):
            LearnerConfig(n_experts=True, kernel=fixed_kernel(1), w_budget=1.0)

    def test_requires_budget_or_gamma(self):
        with pytest.raises(ValueError):
            LearnerConfig(kernel=fixed_kernel(2))

    def test_schedule_override_must_be_nonincreasing(self):
        with pytest.raises(ValueError, match="non-increasing"):
            LearnerConfig(
                kernel=fixed_kernel(2), gamma=1.0, epsilon=[0.2, 0.5]
            )

    def test_schedule_override_lookup(self):
        config = LearnerConfig(
            kernel=fixed_kernel(2), gamma=1.0, epsilon=[0.8, 0.4, 0.2]
        )
        assert config.epsilon_at(2) == 0.4
        with pytest.raises(ValueError):
            config.epsilon_at(4)

    def test_kernel_size_mismatch(self):
        with pytest.raises(ValueError, match="kernel covers"):
            LearnerConfig(n_experts=3, kernel=fixed_kernel(2), w_budget=1.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"w_budget": True},
            {"w_budget": np.True_},
            {"w_budget": math.nan},
            {"w_budget": math.inf},
            {"w_budget": 10**400},
            {"w_budget": "2.0"},
            {"gamma": True},
            {"gamma": math.nan},
            {"gamma": math.inf},
            {"fixed_eta": True},
            {"fixed_eta": math.nan},
            {"fixed_eta": math.inf},
            {"epsilon": True},
            {"epsilon": False},
            {"epsilon": math.nan},
            {"epsilon": [0.5, True]},
            {"epsilon": [1.0, math.nan]},
            {"epsilon": (False,)},
        ],
    )
    def test_booleans_and_non_finite_values_rejected(self, kwargs):
        params = {"kernel": fixed_kernel(2), "gamma": 1.0, "w_budget": 1.0}
        with pytest.raises(ValueError):
            LearnerConfig(**{**params, **kwargs})

    def test_numbers_are_stored_as_floats(self):
        config = LearnerConfig(
            kernel=fixed_kernel(2), w_budget=2, gamma=np.float32(0.5),
            fixed_eta=3, epsilon=np.array([1, 0.5]),
        )
        assert (config.w_budget, config.gamma, config.fixed_eta) == (2.0, 0.5, 3.0)
        assert all(type(v) is float for v in (config.w_budget, config.gamma, config.fixed_eta))
        assert config.epsilon == (1.0, 0.5)
        assert LearnerConfig(kernel=fixed_kernel(2), w_budget=1, epsilon=1).epsilon == 1.0
