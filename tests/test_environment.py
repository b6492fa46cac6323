import itertools
import math

import numpy as np
import pytest

from partialmix.classnet import fixed_kernel, fixed_share_kernel
from partialmix.environment import (
    BernoulliArm,
    CompetitorSpec,
    ConstantFeedback,
    EnvironmentError_,
    IIDLosses,
    PiecewiseLosses,
    ScriptedFeedback,
    ScriptedLosses,
    UniformArm,
    bandit_feedback,
    best_competitor,
    full_feedback_process,
    resolve_competitor,
    run_game,
)
from partialmix.feedback import FeedbackMatrix, identity_feedback
from partialmix.learner import LearnerConfig


def bandit_config(m, w=2.0, **kwargs):
    return LearnerConfig(n_experts=m, kernel=fixed_kernel(m), w_budget=w, **kwargs)


class TestLossProcesses:
    def test_scripted_range_enforced(self):
        with pytest.raises(EnvironmentError_, match="range"):
            ScriptedLosses(np.array([[0.5, 1.5]]), (0.0, 1.0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_scripted_non_finite_rejected(self, bad):
        with pytest.raises(EnvironmentError_, match="must be finite"):
            ScriptedLosses(np.array([[0.5, bad]]), (0.0, 1.0))

    def test_scripted_prefix(self):
        process = ScriptedLosses(np.arange(8.0).reshape(4, 2) / 10, (0.0, 1.0))
        out = process.generate(3, np.random.default_rng(0))
        assert out.shape == (3, 2)
        with pytest.raises(EnvironmentError_):
            process.generate(5, np.random.default_rng(0))

    def test_iid_within_range(self):
        process = IIDLosses(
            [UniformArm(0.1, 0.4), BernoulliArm(0.3)], (0.0, 1.0)
        )
        out = process.generate(500, np.random.default_rng(1))
        assert out.shape == (500, 2)
        assert out.min() >= 0.0 and out.max() <= 1.0
        assert set(np.unique(out[:, 1])) <= {0.0, 1.0}

    def test_iid_support_must_fit_range(self):
        with pytest.raises(EnvironmentError_):
            IIDLosses([UniformArm(-0.2, 0.5)], (0.0, 1.0))

    def test_piecewise_gap_and_range(self):
        process = PiecewiseLosses(3, (2.0, 4.0), [0, 2], [0.5], gap=0.5)
        out = process.generate(4000, np.random.default_rng(2))
        assert out.min() >= 2.0 and out.max() <= 4.0
        first, second = out[:2000], out[2000:]
        # designed favorite sits one gap below the others in the mean
        assert first[:, 0].mean() == pytest.approx(first[:, 1].mean() - 0.5, abs=0.05)
        assert second[:, 2].mean() == pytest.approx(second[:, 0].mean() - 0.5, abs=0.05)

    def test_piecewise_default_gap(self):
        process = PiecewiseLosses(2, (0.0, 10.0), [0, 1], [0.5])
        assert process.gap == pytest.approx(2.0)

    def test_piecewise_best_arm_path(self):
        process = PiecewiseLosses(3, (0.0, 1.0), [1, 0, 2], [1 / 3, 2 / 3])
        path = process.best_arm_path(9)
        np.testing.assert_array_equal(path, [1, 1, 1, 0, 0, 0, 2, 2, 2])


class TestFeedbackProcesses:
    def test_constant_validates(self):
        with pytest.raises(Exception):
            ConstantFeedback(FeedbackMatrix(np.array([[0.4, 0.4], [0.5, 0.5]])))

    def test_scripted_needs_cover(self):
        process = ScriptedFeedback([identity_feedback(2)] * 3)
        process.check_horizon(3)
        with pytest.raises(EnvironmentError_):
            process.check_horizon(4)

    def test_full_process(self):
        matrix = full_feedback_process(3).matrix_at(1)
        assert matrix.mode == "full"
        assert np.all(matrix.entries == 1.0)


class TestRunGame:
    def test_deterministic_per_seed(self):
        config = bandit_config(3)
        losses = IIDLosses([UniformArm(0, 1)] * 3, (0.0, 1.0))
        a = run_game(config, losses, bandit_feedback(3), 100, seed=4)
        b = run_game(config, losses, bandit_feedback(3), 100, seed=4)
        assert a.cumulative_loss == b.cumulative_loss
        np.testing.assert_array_equal(a.selections, b.selections)
        np.testing.assert_array_equal(a.losses, b.losses)

    def test_equal_losses_zero_regret(self):
        config = bandit_config(2, w=1.0)
        process = ScriptedLosses(np.full((40, 2), 0.3), (0.0, 1.0))
        transcript = run_game(config, process, bandit_feedback(2), 40, seed=5)
        competitor_loss = 40 * 0.3
        assert transcript.cumulative_loss - competitor_loss == pytest.approx(0.0, abs=1e-12)

    def test_single_expert_cumulative(self):
        config = bandit_config(1, w=1.0)
        values = np.random.default_rng(6).uniform(size=(30, 1))
        transcript = run_game(
            config, ScriptedLosses(values, (0.0, 1.0)), bandit_feedback(1), 30, seed=7
        )
        assert transcript.cumulative_loss == pytest.approx(values.sum())

    def test_cumulative_matches_records(self):
        config = bandit_config(3)
        losses = IIDLosses([UniformArm(0, 1)] * 3, (0.0, 1.0))
        transcript = run_game(config, losses, bandit_feedback(3), 200, seed=8)
        assert transcript.cumulative_loss == pytest.approx(
            sum(r.selected_loss for r in transcript.records), abs=1e-9
        )
        # selected_loss always filled from the true loss row
        for record in transcript.records:
            assert record.selected_loss == transcript.losses[record.t - 1, record.selected]

    def test_scripted_feedback_game(self):
        rng = np.random.default_rng(12)
        config = bandit_config(2, w=1.0)
        matrices = [identity_feedback(2)] + [
            FeedbackMatrix(np.vstack([rng.dirichlet(np.ones(2)) for _ in range(2)]))
            for _ in range(9)
        ]
        losses = IIDLosses([UniformArm(0, 1)] * 2, (0.0, 1.0))
        transcript = run_game(config, losses, ScriptedFeedback(matrices), 10, seed=13)
        assert transcript.horizon == 10
        # round 1 is bandit feedback: exactly the selected arm is revealed
        first = transcript.records[0]
        assert first.outcome.indicators[first.selected] == 1
        assert first.outcome.indicators.sum() == 1

    def test_dimension_mismatch_rejected(self):
        config = bandit_config(3)
        losses = IIDLosses([UniformArm(0, 1)] * 2, (0.0, 1.0))
        with pytest.raises(EnvironmentError_, match="loss process"):
            run_game(config, losses, bandit_feedback(3), 10, seed=0)
        with pytest.raises(EnvironmentError_, match="feedback process"):
            run_game(
                config, IIDLosses([UniformArm(0, 1)] * 3, (0.0, 1.0)),
                bandit_feedback(2), 10, seed=0,
            )


class TestBestCompetitor:
    def test_dominant_column(self):
        losses = np.column_stack([np.full(10, 0.1), np.full(10, 0.9)])
        seq = best_competitor(losses, fixed_kernel(2), 0)
        np.testing.assert_array_equal(seq.experts, 0)

    def test_unconstrained_is_pointwise_argmin(self):
        rng = np.random.default_rng(9)
        losses = rng.uniform(size=(30, 4))
        seq = best_competitor(losses, fixed_share_kernel(4, 0.1), 29)
        np.testing.assert_array_equal(seq.experts, losses.argmin(axis=1))

    def test_matches_exhaustive_enumeration(self):
        rng = np.random.default_rng(10)
        for trial in range(25):
            horizon = int(rng.integers(3, 7))
            m = 2 if trial % 2 == 0 else 3
            k = int(rng.integers(0, 3))
            losses = rng.uniform(size=(horizon, m))
            kernel = fixed_share_kernel(m, 0.2)
            got = best_competitor(losses, kernel, k)
            best_value = math.inf
            for seq in itertools.product(range(m), repeat=horizon):
                switches = sum(a != b for a, b in zip(seq, seq[1:]))
                if switches > k:
                    continue
                value = sum(losses[t, arm] for t, arm in enumerate(seq))
                best_value = min(best_value, value)
            got_value = losses[np.arange(horizon), got.experts].sum()
            assert got_value == pytest.approx(best_value, abs=1e-12)
            assert got.n_switches <= k

    def test_loss_nonincreasing_in_switch_budget(self):
        rng = np.random.default_rng(11)
        losses = rng.uniform(size=(50, 3))
        kernel = fixed_share_kernel(3, 0.1)
        values = []
        for k in range(6):
            seq = best_competitor(losses, kernel, k)
            values.append(losses[np.arange(50), seq.experts].sum())
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))


class TestCompetitorSpec:
    def test_resolve_kinds(self):
        losses = np.array([[0.9, 0.1], [0.1, 0.9], [0.05, 0.9]])
        kernel = fixed_share_kernel(2, 0.3)
        fixed = resolve_competitor(CompetitorSpec("fixed", expert=1), losses, kernel)
        np.testing.assert_array_equal(fixed.experts, 1)
        best = resolve_competitor(CompetitorSpec("best_fixed"), losses, kernel)
        np.testing.assert_array_equal(best.experts, 0)
        switchy = resolve_competitor(
            CompetitorSpec("best_k_switch", switches=1), losses, kernel
        )
        np.testing.assert_array_equal(switchy.experts, [1, 0, 0])
        explicit = resolve_competitor(
            CompetitorSpec("explicit", sequence=(0, 1, 0)), losses, kernel
        )
        np.testing.assert_array_equal(explicit.experts, [0, 1, 0])

    def test_spec_validation(self):
        with pytest.raises(EnvironmentError_):
            CompetitorSpec("fixed")
        with pytest.raises(EnvironmentError_):
            CompetitorSpec("best_k_switch")
        with pytest.raises(EnvironmentError_):
            CompetitorSpec("nope")

    def test_explicit_length_checked(self):
        kernel = fixed_kernel(2)
        with pytest.raises(EnvironmentError_, match="rounds"):
            resolve_competitor(
                CompetitorSpec("explicit", sequence=(0, 1)), np.zeros((3, 2)), kernel
            )
