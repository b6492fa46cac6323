import itertools
import math
import re

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
    _float_dp_is_faster,
    bandit_feedback,
    best_competitor,
    full_feedback_process,
    resolve_competitor,
    run_game,
)
from partialmix.feedback import FeedbackMatrix, identity_feedback
from partialmix.learner import LearnerConfig


def bandit_config(m, w=2.0, **kwargs):
    return LearnerConfig(kernel=fixed_kernel(m), w_budget=w, **kwargs)


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

    @pytest.mark.parametrize(
        "make",
        [
            lambda r: ScriptedLosses(np.array([[1.0, 1.5]]), r),
            lambda r: IIDLosses([BernoulliArm(0.5)], r),
            lambda r: PiecewiseLosses(2, r, [0], []),
        ],
    )
    @pytest.mark.parametrize("loss_range", [(1.0, 1.0), (2, 1)])
    def test_range_needs_low_below_high(self, make, loss_range):
        low, high = float(loss_range[0]), float(loss_range[1])
        message = f"loss range [{low}, {high}] must have low < high"
        with pytest.raises(EnvironmentError_, match=re.escape(message)):
            make(loss_range)

    def test_size_and_range_are_attributes(self):
        processes = [
            ScriptedLosses(np.full((2, 3), 0.5), (0, 1)),
            IIDLosses([BernoulliArm(0.5)] * 3, (0, 1)),
            PiecewiseLosses(3, (0, 1), [0], []),
        ]
        for process in processes:
            assert process.n_experts == 3
            assert process.loss_range == (0.0, 1.0)
            assert all(type(v) is float for v in process.loss_range)
        assert ConstantFeedback(identity_feedback(3)).n_experts == 3
        assert ScriptedFeedback([identity_feedback(3)] * 2).n_experts == 3

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
        np.testing.assert_array_equal(a.selected, b.selected)
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
            sum(transcript.selected_loss), abs=1e-9
        )
        # selected_loss always filled from the true loss row
        for t in range(200):
            assert transcript.selected_loss[t] == transcript.losses[t, transcript.selected[t]]

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
        first = transcript.indicators[0]
        assert first[transcript.selected[0]] == 1
        assert first.sum() == 1

    def test_reading_an_unrevealed_loss_aborts_the_game(self, monkeypatch):
        from partialmix import environment

        real_step = environment.step

        def peeking_step(state, config, matrix, loss_oracle, rng):
            result = real_step(state, config, matrix, loss_oracle, rng)
            if state.t == 3:
                indicators = result[2]
                loss_oracle(int(np.flatnonzero(indicators == 0)[0]))
            return result

        monkeypatch.setattr(environment, "step", peeking_step)
        losses = IIDLosses([UniformArm(0, 1)] * 3, (0.0, 1.0))
        with pytest.raises(RuntimeError, match="unrevealed loss at round 3"):
            run_game(bandit_config(3), losses, bandit_feedback(3), 5, seed=0)

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


def reference_best_path(losses, max_switches):
    """The k-switch DP as it stood before its float and array forms: one
    numpy call per (round, budget) step. Kept here as the differential
    reference; both forms must return its path exactly."""
    horizon, m = losses.shape
    k = min(max_switches, horizon - 1)
    cost = np.tile(losses[0], (k + 1, 1))
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
    return path


def first_array_m(k):
    """The smallest expert count at which the DP takes its array form."""
    return next(m for m in range(1, 256) if not _float_dp_is_faster(m, k))


# wide fixed cases, on both sides of M = 48
BELOW, AT = 47, 48


class TestBestCompetitorDifferential:
    """Both forms of the DP against the reference, on continuous losses and
    on small integers, where equal totals are common and the tie rules
    (lowest arm, then smallest budget) decide the path."""

    @staticmethod
    def losses(kind, horizon, m, seed):
        rng = np.random.default_rng(seed)
        if kind == "continuous":
            return rng.uniform(size=(horizon, m))
        return rng.integers(0, 3, size=(horizon, m)).astype(float)

    def check(self, losses, k):
        got = best_competitor(losses, fixed_kernel(losses.shape[1]), k)
        np.testing.assert_array_equal(got.experts, reference_best_path(losses, k))

    def test_crossover_splits_the_cases(self):
        # the crossover moves with the switch budget; the float form's
        # one-byte origins need M < 256 at every budget
        bounds = [first_array_m(k) for k in range(200)]
        assert bounds[0] < bounds[5] < bounds[2] < bounds[1] <= 254
        assert not any(_float_dp_is_faster(m, k) for m in (255, 256, 1024) for k in range(200))

    def test_benchmark_workloads_keep_their_forms(self):
        assert _float_dp_is_faster(4, 2)  # the shipped switching config
        assert _float_dp_is_faster(2, 0) and _float_dp_is_faster(4, 0)  # validate's best_fixed
        assert not _float_dp_is_faster(256, 2)  # the wide switching run

    @pytest.mark.parametrize("kind", ["continuous", "integer"])
    @pytest.mark.parametrize("k", [0, 1, 5])
    def test_matches_reference_at_the_crossover(self, kind, k):
        last_float = first_array_m(k) - 1
        assert _float_dp_is_faster(last_float, k)
        for m in (last_float, last_float + 1):
            for horizon in (k + 1, 90):
                self.check(self.losses(kind, horizon, m, seed=horizon * 1000 + m * 10 + k), k)

    @pytest.mark.parametrize("kind", ["continuous", "integer"])
    @pytest.mark.parametrize(
        "horizon, m, k",
        [
            (1, 1, 0), (1, 4, 3), (1, AT, 2),  # one round
            (7, 1, 3), (40, 1, 0),  # one expert
            (60, 4, 0), (60, AT, 0),  # no switch
            (6, 3, 10), (6, AT, 5), (6, BELOW, 6),  # budget at or past T - 1
            (300, 2, 1), (300, 4, 2), (200, 7, 5),
            (120, BELOW, 2), (120, AT, 2), (80, 64, 3),
        ],
    )
    def test_matches_reference(self, kind, horizon, m, k):
        self.check(self.losses(kind, horizon, m, seed=horizon * 1000 + m * 10 + k), k)

    @pytest.mark.parametrize("m", [2, 3, 5, BELOW, AT])
    def test_random_tie_heavy(self, m):
        rng = np.random.default_rng(m)
        for _ in range(15):
            horizon = int(rng.integers(1, 30))
            k = int(rng.integers(0, 6))
            losses = rng.integers(0, 2, size=(horizon, m)).astype(float)
            self.check(losses, k)

    @pytest.mark.parametrize("m", [4, AT])
    def test_all_equal_losses_stay_on_the_first_arm(self, m):
        losses = np.full((25, m), 0.5)
        self.check(losses, 3)
        seq = best_competitor(losses, fixed_kernel(m), 3)
        np.testing.assert_array_equal(seq.experts, 0)


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
