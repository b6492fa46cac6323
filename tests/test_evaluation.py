import math
import re

import numpy as np
import pytest

from partialmix import evaluation
from partialmix.classnet import CompetitorSequence, TableKernel, fixed_kernel
from partialmix.environment import (
    CompetitorSpec,
    ScriptedLosses,
    bandit_feedback,
    full_feedback_process,
    resolve_competitor,
    run_game,
)
from partialmix.evaluation import (
    DegenerateFitError,
    ExperimentBundle,
    LengthMismatchError,
    check_lemmas,
    fit_scaling,
    monte_carlo,
    realized_regret,
    theoretical_bound,
)
from partialmix.learner import LearnerConfig, epsilon_schedule


def forced_arm_config():
    """Prior mass all on arm 0 and no mixing: the learner always plays 0."""
    kernel = TableKernel(np.arange(2), np.array([1.0, 0.0]), np.eye(2), 2)
    return LearnerConfig(kernel=kernel, gamma=1.0, epsilon=0.0)


class TestRealizedRegret:
    def test_hand_arithmetic(self):
        # learner forced onto arm 0 with losses (1, 0, 1); competitor arm 1
        # always loses 0, so the regret is exactly 2
        config = forced_arm_config()
        values = np.array([[1.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
        transcript = run_game(
            config, ScriptedLosses(values, (0.0, 1.0)), bandit_feedback(2), 3, seed=0
        )
        competitor = resolve_competitor(
            CompetitorSpec("fixed", expert=1), transcript.losses, config.kernel
        )
        report = realized_regret(transcript, competitor, with_diagnostics=False)
        assert report.realized_regret == pytest.approx(2.0, abs=1e-12)
        assert report.competitor_loss == 0.0
        assert report.normalized_regret == pytest.approx(2.0, abs=1e-12)
        # arm 1 carries zero prior mass, so the competitor sits outside the
        # kernel's support: its complexity is infinite, the regret stands
        assert math.isinf(report.complexity)

    def test_self_comparison_is_zero(self):
        # fixed-share kernel keeps the learner's own switching path in support
        from partialmix.classnet import fixed_share_kernel

        config = LearnerConfig(kernel=fixed_share_kernel(3, 0.1), w_budget=160.0)
        rng = np.random.default_rng(1)
        values = rng.uniform(size=(50, 3))
        transcript = run_game(
            config, ScriptedLosses(values, (0.0, 1.0)), bandit_feedback(3), 50, seed=1
        )
        competitor = CompetitorSequence.from_experts(transcript.selected, config.kernel)
        report = realized_regret(transcript, competitor, with_diagnostics=False)
        assert report.realized_regret == pytest.approx(0.0, abs=1e-9)

    def test_regret_decomposes_per_round(self):
        config = LearnerConfig(kernel=fixed_kernel(3), w_budget=2.3)
        rng = np.random.default_rng(2)
        values = rng.uniform(size=(80, 3))
        transcript = run_game(
            config, ScriptedLosses(values, (0.0, 1.0)), bandit_feedback(3), 80, seed=2
        )
        competitor = resolve_competitor(
            CompetitorSpec("best_fixed"), transcript.losses, config.kernel
        )
        report = realized_regret(transcript, competitor)
        per_round = values[np.arange(80), transcript.selected] - values[
            np.arange(80), competitor.experts
        ]
        assert report.realized_regret == pytest.approx(per_round.sum(), abs=1e-9)

    def test_budget_exceeded_flagged(self):
        config = LearnerConfig(kernel=fixed_kernel(2), w_budget=0.5)
        values = np.random.default_rng(3).uniform(size=(20, 2))
        transcript = run_game(
            config, ScriptedLosses(values, (0.0, 1.0)), bandit_feedback(2), 20, seed=3
        )
        competitor = resolve_competitor(
            CompetitorSpec("fixed", expert=0), transcript.losses, config.kernel
        )
        with pytest.warns(UserWarning, match="exceeds the budget"):
            report = realized_regret(transcript, competitor, with_diagnostics=False)
        assert report.budget_exceeded
        assert report.complexity == pytest.approx(2 * math.log(2))

    def test_budget_lapse_warning_shows_the_gap(self):
        # 2 log 2 and 1.386 agree to 4 significant digits; the warning must
        # still tell them apart
        config = LearnerConfig(kernel=fixed_kernel(2), w_budget=1.386)
        values = np.random.default_rng(3).uniform(size=(20, 2))
        transcript = run_game(
            config, ScriptedLosses(values, (0.0, 1.0)), bandit_feedback(2), 20, seed=3
        )
        competitor = resolve_competitor(
            CompetitorSpec("fixed", expert=0), transcript.losses, config.kernel
        )
        expected = (
            "competitor complexity 1.3862943611198906 exceeds the budget "
            "1.3859999999999999 by 0.00029436111989067371; the regret guarantee lapses"
        )
        with pytest.warns(UserWarning, match=re.escape(expected)):
            realized_regret(transcript, competitor, with_diagnostics=False)

    def test_length_mismatch(self):
        config = LearnerConfig(kernel=fixed_kernel(2), w_budget=1.0)
        values = np.random.default_rng(4).uniform(size=(10, 2))
        transcript = run_game(
            config, ScriptedLosses(values, (0.0, 1.0)), bandit_feedback(2), 10, seed=4
        )
        short = CompetitorSequence.from_experts([0] * 9, config.kernel)
        with pytest.raises(LengthMismatchError):
            realized_regret(transcript, short)


class TestTheoreticalBound:
    def test_epsilon_one_closed_form(self):
        m, w, gamma, horizon = 3, 2.0, 1.5, 50
        bound = theoretical_bound(m, w, gamma, np.ones(horizon))
        expected = (
            1 + m + horizon + gamma * math.sqrt(m * horizon)
            + ((w + gamma) / gamma) * math.sqrt(m * horizon + m * m)
        )
        assert bound.theorem == pytest.approx(expected, rel=1e-12)

    def test_cleaner_dominates_theorem(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            m = int(rng.integers(1, 10))
            w = float(rng.uniform(0.1, 40.0))
            gamma = float(rng.uniform(0.1, 8.0))
            horizon = int(rng.integers(1, 300))
            eps = np.array(
                [epsilon_schedule(m, w, t) for t in range(1, horizon + 1)]
            )
            bound = theoretical_bound(m, w, gamma, eps)
            assert bound.cleaner >= bound.theorem - 1e-9

    def test_asymptotic_rate_constant(self):
        # with the default schedule and gamma = sqrt(W) the bound tracks
        # M^(1/3) W^(1/3) T^(2/3) within a constant factor
        for m, w in [(2, 1.0), (8, 24.0), (4, 5.0)]:
            gamma = math.sqrt(w)
            for exponent in range(10, 21):
                horizon = 2**exponent
                ts = np.arange(1, horizon + 1, dtype=float)
                eps = np.minimum(1.0, (m * w) ** (1 / 3) * ts ** (-1 / 3))
                bound = theoretical_bound(m, w, gamma, eps)
                rate = m ** (1 / 3) * w ** (1 / 3) * horizon ** (2 / 3)
                assert bound.theorem / rate <= 10.0
                assert bound.theorem / rate >= 0.1

    def test_rejects_bad_schedules(self):
        with pytest.raises(ValueError):
            theoretical_bound(2, 1.0, 1.0, np.array([0.5, 0.6]))
        with pytest.raises(ValueError):
            theoretical_bound(2, 1.0, 1.0, np.array([0.5, 0.0]))


class TestCheckLemmas:
    def test_all_zero_estimates_pass_trivially(self):
        config = LearnerConfig(kernel=fixed_kernel(2), w_budget=1.0)
        values = np.full((30, 2), 0.7)
        transcript = run_game(
            config, ScriptedLosses(values, (0.0, 1.0)), bandit_feedback(2), 30, seed=6
        )
        competitor = resolve_competitor(
            CompetitorSpec("fixed", expert=0), transcript.losses, config.kernel
        )
        diagnostics = check_lemmas(transcript, competitor)
        assert diagnostics.all_passed
        assert diagnostics["variance_sum"].lhs == 0.0

    def test_real_run_passes(self):
        config = LearnerConfig(kernel=fixed_kernel(4), w_budget=3.0)
        rng = np.random.default_rng(7)
        values = rng.uniform(size=(400, 4))
        transcript = run_game(
            config, ScriptedLosses(values, (0.0, 1.0)), bandit_feedback(4), 400, seed=7
        )
        competitor = resolve_competitor(
            CompetitorSpec("best_fixed"), transcript.losses, config.kernel
        )
        assert check_lemmas(transcript, competitor).all_passed

    def test_corrupted_rate_fails_rate_drop(self):
        config = LearnerConfig(kernel=fixed_kernel(3), w_budget=2.0)
        rng = np.random.default_rng(8)
        values = rng.uniform(size=(200, 3))
        transcript = run_game(
            config, ScriptedLosses(values, (0.0, 1.0)), bandit_feedback(3), 200, seed=8
        )
        competitor = resolve_competitor(
            CompetitorSpec("best_fixed"), transcript.losses, config.kernel
        )
        assert check_lemmas(transcript, competitor).all_passed
        # inflate a late rate far beyond its predecessor
        assert not math.isnan(transcript.eta[150])
        transcript.eta[150] = transcript.eta[149] * 40.0
        transcript.d[150] = max(transcript.d[150], 1.0)
        diagnostics = check_lemmas(transcript, competitor)
        assert not diagnostics["rate_drop"].passed

    def test_tagged_custom_kernel_run_passes(self):
        # classes that share experts (tagged) through the full loop, scored
        # against an in-support class path picked greedily by prior weight
        from partialmix.classnet import complexity
        from partialmix.validation import random_table_kernel

        rng = np.random.default_rng(40)
        horizon = 150
        kernel = random_table_kernel(rng, 3)
        path = [int(np.argmax(kernel.prior))]
        for _ in range(1, horizon):
            path.append(int(np.argmax(kernel.matrix[path[-1]])))
        competitor = CompetitorSequence(path, kernel)
        config = LearnerConfig(
            kernel=kernel, w_budget=complexity(kernel, competitor)
        )
        values = rng.uniform(size=(horizon, 3))
        transcript = run_game(
            config, ScriptedLosses(values, (0.0, 1.0)), bandit_feedback(3), horizon, seed=41
        )
        diagnostics = check_lemmas(transcript, competitor)
        assert diagnostics.all_passed

    def test_unset_rates_count_as_ratio_one(self):
        # equal losses keep every estimate at zero, so the rate never sets
        # and the rate_drop sum stays exactly zero
        config = LearnerConfig(kernel=fixed_kernel(2), w_budget=1.0)
        values = np.full((10, 2), 0.2)
        transcript = run_game(
            config, ScriptedLosses(values, (0.0, 1.0)), bandit_feedback(2), 10, seed=9
        )
        competitor = resolve_competitor(
            CompetitorSpec("fixed", expert=1), transcript.losses, config.kernel
        )
        assert np.all(np.isnan(transcript.eta))
        diagnostics = check_lemmas(transcript, competitor)
        assert diagnostics["rate_drop"].lhs == 0.0
        assert diagnostics.all_passed

    @pytest.mark.parametrize("m", [2, 4, 8])
    def test_tracking_bound_is_within_a_factor_four(self, m):
        # one expert always loses 0, the rest 1, everything revealed: the
        # estimate regret climbs to about 0.3 of the tracking bound, so the
        # check fails here if its bound side shrinks by a factor 0.25
        config = LearnerConfig(kernel=fixed_kernel(m), w_budget=1.0, epsilon=0.0)
        values = np.ones((30, m))
        values[:, -1] = 0.0
        transcript = run_game(
            config, ScriptedLosses(values, (0.0, 1.0)), full_feedback_process(m), 30, seed=3
        )
        competitor = resolve_competitor(
            CompetitorSpec("best_fixed"), transcript.losses, config.kernel
        )
        tracking = check_lemmas(transcript, competitor)["tracking"]
        assert tracking.passed
        assert tracking.rhs >= 1.0
        assert tracking.lhs >= 0.25 * tracking.rhs


class TestMonteCarlo:
    def bundle(self, values, competitor=None, **kwargs):
        config = LearnerConfig(
            kernel=fixed_kernel(2), w_budget=math.log(4), **kwargs
        )
        return ExperimentBundle(
            learner_config=config,
            loss_process=ScriptedLosses(values, (0.0, 1.0)),
            feedback_process=bandit_feedback(2),
            horizon=values.shape[0],
            competitor=competitor or CompetitorSpec("fixed", expert=0),
        )

    def test_single_seed_flags_undefined_error(self):
        values = np.random.default_rng(10).uniform(size=(20, 2))
        summary, results = monte_carlo(self.bundle(values), 1, base_seed=3)
        assert summary.n_seeds == 1
        assert not summary.std_error_defined
        assert summary.std_error == 0.0
        assert summary.mean_regret == results[0].regret

    def test_equal_losses_zero_mean_zero_width(self):
        values = np.full((25, 2), 0.4)
        summary, _ = monte_carlo(self.bundle(values), 8)
        assert summary.mean_regret == pytest.approx(0.0, abs=1e-12)
        low, high = summary.confidence_interval
        assert high - low == pytest.approx(0.0, abs=1e-12)

    def test_deterministic_and_worker_independent(self):
        values = np.random.default_rng(11).uniform(size=(30, 2))
        bundle = self.bundle(values)
        seq, _ = monte_carlo(bundle, 6, base_seed=17, n_workers=1)
        par, _ = monte_carlo(bundle, 6, base_seed=17, n_workers=2)
        assert seq == par
        again, _ = monte_carlo(bundle, 6, base_seed=17, n_workers=1)
        assert seq == again


    @pytest.mark.parametrize("n_workers, n_seeds, pools", [(64, 2, [2]), (2, 5, [2]), (3, 1, [])])
    def test_starts_at_most_one_worker_per_seed(self, monkeypatch, n_workers, n_seeds, pools):
        # a recorder stands in for the process pool, so no process starts
        started = []

        class Recorder:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def map(self, fn, *iterables, chunksize=1):
                return map(fn, *iterables)

        monkeypatch.setattr(evaluation, "ProcessPoolExecutor", Recorder)
        bundle = self.bundle(np.random.default_rng(12).uniform(size=(10, 2)))
        _, results = monte_carlo(bundle, n_seeds, base_seed=5, n_workers=n_workers)
        assert started == pools
        assert results == monte_carlo(bundle, n_seeds, base_seed=5)[1]

    def test_needs_a_worker(self):
        bundle = self.bundle(np.full((5, 2), 0.5))
        with pytest.raises(ValueError, match="at least one worker"):
            monte_carlo(bundle, 2, n_workers=0)


class TestFitScaling:
    def test_exact_power_laws(self):
        horizons = np.array([100.0, 200.0, 400.0, 800.0, 1600.0])
        assert fit_scaling(horizons, 3.0 * horizons ** (2 / 3)) == pytest.approx(
            2 / 3, abs=1e-9
        )
        assert fit_scaling(horizons, 0.5 * horizons) == pytest.approx(1.0, abs=1e-9)

    def test_degenerate_inputs(self):
        with pytest.raises(DegenerateFitError):
            fit_scaling(np.array([1.0, 2.0, 4.0]), np.array([1.0, 2.0, 3.0]))
        with pytest.raises(DegenerateFitError):
            fit_scaling(
                np.array([1.0, 2.0, 4.0, 8.0]), np.array([1.0, 2.0, 0.0, 3.0])
            )


class TestAffineEnvelope:
    def test_shift_1e3_stays_aligned(self):
        # the README's envelope: at a shift of 1e3 loss scales the shifted
        # game makes the same selections and observations, and q moves by
        # at most 1e-4 (4.6e-5 measured)
        from partialmix.validation import affine_pair

        cmp = affine_pair(1.0, 1e3, horizon=1000, seed=7)
        assert cmp.selections_equal and cmp.indicators_equal
        assert cmp.q_sup_diff <= 1e-4

    def test_shift_1e4_stays_aligned(self):
        # the last aligned row of the README's table: 5.5e-4 measured
        from partialmix.validation import affine_pair

        cmp = affine_pair(1.0, 1e4, horizon=1000, seed=7)
        assert cmp.selections_equal and cmp.indicators_equal
        assert cmp.q_sup_diff <= 1e-3

    def test_shift_1e12_diverges(self):
        # far outside the envelope the shifted game is a different game; a
        # change that made this pass would have moved the envelope and the
        # README's table with it
        from partialmix.validation import affine_pair

        cmp = affine_pair(1.0, 1e12, horizon=1000, seed=7)
        assert not cmp.selections_equal
        assert cmp.q_sup_diff > 1e-2
