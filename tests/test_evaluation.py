import math
import re

import numpy as np
import pytest

from partialmix.classnet import ClassId, CompetitorSequence, TableKernel, fixed_kernel
from partialmix.environment import (
    CompetitorSpec,
    ScriptedLosses,
    bandit_feedback,
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
    kernel = TableKernel(
        (ClassId(0), ClassId(1)), np.array([1.0, 0.0]), np.eye(2), 2
    )
    return LearnerConfig(n_experts=2, kernel=kernel, gamma=1.0, epsilon=0.0)


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

        config = LearnerConfig(n_experts=3, kernel=fixed_share_kernel(3, 0.1), w_budget=160.0)
        rng = np.random.default_rng(1)
        values = rng.uniform(size=(50, 3))
        transcript = run_game(
            config, ScriptedLosses(values, (0.0, 1.0)), bandit_feedback(3), 50, seed=1
        )
        competitor = CompetitorSequence.from_experts(transcript.selections, config.kernel)
        report = realized_regret(transcript, competitor, with_diagnostics=False)
        assert report.realized_regret == pytest.approx(0.0, abs=1e-9)

    def test_regret_decomposes_per_round(self):
        config = LearnerConfig(n_experts=3, kernel=fixed_kernel(3), w_budget=2.3)
        rng = np.random.default_rng(2)
        values = rng.uniform(size=(80, 3))
        transcript = run_game(
            config, ScriptedLosses(values, (0.0, 1.0)), bandit_feedback(3), 80, seed=2
        )
        competitor = resolve_competitor(
            CompetitorSpec("best_fixed"), transcript.losses, config.kernel
        )
        report = realized_regret(transcript, competitor)
        per_round = values[np.arange(80), transcript.selections] - values[
            np.arange(80), competitor.experts
        ]
        assert report.realized_regret == pytest.approx(per_round.sum(), abs=1e-9)

    def test_budget_exceeded_flagged(self):
        config = LearnerConfig(n_experts=2, kernel=fixed_kernel(2), w_budget=0.5)
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
        config = LearnerConfig(n_experts=2, kernel=fixed_kernel(2), w_budget=1.386)
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
        config = LearnerConfig(n_experts=2, kernel=fixed_kernel(2), w_budget=1.0)
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
        assert bound.value == bound.theorem

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
        config = LearnerConfig(n_experts=2, kernel=fixed_kernel(2), w_budget=1.0)
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
        config = LearnerConfig(n_experts=4, kernel=fixed_kernel(4), w_budget=3.0)
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
        config = LearnerConfig(n_experts=3, kernel=fixed_kernel(3), w_budget=2.0)
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
        target = transcript.records[150]
        assert target.eta_t is not None
        target.eta_t = transcript.records[149].eta_t * 40.0
        target.d_t = max(target.d_t, 1.0)
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
        competitor = CompetitorSequence(tuple(kernel.classes[i] for i in path))
        config = LearnerConfig(
            n_experts=3, kernel=kernel, w_budget=complexity(kernel, competitor)
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
        config = LearnerConfig(n_experts=2, kernel=fixed_kernel(2), w_budget=1.0)
        values = np.full((10, 2), 0.2)
        transcript = run_game(
            config, ScriptedLosses(values, (0.0, 1.0)), bandit_feedback(2), 10, seed=9
        )
        competitor = resolve_competitor(
            CompetitorSpec("fixed", expert=1), transcript.losses, config.kernel
        )
        assert all(r.eta_t is None for r in transcript.records)
        diagnostics = check_lemmas(transcript, competitor)
        assert diagnostics["rate_drop"].lhs == 0.0
        assert diagnostics.all_passed


class TestMonteCarlo:
    def bundle(self, values, competitor=None, **kwargs):
        config = LearnerConfig(
            n_experts=2, kernel=fixed_kernel(2), w_budget=math.log(4), **kwargs
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
