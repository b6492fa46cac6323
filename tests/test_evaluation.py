import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest

from partialmix import evaluation
from partialmix.classnet import (
    CompetitorSequence,
    TableKernel,
    fixed_kernel,
    fixed_share_kernel,
)
from partialmix.environment import (
    CompetitorSpec,
    ConstantFeedback,
    GameTranscript,
    PiecewiseLosses,
    ScriptedFeedback,
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
    play_and_score,
    realized_regret,
    regret_bound,
    theoretical_bound,
)
from partialmix.feedback import FeedbackMatrix, full_feedback, identity_feedback
from partialmix.learner import LearnerConfig, epsilon_schedule, init_state, step


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
        assert report.regret == pytest.approx(2.0, abs=1e-12)
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
        assert report.regret == pytest.approx(0.0, abs=1e-9)

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
        assert report.regret == pytest.approx(per_round.sum(), abs=1e-9)

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


class TestObservationFloorPerRound:
    """The per-round ``observation_floor`` verdict against ``_verdict`` on
    the flat (T*M) arrays, on hand-built transcripts whose other columns
    are zero, so only ``epsilon`` and ``o_min`` matter. ``o_min`` holds
    each row's first minimum, as ``prepare_round`` records it."""

    @staticmethod
    def verdict(epsilon, o):
        horizon, m = o.shape
        config = LearnerConfig(kernel=fixed_kernel(m), w_budget=1.0)
        tr = GameTranscript(config, 0, np.zeros((horizon, m)), (0.0, 1.0))
        for name in ("V", "D", "v", "d", "phi", "p_phi", "q"):
            getattr(tr, name)[:] = 0.0
        tr.eta[:] = math.nan
        tr.epsilon[:] = epsilon
        tr.o_min[:] = o[np.arange(horizon), o.argmin(axis=1)]
        competitor = CompetitorSequence.from_experts(np.zeros(horizon, dtype=int), config.kernel)
        return check_lemmas(tr, competitor)["observation_floor"]

    # the marked entries as (row, epsilon / M, o), and the expected (lhs,
    # rhs, slack, passed); every other entry has o = 100 and slack near 1
    CASES = {
        # slack 0 in the first and the third row: the earlier one wins
        "tie": ([(0, 1.0, 1.0), (2, 0.5, 0.5)], (1.0, 1.0, 0.0, True)),
        # o = 4 gives slack (4 - 5) / 4 = -0.25, above the later -0.5
        "scale": ([(0, 5.0, 4.0), (1, 1.0, 0.5)], (1.0, 0.5, -0.5, False)),
        # a NaN after a finite minimum wins, and the first NaN of two
        "nan": (
            [(0, 0.5, 0.1), (1, 0.25, math.nan), (2, 0.75, math.nan)],
            (0.25, math.nan, math.nan, False),
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("horizon, m", [(50, 4), (700, 256), (3, 6)])
    def test_matches_the_flat_verdict(self, horizon, m, case):
        marks, (lhs, rhs, slack, passed) = self.CASES[case]
        rows = [horizon // 5, horizon // 2, 4 * horizon // 5]
        epsilon = np.full(horizon, 0.5)
        o = np.full((horizon, m), 100.0)
        for mark, (i, floor, value) in enumerate(marks):
            epsilon[rows[i]] = floor * m
            o[rows[i], (mark * 7) % m] = value  # not always the same column
        flat = evaluation._verdict(
            "observation_floor", np.broadcast_to(epsilon[:, None] / m, o.shape).ravel(), o.ravel()
        )
        got = self.verdict(epsilon, o)
        assert repr(got) == repr(flat)
        assert repr((got.lhs, got.rhs, got.slack, got.passed)) == repr((lhs, rhs, slack, passed))


def dense_verdicts(tr, p, o, phi, competitor):
    """The four verdicts from whole-game (T, M) columns: the tracking sum
    through ``einsum`` over dense ``p`` and ``phi``, the floor over the
    flat ``o``."""
    config, horizon, m = tr.config, tr.horizon, tr.config.n_experts
    gamma, kernel = config.gamma, config.kernel
    sqrt_v = np.sqrt(tr.V)
    sqrt_vd = np.sqrt(tr.V + tr.D * tr.D)
    terms = np.where(np.isnan(tr.eta), 0.0, 0.5 * tr.eta * tr.v)
    prev_eta = np.concatenate(([math.nan], tr.eta[:-1]))
    with np.errstate(invalid="ignore"):
        ratio = np.where(np.isnan(tr.eta) | np.isnan(prev_eta), 1.0, tr.eta / prev_eta)
    assert ratio.max() <= 1.0
    inst = np.einsum("tm,tm->t", p, phi) - phi[np.arange(horizon), competitor.experts]
    log_counts = np.full(horizon, math.log(kernel.class_count(horizon)))
    log_counts[0] = math.log(kernel.class_count(1))
    w_prefix = log_counts - np.cumsum(kernel.path_log_factors(competitor.classes))
    verdict = evaluation._verdict
    return evaluation.LemmaDiagnostics((
        verdict("variance_sum", np.cumsum(terms), gamma * sqrt_v),
        verdict("rate_drop", np.cumsum((1.0 - ratio) * tr.d), sqrt_vd),
        verdict(
            "tracking",
            np.cumsum(inst),
            ((w_prefix + gamma) / gamma) * sqrt_vd + gamma * sqrt_v,
        ),
        verdict("observation_floor", np.repeat(tr.epsilon / m, m), o.ravel()),
    ))


class TestTranscriptColumns:
    """A game keeps ``p . phi`` in place of ``p``, and each round's
    smallest observation probability in place of ``o``. Replays through
    ``learner.step`` keep the dense ``p``, ``o`` and ``phi``; the stored
    columns and all four verdicts must equal what the dense columns give,
    bit for bit."""

    @staticmethod
    def feedback(kind, m, horizon, rng):
        def dirichlet():
            return FeedbackMatrix(np.vstack([rng.dirichlet(np.ones(m)) for _ in range(m)]))

        if kind == "bandit":
            return bandit_feedback(m)
        if kind == "full":
            return full_feedback_process(m)
        if kind == "dirichlet":
            return ConstantFeedback(dirichlet())
        cycle = [identity_feedback(m), full_feedback(m), dirichlet(), dirichlet()]
        return ScriptedFeedback([cycle[t % 4] for t in range(horizon)])

    @staticmethod
    def replay(config, loss_process, feedback_process, horizon, seed):
        """Play the game ``run_game`` plays on ``seed``, keeping dense columns."""
        m = config.n_experts
        loss_seq, play_seq = np.random.SeedSequence(seed).spawn(2)
        losses = loss_process.generate(horizon, np.random.default_rng(loss_seq))
        rng = np.random.default_rng(play_seq)
        state = init_state(config)
        p, o, phi = np.empty((3, horizon, m))
        reveals = np.empty(horizon, dtype=int)
        for i in range(horizon):
            row = losses[i].tolist()
            matrix = feedback_process.matrix_at(i + 1)
            ctx, _, indicators, phi[i], _, state = step(
                state, config, matrix, row.__getitem__, rng
            )
            p[i], o[i] = ctx.p, ctx.o
            reveals[i] = indicators.sum()
        return p, o, phi, reveals

    @pytest.mark.parametrize("kind", ["bandit", "full", "dirichlet", "mixed"])
    @pytest.mark.parametrize("m", [2, 3, 4, 8, 17, 256])
    def test_matches_the_dense_columns(self, kind, m):
        horizon = 40 if m == 256 else 90
        rng = np.random.default_rng(m * 10 + len(kind))
        config = LearnerConfig(kernel=fixed_share_kernel(m, 0.05), w_budget=20.0)
        loss_process = PiecewiseLosses(m, (0.0, 1.0), [0, m // 2, m - 1], [1 / 3, 2 / 3])
        feedback_process = self.feedback(kind, m, horizon, rng)
        tr = run_game(config, loss_process, feedback_process, horizon, seed=m)
        p, o, phi, reveals = self.replay(config, loss_process, feedback_process, horizon, m)

        if kind in ("dirichlet", "mixed"):
            assert {0, 1} <= set(reveals) and reveals.max() > 1
        assert tr.p_phi.tobytes() == np.einsum("tm,tm->t", p, phi).tobytes()
        assert tr.o_min.tobytes() == o[np.arange(horizon), o.argmin(axis=1)].tobytes()
        assert tr.phi.tobytes() == phi.tobytes()
        competitor = resolve_competitor(
            CompetitorSpec("best_k_switch", switches=2), tr.losses, config.kernel
        )
        got = check_lemmas(tr, competitor)
        assert got.all_passed
        assert repr(got) == repr(dense_verdicts(tr, p, o, phi, competitor))


class TestDiagnosedGameMemory:
    @pytest.mark.parametrize("kind", ["bandit", "full", "dirichlet"])
    @pytest.mark.parametrize("competitor", [
        CompetitorSpec("best_fixed"), CompetitorSpec("best_k_switch", switches=2),
    ])
    def test_peak_stays_below_four_columns(self, competitor, kind):
        # a game with its diagnostics keeps three (T, M) float columns
        # (losses, q, phi), the int8 indicators and (T,) temporaries, under
        # four in all whatever the feedback
        m, horizon = 256, 1000
        feedback = TestTranscriptColumns.feedback(kind, m, horizon, np.random.default_rng(5))
        bundle = ExperimentBundle(
            LearnerConfig(kernel=fixed_share_kernel(m, 1e-3), w_budget=100.0),
            PiecewiseLosses(m, (0.0, 1.0), [17, 130, 241], [1 / 3, 2 / 3]),
            feedback,
            horizon,
            competitor,
        )
        # a two-round game first fills the kernel's caches, so that the
        # traced peak does not depend on which test ran before
        play_and_score(dataclasses.replace(bundle, horizon=2), 1, with_diagnostics=True)
        tracemalloc.start()
        try:
            play_and_score(bundle, 1, with_diagnostics=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * horizon * m * 8


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
        # one process plays the seeds in turn: seed i's result is that
        # seed's game played alone
        values = np.random.default_rng(11).uniform(size=(30, 2))
        bundle = self.bundle(values)
        _, results = monte_carlo(bundle, 6, base_seed=17)
        assert results == [evaluation.play_and_score(bundle, 17 + i)[2] for i in range(6)]
        assert results == monte_carlo(bundle, 6, base_seed=17)[1]

    @pytest.mark.parametrize("with_diagnostics", [False, True])
    def test_play_and_score_composes_game_competitor_and_report(self, with_diagnostics):
        values = np.random.default_rng(13).uniform(size=(20, 2))
        bundle = self.bundle(values, CompetitorSpec("best_fixed"))
        transcript, competitor, report = evaluation.play_and_score(
            bundle, 9, with_diagnostics
        )
        config = bundle.learner_config
        game = run_game(config, bundle.loss_process, bundle.feedback_process, bundle.horizon, 9)
        np.testing.assert_array_equal(transcript.q, game.q)
        best = resolve_competitor(bundle.competitor, game.losses, config.kernel)
        np.testing.assert_array_equal(competitor.experts, best.experts)
        assert report == realized_regret(game, best, with_diagnostics)
        assert (report.diagnostics is not None) == with_diagnostics
        assert report.seed == 9
        assert report.n_switches == competitor.n_switches

    def test_play_seeds_yields_each_seed_played_alone(self):
        values = np.random.default_rng(15).uniform(size=(20, 2))
        bundle = self.bundle(values, CompetitorSpec("best_fixed"))
        plays = list(evaluation.play_seeds(bundle, 3, base_seed=5))
        assert [report.seed for _, _, report in plays] == [5, 6, 7]
        for transcript, competitor, report in plays:
            alone, alone_competitor, alone_report = evaluation.play_and_score(bundle, report.seed)
            np.testing.assert_array_equal(transcript.q, alone.q)
            np.testing.assert_array_equal(competitor.experts, alone_competitor.experts)
            assert report == alone_report

    def test_play_seeds_plays_a_game_only_when_asked(self, monkeypatch):
        played = []

        def counting(bundle, seed):
            played.append(seed)
            return (None, None, seed)

        monkeypatch.setattr(evaluation, "play_and_score", counting)
        seeds = evaluation.play_seeds(self.bundle(np.zeros((3, 2))), 3, base_seed=2)
        assert played == []
        assert next(seeds) == (None, None, 2) and played == [2]
        assert list(seeds) == [(None, None, 3), (None, None, 4)] and played == [2, 3, 4]

    @pytest.mark.parametrize("n_seeds", [0, -1])
    def test_no_seeds_fail_at_the_call(self, n_seeds):
        # raised by the call itself, before anything is iterated
        bundle = self.bundle(np.zeros((3, 2)))
        with pytest.raises(ValueError, match="need at least one seed"):
            evaluation.play_seeds(bundle, n_seeds)
        with pytest.raises(ValueError, match="need at least one seed"):
            monte_carlo(bundle, n_seeds)

    def test_no_reports_fail_before_any_arithmetic(self):
        with pytest.raises(ValueError, match="need at least one report"):
            evaluation.summarize_runs(self.bundle(np.zeros((3, 2))), [])

    def test_batch_evaluates_the_bound_once(self, monkeypatch):
        # the per-seed reports carry no bound; only the summary writes one
        calls = []

        def counting(*args):
            calls.append(args)
            return theoretical_bound(*args)

        monkeypatch.setattr(evaluation, "theoretical_bound", counting)
        values = np.random.default_rng(14).uniform(size=(10, 2))
        summary, reports = monte_carlo(self.bundle(values), 5)
        assert len(reports) == 5 and len(calls) == 1
        assert summary.bound == theoretical_bound(*calls[0])


class TestSingleExpert:
    @pytest.mark.parametrize(
        "feedback",
        [
            bandit_feedback(1),
            full_feedback_process(1),
            ConstantFeedback(FeedbackMatrix(np.array([[1.0]]), "strict")),
        ],
        ids=["bandit", "full", "strict"],
    )
    @pytest.mark.parametrize("epsilon", [0.0, 1.0, None], ids=["0", "1", "default"])
    def test_zero_regret_and_passing_diagnostics(self, feedback, epsilon):
        # one expert: the learner and every competitor play it each round
        values = np.random.default_rng(5).uniform(size=(40, 1))
        bundle = ExperimentBundle(
            learner_config=LearnerConfig(kernel=fixed_kernel(1), w_budget=2.0, epsilon=epsilon),
            loss_process=ScriptedLosses(values, (0.0, 1.0)),
            feedback_process=feedback,
            horizon=40,
            competitor=CompetitorSpec("best_fixed"),
        )
        transcript, _, report = evaluation.play_and_score(bundle, 3, with_diagnostics=True)
        assert np.all(transcript.selected == 0) and np.all(transcript.q == 1.0)
        # the learner's loss is a round-by-round fold and the competitor's a
        # numpy sum, so equal plays can differ in the last bits
        assert report.regret == pytest.approx(0.0, abs=1e-12)
        assert report.diagnostics.all_passed, report.diagnostics.checks


class TestZeroEpsilonStrictFeedback:
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("n_experts", [2, 3, 4, 5])
    def test_plays_with_infinite_bound_and_passing_diagnostics(self, n_experts, seed):
        # no uniform floor: q can go to 1e-9, but a Dirichlet row is
        # positive in every column, so every o_m stays positive
        rng = np.random.default_rng([n_experts, seed])
        entries = rng.dirichlet(np.ones(n_experts), size=n_experts)
        bundle = ExperimentBundle(
            learner_config=LearnerConfig(
                kernel=fixed_kernel(n_experts), w_budget=10.0, epsilon=0.0
            ),
            loss_process=ScriptedLosses(rng.uniform(size=(2000, n_experts)), (0.0, 1.0)),
            feedback_process=ConstantFeedback(FeedbackMatrix(entries, "strict")),
            horizon=2000,
            competitor=CompetitorSpec("best_fixed"),
        )
        transcript, _, report = evaluation.play_and_score(bundle, seed, with_diagnostics=True)
        assert np.all(np.isfinite(transcript.q)) and math.isfinite(report.regret)
        # the bound's M/eps_T term is infinite at eps = 0
        bound = regret_bound(transcript.config, report.complexity, transcript.epsilon)
        assert bound.theorem == bound.cleaner == math.inf
        assert len(report.diagnostics.checks) == 4
        assert report.diagnostics.all_passed, report.diagnostics.checks


class TestFitScaling:
    def test_exact_power_laws(self):
        horizons = np.array([100.0, 200.0, 400.0, 800.0, 1600.0])
        assert fit_scaling(horizons, 3.0 * horizons ** (2 / 3)) == pytest.approx(
            2 / 3, abs=1e-9
        )
        assert fit_scaling(horizons, 0.5 * horizons) == pytest.approx(1.0, abs=1e-9)

    def test_repeated_horizons_are_one_point(self):
        # four entries but two distinct horizons: a line through two points
        horizons = np.array([50.0, 50.0, 100.0, 100.0])
        with pytest.raises(DegenerateFitError, match="four distinct horizons"):
            fit_scaling(horizons, np.array([1.0, 1.1, 2.0, 2.1]))

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
